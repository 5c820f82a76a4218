"""Command line entry points.

Subcommands:
  sim <scenario-file|preset>       run one scenario, write log CSV + report JSON
  sweep <preset-glob>              run matching presets in parallel
  map <surface>                    analytical surfaces over the speed-torque grid
  eig                              eigenvalue trajectory against speed
  validate <scenario-file|preset>  validate without running

A preset name wins over a scenario file of the same name.

Exit codes: 0 success, 1 validation failure, a command-line usage error or
an output directory that cannot be made or written, 2 numerical divergence.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .analysis import MAP_COLUMNS, OperatingGrid, eigen_sweep, evaluate_maps, write_maps_csv
from .estimator import ParameterVector
from .pu import ConfigError, default_machine
from .runner import SimulationDiverged, run
from .scenario import PRESETS, Scenario, load_scenario, preset
# preset_library is not called here; it stays a module attribute because
# the benchmark's tracer (perfbench/tracing.py) wraps it by this name
from .scenario import preset_library  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGED = 2

# argparse reads "-1e-3" as an option, not as a negative number
RANGE_HELP = "lower and upper bound; write a negative bound in decimal form (-0.001, not -1e-3)"


def _resolve_scenario(ref: str, seed: int | None = None) -> Scenario:
    """The preset named ``ref``, else the scenario file at ``ref``; a preset
    name wins over a file of the same name. A ``seed`` given here replaces
    the scenario's in its data, so one scenario is built and validated once."""
    if ref in PRESETS:
        return preset(ref, seed)
    if os.path.exists(ref):
        return load_scenario(ref, seed)
    raise ConfigError(f"{ref!r} is neither a preset name nor a scenario file")


def _report_dict(result) -> dict:
    return {
        "scenario": result.scenario_name,
        "total_steps": result.total_steps,
        "mpp_steps": result.mpp_steps,
        "reports": {k: asdict(v) for k, v in result.reports.items()},
    }


def _run_one(scenario: Scenario, out_dir: str) -> tuple[dict, str]:
    """Runs ``scenario`` and writes its log CSV and report JSON into
    ``out_dir``, which exists; returns the report and the JSON text written."""
    result = run(scenario)
    result.write_csv(os.path.join(out_dir, f"{scenario.name}.csv"))
    report = _report_dict(result)
    text = json.dumps(report, indent=2)
    with open(os.path.join(out_dir, f"{scenario.name}_report.json"), "w") as f:
        f.write(text)
    return report, text


def cmd_sim(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed)
    os.makedirs(args.out, exist_ok=True)  # before the run: a bad --out fails at once
    _, text = _run_one(scenario, args.out)
    print(text)
    return EXIT_OK


def _sweep_one(scenario: Scenario, out_dir: str) -> tuple[str, bool]:
    """A preset's status line and whether it diverged; the batch goes on."""
    try:
        report, _ = _run_one(scenario, out_dir)
    except SimulationDiverged as exc:
        return f"{scenario.name}: diverged: {exc}", True
    return f"{scenario.name}: ok {json.dumps(report['reports'])}", False


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    names = sorted(fnmatch.filter(PRESETS, args.pattern))
    if not names:
        raise ConfigError(f"no presets match {args.pattern!r}")
    scenarios = [preset(name, args.seed) for name in names]
    os.makedirs(args.out, exist_ok=True)
    if args.jobs > 1:
        # imported here: the process pool machinery costs every other command
        # its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_one, scenarios, [args.out] * len(scenarios)))
    else:
        outcomes = [_sweep_one(scenario, args.out) for scenario in scenarios]
    for line, _ in outcomes:
        print(line)
    return EXIT_DIVERGED if any(diverged for _, diverged in outcomes) else EXIT_OK


def _axis(bounds: tuple[float, float], points: int, option: str) -> np.ndarray:
    """``points`` evenly spaced values over a finite, increasing range."""
    lo, hi = bounds
    if points < 2:
        raise ConfigError(f"--points must be >= 2, got {points}")
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"{option} must be finite and increasing, got {lo} {hi}")
    return np.linspace(lo, hi, points)


def cmd_map(args: argparse.Namespace) -> int:
    rel = (args.delta_psi, args.delta_rs, args.delta_xd, args.delta_xq)
    if not all(-math.inf < d < math.inf for d in rel):
        raise ConfigError(f"--delta-* mismatches must be finite, got {rel}")
    base, params = default_machine()
    grid = OperatingGrid(
        speed_axis=_axis(args.speed_range, args.points, "--speed-range"),
        torque_axis=_axis(args.torque_range, args.points, "--torque-range"),
    )
    deltas = (
        args.delta_psi * params.psi_m,
        args.delta_rs * params.r_s,
        args.delta_xd * params.x_d,
        args.delta_xq * params.x_q,
    )
    tables = evaluate_maps(grid, params, base.omega_n, deltas=deltas)  # rejects a too-large speed
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"map_{args.surface}.csv")
    write_maps_csv(tables, path, args.surface)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_eig(args: argparse.Namespace) -> int:
    base, params = default_machine()
    theta = ParameterVector(psi_m=params.psi_m, r_s=params.r_s)
    speeds = _axis(args.speed_range, args.points, "--speed-range")
    rows = eigen_sweep(theta, (params.x_d, params.x_q), base.omega_n, speeds)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "eigenvalues.csv")
    with open(path, "w", newline="") as f:  # csv.DictWriter's text: repr floats, str flag, CRLF
        f.write(",".join(rows[0]._fields) + "\r\n")
        f.writelines("%r,%r,%r,%r,%r,%r,%r,%s\r\n" % row for row in rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed)  # a Scenario validates when built
    print(f"{scenario.name}: valid")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at its first call and kept for the
    process: each ``parse_args`` returns a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="rpemsim",
        description="IPMSM drive simulation with online parameter identification",
    )
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sim", help="run one scenario or preset")
    sp.add_argument("scenario")
    sp.set_defaults(func=cmd_sim)

    sp = sub.add_parser("sweep", help="run presets matching a glob pattern")
    sp.add_argument("pattern")
    sp.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("map", help="analytical surface maps")
    sp.add_argument("surface", choices=MAP_COLUMNS)
    sp.add_argument("--speed-range", type=float, nargs=2, default=(-1.0, 1.0), help=RANGE_HELP)
    sp.add_argument("--torque-range", type=float, nargs=2, default=(-1.0, 1.0), help=RANGE_HELP)
    sp.add_argument("--points", type=int, default=81)
    sp.add_argument("--delta-psi", type=float, default=-0.1,
                    help="relative flux mismatch for sensitivity surfaces")
    sp.add_argument("--delta-rs", type=float, default=0.0)
    sp.add_argument("--delta-xd", type=float, default=0.0)
    sp.add_argument("--delta-xq", type=float, default=0.0)
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("eig", help="eigenvalue trajectory over speed")
    sp.add_argument("--speed-range", type=float, nargs=2, default=(0.0, 1.2), help=RANGE_HELP)
    sp.add_argument("--points", type=int, default=121)
    sp.set_defaults(func=cmd_eig)

    sp = sub.add_parser("validate", help="validate a scenario file or preset")
    sp.add_argument("scenario")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, the divergence code here, on a usage error
        return EXIT_VALIDATION if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # --out names a file, or a write fails
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationDiverged as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    raise SystemExit(main())
