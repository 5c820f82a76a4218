"""Workload inputs, operations and output digests of the rpemsim benchmark.

Every operation goes through a public entry point of the package
(``rpemsim.run`` or ``rpemsim.cli.main``) and its outputs are hashed
(SHA-256) and compared with ``golden_ops.json``. The workload seed only
selects and orders operations from a fixed pool (presets x noise seeds,
mismatch-delta tuples), and the golden table holds a digest for every
member of that pool, so every seed is checked bit for bit.

Changing any constant below changes the operations, so the golden table
must then be rewritten with ``python3 perfbench/golden.py --write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_OPS = Path(__file__).resolve().parent / "golden_ops.json"

WORKLOADS = ("closed_loop", "sweep", "maps")
# module a user of each workload imports; set-up times its import
ENTRY_MODULE = {"closed_loop": "rpemsim", "sweep": "rpemsim.cli", "maps": "rpemsim.cli"}

# noise seeds the workload seed picks from; golden digests cover all of them
NOISE_SEED_POOL = tuple(range(101, 117))

# closed_loop: one simulated horizon for every estimator path; preset
# event and schedule times are scaled into it
CLOSED_LOOP_HORIZON_S = 0.4
CLOSED_LOOP_SEEDS_PER_CASE = 2
CLOSED_LOOP_CASES = (
    "fig7a",                # SGA flux trace at speed
    "bench_psim_gna_load",  # GNA, exact inverse at speed
    "bench_rs_gna_n0",      # GNA on the pseudoinverse every step, standstill
    "bench_rs_phyint_n0",   # PhyInt at standstill
    "fig9c",                # speed loop, dynamic speed
    "rated_dynamic",        # dynamic gradients at rated speed (criterion 04 point)
)

# sweep: every preset, several noise seeds, short runs at full-rate logging
SWEEP_HORIZON_S = 0.05
SWEEP_SEEDS_PER_PRESET = 4

# maps: the CLI's default +-1 pu square grid, densified; mismatch deltas
# from a fixed pool
MAP_POINTS = 101
MAP_CALLS_PER_PASS = 8
EIG_POINTS = 4001
DELTA_POOL_SIZE = 16


def import_rpemsim():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rpemsim
    import rpemsim.cli

    where = Path(rpemsim.__file__).resolve().parent
    if where != SRC / "rpemsim":
        raise ImportError(f"rpemsim imported from {where}, expected {SRC / 'rpemsim'}")
    return rpemsim


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _hash_arrays(h, named: list[tuple[str, np.ndarray]]) -> None:
    for name, arr in named:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())


def digest_run(result) -> str:
    """Full-rate arrays, log arrays, step counts and convergence reports of
    one ``RunResult``."""
    h = hashlib.sha256()
    _hash_arrays(h, [
        ("t_full", result.t_full),
        ("psi_m_hat", result.psi_m_hat),
        ("r_s_hat", result.r_s_hat),
        ("psi_m_true", result.psi_m_true),
        ("r_s_true", result.r_s_true),
    ])
    _hash_arrays(h, sorted(result.log.items()))
    reports = {
        k: [repr(getattr(v, f.name)) for f in fields(v)]
        for k, v in sorted(result.reports.items())
    }
    h.update(json.dumps([result.total_steps, result.mpp_steps, reports]).encode())
    return h.hexdigest()


def digest_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def digest_map(tables, csv_path: Path) -> str:
    """Every surface table of one ``MapTables``, its grid, and the CSV bytes."""
    h = hashlib.sha256()
    _hash_arrays(h, [
        ("speed_axis", tables.grid.speed_axis),
        ("torque_axis", tables.grid.torque_axis),
    ])
    _hash_arrays(h, [
        (f.name, getattr(tables, f.name)) for f in fields(tables) if f.name != "grid"
    ])
    h.update(csv_path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a pass: ``call`` is timed, ``digest`` is not."""

    key: str                           # entry in the golden table
    items: int                         # steps or grid cells; 0: not counted
    call: Callable[[], Any]
    digest: Callable[[Any], str]


@dataclass
class Outcome:
    key: str
    seconds: float
    items: int
    digest: Optional[str]
    ok: bool
    error: str = ""


def execute(op: Op, golden: dict[str, str]) -> Outcome:
    """Run one operation; a raise or a digest mismatch is a failed outcome."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(op.key, time.perf_counter() - t0, op.items, None, False,
                       f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        d = op.digest(out)
    except Exception as exc:
        return Outcome(op.key, seconds, op.items, None, False,
                       f"digest {type(exc).__name__}: {exc}")
    ok = golden.get(op.key) == d
    return Outcome(op.key, seconds, op.items, d, ok, "" if ok else "digest mismatch")


def cli_main(argv: list[str]) -> None:
    """``rpemsim.cli.main`` with its stdout report captured; a non-zero exit
    code raises."""
    import rpemsim.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = rpemsim.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"rpemsim {' '.join(argv)} exited {rc}")


def scaled_scenario(d: dict, horizon_s: float, seed: int, name: str) -> dict:
    """Scenario dict shortened to ``horizon_s``, with event and schedule
    times scaled by the same factor, and the given noise seed."""
    k = horizon_s / d["duration_s"]
    ctl = dict(d["control"])
    for key in ("tau_ref", "speed_ref"):
        ctl[key] = [[t * k, v] for t, v in ctl[key]]
    return {
        **d,
        "name": name,
        "duration_s": horizon_s,
        "control": ctl,
        "events": [{**ev, "time_s": ev["time_s"] * k} for ev in d["events"]],
        "seed": seed,
    }


def rated_dynamic_dict() -> dict:
    """Rated speed with the voltage limit of criterion 04, both prediction
    gradients in dynamic mode, and a flux step."""
    return {
        "name": "rated_dynamic",
        "duration_s": 8.0,
        "plant": {"noise_sigma_pu": 0.002},
        "control": {"tau_ref": [[0.0, 0.2]], "speed_ref": [[0.0, 1.0]], "u_max_pu": 1.5},
        "estimator": {"gradient_mode_psi": "dynamic", "gradient_mode_rs": "dynamic"},
        "events": [{"time_s": 1.0, "target": "psi_m", "factor": 0.92}],
        "seed": 1,
    }


def closed_loop_ops(pairs: list[tuple[str, int]]) -> list[Op]:
    import rpemsim

    presets = rpemsim.preset_library()
    horizon = CLOSED_LOOP_HORIZON_S
    ops = []
    for case, seed in pairs:
        base = rated_dynamic_dict() if case == "rated_dynamic" else presets[case].to_dict()
        sc = rpemsim.Scenario.from_dict(
            scaled_scenario(base, horizon, seed, f"{case}_s{seed}")
        )
        n_steps = int(round(sc.duration_s / sc.t_samp_s))
        # resolve rpemsim.run at call time so a traced run sees its wrapper
        ops.append(Op(f"closed_loop:{case}:s{seed}", n_steps,
                      lambda sc=sc: rpemsim.run(sc), digest_run))
    return ops


def sweep_ops(pairs: list[tuple[str, int]], workdir: Path) -> list[Op]:
    """Writes one scenario JSON file per pair; each op runs ``rpemsim sim``."""
    import rpemsim

    presets = rpemsim.preset_library()
    scen_dir = workdir / "scenarios"
    out_dir = workdir / "sim_out"
    scen_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, seed in pairs:
        d = scaled_scenario(presets[name].to_dict(), SWEEP_HORIZON_S, seed, f"{name}_s{seed}")
        d["log_decimation"] = 1
        path = scen_dir / f"{d['name']}.json"
        path.write_text(json.dumps(d, indent=2))
        n_steps = int(round(d["duration_s"] / d["t_samp_s"]))
        csv_path = out_dir / f"{d['name']}.csv"
        report_path = out_dir / f"{d['name']}_report.json"
        ops.append(Op(
            f"sweep:{name}:s{seed}", n_steps,
            lambda p=str(path): cli_main(["--out", str(out_dir), "sim", p]),
            lambda _, c=csv_path, r=report_path: digest_files(c, r),
        ))
    return ops


def delta_pool() -> list[tuple[float, float, float, float]]:
    """Relative mismatch tuples (psi_m, r_s, x_d, x_q) for the map surfaces."""
    rng = random.Random(2209)
    return [
        (round(rng.uniform(-0.15, 0.15), 4), round(rng.uniform(-0.3, 0.3), 4),
         round(rng.uniform(-0.1, 0.1), 4), round(rng.uniform(-0.1, 0.1), 4))
        for _ in range(DELTA_POOL_SIZE)
    ]


class MapCapture:
    """Keeps the tables of the last ``evaluate_maps`` call made by the CLI,
    so the map digest covers the arrays and not only their CSV text."""

    def __init__(self) -> None:
        import rpemsim.cli

        self.cli = rpemsim.cli
        self.original = rpemsim.cli.evaluate_maps
        self.tables = None

    def __enter__(self) -> "MapCapture":
        original = self.original

        def evaluate_maps(*args, **kwargs):
            self.tables = original(*args, **kwargs)
            return self.tables

        self.cli.evaluate_maps = evaluate_maps
        return self

    def __exit__(self, *exc) -> None:
        self.cli.evaluate_maps = self.original


def maps_ops(delta_indices: list[int], workdir: Path, capture: MapCapture) -> list[Op]:
    pool = delta_pool()
    out_dir = workdir / "maps_out"
    ops = []
    for idx in delta_indices:
        dpsi, drs, dxd, dxq = pool[idx]
        argv = ["--out", str(out_dir), "map", "all", "--points", str(MAP_POINTS),
                "--delta-psi", repr(dpsi), "--delta-rs", repr(drs),
                "--delta-xd", repr(dxd), "--delta-xq", repr(dxq)]
        ops.append(Op(
            f"maps:map:d{idx:02d}", MAP_POINTS * MAP_POINTS,
            lambda a=argv: cli_main(a),
            lambda _: digest_map(capture.tables, out_dir / "map_all.csv"),
        ))
    argv = ["--out", str(out_dir), "eig", "--points", str(EIG_POINTS)]
    ops.append(Op("maps:eig", 0, lambda: cli_main(argv),
                  lambda _: digest_files(out_dir / "eigenvalues.csv")))
    return ops


def pool_pairs(workload: str) -> list:
    """Every input the workload seed can select: the golden table's domain."""
    if workload == "closed_loop":
        return [(c, s) for c in CLOSED_LOOP_CASES for s in NOISE_SEED_POOL]
    if workload == "sweep":
        import rpemsim

        return [(p, s) for p in sorted(rpemsim.preset_library()) for s in NOISE_SEED_POOL]
    return list(range(DELTA_POOL_SIZE))


def warmup_input(workload: str):
    """The input of the warm-up operation: the same whatever the seed, so
    the seed does not pick which path set-up time pays for."""
    return pool_pairs(workload)[0]


def select(workload: str, seed: int) -> list:
    """The inputs of one pass, drawn from the pool by the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed_loop":
        chosen = [(c, s) for c in CLOSED_LOOP_CASES
                  for s in rng.sample(NOISE_SEED_POOL, CLOSED_LOOP_SEEDS_PER_CASE)]
    elif workload == "sweep":
        import rpemsim

        chosen = [(p, s) for p in sorted(rpemsim.preset_library())
                  for s in rng.sample(NOISE_SEED_POOL, SWEEP_SEEDS_PER_PRESET)]
    else:
        return rng.sample(range(DELTA_POOL_SIZE), MAP_CALLS_PER_PASS)
    rng.shuffle(chosen)
    return chosen


def build_ops(workload: str, inputs: list, workdir: Path,
              capture: Optional[MapCapture] = None) -> list[Op]:
    if workload == "closed_loop":
        return closed_loop_ops(inputs)
    if workload == "sweep":
        return sweep_ops(inputs, workdir)
    return maps_ops(inputs, workdir, capture)


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_OPS.read_text()) if GOLDEN_OPS.exists() else {}
