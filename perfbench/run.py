"""rpemsim benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload {closed_loop,sweep,maps} --seed N \
        --seconds S --trace {0,1}

Prints a provenance line (versions, machine, per-operation digests and
sample counts) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the per-layer metrics of a separate traced run. Every
operation's outputs are checked against ``golden_ops.json``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads
from workloads import ROOT, SRC, Op, Outcome, execute

SETUP_REPEATS = 7
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter, measured inside it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import " + module + "; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    """One pass over a workload's operations: its wall time and outcomes."""

    seconds: float
    outcomes: list[Outcome]


class Workload:
    """Inputs and operations of one workload for one seed."""

    def __init__(self, name: str, seed: int, workdir: Path, golden: dict[str, str]):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.inputs = workloads.select(name, seed)
        self.capture = workloads.MapCapture() if name == "maps" else None
        self.ops: list[Op] = []
        self.warmups: list[Outcome] = []   # checked, not timed as workload
        self.outcomes: list[Outcome] = []

    def generate(self) -> None:
        self.ops = workloads.build_ops(self.name, self.inputs, self.workdir, self.capture)

    def setup(self) -> float:
        """Import + input generation + warm-up (one fixed operation), done
        ``SETUP_REPEATS`` times; returns the median."""
        totals = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds(workloads.ENTRY_MODULE[self.name])
            t0 = time.perf_counter()
            self.generate()
            warmup = workloads.build_ops(self.name, [workloads.warmup_input(self.name)],
                                         self.workdir, self.capture)[0]
            self.warmups.append(execute(warmup, self.golden))
            totals.append(t_import + time.perf_counter() - t0)
        return statistics.median(totals)

    def run_pass(self) -> Pass:
        """Every operation once, in order."""
        first = len(self.outcomes)
        t0 = time.perf_counter()
        for op in self.ops:
            self.outcomes.append(execute(op, self.golden))
        return Pass(time.perf_counter() - t0, self.outcomes[first:])

    def drive(self, seconds: float) -> list[Pass]:
        """Whole passes, closed loop, while the next pass would end nearer to
        ``seconds`` than the last one did (at least one pass)."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start + passes[-1].seconds / 2 <= seconds:
            passes.append(self.run_pass())
        return passes


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed(measured: list[Outcome]) -> list[Outcome]:
    """Outcomes whose time counts: operations doing counted work that
    returned (a digest mismatch still did the work), or all of them if
    none returned."""
    counted = [o for o in measured if o.items > 0]
    return [o for o in counted if o.digest is not None] or counted


def end_to_end(setup_s: float, passes: list[Pass], checked: list[Outcome]) -> dict:
    """End-to-end metrics: timings from the measured ``passes``, the
    success share from every ``checked`` outcome (warm-ups included).

    A shared host's speed can change within seconds (by 1.7x on a
    2-vCPU cloud VM), so a median over the operations of a whole run
    jumps between its fast and slow levels. Every timing is therefore an
    average over the whole run: wall time and throughput are totals over
    all passes, and a latency percentile is taken within each pass and
    averaged over the passes."""
    per_pass = [[o.seconds * 1e3 for o in timed(p.outcomes)] for p in passes]
    counted = timed([o for p in passes for o in p.outcomes])
    failed = sum(not o.ok for o in checked)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(p.seconds for p in passes),
        "items_per_s": sum(o.items for o in counted) / sum(o.seconds for o in counted),
        "op_ms_p50": statistics.fmean(statistics.median(lat) for lat in per_pass),
        "op_ms_p90": statistics.fmean(percentile(lat, 90) for lat in per_pass),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(checked) - failed) / len(checked),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, samples: dict, outcomes: list[Outcome]) -> dict:
    import numpy

    digests = {}
    for o in outcomes:
        digests.setdefault(o.key, o.digest)
    combined = hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest()
    errors = sorted({f"{o.key}: {o.error}" for o in outcomes if not o.ok})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "digest": combined,
        "op_digests": digests,
        "errors": errors,
    }


def run_benchmark(args) -> tuple[dict, dict]:
    """Returns (provenance, result)."""
    workloads.import_rpemsim()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(args.workload, args.seed, workdir, workloads.load_golden())
    try:
        with wl.capture or contextlib.nullcontext():
            setup_s = wl.setup()
            if args.trace:
                metrics, samples = traced(wl, args.seconds)
            else:
                passes = wl.drive(args.seconds)
                metrics = end_to_end(setup_s, passes, wl.warmups + wl.outcomes)
                n_lat = [len(timed(p.outcomes)) for p in passes]
                samples = {"setup_s": SETUP_REPEATS, "passes": len(passes),
                           "ops_per_pass": n_lat}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    outcomes = wl.warmups + wl.outcomes
    failed = sum(not o.ok for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    return provenance(args, samples, outcomes), result


def traced(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until the next pair would end
    after ``seconds``, so drift of the host's speed hits both alike. Each
    traced operation must give the digest of its untraced twin, and every
    wrapped name must be the original object again after each traced pass."""
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced_times: list[float] = []
    start = time.perf_counter()
    while not untraced or (
        time.perf_counter() - start + untraced[-1] + traced_times[-1] <= seconds
    ):
        plain = wl.run_pass()
        untraced.append(plain.seconds)
        tracing.install(tracer)
        try:
            traced_pass = wl.run_pass()
        finally:
            not_restored = tracer.restore()
        if not_restored:
            raise RuntimeError(f"wrappers left in place: {not_restored}")
        traced_times.append(traced_pass.seconds)
        for before, after in zip(plain.outcomes, traced_pass.outcomes):
            if after.ok and before.digest != after.digest:
                after.ok, after.error = False, "traced digest differs from untraced"
    metrics = tracing.per_layer_metrics(tracer, sum(traced_times), sum(untraced))
    return metrics, {"passes": len(untraced)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prov, result = run_benchmark(args)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
