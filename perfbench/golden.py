"""Golden digests of the benchmark, untimed.

    python3 perfbench/golden.py            check every pool operation
    python3 perfbench/golden.py --write    rewrite golden_ops.json
    python3 perfbench/golden.py --presets [--write]

The default mode runs every operation any workload seed can select (about
a minute) and compares its digest with ``golden_ops.json``. ``--presets``
runs all 26 presets at full duration (a few minutes) and compares the
SHA-256 of every full-rate array with ``golden_presets.json``; this is
the bitwise gate for changes that must not move a number. Exit code 1
on any mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import workloads

GOLDEN_PRESETS = Path(__file__).resolve().parent / "golden_presets.json"
FULL_RATE = ("t_full", "psi_m_hat", "r_s_hat", "psi_m_true", "r_s_true")


def pool_digests(workdir: Path) -> dict[str, str]:
    digests = {}
    with workloads.MapCapture() as capture:
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name, workloads.pool_pairs(name), workdir, capture)
            for op in ops:
                outcome = workloads.execute(op, {})
                if outcome.digest is None:
                    raise RuntimeError(f"{op.key} failed: {outcome.error}")
                digests[op.key] = outcome.digest
    return digests


def preset_digests() -> dict[str, dict[str, str]]:
    import rpemsim

    out = {}
    for name, scenario in sorted(rpemsim.preset_library().items()):
        result = rpemsim.run(scenario)
        out[name] = {
            col: hashlib.sha256(getattr(result, col).tobytes()).hexdigest()
            for col in FULL_RATE
        }
        print(f"{name}: {result.total_steps} steps", file=sys.stderr)
    return out


def compare(name: str, got: dict, want_path: Path, write: bool) -> int:
    if write:
        want_path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} digests to {want_path.name}")
        return 0
    want = json.loads(want_path.read_text())
    bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    for k in bad:
        print(f"MISMATCH {name} {k}")
    print(f"{name}: {len(got) - len(bad)}/{len(got)} digests match")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--presets", action="store_true",
                   help="full-duration digest of all 26 presets")
    p.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = p.parse_args(argv)
    workloads.import_rpemsim()
    if args.presets:
        return compare("presets", preset_digests(), GOLDEN_PRESETS, args.write)
    workdir = workloads.ROOT / ".perfbench_work" / "golden"
    try:
        return compare("ops", pool_digests(workdir), workloads.GOLDEN_OPS, args.write)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
