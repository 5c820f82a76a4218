"""Bitwise gate over every preset: short runs compared with committed digests.

Each preset is shortened to a 0.05 s horizon, with its event and schedule
times scaled by the same factor, and run at two noise seeds. The SHA-256
of the full-rate arrays, the log columns, the step counts and the
convergence reports must equal the digest in ``golden_runs.json``. A
change that is meant to move numbers rewrites that file on purpose:

    PYTHONPATH=src python tests/test_golden_runs.py --write
"""

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rpemsim.runner import run
from rpemsim.scenario import Scenario, preset_library

GOLDEN = Path(__file__).with_name("golden_runs.json")
HORIZON_S = 0.05
SEEDS = (101, 107)
FULL_RATE = ("t_full", "psi_m_hat", "r_s_hat", "psi_m_true", "r_s_true")


def _short(scenario: Scenario, seed: int) -> Scenario:
    d = scenario.to_dict()
    k = HORIZON_S / d["duration_s"]
    ctl = dict(d["control"])
    for key in ("tau_ref", "speed_ref"):
        ctl[key] = [[t * k, v] for t, v in ctl[key]]
    return Scenario.from_dict({
        **d,
        "duration_s": HORIZON_S,
        "control": ctl,
        "events": [{**ev, "time_s": ev["time_s"] * k} for ev in d["events"]],
        "seed": seed,
    })


def _digest(result) -> str:
    h = hashlib.sha256()
    arrays = [(name, getattr(result, name)) for name in FULL_RATE]
    arrays += sorted(result.log.items())
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    reports = {
        k: [repr(getattr(v, f.name)) for f in fields(v)]
        for k, v in sorted(result.reports.items())
    }
    h.update(json.dumps([result.total_steps, result.mpp_steps, reports]).encode())
    return h.hexdigest()


def _digests(name: str, scenario: Scenario) -> dict[str, str]:
    return {f"{name}:s{seed}": _digest(run(_short(scenario, seed))) for seed in SEEDS}


@pytest.mark.parametrize("name", sorted(preset_library()))
def test_preset_run_is_bitwise_unchanged(name):
    want = json.loads(GOLDEN.read_text())
    got = _digests(name, preset_library()[name])
    assert got == {key: want.get(key) for key in got}


def test_golden_file_covers_every_preset():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == {f"{n}:s{s}" for n in preset_library() for s in SEEDS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    table = {}
    for preset, sc in sorted(preset_library().items()):
        table.update(_digests(preset, sc))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
