"""Bitwise gate over the estimator paths no preset reaches.

Each case is a preset with estimator overrides, shortened as in
``test_golden_runs.py`` to a 0.3 s horizon, run at noise seed 101 and
logged at full rate. The SHA-256 of the run (the same digest as
``test_golden_runs.py``) must equal the digest in ``golden_estimator.json``.
A change that is meant to move these numbers rewrites that file on purpose:

    PYTHONPATH=src python tests/test_golden_estimator.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from rpemsim.runner import run
from rpemsim.scenario import Scenario, preset_library
from test_golden_runs import _digest, _short

GOLDEN = Path(__file__).with_name("golden_estimator.json")
HORIZON_S = 0.3
SEED = 101
# case -> (preset, estimator overrides); every case names its algorithm
CASES = {
    "sga_per_gradient_flux": ("fig7d", {"algorithm": "sga", "sga_r_mode": "per_gradient"}),
    "sga_per_gradient_rs": ("fig9a", {"algorithm": "sga", "sga_r_mode": "per_gradient"}),
    "sga_trace_r0": ("fig7a", {"algorithm": "sga", "r0": 0.5}),
    "sga_per_gradient_r0": (
        "fig7a", {"algorithm": "sga", "sga_r_mode": "per_gradient", "r0": 0.5}
    ),
    "gna_r0": ("bench_psim_gna_load", {"algorithm": "gna", "r0": 0.5}),
    "sga_dynamic_psi": ("fig7a", {"algorithm": "sga", "gradient_mode_psi": "dynamic"}),
    "sga_dynamic_rs": ("fig9a", {"algorithm": "sga", "gradient_mode_rs": "dynamic"}),
    "gna_dynamic": (
        "bench_psim_gna_load",
        {"algorithm": "gna", "gradient_mode_psi": "dynamic", "gradient_mode_rs": "dynamic"},
    ),
    "phyint_at_speed": ("fig7a", {"algorithm": "phyint"}),
    # the flux-row gain norm reaches 2.8e-3 uncapped, so the cap binds
    "gna_gain_cap": ("bench_psim_gna_load", {"algorithm": "gna", "gain_cap": 0.001}),
}


def _case_digest(case: str) -> str:
    preset, overrides = CASES[case]
    d = _short(preset_library()[preset], SEED, HORIZON_S).to_dict()
    d["log_decimation"] = 1
    d["estimator"] = {**d["estimator"], **overrides}
    return _digest(run(Scenario.from_dict(d)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_estimator_path_is_bitwise_unchanged(case):
    want = json.loads(GOLDEN.read_text())
    assert _case_digest(case) == want[case]


def test_golden_file_covers_every_case_with_distinct_digests():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == set(CASES)
    # a case whose override changes nothing would repeat another digest
    assert len(set(want.values())) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    table = {case: _case_digest(case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
