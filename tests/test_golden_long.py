"""Bitwise gate over runs long enough to reach a scheduler edge.

The other golden runs stop at 0.3 s or sooner, before any scheduler row has
been off for ten axis time constants (0.92 s on the table machine). Only
after that does a row's on-edge snap the predictor and the gradients to
their steady state. Each case here is ``fig10c`` shortened to 1.2 s, as in
``test_golden_runs.py``: the speed reference steps from -0.3 to 0.3 pu at
0.6 s, so the resistance row, off since t = 0, switches on at about 0.99 s
while the speed is still moving, and the flux row comes back on near 1.1 s.
There is one case per pair of gradient modes, each must snap exactly once,
and the SHA-256 of the run must equal the digest in ``golden_long.json``.
A change that is meant to move these numbers rewrites that file on purpose:

    PYTHONPATH=src python tests/test_golden_long.py --write
"""

import json
import sys
from pathlib import Path

import pytest

import rpemsim.estimator as estimator
from rpemsim.runner import run
from rpemsim.scenario import Scenario, preset
from test_golden_runs import _digest, _short

GOLDEN = Path(__file__).with_name("golden_long.json")
HORIZON_S = 1.2
SEED = 101
# case -> (gradient_mode_psi, gradient_mode_rs)
CASES = {
    "steady_steady": ("steady_state", "steady_state"),
    "dynamic_dynamic": ("dynamic", "dynamic"),
    "dynamic_steady": ("dynamic", "steady_state"),
    "steady_dynamic": ("steady_state", "dynamic"),
}


def _case_digest(case: str) -> str:
    mode_psi, mode_rs = CASES[case]
    d = _short(preset("fig10c"), SEED, HORIZON_S).to_dict()
    d["estimator"] = {**d["estimator"], "gradient_mode_psi": mode_psi, "gradient_mode_rs": mode_rs}
    return _digest(run(Scenario.from_dict(d)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_long_run_snaps_once_and_is_bitwise_unchanged(case, monkeypatch):
    want = json.loads(GOLDEN.read_text())
    snaps = []
    real = estimator.steady_state_current

    def counted(*args):
        snaps.append(args)
        return real(*args)

    # the snap is the estimator's only steady_state_current call
    monkeypatch.setattr(estimator, "steady_state_current", counted)
    assert _case_digest(case) == want[case]
    assert len(snaps) == 1


def test_golden_long_file_covers_every_case_with_distinct_digests():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == set(CASES)
    assert len(set(want.values())) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    table = {case: _case_digest(case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
