"""Byte gate over the run-log CSV: ``RunResult.write_csv`` output compared
with committed digests.

A few presets are shortened as in ``test_golden_runs.py`` (0.05 s horizon,
one noise seed) and logged at their own decimation or at full rate
(``log_decimation: 1``). The SHA-256 of each CSV file must equal the
digest in ``golden_csv.json``. A change that is meant to move these bytes
rewrites that file on purpose:

    PYTHONPATH=src python tests/test_golden_csv.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rpemsim.runner import run
from rpemsim.scenario import Scenario, preset_library
from test_golden_runs import _short

GOLDEN = Path(__file__).with_name("golden_csv.json")
SEED = 101
# (preset, log_decimation): SGA flux, the speed loop, GNA on the
# pseudoinverse, PhyInt and a load step, at 8 (the default) and at 1
CASES = (
    ("fig7a", 8),
    ("fig9c", 1),
    ("fig10d", 1),
    ("bench_rs_gna_n0", 1),
    ("bench_rs_phyint_n005", 8),
)


def _csv_digest(preset: str, decimation: int, directory: Path) -> str:
    short = _short(preset_library()[preset], SEED)
    scenario = Scenario.from_dict({**short.to_dict(), "log_decimation": decimation})
    path = directory / f"{preset}_{decimation}.csv"
    run(scenario).write_csv(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset,decimation", CASES)
def test_run_log_csv_is_bytewise_unchanged(preset, decimation, tmp_path):
    want = json.loads(GOLDEN.read_text())
    assert _csv_digest(preset, decimation, tmp_path) == want[f"{preset}:d{decimation}"]


def test_golden_file_covers_every_case():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == {f"{p}:d{d}" for p, d in CASES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{p}:d{d}": _csv_digest(p, d, Path(tmp)) for p, d in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
