"""Bitwise gate over the analytical maps: tables and CSV bytes compared with
committed digests.

Each case evaluates ``evaluate_maps`` on one grid and hashes every
``MapTables`` array together with the bytes ``write_maps_csv`` writes. The
cases cover the feasible square grid with mismatch deltas, current- and
voltage-infeasible cells (NaN branches), an off-centre grid without a zero
speed and with unequal axis lengths, the smallest grid, and speed rows
longer than 256 cells with NaN cells in some of them. The ``eig`` CSV is
hashed too. A change that is meant to move numbers rewrites
``golden_maps.json`` on purpose:

    PYTHONPATH=src python tests/test_golden_maps.py --write
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rpemsim.analysis import OperatingGrid, evaluate_maps, write_maps_csv
from rpemsim.cli import main as cli_main
from rpemsim.pu import default_machine

GOLDEN = Path(__file__).with_name("golden_maps.json")

_AXIS = np.linspace(-1.0, 1.0, 81)
# (speed axis, torque axis, relative deltas (psi_m, r_s, x_d, x_q), kwargs)
MAP_CASES = {
    "default_deltas": (_AXIS, _AXIS, (-0.1, 0.2, 0.05, -0.05), {}),
    "i_max_0.5": (_AXIS, _AXIS, (-0.1, 0.0, 0.0, 0.0), {"i_max": 0.5}),
    "u_max_0.5": (_AXIS, _AXIS, (0.0, -0.25, 0.1, 0.0), {"u_max": 0.5}),
    "off_centre_1.5": (
        np.linspace(-1.5, 1.5, 40), np.linspace(-1.2, 1.5, 33),
        (0.12, -0.3, -0.08, 0.07), {"dt": 250e-6},
    ),
    "grid_2x2": (np.linspace(-1.0, 1.0, 2), np.linspace(-1.0, 1.0, 2),
                 (-0.1, 0.0, 0.0, 0.0), {}),
    # speed rows longer than 256 cells: 194, 0 and 72 of 300 voltage-infeasible
    "long_rows_3x300": (
        np.array([-1.0, 0.25, 0.8]), np.linspace(-1.2, 1.2, 300),
        (-0.1, 0.2, 0.05, -0.05), {"u_max": 1.0},
    ),
}
EIG_CASES = {
    "eig_default": [],
    "eig_4q": ["--speed-range", "-1.5", "1.5", "--points", "301"],
}


def _hash_arrays(h, named) -> None:
    for name, arr in named:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())


def _map_digest(case: str) -> str:
    speeds, torques, rel, kwargs = MAP_CASES[case]
    base, params = default_machine()
    deltas = (rel[0] * params.psi_m, rel[1] * params.r_s,
              rel[2] * params.x_d, rel[3] * params.x_q)
    grid = OperatingGrid(speed_axis=speeds, torque_axis=torques)
    tables = evaluate_maps(grid, params, base.omega_n, deltas=deltas, **kwargs)
    h = hashlib.sha256()
    _hash_arrays(h, [("speed_axis", grid.speed_axis), ("torque_axis", grid.torque_axis)])
    _hash_arrays(h, [(f.name, getattr(tables, f.name))
                     for f in fields(tables) if f.name != "grid"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.csv"
        write_maps_csv(tables, str(path))
        h.update(path.read_bytes())
    return h.hexdigest()


def _eig_digest(case: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        assert cli_main(["--out", tmp, "eig", *EIG_CASES[case]]) == 0
        return hashlib.sha256((Path(tmp) / "eigenvalues.csv").read_bytes()).hexdigest()


def _all_digests() -> dict[str, str]:
    table = {case: _map_digest(case) for case in MAP_CASES}
    table.update({case: _eig_digest(case) for case in EIG_CASES})
    return table


@pytest.mark.parametrize("case", sorted(MAP_CASES))
def test_map_tables_and_csv_are_bitwise_unchanged(case):
    assert _map_digest(case) == json.loads(GOLDEN.read_text()).get(case)


@pytest.mark.parametrize("case", sorted(EIG_CASES))
def test_eig_csv_is_bitwise_unchanged(case):
    assert _eig_digest(case) == json.loads(GOLDEN.read_text()).get(case)


def test_golden_file_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(MAP_CASES) | set(EIG_CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    digests = _all_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
