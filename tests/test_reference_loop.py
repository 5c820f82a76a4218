"""``run()`` against the naive object-level loop of ``reference_loop``, bit
for bit: every full-rate array, log column and report, on drawn timelines
and on shortened presets.

The reference reads each input at its sample with ``schedule_value``,
recomputes the current reference every sample and calls a memoized plant
kernel whose speed changes every sample at dynamic speed. So this pins the
run's segment stepping at event times within 2e-12 s of a sample, its
skipped MTPA recomputation, where it selects the plant's matrices in each
speed mode, its noise indexing, its log decimation and its reports.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from rpemsim.runner import run
from rpemsim.scenario import preset
from drawn import DRAWN_SETTINGS, scenarios
from reference_loop import reference_run
from test_golden_runs import FULL_RATE, _short


def _assert_same_run(res, ref):
    for field in FULL_RATE:
        assert getattr(res, field).tobytes() == getattr(ref, field).tobytes(), field
    assert res.log.keys() == ref.log.keys()
    for column, x in res.log.items():
        assert x.tobytes() == ref.log[column].tobytes(), column
    assert (res.scenario_name, res.total_steps, res.mpp_steps) == (
        ref.scenario_name, ref.total_steps, ref.mpp_steps)
    # reports hold finite floats or None; repr is exact and keeps signed zeros
    assert {k: repr(dataclasses.asdict(r)) for k, r in res.reports.items()} == {
        k: repr(dataclasses.asdict(r)) for k, r in ref.reports.items()}


@settings(DRAWN_SETTINGS, max_examples=30)
@given(sc=scenarios())
def test_run_equals_the_reference_loop_bitwise_on_a_drawn_timeline(sc):
    _assert_same_run(run(sc), reference_run(sc))


@pytest.mark.parametrize("name", ["fig7a", "fig9c", "fig10c", "bench_rs_gna_n0"])
def test_run_equals_the_reference_loop_bitwise_on_a_shortened_preset(name):
    # the presets' noise and log decimation, with their events moved into the run
    sc = _short(preset(name), 3, 0.05)
    assert sc.events and sc.log_decimation > 1
    _assert_same_run(run(sc), reference_run(sc))
