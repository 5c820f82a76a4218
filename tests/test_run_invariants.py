"""Properties every run keeps, checked on fixed cases and on scenarios that
``drawn.scenarios`` draws. Two tests share that strategy: one runs each
draw once and checks box, hold, mirror symmetry and the matched model on
that run (the last two take one more run each); the other checks prefix
stability, with a run of the draw and one longer run.

- Prefix stability: a run of duration T1 < T2 is a bitwise prefix of the
  T2 run, in its full-rate arrays and its log, when every input changes
  before T1. The noise is drawn in per-step order for this reason (see
  ``runner.run``).
- Projection and scheduling: the estimate stays inside its box on every
  sample, and while a scheduler row is off its estimate is bitwise equal
  to the previous sample's. The drawn speeds include each scheduler limit
  and one ulp either side of it.
- Mirror symmetry: with no noise, negating speed_ref, tau_ref, the load
  and their value events gives a run whose estimate is bitwise the same,
  and whose log is too, with n, i_q, i_hat_q, eps_q, L12 and L22 negated.
  IEEE negation is exact and rounding symmetric, so a sign slip anywhere
  breaks it.
- Matched model: with the estimator's model equal to the plant (theta0 the
  true values, the true reactances), no noise, one plant substep and no
  machine events, the predicted current equals the measured one, so the
  prediction error is bitwise 0 on every sample and the estimate never
  moves. The fixed cases are prescribed-speed torque-mode runs at one
  speed in each band of the gain scheduler; the drawn ones are the drawn
  scenario with those settings, in every speed and control mode. Short
  runs can take dynamic speed: a scheduler
  row that switches on after an off time of more than ten axis time
  constants (about 0.92 s) snaps the predicted current to its steady state,
  which breaks the match while the speed moves (ROADMAP.md, item 7), and a
  drawn run lasts 0.02 s.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from rpemsim.estimator import ParameterBox, ParameterVector
from rpemsim.runner import run
from rpemsim.scenario import ControlSection, EstimatorSection, PlantSection, Scenario, preset
from drawn import DRAWN_SETTINGS, DT, SAMPLES, scenarios
from test_golden_runs import FULL_RATE, _short

T1_S, T2_S = 0.25, 0.5
SEED = 101


@pytest.mark.parametrize("name", ["fig7a", "fig9c", "bench_rs_gna_n0"])
def test_shorter_run_is_a_bitwise_prefix_of_a_longer_one(name):
    # event and schedule times scaled as for a T1 horizon, so all lie before T1
    short = _short(preset(name), SEED, T1_S)
    assert short.events and all(ev.time_s < T1_S for ev in short.events)
    assert all(t < T1_S for t, _ in (*short.control.tau_ref, *short.control.speed_ref))
    _assert_prefix(short, run(short), T2_S, short.log_decimation)


@settings(DRAWN_SETTINGS, max_examples=80)
@given(sc=scenarios())
def test_estimate_stays_in_its_box_and_holds_while_its_row_is_off(sc):
    res = run(sc)
    # theta0 and the box from the machine: an event at t = 0 has already
    # moved psi_m_true[0] and r_s_true[0]
    _, params = sc.machine.per_unit()
    box = ParameterBox.around(ParameterVector(params.psi_m, params.r_s), sc.estimator.box_fraction)
    psi, rs = res.psi_m_hat, res.r_s_hat
    assert np.all((box.psi_m_min <= psi) & (psi <= box.psi_m_max))
    assert np.all((box.r_s_min <= rs) & (rs <= box.r_s_max))
    # step k's estimator sees the speed logged at step k - 1, the t = 0 speed at k = 0
    speed = np.abs(np.concatenate(([sc.validate().n0], res.log["n"][:-1])))
    psi_prev = np.concatenate(([params.psi_m], psi[:-1]))
    rs_prev = np.concatenate(([params.r_s], rs[:-1]))
    flux_off = speed <= abs(sc.estimator.n_lim1_pu)
    rs_off = speed >= abs(sc.estimator.n_lim2_pu)
    assert psi[flux_off].tobytes() == psi_prev[flux_off].tobytes()
    assert rs[rs_off].tobytes() == rs_prev[rs_off].tobytes()
    if sc.plant.noise_sigma_pu == 0.0:  # the noise draw is not mirrored
        _assert_mirrored(res, run(_mirror(sc)))
    # the matched model: the draw with no noise and no machine events
    matched = replace(
        sc, plant=replace(sc.plant, noise_sigma_pu=0.0),
        events=[ev for ev in sc.events if ev.target in ("load_torque", "speed_ref")],
    )
    _assert_matched(res if matched == sc else run(matched))


@settings(DRAWN_SETTINGS, max_examples=80)
@given(sc=scenarios())
def test_shorter_run_is_a_bitwise_prefix_on_a_drawn_timeline(sc):
    # every input changes before the drawn run ends; the longer run logs
    # every third sample, so it also checks that decimation only thins the log
    _assert_prefix(sc, run(sc), 2 * SAMPLES * DT, 3)


def _mirror(sc):
    """sc with speed_ref, tau_ref, the load and their value events negated."""
    ctl = sc.control
    return replace(
        sc,
        plant=replace(sc.plant, load_torque_pu=-sc.plant.load_torque_pu),
        control=replace(ctl, speed_ref=[(t, -v) for t, v in ctl.speed_ref],
                        tau_ref=[(t, -v) for t, v in ctl.tau_ref]),
        events=[replace(ev, value=-ev.value)
                if ev.target in ("load_torque", "speed_ref") and ev.value is not None else ev
                for ev in sc.events],
    )


# the log columns that change sign in the mirrored run
MIRROR_NEGATED = ("n", "i_q", "i_hat_q", "eps_q", "L12", "L22")
# and those whose zeros may differ in sign between the runs: an off
# scheduler row writes +0.0 in both, and at zero current the resistance
# row's d-axis gain is a product of zeros whose sign follows n's
SIGNED_ZEROS = (*MIRROR_NEGATED, "L21")


def _assert_mirrored(res, mirrored):
    """mirrored, the run of res's mirror, equals res bitwise, its
    MIRROR_NEGATED columns negated and the sign of a SIGNED_ZEROS zero
    aside."""
    for field in FULL_RATE:
        assert getattr(res, field).tobytes() == getattr(mirrored, field).tobytes(), field
    assert res.log.keys() == mirrored.log.keys()
    for column, x in res.log.items():
        y = mirrored.log[column]
        if column in MIRROR_NEGATED:
            x = -x
        if column in SIGNED_ZEROS:
            x, y = x + 0.0, y + 0.0
        assert x.tobytes() == y.tobytes(), column


def _assert_prefix(short, res, duration_s, log_decimation):
    """res, the run of short, is a bitwise prefix of short's run over
    duration_s logged every log_decimation-th sample, a multiple of
    short's log_decimation."""
    longer = run(Scenario.from_dict(
        {**short.to_dict(), "duration_s": duration_s, "log_decimation": log_decimation}))
    assert len(longer.t_full) > len(res.t_full) > 0
    for field in FULL_RATE:
        x, y = getattr(res, field), getattr(longer, field)
        assert x.tobytes() == y[:len(x)].tobytes(), field
    assert res.log.keys() == longer.log.keys()
    thin = log_decimation // short.log_decimation
    for column, x in res.log.items():
        x, y = x[::thin], longer.log[column]
        assert len(y) > len(x) > 0
        assert x.tobytes() == y[:len(x)].tobytes(), column


# |n| below n_lim2 (resistance row on), between the limits (both off),
# above n_lim1 (flux row on), with the default limits 0.01 and 0.1
@pytest.mark.parametrize("speed", [0.005, 0.05, 0.3])
@pytest.mark.parametrize("algorithm", ["sga", "gna", "phyint"])
def test_matched_model_predicts_with_no_error(algorithm, speed):
    sc = Scenario(
        name="matched",
        duration_s=0.2,
        plant=PlantSection(noise_sigma_pu=0.0),
        control=ControlSection(tau_ref=[(0.0, 0.4)], speed_ref=[(0.0, speed)]),
        estimator=EstimatorSection(algorithm=algorithm),
        log_decimation=1,
    )
    assert (sc.plant.speed_mode, sc.control.mode) == ("prescribed", "torque")
    _assert_matched(run(sc))


def _assert_matched(res):
    """res, a full-rate-logged run, predicts the measured current exactly
    and never moves its estimate from the true machine's constant values."""
    zeros = np.zeros(res.total_steps).tobytes()
    assert res.log["eps_d"].tobytes() == zeros
    assert res.log["eps_q"].tobytes() == zeros
    # the estimate starts at the true values and stays there, bit for bit
    assert res.psi_m_hat.tobytes() == res.psi_m_true.tobytes()
    assert res.r_s_hat.tobytes() == res.r_s_true.tobytes()
    assert np.unique(res.psi_m_true).size == np.unique(res.r_s_true).size == 1
