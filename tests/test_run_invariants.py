"""Properties every run keeps, checked on fixed cases and, for prefix
stability and the projection and scheduler, on drawn timelines too.

- Prefix stability: a run of duration T1 < T2 is a bitwise prefix of the
  T2 run, in its full-rate arrays and its log, when every input changes
  before T1. The noise is drawn in per-step order for this reason (see
  ``runner.run``).
- Matched model: with the estimator's model equal to the plant (theta0 the
  true values, the true reactances), no noise, one plant substep and no
  events, the predicted current equals the measured one, so the prediction
  error is bitwise 0 on every sample and the estimate never moves. The
  cases are prescribed-speed torque-mode runs at one speed in each band of
  the gain scheduler. Dynamic-speed cases are left out: a scheduler row
  that switches on after a long off time snaps the predicted current to
  its steady state while the speed is still moving, which breaks the
  match (ROADMAP.md, item 7).
- Projection and scheduling: the estimate stays inside its box on every
  sample, and while a scheduler row is off its estimate is bitwise equal
  to the previous sample's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpemsim.estimator import ParameterVector, box_bounds_around
from rpemsim.runner import run
from rpemsim.scenario import (
    ControlSection, EstimatorSection, PlantSection, Scenario, StepEvent, preset,
)
from test_golden_runs import FULL_RATE, _short

T1_S, T2_S = 0.25, 0.5
SEED = 101


@pytest.mark.parametrize("name", ["fig7a", "fig9c", "bench_rs_gna_n0"])
def test_shorter_run_is_a_bitwise_prefix_of_a_longer_one(name):
    # event and schedule times scaled as for a T1 horizon, so all lie before T1
    short = _short(preset(name), SEED, T1_S)
    assert short.events and all(ev.time_s < T1_S for ev in short.events)
    assert all(t < T1_S for t, _ in (*short.control.tau_ref, *short.control.speed_ref))
    _assert_prefix(short, T2_S)


# time offsets from a sample instant, on either side of EVENT_TOL_S
_NEAR_SAMPLE = st.sampled_from([-2e-12, -1e-12, -0.5e-12, 0.0, 0.5e-12, 1e-12, 2e-12])
# per target: (event key, its range); x_d only falls and x_q only rises, so
# every drawn machine keeps x_q >= x_d
_STEPS = {
    "psi_m": ("factor", (0.9, 1.1)), "r_s": ("factor", (0.8, 1.25)),
    "x_d": ("factor", (0.9, 1.0)), "x_q": ("factor", (1.0, 1.1)),
    "load_torque": ("value", (-0.2, 0.2)), "speed_ref": ("value", (0.0, 0.3)),
}
DT = 125e-6
N1, N2 = 160, 320  # steps of the drawn short and long runs


def _at(k, offset):
    return max(0.0, k * DT + offset)


_ALGORITHMS = st.sampled_from(["sga", "gna", "phyint"])
_MODES = st.sampled_from([("prescribed", "torque"), ("dynamic", "torque"), ("dynamic", "speed")])
_NOISE = st.sampled_from([0.0, 0.01])
_SUBSTEPS = st.sampled_from([1, 2, 3])
_TAU_REF = st.lists(st.tuples(st.integers(0, N1 - 2), _NEAR_SAMPLE, st.floats(-0.5, 0.5)),
                    max_size=3)
_EVENTS = st.lists(st.tuples(st.sampled_from(sorted(_STEPS)), st.integers(0, N1 - 2),
                             _NEAR_SAMPLE, st.floats(0.0, 1.0)), max_size=5)


@settings(max_examples=25, deadline=None)
@given(algorithm=_ALGORITHMS, modes=_MODES, noise=_NOISE, substeps=_SUBSTEPS,
       tau_ref=_TAU_REF, events=_EVENTS)
def test_shorter_run_is_a_bitwise_prefix_on_a_drawn_timeline(algorithm, modes, noise, substeps,
                                                             tau_ref, events):
    # inputs at and 1e-12 s around sample instants, every one before the short run ends
    short = Scenario(
        name="drawn", duration_s=N1 * DT, seed=SEED, log_decimation=3,
        plant=PlantSection(noise_sigma_pu=noise, speed_mode=modes[0], substeps=substeps),
        control=ControlSection(mode=modes[1], speed_ref=[(0.0, 0.1)], tau_ref=_tau_ref(tau_ref)),
        estimator=EstimatorSection(algorithm=algorithm),
        events=_events(events),
    )
    _assert_prefix(short, N2 * DT)


def _tau_ref(drawn):
    return [(0.0, 0.2), *sorted((_at(k, offset), v) for k, offset, v in drawn)]


def _events(drawn):
    """StepEvents of drawn (target, step, offset, u) tuples, u in [0, 1]
    placing the step in its target's range."""
    events = []
    for target, k, offset, u in sorted(drawn, key=lambda ev: _at(*ev[1:3])):
        key, (lo, hi) = _STEPS[target]
        events.append(StepEvent(time_s=_at(k, offset), target=target, **{key: lo + u * (hi - lo)}))
    return events


@settings(max_examples=60, deadline=None)
@given(algorithm=_ALGORITHMS, modes=_MODES, noise=_NOISE, substeps=_SUBSTEPS,
       n0=st.sampled_from([0.005, 0.05, 0.3]), box_fraction=st.sampled_from([0.3, 1e-4]),
       tau_ref=_TAU_REF, events=_EVENTS)
def test_estimate_stays_in_its_box_and_holds_while_its_row_is_off(
        algorithm, modes, noise, substeps, n0, box_fraction, tau_ref, events):
    # one t = 0 speed per scheduler band, which speed_ref events move between;
    # the default box, and one so narrow that the projection clamps
    sc = Scenario(
        name="drawn", duration_s=N1 * DT, seed=SEED, log_decimation=1,
        plant=PlantSection(noise_sigma_pu=noise, speed_mode=modes[0], substeps=substeps),
        control=ControlSection(mode=modes[1], speed_ref=[(0.0, n0)], tau_ref=_tau_ref(tau_ref)),
        estimator=EstimatorSection(algorithm=algorithm, box_fraction=box_fraction),
        events=_events(events),
    )
    res = run(sc)
    # theta0 and the box from the machine: an event at t = 0 has already
    # moved psi_m_true[0] and r_s_true[0]
    _, params = sc.machine.per_unit()
    psi_min, psi_max, rs_min, rs_max = box_bounds_around(
        ParameterVector(params.psi_m, params.r_s), sc.estimator.box_fraction)
    psi, rs = res.psi_m_hat, res.r_s_hat
    assert np.all((psi_min <= psi) & (psi <= psi_max))
    assert np.all((rs_min <= rs) & (rs <= rs_max))
    # step k's estimator sees the speed logged at step k - 1, the t = 0 speed at k = 0
    speed = np.abs(np.concatenate(([sc.validate().n0], res.log["n"][:-1])))
    psi_prev = np.concatenate(([params.psi_m], psi[:-1]))
    rs_prev = np.concatenate(([params.r_s], rs[:-1]))
    flux_off = speed <= abs(sc.estimator.n_lim1_pu)
    rs_off = speed >= abs(sc.estimator.n_lim2_pu)
    assert psi[flux_off].tobytes() == psi_prev[flux_off].tobytes()
    assert rs[rs_off].tobytes() == rs_prev[rs_off].tobytes()


def _assert_prefix(short, duration_s):
    """The run of short is a bitwise prefix of its run over duration_s."""
    longer = Scenario.from_dict({**short.to_dict(), "duration_s": duration_s})
    a, b = run(short), run(longer)
    assert len(b.t_full) > len(a.t_full) > 0
    for field in FULL_RATE:
        x, y = getattr(a, field), getattr(b, field)
        assert x.tobytes() == y[:len(x)].tobytes(), field
    assert a.log.keys() == b.log.keys()
    for column, x in a.log.items():
        assert len(b.log[column]) > len(x) > 0
        assert x.tobytes() == b.log[column][:len(x)].tobytes(), column


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
    assert (sc.plant.speed_mode, sc.control.mode, sc.plant.substeps) == ("prescribed", "torque", 1)
    res = run(sc)
    zeros = np.zeros(res.total_steps).tobytes()
    assert res.log["eps_d"].tobytes() == zeros
    assert res.log["eps_q"].tobytes() == zeros
    # the estimate starts at the true values and stays there, bit for bit
    assert res.psi_m_hat.tobytes() == res.psi_m_true.tobytes()
    assert res.r_s_hat.tobytes() == res.r_s_true.tobytes()
    assert np.unique(res.psi_m_true).size == np.unique(res.r_s_true).size == 1
