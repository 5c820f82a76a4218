"""Properties every run keeps, checked on fixed cases.

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
"""

import numpy as np
import pytest

from rpemsim.runner import run
from rpemsim.scenario import (
    ControlSection, EstimatorSection, PlantSection, Scenario, preset,
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
    longer = Scenario.from_dict({**short.to_dict(), "duration_s": T2_S})
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
