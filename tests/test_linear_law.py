"""The linear adaptation law, predicted against measured convergence.

In steady-state gradient mode the prediction error is eps ~ Psi^T (theta -
theta_hat), so one sample maps an active row's error delta to
(1 - l . a) * delta: a is that row's gradient from steady_state_gradients at
the previous sample's resistance estimate and the sample's speed and
predicted current, l that row of the logged gain. Per algorithm l . a is

- SGA trace: gamma_L * |a|^2 / r;
- GNA with a settled Hessian: gamma_L, as R^-1 cancels;
- PhyInt's resistance row: gamma_L on each axis, so 2 * gamma_L.

So the product of (1 - l_k . a_k) over the samples after a parameter step
predicts the error the run measures. The bench_rs_* grid's resistance rates
are written from this law (scenario._BENCH_RS_GAINS). GNA's flux row is not
checked: its r12 coupling moves it off the law by 21-63 % of the step
(ROADMAP.md, item 11).
"""

import numpy as np
import pytest

from rpemsim.estimator import steady_state_gradients
from rpemsim.runner import run
from rpemsim.scenario import PRESETS, Scenario

STEP_S = 0.25
TRACK = 0.05  # the law's largest miss, relative to the step
SETTLED = 0.02  # the law is checked until the error falls below this share of the step
# target -> the first gradient entry of its row, and the row's logged gain columns
ROWS = {"psi_m": (0, "L11", "L12"), "r_s": (2, "L21", "L22")}


def _noiseless_step(name: str, horizon_s: float, algorithm: str | None) -> Scenario:
    """The preset with no noise, full-rate logging and its step at STEP_S,
    run horizon_s past it."""
    doc = PRESETS[name]
    estimator = {**doc.get("estimator", {}), **({"algorithm": algorithm} if algorithm else {})}
    return Scenario.from_dict({
        **doc, "duration_s": STEP_S + horizon_s, "log_decimation": 1,
        "plant": {**doc["plant"], "noise_sigma_pu": 0.0}, "estimator": estimator,
        "events": [{**doc["events"][0], "time_s": STEP_S}],
    })


@pytest.mark.parametrize("name,algorithm,target,horizon_s", [
    ("bench_rs_sga_n005", None, "r_s", 8.0),
    ("bench_rs_gna_n005", None, "r_s", 8.0),
    ("bench_rs_phyint_n005", None, "r_s", 16.0),
    ("fig10b", None, "psi_m", 5.0),
    ("fig10b", "phyint", "psi_m", 2.0),
])
def test_error_after_a_step_is_the_product_of_one_minus_gain_times_gradient(
    name, algorithm, target, horizon_s
):
    sc = _noiseless_step(name, horizon_s, algorithm)
    res = run(sc)
    _, params = sc.machine.per_unit()
    log = res.log
    k0 = round(STEP_S / sc.t_samp_s)  # the first sample the step applies to
    other = "r_s" if target == "psi_m" else "psi_m"
    # the other row is off on every sample, so only this row's error moves eps
    assert np.all(getattr(res, f"{other}_hat") == getattr(res, f"{other}_true"))

    hat, true = getattr(res, f"{target}_hat"), getattr(res, f"{target}_true")
    step = true[k0] - hat[k0 - 1]
    measured = true[k0:] - hat[k0:]
    settled = np.flatnonzero(np.abs(measured) < SETTLED * abs(step))
    assert settled.size, f"the error is still above {SETTLED:.0%} of the step at the end"
    k1 = k0 + settled[0]  # the law is checked on samples k0 <= k < k1

    col, l1, l2 = ROWS[target]
    # these runs hold one prescribed speed, so every sample's n is the speed
    # the estimator step used
    inputs = (res.r_s_hat[k0 - 1:k1 - 1], log["n"][k0:k1], log["i_hat_d"][k0:k1],
              log["i_hat_q"][k0:k1])
    a = np.array([
        steady_state_gradients(r_s, params.x_d, params.x_q, n, i_d, i_q)[col:col + 2]
        for r_s, n, i_d, i_q in zip(*(x.tolist() for x in inputs))
    ])
    predicted = step * np.cumprod(1.0 - (log[l1][k0:k1] * a[:, 0] + log[l2][k0:k1] * a[:, 1]))
    miss = np.max(np.abs(predicted - measured[:k1 - k0])) / abs(step)
    assert miss <= TRACK, f"the law misses by {miss:.2%} of the step"
