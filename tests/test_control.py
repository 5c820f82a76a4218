import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpemsim.control import (
    ControlError,
    PiState,
    References,
    current_controller,
    limit_current,
    mtpa_reference,
    pi_update,
    tune_current_loops,
)
from rpemsim.plant import PlantState, steady_state_voltage
from rpemsim.pu import DqVector, MachineParams

DT = 125e-6


def _torque_of(i_d, i_q, p):
    return p.psi_m * i_q + (p.x_d - p.x_q) * i_d * i_q


def test_mtpa_zero_torque(params):
    assert mtpa_reference(0.0, params) == (0.0, 0.0)


def test_mtpa_no_saliency():
    p = MachineParams(x_d=0.8, x_q=0.8, r_s=0.05, psi_m=1.0)
    i_d, i_q = mtpa_reference(0.5, p)
    assert i_d == 0.0
    assert i_q == pytest.approx(0.5, rel=1e-12)


def test_mtpa_round_trip_torque(params):
    for tau in (-0.8, -0.3, 0.2, 0.45, 1.0):
        i_d, i_q = mtpa_reference(tau, params)
        assert _torque_of(i_d, i_q, params) == pytest.approx(tau, abs=1e-9)


def test_mtpa_negative_d_current(params):
    i_d, i_q = mtpa_reference(0.4, params)
    assert i_d < 0.0
    assert i_q > 0.0


def test_mtpa_beats_angle_sweep(params):
    # oracle: brute-force sweep over the current angle at fixed magnitude
    rng = np.random.default_rng(11)
    for _ in range(25):
        tau = float(rng.uniform(-1.0, 1.0))
        if abs(tau) < 1e-3:
            continue
        i_d, i_q = mtpa_reference(tau, params)
        mag = math.hypot(i_d, i_q)
        beta = np.linspace(0.0, 2 * math.pi, 401)
        cand = np.abs(_torque_of(mag * np.cos(beta), mag * np.sin(beta), params))
        assert abs(tau) / mag >= cand.max() / mag - 1e-4


def test_mtpa_requires_positive_flux():
    p = MachineParams(x_d=0.6, x_q=1.4, r_s=0.05, psi_m=0.0)
    with pytest.raises(ControlError):
        mtpa_reference(0.3, p)


@pytest.mark.parametrize("ti", [0.0, -1.0, math.nan, math.inf, True])
def test_pi_state_rejects_an_integral_time_outside_its_declared_range(ti):
    with pytest.raises(ControlError, match="PiState.ti must be a number > 0"):
        PiState(kp=1.0, ti=ti)


def test_pi_zero_error_zero_output():
    out, integ = pi_update(1.0, 1.0, 1.0, 0.1, 0.0, 10.0, DT)
    assert out == 0.0
    assert integ == 0.0


def test_pi_integrator_ramp():
    kp, ti, integ = 2.0, 0.5, 0.0
    e = 0.25
    outs = []
    for _ in range(100):
        out, integ = pi_update(e, 0.0, kp, ti, integ, 1e9, DT)
        outs.append(out)
    slope = (outs[-1] - outs[0]) / (99 * DT)
    assert slope == pytest.approx(kp * e / ti, rel=1e-6)


def test_pi_antiwindup_freezes_integrator():
    limit, integ = 1.0, 0.0
    prev_integ = integ
    for _ in range(200):
        out, integ = pi_update(1.0, 0.0, 10.0, 0.01, integ, limit, DT)
        if out == limit:
            assert abs(integ) <= abs(prev_integ) + 1e-15
        prev_integ = integ
    assert out == 1.0
    assert abs(integ) <= 1.0


def test_pi_integrator_above_the_limit_is_clamped_when_the_error_turns_inward():
    # the output is clamped but not frozen, as the error pulls it back: the
    # integrator update runs, and lands on the limit
    out, integ = pi_update(0.0, 0.5, 1.0, 0.1, 2.0, 1.0, DT)
    assert out == 1.0
    assert integ == 1.0


def test_voltage_limit_passthrough():
    assert limit_current(0.3, 0.4, 1.0) == (0.3, 0.4)


def test_voltage_limit_scales_to_bound():
    assert limit_current(2.0, 0.0, 1.0) == (1.0, 0.0)


@given(
    d=st.floats(-10, 10, allow_nan=False),
    q=st.floats(-10, 10, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_voltage_limit_preserves_angle(d, q):
    mag = math.hypot(d, q)
    if mag < 1e-6:
        return
    out_d, out_q = limit_current(d, q, 0.5)
    cross = d * out_q - q * out_d
    assert abs(cross) <= 1e-12 * mag
    assert math.hypot(out_d, out_q) <= 0.5 + 1e-12


def test_current_controller_steady_state_voltage(params, omega_n):
    # oracle: voltage equation with derivatives zeroed
    n = 0.4
    i = DqVector(-0.12, 0.42)
    u_expect = steady_state_voltage(params, i, n)
    pi_d = PiState(kp=1.0, ti=0.05, integrator=params.r_s * i.d, output_limit=2.0)
    pi_q = PiState(kp=1.0, ti=0.05, integrator=params.r_s * i.q, output_limit=2.0)
    refs = References(id_ref=i.d, iq_ref=i.q)
    u, _, _ = current_controller(refs, i, n, params, pi_d, pi_q, DT, 2.0)
    assert u.d == pytest.approx(u_expect.d, abs=1e-12)
    assert u.q == pytest.approx(u_expect.q, abs=1e-12)


def test_current_controller_zero_everything(params):
    pi_d = PiState(kp=1.0, ti=0.05, output_limit=2.0)
    pi_q = PiState(kp=1.0, ti=0.05, output_limit=2.0)
    u, _, _ = current_controller(
        References(), DqVector(0.0, 0.0), 0.0, params, pi_d, pi_q, DT, 2.0
    )
    assert u == DqVector(0.0, 0.0)


def test_feedforward_uses_estimates_not_plant(params):
    # interface shape: the controller admits exactly one parameter set,
    # the estimated one; there is no slot for true plant values
    import inspect

    sig = inspect.signature(current_controller)
    assert "theta_hat" in sig.parameters
    assert not any(
        name in sig.parameters for name in ("params", "true_params", "plant")
    )
    # and the feedforward term tracks the estimate it is given
    pi_d = PiState(kp=1.0, ti=0.05, output_limit=2.0)
    pi_q = PiState(kp=1.0, ti=0.05, output_limit=2.0)
    i = DqVector(0.0, 0.2)
    refs = References(id_ref=0.0, iq_ref=0.2)
    low = MachineParams(x_d=params.x_d, x_q=params.x_q, r_s=params.r_s,
                        psi_m=0.5 * params.psi_m)
    u1, _, _ = current_controller(refs, i, 0.5, params, pi_d, pi_q, DT, 2.0)
    u2, _, _ = current_controller(refs, i, 0.5, low, pi_d, pi_q, DT, 2.0)
    assert u1.q - u2.q == pytest.approx(0.5 * 0.5 * params.psi_m, rel=1e-12)


def test_speed_controller_clamps():
    # the run's speed loop is pi_update on the speed error
    tau, _ = pi_update(1.0, 0.0, 50.0, 0.2, 0.0, 1.2, DT)
    assert tau == 1.2


def test_speed_controller_zero_error_integrator_only():
    tau, _ = pi_update(0.3, 0.3, 50.0, 0.2, 0.4, 1.2, DT)
    assert tau == pytest.approx(0.4, rel=1e-12)


def test_closed_loop_current_step_settles_within_50ms(params, omega_n):
    # torque step 0.4 pu at n = 0.3 pu with true parameters in the loop
    from rpemsim.plant import integrate_electrical

    n = 0.3
    pi_d, pi_q = tune_current_loops(params, omega_n, DT, 1.2)
    plant = PlantState(i=DqVector(0.0, 0.0), n=n, params=params)
    id_ref, iq_ref = mtpa_reference(0.4, params)
    refs = References(id_ref=id_ref, iq_ref=iq_ref)
    u_cmd = DqVector(0.0, n * params.psi_m)
    i_mag_ref = math.hypot(id_ref, iq_ref)
    t_settle = None
    for k in range(int(0.08 / DT)):
        u_cmd, pi_d, pi_q = current_controller(
            refs, plant.i, n, params, pi_d, pi_q, DT, 1.2
        )
        plant = integrate_electrical(plant, u_cmd, DT, omega_n)
        err = math.hypot(plant.i.d - id_ref, plant.i.q - iq_ref)
        if t_settle is None and err <= 0.01 * i_mag_ref:
            t_settle = k * DT
        if t_settle is not None and err > 0.01 * i_mag_ref:
            t_settle = None
    assert t_settle is not None and t_settle <= 0.05
