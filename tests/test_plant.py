import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpemsim.plant import (
    MechanicalParams,
    PlantState,
    StepEvent,
    Trapezoid,
    apply_step_events,
    electrical_derivative,
    integrate_electrical,
    measure,
    mechanical_step,
    steady_state_current,
    steady_state_voltage,
    step_matrices,
    torque,
    trapezoid_matrices,
    validate_events,
)
from rpemsim.pu import ConfigError, DqVector, MachineParams

DT = 125e-6


def _state(params, i=DqVector(0.0, 0.0), n=0.0):
    return PlantState(i=i, n=n, theta=0.0, params=params)


def _exact_response(params, i0, u, n, omega_n, t):
    """Matrix-exponential solution of the linear current dynamics (oracle)."""
    A = np.array(
        [
            [-params.r_s * omega_n / params.x_d, n * omega_n * params.x_q / params.x_d],
            [-n * omega_n * params.x_d / params.x_q, -params.r_s * omega_n / params.x_q],
        ]
    )
    b = np.array(
        [omega_n / params.x_d * u.d, omega_n / params.x_q * (u.q - n * params.psi_m)]
    )
    w, v = np.linalg.eig(A)
    expm = (v @ np.diag(np.exp(w * t)) @ np.linalg.inv(v)).real
    x_ss = np.linalg.solve(A, -b)
    x0 = np.array([i0.d, i0.q])
    return expm @ (x0 - x_ss) + x_ss


def test_derivative_unexcited_at_rest(params, omega_n):
    d = electrical_derivative(_state(params), DqVector(0.0, 0.0), omega_n)
    assert d == DqVector(0.0, 0.0)


def test_derivative_back_emf_cancellation(params, omega_n):
    n = 0.5
    u = DqVector(0.0, n * params.psi_m)
    d = electrical_derivative(_state(params, n=n), u, omega_n)
    assert d.d == pytest.approx(0.0, abs=1e-15)
    assert d.q == pytest.approx(0.0, abs=1e-15)


def test_simulation_converges_to_analytic_steady_state(params, omega_n):
    # oracle: direct 2x2 linear solve with derivatives zeroed
    n = 0.3
    u = DqVector(-0.05, 0.4)
    i_ss = steady_state_current(params, u, n)
    t_d = params.x_d / (params.r_s * omega_n)
    t_q = params.x_q / (params.r_s * omega_n)
    state = _state(params, n=n)
    steps = int(20.0 * max(t_d, t_q) / DT)
    for _ in range(steps):
        state = integrate_electrical(state, u, DT, "trapezoidal", omega_n)
    assert abs(state.i.d - i_ss.d) < 1e-8
    assert abs(state.i.q - i_ss.q) < 1e-8
    # and the derivative there is zero
    dz = electrical_derivative(_state(params, i=i_ss, n=n), u, omega_n)
    assert abs(dz.d) < 1e-9 and abs(dz.q) < 1e-9


def test_torque_zero_current(params):
    assert torque(_state(params)) == 0.0


def test_torque_hand_value(params):
    st_ = _state(params, i=DqVector(0.0, 0.5))
    # psi_m * i_q with i_d = 0; 0.895 * 0.5
    assert torque(st_) == pytest.approx(0.4475, rel=1e-12)


@given(
    i_d=st.floats(-1.0, 1.0, allow_nan=False),
    i_q=st.floats(-1.0, 1.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_torque_sign_symmetry(params, i_d, i_q):
    plus = torque(_state(params, i=DqVector(i_d, i_q)))
    minus = torque(_state(params, i=DqVector(i_d, -i_q)))
    assert plus == pytest.approx(-minus, abs=1e-15)


def test_mechanical_torque_balance():
    mech = MechanicalParams(inertia_H=1.0, speed_mode="dynamic")
    assert mechanical_step(0.3, 0.4, 0.4, mech, DT) == 0.3


def test_mechanical_prescribed_ignores_torque():
    mech = MechanicalParams(speed_mode="prescribed")
    assert mechanical_step(0.3, 5.0, -5.0, mech, DT, prescribed_n=0.7) == 0.7


def test_mechanical_hand_value():
    mech = MechanicalParams(inertia_H=1.0, speed_mode="dynamic")
    dn = mechanical_step(0.0, 1.0, 0.0, mech, DT) - 0.0
    assert dn == pytest.approx(6.25e-5, rel=1e-12)


def test_euler_single_step_hand_value(params, omega_n):
    state = _state(params, i=DqVector(1.0, 0.0), n=0.0)
    out = integrate_electrical(state, DqVector(0.0, 0.0), DT, "explicit_euler", omega_n)
    expected = 1.0 - DT * omega_n * params.r_s / params.x_d
    assert out.i.d == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.9970488, rel=1e-6)


@pytest.mark.parametrize("method,order", [("explicit_euler", 1), ("trapezoidal", 2)])
def test_integration_convergence_order(params, omega_n, method, order):
    # oracle: matrix exponential of the linear system
    n, u = 0.5, DqVector(0.1, 0.6)
    i0 = DqVector(0.2, -0.1)
    t_end = 0.02
    errs = []
    for dt in (2e-4, 1e-4):
        state = _state(params, i=i0, n=n)
        for _ in range(int(round(t_end / dt))):
            state = integrate_electrical(state, u, dt, method, omega_n)
        exact = _exact_response(params, i0, u, n, omega_n, t_end)
        errs.append(math.hypot(state.i.d - exact[0], state.i.q - exact[1]))
    ratio = errs[0] / errs[1]
    assert ratio > 2 ** order * 0.7


def test_trapezoidal_bounded_at_rated_speed(params, omega_n):
    state = _state(params, i=DqVector(1.0, 1.0), n=1.0)
    u = DqVector(0.0, 0.895)
    for _ in range(int(10.0 / DT / 10)):  # 1 s is plenty to reveal growth
        state = integrate_electrical(state, u, DT, "trapezoidal", omega_n)
        assert abs(state.i.d) < 10.0 and abs(state.i.q) < 10.0


def test_measure_noiseless_returns_state(params):
    rng = np.random.default_rng(0)
    st_ = _state(params, i=DqVector(0.3, -0.2))
    assert measure(st_, 0.0, rng) == st_.i


def test_measure_deterministic_given_seed(params):
    st_ = _state(params, i=DqVector(0.1, 0.2))
    a = [measure(st_, 0.01, np.random.default_rng(42)) for _ in range(3)]
    b = [measure(st_, 0.01, np.random.default_rng(42)) for _ in range(3)]
    # same seed, fresh generator: only the first draw repeats
    assert a[0] == b[0]
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    seq1 = [measure(st_, 0.01, rng1) for _ in range(100)]
    seq2 = [measure(st_, 0.01, rng2) for _ in range(100)]
    assert seq1 == seq2


def test_measure_noise_statistics(params):
    # oracle: law of large numbers on the sample standard deviation,
    # one million samples
    rng = np.random.default_rng(3)
    st_ = _state(params, i=DqVector(0.0, 0.0))
    sigma = 0.01
    samples = np.array([measure(st_, sigma, rng) for _ in range(500_000)])
    assert samples.size == 1_000_000
    assert np.std(samples.ravel()) == pytest.approx(sigma, rel=0.01)


def test_apply_step_events_flux_factor(params):
    st_ = _state(params)
    ev = [StepEvent(time_s=1.0, target="psi_m", factor=0.92)]
    out = apply_step_events(st_, ev, 1.0)
    assert out.params.psi_m == pytest.approx(0.92 * params.psi_m, rel=1e-12)
    # untouched before the event time
    same = apply_step_events(st_, ev, 0.5)
    assert same.params.psi_m == params.psi_m


def test_apply_step_events_empty_noop(params):
    st_ = _state(params)
    assert apply_step_events(st_, [], 10.0) is st_


def test_validate_events_rejects_invalid_result(params):
    ev = [StepEvent(time_s=1.0, target="psi_m", factor=-2.0)]
    with pytest.raises(ConfigError):
        validate_events(ev, params)


def test_validate_events_rejects_unsorted(params):
    ev = [
        StepEvent(time_s=2.0, target="psi_m", factor=0.9),
        StepEvent(time_s=1.0, target="r_s", factor=0.9),
    ]
    with pytest.raises(ConfigError, match="sorted"):
        validate_events(ev, params)


def test_event_needs_exactly_one_of_factor_value():
    with pytest.raises(ConfigError):
        StepEvent(time_s=1.0, target="psi_m")
    with pytest.raises(ConfigError):
        StepEvent(time_s=1.0, target="psi_m", factor=0.9, value=0.8)


def test_steady_state_voltage_inverts_current_solve(params):
    n = 0.4
    i = DqVector(-0.1, 0.5)
    u = steady_state_voltage(params, i, n)
    back = steady_state_current(params, u, n)
    assert back.d == pytest.approx(i.d, abs=1e-12)
    assert back.q == pytest.approx(i.q, abs=1e-12)


def test_step_matrices_rejects_nan_resistance(params):
    # MachineParams lets NaN through (nan < 0 is False); the step must not
    # hand back NaN matrices
    bad = MachineParams(x_d=params.x_d, x_q=params.x_q, r_s=math.nan, psi_m=params.psi_m)
    with pytest.raises(ValueError, match="singular"):
        step_matrices(bad, 0.3, 2 * math.pi * 50.0, DT)


def test_trapezoid_caches_matrices_until_an_input_changes(params, omega_n):
    k = Trapezoid(omega_n, DT)
    p = (params.r_s, params.x_d, params.x_q)
    k.set(*p, 0.3)
    assert (k.mi11, k.mi12, k.mi21, k.mi22, k.n11, k.n12, k.n21, k.n22) == (
        trapezoid_matrices(*p, 0.3, omega_n, DT)
    )
    k.set(*p, 0.0)
    assert math.copysign(1.0, k.n12) == 1.0
    # a signed-zero speed flips the zero off-diagonal entries, bit for bit
    k.set(*p, -0.0)
    assert math.copysign(1.0, k.n12) == -1.0
    assert k.n12 == trapezoid_matrices(*p, -0.0, omega_n, DT)[5]
