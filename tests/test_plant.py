import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpemsim.estimator import ParameterVector, PredictorState, predictor_step
from rpemsim.plant import (
    PlantState,
    Trapezoid,
    integrate_electrical,
    speed_step,
    steady_state_current,
    steady_state_voltage,
    step_matrices,
    torque,
)
from rpemsim.pu import ConfigError, DqVector
from rpemsim.runner import run
from rpemsim.scenario import ControlSection, PlantSection, Scenario, StepEvent

DT = 125e-6


def _state(params, i=DqVector(0.0, 0.0), n=0.0):
    return PlantState(i=i, n=n, params=params)


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


def _kernel(params, n, omega_n):
    k = Trapezoid(omega_n, DT)
    k.set(params.r_s, params.x_d, params.x_q, n)
    return k


def test_derivative_unexcited_at_rest(params, omega_n):
    # zero derivative: one step from zero current stays at zero
    i = _kernel(params, 0.0, omega_n).drive(0.0, 0.0, 0.0, 0.0, params.psi_m)
    assert i == (0.0, 0.0)


def test_derivative_back_emf_cancellation(params, omega_n):
    n = 0.5
    i = _kernel(params, n, omega_n).drive(0.0, 0.0, 0.0, n * params.psi_m, params.psi_m)
    assert i[0] == pytest.approx(0.0, abs=1e-15)
    assert i[1] == pytest.approx(0.0, abs=1e-15)


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
        state = integrate_electrical(state, u, DT, omega_n)
    assert abs(state.i.d - i_ss.d) < 1e-8
    assert abs(state.i.q - i_ss.q) < 1e-8
    # and the derivative there is zero: one step from it stays there
    i = _kernel(params, n, omega_n).drive(i_ss.d, i_ss.q, u.d, u.q, params.psi_m)
    assert abs(i[0] - i_ss.d) < 1e-12 and abs(i[1] - i_ss.q) < 1e-12


def _torque(params, i_d, i_q):
    return torque(params.psi_m, params.x_d, params.x_q, i_d, i_q)


def test_torque_zero_current(params):
    assert _torque(params, 0.0, 0.0) == 0.0


def test_torque_hand_value(params):
    # psi_m * i_q with i_d = 0; 0.895 * 0.5
    assert _torque(params, 0.0, 0.5) == pytest.approx(0.4475, rel=1e-12)


@given(
    i_d=st.floats(-1.0, 1.0, allow_nan=False),
    i_q=st.floats(-1.0, 1.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_torque_sign_symmetry(params, i_d, i_q):
    plus = _torque(params, i_d, i_q)
    minus = _torque(params, i_d, -i_q)
    assert plus == pytest.approx(-minus, abs=1e-15)


def test_mechanical_torque_balance():
    assert speed_step(0.3, 0.4, 0.4, 1.0, DT) == 0.3


def test_mechanical_prescribed_ignores_torque():
    # in prescribed mode the run's plant speed is the schedule, whatever
    # the electromagnetic and load torques
    sc = Scenario(
        name="prescribed",
        duration_s=0.02,
        plant=PlantSection(speed_mode="prescribed", load_torque_pu=5.0),
        control=ControlSection(tau_ref=[(0.0, 1.0)], speed_ref=[(0.0, 0.3), (0.01, 0.7)]),
    )
    log = run(sc).log
    assert np.array_equal(log["n"], np.where(log["t"] + 1e-12 < 0.01, 0.3, 0.7))


def test_mechanical_hand_value():
    dn = speed_step(0.0, 1.0, 0.0, 1.0, DT) - 0.0
    assert dn == pytest.approx(6.25e-5, rel=1e-12)


def test_integration_convergence_order(params, omega_n):
    # oracle: matrix exponential of the linear system
    n, u = 0.5, DqVector(0.1, 0.6)
    i0 = DqVector(0.2, -0.1)
    t_end = 0.02
    errs = []
    for dt in (2e-4, 1e-4):
        state = _state(params, i=i0, n=n)
        for _ in range(int(round(t_end / dt))):
            state = integrate_electrical(state, u, dt, omega_n)
        exact = _exact_response(params, i0, u, n, omega_n, t_end)
        errs.append(math.hypot(state.i.d - exact[0], state.i.q - exact[1]))
    ratio = errs[0] / errs[1]
    assert ratio > 2 ** 2 * 0.7  # second order


def test_trapezoidal_bounded_at_rated_speed(params, omega_n):
    state = _state(params, i=DqVector(1.0, 1.0), n=1.0)
    u = DqVector(0.0, 0.895)
    for _ in range(int(10.0 / DT / 10)):  # 1 s is plenty to reveal growth
        state = integrate_electrical(state, u, DT, omega_n)
        assert abs(state.i.d) < 10.0 and abs(state.i.q) < 10.0


def test_validate_events_rejects_invalid_result():
    # the events are folded into the plant's parameter schedule, and a step
    # whose result fails the MachineParams check is rejected with it as cause
    ev = [StepEvent(time_s=1.0, target="psi_m", factor=-2.0)]
    with pytest.raises(ConfigError) as exc:
        Scenario(
            name="bad-flux",
            duration_s=3.0,
            control=ControlSection(tau_ref=[(0.0, 0.3)]),
            events=ev,
        )
    assert isinstance(exc.value.__cause__, ConfigError)
    assert str(exc.value.__cause__).startswith("MachineParams.psi_m must be a number >= 0")


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
    # the step must not hand back NaN matrices
    with pytest.raises(ValueError, match="singular"):
        step_matrices(math.nan, params.x_d, params.x_q, 0.3, 2 * math.pi * 50.0, DT)


def test_integrate_electrical_equals_a_fresh_kernel_bitwise(params, omega_n):
    # integrate_electrical takes memoized kernels; interleaved speeds
    # (signed zeros too) and steps must each get the kernel a fresh one
    # would be, whatever the calls before them
    u = DqVector(0.0, 0.0)
    for i0 in (DqVector(0.0, 0.0), DqVector(0.1, -0.2)):
        for n, dt in [(0.3, DT), (0.3, 2 * DT), (-0.0, DT), (0.0, DT), (-0.0, 2 * DT)]:
            fresh = Trapezoid(omega_n, dt)
            fresh.set(params.r_s, params.x_d, params.x_q, n)
            got = integrate_electrical(_state(params, i=i0, n=n), u, dt, omega_n)
            want = fresh.drive(*i0, *u, params.psi_m)
            assert [v.hex() for v in got.i] == [v.hex() for v in want]


def _plant_step(params, omega_n):
    state = _state(params, n=0.5)
    return lambda u: integrate_electrical(state, u, DT, omega_n).i


def _predictor_step(params, omega_n):
    state, theta = PredictorState(DqVector(0.1, -0.2)), ParameterVector(params.psi_m, params.r_s)
    return lambda u: predictor_step(state, u, 0.5, theta, (params.x_d, params.x_q), omega_n, DT)


@pytest.mark.parametrize("make_step", [_plant_step, _predictor_step], ids=["plant", "predictor"])
def test_integrate_electrical_from_three_threads_equals_one_thread_bitwise(
    params, omega_n, make_step
):
    # each thread steps its own resistance through the memoized kernels the
    # threads share; a kernel set again by one thread between another's
    # look-up and step would give a wrong result. A switch interval of 1 us
    # makes such a switch likely within a few thousand calls
    u = DqVector(0.3, 0.1)
    steps = [make_step(replace(params, r_s=r_s), omega_n) for r_s in (0.01, 0.05, 0.09)]
    want = [step(u) for step in steps]
    wrong = [0] * len(steps)

    def work(k):
        for _ in range(15_000):
            wrong[k] += steps[k](u) != want[k]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(steps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0] * len(steps)


_SETTINGS = st.tuples(  # (r_s, x_d, x_q, n): reactances repeat and change, speeds +-0.0
    st.floats(0.0, 0.1), st.sampled_from([0.5, 0.64]), st.sampled_from([1.0, 1.38]),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5)),
)
_DRIVES = st.tuples(*[st.floats(-2.0, 2.0)] * 5)  # (i_d, i_q, u_d, u_q, psi_m)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(_SETTINGS, _DRIVES), min_size=1, max_size=6))
def test_trapezoid_drive_is_step_under_the_voltage_forcing_bitwise(omega_n, steps):
    # drive writes step out in its own frame; one kernel re-selected from
    # step to step, so set() must keep w_d and w_q those of its reactances
    k = Trapezoid(omega_n, DT)
    for (r_s, x_d, x_q, n), (i_d, i_q, u_d, u_q, psi_m) in steps:
        k.set(r_s, x_d, x_q, n)
        want = k.step(i_d, i_q, omega_n / x_d * u_d, omega_n / x_q * (u_q - n * psi_m))
        assert [v.hex() for v in k.drive(i_d, i_q, u_d, u_q, psi_m)] == [v.hex() for v in want]


def test_trapezoid_caches_matrices_until_an_input_changes(params, omega_n):
    k = Trapezoid(omega_n, DT)
    p = (params.r_s, params.x_d, params.x_q)
    k.set(*p, 0.3)
    assert (k.mi11, k.mi12, k.mi21, k.mi22, k.n11, k.n12, k.n21, k.n22) == (
        step_matrices(*p, 0.3, omega_n, DT)
    )
    k.set(*p, 0.0)
    assert math.copysign(1.0, k.n12) == 1.0
    # a signed-zero speed flips the zero off-diagonal entries, bit for bit
    k.set(*p, -0.0)
    assert math.copysign(1.0, k.n12) == -1.0
    assert k.n12 == step_matrices(*p, -0.0, omega_n, DT)[5]
