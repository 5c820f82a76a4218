import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpemsim.estimator import (
    DynamicGradients,
    GainConfig,
    GainMatrix,
    GradientSet,
    Gna,
    HessianState,
    MixedGradients,
    ParameterBox,
    ParameterVector,
    PhyInt,
    PredictorState,
    RpemEstimator,
    SgaPerGradient,
    SgaTrace,
    SteadyStateGradients,
    StepTelemetry,
    clamp_to_box,
    gain_schedule,
    gna_update,
    make_gain,
    make_gradients,
    gradient_dynamic_step,
    gradient_steady_state,
    phyint_update,
    prediction_error,
    predictor_step,
    pseudoinverse_2x2,
    sga_update,
    steady_state_gradients,
)
from rpemsim.plant import Trapezoid, steady_state_current, steady_state_voltage
from rpemsim.pu import ConfigError, DqVector, MachineParams
from drawn import GAINS, GRADIENT_MODES, SPEED_BANDS, speeds

DT = 125e-6


def _settle_predictor(theta, known_x, omega_n, u, n, t_end=2.5, grads=True,
                      i_hat0=DqVector(0.0, 0.0)):
    state = PredictorState(i_hat=i_hat0)
    steps = int(t_end / DT)
    for _ in range(steps):
        prev = state.i_hat
        state = predictor_step(state, u, n, theta, known_x, omega_n, DT)
        if grads:
            state = gradient_dynamic_step(
                state, n, theta, known_x, omega_n, DT, i_hat_prev=prev
            )
    return state


# ---------------------------------------------------------------------------
# predictor and prediction error
# ---------------------------------------------------------------------------


def test_predictor_stays_at_zero_unexcited(theta_nominal, known_x, omega_n):
    state = PredictorState(i_hat=DqVector(0.0, 0.0))
    for _ in range(100):
        state = predictor_step(
            state, DqVector(0.0, 0.0), 0.0, theta_nominal, known_x, omega_n, DT
        )
    assert state.i_hat == DqVector(0.0, 0.0)


def test_predictor_tracks_true_machine(params, theta_nominal, known_x, omega_n):
    # same parameters, same drive: prediction error vanishes in steady state
    n = 0.4
    i_op = DqVector(-0.1, 0.5)
    u = steady_state_voltage(params, i_op, n)
    state = _settle_predictor(theta_nominal, known_x, omega_n, u, n, grads=False)
    eps = prediction_error(i_op, state.i_hat)
    assert abs(eps.d) < 1e-9 and abs(eps.q) < 1e-9


def test_prediction_error_zero_for_equal_currents():
    assert prediction_error(DqVector(0.1, -0.2), DqVector(0.1, -0.2)) == DqVector(0.0, 0.0)


def test_settled_error_matches_closed_form(params, known_x, omega_n):
    # flux estimate 10 percent low at n = 0.4; oracle: steady-state error
    # formula evaluated with the measured operating current
    from rpemsim.analysis import steady_state_error

    n = 0.4
    i_op = steady_state_current(params, steady_state_voltage(params, DqVector(-0.1, 0.4), n), n)
    u = steady_state_voltage(params, i_op, n)
    theta_low = ParameterVector(psi_m=0.9 * params.psi_m, r_s=params.r_s)
    state = _settle_predictor(theta_low, known_x, omega_n, u, n, grads=False)
    eps = prediction_error(i_op, state.i_hat)
    expect = steady_state_error(
        theta_low, known_x, n, i_op, delta_psi_m=params.psi_m - theta_low.psi_m
    )
    assert eps.d == pytest.approx(expect.d, abs=1e-6)
    assert eps.q == pytest.approx(expect.q, abs=1e-6)
    # sign: underestimated flux at positive speed pulls eps_d negative
    assert eps.d < 0.0


def test_high_speed_error_limit(params, known_x, omega_n):
    # d-axis error approaches -delta_psi / x_d as speed grows
    n = 1.0
    theta_low = ParameterVector(psi_m=0.9 * params.psi_m, r_s=params.r_s)
    delta = params.psi_m - theta_low.psi_m
    i_op = DqVector(0.0, 0.0)
    u = steady_state_voltage(params, i_op, n)
    state = _settle_predictor(theta_low, known_x, omega_n, u, n, grads=False)
    eps = prediction_error(i_op, state.i_hat)
    limit = -delta / known_x[0]
    assert abs(eps.d - limit) <= 0.02 * abs(limit)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _hex(values):
    return [v.hex() for v in values]  # bit for bit, signed zeros included


def test_oracle_steps_equal_a_fresh_kernel_bitwise(theta_nominal, known_x, omega_n):
    # the oracle steps take memoized kernels: interleaved parameter sets,
    # speeds (signed zeros too) and steps must each get the kernel a fresh
    # one would be, whatever the calls before them
    other = ParameterVector(0.9 * theta_nominal.psi_m, 1.1 * theta_nominal.r_s)
    u = DqVector(0.05, 0.4)
    states = (
        PredictorState(i_hat=DqVector(0.0, 0.0)),
        PredictorState(DqVector(0.1, -0.2), DqVector(0.01, 0.02), DqVector(-0.03, 0.04)),
    )
    cases = [
        (theta_nominal, 0.3, DT), (other, 0.3, DT), (other, -0.0, DT),
        (other, 0.0, DT), (theta_nominal, 0.0, 2 * DT), (theta_nominal, 0.3, DT),
    ]
    for state in states:
        for theta, n, dt in cases:
            fresh = Trapezoid(omega_n, dt)
            fresh.set(theta.r_s, *known_x, n)
            got = predictor_step(state, u, n, theta, known_x, omega_n, dt)
            assert _hex(got.i_hat) == _hex(fresh.drive(*state.i_hat, *u, theta.psi_m))
            prev = DqVector(0.0, 0.1)
            got = gradient_dynamic_step(state, n, theta, known_x, omega_n, dt, i_hat_prev=prev)
            source = DynamicGradients((*state.grad_psi, *state.grad_rs), *known_x)
            want = source.step(fresh, theta.r_s, n, *prev, *state.i_hat)
            assert _hex((*got.grad_psi, *got.grad_rs)) == _hex(want)


def test_oracle_steps_reject_an_invalid_parameter_set_on_every_call(
    theta_nominal, known_x, omega_n
):
    # only a parameter set found valid is remembered as checked
    state = PredictorState(i_hat=DqVector(0.0, 0.0))
    u = DqVector(0.0, 0.3)
    invalid = [
        (ParameterVector(theta_nominal.psi_m, -0.01), known_x),
        (ParameterVector(math.nan, theta_nominal.r_s), known_x),
        (theta_nominal, (0.0, known_x[1])),
    ]
    for theta, xs in invalid:
        predictor_step(state, u, 0.3, theta_nominal, known_x, omega_n, DT)
        for _ in range(2):
            with pytest.raises(ConfigError):
                predictor_step(state, u, 0.3, theta, xs, omega_n, DT)
            with pytest.raises(ConfigError):
                gradient_dynamic_step(state, 0.3, theta, xs, omega_n, DT, state.i_hat)
    # a container changed in place after a valid call is checked again
    xs = list(known_x)
    predictor_step(state, u, 0.3, theta_nominal, xs, omega_n, DT)
    xs[0] = -1.0
    with pytest.raises(ConfigError):
        predictor_step(state, u, 0.3, theta_nominal, xs, omega_n, DT)


def test_flux_gradient_needs_speed(theta_nominal, known_x, omega_n):
    state = PredictorState(i_hat=DqVector(0.2, 0.1))
    out = gradient_dynamic_step(state, 0.0, theta_nominal, known_x, omega_n, DT, state.i_hat)
    assert out.grad_psi == DqVector(0.0, 0.0)


def test_dynamic_gradients_settle_to_closed_form(params, theta_nominal, known_x, omega_n):
    # oracle: closed-form steady-state gradients at the settled current
    n = 0.3
    i_op = DqVector(-0.124, 0.405)
    u = steady_state_voltage(params, i_op, n)
    state = _settle_predictor(theta_nominal, known_x, omega_n, u, n)
    ss = gradient_steady_state(theta_nominal, known_x, n, state.i_hat)
    assert state.grad_psi.d == pytest.approx(ss.psi_d, abs=1e-6)
    assert state.grad_psi.q == pytest.approx(ss.psi_q, abs=1e-6)
    assert state.grad_rs.d == pytest.approx(ss.rs_d, abs=1e-6)
    assert state.grad_rs.q == pytest.approx(ss.rs_q, abs=1e-6)


def test_dynamic_gradient_matches_finite_difference(params, theta_nominal, known_x, omega_n):
    # oracle: central finite difference of two full predictor re-runs
    n = 0.35
    rng = np.random.default_rng(5)
    steps = int(1.0 / DT)
    u_seq = [
        DqVector(0.02 + 0.01 * math.sin(2 * math.pi * 3 * k * DT) + 0.002 * rng.standard_normal(),
                 0.3 + 0.05 * math.sin(2 * math.pi * 1.7 * k * DT))
        for k in range(steps)
    ]
    h = 1e-5

    def run_predictor(theta):
        st_ = PredictorState(i_hat=DqVector(0.0, 0.0))
        traj = np.empty((steps, 2))
        for k, u in enumerate(u_seq):
            st_ = predictor_step(st_, u, n, theta, known_x, omega_n, DT)
            traj[k] = st_.i_hat
        return traj

    st_ = PredictorState(i_hat=DqVector(0.0, 0.0))
    dyn = np.empty((steps, 4))
    for k, u in enumerate(u_seq):
        prev = st_.i_hat
        st_ = predictor_step(st_, u, n, theta_nominal, known_x, omega_n, DT)
        st_ = gradient_dynamic_step(st_, n, theta_nominal, known_x, omega_n, DT, i_hat_prev=prev)
        dyn[k] = (st_.grad_psi.d, st_.grad_psi.q, st_.grad_rs.d, st_.grad_rs.q)

    up = run_predictor(ParameterVector(theta_nominal.psi_m + h, theta_nominal.r_s))
    dn = run_predictor(ParameterVector(theta_nominal.psi_m - h, theta_nominal.r_s))
    fd_psi = (up - dn) / (2 * h)
    up = run_predictor(ParameterVector(theta_nominal.psi_m, theta_nominal.r_s + h))
    dn = run_predictor(ParameterVector(theta_nominal.psi_m, theta_nominal.r_s - h))
    fd_rs = (up - dn) / (2 * h)

    scale_psi = max(np.abs(fd_psi).max(), 1e-9)
    scale_rs = max(np.abs(fd_rs).max(), 1e-9)
    assert np.abs(dyn[:, 0:2] - fd_psi).max() <= 1e-3 * scale_psi
    assert np.abs(dyn[:, 2:4] - fd_rs).max() <= 1e-3 * scale_rs


def test_steady_state_gradients_at_standstill(theta_nominal, known_x):
    i_hat = DqVector(-0.2, 0.5)
    g = gradient_steady_state(theta_nominal, known_x, 0.0, i_hat)
    r = theta_nominal.r_s
    assert g.psi_d == 0.0 and g.psi_q == 0.0
    assert g.rs_d == pytest.approx(-i_hat.d / r, rel=1e-12)
    assert g.rs_q == pytest.approx(-i_hat.q / r, rel=1e-12)


def test_steady_state_gradient_high_speed_limit(theta_nominal, known_x):
    g = gradient_steady_state(theta_nominal, known_x, 50.0, DqVector(0.0, 0.0))
    assert g.psi_d == pytest.approx(-1.0 / known_x[0], rel=1e-5)


def test_error_gradient_is_negative_prediction_gradient(params, theta_nominal, known_x, omega_n):
    # numerically: d(eps)/d(theta) = -d(i_hat)/d(theta), the measurement
    # being independent of the estimate
    n = 0.3
    i_op = DqVector(-0.1, 0.4)
    u = steady_state_voltage(params, i_op, n)
    h = 1e-6

    def settled_eps(theta):
        st_ = _settle_predictor(theta, known_x, omega_n, u, n, grads=False, t_end=1.5)
        return prediction_error(i_op, st_.i_hat)

    up = settled_eps(ParameterVector(theta_nominal.psi_m + h, theta_nominal.r_s))
    dn = settled_eps(ParameterVector(theta_nominal.psi_m - h, theta_nominal.r_s))
    deps = ((up.d - dn.d) / (2 * h), (up.q - dn.q) / (2 * h))
    i_ss = steady_state_current(params, u, n)
    g = gradient_steady_state(theta_nominal, known_x, n, i_ss)
    assert deps[0] == pytest.approx(-g.psi_d, rel=1e-4)
    assert deps[1] == pytest.approx(-g.psi_q, rel=1e-4)


# ---------------------------------------------------------------------------
# gain algorithms
# ---------------------------------------------------------------------------


def _cfg(**kw) -> GainConfig:
    base = dict(algorithm="sga", gamma_L_psi=3.25e-4, gamma_L_rs=6.25e-5,
                gamma_r=6.25e-4)
    base.update(kw)
    return GainConfig(**base)


def test_sga_zero_error_keeps_theta_filters_r(theta_nominal, wide_box):
    grads = GradientSet(-1.5, -0.2, -2.0, -0.5)
    hess = HessianState(scalar_r=1.0)
    cfg = _cfg()
    theta, hess2, _ = sga_update(
        theta_nominal, DqVector(0.0, 0.0), grads, hess, cfg, wide_box
    )
    assert theta == theta_nominal
    tr = sum(g * g for g in grads)
    assert hess2.scalar_r == pytest.approx(1.0 + cfg.gamma_r * (tr - 1.0), rel=1e-12)


def test_sga_scalar_r_settles_to_trace(theta_nominal, wide_box):
    grads = GradientSet(-1.5, -0.2, -2.0, -0.5)
    hess = HessianState(scalar_r=1.0)
    cfg = _cfg()
    theta = theta_nominal
    for _ in range(40000):
        theta, hess, _ = sga_update(theta, DqVector(0.0, 0.0), grads, hess, cfg, wide_box)
    tr = sum(g * g for g in grads)
    assert hess.scalar_r == pytest.approx(tr, abs=1e-6)


def test_sga_gain_direction(theta_nominal, wide_box):
    grads = GradientSet(-1.5, -0.2, 0.0, 0.0)
    hess = HessianState(scalar_r=grads.psi_d ** 2 + grads.psi_q ** 2)
    cfg = _cfg()
    eps = DqVector(0.1, 0.0)  # flux underestimated at positive speed
    theta, _, L = sga_update(theta_nominal, eps, grads, hess, cfg, wide_box)
    assert L.l11 < 0.0
    assert theta.psi_m < theta_nominal.psi_m  # moves toward the lower truth


def test_gna_gain_matches_adjugate_expansion(theta_nominal, wide_box):
    # algebraic identity: L*det(R) equals the adjugate expansion
    grads = GradientSet(-1.4, -0.3, -1.9, -0.6)
    hess = HessianState(r11=2.5, r12=0.8, r22=4.0)
    cfg = _cfg(algorithm="gna", gamma_L_psi=1e-3, gamma_L_rs=1e-3)
    g = 1e-3
    _, hess2, L = gna_update(theta_nominal, DqVector(0.0, 0.0), grads, hess, cfg, wide_box)
    r11, r12, r22 = hess2.r11, hess2.r12, hess2.r22
    det = r11 * r22 - r12 * r12
    expect = (
        g * (grads.psi_d * r22 - grads.rs_d * r12) / det,
        g * (grads.psi_q * r22 - grads.rs_q * r12) / det,
        g * (grads.rs_d * r11 - grads.psi_d * r12) / det,
        g * (grads.rs_q * r11 - grads.psi_q * r12) / det,
    )
    for got, want in zip(L, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_gna_standstill_structure_forces_mpp(theta_nominal, wide_box):
    # speed zero: flux gradients vanish, det(R) is structurally zero and
    # the pseudoinverse branch must carry the resistance row
    grads = GradientSet(0.0, 0.0, 4.0, -8.0)
    hess = HessianState(r11=0.0, r12=0.0, r22=grads.rs_d ** 2 + grads.rs_q ** 2)
    cfg = _cfg(algorithm="gna")
    eps = DqVector(0.2, -0.4)
    theta, hess2, L = gna_update(theta_nominal, eps, grads, hess, cfg, wide_box)
    assert hess2.r11 == 0.0 and hess2.r12 == 0.0
    assert hess2.r11 * hess2.r22 - hess2.r12 * hess2.r12 == 0.0
    assert hess2.mpp_last is True
    assert L.l11 == 0.0 and L.l12 == 0.0
    assert theta.r_s != theta_nominal.r_s  # adaptation still proceeds


def test_gna_caps_the_resistance_row_and_keeps_its_direction():
    # the resistance gradients dwarf the flux ones: only row 2 exceeds the cap
    cfg = GainConfig(algorithm="gna", gain_cap=1e-3, gamma_L_rs=1.0, gamma_L_psi=1e-9)
    args = (1e-6, 0.0, 5.0, 5.0, 0.05, 0.0, 0.1, 0.2)
    capped = Gna(cfg, 1.0, 0.0, 1.0).step(*args)
    free = Gna(replace(cfg, gain_cap=1e300), 1.0, 0.0, 1.0).step(*args)
    assert math.hypot(*free[:2]) < cfg.gain_cap < math.hypot(*free[2:4])
    assert capped[:2] == free[:2] and capped[4:] == free[4:]
    assert math.hypot(*capped[2:4]) == pytest.approx(cfg.gain_cap, rel=1e-15, abs=0.0)
    scale = cfg.gain_cap / math.hypot(*free[2:4])
    assert capped[2:4] == pytest.approx((free[2] * scale, free[3] * scale), rel=1e-15, abs=0.0)


def test_pseudoinverse_rank1_diagonal():
    out = pseudoinverse_2x2(0.0, 0.0, 4.0)
    assert out == (0.0, 0.0, 0.25)


def test_pseudoinverse_zero_matrix():
    assert pseudoinverse_2x2(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_pseudoinverse_full_rank_matches_inverse():
    a, b, c = 3.0, 1.2, 2.0
    det = a * c - b * b
    out = pseudoinverse_2x2(a, b, c)
    expect = (c / det, -b / det, a / det)
    for o, e in zip(out, expect):
        assert o == pytest.approx(e, abs=1e-10)


@given(
    g1=st.floats(-5, 5, allow_nan=False),
    g2=st.floats(-5, 5, allow_nan=False),
    g3=st.floats(-5, 5, allow_nan=False),
    g4=st.floats(-5, 5, allow_nan=False),
)
@example(*[5.7890255664102835e-151] * 4)  # every entry ~6.7e-301, b != 0
@settings(max_examples=80, deadline=None)
def test_pseudoinverse_penrose_conditions(g1, g2, g3, g4):
    from hypothesis import assume

    # R built as a sum of outer products: symmetric PSD by construction
    R = np.outer([g1, g2], [g1, g2]) + np.outer([g3, g4], [g3, g4])
    lam = np.linalg.eigvalsh(R)
    tol = 1e-9
    # exclude the band around the truncation threshold, where the rank
    # decision itself is ambiguous
    assume(not (0.1 * tol * lam.max() < lam.min() < 10 * tol * lam.max()))
    p11, p12, p22 = pseudoinverse_2x2(R[0, 0], R[0, 1], R[1, 1])
    P = np.array(((p11, p12), (p12, p22)))
    # residual floor scales with |R||P|, the floating-point amplification
    # of the condition number
    nrm = max(1.0, np.abs(R).max() * max(np.abs(P).max(), 1.0))
    assert np.allclose(R @ P @ R, R, atol=1e-10 * nrm * max(np.abs(R).max(), 1.0))
    assert np.allclose(P @ R @ P, P, atol=1e-10 * nrm * max(np.abs(P).max(), 1.0))
    assert np.allclose((R @ P).T, R @ P, atol=1e-10 * nrm)
    assert np.allclose((P @ R).T, P @ R, atol=1e-10 * nrm)


def test_phyint_flux_correction_matches_high_speed_limit(params, known_x, wide_box):
    # oracle: substitute the high-speed error limit into the flux gain
    theta_low = ParameterVector(psi_m=0.9 * params.psi_m, r_s=params.r_s)
    delta = params.psi_m - theta_low.psi_m
    eps = DqVector(-delta / known_x[0], 0.0)
    cfg = _cfg(algorithm="phyint", gamma_L_psi=0.01)
    theta2, L = phyint_update(
        theta_low, eps, 5.0, DqVector(-0.1, 0.4), known_x, cfg, wide_box
    )
    assert L.l11 == pytest.approx(-0.01 * known_x[0], rel=1e-12)
    assert theta2.psi_m - theta_low.psi_m == pytest.approx(0.01 * delta, rel=1e-9)


def test_phyint_zero_current_zeroes_resistance_gains(theta_nominal, known_x, wide_box):
    cfg = _cfg(algorithm="phyint")
    _, L = phyint_update(
        theta_nominal, DqVector(0.1, 0.1), 0.0, DqVector(0.0, 0.0), known_x, cfg,
        wide_box,
    )
    assert L.l21 == 0.0 and L.l22 == 0.0


def test_phyint_equals_per_gradient_sga_resistance_row(theta_nominal, known_x, wide_box):
    # settled per-gradient normalization reduces each gain to gamma over
    # the respective gradient entry, which is the PhyInt relation
    n = 0.005
    i_hat = DqVector(-0.124, 0.405)
    g = gradient_steady_state(theta_nominal, known_x, n, i_hat)
    cfg = _cfg(sga_r_mode="per_gradient", gamma_L_rs=1e-4)
    hess = HessianState(
        rg_psi_d=g.psi_d ** 2, rg_psi_q=g.psi_q ** 2,
        rg_rs_d=g.rs_d ** 2, rg_rs_q=g.rs_q ** 2,
    )
    _, _, L_sga = sga_update(theta_nominal, DqVector(0.0, 0.0), g, hess, cfg, wide_box)
    cfgp = _cfg(algorithm="phyint", gamma_L_rs=1e-4)
    _, L_phy = phyint_update(
        theta_nominal, DqVector(0.0, 0.0), n, i_hat, known_x, cfgp, wide_box
    )
    assert L_sga.l21 == pytest.approx(L_phy.l21, rel=1e-9)
    assert L_sga.l22 == pytest.approx(L_phy.l22, rel=1e-9)


@pytest.mark.parametrize("settings,grads,want", [
    # first gradients with trace 5: each filter starts at its own share
    ({}, (1.0, 0.0, 0.0, 2.0), lambda c: SgaTrace(c, 5.0)),
    ({"sga_r_mode": "per_gradient"}, (1.0, 0.0, 0.0, 2.0),
     lambda c: SgaPerGradient(c, 5.0, 1.0, 0.0, 0.0, 4.0)),
    ({"algorithm": "gna"}, (1.0, 0.0, 3.0, 2.0), lambda c: Gna(c, 1.0, 3.0, 13.0)),
    # r0, or gradients below the trace floor, start every filter at a set value
    ({"r0": 2.0}, (1.0, 0.0, 0.0, 2.0), lambda c: SgaTrace(c, 2.0)),
    ({"sga_r_mode": "per_gradient", "r0": 2.0}, (1.0, 0.0, 0.0, 2.0),
     lambda c: SgaPerGradient(c, 2.0, 0.0, 0.0, 0.0, 0.0)),
    ({"algorithm": "gna", "r0": 2.0}, (1.0, 0.0, 0.0, 2.0), lambda c: Gna(c, 1.0, 0.0, 1.0)),
    ({"algorithm": "gna"}, (0.0, 0.0, 0.0, 1e-4), lambda c: Gna(c, 0.5, 0.0, 0.5)),
    ({"algorithm": "phyint"}, (1.0, 0.0, 0.0, 2.0), lambda c: PhyInt(c, 0.5, 0.75)),
])
def test_make_gain_picks_the_configured_object_and_seeds_its_filters(settings, grads, want):
    cfg = _cfg(**settings)
    assert make_gain(cfg, (0.5, 0.75), *grads) == want(cfg)


@pytest.mark.parametrize("mode_psi,mode_rs,want", [
    ("steady_state", "steady_state", lambda g: SteadyStateGradients(g, 0.5, 0.75)),
    ("dynamic", "dynamic", lambda g: DynamicGradients(g, 0.5, 0.75)),
    ("dynamic", "steady_state", lambda g: MixedGradients(g, 0.5, 0.75, True)),
    ("steady_state", "dynamic", lambda g: MixedGradients(g, 0.5, 0.75, False)),
])
def test_make_gradients_picks_the_source_of_the_two_modes(mode_psi, mode_rs, want):
    g0 = (1.0, 2.0, 3.0, 4.0)
    cfg = _cfg(gradient_mode_psi=mode_psi, gradient_mode_rs=mode_rs)
    got = make_gradients(cfg, (0.5, 0.75), g0)
    assert type(got) is type(want(g0)) and got == want(g0)


# ---------------------------------------------------------------------------
# scheduling, projection, gain sequence
# ---------------------------------------------------------------------------


def test_gain_schedule_dead_band():
    cfg = _cfg()
    L = GainMatrix(1.0, 2.0, 3.0, 4.0)
    assert gain_schedule(L, 0.05, cfg) == GainMatrix(0.0, 0.0, 0.0, 0.0)


def test_gain_schedule_flux_row_at_speed():
    cfg = _cfg()
    L = GainMatrix(1.0, 2.0, 3.0, 4.0)
    assert gain_schedule(L, 0.3, cfg) == GainMatrix(1.0, 2.0, 0.0, 0.0)


def test_gain_schedule_resistance_row_near_standstill():
    cfg = _cfg()
    L = GainMatrix(1.0, 2.0, 3.0, 4.0)
    assert gain_schedule(L, 0.005, cfg) == GainMatrix(0.0, 0.0, 3.0, 4.0)
    assert gain_schedule(L, 0.0, cfg) == GainMatrix(0.0, 0.0, 3.0, 4.0)


def test_schedule_limit_ordering_enforced():
    with pytest.raises(ConfigError):
        _cfg(n_lim1=0.01, n_lim2=0.1)


@pytest.mark.parametrize("field", [
    {"sga_r_mode": "bogus"},
    {"algorithm": "newton"},
    {"gradient_mode_rs": "bogus"},
    {"gamma_r": "big"},
    {"gamma_L_psi": True},
    {"r0": "1"},
])
def test_gain_config_rejects_values_outside_the_declared_types(field):
    with pytest.raises(ConfigError):
        _cfg(**field)


def test_gain_config_stores_an_integer_rate_as_its_float():
    assert type(_cfg(gamma_r=1).gamma_r) is float


def test_project_interior_unchanged(wide_box):
    assert clamp_to_box(0.9, 0.05, wide_box) == (0.9, 0.05)


def test_project_clamps_to_box():
    box = ParameterBox(psi_m_min=0.8, psi_m_max=1.0, r_s_min=0.03, r_s_max=0.06)
    assert clamp_to_box(1.5, 0.01, box) == (1.0, 0.03)


@given(
    psi=st.floats(-2, 3, allow_nan=False),
    rs=st.floats(-1, 1, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_project_idempotent(psi, rs):
    box = ParameterBox(psi_m_min=0.6, psi_m_max=1.2, r_s_min=0.03, r_s_max=0.07)
    once = clamp_to_box(psi, rs, box)
    assert clamp_to_box(*once, box) == once


# ---------------------------------------------------------------------------
# estimator state machine
# ---------------------------------------------------------------------------


def test_zero_error_fixed_point_no_drift(params, theta_nominal, known_x, omega_n, wide_box):
    # correct parameters, noiseless: estimates must not move
    n = 0.3
    i_op = DqVector(-0.12, 0.4)
    u = steady_state_voltage(params, i_op, n)
    est = RpemEstimator(
        cfg=_cfg(), theta0=theta_nominal, box=wide_box, known_x=known_x,
        omega_n=omega_n, t_samp=DT, i_hat0=i_op, n0=n,
    )
    for _ in range(20000):
        est.step(u, n, i_op)
    assert abs(est.theta.psi_m - theta_nominal.psi_m) < 1e-9
    assert abs(est.theta.r_s - theta_nominal.r_s) < 1e-9


def test_estimator_converges_flux_step(params, known_x, omega_n, wide_box):
    # true flux steps down 8 percent; scheduler passes the flux row at 0.3 pu
    n = 0.3
    true = MachineParams(
        x_d=params.x_d, x_q=params.x_q, r_s=params.r_s, psi_m=0.92 * params.psi_m
    )
    i_op = DqVector(-0.124, 0.405)
    u = steady_state_voltage(true, i_op, n)
    est = RpemEstimator(
        cfg=_cfg(), theta0=ParameterVector(params.psi_m, params.r_s),
        box=wide_box, known_x=known_x, omega_n=omega_n, t_samp=DT,
        i_hat0=i_op, n0=n,
    )
    for _ in range(int(7.0 / DT)):
        est.step(u, n, i_op)
    assert est.theta.psi_m == pytest.approx(true.psi_m, rel=1e-3)
    assert est.theta.r_s == params.r_s  # resistance row scheduled off


def test_estimator_reseeds_predictor_after_long_dead_band(
    params, theta_nominal, known_x, omega_n, wide_box
):
    # scheduler re-enables the flux row after a long dead band: predictor
    # and gradient states snap to their steady-state values instead of
    # dragging a stale transient into the first updates
    i_op = DqVector(-0.12, 0.4)
    cfg = _cfg(gradient_mode_psi="dynamic", gradient_mode_rs="dynamic")
    est = RpemEstimator(
        cfg=cfg, theta0=theta_nominal, box=wide_box, known_x=known_x,
        omega_n=omega_n, t_samp=DT, i_hat0=DqVector(0.0, 0.0), n0=0.05,
    )
    n_low = 0.05  # dead band: both rows gated
    u_low = steady_state_voltage(params, i_op, n_low)
    for _ in range(int(1.5 / DT)):
        est.step(u_low, n_low, i_op)
    n_high = 0.3
    u_high = steady_state_voltage(params, i_op, n_high)
    est.step(u_high, n_high, i_op)
    i_ss = steady_state_current(params, u_high, n_high)
    g_ss = gradient_steady_state(theta_nominal, known_x, n_high, i_ss)
    # one predictor step after the reseed barely moves the state
    assert est.pred.i_hat.d == pytest.approx(i_ss.d, abs=1e-3)
    assert est.pred.i_hat.q == pytest.approx(i_ss.q, abs=1e-3)
    assert est.pred.grad_psi.d == pytest.approx(g_ss.psi_d, abs=1e-2)
    assert est.pred.grad_rs.q == pytest.approx(g_ss.rs_q, abs=1e-2)


def _moving_estimator(params, known_x, omega_n, wide_box, **settings):
    # a flux mismatch at speed, so the flux estimate and the predicted
    # current move
    true = MachineParams(
        x_d=params.x_d, x_q=params.x_q, r_s=params.r_s, psi_m=0.92 * params.psi_m
    )
    i_op = DqVector(-0.124, 0.405)
    est = RpemEstimator(
        cfg=_cfg(**settings), theta0=ParameterVector(params.psi_m, 1.1 * params.r_s),
        box=wide_box, known_x=known_x, omega_n=omega_n, t_samp=DT, i_hat0=i_op, n0=0.3,
    )
    return est, steady_state_voltage(true, i_op, 0.3), i_op


@pytest.mark.parametrize("mode,per_sample", [
    ("steady_state", 1), ("dynamic", 3), ("dynamic/steady_state", 2), ("steady_state/dynamic", 2),
])
def test_estimator_runs_only_the_recursions_its_mode_reads(
    params, known_x, omega_n, wide_box, monkeypatch, mode, per_sample
):
    # per_sample trapezoidal steps: the predictor is one Trapezoid.drive,
    # each dynamic gradient row one Trapezoid.step. A mode "psi/rs" sets the
    # two rows apart, else both take it
    mode_psi, _, mode_rs = mode.partition("/")
    est, u, i_op = _moving_estimator(
        params, known_x, omega_n, wide_box,
        gradient_mode_psi=mode_psi, gradient_mode_rs=mode_rs or mode_psi,
    )
    est.step(u, 0.3, i_op)  # the first sample runs no predictor step
    calls = []
    for name in ("drive", "step"):
        method = getattr(Trapezoid, name)
        monkeypatch.setattr(Trapezoid, name,
                            lambda *a, name=name, method=method: calls.append(name) or method(*a))
    for _ in range(50):
        est.step(u, 0.3, i_op)
    assert (calls.count("drive"), calls.count("step")) == (50, 50 * (per_sample - 1))


def test_steady_state_pred_reports_the_gradients_the_step_used(
    params, known_x, omega_n, wide_box
):
    est, u, i_op = _moving_estimator(params, known_x, omega_n, wide_box)
    for _ in range(200):
        r_s = est.theta.r_s  # the step reads the estimate from before its update
        tele = StepTelemetry(*est.step(u, 0.3, i_op))
    assert tele.psi_m_hat != params.psi_m
    pred = est.pred
    want = steady_state_gradients(r_s, *known_x, 0.3, tele.i_hat_d, tele.i_hat_q)
    assert _hex((*pred.grad_psi, *pred.grad_rs)) == _hex(want)
    assert _hex(pred.i_hat) == _hex((tele.i_hat_d, tele.i_hat_q))


def test_estimator_mpp_telemetry_at_standstill(params, known_x, omega_n, wide_box):
    true = MachineParams(
        x_d=params.x_d, x_q=params.x_q, r_s=0.92 * params.r_s, psi_m=params.psi_m
    )
    i_op = DqVector(-0.124, 0.405)
    u = steady_state_voltage(true, i_op, 0.0)
    est = RpemEstimator(
        cfg=_cfg(algorithm="gna", gamma_L_rs=6.25e-5, gamma_r=6.25e-5),
        theta0=ParameterVector(params.psi_m, params.r_s), box=wide_box,
        known_x=known_x, omega_n=omega_n, t_samp=DT, i_hat0=i_op, n0=0.0,
    )
    mpp = 0
    steps = 4000
    for _ in range(steps):
        tele = StepTelemetry(*est.step(u, 0.0, i_op))
        mpp += tele.mpp_used
    assert mpp == steps
    assert est.theta.r_s < params.r_s  # moving toward the stepped value


# ---------------------------------------------------------------------------
# the run path against the object-level chain
# ---------------------------------------------------------------------------


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _oracle_filters(gain) -> HessianState:
    """The oracles' filter state holding the fields of gain object ``gain``."""
    return HessianState(**{f.name: getattr(gain, f.name) for f in fields(gain) if f.name != "cfg"})


_PAIR = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@pytest.mark.parametrize("band", list(SPEED_BANDS))
@pytest.mark.parametrize("gain", list(GAINS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_estimator_step_equals_the_object_level_chain_bitwise(
    known_x, omega_n, wide_box, gain, band, data
):
    # predictor_step, the gradient oracle of each row's mode, then the
    # algorithm's update with the scheduler at the sample's speed
    mode_psi, mode_rs = data.draw(st.sampled_from(GRADIENT_MODES))
    cfg = _cfg(gradient_mode_psi=mode_psi, gradient_mode_rs=mode_rs, **GAINS[gain])
    theta0 = ParameterVector(data.draw(st.floats(0.5, 1.2)), data.draw(st.floats(0.0, 0.08)))
    n0 = data.draw(speeds())
    est = RpemEstimator(cfg, theta0, wide_box, known_x, omega_n, DT,
                        i_hat0=DqVector(*data.draw(_PAIR)), n0=n0)
    est.step(DqVector(*data.draw(_PAIR)), n0, DqVector(*data.draw(_PAIR)))  # builds the gain
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(speeds(band))
        u, i_meas = DqVector(*data.draw(_PAIR)), DqVector(*data.draw(_PAIR))
        theta, state = est.theta, est.pred

        ahead = predictor_step(state, u, n, theta, known_x, omega_n, DT)
        eps = prediction_error(i_meas, ahead.i_hat)
        ss = gradient_steady_state(theta, known_x, n, ahead.i_hat)
        dyn = gradient_dynamic_step(ahead, n, theta, known_x, omega_n, DT, i_hat_prev=state.i_hat)
        grads = GradientSet(
            *(dyn.grad_psi if mode_psi == "dynamic" else ss[:2]),
            *(dyn.grad_rs if mode_rs == "dynamic" else ss[2:]),
        )
        if gain == "phyint":
            theta1, L = phyint_update(theta, eps, n, ahead.i_hat, known_x, cfg, wide_box, n)
            tail = (0.0, 0.0, False)
        else:
            update = gna_update if gain == "gna" else sga_update
            filters = _oracle_filters(est._gain)
            theta1, filters, L = update(theta, eps, grads, filters, cfg, wide_box, n)
            if gain == "gna":
                det = filters.r11 * filters.r22 - filters.r12 * filters.r12
                tail = (0.0, det, filters.mpp_last)
            else:
                tail = (filters.scalar_r, 0.0, False)
            filters = replace(filters, mpp_last=False)

        got = est.step(u, n, i_meas)
        assert _bits(got) == _bits((*eps, *ahead.i_hat, *theta1, *L, *tail))
        assert _bits((*est.pred.grad_psi, *est.pred.grad_rs)) == _bits(grads)
        if gain != "phyint":
            assert _bits(astuple(_oracle_filters(est._gain))) == _bits(astuple(filters))
