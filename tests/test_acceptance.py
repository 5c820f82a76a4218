"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines as they complete.
"""

import math

import numpy as np

from rpemsim.analysis import (
    discrete_stability,
    eigenvalues,
    steady_state_error,
)
from rpemsim.control import (
    References,
    current_controller,
    limit_current,
    mtpa_reference,
    tune_current_loops,
)
from rpemsim.estimator import (
    GainConfig,
    HessianState,
    ParameterBox,
    ParameterVector,
    PredictorState,
    RpemEstimator,
    gradient_steady_state,
    phyint_update,
    prediction_error,
    predictor_step,
    sga_update,
)
from rpemsim.plant import (
    PlantState,
    integrate_electrical,
    steady_state_voltage,
)
from rpemsim.pu import DqVector
from rpemsim.runner import run
from rpemsim.scenario import ControlSection, PlantSection, Scenario, preset_library

DT = 125e-6

_PRESET_CACHE = {}


def _run_preset(name, **overrides):
    key = (name, tuple(sorted(overrides.items())))
    if key not in _PRESET_CACHE:
        sc = preset_library()[name]
        if overrides:
            d = sc.to_dict()
            d["estimator"] = {**d["estimator"], **overrides}
            sc = Scenario.from_dict(d)
        _PRESET_CACHE[key] = run(sc)
    return _PRESET_CACHE[key]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _closed_loop_gradient_run(base, params, n_op, tau_op, duration):
    """Closed-loop trajectory recording the streams the estimator consumed
    and its dynamic gradient states; parameter updates are disabled through
    the scheduler so the finite-difference re-runs are well defined."""
    omega_n = base.omega_n
    known_x = (params.x_d, params.x_q)
    cfg = GainConfig(
        algorithm="sga",
        gradient_mode_psi="dynamic",
        gradient_mode_rs="dynamic",
        n_lim1=2.0,
        n_lim2=0.0,
    )
    theta = ParameterVector(psi_m=0.95 * params.psi_m, r_s=1.05 * params.r_s)
    box = ParameterBox.around(theta, 0.5)
    id0, iq0 = mtpa_reference(tau_op, params)
    i0 = DqVector(id0, iq0)
    u0 = steady_state_voltage(params, i0, n_op)
    est = RpemEstimator(
        cfg, theta, box, known_x, omega_n, DT, i_hat0=i0, n0=n_op,
        gradient_init="zero",
    )
    pi_d, pi_q = tune_current_loops(params, omega_n, DT, 1.5)
    plant = PlantState(i=i0, n=n_op, params=params)
    refs = References(id_ref=id0, iq_ref=iq0)

    steps = int(duration / DT)
    u_seq = [DqVector(0.0, 0.0)] * steps
    grads = np.empty((steps, 4))
    u_applied = u0
    # torque reference wiggles to keep the trajectory non-stationary
    for k in range(steps):
        t = k * DT
        u_seq[k] = u_applied
        est.step(u_applied, n_op, plant.i)
        grads[k] = (
            est.pred.grad_psi.d, est.pred.grad_psi.q,
            est.pred.grad_rs.d, est.pred.grad_rs.q,
        )
        tau_cmd = tau_op * (1.0 + 0.25 * math.sin(2 * math.pi * 2.0 * t))
        id_ref, iq_ref = limit_current(*mtpa_reference(tau_cmd, params), 1.5)
        refs = References(id_ref=id_ref, iq_ref=iq_ref)
        u_applied, pi_d, pi_q = current_controller(
            refs, plant.i, n_op, params, pi_d, pi_q, DT, 1.5
        )
        plant = integrate_electrical(plant, u_applied, DT, omega_n)
    return est.theta, i0, u_seq, grads


def _replay_predictor(theta, known_x, omega_n, i0, u_seq, n_op):
    state = PredictorState(i_hat=i0)
    out = np.empty((len(u_seq), 2))
    out[0] = i0
    for k in range(1, len(u_seq)):
        state = predictor_step(state, u_seq[k], n_op, theta, known_x, omega_n, DT)
        out[k] = state.i_hat
    return out


def test_criterion_01_gradient_oracle(base, params, known_x):
    h = 1e-5
    worst = 0.0
    for n_op, tau_op in ((0.3, 0.4), (0.8, 0.4), (0.05, 0.2)):
        theta, i0, u_seq, dyn = _closed_loop_gradient_run(
            base, params, n_op, tau_op, duration=1.0
        )
        up = _replay_predictor(
            ParameterVector(theta.psi_m + h, theta.r_s), known_x, base.omega_n,
            i0, u_seq, n_op,
        )
        dn = _replay_predictor(
            ParameterVector(theta.psi_m - h, theta.r_s), known_x, base.omega_n,
            i0, u_seq, n_op,
        )
        fd_psi = (up - dn) / (2 * h)
        up = _replay_predictor(
            ParameterVector(theta.psi_m, theta.r_s + h), known_x, base.omega_n,
            i0, u_seq, n_op,
        )
        dn = _replay_predictor(
            ParameterVector(theta.psi_m, theta.r_s - h), known_x, base.omega_n,
            i0, u_seq, n_op,
        )
        fd_rs = (up - dn) / (2 * h)
        err_psi = np.abs(dyn[:, 0:2] - fd_psi).max() / max(np.abs(fd_psi).max(), 1e-12)
        err_rs = np.abs(dyn[:, 2:4] - fd_rs).max() / max(np.abs(fd_rs).max(), 1e-12)
        worst = max(worst, err_psi, err_rs)
    _report(1, worst <= 1e-3, f"dynamic gradients vs finite differences, worst rel err {worst:.2e}")


def test_criterion_02_steady_state_equivalence(base, params, known_x):
    rng = np.random.default_rng(2024)
    omega_n = base.omega_n
    worst_grad = 0.0
    worst_eps = 0.0
    theta_n = ParameterVector(params.psi_m, params.r_s)
    for _ in range(25):
        n = float(rng.uniform(-1.0, 1.0))
        tau = float(rng.uniform(-1.0, 1.0))
        i_d, i_q = mtpa_reference(tau, params)
        i_op = DqVector(i_d, i_q)
        u = steady_state_voltage(params, i_op, n)

        # settled dynamic gradients against the closed forms
        state = PredictorState(i_hat=DqVector(0.0, 0.0))
        from rpemsim.estimator import gradient_dynamic_step

        for _ in range(int(2.5 / DT)):
            prev = state.i_hat
            state = predictor_step(state, u, n, theta_n, known_x, omega_n, DT)
            state = gradient_dynamic_step(
                state, n, theta_n, known_x, omega_n, DT, i_hat_prev=prev
            )
        ss = gradient_steady_state(theta_n, known_x, n, state.i_hat)
        worst_grad = max(
            worst_grad,
            abs(state.grad_psi.d - ss.psi_d),
            abs(state.grad_psi.q - ss.psi_q),
            abs(state.grad_rs.d - ss.rs_d),
            abs(state.grad_rs.q - ss.rs_q),
        )

        # settled prediction error for each single-parameter mismatch
        perturbations = (
            (ParameterVector(0.9 * params.psi_m, params.r_s), known_x,
             dict(delta_psi_m=0.1 * params.psi_m)),
            (ParameterVector(params.psi_m, 0.9 * params.r_s), known_x,
             dict(delta_r_s=0.1 * params.r_s)),
            (theta_n, (0.9 * params.x_d, params.x_q),
             dict(delta_x_d=0.1 * params.x_d)),
            (theta_n, (params.x_d, 0.9 * params.x_q),
             dict(delta_x_q=0.1 * params.x_q)),
        )
        for theta_m, xs_m, deltas in perturbations:
            st_ = PredictorState(i_hat=DqVector(0.0, 0.0))
            for _ in range(int(2.5 / DT)):
                st_ = predictor_step(st_, u, n, theta_m, xs_m, omega_n, DT)
            eps = prediction_error(i_op, st_.i_hat)
            expect = steady_state_error(theta_m, xs_m, n, i_op, **deltas)
            worst_eps = max(worst_eps, abs(eps.d - expect.d), abs(eps.q - expect.q))
    ok = worst_grad <= 1e-6 and worst_eps <= 1e-6
    _report(2, ok, f"gradients {worst_grad:.2e} pu, errors {worst_eps:.2e} pu vs closed forms")


def test_criterion_03_high_speed_limit(base, params, known_x):
    omega_n = base.omega_n
    worst = 0.0
    for n in (1.0, -1.0):
        theta_low = ParameterVector(0.9 * params.psi_m, params.r_s)
        delta = params.psi_m - theta_low.psi_m
        i_d, i_q = mtpa_reference(0.2, params)
        i_op = DqVector(i_d, i_q)
        u = steady_state_voltage(params, i_op, n)
        state = PredictorState(i_hat=DqVector(0.0, 0.0))
        for _ in range(int(2.0 / DT)):
            state = predictor_step(state, u, n, theta_low, known_x, omega_n, DT)
        eps = prediction_error(i_op, state.i_hat)
        limit = -delta / known_x[0]
        worst = max(worst, abs(eps.d - limit) / abs(limit))
    _report(3, worst <= 0.02, f"|eps_d + delta/x_d| within {worst:.4f} of limit at |n|=1")


def test_criterion_04_stability_suite(base, params, known_x):
    omega_n = base.omega_n
    ok_re = True
    ok_trap = True
    for r_scale in (0.7, 1.0, 1.3):
        theta = ParameterVector(params.psi_m, r_scale * params.r_s)
        for n in np.linspace(-1.2, 1.2, 81):
            lam = eigenvalues(theta, known_x, float(n), omega_n)
            ok_re &= lam.lambda1.real < 0.0 and lam.lambda2.real < 0.0
            for l in (lam.lambda1, lam.lambda2):
                _, stable = discrete_stability(l, DT, "trapezoidal")
                ok_trap &= stable
    # closed-loop run at rated speed stays bounded for 10 s
    sc = Scenario(
        name="rated_speed",
        duration_s=10.0,
        plant=PlantSection(noise_sigma_pu=0.0),
        control=ControlSection(tau_ref=[(0.0, 0.2)], u_max_pu=1.5),
        events=[],
    )
    d = sc.to_dict()
    d["control"]["speed_ref"] = [[0.0, 1.0]]
    res = run(Scenario.from_dict(d))
    bounded = (
        np.abs(res.log["i_d"]).max() < 2.0
        and np.abs(res.log["i_q"]).max() < 2.0
        and np.abs(res.log["i_hat_d"]).max() < 2.0
        and np.abs(res.log["i_hat_q"]).max() < 2.0
    )
    ok = ok_re and ok_trap and bounded
    _report(
        4, ok,
        "continuous eigenvalues stable, trapezoidal |z|<1 on grid, "
        "10 s rated-speed run bounded",
    )


def test_criterion_05_convergence_reproduction():
    checks = []

    r = _run_preset("bench_psim_sga_noload").reports["psi_m"]
    checks.append(("sga flux no-load <= 4 s",
                   r.converged and r.convergence_time <= 4.0))
    checks.append(("sga flux no-load steady error <= 1%",
                   abs(r.steady_state_error) <= 0.01))

    r = _run_preset("bench_psim_gna_noload").reports["psi_m"]
    checks.append(("gna flux no-load <= 1 s",
                   r.converged and r.convergence_time <= 1.0))
    checks.append(("gna flux no-load overshoot in [3%, 12%]",
                   0.03 <= r.overshoot <= 0.12))

    for alg in ("sga", "gna"):
        r = _run_preset(f"bench_psim_{alg}_load").reports["psi_m"]
        checks.append((f"{alg} flux at 0.4 pu load <= 3 s",
                       r.converged and r.convergence_time <= 3.0))

    bounds = {
        ("sga", "n0"): 16.0, ("gna", "n0"): 16.0,
        ("sga", "n005"): 12.0, ("gna", "n005"): 8.0,
    }
    for (alg, pt), bound in bounds.items():
        r = _run_preset(f"bench_rs_{alg}_{pt}").reports["r_s"]
        checks.append((f"{alg} resistance {pt} <= {bound} s",
                       r.converged and r.convergence_time <= bound))

    # PhyInt converges on every flux preset point and trails SGA on the
    # resistance presets
    presets = preset_library()
    for panel in "abcd":
        sc = presets[f"fig7{panel}"]
        d = sc.to_dict()
        d["estimator"]["algorithm"] = "phyint"
        rep = run(Scenario.from_dict(d)).reports["psi_m"]
        checks.append((f"phyint converges on fig7{panel}", rep.converged))
    for pt in ("n0", "n005"):
        r_phy = _run_preset(f"bench_rs_phyint_{pt}").reports["r_s"]
        r_sga = _run_preset(f"bench_rs_sga_{pt}").reports["r_s"]
        checks.append((
            f"phyint slower than sga on resistance {pt}",
            r_phy.converged
            and r_phy.convergence_time > r_sga.convergence_time,
        ))

    failed = [name for name, ok in checks if not ok]
    _report(5, not failed, f"{len(checks)} convergence checks" +
            (f"; failed: {failed}" if failed else ""))


def test_criterion_06_scheduler_decoupling(base, params):
    # flux-only mismatch at n = 0.3: the resistance estimate must stay
    # bitwise constant; and conversely at n = 0.005
    d = {
        "name": "decouple_psi",
        "duration_s": 2.0,
        "plant": {"noise_sigma_pu": 0.003},
        "control": {"tau_ref": [[0.0, 0.4]], "speed_ref": [[0.0, 0.3]]},
        "estimator": {"theta0_psi_m": 0.9 * params.psi_m},
        "seed": 3,
    }
    res = run(Scenario.from_dict(d))
    rs_const = np.all(res.r_s_hat == res.r_s_hat[0])
    psi_moved = abs(res.psi_m_hat[-1] - res.psi_m_hat[0]) > 1e-3

    d2 = {
        "name": "decouple_rs",
        "duration_s": 2.0,
        "plant": {"noise_sigma_pu": 0.003},
        "control": {"tau_ref": [[0.0, 0.4]], "speed_ref": [[0.0, 0.005]]},
        "estimator": {"theta0_r_s": 0.9 * params.r_s},
        "seed": 3,
    }
    res2 = run(Scenario.from_dict(d2))
    psi_const = np.all(res2.psi_m_hat == res2.psi_m_hat[0])
    rs_moved = abs(res2.r_s_hat[-1] - res2.r_s_hat[0]) > 1e-4

    ok = rs_const and psi_moved and psi_const and rs_moved
    _report(6, ok, "row gating leaves the other estimate bitwise constant")


def test_criterion_07_gna_singularity_handling():
    res = _run_preset("bench_rs_gna_n0")
    rep = res.reports["r_s"]
    all_mpp = res.mpp_steps == res.total_steps
    det_below = np.all(res.log["detR"] < 1e-10)
    ok = all_mpp and det_below and rep.converged and rep.convergence_time <= 16.0
    _report(
        7, ok,
        f"pseudoinverse on {res.mpp_steps}/{res.total_steps} steps at standstill, "
        f"resistance converged in {rep.convergence_time:.2f} s",
    )


def test_criterion_08_phyint_sga_equivalence(params, known_x):
    gamma = 1e-4
    box = ParameterBox(psi_m_min=0.1, psi_m_max=2.0, r_s_min=0.0, r_s_max=0.5)
    worst_rs = 0.0

    def settled_per_gradient_gains(theta, n, i_hat):
        g = gradient_steady_state(theta, known_x, n, i_hat)
        hess = HessianState(
            rg_psi_d=g.psi_d ** 2, rg_psi_q=g.psi_q ** 2,
            rg_rs_d=g.rs_d ** 2, rg_rs_q=g.rs_q ** 2,
        )
        cfg = GainConfig(
            algorithm="sga", sga_r_mode="per_gradient",
            gamma_L_psi=gamma, gamma_L_rs=gamma, gamma_r=6.25e-4,
        )
        _, _, L = sga_update(theta, DqVector(0.0, 0.0), g, hess, cfg, box)
        return L, g

    cfg_phy = GainConfig(
        algorithm="phyint", gamma_L_psi=gamma, gamma_L_rs=gamma, gamma_r=6.25e-4
    )
    theta_n = ParameterVector(params.psi_m, params.r_s)
    for n, tau in ((0.005, 0.4), (0.008, 0.6), (-0.006, 0.3), (0.3, 0.4), (0.7, 0.2)):
        i_hat = DqVector(*mtpa_reference(tau, params))
        L_sga, _ = settled_per_gradient_gains(theta_n, n, i_hat)
        _, L_phy = phyint_update(
            theta_n, DqVector(0.0, 0.0), n, i_hat, known_x, cfg_phy, box
        )
        worst_rs = max(worst_rs, abs(L_sga.l21 - L_phy.l21), abs(L_sga.l22 - L_phy.l22))

    # vanishing-resistance point: all four gains coincide, the flux gain
    # reducing exactly to -gamma * x_d
    theta0 = ParameterVector(params.psi_m, 0.0)
    i_hat = DqVector(*mtpa_reference(0.4, params))
    L_sga, _ = settled_per_gradient_gains(theta0, 0.5, i_hat)
    _, L_phy = phyint_update(
        theta0, DqVector(0.0, 0.0), 0.5, i_hat, known_x, cfg_phy, box
    )
    worst_all = max(abs(a - b) for a, b in zip(L_sga, L_phy))
    ok = worst_rs <= 1e-9 and worst_all <= 1e-9
    _report(
        8, ok,
        f"per-gradient SGA vs PhyInt gains: resistance rows {worst_rs:.2e}, "
        f"full matrix at r_s=0 {worst_all:.2e}",
    )


def test_criterion_09_mtpa_optimality(params):
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 100:
        tau = float(rng.uniform(-1.0, 1.0))
        if abs(tau) < 1e-3:
            continue
        checked += 1
        i_d, i_q = mtpa_reference(tau, params)
        mag = math.hypot(i_d, i_q)
        beta = np.linspace(0.0, 2 * math.pi, 401)
        cand_d = mag * np.cos(beta)
        cand_q = mag * np.sin(beta)
        cand_tau = np.abs(
            params.psi_m * cand_q + (params.x_d - params.x_q) * cand_d * cand_q
        )
        worst = max(worst, float(cand_tau.max() - abs(tau)) / mag)
    _report(9, worst <= 1e-4, f"closed form within {worst:.2e} torque-per-ampere of 401-point sweep")


def test_criterion_10_noise_robustness(params):
    results = {}
    for alg in ("sga", "gna"):
        d = {
            "name": f"noise_{alg}",
            "duration_s": 60.0,
            "plant": {"noise_sigma_pu": 0.005},
            "control": {"tau_ref": [[0.0, 0.4]], "speed_ref": [[0.0, 0.3]]},
            "estimator": {
                "algorithm": alg,
                "gamma_L_psi": 3.25e-4,
                "gamma_r": 6.25e-4,
                "gamma_L_rs": 6.25e-5,
            },
            "events": [{"time_s": 1.0, "target": "psi_m", "factor": 0.92}],
            "seed": 17,
        }
        res = run(Scenario.from_dict(d))
        tail = res.psi_m_hat[res.t_full >= 20.0]
        results[alg] = float(np.std(tail)) / params.psi_m
    ok = all(v <= 0.01 for v in results.values())
    _report(
        10, ok,
        "60 s at 0.005 pu noise, flux estimate std "
        + ", ".join(f"{k}={v:.5f}" for k, v in results.items()),
    )
