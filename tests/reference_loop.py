"""A naive reference of :func:`rpemsim.runner.run`'s closed loop, written
from the object-level functions alone, for tests that check ``run()``
against it bit for bit.

Each sample it reads the inputs at k * dt with ``schedule_value``, steps
the estimator, runs the speed PI in speed mode, recomputes the MTPA
reference and its current limit, steps ``current_controller`` on
``PiState``s, advances the plant by one ``integrate_electrical`` on a fresh
``PlantState`` and, at dynamic speed, steps the speed by ``torque``
and ``speed_step``. It keeps no segment, no cached reference and no bound
kernel, so a run that agrees with it does not depend on any of them.

pytest does not collect this module; tests import it by name, as in
``from reference_loop import reference_run``.
"""

import math

import numpy as np

from rpemsim.control import (
    ControlError, References, current_controller, limit_current, mtpa_reference, pi_update,
)
from rpemsim.plant import PlantState, integrate_electrical, speed_step, torque
from rpemsim.pu import DqVector, MachineParams
from rpemsim.runner import LOG_COLUMNS, RunResult, _diverged, convergence_metrics
from rpemsim.scenario import EVENT_TOL_S, Scenario, schedule_value


def reference_run(scenario: Scenario) -> RunResult:
    """The run of ``scenario``, one object-level call at a time."""
    start = scenario.validate()
    dt, n_steps = scenario.t_samp_s, start.n_steps
    ctl, plant = scenario.control, scenario.plant
    estimator = start.estimator
    x_d, x_q = estimator.known_x
    pi_d, pi_q = start.loops.states()
    integ_n = start.speed_pi.integrator
    noise = np.random.default_rng(scenario.seed).standard_normal((n_steps, 2))

    u_applied, n_applied, n_plant = start.u0, start.n0, start.n0
    i = start.i0
    psi_hat, rs_hat, psi_true, rs_true = (np.empty(n_steps) for _ in range(4))
    rows, mpp_steps = [], 0
    for k in range(n_steps):
        # a row of scenario.INPUTS: the true machine in MachineParams order,
        # then the references and the load
        row = schedule_value(start.schedule, k * dt)
        true, (speed_ref, tau_ref, load) = MachineParams(*row[:4]), row[4:]
        if plant.speed_mode == "prescribed":
            n_plant = speed_ref
        n_now = n_plant
        i_meas = i
        if plant.noise_sigma_pu > 0.0:
            sigma = plant.noise_sigma_pu
            i_meas = DqVector(i.d + float(noise[k, 0] * sigma), i.q + float(noise[k, 1] * sigma))
        try:
            tele = estimator.step(u_applied, n_applied, i_meas)
            eps_d, eps_q, ih_d, ih_q, psi, rs, l11, l12, l21, l22, r_sc, det_r, mpp = tele
            mpp_steps += mpp
            if ctl.mode == "torque":
                tau_cmd = tau_ref
            else:
                tau_cmd, integ_n = pi_update(
                    speed_ref, n_now, start.speed_pi.kp, start.speed_pi.ti, integ_n,
                    start.speed_pi.output_limit, dt,
                )
            model = MachineParams(x_d, x_q, rs, psi)
            refs = References(*limit_current(*mtpa_reference(tau_cmd, model), ctl.i_max_pu))
            u, pi_d, pi_q = current_controller(
                refs, i_meas, n_now, model, pi_d, pi_q, dt, ctl.u_max_pu
            )
            i_new = integrate_electrical(PlantState(i=i, n=n_now, params=true), u, dt,
                                         start.omega_n).i
            if plant.speed_mode == "dynamic":
                tau_e = torque(true.psi_m, true.x_d, true.x_q, *i_new)
                n_plant = speed_step(n_plant, tau_e, load, plant.inertia_H_s, dt)
        except (ControlError, OverflowError, ZeroDivisionError) as exc:
            detail = f"{type(exc).__name__}: {exc.args[-1] if exc.args else exc}"
            raise _diverged(k, dt, detail, tuple(i), psi_hat, rs_hat) from exc
        for name, value in (
            ("i_d", i_new.d), ("i_q", i_new.q), ("n", n_plant), ("psi_m_hat", psi),
            ("r_s_hat", rs), ("u_d", u.d), ("u_q", u.q),
        ):
            if not math.isfinite(value):
                raise _diverged(k, dt, f"{name} = {value}", tuple(i), psi_hat, rs_hat)
        i = i_new
        psi_hat[k], rs_hat[k] = psi, rs
        psi_true[k], rs_true[k] = true.psi_m, true.r_s
        if k % scenario.log_decimation == 0:
            rows.append((
                k * dt, n_now, *i_meas, ih_d, ih_q, eps_d, eps_q, psi, rs,
                true.psi_m, true.r_s, l11, l12, l21, l22, r_sc, det_r,
            ))
        u_applied, n_applied = u, n_now

    t_full = np.array([k * dt for k in range(n_steps)])
    reports = {}
    for target, hat, true_values in (("psi_m", psi_hat, psi_true), ("r_s", rs_hat, rs_true)):
        times = [ev.time_s for ev in scenario.events if ev.target == target]
        reference, t0, step_size = float(true_values[-1]), 0.0, None
        if times:
            t0 = max(times)
            # the first sample the last step applies to, by the schedule's rule
            k0 = next(k for k in range(n_steps) if t0 <= k * dt + EVENT_TOL_S)
            step_size = abs(reference - float(true_values[max(k0 - 1, 0)]))
        reports[target] = convergence_metrics(t_full, hat, reference, t0, step_size)
    log = np.array(rows).reshape(len(rows), len(LOG_COLUMNS))
    return RunResult(
        scenario_name=scenario.name,
        log={c: log[:, j].copy() for j, c in enumerate(LOG_COLUMNS)},
        t_full=t_full, psi_m_hat=psi_hat, r_s_hat=rs_hat,
        psi_m_true=psi_true, r_s_true=rs_true,
        reports=reports, total_steps=n_steps, mpp_steps=mpp_steps,
    )
