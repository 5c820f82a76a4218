"""Closed-loop scenario execution: plant + controller + estimator at a
fixed sampling period, with deterministic logging and convergence metrics.

The loop applies the voltage commanded from the sample-k measurement over
the following period (one-sample digital latency); the estimator consumes
exactly the voltage and speed that drove the plant over the interval it
predicts, so the prediction error carries parameter information only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import write_csv_table
from .control import (
    CurrentLoops,
    PiState,
    limit_current,
    mtpa_currents,
    mtpa_reference,
    pi_update,
    tune_current_loops,
    tune_speed_loop,
)
from .estimator import RpemEstimator
from .plant import (
    Trapezoid,
    apply_param_event,
    electromagnetic_torque,
    speed_step,
    steady_state_voltage,
)
from .pu import DqVector
from .scenario import Scenario, ScheduleCursor, schedule_value

# Entry points of the control and plant layers that the loop below reaches
# through their float kernels instead. They stay attributes of this module
# because the benchmark's tracer (perfbench/tracing.py) wraps them here by
# name.
from .control import current_controller, speed_controller  # noqa: F401
from .plant import integrate_electrical, torque  # noqa: F401


class SimulationDiverged(RuntimeError):
    """A state variable left the finite range; diagnostic carries the time
    and last valid sample."""

    def __init__(self, t: float, detail: str):
        super().__init__(f"simulation diverged at t={t:.6f}s: {detail}")
        self.t = t
        self.detail = detail


@dataclass
class ConvergenceReport:
    """Post-hoc convergence summary for one estimated parameter."""

    converged: bool
    convergence_time: Optional[float]
    steady_state_error: Optional[float]
    overshoot: float
    band: float


LOG_COLUMNS = [
    "t", "n", "i_d", "i_q", "i_hat_d", "i_hat_q", "eps_d", "eps_q",
    "psi_m_hat", "r_s_hat", "psi_m_true", "r_s_true",
    "L11", "L12", "L21", "L22", "r", "detR",
]


@dataclass
class RunResult:
    """Decimated log table plus full-rate estimate trajectories and the
    per-parameter convergence reports."""

    scenario_name: str
    log: dict[str, np.ndarray]            # decimated, LOG_COLUMNS keys
    t_full: np.ndarray                    # full rate, for metrics
    psi_m_hat: np.ndarray
    r_s_hat: np.ndarray
    psi_m_true: np.ndarray
    r_s_true: np.ndarray
    reports: dict[str, ConvergenceReport]
    total_steps: int
    mpp_steps: int

    def write_csv(self, path: str) -> None:
        write_csv_table(path, LOG_COLUMNS, np.column_stack([self.log[c] for c in LOG_COLUMNS]))


def convergence_metrics(
    t: np.ndarray,
    trajectory: np.ndarray,
    reference: float,
    band: float = 0.01,
    t0: float = 0.0,
    step_size: Optional[float] = None,
) -> ConvergenceReport:
    """Convergence time, steady-state error and overshoot of a trajectory.

    convergence_time: first instant (measured from t0) after which the
    trajectory stays inside +-band*|reference| until the end.
    steady_state_error: mean relative error over the final 10 percent, None at reference 0.
    overshoot: largest excursion past the reference, in the direction of
    travel, relative to the step size.
    """
    if len(t) == 0:
        raise ValueError("empty trajectory")
    if band <= 0.0:
        raise ValueError("band must be positive")
    mask = t >= t0
    tt = t[mask]
    traj = trajectory[mask]
    tol = band * abs(reference)
    inside = np.abs(traj - reference) <= tol
    if inside[-1]:
        last_out = np.where(~inside)[0]
        first_idx = 0 if len(last_out) == 0 else last_out[-1] + 1
        converged = True
        conv_time = float(tt[first_idx] - t0)
    else:
        converged = False
        conv_time = None

    tail = max(1, int(0.1 * len(trajectory)))
    sse = float(np.mean(trajectory[-tail:] - reference) / reference) if reference else None

    if step_size is None:
        step_size = abs(traj[0] - reference)
    if step_size > 0.0:
        direction = math.copysign(1.0, reference - traj[0])
        excursion = np.max((traj - reference) * direction)
        overshoot = float(max(0.0, excursion) / step_size)
    else:
        overshoot = 0.0
    return ConvergenceReport(
        converged=converged,
        convergence_time=conv_time,
        steady_state_error=sse,
        overshoot=overshoot,
        band=band,
    )


def _diverged(
    k: int, dt: float, detail: str, i_prev: tuple[float, float],
    psi_hat: np.ndarray, r_s_hat: np.ndarray,
) -> SimulationDiverged:
    """The divergence diagnostic of step k; the last valid sample is the
    state at the end of step k - 1."""
    if k == 0:
        last = "(initial state)"
    else:
        last = (
            f"(t={(k - 1) * dt:.6f}, i=({i_prev[0]:.6g}, {i_prev[1]:.6g}), "
            f"theta=({psi_hat[k - 1]:.6g}, {r_s_hat[k - 1]:.6g}))"
        )
    return SimulationDiverged(k * dt, f"{detail} at step {k}; last valid sample {last}")


def run(scenario: Scenario) -> RunResult:
    """Execute one scenario; deterministic for a given seed."""
    base, params0 = scenario.validate()
    omega_n = base.omega_n
    dt = scenario.t_samp_s
    n_steps = int(round(scenario.duration_s / dt))
    cfg = scenario.estimator.gain_config()
    ctl = scenario.control

    tau_sched = ctl.tau_ref
    speed_sched = scenario.speed_ref_schedule()
    load_sched = scenario.load_torque_schedule()
    inertia_H = scenario.plant.inertia_H_s
    prescribed = scenario.plant.speed_mode == "prescribed"
    torque_mode = ctl.mode == "torque"
    substeps = scenario.plant.substeps

    # initial operating point: settled at the t=0 references
    n0 = schedule_value(speed_sched, 0.0)
    tau0 = (
        schedule_value(tau_sched, 0.0)
        if torque_mode
        else schedule_value(load_sched, 0.0)
    )
    theta0 = scenario.initial_theta(params0)
    box = scenario.parameter_box(params0)
    x_d, x_q = known_x = (params0.x_d, params0.x_q)
    theta0_params = scenario.initial_model(params0)
    id0, iq0 = limit_current(*mtpa_reference(tau0, theta0_params), ctl.i_max_pu)
    i0 = DqVector(id0, iq0)
    u0 = steady_state_voltage(params0, i0, n0)

    estimator = RpemEstimator(
        cfg=cfg,
        theta0=theta0,
        box=box,
        known_x=known_x,
        omega_n=omega_n,
        t_samp=dt,
        i_hat0=i0,
        n0=n0,
    )

    pi_d, pi_q = tune_current_loops(theta0_params, omega_n, dt, ctl.u_max_pu)
    if ctl.kp_d is not None or ctl.ti_d is not None:
        pi_d = PiState(
            kp=ctl.kp_d if ctl.kp_d is not None else pi_d.kp,
            ti=ctl.ti_d if ctl.ti_d is not None else pi_d.ti,
            output_limit=pi_d.output_limit,
        )
    if ctl.kp_q is not None or ctl.ti_q is not None:
        pi_q = PiState(
            kp=ctl.kp_q if ctl.kp_q is not None else pi_q.kp,
            ti=ctl.ti_q if ctl.ti_q is not None else pi_q.ti,
            output_limit=pi_q.output_limit,
        )
    # preload integrators so the loop starts in steady state
    ff_d0 = -n0 * theta0_params.x_q * i0.q
    ff_q0 = n0 * (theta0_params.x_d * i0.d + theta0_params.psi_m)
    loops = CurrentLoops(
        PiState(pi_d.kp, pi_d.ti, u0.d - ff_d0, pi_d.output_limit),
        PiState(pi_q.kp, pi_q.ti, u0.q - ff_q0, pi_q.output_limit),
        theta0_params.x_d, theta0_params.x_q, dt, ctl.u_max_pu,
    )
    pi_n = tune_speed_loop(inertia_H, ctl.tau_max_pu)
    kp_n, ti_n, lim_n, integ_n = pi_n.kp, pi_n.ti, pi_n.output_limit, tau0

    rng = np.random.default_rng(scenario.seed)
    sigma = scenario.plant.noise_sigma_pu
    # per-step draw order keeps realizations prefix-stable across durations;
    # the flat view yields step k's (d, q) pair at 2k, 2k + 1 as floats
    noise = (
        memoryview(rng.standard_normal((n_steps, 2)) * sigma).cast("B").cast("d")
        if sigma > 0.0 else None
    )

    events = sorted(scenario.parameter_events(), key=lambda e: e.time_s)
    event_times = [ev.time_s for ev in events] + [math.inf]
    ev_idx = 0
    plant_params = params0
    p_psi, p_rs, p_xd, p_xq = params0.psi_m, params0.r_s, params0.x_d, params0.x_q

    dec = scenario.log_decimation
    n_log = (n_steps + dec - 1) // dec
    log_rows = np.empty((n_log, len(LOG_COLUMNS)))
    pack_log_row = struct.Struct(f"{len(LOG_COLUMNS)}d").pack_into
    log_bytes = memoryview(log_rows).cast("B")
    row_bytes = log_rows.itemsize * len(LOG_COLUMNS)
    psi_hat_full = np.empty(n_steps)
    rs_hat_full = np.empty(n_steps)
    psi_true_full = np.empty(n_steps)
    rs_true_full = np.empty(n_steps)
    psi_hat_buf, rs_hat_buf, psi_true_buf, rs_true_buf = (
        memoryview(a) for a in (psi_hat_full, rs_hat_full, psi_true_full, rs_true_full)
    )

    speed_at = ScheduleCursor(speed_sched).at
    tau_at = ScheduleCursor(tau_sched).at
    load_at = ScheduleCursor(load_sched).at
    estimator_step = estimator.step
    loops_step = loops.step
    plant = Trapezoid(omega_n, dt / substeps)
    plant_set = plant.set
    plant_drive = plant.drive
    isfinite = math.isfinite
    i_max = ctl.i_max_pu

    u_applied = (u0.d, u0.q)
    n_applied = n0
    n_plant = n0
    i_d, i_q = i0
    mpp_steps = 0
    log_row = 0
    k = 0
    try:
        for k in range(n_steps):
            t = k * dt
            while event_times[ev_idx] <= t:
                plant_params = apply_param_event(plant_params, events[ev_idx])
                p_psi, p_rs = plant_params.psi_m, plant_params.r_s
                p_xd, p_xq = plant_params.x_d, plant_params.x_q
                ev_idx += 1

            if prescribed:
                n_plant = speed_at(t)
            n_now = n_plant

            if noise is not None:
                im_d, im_q = i_d + noise[2 * k], i_q + noise[2 * k + 1]
            else:
                im_d, im_q = i_d, i_q

            tele = estimator_step(u_applied, n_applied, (im_d, im_q))
            eps_d, eps_q, ih_d, ih_q, psi, rs, l11, l12, l21, l22, r_sc, det_r, mpp = tele
            if mpp:
                mpp_steps += 1

            if torque_mode:
                tau_cmd = tau_at(t)
            else:
                tau_cmd, integ_n = pi_update(
                    speed_at(t), n_now, kp_n, ti_n, integ_n, lim_n, dt
                )
            id_ref, iq_ref = limit_current(*mtpa_currents(tau_cmd, psi, x_d, x_q), i_max)
            u_cmd = loops_step(id_ref, iq_ref, im_d, im_q, n_now, psi)
            u_d, u_q = u_cmd

            plant_set(p_rs, p_xd, p_xq, n_now)
            nd, nq = i_d, i_q
            for _ in range(substeps):
                nd, nq = plant_drive(nd, nq, u_d, u_q, p_psi)
            if not prescribed:
                n_plant = speed_step(
                    n_plant, electromagnetic_torque(p_psi, p_xd, p_xq, nd, nq),
                    load_at(t), inertia_H, dt,
                )

            if not isfinite(nd + nq + n_plant + psi + rs + u_d + u_q):
                for name, value in (
                    ("i_d", nd), ("i_q", nq), ("n", n_plant), ("psi_m_hat", psi),
                    ("r_s_hat", rs), ("u_d", u_d), ("u_q", u_q),
                ):
                    if not isfinite(value):
                        raise _diverged(
                            k, dt, f"{name} = {value}", (i_d, i_q),
                            psi_hat_full, rs_hat_full,
                        )
            i_d, i_q = nd, nq

            psi_hat_buf[k] = psi
            rs_hat_buf[k] = rs
            psi_true_buf[k] = p_psi
            rs_true_buf[k] = p_rs
            if k % dec == 0:
                pack_log_row(
                    log_bytes, log_row * row_bytes,
                    t, n_now, im_d, im_q, ih_d, ih_q, eps_d, eps_q,
                    psi, rs, p_psi, p_rs, l11, l12, l21, l22, r_sc, det_r,
                )
                log_row += 1

            u_applied = u_cmd
            n_applied = n_now
    except (OverflowError, ZeroDivisionError) as exc:
        detail = f"{type(exc).__name__}: {exc.args[-1] if exc.args else exc}"
        raise _diverged(
            k, dt, detail, (i_d, i_q), psi_hat_full, rs_hat_full
        ) from exc

    # k * dt for every step, as the loop computed it
    t_full = np.arange(n_steps) * dt
    reports: dict[str, ConvergenceReport] = {}
    for target, hat, true in (
        ("psi_m", psi_hat_full, psi_true_full),
        ("r_s", rs_hat_full, rs_true_full),
    ):
        ev_times = [
            ev.time_s for ev in scenario.parameter_events() if ev.target == target
        ]
        t0 = max(ev_times) if ev_times else 0.0
        reference = float(true[-1])
        if ev_times:
            before = float(true[np.searchsorted(t_full, t0) - 1]) if t0 > 0 else float(true[0])
            step_size = abs(reference - before)
        else:
            step_size = None
        reports[target] = convergence_metrics(
            t_full, hat, reference, band=0.01, t0=t0, step_size=step_size
        )

    return RunResult(
        scenario_name=scenario.name,
        log={c: log_rows[:log_row, j].copy() for j, c in enumerate(LOG_COLUMNS)},
        t_full=t_full,
        psi_m_hat=psi_hat_full,
        r_s_hat=rs_hat_full,
        psi_m_true=psi_true_full,
        r_s_true=rs_true_full,
        reports=reports,
        total_steps=n_steps,
        mpp_steps=mpp_steps,
    )
