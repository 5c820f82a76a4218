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
from .control import limit_current, mtpa_currents
from .control import pi_update as speed_controller
from .plant import Trapezoid, speed_step, torque
from .scenario import EVENT_TOL_S, Scenario, schedule_segments

# Entry points of the control, plant and scenario layers that the loop below
# reaches through their float kernels instead, or that Scenario.validate
# calls while it builds the run's start. They stay attributes of this module
# because the benchmark's tracer (perfbench/tracing.py) wraps them here by
# name, as it wraps speed_controller and torque, which the loop calls here.
from .control import current_controller, mtpa_reference  # noqa: F401
from .plant import integrate_electrical  # noqa: F401
from .scenario import schedule_value  # noqa: F401

CONVERGENCE_BAND = 0.01  # a converged estimate stays within 1 percent of its reference


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
    overshoot: Optional[float]
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
    t0: float = 0.0,
    step_size: Optional[float] = None,
) -> ConvergenceReport:
    """Convergence time, steady-state error and overshoot of a trajectory.

    convergence_time: first instant (measured from t0) after which the
    trajectory stays inside +-CONVERGENCE_BAND*|reference| until the end.
    steady_state_error: mean relative error over the final 10 percent, None at reference 0.
    overshoot: largest excursion past the reference, in the direction of
    travel, relative to the step size.
    A relative value that overflows is None, as JSON has no infinity.
    """
    if len(t) == 0:
        raise ValueError("empty trajectory")
    mask = t >= t0 - EVENT_TOL_S  # the samples a step at t0 applies to
    if not mask.any():
        raise ValueError(f"no sample at or after t0 = {t0}")
    tt = t[mask]
    traj = trajectory[mask]
    tol = CONVERGENCE_BAND * abs(reference)
    inside = np.abs(traj - reference) <= tol
    if inside[-1]:
        last_out = np.where(~inside)[0]
        first_idx = 0 if len(last_out) == 0 else last_out[-1] + 1
        converged = True
        conv_time = max(0.0, float(tt[first_idx] - t0))
    else:
        converged = False
        conv_time = None

    tail = max(1, int(0.1 * len(trajectory)))
    # Python float division: an overflow gives inf with no numpy warning
    sse = float(np.mean(trajectory[-tail:] - reference)) / float(reference) if reference else None

    if step_size is None:
        step_size = abs(traj[0] - reference)
    if step_size > 0.0:
        direction = math.copysign(1.0, reference - traj[0])
        excursion = np.max((traj - reference) * direction)
        overshoot = max(0.0, float(excursion)) / float(step_size)
    else:
        overshoot = 0.0
    return ConvergenceReport(
        converged=converged,
        convergence_time=conv_time,
        steady_state_error=_finite(sse),
        overshoot=_finite(overshoot),
        band=CONVERGENCE_BAND,
    )


def _finite(x: Optional[float]) -> Optional[float]:
    return x if x is not None and math.isfinite(x) else None


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
    start = scenario.validate()
    dt = scenario.t_samp_s
    n_steps = start.n_steps
    ctl = scenario.control
    inertia_H = scenario.plant.inertia_H_s
    prescribed = scenario.plant.speed_mode == "prescribed"
    torque_mode = ctl.mode == "torque"
    substeps = scenario.plant.substeps
    x_d, x_q = start.estimator.known_x
    speed_pi = start.speed_pi
    kp_n, ti_n, lim_n = speed_pi.kp, speed_pi.ti, speed_pi.output_limit
    integ_n = speed_pi.integrator

    rng = np.random.default_rng(scenario.seed)
    sigma = scenario.plant.noise_sigma_pu
    # per-step draw order keeps realizations prefix-stable across durations;
    # the flat view yields step k's (d, q) pair at 2k, 2k + 1 as floats
    noise = (
        memoryview(rng.standard_normal((n_steps, 2)) * sigma).cast("B").cast("d")
        if sigma > 0.0 else None
    )

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
    psi_hat_buf, rs_hat_buf = memoryview(psi_hat_full), memoryview(rs_hat_full)

    segments = schedule_segments(start.schedule, dt, n_steps)
    estimator_step = start.estimator.step
    loops_step = start.loops.step
    plant = Trapezoid(start.omega_n, dt / substeps)
    plant_set = plant.set
    plant_drive = plant.drive
    isfinite = math.isfinite
    i_max = ctl.i_max_pu
    plant_substeps = range(substeps)

    u_applied = start.u0
    n_applied = start.n0
    n_plant = start.n0
    i_d, i_q = start.i0
    tau_prev = psi_prev = math.nan  # NaN never compares equal: the first sample computes
    mpp_steps = 0
    log_row = 0
    k = 0
    try:
        # steps k0 <= k < k1 read one row of scenario.INPUTS: true machine, references, load
        for k0, k1, (p_xd, p_xq, p_rs, p_psi, n_ref, tau_ref, load) in segments:
            if prescribed:
                n_plant = n_ref
                plant_set(p_rs, p_xd, p_xq, n_ref)
            psi_true_full[k0:k1] = p_psi
            rs_true_full[k0:k1] = p_rs
            for k in range(k0, k1):
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
                    tau_cmd = tau_ref
                else:
                    tau_cmd, integ_n = speed_controller(
                        n_ref, n_now, kp_n, ti_n, integ_n, lim_n, dt
                    )
                # equal inputs give equal references; both signed zeros give (0.0, 0.0)
                if tau_cmd != tau_prev or psi != psi_prev:
                    tau_prev, psi_prev = tau_cmd, psi
                    id_ref, iq_ref = limit_current(*mtpa_currents(tau_cmd, psi, x_d, x_q), i_max)
                u_cmd = loops_step(id_ref, iq_ref, im_d, im_q, n_now, psi)
                u_d, u_q = u_cmd

                if not prescribed:
                    plant_set(p_rs, p_xd, p_xq, n_now)
                nd, nq = i_d, i_q
                for _ in plant_substeps:
                    nd, nq = plant_drive(nd, nq, u_d, u_q, p_psi)
                if not prescribed:
                    tau_e = torque(p_psi, p_xd, p_xq, nd, nq)
                    n_plant = speed_step(n_plant, tau_e, load, inertia_H, dt)

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
                if k % dec == 0:
                    pack_log_row(
                        log_bytes, log_row * row_bytes,
                        k * dt, n_now, im_d, im_q, ih_d, ih_q, eps_d, eps_q,
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
        ev_times = [ev.time_s for ev in scenario.events if ev.target == target]
        t0 = max(ev_times) if ev_times else 0.0
        reference = float(true[-1])
        if ev_times:
            # the last sample before the step applies, by the schedule's EVENT_TOL_S rule
            k0 = np.searchsorted(t_full, t0 - EVENT_TOL_S)
            before = float(true[k0 - 1]) if k0 > 0 else float(true[0])
            step_size = abs(reference - before)
        else:
            step_size = None
        reports[target] = convergence_metrics(
            t_full, hat, reference, t0=t0, step_size=step_size
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
