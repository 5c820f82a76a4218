"""Field-oriented controller: MTPA reference currents, PI loops with
decoupling feedforward, voltage limiting, optional speed loop.

The controller sees only the estimated parameters; the plant's true values
never enter here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pu import DqVector, MachineParams, Positive, check_fields

SPEED_LOOP_BANDWIDTH_RAD_S = 40.0  # what tune_speed_loop sizes the speed PI for


class ControlError(ValueError):
    """Reference or controller configuration cannot be realized."""


@dataclass(frozen=True)
class PiState:
    """One PI channel: gains plus integrator state."""

    kp: float
    ti: Positive
    integrator: float = 0.0
    output_limit: float = float("inf")

    def __post_init__(self) -> None:
        check_fields(self, ControlError)


@dataclass(frozen=True)
class References:
    id_ref: float = 0.0
    iq_ref: float = 0.0


def mtpa_currents(
    tau_ref: float, psi_m: float, x_d: float, x_q: float
) -> tuple[float, float]:
    """Maximum-torque-per-ampere current references for a torque command.

    Closed-form i_d from the cube-root expression; i_q inverts the torque
    relation tau = i_q * (psi_m - (x_q - x_d) * i_d). For vanishing saliency
    the d-axis reference collapses to zero.
    """
    if psi_m <= 0.0:
        raise ControlError("MTPA needs a positive magnet flux estimate")
    dx = x_q - x_d
    if tau_ref == 0.0:
        return 0.0, 0.0
    if abs(dx) < 1e-6:
        return 0.0, tau_ref / psi_m
    radicand = (psi_m / 3.0) ** 3 + dx * dx * tau_ref * tau_ref / (3.0 * psi_m)
    id_ref = (psi_m / 3.0 - radicand ** (1.0 / 3.0)) / dx
    denom = psi_m - dx * id_ref
    if abs(denom) < 1e-9:
        raise ControlError("torque reference infeasible: i_q denominator ~ 0")
    return id_ref, tau_ref / denom


def mtpa_reference(tau_ref: float, theta_hat: MachineParams) -> tuple[float, float]:
    """:func:`mtpa_currents` for a parameter set."""
    return mtpa_currents(tau_ref, theta_hat.psi_m, theta_hat.x_d, theta_hat.x_q)


def limit_current(id_ref: float, iq_ref: float, i_max: float) -> tuple[float, float]:
    """Radially scale the reference into the current limit circle."""
    mag = math.hypot(id_ref, iq_ref)
    if mag <= i_max or mag == 0.0:
        return id_ref, iq_ref
    k = i_max / mag
    return id_ref * k, iq_ref * k


def pi_update(
    ref: float, meas: float, kp: float, ti: float, integrator: float,
    limit: float, dt: float,
) -> tuple[float, float]:
    """One PI update with conditional-integration anti-windup; returns the
    output and the new integrator.

    While the output is clamped and the error keeps pushing outward the
    integrator is frozen, so it never winds beyond the limit.
    """
    e = ref - meas
    raw = kp * e + integrator
    # min(max(raw, -limit), limit), spelled out: same result, no calls
    out = -limit if -limit > raw else raw
    if limit < out:
        out = limit
    if raw != out and e * out > 0.0:
        return out, integrator
    integ = integrator + kp * e * dt / ti
    integ = -limit if -limit > integ else integ
    if limit < integ:
        integ = limit
    return out, integ


class CurrentLoops:
    """Per-axis PI plus cross-coupling / back-EMF feedforward and the
    voltage limit, with both integrators held as floats.

    Feedforward uses the estimated parameters only:
      u_d += -n * x_q_hat * i_q
      u_q += +n * (x_d_hat * i_d + psi_m_hat)
    """

    __slots__ = (
        "kp_d", "ti_d", "integ_d", "lim_d", "kp_q", "ti_q", "integ_q", "lim_q",
        "x_d", "x_q", "dt", "u_max",
    )

    def __init__(
        self, state_d: PiState, state_q: PiState, x_d: float, x_q: float,
        dt: float, u_max: float,
    ) -> None:
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if not 0.0 < u_max < math.inf:
            raise ValueError(f"u_max must be positive and finite, got {u_max}")
        self.kp_d, self.ti_d = state_d.kp, state_d.ti
        self.integ_d, self.lim_d = state_d.integrator, state_d.output_limit
        self.kp_q, self.ti_q = state_q.kp, state_q.ti
        self.integ_q, self.lim_q = state_q.integrator, state_q.output_limit
        self.x_d, self.x_q, self.dt, self.u_max = x_d, x_q, dt, u_max

    def step(
        self, id_ref: float, iq_ref: float, i_d: float, i_q: float, n: float,
        psi_m: float,
    ) -> tuple[float, float]:
        """Voltage command for one sample; advances both integrators."""
        v_d, self.integ_d = pi_update(
            id_ref, i_d, self.kp_d, self.ti_d, self.integ_d, self.lim_d, self.dt
        )
        v_q, self.integ_q = pi_update(
            iq_ref, i_q, self.kp_q, self.ti_q, self.integ_q, self.lim_q, self.dt
        )
        u_d = v_d - n * self.x_q * i_q
        u_q = v_q + n * (self.x_d * i_d + psi_m)
        # the current limit's radial scaling, on the voltage circle
        return limit_current(u_d, u_q, self.u_max)

    def states(self) -> tuple[PiState, PiState]:
        return (
            PiState(self.kp_d, self.ti_d, self.integ_d, self.lim_d),
            PiState(self.kp_q, self.ti_q, self.integ_q, self.lim_q),
        )


def current_controller(
    refs: References,
    i_meas: DqVector,
    n: float,
    theta_hat: MachineParams,
    state_d: PiState,
    state_q: PiState,
    dt: float,
    u_max: float,
) -> tuple[DqVector, PiState, PiState]:
    """One :class:`CurrentLoops` step from object-level states."""
    loops = CurrentLoops(state_d, state_q, theta_hat.x_d, theta_hat.x_q, dt, u_max)
    u = loops.step(refs.id_ref, refs.iq_ref, i_meas.d, i_meas.q, n, theta_hat.psi_m)
    return (DqVector(*u), *loops.states())


def tune_current_loops(
    theta_hat: MachineParams,
    omega_n: float,
    t_samp: float,
    u_limit: float,
) -> tuple[PiState, PiState]:
    """Modulus-optimum style tuning with pole-zero cancellation.

    kp = x / (omega_n * 2 * T_eq) with T_eq = 2 * T_samp as the lumped
    control delay; ti cancels the axis time constant x / (r_s * omega_n).
    """
    t_eq = 2.0 * t_samp
    r = max(theta_hat.r_s, 1e-6)
    ti_d = min(theta_hat.x_d / (r * omega_n), 10.0)
    ti_q = min(theta_hat.x_q / (r * omega_n), 10.0)
    kp_d = theta_hat.x_d / (omega_n * 2.0 * t_eq)
    kp_q = theta_hat.x_q / (omega_n * 2.0 * t_eq)
    return (
        PiState(kp=kp_d, ti=ti_d, output_limit=u_limit),
        PiState(kp=kp_q, ti=ti_q, output_limit=u_limit),
    )


def tune_speed_loop(inertia_H: float, tau_limit: float) -> PiState:
    """Speed PI sized from the inertia constant; ti a decade below kp action."""
    kp = 2.0 * inertia_H * SPEED_LOOP_BANDWIDTH_RAD_S
    ti = 10.0 / SPEED_LOOP_BANDWIDTH_RAD_S
    return PiState(kp=kp, ti=ti, output_limit=tau_limit)
