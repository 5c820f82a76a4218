"""Offline analytical surfaces: eigenvalues and time constants, discrete
stability, steady-state error sensitivities, gradient and Hessian maps
over the 4-quadrant speed-torque plane.

Grid cells are loaded with MTPA currents at the cell torque; cells whose
MTPA reference, current magnitude or steady-state voltage is infeasible
are marked NaN (absent, not zero).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .control import ControlError, mtpa_reference
from .estimator import ParameterVector, gradient_steady_state
from .plant import steady_state_voltage
from .pu import DqVector, MachineParams


class EigenPair(NamedTuple):
    lambda1: complex
    lambda2: complex


def time_constants(
    theta_hat: ParameterVector, known_x: tuple[float, float], omega_n: float
) -> tuple[float, float]:
    """d and q axis time constants T = x / (r_s * omega_n), seconds."""
    if theta_hat.r_s <= 0.0:
        raise ValueError("time constants need r_s > 0")
    return (
        known_x[0] / (theta_hat.r_s * omega_n),
        known_x[1] / (theta_hat.r_s * omega_n),
    )


def eigenvalues(
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    n: float,
    omega_n: float,
) -> EigenPair:
    """Closed-form eigenvalues of the predictor dynamics at speed n.

    lambda = -(1/T_d + 1/T_q)/2 +- sqrt(((1/T_d + 1/T_q)/2)^2
             - (1/(T_d*T_q) + (omega_n*n)^2))
    """
    t_d, t_q = time_constants(theta_hat, known_x, omega_n)
    a = 0.5 * (1.0 / t_d + 1.0 / t_q)
    disc = a * a - (1.0 / (t_d * t_q) + (omega_n * n) ** 2)
    if disc >= 0.0:
        s = math.sqrt(disc)
        return EigenPair(complex(-a + s, 0.0), complex(-a - s, 0.0))
    s = math.sqrt(-disc)
    return EigenPair(complex(-a, s), complex(-a, -s))


def system_matrix(
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    n: float,
    omega_n: float,
) -> np.ndarray:
    """State matrix of the current dynamics, for numeric cross-checks."""
    x_d, x_q = known_x
    r = theta_hat.r_s
    return np.array(
        [
            [-r * omega_n / x_d, n * omega_n * x_q / x_d],
            [-n * omega_n * x_d / x_q, -r * omega_n / x_q],
        ]
    )


def discrete_stability(
    lam: complex, dt: float, method: str
) -> tuple[complex, bool]:
    """Map a continuous eigenvalue through one fixed integration step.

    explicit_euler: z = 1 + lam*dt
    trapezoidal:    z = (1 + lam*dt/2) / (1 - lam*dt/2)
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method == "explicit_euler":
        z = 1.0 + lam * dt
    elif method == "trapezoidal":
        z = (1.0 + lam * dt / 2.0) / (1.0 - lam * dt / 2.0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return z, abs(z) < 1.0


def steady_state_error(
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    n: float,
    i: DqVector,
    delta_psi_m: float = 0.0,
    delta_r_s: float = 0.0,
    delta_x_d: float = 0.0,
    delta_x_q: float = 0.0,
) -> DqVector:
    """Closed-form steady-state prediction error for parameter mismatches.

    deltas are physical minus model values; i is the measured operating
    current. All four contributions share D = r_s^2 + n^2 * x_d * x_q.
    """
    x_d, x_q = known_x
    r = theta_hat.r_s
    D = r * r + n * n * x_d * x_q
    eps_d = (
        -(n * n * x_q / D) * delta_psi_m
        - ((r * i.d + n * x_q * i.q) / D) * delta_r_s
        - (n * n * x_q * i.d / D) * delta_x_d
        + (n * r * i.q / D) * delta_x_q
    )
    eps_q = (
        -(n * r / D) * delta_psi_m
        - ((r * i.q - n * x_d * i.d) / D) * delta_r_s
        - (n * r * i.d / D) * delta_x_d
        - (n * n * x_d * i.q / D) * delta_x_q
    )
    return DqVector(eps_d, eps_q)


@dataclass(frozen=True)
class OperatingGrid:
    """Speed-torque evaluation grid, strictly monotone axes."""

    speed_axis: np.ndarray = field(
        default_factory=lambda: np.linspace(-1.0, 1.0, 81)
    )
    torque_axis: np.ndarray = field(
        default_factory=lambda: np.linspace(-1.0, 1.0, 81)
    )

    def __post_init__(self) -> None:
        for axis in (self.speed_axis, self.torque_axis):
            if len(axis) < 2 or not np.all(np.diff(axis) > 0):
                raise ValueError("grid axes must be strictly increasing")


@dataclass
class MapTables:
    """All analytical surfaces over one grid; entries NaN where the cell
    operating point is infeasible."""

    grid: OperatingGrid
    i_d: np.ndarray
    i_q: np.ndarray
    eps_d: np.ndarray
    eps_q: np.ndarray
    psi11: np.ndarray
    psi12: np.ndarray
    psi21: np.ndarray
    psi22: np.ndarray
    r_scalar: np.ndarray
    det_R: np.ndarray
    re_l1: np.ndarray
    im_l1: np.ndarray
    re_l2: np.ndarray
    im_l2: np.ndarray
    z_euler_mag: np.ndarray
    z_trap_mag: np.ndarray


def cell_currents(
    params: MachineParams, tau: float, i_max: float
) -> DqVector | None:
    """MTPA loading for one grid cell; None if infeasible."""
    try:
        i_d, i_q = mtpa_reference(tau, params)
    except ControlError:
        return None
    if math.hypot(i_d, i_q) > i_max:
        return None
    return DqVector(i_d, i_q)


def evaluate_maps(
    grid: OperatingGrid,
    params: MachineParams,
    omega_n: float,
    deltas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    dt: float = 125e-6,
    i_max: float = 1.2,
    u_max: float = 1.5,
) -> MapTables:
    """Evaluate every analytical surface on the grid.

    deltas = (delta_psi_m, delta_r_s, delta_x_d, delta_x_q) feed the
    sensitivity surfaces. Evaluation is cell-independent and deterministic,
    any traversal order produces identical tables.
    """
    theta = ParameterVector(psi_m=params.psi_m, r_s=params.r_s)
    known_x = (params.x_d, params.x_q)
    ns = len(grid.speed_axis)
    nt = len(grid.torque_axis)
    shape = (ns, nt)
    out = {
        name: np.full(shape, np.nan)
        for name in (
            "i_d", "i_q", "eps_d", "eps_q", "psi11", "psi12", "psi21", "psi22",
            "r_scalar", "det_R", "re_l1", "im_l1", "re_l2", "im_l2",
            "z_euler_mag", "z_trap_mag",
        )
    }
    d_psi, d_rs, d_xd, d_xq = deltas
    for si, n in enumerate(grid.speed_axis):
        lam = eigenvalues(theta, known_x, float(n), omega_n)
        ze = max(
            abs(discrete_stability(lam.lambda1, dt, "explicit_euler")[0]),
            abs(discrete_stability(lam.lambda2, dt, "explicit_euler")[0]),
        )
        zt = max(
            abs(discrete_stability(lam.lambda1, dt, "trapezoidal")[0]),
            abs(discrete_stability(lam.lambda2, dt, "trapezoidal")[0]),
        )
        for ti, tau in enumerate(grid.torque_axis):
            i = cell_currents(params, float(tau), i_max)
            if i is None:
                continue
            u = steady_state_voltage(params, i, float(n))
            if math.hypot(u.d, u.q) > u_max:
                continue
            eps = steady_state_error(
                theta, known_x, float(n), i, d_psi, d_rs, d_xd, d_xq
            )
            g = gradient_steady_state(theta, known_x, float(n), i)
            out["i_d"][si, ti] = i.d
            out["i_q"][si, ti] = i.q
            out["eps_d"][si, ti] = eps.d
            out["eps_q"][si, ti] = eps.q
            out["psi11"][si, ti] = g.psi_d
            out["psi12"][si, ti] = g.psi_q
            out["psi21"][si, ti] = g.rs_d
            out["psi22"][si, ti] = g.rs_q
            out["r_scalar"][si, ti] = (
                g.psi_d**2 + g.psi_q**2 + g.rs_d**2 + g.rs_q**2
            )
            out["det_R"][si, ti] = (g.psi_d * g.rs_q - g.psi_q * g.rs_d) ** 2
            out["re_l1"][si, ti] = lam.lambda1.real
            out["im_l1"][si, ti] = lam.lambda1.imag
            out["re_l2"][si, ti] = lam.lambda2.real
            out["im_l2"][si, ti] = lam.lambda2.imag
            out["z_euler_mag"][si, ti] = ze
            out["z_trap_mag"][si, ti] = zt
    return MapTables(grid=grid, **out)


CSV_HEADER = [
    "n_pu", "tau_pu", "eps_d", "eps_q", "psi11", "psi12", "psi21", "psi22",
    "r_scalar", "det_R", "re_l1", "im_l1", "re_l2", "im_l2",
    "z_euler_mag", "z_trap_mag",
]


def write_maps_csv(tables: MapTables, path: str) -> None:
    """One row per (n, tau) cell with all surface values; NaN for absent
    cells."""
    grid = tables.grid
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for si, n in enumerate(grid.speed_axis):
            for ti, tau in enumerate(grid.torque_axis):
                w.writerow(
                    [f"{float(n):.10g}", f"{float(tau):.10g}"]
                    + [
                        f"{getattr(tables, name)[si, ti]:.10g}"
                        for name in CSV_HEADER[2:]
                    ]
                )


def eigen_sweep(
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    omega_n: float,
    speeds: np.ndarray,
    dt: float = 125e-6,
) -> list[dict]:
    """Eigenvalue trajectory against speed, with both discrete maps."""
    rows = []
    for n in speeds:
        lam = eigenvalues(theta_hat, known_x, float(n), omega_n)
        ze1, _ = discrete_stability(lam.lambda1, dt, "explicit_euler")
        zt1, st1 = discrete_stability(lam.lambda1, dt, "trapezoidal")
        rows.append(
            {
                "n_pu": float(n),
                "re_l1": lam.lambda1.real,
                "im_l1": lam.lambda1.imag,
                "re_l2": lam.lambda2.real,
                "im_l2": lam.lambda2.imag,
                "z_euler_mag": abs(ze1),
                "z_trap_mag": abs(zt1),
                "trap_stable": st1,
            }
        )
    return rows
