"""Offline analytical surfaces: eigenvalues and time constants, discrete
stability, steady-state error sensitivities, gradient and Hessian maps
over the 4-quadrant speed-torque plane.

Grid cells are loaded with MTPA currents at the cell torque; cells whose
MTPA reference, current magnitude or steady-state voltage is infeasible
are marked NaN (absent, not zero). The grid is evaluated whole: the
speed-only kernels run once per speed, the voltage and the error once per
grid. The CSV writer, which also writes the run logs, formats a block of
rows per ``%`` operation. The caller sizes the block: 256 rows for a run
log, one speed row for a map, so a speed-only column is formatted once a
row. ``eigen_sweep`` returns one ``EigenRow`` tuple per speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .control import ControlError, mtpa_reference
from .estimator import ParameterVector, gradient_steady_state
from .plant import steady_state_voltage
from .pu import ConfigError, DqVector, MachineParams


class EigenPair(NamedTuple):
    lambda1: complex
    lambda2: complex


def time_constants(
    theta_hat: ParameterVector, known_x: tuple[float, float], omega_n: float
) -> tuple[float, float]:
    """d and q axis time constants T = x / (r_s * omega_n), seconds."""
    if not 0.0 < theta_hat.r_s < math.inf:
        raise ValueError(f"time constants need a finite r_s > 0, got {theta_hat.r_s}")
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
    try:
        disc = a * a - (1.0 / (t_d * t_q) + (omega_n * n) ** 2)
    except OverflowError:  # float ** raises; not x*x, which differs in the last bit (_squares)
        raise ConfigError(f"speed n = {n} pu is too large: (omega_n * n)**2 overflows") from None
    if disc >= 0.0:
        s = math.sqrt(disc)
        return EigenPair(complex(-a + s, 0.0), complex(-a - s, 0.0))
    s = math.sqrt(-disc)
    return EigenPair(complex(-a, s), complex(-a, -s))


def discrete_stability(
    lam: complex, dt: float, method: str
) -> tuple[complex, bool]:
    """Map a continuous eigenvalue through one fixed integration step.

    explicit_euler: z = 1 + lam*dt
    trapezoidal:    z = (1 + lam*dt/2) / (1 - lam*dt/2)
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
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
                raise ConfigError("grid axes must be strictly increasing")


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


MAP_SURFACES = tuple(f.name for f in fields(MapTables) if f.name != "grid")


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
    sensitivity surfaces. The currents are built once per torque value (NaN
    where infeasible), the stability columns by :func:`eigen_sweep` over the
    speed axis, the gradient by one scalar call per speed, the voltage and
    the error once per grid. The arithmetic runs in a per-cell call's order,
    so every cell equals its scalar evaluation bitwise.
    """
    theta = ParameterVector(psi_m=params.psi_m, r_s=params.r_s)
    known_x = (params.x_d, params.x_q)
    currents = [cell_currents(params, tau, i_max) for tau in grid.torque_axis.tolist()]
    i = DqVector(*np.array([c or (np.nan, np.nan) for c in currents]).T)
    # speeds first: time_constants refuses r_s <= 0 before a grid divides by 0
    eig = eigen_sweep(theta, known_x, omega_n, grid.speed_axis, dt)
    n, re_l1, im_l1, re_l2, im_l2, z_euler, z_trap = np.array(eig)[:, :7].T[:, :, None]
    per_speed, (rs_d, rs_q) = [], np.empty((2, len(grid.speed_axis), len(i.d)))
    for si, row in enumerate(eig):  # a float n: the gradient floor decides per speed
        g = gradient_steady_state(theta, known_x, row.n_pu, i)
        per_speed.append((g.psi_d, g.psi_q, g.psi_d**2 + g.psi_q**2))
        rs_d[si], rs_q[si] = g.rs_d, g.rs_q  # 0.0 below the floor
    psi11, psi12, psi_sq = np.array(per_speed).T[:, :, None]
    u = steady_state_voltage(params, i, n)
    # math.hypot per cell, one row at a time: np.hypot differs in some last bits
    u_mag = np.fromiter(chain.from_iterable(
        map(math.hypot, d.tolist(), q.tolist()) for d, q in zip(u.d, u.q)), float, u.d.size)
    infeasible = (u_mag.reshape(u.d.shape) > u_max) | np.isnan(i.d)
    del u, u_mag  # a map's peak memory is its tables: no grid temporary outlives its use
    eps = steady_state_error(theta, known_x, n, i, *deltas)
    surfaces = {
        "i_d": i.d, "i_q": i.q, "eps_d": eps.d, "eps_q": eps.q,
        "psi11": psi11, "psi12": psi12, "psi21": rs_d, "psi22": rs_q,
        "r_scalar": psi_sq + _squares(rs_d) + _squares(rs_q),
        "det_R": _squares(psi11 * rs_q - psi12 * rs_d),
        "re_l1": re_l1, "im_l1": im_l1, "re_l2": re_l2, "im_l2": im_l2,
        "z_euler_mag": z_euler, "z_trap_mag": z_trap,
    }
    for name, value in surfaces.items():
        if value.shape == infeasible.shape:  # a whole grid of its own: masked in place
            value[infeasible] = np.nan
        else:
            surfaces[name] = np.where(infeasible, np.nan, value)
    return MapTables(grid, **surfaces)


def _squares(x: np.ndarray) -> np.ndarray:
    """Element-wise Python ``x**2`` (libm pow) a row at a time, as a per-cell
    evaluation computes it; array ``x**2`` is ``x*x`` and differs in the last bit."""
    cells = chain.from_iterable(map(pow, row.tolist(), repeat(2.0)) for row in x)
    return np.fromiter(cells, float, x.size).reshape(x.shape)


# the CSV columns of each ``rpemsim map`` surface; "all" writes every one
MAP_COLUMNS = {
    "sensitivity": ("eps_d", "eps_q"),
    "gradient": ("psi11", "psi12", "psi21", "psi22"),
    "hessian": ("r_scalar", "det_R"),
    "stability": ("re_l1", "im_l1", "re_l2", "im_l2", "z_euler_mag", "z_trap_mag"),
}
MAP_COLUMNS["all"] = tuple(chain(*MAP_COLUMNS.values()))


def write_maps_csv(tables: MapTables, path: str, surface: str = "all") -> None:
    """One row per (n, tau) cell with the surface's values; NaN for absent
    cells. Each speed row is one block of the writer."""
    speeds, torques = tables.grid.speed_axis, tables.grid.torque_axis
    columns = MAP_COLUMNS[surface]
    table = np.column_stack(
        [np.repeat(speeds, len(torques)), np.tile(torques, len(speeds))]
        + [getattr(tables, name).ravel() for name in columns]
    )
    write_csv_table(path, ["n_pu", "tau_pu", *columns], table, len(torques))


def write_csv_table(
    path: str, header: Sequence[str], table: np.ndarray, block_rows: int = 256
) -> None:
    """A CSV file of the header and one line per row of the 2-D float64
    ``table``, each value as ``%.10g``. Lines end in CRLF, as :mod:`csv`
    writes them.

    The rows go out in blocks of ``block_rows``, which the caller picks:
    256 rows for a run log, one speed row for a map. A column whose values
    are bitwise equal down a block (compared as ``uint64``, so ``-0.0`` and
    ``0.0`` stay apart and a NaN matches only its own bit pattern) is
    formatted once, by the same ``%.10g``, into that block's line template;
    the text is the same as formatting every value. A formatted float holds
    no ``%``, so the template needs no escaping."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, len(table), block_rows):
            rows = table[start:start + block_rows]
            bits = rows.view(np.uint64)
            constant = (bits == bits[0]).all(axis=0)
            line = ",".join(
                "%.10g" % v if c else "%.10g"
                for v, c in zip(rows[0].tolist(), constant.tolist())
            ) + "\r\n"
            f.write(line * len(rows) % tuple(rows[:, ~constant].ravel().tolist()))


class EigenRow(NamedTuple):
    """One speed of :func:`eigen_sweep`, in the ``rpemsim eig`` CSV columns.
    The magnitudes and ``trap_stable`` come from both roots, as the
    ``map stability`` columns of the same names do."""

    n_pu: float
    re_l1: float
    im_l1: float
    re_l2: float
    im_l2: float
    z_euler_mag: float
    z_trap_mag: float
    trap_stable: bool


def eigen_sweep(
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    omega_n: float,
    speeds: np.ndarray,
    dt: float = 125e-6,
) -> list[EigenRow]:
    """Eigenvalue trajectory against speed, with both discrete maps.

    Each map's magnitude is the larger over both roots, and ``trap_stable``
    is ``z_trap_mag < 1``: the ``map stability`` columns of the same names."""
    rows = []
    for n in map(float, speeds):
        l1, l2 = eigenvalues(theta_hat, known_x, n, omega_n)
        z_euler = abs(discrete_stability(l1, dt, "explicit_euler")[0])
        z_trap = abs(discrete_stability(l1, dt, "trapezoidal")[0])
        if l1.imag == 0.0:  # a complex pair's maps have bitwise-equal magnitudes
            z_euler = max(z_euler, abs(discrete_stability(l2, dt, "explicit_euler")[0]))
            z_trap = max(z_trap, abs(discrete_stability(l2, dt, "trapezoidal")[0]))
        rows.append(EigenRow(
            n, l1.real, l1.imag, l2.real, l2.imag, z_euler, z_trap, z_trap < 1.0))
    return rows
