"""Continuous-time IPMSM electrical model, torque and speed step.

The electrical part in rotor coordinates, per-unit:

    di_d/dt = (omega_n/x_d) * (u_d - r_s*i_d + n*x_q*i_q)
    di_q/dt = (omega_n/x_q) * (u_q - r_s*i_q - n*x_d*i_d - n*psi_m)

For fixed (n, u) this is linear in i, so the trapezoidal step is an exact
2x2 solve per step with no iteration, which keeps runs bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .pu import DqVector, MachineParams


@dataclass
class PlantState:
    """True machine state: stator current, speed, live parameters."""

    i: DqVector
    n: float
    params: MachineParams


def torque(psi_m: float, x_d: float, x_q: float, i_d: float, i_q: float) -> float:
    """Electromagnetic torque: magnet plus reluctance term."""
    return psi_m * i_q + (x_d - x_q) * i_d * i_q


def speed_step(n: float, tau_e: float, tau_l: float, inertia_H: float, dt: float) -> float:
    """Per-unit speed after one step of the torque balance."""
    return n + dt * (tau_e - tau_l) / (2.0 * inertia_H)


def step_matrices(
    r_s: float, x_d: float, x_q: float, n: float, omega_n: float, dt: float
) -> tuple[float, float, float, float, float, float, float, float]:
    """Trapezoidal update matrices for the linear current dynamics.

    Returns (m11, m12, m21, m22) of inv(I - dt/2*A) and (n11, n12, n21, n22)
    of (I + dt/2*A), with A the state matrix at fixed n.
    """
    a11 = -r_s * omega_n / x_d
    a12 = n * omega_n * x_q / x_d
    a21 = -n * omega_n * x_d / x_q
    a22 = -r_s * omega_n / x_q
    h = 0.5 * dt
    # I - h*A
    m11 = 1.0 - h * a11
    m12 = -h * a12
    m21 = -h * a21
    m22 = 1.0 - h * a22
    det = m11 * m22 - m12 * m21
    # det = (1+h*r*w/xd)(1+h*r*w/xq) + (h*n*w)^2 > 0 for dt>0, r_s>=0, x>0;
    # written so that a NaN det fails too
    if not det > 0.0:
        raise ValueError(
            f"trapezoidal step matrix is singular (det={det}) for r_s={r_s}, "
            f"x_d={x_d}, x_q={x_q}, n={n}, dt={dt}"
        )
    inv = 1.0 / det
    return (
        m22 * inv,
        -m12 * inv,
        -m21 * inv,
        m11 * inv,
        1.0 + h * a11,
        h * a12,
        h * a21,
        1.0 + h * a22,
    )


class Trapezoid:
    """One trapezoidal step of dy/dt = A y + f at a fixed step dt, with
    A = A(r_s, x_d, x_q, n) the current-dynamics state matrix.

    The plant current, the estimator's predicted current and both
    prediction-gradient recursions advance through :meth:`step`. The
    matrices are cached and recomputed only when :meth:`set` sees new
    inputs.
    """

    __slots__ = (
        "omega_n", "dt", "r_s", "x_d", "x_q", "n", "w_d", "w_q",
        "mi11", "mi12", "mi21", "mi22", "n11", "n12", "n21", "n22",
    )

    def __init__(self, omega_n: float, dt: float) -> None:
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.omega_n = omega_n
        self.dt = dt
        # NaN never compares equal, so the first set() computes
        self.r_s = self.x_d = self.x_q = self.n = math.nan

    def set(self, r_s: float, x_d: float, x_q: float, n: float) -> None:
        """Select the state matrix; a no-op when the inputs are unchanged.

        A signed-zero speed flips the sign of the zero off-diagonal
        entries, so it counts as a change.
        """
        if (
            n != self.n or r_s != self.r_s or x_d != self.x_d or x_q != self.x_q
            or (n == 0.0 and math.copysign(1.0, n) != math.copysign(1.0, self.n))
        ):
            (
                self.mi11, self.mi12, self.mi21, self.mi22,
                self.n11, self.n12, self.n21, self.n22,
            ) = step_matrices(r_s, x_d, x_q, n, self.omega_n, self.dt)
            if x_d != self.x_d or x_q != self.x_q:
                self.w_d = self.omega_n / x_d
                self.w_q = self.omega_n / x_q
            self.r_s, self.x_d, self.x_q, self.n = r_s, x_d, x_q, n

    def step(self, y_d: float, y_q: float, f_d: float, f_q: float) -> tuple[float, float]:
        """y[k+1] from y[k] under the constant forcing f; f_d = -0.0 adds
        nothing, bit for bit."""
        rhs_d = self.n11 * y_d + self.n12 * y_q + self.dt * f_d
        rhs_q = self.n21 * y_d + self.n22 * y_q + self.dt * f_q
        return (
            self.mi11 * rhs_d + self.mi12 * rhs_q,
            self.mi21 * rhs_d + self.mi22 * rhs_q,
        )

    def drive(
        self, i_d: float, i_q: float, u_d: float, u_q: float, psi_m: float
    ) -> tuple[float, float]:
        """Stator current after one step under voltage u and the back-EMF
        of flux psi_m at the selected speed: :meth:`step` under the forcing
        (w_d * u_d, w_q * (u_q - n * psi_m)), written out in its operation
        order."""
        dt = self.dt
        rhs_d = self.n11 * i_d + self.n12 * i_q + dt * (self.w_d * u_d)
        rhs_q = self.n21 * i_d + self.n22 * i_q + dt * (self.w_q * (u_q - self.n * psi_m))
        return (
            self.mi11 * rhs_d + self.mi12 * rhs_q,
            self.mi21 * rhs_d + self.mi22 * rhs_q,
        )


def model_kernel(
    x_d: float, x_q: float, r_s: float, psi_m: float, n: float, omega_n: float, dt: float
) -> Trapezoid:
    """The :class:`Trapezoid` set to the model (x_d, x_q, r_s, psi_m) at
    speed n; raises a ConfigError for an invalid parameter set.

    Kernels are memoized and never set again, so callers only step them
    and any thread may share one. The speed's sign is in the key, as
    0.0 and -0.0 are one key but select different matrices.
    """
    return _set_kernel(x_d, x_q, r_s, psi_m, n, math.copysign(1.0, n), omega_n, dt)


@functools.lru_cache(maxsize=8)
def _set_kernel(x_d, x_q, r_s, psi_m, n, sign, omega_n, dt) -> Trapezoid:
    MachineParams(x_d, x_q, r_s, psi_m)  # rejects an invalid parameter set
    kernel = Trapezoid(omega_n, dt)
    kernel.set(r_s, x_d, x_q, n)
    return kernel


def integrate_electrical(
    state: PlantState, u: DqVector, dt: float, omega_n: float
) -> PlantState:
    """Advance the stator current one trapezoidal step; n and params
    untouched."""
    p = state.params
    kernel = model_kernel(p.x_d, p.x_q, p.r_s, p.psi_m, state.n, omega_n, dt)
    i_new = DqVector(*kernel.drive(state.i.d, state.i.q, u.d, u.q, p.psi_m))
    return PlantState(i=i_new, n=state.n, params=state.params)


def steady_state_current(
    params: MachineParams, u: DqVector, n: float
) -> DqVector:
    """Solve the electrical model with derivatives zeroed.

    r_s*i_d - n*x_q*i_q = u_d
    n*x_d*i_d + r_s*i_q = u_q - n*psi_m
    """
    a = params.r_s
    b = -n * params.x_q
    c = n * params.x_d
    d = params.r_s
    det = a * d - b * c
    if abs(det) < 1e-15:
        raise ValueError("steady state undefined: r_s = 0 at standstill")
    rhs_d = u.d
    rhs_q = u.q - n * params.psi_m
    return DqVector(
        d=(d * rhs_d - b * rhs_q) / det,
        q=(-c * rhs_d + a * rhs_q) / det,
    )


def steady_state_voltage(
    params: MachineParams, i: DqVector, n: float
) -> DqVector:
    """Voltage required to hold current i at speed n in steady state."""
    return DqVector(
        d=params.r_s * i.d - n * params.x_q * i.q,
        q=params.r_s * i.q + n * (params.x_d * i.d + params.psi_m),
    )
