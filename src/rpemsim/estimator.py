"""Recursive prediction-error estimator for magnet flux and stator
resistance.

An open-loop full-order predictor integrates the machine model with the
estimated parameters from the measured voltage and speed; no current
feedback enters it, so the prediction error carries parametric error
information only. Parameter updates are

    theta[k] = project( theta[k-1] + L[k] * eps[k] )

with the gain L computed from the prediction gradient (the sensitivity of
the predicted current to each estimated parameter) by one of three
algorithms, each a gain object that owns its filter state and takes the
same per-sample call; :func:`make_gain` picks one from the configuration:

  SGA     normalized gradient step, scalar filtered Hessian (SgaTrace)
          or one filter per gradient entry (SgaPerGradient)
  GNA     Gauss-Newton step (Gna), 2x2 filtered Hessian with
          pseudoinverse fallback where it is singular (standstill)
  PhyInt  fixed gains solving the steady-state error relations directly

Each row reads its closed steady-state gradient or its dynamic recursion, by
its gradient mode; the :func:`make_gradients` source computes only those.
A speed scheduler zeroes the flux row at low speed and the resistance row
away from standstill, decoupling the two estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Literal, NamedTuple, Optional

from .plant import Trapezoid, model_kernel, steady_state_current
# step_matrices is not called here; it stays a module attribute because
# the benchmark's tracer (perfbench/tracing.py) wraps it by this name
from .plant import step_matrices  # noqa: F401
from .pu import (
    ConfigError, DqVector, Finite, MachineParams, NonNegative, Positive, Rate, check_fields,
)


class ParameterVector(NamedTuple):
    """Estimated parameters: magnet flux linkage and stator resistance."""

    psi_m: float
    r_s: float


@dataclass(frozen=True)
class ParameterBox:
    """Admissible parameter region; estimates are clamped into it after
    every update."""

    psi_m_min: Positive  # MTPA needs a positive flux estimate
    psi_m_max: float
    r_s_min: NonNegative
    r_s_max: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.psi_m_min < self.psi_m_max and self.r_s_min < self.r_s_max):
            raise ConfigError("parameter box must be nonempty (min < max per axis)")

    @classmethod
    def around(cls, nominal: ParameterVector, fraction: float) -> "ParameterBox":
        """The box of +-fraction around nominal."""
        return cls(
            nominal.psi_m * (1.0 - fraction),
            nominal.psi_m * (1.0 + fraction),
            nominal.r_s * (1.0 - fraction),
            nominal.r_s * (1.0 + fraction),
        )


def clamp_to_box(psi_m: float, r_s: float, box: ParameterBox) -> tuple[float, float]:
    """Componentwise clamp into the admissible box."""
    # min(max(x, lo), hi) spelled out: the same result without the calls
    lo, hi = box.psi_m_min, box.psi_m_max
    psi_m = lo if lo > psi_m else psi_m
    if hi < psi_m:
        psi_m = hi
    lo, hi = box.r_s_min, box.r_s_max
    r_s = lo if lo > r_s else r_s
    if hi < r_s:
        r_s = hi
    return psi_m, r_s


class GradientSet(NamedTuple):
    """Prediction gradient entries d(i_hat)/d(theta).

    psi_d = d i_hat_d / d psi_m_hat, rs_q = d i_hat_q / d r_s_hat, etc.
    """

    psi_d: float
    psi_q: float
    rs_d: float
    rs_q: float


class GainMatrix(NamedTuple):
    """2x2 estimation gain; row 1 feeds the flux estimate, row 2 the
    resistance estimate, columns are the d/q prediction error axes."""

    l11: float
    l12: float
    l21: float
    l22: float


@dataclass
class PredictorState:
    """Predicted current plus dynamic prediction-gradient states."""

    i_hat: DqVector
    grad_psi: DqVector = field(default_factory=lambda: DqVector(0.0, 0.0))
    grad_rs: DqVector = field(default_factory=lambda: DqVector(0.0, 0.0))


@dataclass
class HessianState:
    """Filter state of the object-level oracles :func:`sga_update` and
    :func:`gna_update`, across all algorithms.

    Its fields carry the names of the gain objects' state: scalar_r serves
    :class:`SgaTrace`, the per-gradient fields :class:`SgaPerGradient`, and
    (r11, r12, r22) the symmetric :class:`Gna` matrix. mpp_last records
    whether the last GNA step took the pseudoinverse branch.
    """

    scalar_r: float = 1.0
    rg_psi_d: float = 0.0
    rg_psi_q: float = 0.0
    rg_rs_d: float = 0.0
    rg_rs_q: float = 0.0
    r11: float = 0.0
    r12: float = 0.0
    r22: float = 0.0
    mpp_last: bool = False


SS_DENOM_FLOOR = 1e-9  # steady-state gradient denominators below it count as 0
MPP_TOL = 1e-9  # the pseudoinverse drops eigenvalues below MPP_TOL * the largest
R_FLOOR = 1e-6  # SGA divides by no normaliser r below it
DETR_FLOOR = 1e-10  # GNA takes the pseudoinverse where det(R) falls below it
I_FLOOR = 0.02  # PhyInt zeroes a resistance gain whose denominator is below I_FLOOR * its scale

Algorithm = Literal["sga", "gna", "phyint"]
GradientMode = Literal["steady_state", "dynamic"]


@dataclass(frozen=True)
class GainSettings:
    """Gain algorithm selection and adaptation rates: the gain settings a
    scenario's estimator section carries under the same names.

    gamma values are per-step weights gamma0 = T_samp / T0; the flux and
    resistance rows carry separate gain-rate values so one configuration
    covers both estimation tasks. The reference gain-rate table:

      flux, all algorithms:   gamma_L_psi 3.25e-4, gamma_r 6.25e-4
      resistance, SGA/PhyInt: gamma_L_rs  6.25e-5, gamma_r 6.25e-4
      resistance, GNA:        gamma_L_rs  7.5e-6,  gamma_r 6.25e-5

    The defaults are its first two rows; a preset document names only the
    rates where it leaves them.
    """

    algorithm: Algorithm = "sga"
    gamma_L_psi: Rate = 3.25e-4
    gamma_L_rs: Rate = 6.25e-5
    gamma_r: Rate = 6.25e-4
    gradient_mode_psi: GradientMode = "steady_state"
    gradient_mode_rs: GradientMode = "steady_state"
    gain_cap: Positive = 1e4
    sga_r_mode: Literal["trace", "per_gradient"] = "trace"
    r0: Optional[Positive] = None


@dataclass(frozen=True)
class GainConfig(GainSettings):
    """The gain settings plus the speed scheduler limits."""

    n_lim1: Finite = 0.1
    n_lim2: Finite = 0.01

    def __post_init__(self) -> None:
        check_fields(self)
        if not abs(self.n_lim2) <= abs(self.n_lim1):
            raise ConfigError("scheduler needs |n_lim1| >= |n_lim2|")


def prediction_error(i_meas: DqVector, i_hat: DqVector) -> DqVector:
    """Measured minus predicted stator current."""
    return DqVector(i_meas.d - i_hat.d, i_meas.q - i_hat.q)


def predictor_step(
    state: PredictorState,
    u: DqVector,
    n: float,
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    omega_n: float,
    dt: float,
) -> PredictorState:
    """Advance the predicted current one trapezoidal step (open loop).

    Inputs are the measured voltage and speed; gradient states are copied
    untouched, see :func:`gradient_dynamic_step`.
    """
    kernel = model_kernel(*known_x, theta_hat.r_s, theta_hat.psi_m, n, omega_n, dt)
    i_d, i_q = state.i_hat
    i_hat = kernel.drive(i_d, i_q, u.d, u.q, theta_hat.psi_m)
    return PredictorState(DqVector(*i_hat), state.grad_psi, state.grad_rs)


def gradient_dynamic_step(
    state: PredictorState,
    n: float,
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    omega_n: float,
    dt: float,
    i_hat_prev: DqVector,
) -> PredictorState:
    """Advance the dynamic prediction-gradient states one trapezoidal step.

    See :class:`DynamicGradients`. The resistance forcing is averaged over
    the interval's ends, ``i_hat_prev`` and ``state.i_hat``, which makes the
    recursion the exact parameter-derivative of the discrete predictor step.
    """
    kernel = model_kernel(*known_x, theta_hat.r_s, theta_hat.psi_m, n, omega_n, dt)
    gp_d, gp_q, gr_d, gr_q = DynamicGradients((*state.grad_psi, *state.grad_rs), *known_x).step(
        kernel, theta_hat.r_s, n, *i_hat_prev, *state.i_hat
    )
    return PredictorState(state.i_hat, DqVector(gp_d, gp_q), DqVector(gr_d, gr_q))


def steady_state_gradients(
    r_s: float, x_d: float, x_q: float, n: float, i_d: float, i_q: float
) -> tuple[float, float, float, float]:
    """(psi_d, psi_q, rs_d, rs_q) of :func:`gradient_steady_state`."""
    r = r_s
    D = r * r + n * n * x_d * x_q
    if D < SS_DENOM_FLOOR:
        return 0.0, 0.0, 0.0, 0.0
    return (
        -n * n * x_q / D,
        -n * r / D,
        (-r * i_d - n * x_q * i_q) / D,
        (-r * i_q + n * x_d * i_d) / D,
    )


def gradient_steady_state(
    theta_hat: ParameterVector,
    known_x: tuple[float, float],
    n: float,
    i_hat: DqVector,
) -> GradientSet:
    """Closed-form steady-state prediction gradients.

    Common denominator D = r_s^2 + n^2 * x_d * x_q (squared-resistance
    form, consistent with the settled dynamic gradients). Below the floor
    the gradients are suppressed to zero so downstream gains vanish.
    """
    return GradientSet(*steady_state_gradients(
        theta_hat.r_s, known_x[0], known_x[1], n, i_hat.d, i_hat.q
    ))


# A gradient source's step() takes the predictor's Trapezoid kernel (None on
# the first sample, where no predictor step runs), r_s, n and the predicted
# current before (i_old) and after (i) that step; it returns and keeps as g
# the gradients (psi_d, psi_q, rs_d, rs_q), a tuple of floats.
@dataclass(slots=True)
class SteadyStateGradients:
    """Both rows by :func:`steady_state_gradients`; no recursion runs."""

    g: tuple
    x_d: float
    x_q: float

    def step(self, kernel, r_s, n, i_old_d, i_old_q, i_d, i_q) -> tuple:
        g = self.g = steady_state_gradients(r_s, self.x_d, self.x_q, n, i_d, i_q)
        return g


@dataclass(slots=True)
class DynamicGradients(SteadyStateGradients):
    """Both rows by their recursions, which share the predictor's state
    matrix in ``kernel``. The fields are those of SteadyStateGradients, so
    MixedGradients can keep one row in closed form."""

    def step(self, kernel, r_s, n, i_old_d, i_old_q, i_d, i_q) -> tuple:
        if kernel is None:
            return self.g
        g = self.g = self.flux(kernel) + self.resistance(kernel, i_old_d, i_old_q, i_d, i_q)
        return g

    def flux(self, kernel) -> tuple:
        """The flux gradient (gp) one step on, forced by -n in the q row."""
        gp_d, gp_q = self.g[:2]
        return kernel.step(gp_d, gp_q, -0.0, -kernel.omega_n * kernel.n / kernel.x_q)

    def resistance(self, kernel, i_old_d, i_old_q, i_d, i_q) -> tuple:
        """The resistance gradient (gr) one step on, forced by minus the
        mean predicted current."""
        w = kernel.omega_n
        f_d = -0.5 * w * (i_old_d + i_d) / kernel.x_d
        f_q = -0.5 * w * (i_old_q + i_q) / kernel.x_q
        return kernel.step(self.g[2], self.g[3], f_d, f_q)


@dataclass(slots=True)
class MixedGradients(DynamicGradients):
    """One row by its recursion (flux if psi_dynamic), the other in closed
    form; only the recursion it returns advances."""

    psi_dynamic: bool

    def step(self, kernel, r_s, n, i_old_d, i_old_q, i_d, i_q) -> tuple:
        ss = steady_state_gradients(r_s, self.x_d, self.x_q, n, i_d, i_q)
        if self.psi_dynamic:
            g = (self.g[:2] if kernel is None else self.flux(kernel)) + ss[2:]
        else:
            g = ss[:2] + (self.g[2:] if kernel is None
                          else self.resistance(kernel, i_old_d, i_old_q, i_d, i_q))
        self.g = g
        return g


def make_gradients(cfg: GainConfig, known_x: tuple[float, float], g0: tuple):
    """The gradient source of ``cfg``'s two gradient modes, started at ``g0``."""
    psi_dynamic = cfg.gradient_mode_psi == "dynamic"
    if psi_dynamic != (cfg.gradient_mode_rs == "dynamic"):
        return MixedGradients(g0, *known_x, psi_dynamic)
    return (DynamicGradients if psi_dynamic else SteadyStateGradients)(g0, *known_x)


def gain_schedule(L: GainMatrix, n: float, cfg: GainConfig) -> GainMatrix:
    """Zero the flux row unless |n| > |n_lim1| and the resistance row unless
    |n| < |n_lim2|, so each parameter adapts only where it is observable."""
    row1_on, row2_on = abs(n) > abs(cfg.n_lim1), abs(n) < abs(cfg.n_lim2)
    l11, l12 = (L.l11, L.l12) if row1_on else (0.0, 0.0)
    l21, l22 = (L.l21, L.l22) if row2_on else (0.0, 0.0)
    return GainMatrix(l11, l12, l21, l22)


def _scheduled_update(
    theta: ParameterVector, L: GainMatrix, eps: DqVector, cfg: GainConfig,
    box: ParameterBox, schedule_n: Optional[float],
) -> tuple[ParameterVector, GainMatrix]:
    if schedule_n is not None:
        L = gain_schedule(L, schedule_n, cfg)
    # theta + L * eps, projected into the box
    psi_m = theta.psi_m + L.l11 * eps.d + L.l12 * eps.q
    r_s = theta.r_s + L.l21 * eps.d + L.l22 * eps.q
    return ParameterVector(*clamp_to_box(psi_m, r_s, box)), L


# The gain objects below own their filter state. Each step() takes the
# prediction gradients, the resistance estimate r_s, the speed n and the
# predicted current (i_d, i_q), and returns the gains (l11, l12, l21, l22)
# followed by the telemetry (r_scalar, det_R, mpp_used). Floors are
# applied as max(x, floor) spelled out.
GainStep = tuple[float, float, float, float, float, float, bool]


@dataclass(slots=True)
class SgaTrace:
    """SGA trace mode: one scalar r filters the full gradient trace, and
    L = (gamma_L / r) * gradient."""

    cfg: GainConfig
    scalar_r: float

    def step(self, psi_d: float, psi_q: float, rs_d: float, rs_q: float,
             r_s: float, n: float, i_d: float, i_q: float) -> GainStep:
        cfg = self.cfg
        tr = psi_d**2 + psi_q**2 + rs_d**2 + rs_q**2
        r = self.scalar_r = self.scalar_r + cfg.gamma_r * (tr - self.scalar_r)
        gp, gr = cfg.gamma_L_psi, cfg.gamma_L_rs
        rdiv = R_FLOOR if R_FLOOR > r else r
        return (gp * psi_d / rdiv, gp * psi_q / rdiv, gr * rs_d / rdiv, gr * rs_q / rdiv,
                r, 0.0, False)


@dataclass(slots=True)
class SgaPerGradient:
    """SGA per-gradient mode: each gain element is normalized by a filter
    of its own squared gradient entry, which makes the settled gains
    coincide with the PhyInt relations. The reported r_scalar is the seed
    trace scalar_r, which no step moves."""

    cfg: GainConfig
    scalar_r: float
    rg_psi_d: float
    rg_psi_q: float
    rg_rs_d: float
    rg_rs_q: float

    def step(self, psi_d: float, psi_q: float, rs_d: float, rs_q: float,
             r_s: float, n: float, i_d: float, i_q: float) -> GainStep:
        cfg = self.cfg
        g = cfg.gamma_r
        rpd = self.rg_psi_d = self.rg_psi_d + g * (psi_d**2 - self.rg_psi_d)
        rpq = self.rg_psi_q = self.rg_psi_q + g * (psi_q**2 - self.rg_psi_q)
        rrd = self.rg_rs_d = self.rg_rs_d + g * (rs_d**2 - self.rg_rs_d)
        rrq = self.rg_rs_q = self.rg_rs_q + g * (rs_q**2 - self.rg_rs_q)
        fl, gp, gr = R_FLOOR, cfg.gamma_L_psi, cfg.gamma_L_rs
        return (gp * psi_d / (fl if fl > rpd else rpd), gp * psi_q / (fl if fl > rpq else rpq),
                gr * rs_d / (fl if fl > rrd else rrd), gr * rs_q / (fl if fl > rrq else rrq),
                self.scalar_r, 0.0, False)


def pseudoinverse_2x2(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Moore-Penrose pseudoinverse of ``((a, b), (b, c))``, returned as ``(p11, p12, p22)``.

    Eigendecomposition based: eigenvalues below MPP_TOL times the dominant one
    are inverted to zero. Satisfies the four Penrose conditions.
    """
    half_sum = 0.5 * (a + c)
    half_diff = 0.5 * (a - c)
    rad = math.hypot(half_diff, b)
    lam1 = half_sum + rad
    lam2 = half_sum - rad
    lam_max = max(abs(lam1), abs(lam2))
    if lam_max == 0.0:
        return 0.0, 0.0, 0.0
    # eigenvector of lam1, formula chosen to avoid cancellation: lam1 is
    # never close to the smaller diagonal entry; only b == 0 zeroes it
    if b != 0.0:
        v1d, v1q = (lam1 - c, b) if a >= c else (b, lam1 - a)
    elif a >= c:
        v1d, v1q = 1.0, 0.0
    else:
        v1d, v1q = 0.0, 1.0
    norm = math.hypot(v1d, v1q)
    v1d, v1q = v1d / norm, v1q / norm
    v2d, v2q = -v1q, v1d
    # the 1e-300 guard keeps subnormal eigenvalues from overflowing
    inv1 = 1.0 / lam1 if abs(lam1) > max(MPP_TOL * lam_max, 1e-300) else 0.0
    inv2 = 1.0 / lam2 if abs(lam2) > max(MPP_TOL * lam_max, 1e-300) else 0.0
    p11 = inv1 * v1d * v1d + inv2 * v2d * v2d
    p12 = inv1 * v1d * v1q + inv2 * v2d * v2q
    p22 = inv1 * v1q * v1q + inv2 * v2q * v2q
    return p11, p12, p22


@dataclass(slots=True)
class Gna:
    """GNA: filtered 2x2 Hessian (r11, r12, r22). The exact inverse is used
    while det(R) stays at or above DETR_FLOOR; below it the pseudoinverse takes
    over, which is what keeps the resistance row alive at standstill where
    the matrix is structurally singular. Each gain row's magnitude is then
    capped."""

    cfg: GainConfig
    r11: float
    r12: float
    r22: float

    def step(self, psi_d: float, psi_q: float, rs_d: float, rs_q: float,
             r_s: float, n: float, i_d: float, i_q: float) -> GainStep:
        cfg = self.cfg
        g = cfg.gamma_r
        r11 = self.r11 = self.r11 + g * (psi_d**2 + psi_q**2 - self.r11)
        r12 = self.r12 = self.r12 + g * (psi_d * rs_d + psi_q * rs_q - self.r12)
        r22 = self.r22 = self.r22 + g * (rs_d**2 + rs_q**2 - self.r22)
        det = r11 * r22 - r12 * r12
        if det >= DETR_FLOOR:
            inv = 1.0 / det
            q11, q12, q22 = r22 * inv, -r12 * inv, r11 * inv
            mpp = False
        else:
            # the module global, so a wrapper installed there sees the call
            q11, q12, q22 = pseudoinverse_2x2(r11, r12, r22)
            mpp = True
        l11 = cfg.gamma_L_psi * (q11 * psi_d + q12 * rs_d)
        l12 = cfg.gamma_L_psi * (q11 * psi_q + q12 * rs_q)
        l21 = cfg.gamma_L_rs * (q12 * psi_d + q22 * rs_d)
        l22 = cfg.gamma_L_rs * (q12 * psi_q + q22 * rs_q)
        # bound each gain row's magnitude; large gains amplify noise
        cap = cfg.gain_cap
        n1 = math.hypot(l11, l12)
        if n1 > cap:
            l11, l12 = l11 * (cap / n1), l12 * (cap / n1)
        n2 = math.hypot(l21, l22)
        if n2 > cap:
            l21, l22 = l21 * (cap / n2), l22 * (cap / n2)
        return l11, l12, l21, l22, 0.0, det, mpp


@dataclass(slots=True)
class PhyInt:
    """Physically interpreted gains, with no filter state. The flux gain is
    the high-speed inversion of the steady-state error, L11 = -gamma * x_d,
    fed by the d-axis error only. The resistance gains invert the
    steady-state relations per axis at r_s and the predicted current; a
    denominator below its current-scaled threshold zeroes that gain for
    the step instead of letting it blow up."""

    cfg: GainConfig
    x_d: float
    x_q: float

    def step(self, psi_d: float, psi_q: float, rs_d: float, rs_q: float,
             r_s: float, n: float, i_d: float, i_q: float) -> GainStep:
        cfg = self.cfg
        x_d, x_q = self.x_d, self.x_q
        D = r_s * r_s + n * n * x_d * x_q
        den_d = -r_s * i_d - n * x_q * i_q
        den_q = -r_s * i_q + n * x_d * i_d
        th_d = I_FLOOR * (r_s + abs(n) * x_q)
        th_q = I_FLOOR * (r_s + abs(n) * x_d)
        l21 = cfg.gamma_L_rs * D / den_d if abs(den_d) >= th_d and th_d > 0.0 else 0.0
        l22 = cfg.gamma_L_rs * D / den_q if abs(den_q) >= th_q and th_q > 0.0 else 0.0
        return -cfg.gamma_L_psi * x_d, 0.0, l21, l22, 0.0, 0.0, False


def make_gain(
    cfg: GainConfig, known_x: tuple[float, float],
    psi_d: float, psi_q: float, rs_d: float, rs_q: float,
) -> SgaTrace | SgaPerGradient | Gna | PhyInt:
    """The gain object ``cfg`` selects, its filters seeded from ``cfg.r0``
    when that is set, else from the first prediction gradients."""
    if cfg.algorithm == "phyint":
        return PhyInt(cfg, *known_x)
    sq = (psi_d**2, psi_q**2, rs_d**2, rs_q**2)
    tr = sq[0] + sq[1] + sq[2] + sq[3]
    if cfg.r0 is None and tr > 1e-6:
        # structure-preserving start: the filters begin at the gradient
        # outer product, so a structurally singular operating point
        # (standstill) stays singular from the first step
        r, hess = tr, (sq[0] + sq[1], psi_d * rs_d + psi_q * rs_q, sq[2] + sq[3])
    else:
        r = 1.0 if cfg.r0 is None else cfg.r0
        sq, hess = (0.0, 0.0, 0.0, 0.0), (0.5 * r, 0.0, 0.5 * r)
    if cfg.algorithm == "gna":
        return Gna(cfg, *hess)
    return SgaTrace(cfg, r) if cfg.sga_r_mode == "trace" else SgaPerGradient(cfg, r, *sq)


def _oracle_update(
    cls: type, theta: ParameterVector, eps: DqVector, grads: GradientSet,
    hess: HessianState, cfg: GainConfig, box: ParameterBox, schedule_n: Optional[float],
) -> tuple[ParameterVector, HessianState, GainMatrix]:
    """One step of gain object ``cls`` started from the ``hess`` fields
    named as its state, then the scheduled parameter update."""
    names = [f.name for f in fields(cls) if f.name != "cfg"]
    gain = cls(cfg, *(getattr(hess, k) for k in names))
    *L, _, _, mpp = gain.step(*grads, 0.0, 0.0, 0.0, 0.0)
    hess = replace(hess, mpp_last=mpp, **{k: getattr(gain, k) for k in names})
    theta, L = _scheduled_update(theta, GainMatrix(*L), eps, cfg, box, schedule_n)
    return theta, hess, L


def sga_update(
    theta: ParameterVector,
    eps: DqVector,
    grads: GradientSet,
    hess: HessianState,
    cfg: GainConfig,
    box: ParameterBox,
    schedule_n: Optional[float] = None,
) -> tuple[ParameterVector, HessianState, GainMatrix]:
    """Stochastic-gradient update: :class:`SgaTrace` or
    :class:`SgaPerGradient` by ``cfg.sga_r_mode``."""
    cls = SgaTrace if cfg.sga_r_mode == "trace" else SgaPerGradient
    return _oracle_update(cls, theta, eps, grads, hess, cfg, box, schedule_n)


def gna_update(
    theta: ParameterVector,
    eps: DqVector,
    grads: GradientSet,
    hess: HessianState,
    cfg: GainConfig,
    box: ParameterBox,
    schedule_n: Optional[float] = None,
) -> tuple[ParameterVector, HessianState, GainMatrix]:
    """Gauss-Newton update with 2x2 matrix Hessian, see :class:`Gna`."""
    return _oracle_update(Gna, theta, eps, grads, hess, cfg, box, schedule_n)


def phyint_update(
    theta: ParameterVector,
    eps: DqVector,
    n: float,
    i_hat: DqVector,
    known_x: tuple[float, float],
    cfg: GainConfig,
    box: ParameterBox,
    schedule_n: Optional[float] = None,
) -> tuple[ParameterVector, GainMatrix]:
    """Physically interpreted gains, see :class:`PhyInt`."""
    L = PhyInt(cfg, *known_x).step(0.0, 0.0, 0.0, 0.0, theta.r_s, n, i_hat.d, i_hat.q)
    return _scheduled_update(theta, GainMatrix(*L[:4]), eps, cfg, box, schedule_n)


class StepTelemetry(NamedTuple):
    """Per-sample estimator internals for logging and diagnostics: the
    named view of the plain tuple :meth:`RpemEstimator.step` returns,
    ``StepTelemetry(*est.step(u, n, i_meas))``."""

    eps_d: float
    eps_q: float
    i_hat_d: float
    i_hat_q: float
    psi_m_hat: float
    r_s_hat: float
    l11: float
    l12: float
    l21: float
    l22: float
    r_scalar: float
    det_R: float
    mpp_used: bool


class RpemEstimator:
    """Stateful per-sample estimator combining predictor, gradients, gain
    object, scheduler and projection.

    Per-sample ordering: (reseed on scheduler edges) -> predictor step ->
    prediction error -> gradient source step -> gain object step (filter
    update, then gain) -> schedule -> parameter update -> projection. The
    error is therefore always evaluated against the previous parameter
    estimate. The first sample skips the predictor step and builds the gain
    object (:func:`make_gain`) from its gradients.

    The state is held as floats; ``theta`` and ``pred`` are read-only
    views built on access.
    """

    __slots__ = (
        "cfg", "box", "known_x", "omega_n", "t_samp", "_kernel", "_x_d", "_x_q",
        "_psi", "_rs", "_ih_d", "_ih_q", "_gradients", "_gain",
        "_row1_off_time", "_row2_off_time", "_n_lim1", "_n_lim2",
        "_psi_min", "_psi_max", "_rs_min", "_rs_max",
    )

    def __init__(
        self,
        cfg: GainConfig,
        theta0: ParameterVector,
        box: ParameterBox,
        known_x: tuple[float, float],
        omega_n: float,
        t_samp: float,
        i_hat0: DqVector = DqVector(0.0, 0.0),
        n0: float = 0.0,
        gradient_init: Literal["steady_state", "zero"] = "steady_state",
    ) -> None:
        if not 0.0 < t_samp < math.inf:
            raise ConfigError(f"t_samp must be positive and finite, got {t_samp}")
        self.cfg = cfg
        self.box = box
        self.known_x = known_x
        self.omega_n = omega_n
        self.t_samp = t_samp
        self._kernel = Trapezoid(omega_n, t_samp)
        self._x_d, self._x_q = known_x
        # the scheduler limits and box bounds the step compares against, as
        # gain_schedule and clamp_to_box read them
        self._n_lim1, self._n_lim2 = abs(cfg.n_lim1), abs(cfg.n_lim2)
        self._psi_min, self._psi_max = box.psi_m_min, box.psi_m_max
        self._rs_min, self._rs_max = box.r_s_min, box.r_s_max
        self._psi, self._rs = clamp_to_box(theta0.psi_m, theta0.r_s, box)
        self._ih_d, self._ih_q = i_hat0
        g0 = (0.0, 0.0, 0.0, 0.0)
        if gradient_init == "steady_state":
            g0 = steady_state_gradients(self._rs, *known_x, n0, *i_hat0)
        self._gradients = make_gradients(cfg, known_x, g0)
        self._gain = None
        self._row1_off_time = 0.0
        self._row2_off_time = 0.0

    @property
    def theta(self) -> ParameterVector:
        return ParameterVector(self._psi, self._rs)

    @property
    def pred(self) -> PredictorState:
        """The predicted current and the gradients the last step used, in
        steady-state mode the closed form at its r_s, n and predicted current
        (before a step, or after a reseed, the start or reseed values)."""
        g = self._gradients.g
        return PredictorState(DqVector(self._ih_d, self._ih_q), DqVector(*g[:2]), DqVector(*g[2:]))

    def _reseed_on_edge(
        self, n: float, u_d: float, u_q: float, row1_on: bool, row2_on: bool
    ) -> None:
        """Snap predictor and gradients to their steady state when a row
        switches on after being off longer than ten axis time constants."""
        r = max(self._rs, 1e-6)
        reseed_after = 10.0 * max(self._x_d, self._x_q) / (r * self.omega_n)
        if (
            (row1_on and self._row1_off_time > reseed_after)
            or (row2_on and self._row2_off_time > reseed_after)
        ):
            model = MachineParams(self._x_d, self._x_q, self._rs, self._psi)
            i_d, i_q = self._ih_d, self._ih_q = steady_state_current(model, DqVector(u_d, u_q), n)
            self._gradients.g = steady_state_gradients(self._rs, self._x_d, self._x_q, n, i_d, i_q)

    def step(self, u: DqVector, n: float, i_meas: DqVector) -> tuple:
        """Consume one sample of applied voltage, speed and measured
        current, each voltage and current a (d, q) pair; advance the
        estimate.

        Returns the :class:`StepTelemetry` fields as a plain tuple, in field
        order; ``StepTelemetry(*est.step(u, n, i_meas))`` names them. The
        scheduler, update and projection are written out here in the
        operation order of :func:`gain_schedule` and
        :func:`_scheduled_update`, which stay as their reference.
        """
        u_d, u_q = u
        speed = abs(n)
        row1_on = speed > self._n_lim1
        row2_on = speed < self._n_lim2
        # a row's off-time is > 0 exactly when it was off on the previous sample
        if (row1_on and self._row1_off_time) or (row2_on and self._row2_off_time):
            self._reseed_on_edge(n, u_d, u_q, row1_on, row2_on)
        dt = self.t_samp
        self._row1_off_time = 0.0 if row1_on else self._row1_off_time + dt
        self._row2_off_time = 0.0 if row2_on else self._row2_off_time + dt

        psi, rs = self._psi, self._rs
        i_old_d, i_old_q = ih_d, ih_q = self._ih_d, self._ih_q
        gain = self._gain
        kernel = None
        if gain is not None:
            kernel = self._kernel
            kernel.set(rs, self._x_d, self._x_q, n)
            ih_d, ih_q = self._ih_d, self._ih_q = kernel.drive(ih_d, ih_q, u_d, u_q, psi)

        i_d, i_q = i_meas
        eps_d = i_d - ih_d
        eps_q = i_q - ih_q
        psi_d, psi_q, rs_d, rs_q = self._gradients.step(
            kernel, rs, n, i_old_d, i_old_q, ih_d, ih_q
        )
        if gain is None:
            gain = self._gain = make_gain(self.cfg, self.known_x, psi_d, psi_q, rs_d, rs_q)

        l11, l12, l21, l22, r_scalar, det_r, mpp = gain.step(
            psi_d, psi_q, rs_d, rs_q, rs, n, ih_d, ih_q
        )
        if not row1_on:
            l11 = l12 = 0.0
        if not row2_on:
            l21 = l22 = 0.0
        # theta + L * eps, then the componentwise clamp into the box
        psi = psi + l11 * eps_d + l12 * eps_q
        rs = rs + l21 * eps_d + l22 * eps_q
        lo, hi = self._psi_min, self._psi_max
        psi = lo if lo > psi else psi
        if hi < psi:
            psi = hi
        lo, hi = self._rs_min, self._rs_max
        rs = lo if lo > rs else rs
        if hi < rs:
            rs = hi
        self._psi, self._rs = psi, rs
        return eps_d, eps_q, ih_d, ih_q, psi, rs, l11, l12, l21, l22, r_scalar, det_r, mpp
