"""Per-unit base system and machine parameters.

Base convention (amplitude-invariant, peak-phase):
  u_base   = sqrt(2/3) * U_n      (peak phase voltage from rated line-line)
  i_base   = sqrt(2) * I_n        (peak phase current from rated rms)
  z_base   = u_base / i_base
  omega_n  = 2*pi*f_n             (nominal electrical frequency)
  psi_base = u_base / omega_n
  tau_base = (3/2) * u_base * i_base * p / omega_n

With this choice the voltage equation keeps its SI shape unchanged in
per-unit, i.e. omega_n * psi_base = u_base.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Annotated, Any, Callable, Literal, NamedTuple, Optional

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid machine or scenario configuration."""


#: Range types, ``Annotated[base, description, test]``: a field declared with
#: one holds a value of its base type that passes its test. The tests are
#: chained comparisons, so NaN fails them.
Positive = Annotated[float, "a number > 0 and finite", lambda x: 0.0 < x < math.inf]
NonNegative = Annotated[float, "a number >= 0 and finite", lambda x: 0.0 <= x < math.inf]
Finite = Annotated[float, "a finite number", lambda x: -math.inf < x < math.inf]
Rate = Annotated[float, "a number in (0, 1]", lambda x: 0.0 < x <= 1.0]
Count = Annotated[int, "an integer >= 1", lambda x: x >= 1]


def in_range(value: Any, tp: Any) -> bool:
    """Whether number ``value`` passes the test of range type ``tp``."""
    return typing.get_args(tp)[2](value)


def check_fields(obj: Any, error: type[ConfigError] = ConfigError) -> None:
    """Raise ``error`` unless every field of dataclass ``obj`` holds a value
    of its declared type: for a float a number but not a bool (an int is
    stored as its float), for an int an int but not a bool, for a range
    type (``Positive``, ``NonNegative``, ``Finite``, ``Rate``, ``Count``
    above) a value of its base type that passes its test, for a ``Literal``
    a listed value, for an ``Optional`` also None, for a list or a
    fixed-length tuple a list or tuple of such values (stored as the
    declared container), for any other class an instance of it."""
    for name, conform, what in _field_rules(type(obj)):
        value = getattr(obj, name)
        try:
            conformed = conform(value)
        except (TypeError, OverflowError):  # OverflowError: an int beyond float range
            raise error(f"{type(obj).__name__}.{name} must be {what}, got {value!r}") from None
        if conformed is not value:
            object.__setattr__(obj, name, conformed)


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """The declared type of each field of dataclass ``cls``, resolved once."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def from_json(tp: Any, raw: Any, where: str, error: type[ConfigError] = ConfigError) -> Any:
    """``raw`` with each JSON object that stands for a dataclass built into
    it, keyed by the dataclass's field names; the dataclasses check the
    values. ``where`` names ``raw`` in the messages of ``error``."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(raw, dict):
            raise error(f"{where} must be an object, got {raw!r}")
        types = _field_types(tp)
        unknown = raw.keys() - types.keys()
        if unknown:
            raise error(f"unknown {where} keys: {sorted(unknown)}")
        missing = [f.name for f in dataclasses.fields(tp) if f.name not in raw
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise error(f"missing {where} keys: {missing}")
        return tp(**{k: from_json(types[k], v, f"{where}.{k}", error)
                     if isinstance(v, (dict, list)) else v for k, v in raw.items()})
    if typing.get_origin(tp) is list and isinstance(raw, list):
        (item,) = typing.get_args(tp)
        return [from_json(item, v, f"{where}[{i}]", error) for i, v in enumerate(raw)]
    return raw


@functools.cache
def _field_rules(cls: type) -> tuple[tuple[str, Callable[[Any], Any], str], ...]:
    return tuple((name, *_conformer(tp)) for name, tp in _field_types(cls).items())


def _mismatch(value: Any) -> Any:
    raise TypeError


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@functools.cache
def _conformer(tp: Any) -> tuple[Callable[[Any], Any], str]:
    """(conform, description) of type ``tp``: conform returns its argument as
    a ``tp`` or raises TypeError."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:  # a range type
        (conform, _), (what, test) = _conformer(args[0]), args[1:]
        return (lambda v: c if test(c := conform(v)) else _mismatch(v)), what
    if origin is typing.Union:  # Optional[X]
        conform, what = _conformer(next(a for a in args if a is not type(None)))
        return (lambda v: v if v is None else conform(v)), f"{what} or null"
    if origin is typing.Literal:
        what = f"one of {', '.join(map(repr, args))}"
        return (lambda v: v if v in args else _mismatch(v)), what
    if origin is list:
        item, what = _conformer(args[0])
        return (lambda v: [item(x) for x in v] if isinstance(v, (list, tuple))
                else _mismatch(v)), f"an array of {what}"
    if origin is tuple:
        items, whats = zip(*map(_conformer, args))
        return (lambda v: tuple(c(x) for c, x in zip(items, v))
                if isinstance(v, (list, tuple)) and len(v) == len(items)
                else _mismatch(v)), f"[{', '.join(whats)}]"
    if tp is float:
        return (lambda v: v if isinstance(v, float) else float(v) if _is_int(v)
                else _mismatch(v)), "a number"
    if tp is int:
        return (lambda v: v if _is_int(v) else _mismatch(v)), "an integer"
    what = {str: "a string", dict: "an object"}.get(tp, f"a {tp.__name__}")
    return (lambda v: v if isinstance(v, tp) else _mismatch(v)), what


class DqVector(NamedTuple):
    """Two-component value in the rotor (d, q) reference frame."""

    d: float
    q: float


@dataclass(frozen=True)
class BaseQuantities:
    """Per-unit base set for one machine."""

    u_base: Positive
    i_base: Positive
    z_base: Positive
    psi_base: Positive
    omega_n: Positive
    torque_base: Positive
    pole_pairs: Count

    def __post_init__(self) -> None:
        check_fields(self)
        if not math.isclose(self.z_base, self.u_base / self.i_base, rel_tol=1e-9):
            raise ConfigError("inconsistent base set: z_base != u_base / i_base")
        if not math.isclose(self.psi_base, self.u_base / self.omega_n, rel_tol=1e-9):
            raise ConfigError("inconsistent base set: psi_base != u_base / omega_n")


@dataclass(frozen=True)
class MachineParams:
    """Per-unit electrical parameters of an IPMSM.

    Used both for the physical plant and for the estimator's model copy.
    Saliency convention x_q >= x_d; equality is the degenerate
    surface-magnet case.
    """

    x_d: float
    x_q: float
    r_s: float
    psi_m: float

    def __post_init__(self) -> None:
        # chained comparisons, so that NaN and inf fail too
        if not (0.0 < self.x_d < math.inf and 0.0 < self.x_q < math.inf):
            raise ConfigError(
                f"reactances must be positive and finite, got x_d={self.x_d}, x_q={self.x_q}"
            )
        if not 0.0 <= self.r_s < math.inf:
            raise ConfigError(
                f"stator resistance must be non-negative and finite, got {self.r_s}"
            )
        if not 0.0 <= self.psi_m < math.inf:
            raise ConfigError(
                f"magnet flux linkage must be non-negative and finite, got {self.psi_m}"
            )
        if self.x_q < self.x_d - 1e-12:
            raise ConfigError("saliency convention violated: requires x_q >= x_d")


@dataclass(frozen=True)
class SiMachineData:
    """SI-unit electrical data as found on a datasheet."""

    rs_ohm: NonNegative
    ld_H: NonNegative
    lq_H: NonNegative
    psi_m_Wb: NonNegative

    def __post_init__(self) -> None:
        check_fields(self)


def make_base(
    rated_voltage_ll: float,
    rated_current: float,
    rated_frequency: float,
    pole_pairs: int,
) -> BaseQuantities:
    """Build a consistent per-unit base from nameplate ratings."""
    if rated_voltage_ll <= 0.0 or rated_current <= 0.0 or rated_frequency <= 0.0:
        raise ConfigError("ratings must be positive")
    u_base = math.sqrt(2.0 / 3.0) * rated_voltage_ll
    i_base = math.sqrt(2.0) * rated_current
    omega_n = TWO_PI * rated_frequency
    z_base = u_base / i_base
    psi_base = u_base / omega_n
    torque_base = 1.5 * u_base * i_base * pole_pairs / omega_n
    return BaseQuantities(
        u_base=u_base,
        i_base=i_base,
        z_base=z_base,
        psi_base=psi_base,
        omega_n=omega_n,
        torque_base=torque_base,
        pole_pairs=pole_pairs,
    )


def to_per_unit(si: SiMachineData, base: BaseQuantities) -> MachineParams:
    """Convert SI electrical data to per-unit on the given base."""
    return MachineParams(
        x_d=base.omega_n * si.ld_H / base.z_base,
        x_q=base.omega_n * si.lq_H / base.z_base,
        r_s=si.rs_ohm / base.z_base,
        psi_m=si.psi_m_Wb / base.psi_base,
    )


@dataclass(frozen=True)
class MachineConfig:
    """The machine section of a scenario: the ratings, then either the full
    SI set or the full pu set. Direct pu values win over SI-derived ones."""

    rated_voltage_ll_V: Positive
    rated_current_A: Positive
    rated_speed_rpm: Positive
    pole_pairs: Count
    Rs_ohm: Optional[float] = None
    Ld_H: Optional[float] = None
    Lq_H: Optional[float] = None
    psi_m_Wb: Optional[float] = None
    r_s_pu: Optional[float] = None
    x_d_pu: Optional[float] = None
    x_q_pu: Optional[float] = None
    psi_m_pu: Optional[float] = None
    convention: Literal["amplitude_invariant"] = "amplitude_invariant"

    def __post_init__(self) -> None:
        check_fields(self)


def machine_from_config(cfg: dict) -> tuple[BaseQuantities, MachineParams]:
    """Build base and per-unit parameters from a flat key-value config,
    the JSON form of :class:`MachineConfig`.

    Rated frequency is derived as f = p * N_n / 60 from speed and pole
    pairs. Unknown keys are rejected. The only accepted transform
    convention is "amplitude_invariant" (the default).
    """
    c = from_json(MachineConfig, cfg, "machine config")
    base = make_base(
        rated_voltage_ll=c.rated_voltage_ll_V,
        rated_current=c.rated_current_A,
        rated_frequency=c.pole_pairs * c.rated_speed_rpm / 60.0,
        pole_pairs=c.pole_pairs,
    )
    si = (c.Rs_ohm, c.Ld_H, c.Lq_H, c.psi_m_Wb)
    pu = {"r_s": c.r_s_pu, "x_d": c.x_d_pu, "x_q": c.x_q_pu, "psi_m": c.psi_m_pu}
    # pu values replace individual SI-derived ones
    overrides = {name: v for name, v in pu.items() if v is not None}
    if None not in si:
        return base, dataclasses.replace(to_per_unit(SiMachineData(*si), base), **overrides)
    if len(overrides) < len(pu):
        raise ConfigError(
            "machine config needs either the full SI set (Rs_ohm, Ld_H, Lq_H, psi_m_Wb) "
            "or the full pu set (r_s_pu, x_d_pu, x_q_pu, psi_m_pu)"
        )
    return base, MachineParams(**overrides)


#: Ratings and offline-identified data of the reference 3 kW IPMSM plant.
TABLE_MACHINE_CONFIG = {
    "rated_voltage_ll_V": 400.0,
    "rated_current_A": 4.93,
    "rated_speed_rpm": 1000.0,
    "pole_pairs": 3,
    "Rs_ohm": 2.25,
    "Ld_H": 0.0953,
    "Lq_H": 0.206,
    "psi_m_Wb": 1.14,
    # Offline-identified pu value; the Wb rating above maps to ~1.097 pu on
    # this base, the two disagree and the pu figure is the working reference.
    "psi_m_pu": 0.895,
}


def default_machine() -> tuple[BaseQuantities, MachineParams]:
    """Reference plant: base and per-unit parameters."""
    return machine_from_config(TABLE_MACHINE_CONFIG)
