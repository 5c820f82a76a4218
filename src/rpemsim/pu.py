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

import math
from dataclasses import dataclass
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid machine or scenario configuration."""


class DqVector(NamedTuple):
    """Two-component value in the rotor (d, q) reference frame."""

    d: float
    q: float


@dataclass(frozen=True)
class BaseQuantities:
    """Per-unit base set for one machine."""

    u_base: float
    i_base: float
    z_base: float
    psi_base: float
    omega_n: float
    torque_base: float
    pole_pairs: int

    def __post_init__(self) -> None:
        for name in ("u_base", "i_base", "z_base", "psi_base", "omega_n", "torque_base"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"base quantity {name} must be positive")
        if self.pole_pairs < 1:
            raise ConfigError("pole_pairs must be a positive integer")
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

    rs_ohm: float
    ld_H: float
    lq_H: float
    psi_m_Wb: float

    def __post_init__(self) -> None:
        if self.rs_ohm < 0.0 or self.ld_H < 0.0 or self.lq_H < 0.0 or self.psi_m_Wb < 0.0:
            raise ConfigError("SI machine data must be non-negative")


def make_base(
    rated_voltage_ll: float,
    rated_current: float,
    rated_frequency: float,
    pole_pairs: int,
) -> BaseQuantities:
    """Build a consistent per-unit base from nameplate ratings."""
    if rated_voltage_ll <= 0.0 or rated_current <= 0.0 or rated_frequency <= 0.0:
        raise ConfigError("ratings must be positive")
    if int(pole_pairs) != pole_pairs or pole_pairs < 1:
        raise ConfigError("pole_pairs must be a positive integer")
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
        pole_pairs=int(pole_pairs),
    )


def to_per_unit(si: SiMachineData, base: BaseQuantities) -> MachineParams:
    """Convert SI electrical data to per-unit on the given base."""
    return MachineParams(
        x_d=base.omega_n * si.ld_H / base.z_base,
        x_q=base.omega_n * si.lq_H / base.z_base,
        r_s=si.rs_ohm / base.z_base,
        psi_m=si.psi_m_Wb / base.psi_base,
    )


# Machine config file schema: flat key-value pairs, all keys optional except
# the ratings. Direct pu overrides win over SI-derived values.
_REQUIRED_KEYS = {
    "rated_voltage_ll_V",
    "rated_current_A",
    "rated_speed_rpm",
    "pole_pairs",
}
_SI_KEYS = {"Rs_ohm", "Ld_H", "Lq_H", "psi_m_Wb"}
_PU_KEYS = {"r_s_pu", "x_d_pu", "x_q_pu", "psi_m_pu"}
_OPTIONAL_KEYS = _SI_KEYS | _PU_KEYS | {"convention"}


def machine_from_config(cfg: dict) -> tuple[BaseQuantities, MachineParams]:
    """Build base and per-unit parameters from a flat key-value config.

    Rated frequency is derived as f = p * N_n / 60 from speed and pole
    pairs. Unknown keys are rejected. The only accepted transform
    convention is "amplitude_invariant" (the default).
    """
    unknown = set(cfg) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown machine config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(cfg)
    if missing:
        raise ConfigError(f"missing machine config keys: {sorted(missing)}")
    convention = cfg.get("convention", "amplitude_invariant")
    if convention != "amplitude_invariant":
        raise ConfigError(f"unsupported transform convention: {convention!r}")

    pole_pairs = int(cfg["pole_pairs"])
    frequency = pole_pairs * float(cfg["rated_speed_rpm"]) / 60.0
    base = make_base(
        rated_voltage_ll=float(cfg["rated_voltage_ll_V"]),
        rated_current=float(cfg["rated_current_A"]),
        rated_frequency=frequency,
        pole_pairs=pole_pairs,
    )

    have_si = _SI_KEYS <= set(cfg)
    if have_si:
        si = SiMachineData(
            rs_ohm=float(cfg["Rs_ohm"]),
            ld_H=float(cfg["Ld_H"]),
            lq_H=float(cfg["Lq_H"]),
            psi_m_Wb=float(cfg["psi_m_Wb"]),
        )
        params = to_per_unit(si, base)
    elif _PU_KEYS <= set(cfg):
        params = None
    else:
        raise ConfigError(
            "machine config needs either the full SI set "
            f"{sorted(_SI_KEYS)} or the full pu set {sorted(_PU_KEYS)}"
        )

    # pu overrides replace individual derived values
    values = {
        "x_d": params.x_d if params else 0.0,
        "x_q": params.x_q if params else 0.0,
        "r_s": params.r_s if params else 0.0,
        "psi_m": params.psi_m if params else 0.0,
    }
    for key, field in (
        ("x_d_pu", "x_d"),
        ("x_q_pu", "x_q"),
        ("r_s_pu", "r_s"),
        ("psi_m_pu", "psi_m"),
    ):
        if key in cfg:
            values[field] = float(cfg[key])
    return base, MachineParams(**values)


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
