import math

import pytest

from rpemsim.pu import (
    TABLE_MACHINE_CONFIG,
    ConfigError,
    MachineConfig,
    MachineParams,
    machine_from_config,
)


def test_per_unit_base_reference_plant():
    # oracle: hand calculation from the 400 V / 4.93 A / 1000 rpm, 3 pole-pair
    # (50 Hz) ratings
    b, _ = MachineConfig(**TABLE_MACHINE_CONFIG).per_unit()
    assert b._fields == ("omega_n", "z_base", "psi_base")
    assert b.omega_n == pytest.approx(2 * math.pi * 50.0, rel=1e-12)
    assert b.z_base == pytest.approx(400.0 / (math.sqrt(3) * 4.93), rel=1e-9)
    assert b.z_base == pytest.approx(46.85, rel=1e-3)
    assert b.psi_base == pytest.approx(
        math.sqrt(2.0 / 3.0) * 400.0 / (2 * math.pi * 50.0), rel=1e-12
    )
    assert b.psi_base == pytest.approx(1.0395, rel=1e-3)


@pytest.mark.parametrize("key,value", [
    ("rated_speed_rpm", 0.0),
    ("rated_voltage_ll_V", -1.0),
    ("rated_current_A", 0.0),
    ("pole_pairs", 0),
])
def test_machine_config_rejects_nonpositive_ratings(key, value):
    with pytest.raises(ConfigError, match=f"MachineConfig.{key} must be"):
        MachineConfig(**{**TABLE_MACHINE_CONFIG, key: value})


@pytest.mark.parametrize("changes", [
    {"rated_speed_rpm": 5e-324},  # p * N / 60 rounds to 0 Hz: omega_n = 0
    {"rated_speed_rpm": 1e308},  # omega_n overflows
    {"rated_voltage_ll_V": 1e-300, "rated_current_A": 1e300},  # z_base rounds to 0
    {"rated_voltage_ll_V": 1e300, "rated_current_A": 1e-300},  # z_base overflows
    {"rated_voltage_ll_V": 1e-300, "rated_speed_rpm": 1e300},  # psi_base rounds to 0
])
def test_per_unit_rejects_ratings_whose_base_rounds_to_zero_or_overflows(changes):
    # with no check of the base, each divides by zero or gives a parameter of 0 or inf
    with pytest.raises(ConfigError, match="per-unit base"):
        MachineConfig(**{**TABLE_MACHINE_CONFIG, **changes}).per_unit()


def _si_machine(**changes):
    """The table machine's config with its SI set alone, no pu override."""
    cfg = {k: v for k, v in TABLE_MACHINE_CONFIG.items() if k != "psi_m_pu"}
    return {**cfg, **changes}


def test_si_machine_config_reference_plant():
    b, p = machine_from_config(_si_machine())
    # oracle: hand calculation, R/z_base and omega*L/z_base
    assert p.r_s == pytest.approx(0.0480, rel=1e-3)
    assert p.x_d == pytest.approx(0.639, rel=1e-3)
    assert p.x_q == pytest.approx(1.381, rel=1e-3)
    assert p.psi_m == pytest.approx(1.14 / b.psi_base, rel=1e-12)


def test_si_machine_config_zero_resistance_maps_to_zero():
    _, p = machine_from_config(_si_machine(Rs_ohm=0.0))
    assert p.r_s == 0.0


def test_si_machine_config_rejects_negative_resistance():
    with pytest.raises(ConfigError, match="Rs_ohm"):
        machine_from_config(_si_machine(Rs_ohm=-0.1))


@pytest.mark.parametrize("args,field", [
    ((True, 2.0, 0.0, 1.0), "x_d"),
    ((0.0, 2.0, 0.0, 1.0), "x_d"),
    ((0.5, math.nan, 0.0, 1.0), "x_q"),
    ((0.5, math.inf, 0.0, 1.0), "x_q"),
    ((0.5, 1.0, -1e-9, 1.0), "r_s"),
    ((0.5, 1.0, 0.0, math.nan), "psi_m"),
    ((0.5, 1.0, 0.0, "1.0"), "psi_m"),
])
def test_machine_params_reject_values_outside_their_declared_ranges(args, field):
    with pytest.raises(ConfigError, match=f"MachineParams.{field} must be"):
        MachineParams(*args)


def test_machine_params_store_integers_as_floats():
    p = MachineParams(1, 2, 0, 1)
    assert [type(v) for v in (p.x_d, p.x_q, p.r_s, p.psi_m)] == [float] * 4


@pytest.mark.parametrize("key,value", [
    ("Rs_ohm", -2.25), ("Ld_H", math.nan), ("Lq_H", math.inf), ("psi_m_Wb", -1.0),
    ("r_s_pu", -0.1), ("x_d_pu", 0.0), ("x_q_pu", math.nan), ("psi_m_pu", -math.inf),
])
def test_machine_config_rejects_a_parameter_outside_its_declared_range(key, value):
    # checked when the section is built, also where another value would win
    with pytest.raises(ConfigError, match=f"MachineConfig.{key} must be"):
        MachineConfig(**{**TABLE_MACHINE_CONFIG, key: value})


def test_machine_config_table_values():
    base, p = machine_from_config(TABLE_MACHINE_CONFIG)
    assert base.omega_n == pytest.approx(2 * math.pi * 50.0, rel=1e-12)
    assert p.psi_m == 0.895  # direct pu override wins
    assert p.r_s == pytest.approx(0.0480, rel=1e-3)


def test_machine_config_rejects_unknown_key():
    cfg = dict(TABLE_MACHINE_CONFIG)
    cfg["frobnicate"] = 1.0
    with pytest.raises(ConfigError, match="unknown"):
        machine_from_config(cfg)


def test_machine_config_rejects_missing_ratings():
    cfg = dict(TABLE_MACHINE_CONFIG)
    del cfg["rated_current_A"]
    with pytest.raises(ConfigError, match="missing"):
        machine_from_config(cfg)


def test_machine_config_pure_pu_path():
    cfg = {
        "rated_voltage_ll_V": 400.0,
        "rated_current_A": 4.93,
        "rated_speed_rpm": 1000.0,
        "pole_pairs": 3,
        "r_s_pu": 0.05,
        "x_d_pu": 0.6,
        "x_q_pu": 1.4,
        "psi_m_pu": 0.9,
    }
    _, p = machine_from_config(cfg)
    assert (p.r_s, p.x_d, p.x_q, p.psi_m) == (0.05, 0.6, 1.4, 0.9)


@pytest.mark.parametrize("key,value", [
    ("rated_voltage_ll_V", "abc"),
    ("rated_current_A", True),
    ("rated_current_A", None),
    ("psi_m_pu", [0.9]),
    ("pole_pairs", 2.5),
    ("pole_pairs", 3.0),
    ("convention", 1),  # no machine key now; rejected as unknown
    pytest.param("rated_speed_rpm", 10**400, id="rated_speed_rpm-beyond_float"),
])
def test_machine_config_rejects_non_numbers_and_non_integer_pole_pairs(key, value):
    cfg = {**TABLE_MACHINE_CONFIG, key: value}
    with pytest.raises(ConfigError, match=key):
        machine_from_config(cfg)


def test_machine_config_null_optional_value_is_unset():
    cfg = {**TABLE_MACHINE_CONFIG, "psi_m_pu": None}
    assert machine_from_config(cfg)[1].psi_m == pytest.approx(1.097, rel=1e-3)  # SI value


def test_machine_config_rejects_other_convention():
    # the base convention is amplitude-invariant and no key selects it: a
    # file naming any convention, that one too, is rejected
    for convention in ("power_invariant", "amplitude_invariant"):
        cfg = {**TABLE_MACHINE_CONFIG, "convention": convention}
        with pytest.raises(ConfigError, match=r"unknown machine config keys: \['convention'\]"):
            machine_from_config(cfg)
