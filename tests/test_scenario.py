import copy
import json
import math
import re
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpemsim.cli import main as cli_main
from rpemsim.plant import StepEvent
from rpemsim.pu import TABLE_MACHINE_CONFIG, ConfigError, MachineConfig
from rpemsim.runner import SimulationDiverged, convergence_metrics, run
from rpemsim.scenario import (
    ControlSection,
    EstimatorSection,
    PlantSection,
    Scenario,
    ScenarioError,
    load_scenario,
    preset_library,
    save_scenario,
    schedule_value,
)


def _quick(name="quick", duration=0.5, **kw):
    d = dict(
        name=name,
        duration_s=duration,
        control=ControlSection(tau_ref=[(0.0, 0.3)]),
        plant=PlantSection(noise_sigma_pu=0.0),
    )
    d.update(kw)
    return Scenario(**d)


# ---------------------------------------------------------------------------
# scenario validation and serialization
# ---------------------------------------------------------------------------


def test_zero_duration_rejected():
    with pytest.raises(ScenarioError):
        _quick(duration=0.0)


def test_event_beyond_duration_rejected(tmp_path, capsys):
    with pytest.raises(ScenarioError):
        _quick(events=[StepEvent(time_s=2.0, target="psi_m", factor=0.9)])
    # the last sample of a 0.02 s run is at 159 * 125 us = 0.019875 s; an
    # event after it used to pass and end the run's metrics in an IndexError
    for time_s in (0.02, 0.0199):
        with pytest.raises(ScenarioError, match="after the last sample"):
            _quick(duration=0.02, events=[StepEvent(time_s=time_s, target="psi_m", factor=0.9)])
    event = {"time_s": 0.0199, "target": "psi_m", "factor": 0.9}
    _assert_validate_rejects({"name": "x", "duration_s": 0.02, "events": [event]},
                             tmp_path, capsys)
    last = _quick(duration=0.02, events=[StepEvent(time_s=0.019875, target="psi_m", factor=0.9)])
    assert run(last).psi_m_true[-1] == pytest.approx(0.9 * 0.895, rel=1e-12)


def test_event_producing_invalid_params_rejected():
    with pytest.raises(Exception):
        _quick(duration=3.0, events=[StepEvent(time_s=1.0, target="psi_m", factor=-1.0)])


def test_unknown_scenario_key_rejected():
    with pytest.raises(ScenarioError, match="unknown"):
        Scenario.from_dict({"name": "x", "duration_s": 1.0, "bogus": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ScenarioError):
        Scenario.from_dict(
            {"name": "x", "duration_s": 1.0, "plant": {"nope": 2}}
        )


def test_schedule_value_steps():
    sched = [(0.0, 1.0), (1.0, 2.0), (3.0, -1.0)]
    assert schedule_value(sched, 0.0) == 1.0
    assert schedule_value(sched, 0.999) == 1.0
    assert schedule_value(sched, 1.0) == 2.0
    assert schedule_value(sched, 10.0) == -1.0


def test_preset_count_and_contents():
    presets = preset_library()
    fig_presets = [n for n in presets if n.startswith("fig")]
    assert len(fig_presets) == 16  # four panels for each of the four figures
    fig8c = presets["fig8c"]
    assert schedule_value(fig8c.speed_ref_schedule(), 0.0) == 0.0
    assert schedule_value(fig8c.control.tau_ref, 0.0) == 0.6


def test_presets_round_trip_losslessly(tmp_path):
    presets = preset_library()
    for name, sc in presets.items():
        path = tmp_path / f"{name}.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back.to_dict() == sc.to_dict()


def test_fig7a_all_three_algorithms_converge():
    # same operating point, one run per gain algorithm
    presets = preset_library()
    base = presets["fig7a"].to_dict()
    base["duration_s"] = 5.0
    for alg in ("sga", "gna", "phyint"):
        d = dict(base)
        d["estimator"] = {**d["estimator"], "algorithm": alg}
        rep = run(Scenario.from_dict(d)).reports["psi_m"]
        assert rep.converged, alg


def test_cli_sweep_parallel(tmp_path):
    out = tmp_path / "sweep"
    code = cli_main(["--out", str(out), "sweep", "fig7[ab]", "--jobs", "2"])
    assert code == 0
    assert (out / "fig7a.csv").exists() and (out / "fig7b.csv").exists()


def test_explicit_box_bounds_override_fraction(params):
    sc = Scenario.from_dict({
        "name": "boxed", "duration_s": 1.0,
        "estimator": {"box_psi_m_min": 0.85, "box_r_s_max": 0.05},
    })
    box = sc.parameter_box(params)
    assert box.psi_m_min == 0.85
    assert box.r_s_max == 0.05
    assert box.psi_m_max == pytest.approx(1.3 * params.psi_m, rel=1e-12)


def test_preset_events_default_step():
    presets = preset_library()
    ev = presets["fig7a"].events[0]
    assert ev.target == "psi_m" and ev.factor == 0.92 and ev.time_s == 1.0


# ---------------------------------------------------------------------------
# runner behavior
# ---------------------------------------------------------------------------


def test_run_deterministic_bitwise():
    sc = _quick(duration=0.4, plant=PlantSection(noise_sigma_pu=0.004))
    a = run(sc)
    b = run(sc)
    assert np.array_equal(a.psi_m_hat, b.psi_m_hat)
    assert np.array_equal(a.r_s_hat, b.r_s_hat)
    for col in a.log:
        assert np.array_equal(a.log[col], b.log[col])


def test_decimation_only_affects_log_volume():
    base = _quick(duration=0.4, plant=PlantSection(noise_sigma_pu=0.004))
    d1 = Scenario.from_dict({**base.to_dict(), "log_decimation": 1})
    d64 = Scenario.from_dict({**base.to_dict(), "log_decimation": 64})
    a, b = run(d1), run(d64)
    assert np.array_equal(a.psi_m_hat, b.psi_m_hat)  # states identical
    assert len(a.log["t"]) > len(b.log["t"])
    # decimated log rows are a subset of the full-rate log
    idx = np.searchsorted(a.log["t"], b.log["t"])
    assert np.array_equal(a.log["psi_m_hat"][idx], b.log["psi_m_hat"])
    # reports computed pre-decimation: identical
    assert a.reports["psi_m"] == b.reports["psi_m"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    sc = _quick(
        duration=0.2,
        plant=PlantSection(noise_sigma_pu=0.001),
        control=ControlSection(
            tau_ref=[(0.0, 0.3)], kp_d=1e12, kp_q=1e12, u_max_pu=1e300
        ),
    )
    # both end in the diagnostic, also where float arithmetic raises
    # OverflowError before a state turns non-finite
    for noise in (0.001, 0.0):
        sc = Scenario.from_dict(
            {**sc.to_dict(), "plant": {"noise_sigma_pu": noise}}
        )
        with pytest.raises(SimulationDiverged) as err:
            run(sc)
        msg = str(err.value)
        assert "t=" in msg
        assert "last valid sample" in msg
        # the last valid sample is the step before the failing step k
        k = int(re.search(r" at step (\d+); ", msg).group(1))
        assert k >= 1
        assert err.value.t == k * sc.t_samp_s
        assert f"last valid sample (t={(k - 1) * sc.t_samp_s:.6f}, " in msg


def test_speed_mode_follows_reference():
    sc = Scenario(
        name="spd",
        duration_s=1.5,
        plant=PlantSection(speed_mode="dynamic", inertia_H_s=0.3, load_torque_pu=0.1),
        control=ControlSection(mode="speed", speed_ref=[(0.0, 0.2)]),
    )
    res = run(sc)
    n_final = res.log["n"][-1]
    assert n_final == pytest.approx(0.2, abs=0.02)


def test_flux_step_event_applies_to_plant_only():
    sc = _quick(
        duration=1.2,
        control=ControlSection(tau_ref=[(0.0, 0.2)]),
        events=[StepEvent(time_s=0.5, target="psi_m", factor=0.92)],
    )
    res = run(sc)
    i = np.searchsorted(res.t_full, 0.5)
    assert res.psi_m_true[i - 1] == pytest.approx(0.895, rel=1e-12)
    assert res.psi_m_true[i + 1] == pytest.approx(0.92 * 0.895, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence metrics
# ---------------------------------------------------------------------------


def test_metrics_constant_trajectory():
    t = np.linspace(0, 1, 101)
    traj = np.full_like(t, 0.8)
    rep = convergence_metrics(t, traj, 0.8)
    assert rep.converged and rep.convergence_time == 0.0
    assert rep.steady_state_error == 0.0
    assert rep.overshoot == 0.0


def test_metrics_exponential_convergence_time():
    # oracle: analytic crossing time of an exponential into the band
    t = np.linspace(0, 10, 100_001)
    ref, x0 = 1.0, 1.1
    tau = 0.5
    traj = ref + (x0 - ref) * np.exp(-t / tau)
    rep = convergence_metrics(t, traj, ref, band=0.01)
    t_cross = tau * math.log(abs(x0 - ref) / (0.01 * ref))
    assert rep.converged
    assert rep.convergence_time == pytest.approx(t_cross, abs=2e-3)
    assert rep.overshoot == 0.0


def test_metrics_overshoot_and_band():
    t = np.linspace(0, 1, 1001)
    ref = 1.0
    traj = np.full_like(t, ref)
    traj[:100] = 2.0          # step from above
    traj[500] = 0.94          # 6 percent of the step beyond the reference
    rep = convergence_metrics(t, traj, ref, t0=0.0, step_size=1.0)
    assert rep.overshoot == pytest.approx(0.06, rel=1e-9)


def test_metrics_never_converged():
    t = np.linspace(0, 1, 101)
    rep = convergence_metrics(t, np.full_like(t, 2.0), 1.0)
    assert not rep.converged and rep.convergence_time is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate_preset(capsys):
    assert cli_main(["validate", "fig7a"]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "duration_s": -1.0}))
    assert cli_main(["validate", str(path)]) == 1


@pytest.mark.parametrize("estimator", [
    {"box_fraction": 1.5},          # default box reaches below zero
    {"box_r_s_min": -0.01},
    {"box_psi_m_min": -0.1},
    {"theta0_psi_m": -1.0},
    {"theta0_psi_m": 0.0},          # MTPA needs a positive flux estimate
    {"theta0_r_s": -0.02},
    # gain values the gain formulas cannot use; each of these used to run
    {"r_floor": -1.0},
    {"r_floor": 0.0},
    {"i_floor": -1.0},
    {"detR_floor": 0.0},
    {"r0": -1.0},
    {"r0": 0.0},
])
def test_cli_validate_rejects_box_and_theta0_that_run_refuses(tmp_path, capsys, estimator):
    _assert_validate_rejects({"name": "x", "duration_s": 1.0, "estimator": estimator},
                             tmp_path, capsys)


@pytest.mark.parametrize("fields", [
    {"plant": {"speed_mode": "dynamic", "inertia_H_s": 0.0}},
    {"plant": {"speed_mode": "dynamic", "inertia_H_s": math.nan}},
    {"events": [{"time_s": 0.01, "target": "r_s", "factor": math.nan}]},
    {"events": [{"time_s": math.nan, "target": "r_s", "factor": 0.9}]},
    {"events": [{"time_s": 0.01, "target": "speed_ref", "value": math.inf}]},
    {"duration_s": math.nan},
    {"duration_s": math.inf},
    {"t_samp_s": math.nan},
    {"plant": {"noise_sigma_pu": math.nan}},
    {"machine": {**TABLE_MACHINE_CONFIG, "r_s_pu": math.nan}},
    {"machine": {**TABLE_MACHINE_CONFIG, "x_d_pu": math.inf}},
    {"control": {"i_max_pu": math.nan}},
    {"control": {"u_max_pu": math.nan}},
    {"control": {"tau_max_pu": math.inf}},
    {"control": {"kp_d": math.nan}},
    {"control": {"ti_d": 0.0}},
    {"control": {"kp_q": -1.0}},
    {"control": {"ti_q": math.nan}},
    {"plant": {"speed_mode": "dynamic", "load_torque_pu": math.nan}},
    {"control": {"mode": "speed"}, "plant": {"inertia_H_s": 0.0}},
    {"control": {"mode": "speed"}, "plant": {"inertia_H_s": math.nan}},
    {"estimator": {"algorithm": "gna", "gain_cap": math.nan}},
    {"estimator": {"n_lim1_pu": math.nan}},
    {"estimator": {"detR_floor": math.nan}},
    {"estimator": {"r0": math.nan}},  # validated, then diverged at step 0
])
def test_cli_validate_rejects_non_finite_and_zero_inertia(tmp_path, capsys, fields):
    # json writes and reads NaN and Infinity, as a scenario file may hold them;
    # events and the machine section raise the ConfigError base class
    _assert_validate_rejects({"name": "x", "duration_s": 1.0, **fields}, tmp_path, capsys,
                             error=ConfigError)


# fig9d has both kinds of event: a factor (events[0]) and a value step
_VALID = preset_library()["fig9d"].to_dict()


def _declared_fields():
    """(path into a scenario dict, declared type) of every field."""
    out = [((name,), tp) for name, tp in get_type_hints(Scenario).items()]
    for section, cls in (
        ("machine", MachineConfig), ("plant", PlantSection), ("control", ControlSection),
        ("estimator", EstimatorSection), ("events", StepEvent),
    ):
        prefix = (section, 0) if section == "events" else (section,)
        out += [((*prefix, name), tp) for name, tp in get_type_hints(cls).items()]
    return out


def _other_json(tp):
    """JSON values of any type but the one ``tp`` declares, and for an int
    also non-integral numbers, for a Literal also strings not listed."""
    other = {
        str: st.text(max_size=4),
        float: st.integers() | st.floats(),
        bool: st.booleans(),
        list: st.lists(st.integers(), max_size=2),
        dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        None: st.none(),
    }
    if get_origin(tp) is Union:  # Optional[X]
        del other[None]
        (tp,) = (a for a in get_args(tp) if a is not type(None))
    if tp is int:
        del other[float]
        other[int] = st.floats().filter(lambda x: not x.is_integer())
    elif get_origin(tp) is Literal:
        other[str] = st.text(max_size=8).filter(lambda x: x not in get_args(tp))
    elif tp in (float, str):
        del other[tp]
    elif get_origin(tp) is list:
        del other[list]
    else:  # the machine dict and the section dataclasses are JSON objects
        del other[dict]
    return st.one_of(*other.values())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_from_dict_rejects_any_field_of_another_json_type(data):
    path, tp = data.draw(st.sampled_from(_declared_fields()))
    d = copy.deepcopy(_VALID)
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_other_json(tp))
    with pytest.raises(ScenarioError):
        Scenario.from_dict(d)


_VALID_TEXT = json.dumps({"name": "x", "duration_s": 1.0})


def _with(**fields) -> str:
    return json.dumps({"name": "x", "duration_s": 1.0, **fields})


@pytest.mark.parametrize("text", [
    pytest.param(_VALID_TEXT[:-5], id="truncated_json"),
    pytest.param("[" + _VALID_TEXT + "]", id="top_level_array"),
    pytest.param('"x"', id="top_level_string"),
    pytest.param(b'{"name": "\xff", "duration_s": 1.0}', id="not_utf8"),
    pytest.param(json.dumps({"duration_s": 1.0}), id="missing_name"),
    pytest.param(json.dumps({"name": 5, "duration_s": 1.0}), id="name_5"),
    pytest.param(_with(duration_s="abc"), id="duration_abc"),
    pytest.param(_with(duration_s=True), id="duration_true"),
    pytest.param(_with(estimator={"gamma_r": "big"}), id="gamma_r_big"),
    pytest.param(_with(control={"tau_ref": [[0.0, 0.3, 1.0]]}), id="tau_ref_triple"),
    pytest.param(_with(control={"speed_ref": [[0.0, math.nan]]}), id="speed_ref_nan"),
    pytest.param(_with(log_decimation=1.7), id="log_decimation_1.7"),
    pytest.param(_with(seed=1.5), id="seed_1.5"),
    pytest.param(_with(seed=-1), id="seed_negative"),
    pytest.param(_with(plant={"substeps": 2.5}), id="substeps_2.5"),
    pytest.param(_with(estimator={"sga_r_mode": "bogus"}), id="sga_r_mode_bogus"),
    pytest.param(_with(estimator={"gradient_mode_psi": "bogus"}), id="gradient_mode_bogus"),
    pytest.param(_with(machine={**TABLE_MACHINE_CONFIG, "rated_voltage_ll_V": "abc"}),
                 id="rated_voltage_abc"),
    pytest.param(_with(machine={**TABLE_MACHINE_CONFIG, "pole_pairs": 2.5}),
                 id="pole_pairs_2.5"),
    pytest.param(_with(t_samp_s=1e-9), id="t_samp_1e-9"),
    pytest.param(_with(duration_s=1e-5), id="zero_steps"),
    pytest.param(_with(duration_s=1e300, t_samp_s=1e-300), id="step_count_overflows"),
])
def test_cli_validate_rejects_malformed_files_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_step_cap_counts_plant_substeps():
    d = preset_library()["fig9a"].to_dict()  # 24 s: 192 000 samples
    d["plant"]["substeps"] = 52  # 9 984 000 plant steps
    assert Scenario.from_dict(d).plant.substeps == 52
    d["plant"]["substeps"] = 53  # 10 176 000
    with pytest.raises(ScenarioError, match="plant steps"):
        Scenario.from_dict(d)


def test_integer_numbers_are_stored_as_floats():
    sc = Scenario.from_dict({
        "name": "x", "duration_s": 1, "control": {"tau_ref": [[0, 1]]},
        "events": [{"time_s": 0, "target": "psi_m", "factor": 1}],
    })
    assert type(sc.duration_s) is float
    assert [type(x) for x in sc.control.tau_ref[0]] == [float, float]
    assert type(sc.events[0].factor) is float


def _assert_validate_rejects(d, tmp_path, capsys, error=ScenarioError):
    """``Scenario.from_dict`` raises ``error`` and ``rpemsim validate``
    exits 1 with a one-line error."""
    with pytest.raises(error):
        Scenario.from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1


# a valid 0.01 s scenario with both kinds of event: a factor (events[0])
# and a value step (events[1])
_SHORT = {
    "name": "x", "duration_s": 0.01, "machine": dict(TABLE_MACHINE_CONFIG),
    "plant": {}, "control": {"tau_ref": [[0.0, 0.2]], "speed_ref": [[0.0, 0.0]]},
    "estimator": {},
    "events": [{"time_s": 0.005, "target": "r_s", "factor": 0.92},
               {"time_s": 0.005, "target": "load_torque", "value": 0.1}],
}


def _number_paths():
    """Path into ``_SHORT`` of every number: each number field of the
    scenario, its sections and the machine, each entry of a schedule, and
    the numbers each event holds."""
    out = []
    for path, tp in _declared_fields():
        if get_origin(tp) is Union:  # Optional[X]
            (tp,) = (a for a in get_args(tp) if a is not type(None))
        if path[0] == "events":
            out += [("events", i, path[-1]) for i, ev in enumerate(_SHORT["events"])
                    if path[-1] in ev and tp is float]
        elif tp in (float, int):
            out.append(path)
        elif get_origin(tp) is list and path[0] == "control":  # a schedule
            out += [(*path, 0, 0), (*path, 0, 1)]
    return out


# the inputs that run although they are not finite: an inertia nothing
# uses, and a parameter box open upwards
_ACCEPTED_NON_FINITE = {
    *{(("plant", "inertia_H_s"), x) for x in (math.nan, math.inf, -math.inf)},
    (("estimator", "box_psi_m_max"), math.inf),
    (("estimator", "box_r_s_max"), math.inf),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("path", _number_paths(), ids=lambda p: ".".join(map(str, p)))
def test_validate_rejects_each_non_finite_number(tmp_path, capsys, path, value):
    d = copy.deepcopy(_SHORT)
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    if (path, value) in _ACCEPTED_NON_FINITE:
        assert Scenario.from_dict(d).name == "x"
    else:
        _assert_validate_rejects(d, tmp_path, capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", ["psi_m", "r_s"])
def test_report_of_a_zero_reference_is_valid_json(tmp_path, target):
    # the relative steady-state error of a zero reference used to be
    # written as Infinity, which is not JSON, with a numpy RuntimeWarning
    path = tmp_path / "zero.json"
    event = {"time_s": 0.005, "target": target, "value": 0.0}
    path.write_text(json.dumps({"name": "zero", "duration_s": 0.01, "events": [event]}))
    assert cli_main(["--out", str(tmp_path / "o"), "sim", str(path)]) == 0

    def no_constant(name):
        raise ValueError(name)

    text = (tmp_path / "o" / "zero_report.json").read_text()
    report = json.loads(text, parse_constant=no_constant)
    assert report["reports"][target]["steady_state_error"] is None


@pytest.mark.parametrize("name", ["../x", "a\\b", "a\0b"])
def test_cli_rejects_a_name_that_leaves_the_output_directory(tmp_path, capsys, name):
    # sim writes <name>.csv into --out: "../x" used to land beside it, and
    # a NUL ended in a ValueError traceback
    _assert_validate_rejects({"name": name, "duration_s": 0.01}, tmp_path, capsys)
    out = tmp_path / "o" / "a"
    assert cli_main(["--out", str(out), "sim", str(tmp_path / "bad.json")]) == 1
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [tmp_path / "bad.json"]


def test_explicit_bounds_make_a_wide_box_fraction_valid(params):
    sc = Scenario.from_dict({
        "name": "boxed", "duration_s": 1.0,
        "estimator": {"box_fraction": 1.5, "box_psi_m_min": 0.5, "box_r_s_min": 0.0},
    })
    box = sc.parameter_box(params)
    assert (box.psi_m_min, box.r_s_min) == (0.5, 0.0)
    assert box.r_s_max == pytest.approx(2.5 * params.r_s, rel=1e-12)


def test_cli_sim_writes_outputs(tmp_path):
    sc = _quick(duration=0.2)
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    out = tmp_path / "out"
    assert cli_main(["--out", str(out), "sim", str(path)]) == 0
    assert (out / "quick.csv").exists()
    report = json.loads((out / "quick_report.json").read_text())
    assert "psi_m" in report["reports"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_sim_divergence_exit_code(tmp_path):
    sc = _quick(
        duration=0.2,
        plant=PlantSection(noise_sigma_pu=0.001),
        control=ControlSection(
            tau_ref=[(0.0, 0.3)], kp_d=1e12, kp_q=1e12, u_max_pu=1e300
        ),
    )
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    assert cli_main(["--out", str(tmp_path / "o"), "sim", str(path)]) == 2


def test_cli_map_writes_fixed_header(tmp_path):
    out = tmp_path / "maps"
    code = cli_main(
        ["--out", str(out), "map", "all", "--points", "7"]
    )
    assert code == 0
    header = (out / "map_all.csv").read_text().splitlines()[0]
    assert header == (
        "n_pu,tau_pu,eps_d,eps_q,psi11,psi12,psi21,psi22,"
        "r_scalar,det_R,re_l1,im_l1,re_l2,im_l2,z_euler_mag,z_trap_mag"
    )


@pytest.mark.parametrize("argv", [
    ["map", "all", "--points", "1"],
    ["map", "all", "--speed-range", "1", "-1"],
    ["map", "all", "--torque-range", "0.5", "0.5"],
    ["map", "all", "--torque-range", "0", "inf"],
    ["map", "all", "--speed-range", "nan", "1"],
    ["map", "all", "--speed-range", "0", "5e-324", "--points", "3"],
    ["map", "all", "--delta-psi", "nan"],
    ["map", "all", "--delta-rs", "inf"],
    ["eig", "--points", "0"],
    ["eig", "--points", "1"],
    ["eig", "--speed-range", "1.2", "0"],
    ["eig", "--speed-range", "0", "inf"],
])
def test_cli_map_and_eig_reject_bad_grid_input(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli_main(["--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_map_surface_writes_its_columns_of_map_all(tmp_path):
    out = tmp_path / "maps"
    assert cli_main(["--out", str(out), "map", "all", "--points", "5"]) == 0
    *all_lines, end = (out / "map_all.csv").read_bytes().split(b"\r\n")
    assert end == b""
    rows = [line.split(b",") for line in all_lines]
    header = rows[0]
    written = []
    for surface in ("sensitivity", "gradient", "hessian", "stability"):
        assert cli_main(["--out", str(out), "map", surface, "--points", "5"]) == 0
        lines = (out / f"map_{surface}.csv").read_bytes().split(b"\r\n")
        columns = lines[0].split(b",")
        assert columns[:2] == [b"n_pu", b"tau_pu"]
        keep = [header.index(c) for c in columns]
        assert lines == [b",".join(row[i] for i in keep) for row in rows] + [b""]
        written += columns[2:]
    # the four surfaces split the columns of map all between them
    assert written == header[2:]


@pytest.mark.parametrize("argv", [
    ["eig", "--speed-range", "-1e-3", "1"],
    ["map", "bogus"],
    ["map", "all", "--points", "many"],
    ["sim"],
    ["frobnicate"],
])
def test_cli_usage_error_exits_1_not_the_divergence_code(tmp_path, capsys, argv):
    assert cli_main(["--out", str(tmp_path / "o"), *argv]) == 1
    assert "error: " in capsys.readouterr().err


def test_cli_negative_range_bound_in_decimal_form(tmp_path, capsys):
    assert cli_main(["eig", "--help"]) == 0
    assert "decimal form" in capsys.readouterr().out
    out = tmp_path / "eig"
    assert cli_main(["--out", str(out), "eig", "--speed-range", "-0.001", "1", "--points", "3"]) == 0
    assert (out / "eigenvalues.csv").read_text().splitlines()[1].startswith("-0.001,")


def test_cli_eig_writes(tmp_path):
    out = tmp_path / "eig"
    assert cli_main(["--out", str(out), "eig", "--points", "11"]) == 0
    assert (out / "eigenvalues.csv").exists()


def test_cli_unknown_preset_is_validation_error(tmp_path):
    assert cli_main(["--out", str(tmp_path), "sim", "not_a_preset"]) == 1


def test_log_csv_columns(tmp_path):
    res = run(_quick(duration=0.1))
    path = tmp_path / "log.csv"
    res.write_csv(str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert header == [
        "t", "n", "i_d", "i_q", "i_hat_d", "i_hat_q", "eps_d", "eps_q",
        "psi_m_hat", "r_s_hat", "psi_m_true", "r_s_true",
        "L11", "L12", "L21", "L22", "r", "detR",
    ]


def test_smoothed_criterion_descends_during_convergence():
    # noiseless flux-step run: the smoothed quadratic criterion decays
    # monotonically once the post-step predictor transient has passed
    sc = Scenario(
        name="vn",
        duration_s=3.0,
        plant=PlantSection(noise_sigma_pu=0.0),
        control=ControlSection(tau_ref=[(0.0, 0.4)]),
        events=[StepEvent(time_s=0.5, target="psi_m", factor=0.92)],
        log_decimation=1,
    )
    sc = Scenario.from_dict({**sc.to_dict(), "control": {**sc.to_dict()["control"], "tau_ref": [[0.0, 0.4]]}})
    res = run(Scenario.from_dict({**sc.to_dict()}))
    v = 0.5 * (res.log["eps_d"] ** 2 + res.log["eps_q"] ** 2)
    alpha = 1e-3
    smooth = np.empty_like(v)
    acc = v[0]
    for i, val in enumerate(v):
        acc += alpha * (val - acc)
        smooth[i] = acc
    t = res.log["t"]
    sel = t >= 0.7  # past the step and the predictor transient
    diffs = np.diff(smooth[sel])
    assert np.all(diffs <= 1e-12)
