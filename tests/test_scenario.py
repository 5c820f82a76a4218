import argparse
import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpemsim
from rpemsim import runner
from rpemsim.cli import main as cli_main
from rpemsim.pu import TABLE_MACHINE_CONFIG, ConfigError, MachineConfig
from rpemsim.runner import CONVERGENCE_BAND, SimulationDiverged, convergence_metrics, run
from rpemsim.scenario import (
    EVENT_TOL_S,
    INPUTS,
    PRESETS,
    ControlSection,
    EstimatorSection,
    PlantSection,
    Scenario,
    ScenarioError,
    StepEvent,
    load_scenario,
    preset,
    preset_library,
    save_scenario,
    schedule_segments,
    schedule_value,
)
from drawn import NEAR_SAMPLE, at
from test_golden_runs import _short


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
    # an event at, or within EVENT_TOL_S after, the last sample applies there
    for time_s in (159 * 125e-6, 159 * 125e-6 + 5e-13):
        last = _quick(duration=0.02, events=[StepEvent(time_s=time_s, target="psi_m", factor=0.9)])
        res = run(last)
        assert res.psi_m_true[-2] == 0.895
        assert res.psi_m_true[-1] == pytest.approx(0.9 * 0.895, rel=1e-12)


def test_event_producing_invalid_params_rejected():
    with pytest.raises(ScenarioError, match="t=1.0s produces invalid parameters"):
        _quick(duration=3.0, events=[StepEvent(time_s=1.0, target="psi_m", factor=-1.0)])


def test_plant_schedule_applies_a_flux_factor(params):
    sc = _quick(duration=3.0, events=[StepEvent(time_s=1.0, target="psi_m", factor=0.92)])
    (t0, before), (t1, after) = sc.validate().schedule
    assert (t0, before) == (0.0, (*dataclasses.astuple(params), 0.0, 0.3, 0.0))
    assert t1 == 1.0
    after = dict(zip(INPUTS, after))
    assert after["psi_m"] == pytest.approx(0.92 * params.psi_m, rel=1e-12)
    # the other inputs are untouched
    assert {k: v for k, v in after.items() if k != "psi_m"} == {
        "x_d": params.x_d, "x_q": params.x_q, "r_s": params.r_s,
        "speed_ref": 0.0, "tau_ref": 0.3, "load_torque": 0.0,
    }


def test_unsorted_events_rejected():
    events = [
        StepEvent(time_s=2.0, target="psi_m", factor=0.9),
        StepEvent(time_s=1.0, target="r_s", factor=0.9),
    ]
    with pytest.raises(ScenarioError, match="sorted"):
        _quick(duration=3.0, events=events)


def test_reactance_steps_at_one_instant_are_checked_together(params):
    # x_d = 2.0 alone would break x_q >= x_d; the run applies every event of
    # an instant before it steps, so only the state after both is checked
    events = [
        StepEvent(time_s=0.01, target="x_d", value=2.0),
        StepEvent(time_s=0.01, target="x_q", value=2.5),
    ]
    sc = _quick(duration=0.02, events=events)
    assert [(t, x_d, x_q) for t, (x_d, x_q, *_) in sc.validate().schedule] == [
        (0.0, params.x_d, params.x_q), (0.01, 2.0, 2.5),
    ]
    run(sc)


def test_parameter_event_follows_the_schedule_timing_rule():
    # an event applies from the first sample t with time_s <= t + 1e-12,
    # whatever its target
    time_s = 40 * 125e-6 + 5e-13
    sc = _quick(duration=0.01, events=[
        StepEvent(time_s=time_s, target="psi_m", factor=0.9),
        StepEvent(time_s=time_s, target="speed_ref", value=0.1),
    ])
    res = run(sc)
    assert res.psi_m_true[39] == 0.895
    assert res.psi_m_true[40] == pytest.approx(0.9 * 0.895, rel=1e-12)
    # the prescribed speed is logged every 8th sample: rows 4 and 5 are samples 32 and 40
    assert (res.log["n"][4], res.log["n"][5]) == (0.0, 0.1)


def test_each_input_steps_at_the_sample_its_own_schedule_names():
    # the factor step at 40 dt + 0.6e-12 s applies from sample 40; the value
    # step at 40 dt + 1.5e-12 s is past sample 40's tolerance, so it applies
    # from sample 41 and not already at sample 40
    dt = 125e-6
    res = run(_quick(duration=0.01, events=[
        StepEvent(time_s=40 * dt + 0.6e-12, target="psi_m", factor=0.9),
        StepEvent(time_s=40 * dt + 1.5e-12, target="psi_m", value=0.5),
    ]))
    assert res.psi_m_true[39] == 0.895
    assert res.psi_m_true[40] == 0.9 * 0.895
    assert res.psi_m_true[41] == 0.5


def test_schedule_entries_before_t0_apply_from_t0(params):
    sc = _quick(control=ControlSection(tau_ref=[(-1.0, 0.1), (0.0, 0.3)], speed_ref=[(-2.0, 0.2)]))
    assert sc.validate().schedule == [(0.0, (*dataclasses.astuple(params), 0.2, 0.3, 0.0))]


@settings(max_examples=200, deadline=None)
@given(events=st.lists(
    st.tuples(  # (target, sample, offset from the sample, value)
        st.sampled_from(["psi_m", "speed_ref"]), st.integers(0, 2), NEAR_SAMPLE,
        st.floats(0.5, 1.2),
    ),
    min_size=2, max_size=6,
))
# a later step within the tolerance of an earlier one must not move it forward
@example(events=[("psi_m", 2, 0.6e-12, 0.9), ("psi_m", 2, 1.5e-12, 0.5)])
def test_value_events_apply_from_the_first_sample_within_the_tolerance(events):
    dt = 125e-6
    steps = sorted((at(k, offset, dt), target, value) for target, k, offset, value in events)
    sc = _quick(duration=4 * dt, log_decimation=1, events=[
        StepEvent(time_s=time_s, target=target, value=value) for time_s, target, value in steps
    ])

    def inputs(k):  # (psi_m, speed_ref) after the last step at or before sample k
        now = {"psi_m": 0.895, "speed_ref": 0.0}
        now.update((target, value) for time_s, target, value in steps
                   if time_s <= k * dt + EVENT_TOL_S)
        return now["psi_m"], now["speed_ref"]

    res = run(sc)
    logged = list(zip(res.psi_m_true.tolist(), res.log["n"].tolist()))
    assert logged == [inputs(k) for k in range(4)]
    assert sc.validate().n0 == inputs(0)[1]


@settings(max_examples=150, deadline=None)
@given(
    dt=st.sampled_from([125e-6, 1e-4, 0.1 / 3]),
    n_steps=st.integers(0, 12),
    rows=st.lists(st.tuples(st.integers(-1, 15), NEAR_SAMPLE), min_size=1, max_size=8),
)
# rows 1e-12 s apart on one sample, on either side of its tolerance
@example(dt=125e-6, n_steps=6, rows=[(3, -0.5e-12), (3, 0.5e-12), (3, 1.5e-12)])
@example(dt=125e-6, n_steps=6, rows=[(0, 0.0), (0, 1e-12), (6, -2e-12), (9, 0.0)])
def test_segments_give_each_step_the_row_the_cursor_reads_there(dt, n_steps, rows):
    times = sorted(at(k, offset, dt) for k, offset in rows)
    schedule = [(0.0, "start")] + [(t, j) for j, t in enumerate(times)]
    segments = list(schedule_segments(schedule, dt, n_steps))
    starts = [k0 for k0, _, _ in segments]
    ends = [k1 for _, k1, _ in segments]
    # non-empty, contiguous and covering [0, n_steps)
    assert all(k0 < k1 for k0, k1 in zip(starts, ends))
    assert [0, *ends] == [*starts, n_steps]
    assert [row for k0, k1, row in segments for _ in range(k0, k1)] == [
        schedule_value(schedule, k * dt) for k in range(n_steps)
    ]


@pytest.mark.parametrize("machine", [
    {"Ld_H": 0.0},
    {"Lq_H": 1e-320},  # x_q underflows below x_d: the saliency rule
    {"x_d_pu": 2.0},  # the pu value, not the SI set, breaks the saliency rule
])
def test_cli_validate_names_the_machine_inductance_that_fails(tmp_path, capsys, machine):
    d = {"name": "x", "duration_s": 0.01, "machine": {**TABLE_MACHINE_CONFIG, **machine}}
    _assert_validate_rejects(d, tmp_path, capsys)
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(d)
    si = tuple(d["machine"][k] for k in ("Rs_ohm", "Ld_H", "Lq_H", "psi_m_Wb"))
    assert str(err.value).startswith(f"machine (Rs_ohm, Ld_H, Lq_H, psi_m_Wb) = {si}: ")
    # the table machine's psi_m_pu, and any other pu value, is named as given
    pu = {k: v for k, v in d["machine"].items() if k.endswith("_pu")}
    assert all(f"{k} = {v}" in str(err.value) for k, v in pu.items())


@pytest.mark.parametrize("machine,want", [
    ({"Ld_H": 0.0, "x_d_pu": 0.3}, {"x_d": 0.3}),
    # the SI pair breaks the saliency rule; the pu pair that replaces it does not
    ({"Ld_H": 0.3, "Lq_H": 0.2, "x_d_pu": 0.5, "x_q_pu": 1.0}, {"x_d": 0.5, "x_q": 1.0}),
])
def test_machine_pu_values_replace_si_values_that_do_not_convert(tmp_path, machine, want):
    # direct pu values win over SI-derived ones before the parameters are checked
    d = {"name": "x", "duration_s": 0.01, "machine": {**TABLE_MACHINE_CONFIG, **machine}}
    _, params = MachineConfig(**d["machine"]).per_unit()
    _, table = MachineConfig(**TABLE_MACHINE_CONFIG).per_unit()
    assert params == dataclasses.replace(table, **want)
    path = tmp_path / "pu.json"
    path.write_text(json.dumps(d))
    assert cli_main(["validate", str(path)]) == 0


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
    # an entry applies from 1e-12 s (EVENT_TOL_S) before its time on
    assert schedule_value(sched, 1.0 - 2e-12) == 1.0
    assert schedule_value(sched, 1.0 - 1e-12) == 2.0
    assert schedule_value(sched, 1.0 + 1e-12) == 2.0
    # the first entry applies before its own time too
    assert schedule_value(sched, -1.0) == 1.0


def test_preset_count_and_contents():
    presets = preset_library()
    fig_presets = [n for n in presets if n.startswith("fig")]
    assert len(fig_presets) == 16  # four panels for each of the four figures
    fig8c = presets["fig8c"]
    (t0, inputs0), (t1, inputs1) = fig8c.validate().schedule
    inputs0, inputs1 = dict(zip(INPUTS, inputs0)), dict(zip(INPUTS, inputs1))
    assert (t0, inputs0["speed_ref"], inputs0["tau_ref"]) == (0.0, 0.0, 0.6)
    # the resistance step at 1 s is the only other row
    assert t1 == 1.0 and inputs1 == {**inputs0, "r_s": 0.92 * inputs0["r_s"]}


def test_presets_round_trip_losslessly(tmp_path):
    presets = preset_library()
    for name, sc in presets.items():
        path = tmp_path / f"{name}.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back.to_dict() == sc.to_dict()


def test_saved_scenario_loads_back_equal_with_every_machine_key(tmp_path):
    machine = MachineConfig(
        rated_voltage_ll_V=400.0, rated_current_A=4.93, rated_speed_rpm=1000.0, pole_pairs=3,
        r_s_pu=0.05, x_d_pu=0.6, x_q_pu=1.4, psi_m_pu=0.9,
    )
    sc = _quick(duration=0.01, machine=machine)
    path = tmp_path / "pu_machine.json"
    save_scenario(sc, str(path))
    saved = json.loads(path.read_text())["machine"]
    # every key is written, the unset SI set as null
    assert saved == {f.name: getattr(machine, f.name) for f in dataclasses.fields(MachineConfig)}
    assert [saved[k] for k in ("Rs_ohm", "Ld_H", "Lq_H", "psi_m_Wb")] == [None] * 4
    back = load_scenario(str(path))
    assert back == sc
    assert back.machine == machine


@pytest.mark.parametrize("key,value", [("r_s_pu", -0.1), ("x_d_pu", math.nan)])
def test_machine_value_out_of_range_is_rejected_at_load(monkeypatch, key, value):
    # the machine section is built and checked with the others, before
    # validate() runs, and the message names the field
    monkeypatch.setattr(Scenario, "validate", lambda self: pytest.fail("validate() ran"))
    d = {"name": "x", "duration_s": 1.0, "machine": {**TABLE_MACHINE_CONFIG, key: value}}
    with pytest.raises(ScenarioError, match=f"MachineConfig.{key} must be"):
        Scenario.from_dict(d)


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
    # worker processes write the same bytes as the sweep in this process
    serial = tmp_path / "serial"
    assert cli_main(["--out", str(serial), "sweep", "fig7[ab]", "--jobs", "1"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fig7a.csv", "fig7a_report.json", "fig7b.csv", "fig7b_report.json"]
    assert sorted(p.name for p in serial.iterdir()) == names
    assert all((out / name).read_bytes() == (serial / name).read_bytes() for name in names)


def _child_env() -> dict:
    """The environment of a child interpreter that imports this rpemsim."""
    paths = [str(Path(rpemsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_cli_import_loads_no_process_pool():
    # only a sweep with --jobs > 1 needs the process pool; every other
    # command would pay its import time
    code = "import sys, rpemsim.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def test_cli_sweep_finishes_the_batch_past_a_diverged_preset(tmp_path, capsys, monkeypatch):
    # one diverged preset used to abort the whole sweep with no further output
    def run_or_diverge(scenario):
        if scenario.name == "fig7a":
            raise SimulationDiverged(0.0, "i_d = nan at step 0")
        return run(dataclasses.replace(scenario, duration_s=0.01, events=[]))

    monkeypatch.setattr("rpemsim.cli.run", run_or_diverge)
    out = tmp_path / "sweep"
    assert cli_main(["--out", str(out), "sweep", "fig7[ab]", "--jobs", "1"]) == 2
    diverged, ok = capsys.readouterr().out.splitlines()
    assert diverged.startswith("fig7a: diverged: ") and ok.startswith("fig7b: ok ")
    assert sorted(p.name for p in out.iterdir()) == ["fig7b.csv", "fig7b_report.json"]


def test_explicit_box_bounds_override_fraction(params):
    sc = Scenario.from_dict({
        "name": "boxed", "duration_s": 1.0,
        "estimator": {"box_psi_m_min": 0.85, "box_r_s_max": 0.05},
    })
    box = sc.validate().estimator.box
    assert box.psi_m_min == 0.85
    assert box.r_s_max == 0.05
    assert box.psi_m_max == pytest.approx(1.3 * params.psi_m, rel=1e-12)


def test_preset_events_default_step():
    presets = preset_library()
    ev = presets["fig7a"].events[0]
    assert ev.target == "psi_m" and ev.factor == 0.92 and ev.time_s == 1.0


def test_preset_table_names_every_preset_once():
    assert len(PRESETS) == 26
    assert sorted(PRESETS) == sorted(preset_library())


def test_one_preset_builds_as_in_the_library():
    library = preset_library()
    for name in PRESETS:
        assert preset(name).to_dict() == library[name].to_dict(), name


def test_a_built_preset_shares_no_list_with_the_table():
    preset("fig9c").control.speed_ref.append((20.0, 1.0))
    assert preset("fig9c").control.speed_ref == [(0.0, 0.001), (12.0, 0.005)]


def test_an_event_edited_in_one_preset_document_leaves_every_other_unchanged():
    # each document owns its event dicts, so an in-place edit stays local
    for name, doc in PRESETS.items():
        before = copy.deepcopy(PRESETS)
        event = doc["events"][0]
        time_s = event["time_s"]
        event["time_s"] = 0.5
        try:
            changed = [other for other in PRESETS if PRESETS[other] != before[other]]
        finally:
            event["time_s"] = time_s
        assert changed == [name]
    assert preset("fig7b").events[0].time_s == 1.0


def test_a_preset_is_a_scenario_document_and_runs_as_its_file(tmp_path, monkeypatch):
    # each preset is the JSON object a scenario file holds
    for name, doc in PRESETS.items():
        assert json.loads(json.dumps(doc)) == doc, name
    # shortened, with its flux (factor) and load (value) steps kept in the run
    doc = PRESETS["fig10d"]
    events = [{**ev, "time_s": ev["time_s"] * 1e-3} for ev in doc["events"]]
    monkeypatch.setitem(PRESETS, "fig10d", {**doc, "duration_s": 0.01, "events": events})
    path = tmp_path / "fig10d.json"
    path.write_text(json.dumps(PRESETS["fig10d"]))
    assert cli_main(["--out", str(tmp_path / "preset"), "sim", "fig10d"]) == 0
    assert cli_main(["--out", str(tmp_path / "file"), "sim", str(path)]) == 0
    assert _sim_outputs(tmp_path / "file", "fig10d") == _sim_outputs(tmp_path / "preset", "fig10d")


def _count_scenarios(monkeypatch) -> list:
    built = []
    post_init = Scenario.__post_init__

    def counting(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(Scenario, "__post_init__", counting)
    return built


def test_cli_validate_builds_only_the_scenario_it_names(tmp_path, monkeypatch):
    path = tmp_path / "quick.json"
    save_scenario(_quick(), str(path))
    built = _count_scenarios(monkeypatch)
    assert cli_main(["validate", str(path)]) == 0
    assert built == ["quick"]
    built.clear()
    assert cli_main(["validate", "fig9d"]) == 0
    assert built == ["fig9d"]


@pytest.mark.parametrize("ref", ["file", "fig9d"])
def test_cli_validate_runs_the_set_up_once(tmp_path, monkeypatch, ref):
    # building the Scenario validates it; cmd_validate adds no second pass
    if ref == "file":
        ref = str(tmp_path / "quick.json")
        save_scenario(_quick(), ref)
    calls = []
    validate = Scenario.validate
    monkeypatch.setattr(Scenario, "validate", lambda self: calls.append(1) or validate(self))
    assert cli_main(["validate", ref]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("ref", ["file", "fig7a"])
def test_cli_validate_takes_the_seed_as_sim_does(tmp_path, capsys, ref):
    if ref == "file":
        ref = str(tmp_path / "quick.json")
        save_scenario(_quick(), ref)
    for command in ("validate", "sim"):
        assert cli_main(["--out", str(tmp_path / "out"), "--seed", "-1", command, ref]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert cli_main(["--seed", "3", "validate", ref]) == 0
    assert capsys.readouterr().out.endswith(": valid\n")


def _sim_outputs(out, name: str) -> tuple[bytes, bytes]:
    return (out / f"{name}.csv").read_bytes(), (out / f"{name}_report.json").read_bytes()


@pytest.mark.parametrize("ref", ["file", "fig9d"])
def test_cli_sim_seed_builds_the_scenario_once(tmp_path, monkeypatch, ref):
    # --seed goes into the scenario's data: the Scenario validates when it
    # is built, and run() once more for the fresh start it steps
    if ref == "file":
        noisy = dict(duration=0.01, plant=PlantSection(noise_sigma_pu=0.002))
        ref = str(tmp_path / "quick.json")
        save_scenario(_quick(**noisy), ref)
        reference = str(tmp_path / "seeded.json")
        save_scenario(_quick(**noisy, seed=7), reference)
        name = "quick"
    else:
        short = {**PRESETS["fig9d"], "duration_s": 0.01, "events": []}
        monkeypatch.setitem(PRESETS, "fig9d", short)
        reference = name = "fig9d"
    assert cli_main(["--out", str(tmp_path / "reference"), "sim", reference]) == 0
    calls = []
    validate = Scenario.validate
    monkeypatch.setattr(Scenario, "validate", lambda self: calls.append(1) or validate(self))
    assert cli_main(["--out", str(tmp_path / "seeded"), "--seed", "7", "sim", ref]) == 0
    assert len(calls) == 2
    assert _sim_outputs(tmp_path / "seeded", name) == _sim_outputs(tmp_path / "reference", name)
    # and the seed reaches the run: another seed draws other noise
    assert cli_main(["--out", str(tmp_path / "other"), "--seed", "3", "sim", ref]) == 0
    assert _sim_outputs(tmp_path / "other", name)[0] != _sim_outputs(tmp_path / "seeded", name)[0]


def test_cli_sweep_seed_builds_each_preset_once(tmp_path, monkeypatch, capsys):
    seeds = []

    def record(scenario):
        seeds.append(scenario.seed)
        raise SimulationDiverged(0.0, "not run")

    monkeypatch.setattr("rpemsim.cli.run", record)
    built = _count_scenarios(monkeypatch)
    argv = ["--out", str(tmp_path), "--seed", "3", "sweep", "fig7[ab]", "--jobs", "1"]
    assert cli_main(argv) == 2
    # only the presets the pattern matches are built, each once, with the seed
    assert built == ["fig7a", "fig7b"] and seeds == [3, 3]


@pytest.mark.parametrize("out", ["file", "file/sub"])
@pytest.mark.parametrize("command", [
    ["sim", "fig7a"], ["sweep", "fig7[ab]", "--jobs", "1"], ["map", "all"], ["eig"],
])
def test_cli_out_naming_a_file_fails_with_one_line(tmp_path, capsys, monkeypatch, out, command):
    # sim used to run the whole preset, then end in a FileExistsError
    # traceback; map and eig too, and NotADirectoryError below a file
    def no_run(*_):
        raise AssertionError("a scenario ran before the output directory was made")

    monkeypatch.setattr("rpemsim.cli.run", no_run)
    (tmp_path / "file").write_text("")
    assert cli_main(["--out", str(tmp_path / out), *command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_preset_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    save_scenario(_quick(name="not_fig9d"), str(tmp_path / "fig9d"))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["validate", "fig9d"]) == 0
    assert capsys.readouterr().out == "fig9d: valid\n"


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


def test_divergence_aborts_with_diagnostic():
    sc = _quick(
        duration=0.2,
        plant=PlantSection(noise_sigma_pu=0.001),
        control=ControlSection(
            tau_ref=[(0.0, 0.3)], kp_d=1e12, kp_q=1e12, u_max_pu=1e300
        ),
    )
    # both end in the diagnostic through an OverflowError that float
    # arithmetic raises before a state turns non-finite; the check of a
    # non-finite state is driven by the test below
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


@pytest.mark.parametrize("bad_call,k", [(5, 4), (1, 0)])
def test_a_non_finite_state_ends_in_the_diagnostic(tmp_path, monkeypatch, capsys, bad_call, k):
    # the speed turns inf with no exception raised, so the runner's own
    # check of the state names it; at step 0 no sample has run yet
    sc = _quick(duration=0.01, plant=PlantSection(speed_mode="dynamic"))
    speed_step, calls = runner.speed_step, []

    def inf_at_call(*args):
        calls.append(args)
        return math.inf if len(calls) == bad_call else speed_step(*args)

    monkeypatch.setattr(runner, "speed_step", inf_at_call)
    with pytest.raises(SimulationDiverged) as err:
        run(sc)
    last = f"(t={(k - 1) * sc.t_samp_s:.6f}, i=(" if k else "(initial state)"
    assert err.value.detail.startswith(f"n = inf at step {k}; last valid sample {last}")
    assert err.value.t == k * sc.t_samp_s
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    calls.clear()
    assert cli_main(["--out", str(tmp_path / "o"), "sim", str(path)]) == 2
    assert capsys.readouterr().err == f"numerical divergence: {err.value}\n"


def _segment_count(sc):
    start = sc.validate()
    return len(list(schedule_segments(start.schedule, sc.t_samp_s, start.n_steps)))


@pytest.mark.parametrize("speed_mode", ["prescribed", "dynamic"])
def test_prescribed_speed_selects_the_plant_matrices_once_per_segment(monkeypatch, speed_mode):
    sets = []

    class CountingTrapezoid(runner.Trapezoid):
        def set(self, *args):
            sets.append(args)
            super().set(*args)

    monkeypatch.setattr(runner, "Trapezoid", CountingTrapezoid)
    dt = 125e-6
    sc = _quick(
        duration=0.01,
        plant=PlantSection(speed_mode=speed_mode),
        control=ControlSection(tau_ref=[(0.0, 0.3), (20 * dt, 0.4)], speed_ref=[(0.0, 0.1)]),
        events=[
            StepEvent(time_s=40 * dt, target="r_s", factor=1.2),
            StepEvent(time_s=40 * dt + 0.5e-12, target="speed_ref", value=0.2),
            StepEvent(time_s=60 * dt, target="x_q", factor=1.1),
        ],
    )
    res = run(sc)
    assert _segment_count(sc) == 4
    assert len(sets) == (4 if speed_mode == "prescribed" else res.total_steps)


@pytest.mark.parametrize("substeps", [1, 2, 3])
def test_each_sample_drives_the_plant_once_per_substep(monkeypatch, substeps):
    steps, drives = [], []

    class CountingTrapezoid(runner.Trapezoid):
        def __init__(self, omega_n, dt):
            steps.append(dt)
            super().__init__(omega_n, dt)

        def drive(self, *args):
            drives.append(args)
            return super().drive(*args)

    monkeypatch.setattr(runner, "Trapezoid", CountingTrapezoid)
    sc = _quick(duration=0.01, plant=PlantSection(substeps=substeps),
                control=ControlSection(tau_ref=[(0.0, 0.3)], speed_ref=[(0.0, 0.1)]))
    res = run(sc)
    assert steps == [sc.t_samp_s / substeps]
    assert len(drives) == substeps * res.total_steps


def test_constant_torque_with_the_flux_row_off_computes_the_current_reference_once(monkeypatch):
    # at standstill the flux row stays off, so psi_hat never moves; the
    # resistance step moves neither input of the current reference
    calls = []
    mtpa_currents = runner.mtpa_currents
    monkeypatch.setattr(runner, "mtpa_currents", lambda *a: calls.append(a) or mtpa_currents(*a))
    sc = _short(preset("bench_rs_phyint_n0"), 1, 0.05)
    res = run(sc)
    assert _segment_count(sc) == 2
    assert np.unique(res.psi_m_hat).size == 1
    assert len(calls) == 1


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
    rep = convergence_metrics(t, traj, ref)
    t_cross = tau * math.log(abs(x0 - ref) / (CONVERGENCE_BAND * ref))
    assert rep.band == CONVERGENCE_BAND == 0.01
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


def test_metrics_start_at_the_first_sample_a_step_applies_to():
    # a step at 40 dt + 5e-13 s applies from sample 40 (the schedule's
    # tolerance); a trajectory in the band from there on converges at once
    dt = 125e-6
    t = np.arange(80) * dt
    traj = np.ones(80)
    traj[39] = 2.0
    rep = convergence_metrics(t, traj, 1.0, t0=40 * dt + 5e-13)
    assert rep.converged and rep.convergence_time == 0.0
    with pytest.raises(ValueError, match="no sample"):
        convergence_metrics(t, traj, 1.0, t0=80 * dt)


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


_BAD_ESTIMATORS = [
    {"box_fraction": 1.5},          # default box reaches below zero
    {"box_r_s_min": -0.01},
    {"box_psi_m_min": -0.1},
    {"box_psi_m_min": 0.0},         # MTPA needs a positive flux estimate
    {"box_fraction": 1.0},          # default box reaches zero flux
    {"theta0_psi_m": -1.0},
    {"theta0_psi_m": 0.0},          # MTPA needs a positive flux estimate
    {"theta0_r_s": -0.02},
    # the gain floors are constants now: a file holding one is rejected for
    # its unknown key, whatever the value
    {"r_floor": -1.0},
    {"r_floor": 0.0},
    {"i_floor": -1.0},
    {"detR_floor": 0.0},
    # gain values the gain formulas cannot use; each of these used to run
    {"r0": -1.0},
    {"r0": 0.0},
    # a theta0 outside the box: the estimator would start clamped, the
    # controller's model and operating point from the unclamped value
    {"theta0_psi_m": 2.0},
    {"theta0_r_s": 0.1},            # above the default box top, 1.3 * 0.048
    {"box_psi_m_min": 1.0},         # the default theta0 (the true 0.895) lies below
]


@pytest.mark.parametrize("fields", [
    *(pytest.param({"duration_s": 1.0, "estimator": est}, id=f"estimator{i}")
      for i, est in enumerate(_BAD_ESTIMATORS)),
    # the operating point at t = 0 cannot be built; each of these used to
    # pass validate and end sim in a traceback or in a divergence at step 0
    pytest.param({"estimator": {"theta0_psi_m": 1e300, "box_psi_m_max": 1e301},
                  "control": {"tau_ref": [[0.0, 0.2]]}}, id="mtpa_overflows"),
    pytest.param({"control": {"tau_ref": [[0.0, 1e200]]}}, id="huge_torque_ref"),
    # a file saved before the gain floors and the machine convention became
    # constants holds their keys, at their one-time defaults
    pytest.param({"estimator": {"r_floor": 1e-6}}, id="removed_estimator_key"),
    pytest.param({"machine": {**TABLE_MACHINE_CONFIG, "convention": "amplitude_invariant"}},
                 id="removed_machine_key"),
    pytest.param({"control": {"mode": "speed"}, "plant": {"load_torque_pu": 1e300}},
                 id="huge_load_in_speed_mode"),
    # omega_n = 3e-323: the current-loop tuning divides by r_s * omega_n = 0
    pytest.param({"machine": {
        "rated_voltage_ll_V": 1e-300, "rated_current_A": 1.0, "rated_speed_rpm": 1e-322,
        "pole_pairs": 3, "r_s_pu": 0.05, "x_d_pu": 0.5, "x_q_pu": 1.0, "psi_m_pu": 0.9,
    }}, id="tuning_divides_by_zero"),
])
def test_cli_validate_rejects_box_and_theta0_that_run_refuses(tmp_path, capsys, fields):
    _assert_validate_rejects({"name": "x", "duration_s": 0.01, **fields}, tmp_path, capsys)
    out = tmp_path / "o"
    assert cli_main(["--out", str(out), "sim", str(tmp_path / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not out.exists()


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
    {"estimator": {"gamma_L_rs": math.nan}},
    {"estimator": {"r0": math.nan}},  # validated, then diverged at step 0
    {"control": {"tau_ref": []}},
    {"control": {"speed_ref": [[0.0, 0.1], [0.5, 0.2], [0.2, 0.3]]}},
    # the ratings and r_s_pu only: neither the full SI set nor the full pu set
    {"machine": {k: v for k, v in TABLE_MACHINE_CONFIG.items()
                 if not k.endswith(("_ohm", "_H", "_Wb", "_pu"))} | {"r_s_pu": 0.05}},
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


# the gain floors' keys, which a file saved before the floors became
# constants holds: that file is rejected whatever number they hold
_REMOVED_NUMBER_PATHS = [("estimator", key) for key in ("detR_floor", "i_floor", "r_floor")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("path", _number_paths() + _REMOVED_NUMBER_PATHS,
                         ids=lambda p: ".".join(map(str, p)))
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


# zero, the ends of the float range and a few ordinary values
_EXTREMES = [0.0, 1e-300, -1e-300, 0.5, 1.0, -1.0, 2.0, 1e300, -1e300]


def _drawn_fields():
    """(path into ``_SHORT``, strategy) of every number but duration_s and
    t_samp_s, from ``_EXTREMES`` (an integer from 0, +-1, 2), and of every
    choice field, with events[0] as the one event."""
    types = dict(_declared_fields())
    out = [
        (path, st.sampled_from([0, 1, -1, 2] if types.get(path) is int else _EXTREMES))
        for path in _number_paths() if path not in (("duration_s",), ("t_samp_s",))
    ]
    out += [(path, st.sampled_from(get_args(tp))) for path, tp in types.items()
            if get_origin(tp) is Literal]
    return [(path, values) for path, values in out if path[:2] != ("events", 1)]


_DRAWN_FIELDS = _drawn_fields()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_well_typed_scenario_is_rejected_or_runs(data):
    # validate is total: a scenario it accepts runs to its end or diverges.
    # A few fields of a valid 0.01 s scenario are drawn at a time; with every
    # field drawn at once nearly every dict is rejected before it can run
    d = copy.deepcopy({**_SHORT, "events": _SHORT["events"][:1]})
    for path, values in data.draw(st.lists(st.sampled_from(_DRAWN_FIELDS), max_size=6)):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(values, label=".".join(map(str, path)))
    try:
        scenario = Scenario.from_dict(d)
    except ScenarioError:
        return
    try:
        run(scenario)
    except SimulationDiverged:
        pass


def _strict_sim_report(tmp_path, d: dict) -> dict:
    """The report `sim` writes for the scenario d, parsed as JSON with no
    NaN or Infinity constants."""
    path = tmp_path / f"{d['name']}.json"
    path.write_text(json.dumps(d))
    assert cli_main(["--out", str(tmp_path / "o"), "sim", str(path)]) == 0

    def no_constant(name):
        raise ValueError(name)

    text = (tmp_path / "o" / f"{d['name']}_report.json").read_text()
    return json.loads(text, parse_constant=no_constant)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", ["psi_m", "r_s"])
def test_report_of_a_zero_reference_is_valid_json(tmp_path, target):
    # the relative steady-state error of a zero reference used to be
    # written as Infinity, which is not JSON, with a numpy RuntimeWarning
    event = {"time_s": 0.005, "target": target, "value": 0.0}
    report = _strict_sim_report(tmp_path, {"name": "zero", "duration_s": 0.01, "events": [event]})
    assert report["reports"][target]["steady_state_error"] is None


@pytest.mark.filterwarnings("error")
def test_report_of_an_overflowing_relative_error_is_valid_json(tmp_path):
    # the estimate over a subnormal reference overflowed to Infinity, with
    # a numpy RuntimeWarning
    event = {"time_s": 0.1, "target": "r_s", "value": 1e-310}
    report = _strict_sim_report(tmp_path, {"name": "tiny", "duration_s": 0.2, "events": [event]})
    assert report["reports"]["r_s"]["steady_state_error"] is None
    assert report["reports"]["r_s"]["overshoot"] == 0.0


@pytest.mark.filterwarnings("error")
def test_metrics_report_an_overflowing_overshoot_as_none():
    t = np.arange(10) * 0.1
    traj = np.array([2.0, 0.5, *[1.0] * 8])
    rep = convergence_metrics(t, traj, 1.0, step_size=1e-310)
    assert rep.overshoot is None
    assert convergence_metrics(t, traj, 1.0, step_size=1.0).overshoot == 0.5


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
    box = sc.validate().estimator.box
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


def test_cli_builds_its_parser_once_per_process(monkeypatch):
    # one build makes 6 parsers: the main one and one per subcommand
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    assert cli_main(["validate", "fig9d"]) == 0
    assert len(built) <= 6
    built.clear()
    assert cli_main(["validate", "fig9d"]) == 0
    assert built == []


def test_cli_calls_share_no_arguments(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sc.json"
    save_scenario(_quick(duration=0.01), str(path))
    seeds = []
    monkeypatch.setattr("rpemsim.cli.run", lambda sc: seeds.append(sc.seed) or run(sc))
    out = str(tmp_path / "out")
    assert cli_main(["--out", out, "--seed", "5", "sim", str(path)]) == 0
    assert cli_main(["--out", out, "sim", str(path)]) == 0
    assert seeds == [5, 1]
    # a usage error leaves nothing behind for the next call
    assert cli_main(["sim"]) == 1
    assert cli_main(["--out", out, "sim", str(path)]) == 0
    assert seeds == [5, 1, 1]


def test_cli_sim_prints_the_report_it_writes(tmp_path, capsys):
    path = tmp_path / "sc.json"
    save_scenario(_quick(duration=0.01), str(path))
    out = tmp_path / "out"
    assert cli_main(["--out", str(out), "sim", str(path)]) == 0
    assert capsys.readouterr().out == (out / "quick_report.json").read_text() + "\n"


def test_cli_sim_writes_the_same_bytes_in_every_process(tmp_path):
    path = tmp_path / "sc.json"
    save_scenario(_quick(duration=0.05, plant=PlantSection(noise_sigma_pu=0.002)), str(path))
    procs = [
        subprocess.Popen([sys.executable, "-m", "rpemsim.cli", "--out", str(tmp_path / f"p{i}"),
                          "sim", str(path)], env=_child_env(), stdout=subprocess.DEVNULL)
        for i in range(2)
    ]
    assert cli_main(["--out", str(tmp_path / "here"), "sim", str(path)]) == 0
    assert [p.wait(timeout=60) for p in procs] == [0, 0]
    here = _sim_outputs(tmp_path / "here", "quick")
    assert _sim_outputs(tmp_path / "p0", "quick") == here
    assert _sim_outputs(tmp_path / "p1", "quick") == here


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
    # used to end in an OverflowError traceback
    ["map", "all", "--speed-range", "0", "1e155", "--points", "2"],
    ["eig", "--speed-range", "0", "1e155", "--points", "2"],
    ["sweep", "nomatch*"],
])
def test_cli_map_and_eig_reject_bad_grid_input(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli_main(["--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["eig"], ["map", "all"]])
def test_cli_map_and_eig_run_at_a_speed_whose_square_is_finite(tmp_path, command):
    # (omega_n * n)**2 overflows above about 4.3e151 pu: 1e155 is rejected above
    out = tmp_path / "o"
    argv = ["--out", str(out), *command, "--points", "2", "--speed-range", "0", "1e150"]
    assert cli_main(argv) == 0


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    # --jobs below 1 used to run the sweep serially without a word
    def no_run(*_):
        raise AssertionError("a preset ran")

    monkeypatch.setattr("rpemsim.cli._sweep_one", no_run)
    out = tmp_path / "o"
    assert cli_main(["--out", str(out), "sweep", "fig7a", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err == f"validation error: --jobs must be >= 1, got {jobs}\n"
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
