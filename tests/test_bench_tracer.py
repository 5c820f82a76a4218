"""The traced benchmark run wraps rpemsim names by attribute; a rename or
deletion in the package must fail here, not only in the benchmark."""

import importlib.util
from pathlib import Path

import rpemsim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_patches_resolve_and_restore_exactly():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patches
    finally:
        wrong = tracer.restore()
    assert wrong == []


def test_tracer_sees_the_speed_loop_and_the_dynamic_plant_of_a_run():
    # the loop calls the speed PI, the torque and the step matrices through
    # the module globals the tracer wraps, so a traced run counts each
    tracing = _tracing()
    tracer = tracing.Tracer()
    scenario = rpemsim.Scenario.from_dict({
        "name": "traced", "duration_s": 0.05,
        "plant": {"speed_mode": "dynamic"},
        "control": {"mode": "speed", "speed_ref": [[0.0, 0.5]]},
    })
    try:
        tracing.install(tracer)
        rpemsim.run(scenario)
    finally:
        wrong = tracer.restore()
    calls = {name: tracer.stats.get(name, [0])[0]
             for name in ("plant.torque", "control.speed_controller", "plant.step_matrices")}
    assert all(count > 0 for count in calls.values()), calls
    assert wrong == []
