"""Rules that hold for the package source as a whole."""

import ast
import inspect
import re
from pathlib import Path

import rpemsim
from rpemsim import cli, runner, scenario
from rpemsim.estimator import RpemEstimator
from rpemsim.scenario import Scenario

PACKAGE = Path(rpemsim.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so runtime checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_estimator_step_does_not_branch_on_the_configuration():
    # the gradient selection is bound in __init__ and the gain object at
    # the first sample; a per-step branch on these settings would redo that
    source = inspect.getsource(RpemEstimator.step)
    found = [
        key for key in ("cfg.algorithm", "sga_r_mode", "gradient_mode_psi", "gradient_mode_rs")
        if key in source
    ]
    assert found == []


def test_estimator_step_reads_its_gradients_from_one_source():
    # make_gradients picks the gradient source once; the step neither keeps
    # gradient state of its own nor picks between closed form and recursion
    source = inspect.getsource(RpemEstimator.step)
    found = [
        key for key in ("_dyn_", "_gp_", "_gr_", "steady_state_gradients", "advance_gradients")
        if key in source
    ]
    assert found == []
    assert source.count("self._gradients.step(") == 1


def test_checked_dataclasses_declare_ranges_in_their_field_types():
    # a range belongs in the field's annotation (pu.Positive, Finite, ...),
    # where check_fields enforces it; __post_init__ keeps cross-field rules
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for cls in ast.walk(ast.parse(source, str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                    continue
                text = ast.get_source_segment(source, fn)
                if "check_fields" in text and ("math.inf" in text or "isfinite" in text):
                    found.append(f"{path.name}:{cls.name}")
    assert found == []


def _is_number_constant(node: ast.expr) -> bool:
    """Whether ``node`` is a signed or unsigned number literal, a ``math``
    constant or a ``float("...")`` call."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "math"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def _self_fields(node: ast.AST) -> set[str]:
    return {
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"
    }


def test_post_init_compares_no_single_field_with_number_constants():
    # a one-field range is the field's declared type (pu.Positive, ...),
    # checked by check_fields, where NaN fails too; a comparison that ties
    # two fields together (saliency, box min < max, scheduler limits) stays
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                    continue
                for cmp in ast.walk(fn):
                    if not isinstance(cmp, ast.Compare) or len(_self_fields(cmp)) != 1:
                        continue
                    operands = [cmp.left, *cmp.comparators]
                    constants = [o for o in operands if _is_number_constant(o)]
                    if constants and all(o in constants or _self_fields(o) for o in operands):
                        found.append(f"{path.name}:{cls.name}:{ast.unparse(cmp)}")
    assert found == []


def test_validate_parses_no_machine_dict():
    # Scenario.machine is a MachineConfig, built and checked at load
    source = inspect.getsource(Scenario.validate)
    assert "machine_from_config" not in source
    assert "from_json" not in source


def test_machine_parameter_targets_are_not_listed_by_hand():
    # the machine parameters are the fields of MachineParams, and their
    # events reach the plant through the run's one input schedule
    targets = {"psi_m", "r_s", "x_d", "x_q"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Tuple)
        and len(node.elts) == len(targets)
        and {getattr(e, "value", None) for e in node.elts} == targets
    ]
    assert found == []


def test_run_builds_its_start_only_through_validate():
    # Scenario.validate builds the estimator, the tuned loops and the t = 0
    # operating point; a second copy of that set-up in run() could drift
    # from what validate checks
    source = inspect.getsource(runner.run)
    found = [
        key for key in (
            "tune_current_loops", "tune_speed_loop", "mtpa_reference", "RpemEstimator(",
            "CurrentLoops(", "PiState(", "gain_config",
        )
        if key in source
    ]
    assert found == []


def test_run_reads_its_inputs_through_one_cursor():
    # every time-varying input is a column of validate()'s one schedule;
    # a second segment pass or a schedule_value lookup would be a second timeline
    source = inspect.getsource(runner.run)
    assert source.count("schedule_segments(") == 1
    assert "schedule_value" not in source
    # the loop reads the schedule by segments, with no per-step lookup
    # through at, called or bound to a name
    assert not re.search(r"\.at\b", source)
    # the sample count is validate()'s, so the late-event check and the run agree
    assert "round(" not in source


def test_cli_resolves_a_name_without_building_every_preset():
    # a sim or validate call builds the one scenario it names; the
    # preset table answers whether a name is a preset
    assert "preset_library" not in inspect.getsource(cli._resolve_scenario)


def test_presets_build_through_the_scenario_file_path():
    # a preset is a scenario document, built as load_scenario builds a
    # file's: scenario.py builds no section by hand, so the preset path
    # has no vocabulary of its own
    sections = {"PlantSection", "ControlSection", "EstimatorSection", "StepEvent"}
    source = Path(scenario.__file__).read_text()
    found = [
        f"{node.func.id}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in sections
    ]
    assert found == []
    preset_source = inspect.getsource(scenario.preset)
    assert "Scenario.from_dict(" in preset_source and "Scenario(" not in preset_source


def test_estimator_run_path_calls_only_its_own_kernels():
    # the object-level helpers are the reference the tests check the loop
    # against, so a loop method calling one would check it against itself;
    # the read-only views (theta, pred) are properties and build objects.
    # __init__ projects the start estimate once, before any sample, with
    # the reference clamp
    names = (
        "predictor_steady_state", "gradient_steady_state", "predictor_step",
        "gradient_dynamic_step", "ParameterVector(", "self.theta", "GradientSet",
        "update_parameters(", "clamp_to_box(", "scheduler_rows(", "_new_telemetry",
    )
    set_up = {("__init__", "clamp_to_box(")}
    found = [
        f"{attr}: {name}"
        for attr, member in vars(RpemEstimator).items()
        if inspect.isfunction(member)
        for name in names
        if name in inspect.getsource(member) and (attr, name) not in set_up
    ]
    assert found == []


# (module, name) of the imports on the `# noqa: F401` lines, which keep names
# the package no longer calls as module attributes for the benchmark's
# tracer (perfbench/tracing.py); the set grows only by a name a change stops
# calling while the tracer still wraps it, and shrinks as the tracer drops them
TRACER_IMPORTS = {
    ("runner.py", name) for name in (
        "current_controller", "mtpa_reference", "speed_controller",
        "integrate_electrical", "torque", "schedule_value",
    )
} | {("estimator.py", "step_matrices"), ("cli.py", "preset_library")}


def test_unused_imports_are_only_those_the_tracer_wraps():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                found |= {(path.name, alias.asname or alias.name) for alias in node.names}
    assert found <= TRACER_IMPORTS
