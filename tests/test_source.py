"""Rules that hold for the package source as a whole."""

import ast
import inspect
from pathlib import Path

import rpemsim
from rpemsim.estimator import RpemEstimator

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
