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
