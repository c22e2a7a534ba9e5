"""The benchmark's traced mode wraps package functions by name; they must exist."""

import ast
import importlib
from pathlib import Path

import covertpilot

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Full-vector synthesis and dense pilot algebra live in tests/reference.py.
TEST_ONLY = ("CommHypothesis", "alice_input", "trojan_input",
             "synthesize_received", "radiometer_statistic",
             "pilot_covariances", "PilotCovariances")


def traced_names():
    """The ``TRACED`` tuple of bench/tracer.py, read without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED tuple")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for qualname in names:
        module, attr = qualname.split(".")
        mod = importlib.import_module(f"covertpilot.{module}")
        assert callable(getattr(mod, attr, None)), qualname


def test_test_only_names_left_the_package():
    assert len(covertpilot.__all__) == len(set(covertpilot.__all__))
    for name in TEST_ONLY:
        assert name not in covertpilot.__all__, name
        assert not hasattr(covertpilot, name), name
