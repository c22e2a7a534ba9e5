"""Package names: the ones the benchmark's traced mode wraps must exist, the
ones that left the package must stay gone, and the reference operating
point has one builder."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import runpy
from pathlib import Path

import covertpilot
from covertpilot.cli import SweepSpec

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")

# Full-vector synthesis and dense pilot algebra live in tests/reference.py;
# the seeding and synthesis primitives it draws with stay in channel (the
# benchmark's tracer wraps them there) but leave the package namespace.
TEST_ONLY = ("CommHypothesis", "alice_input", "trojan_input",
             "synthesize_received", "radiometer_statistic",
             "pilot_covariances", "PilotCovariances", "make_pilot",
             "derive_rng", "gaussian_input")

# Hypothesis tags and result types that duplicated what the attack
# parameters already fix, or echoed a function's input or post-condition;
# the two phases' verdicts are a plain Regime and a plain bool, and a
# bound asked for outside its regime raises ParameterError.
REMOVED_TAGS = ("Conditioning", "Phase", "SignalBlock", "PilotHypothesis",
                "EstimateReport", "CriticalPower", "RegimeClassification",
                "CovertnessMargin", "RegimeError")

# A fading sampler and its stream labels that nothing outside their own
# tests called; the reference simulation keeps its own fading label.
REMOVED_SAMPLER = ("sample_fading", "STREAM_FADING_W", "STREAM_FADING_E")

# Helpers folded into mmse_estimate, the one LMMSE estimator, which takes
# S = ||s||^2 and s^H y in place of the pilot vector.
REMOVED_ESTIMATOR = ("_pilot_energy", "_estimator_coefficient",
                     "_pilot_estimate")


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


def package_modules():
    return [covertpilot] + [
        importlib.import_module(f"covertpilot.{info.name}")
        for info in pkgutil.iter_modules(covertpilot.__path__)
        if info.name != "__main__"]


def test_hypothesis_tags_are_gone():
    for mod in package_modules():
        for name in REMOVED_TAGS:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    params = inspect.signature(covertpilot.analytic_error_probs).parameters
    assert list(params) == ["channel", "attack", "config", "tau"]
    assert "tau" not in inspect.signature(
        covertpilot.mc_comm_error_probs).parameters


def test_sweep_spec_holds_only_the_grid():
    # the output path is the command's argument, not part of the grid
    fields = [f.name for f in dataclasses.fields(SweepSpec)]
    assert "output_path" not in fields


def test_fading_sampler_is_gone_and_pilot_is_an_energy():
    for mod in package_modules():
        for name in REMOVED_SAMPLER:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    assert not hasattr(covertpilot.ChannelParams, "sample")
    params = inspect.signature(covertpilot.kl_pilot_exact).parameters
    assert list(params) == ["channel", "attack", "pilot_energy"]
    params = inspect.signature(covertpilot.mmse_estimate).parameters
    assert list(params) == ["channel", "pilot_energy", "projection"]


def test_one_estimator_and_no_pilot_vector():
    for mod in package_modules():
        for name in REMOVED_ESTIMATOR + ("make_pilot",):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    assert len(covertpilot.__all__) == 29


def test_bench_scenario_is_the_reference_point():
    # bench/workloads.py keeps its own copy of the reference point; run
    # from its file, which writes no bytecode beside it
    bench_scenario = runpy.run_path(str(WORKLOADS))["build_scenario"]
    for n in (10_000, 256):
        assert bench_scenario(n) == covertpilot.build_scenario(block_len=n)


def test_only_channel_calls_link_capacity():
    # the 80% r_a policy lives in build_scenario; another caller of
    # link_capacity is where a copy of it would start
    root = TRACER.parent.parent
    callers = {path.name for path in [
        *Path(covertpilot.__file__).parent.glob("*.py"),
        *(root / "demos").glob("*.py"), root / "tests" / "conftest.py"]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("link_capacity")}
    assert callers == {"channel.py"}
