"""The names and call shapes by which bench/ reaches into fluxweight.

The benchmark wraps functions by name (bench/tracing.py), patches the
step clock in by name (bench/one_round.py) and calls into the program
from its checks (bench/checks.py).  A rename or a dropped keyword in
the program would break the benchmark without failing any other test.
"""

import ast
import importlib
import importlib.util
import inspect
import os
from pathlib import Path

import pytest

from fluxweight import driver, fem, methods, norms

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_module():
    """Loader of a bench/ script as a module under a private name; the
    environment that importing it sets (thread counts) is restored."""
    env = dict(os.environ)

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    os.environ.clear()
    os.environ.update(env)


def test_every_traced_target_resolves(bench_module):
    targets = bench_module("tracing").targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_traced_counters_read_the_parameters_by_their_names():
    # _e1_counts reads (delta, fine_mesh, order), _solve_counts (system)
    e1 = list(inspect.signature(norms.neumann_dual_error).parameters)
    assert e1[:3] == ["delta", "fine_mesh", "order"]
    assert list(inspect.signature(fem.solve).parameters)[0] == "system"


def test_step_clock_binds_its_names(bench_module):
    # StepClock looks every name up with getattr and patches it; the
    # originals are put back
    one_round = bench_module("one_round")
    saved = {m: dict(vars(m)) for m in (methods, driver)}
    try:
        one_round.StepClock(probe=False)
        patched = {(m.__name__, name) for m, before in saved.items()
                   for name, fn in before.items() if vars(m)[name] is not fn}
    finally:
        for m, before in saved.items():
            for name, fn in before.items():
                setattr(m, name, fn)
    assert patched == {("fluxweight.methods", "solve_nitsche"),
                       ("fluxweight.methods", "solve_lagrange"),
                       ("fluxweight.driver", "amr_loop"),
                       ("fluxweight.driver", "uniform_study")}


def _program_calls(path):
    """(module, name, positional count, keyword names) of every call
    that the file makes as <module>.<name>(...) on a module it imports
    with `from fluxweight import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fluxweight":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"fluxweight.{alias.name}")
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            calls.append((modules[node.func.value.id], node.func.attr,
                          len(node.args), [k.arg for k in node.keywords]))
    return calls


def test_checks_calls_bind_to_the_program():
    calls = _program_calls(BENCH / "checks.py")
    names = {(m.__name__, name) for m, name, _, _ in calls}
    assert ("fluxweight.norms", "neumann_dual_error") in names
    assert ("fluxweight.methods", "compatibility_defect") in names
    for module, name, nargs, keywords in calls:
        fn = getattr(module, name)
        inspect.signature(fn).bind(*range(nargs), **dict.fromkeys(keywords))
    assert (norms, "neumann_dual_error", 2, ["order"]) in calls


def test_selftest_calls_bind_to_the_program():
    calls = _program_calls(BENCH / "selftest.py")
    for module, name, nargs, keywords in calls:
        fn = getattr(module, name)
        inspect.signature(fn).bind(*range(nargs), **dict.fromkeys(keywords))
    assert (methods, "ProblemSpec", 2,
            ["a", "grad_a", "f", "u", "grad_u"]) in calls
    assert (methods, "solve_barbosa_hughes", 2, ["k"]) in calls
