"""Known-answer tests of the benchmark's own checks and tracer.

    python3 bench/selftest.py

Exits 0 when every test passes.  The tests:
- the independent E2 of a constant boundary function c is |c|, also on
  an adaptive mesh whose facet ends are not dyadic;
- a linear solution with a = 1, which every method reproduces exactly,
  gives E2 at round-off;
- the traced spans of a tiny study cover its wall time: the layers'
  self times plus `driver.other_s` add up to the traced interval, and
  every span lies inside it.
"""

import shutil
import sys
import time

import numpy as np

import one_round

one_round.import_program()

import checks  # noqa: E402
import tracing  # noqa: E402
from fluxweight import driver, experiments, methods  # noqa: E402
from fluxweight.mesh import build_unit_square, refine  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_constant():
    square = build_unit_square(4)
    graded = refine(refine(square, [0, 5, 17]), [2, 3, 30])
    for name, mesh in (("4x4", square), ("refined", graded)):
        e2 = checks.wavelet_e2(
            mesh, lambda f, t: np.full(len(t), -2.5), 12)
        expect(abs(e2 - 2.5) <= 1e-13,
               f"E2 of the constant -2.5 on the {name} mesh is {e2!r}")


def test_linear():
    problem = methods.ProblemSpec(
        "linear", "unit-square",
        a=lambda x, y: np.ones_like(x),
        grad_a=lambda x, y: np.zeros(np.shape(x) + (2,)),
        f=lambda x, y: np.zeros_like(x),
        u=lambda x, y: 1.0 + 2.0 * x - 3.0 * y,
        grad_u=lambda x, y: np.stack(np.broadcast_arrays(
            2.0 + 0.0 * x, -3.0 + 0.0 * y), axis=-1))
    mesh = refine(build_unit_square(4), [0, 7, 21])
    solutions = {
        "nitsche k=1": methods.solve_nitsche(problem, mesh, k=1),
        "nitsche k=2": methods.solve_nitsche(problem, mesh, k=2),
        "lagrange k=2 k'=0": methods.solve_lagrange(problem, mesh, k=2),
        "barbosa-hughes k=1 k'=0": methods.solve_barbosa_hughes(
            problem, mesh, k=1),
    }
    for name, sol in solutions.items():
        def delta(f, t, sol=sol):
            pts = mesh.boundary_points(f, t)
            nrm = mesh.bf_normal[f]
            exact = problem.exact_flux(pts[:, 0], pts[:, 1],
                                       nrm[:, 0], nrm[:, 1])
            return exact - sol.flux_values(f, t)
        e2 = checks.wavelet_e2(mesh, delta, 12)
        expect(e2 <= 1e-11, f"E2 of the linear solution, {name}: {e2:.2e}")


def test_trace_covers_study():
    manifest = {"problem": "franke", "method": "nitsche", "k": 1,
                "budget": 300, "M": 10,
                "studies": [{"name": "tiny", "type": "amr"}]}
    tracer = tracing.Tracer()
    tracer.install()
    originals_wrapped = driver.refine is not refine
    out = one_round.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        tracer.active = True
        start = time.perf_counter()
        experiments.run_experiment(manifest, out)
        end = time.perf_counter()
        tracer.active = False
    finally:
        tracer.uninstall()
    expect(originals_wrapped and driver.refine is refine,
           "the tracer wraps driver.refine and restores it")
    layers = tracer.layer_metrics(start, end)
    parts = sum(v for k, v in layers.items()
                if tracing.LAYER_METRICS[k] == "s" and k != "trace.study_s")
    expect(abs(parts - (end - start)) <= 1e-9 * (end - start),
           f"self times plus other_s {parts:.6f} s = wall {end - start:.6f} s")
    share = layers["driver.other_s"] / (end - start)
    expect(0.0 <= share <= 0.2,
           f"time outside every span is {100 * share:.1f}% of the study")
    expect(layers["driver.steps"] >= 3 and layers["norms.e2_calls"]
           == layers["driver.steps"],
           f"{layers['driver.steps']} steps, {layers['norms.e2_calls']} E2")


if __name__ == "__main__":
    test_constant()
    test_linear()
    test_trace_covers_study()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
