import dataclasses
import gc
import os
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxweight import driver, fem, methods, norms
from fluxweight import mesh as mesh_module
from fluxweight.driver import AmrConfig, mark
from fluxweight.experiments import run_experiment
from fluxweight.mesh import build_unit_square, uniform_refine
from fluxweight.problems import problem_data
from fluxweight.quadrature import segment_rule, triangle_rule


def test_mark_examples():
    assert mark(np.array([1.0, 0.6, 0.4]), 0.5).tolist() == [0, 1]
    assert mark(np.array([1.0, 0.5]), 0.5).tolist() == [0, 1]  # inclusive
    assert mark(np.array([2.0, 2.0, 2.0]), 0.9).tolist() == [0, 1, 2]


def test_mark_all_zero_logs_and_marks_all(caplog):
    import logging
    with caplog.at_level(logging.WARNING):
        out = mark(np.zeros(5), 0.5)
    assert out.tolist() == [0, 1, 2, 3, 4]
    assert any("vanish" in r.message for r in caplog.records)


def test_mark_argmax_always_included():
    assert 3 in mark(np.array([0.1, 0.2, 0.3, 5.0]), 1.0).tolist()


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
       st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(max_examples=150, deadline=None)
def test_mark_monotone_in_theta(vals, t1, t2):
    vals = np.array(vals)
    lo, hi = min(t1, t2), max(t1, t2)
    m_lo = set(mark(vals, lo).tolist())
    m_hi = set(mark(vals, hi).tolist())
    assert m_hi <= m_lo


def test_config_validation():
    with pytest.raises(ValueError):
        AmrConfig(theta=0.0)
    with pytest.raises(ValueError):
        AmrConfig(estimator="bogus")


def test_count_dofs_matches_spaces():
    from fluxweight import fem
    m = build_unit_square(3)
    for method, k, kprime, cont in (("nitsche", 1, 0, False),
                                    ("nitsche", 2, 0, False),
                                    ("lagrange", 2, 0, False),
                                    ("lagrange", 2, 2, True)):
        cfg = AmrConfig(method=method, k=k, kprime=kprime, continuous=cont)
        n = driver.count_dofs(m, cfg)
        expect = fem.FeSpace(m, k).ndof
        if method == "lagrange":
            expect += fem.BoundarySpace(m, kprime, cont).ndof
        assert n == expect


def test_budget_respected_and_single_step():
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, budget=26,
                    wavelet_level=10)
    rec, _ = driver.amr_loop(cfg)
    assert len(rec) == 1          # 4x4 mesh has 25 DOFs; budget 26
    assert rec.N[0] == 25
    with pytest.raises(ValueError):
        driver.amr_loop(AmrConfig(problem="franke", budget=25))


def test_amr_last_row_seconds_include_final_e1(monkeypatch):
    import time

    def slow_e1(delta, config, mesh):
        time.sleep(0.2)
        return 0.0

    monkeypatch.setattr(driver, "_e1_of", slow_e1)
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, budget=100,
                    wavelet_level=10)
    rec, _ = driver.amr_loop(cfg)
    assert rec.E1[-1] == 0.0
    assert rec.seconds[-1] >= 0.2


@pytest.mark.parametrize("study", ["amr", "uniform"])
def test_step_state_is_released_before_the_next_step(study, monkeypatch):
    # no solution of an earlier step is alive when a step starts, so a
    # step's E1 does not sit on top of two steps' meshes and solutions
    step, solutions, alive = driver.step, [], []

    def watched(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in solutions))
        row, state = step(*args, **kwargs)
        solutions.append(weakref.ref(state[1]))
        return row, state

    monkeypatch.setattr(driver, "step", watched)
    monkeypatch.setattr(driver, "_e1_of", lambda delta, config, mesh: 0.0)
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, budget=100,
                    wavelet_level=10)
    if study == "amr":
        driver.amr_loop(cfg)
    else:
        driver.uniform_study(cfg, 3)
    assert len(alive) >= 3 and not any(alive), alive


def test_e1_rejects_a_flux_that_does_not_conserve():
    # a constant added to the multiplier breaks
    # integral(lambda_h) = -integral(f) by 0.5 * perimeter
    mesh = build_unit_square(4)
    cfg = AmrConfig(problem="franke", method="lagrange", k=2)
    sol = methods.solve_lagrange(problem_data("franke"), mesh, k=2)
    shifted = dataclasses.replace(sol, multiplier=sol.multiplier + 0.5)
    with pytest.raises(fem.SolverError, match="compatibility defect"):
        driver._e1_of(norms.flux_error_function(shifted), cfg, mesh)


@pytest.mark.parametrize("method", ["nitsche", "lagrange", "barbosa-hughes"])
@pytest.mark.parametrize("problem", ["franke", "varcoef-peak"])
def test_e1_accepts_real_solutions(method, problem):
    mesh = build_unit_square(4)
    cfg = AmrConfig(problem=problem, method=method, k=2 if method ==
                    "lagrange" else 1)
    sol = driver._solve(cfg, problem_data(problem), mesh)
    e1 = driver._e1_of(norms.flux_error_function(sol), cfg, mesh)
    assert 0.0 < e1 < np.inf


def test_e1_logs_its_reference(caplog):
    mesh = build_unit_square(4)
    cfg = AmrConfig(problem="franke", method="nitsche", k=1)
    delta = norms.flux_error_function(
        driver._solve(cfg, problem_data("franke"), mesh))
    with caplog.at_level("INFO"):
        driver._e1_of(delta, cfg, mesh)
    (line,) = [r.args for r in caplog.records
               if r.name == "fluxweight.driver"]
    (e1,) = [r.args for r in caplog.records if r.name == "fluxweight.norms"]
    assert line["step"] == mesh.num_triangles
    assert line["ref"] == e1["triangles"]
    assert line["band"] == driver.E1_BAND
    assert line["seconds"] >= 0.0


@pytest.mark.parametrize("study", ["amr", "uniform"])
def test_unsupported_e1_order_fails_before_any_solve(monkeypatch, study):
    # E1 at k=3 needs P5 elements; the study stops before its first solve
    calls = []
    for name in ("solve_nitsche", "solve_lagrange", "solve_barbosa_hughes"):
        monkeypatch.setattr(methods, name, lambda *a, name=name, **kw:
                            calls.append(name))
    cfg = AmrConfig(problem="franke", method="nitsche", k=3,
                    wavelet_level=10)
    with pytest.raises(ValueError, match="order k\\+2 = 5"):
        if study == "amr":
            driver.amr_loop(cfg)
        else:
            driver.uniform_study(cfg, 2)
    assert calls == []


def test_uniform_study_without_e1_runs_at_k3():
    cfg = AmrConfig(problem="franke", method="nitsche", k=3,
                    wavelet_level=10)
    rec, _ = driver.uniform_study(cfg, 1, e1_levels=0)
    assert len(rec) == 1 and np.isnan(rec.E1).all()
    assert np.isfinite(rec.E2).all()


def test_e1_assembles_no_load(monkeypatch):
    # the conservation check reads the load sums of the solve
    mesh = build_unit_square(4)
    cfg = AmrConfig(problem="franke", method="nitsche", k=1)
    delta = norms.flux_error_function(
        driver._solve(cfg, problem_data("franke"), mesh))
    calls = []
    for name in ("assemble_load", "assemble_load_sums"):
        monkeypatch.setattr(fem, name, lambda *a, name=name, **kw:
                            calls.append(name))
    assert driver._e1_of(delta, cfg, mesh) > 0.0
    assert calls == []


def test_one_step_evaluates_its_data_once(monkeypatch):
    # a Franke Nitsche k=1 step reads f and grad u on the triangle rule
    # once, together (the solve's load pass, whose values the volume
    # residual and the energy error reuse); on the facet rule it
    # evaluates the exact solution once per use: u for the solve, and u
    # with its tangential derivative for the estimator.  Each mesh
    # builds its geometry once, the E1 reference's included.
    problem = problem_data("franke")
    calls = []

    def counting(name, fn):
        def wrapped(x, y):
            calls.append((name, np.shape(x)))
            return fn(x, y)
        return wrapped

    for name in ("f", "u", "grad_u", "solution", "f_and_grad_u"):
        setattr(problem, name, counting(name, getattr(problem, name)))
    built = []
    geometry = mesh_module.affine_geometry

    def counting_geometry(vertices, triangles):
        built.append(id(triangles))
        return geometry(vertices, triangles)

    monkeypatch.setattr(mesh_module, "affine_geometry", counting_geometry)
    cfg = AmrConfig(problem="franke", method="nitsche", k=1,
                    wavelet_level=10)
    mesh = build_unit_square(4)
    mesh = mesh_module.refine(mesh, [0, 7, 19])
    row, (_, sol, _, _) = driver.step(cfg, problem, mesh)
    degree = sol.space.degree
    on_triangles = (mesh.num_triangles, len(triangle_rule(degree)[1]))
    on_facets = (mesh.num_boundary_facets, len(segment_rule(degree)[1]))
    assert [n for n, shape in calls if shape == on_triangles] == [
        "f_and_grad_u"]
    assert [n for n, shape in calls if shape == on_facets] == [
        "u", "solution"]
    assert built == [id(mesh.triangles)]
    # the step's rule values end with it
    assert sol.f_values is None and sol.grad_u_values is None
    assert row["energy_err"] == fem.h1_seminorm_error(
        sol.space, sol.coeffs, problem.grad_u)
    driver._e1_of(norms.flux_error_function(sol), cfg, mesh)
    assert len(built) == 2 and len(set(built)) == 2


def test_step_logs_its_phases(caplog):
    cfg = AmrConfig(problem="franke", method="nitsche", k=1,
                    wavelet_level=10)
    mesh = build_unit_square(4)
    with caplog.at_level("INFO"):
        row, _ = driver.step(cfg, problem_data("franke"), mesh, e1=True)
    (line,) = [r for r in caplog.records if r.name == "fluxweight.driver"
               and r.getMessage().startswith("step:")]
    assert line.args["N"] == row["N"]
    for phase in ("solve", "rho", "estimator", "e2"):
        assert line.args[phase] >= 0.0
    assert line.getMessage().endswith(" ms")
    (e2,) = [r for r in caplog.records if r.name == "fluxweight.norms"
             and r.getMessage().startswith("E2:")]
    # 4x4: the shortest boundary facet is 1/4 of a side, |boundary|/16
    assert e2.args["depth"] == 4.0 and e2.args["M"] == 10
    assert "grid at least as fine" in e2.getMessage()


def test_e2_flags_a_mesh_finer_than_its_grid(caplog):
    mesh = uniform_refine(build_unit_square(4), 6)  # facets |boundary|/128
    sol = methods.solve_nitsche(problem_data("franke"), mesh, k=1)
    with caplog.at_level("INFO"):
        norms.wavelet_norm(norms.flux_error_function(sol), 5)
    (e2,) = [r for r in caplog.records if r.getMessage().startswith("E2:")]
    assert e2.args["depth"] == 7.0
    assert "mesh finer than the grid" in e2.getMessage()


def test_amr_records_monotone_N():
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, budget=400,
                    wavelet_level=10)
    rec, _ = driver.amr_loop(cfg)
    n = np.array(rec.N)
    assert (np.diff(n) > 0).all()
    assert n[-1] <= 400
    assert np.isfinite(rec.E2).all()


def test_amr_final_e1_resolved():
    # the final E1 matches the reference of the final mesh bisected twice
    # everywhere, as the benchmark's e1_resolved_rtol check asks; at this
    # budget a fixed 64x64 reference reads 11.6% low
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, budget=3000,
                    wavelet_level=10)
    rec, (mesh, solution, _, _) = driver.amr_loop(cfg)
    assert np.isnan(rec.E1[:-1]).all()
    ref = norms.neumann_dual_error(norms.flux_error_function(solution),
                                   uniform_refine(mesh, 2), order=cfg.k + 2)
    assert rec.E1[-1] == pytest.approx(ref, rel=0.05)


def test_amr_final_e1_lshape():
    cfg = AmrConfig(problem="lshape-singular", method="nitsche", k=1,
                    budget=300, wavelet_level=10)
    rec, _ = driver.amr_loop(cfg)
    assert np.isfinite(rec.E1[-1]) and rec.E1[-1] > 0


def test_amr_determinism():
    cfg = AmrConfig(problem="varcoef-peak", method="nitsche", k=1,
                    budget=300, wavelet_level=10)
    r1, _ = driver.amr_loop(cfg)
    r2, _ = driver.amr_loop(cfg)
    assert r1.N == r2.N
    assert r1.N_boundary == r2.N_boundary
    for a, b in zip(r1.E2, r2.E2):
        assert a == pytest.approx(b, rel=1e-12)
    for a, b in zip(r1.eta, r2.eta):
        assert a == pytest.approx(b, rel=1e-12)


def test_uniform_study_single_level():
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, initial_n=4,
                    wavelet_level=10)
    rec, _ = driver.uniform_study(cfg, 1)
    assert len(rec) == 1
    assert len(rec.rates("E2")) == 0


def test_graded_study_facet_scaling():
    cfg = AmrConfig(problem="franke", method="nitsche", k=1,
                    wavelet_level=10)
    from fluxweight.mesh import build_graded_mesh
    m1 = build_graded_mesh("unit-square", 0.5)
    m2 = build_graded_mesh("unit-square", 0.25)
    n1 = m1.num_boundary_facets
    n2 = m2.num_boundary_facets
    # halving h divides the boundary size target by 4
    assert 2.5 <= n2 / n1 <= 6.0
    rec, _ = driver.graded_study(cfg, [0.5, 0.35])
    assert len(rec) == 2
    assert rec.N[1] > rec.N[0]


def test_weight_demo_step_count_and_depth():
    meshes = driver.weight_demo(AmrConfig(k=2, c2=1.0, initial_n=4), 3)
    assert len(meshes) == 4
    assert meshes[-1].num_triangles > meshes[0].num_triangles
    nb, ct = driver.refinement_depth_stats(meshes[-1])
    assert nb >= ct


def test_weight_demo_meshes_its_problem_domain_with_its_weight(tmp_path):
    # an L-shape study meshes the L-shape, and its C1 caps the weight:
    # at 0.01 every element carries the cap, so marking is uniform
    meshes = driver.weight_demo(AmrConfig(problem="lshape-singular"), 0)
    assert meshes[0].num_triangles == 96
    assert meshes[0].jacobians()[1].sum() / 2 == pytest.approx(3.0,
                                                              rel=1e-14)
    manifest = {"problem": "lshape-singular", "k": 2, "studies": [
        {"name": "c1-1", "type": "weight_demo", "C1": 1.0, "steps": 3},
        {"name": "c1-small", "type": "weight_demo", "C1": 0.01, "steps": 3}]}
    run_experiment(manifest, tmp_path)
    first, capped = ((tmp_path / name / "summary.csv").read_text()
                     for name in ("c1-1", "c1-small"))
    assert first.splitlines()[1] == capped.splitlines()[1] == "0,96,0,0"
    assert first != capped


def test_record_csv_roundtrip(tmp_path):
    cfg = AmrConfig(problem="franke", method="nitsche", k=1, budget=200,
                    wavelet_level=10)
    rec, _ = driver.amr_loop(cfg)
    path = tmp_path / "rec.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,N,N_boundary,eta,eta_classical,E1,E2,E,"
                        "energy_err,seconds")
    assert len(lines) == 1 + len(rec)


def test_regression_slope_exact():
    rec = driver.ConvergenceRecord()
    for n in (10, 100, 1000):
        rec.append(N=n, N_boundary=1, E=float(n) ** -1.5, E2=np.nan,
                   eta=np.nan, eta_classical=np.nan, E1=np.nan,
                   energy_err=np.nan, seconds=0.0)
    assert rec.regression_slope("E") == pytest.approx(-1.5, abs=1e-12)


def test_benchmark_hooks_resolve(monkeypatch):
    """The benchmark wraps program functions by name at run time: every
    traced (owner, attribute) of bench/tracing.py and the two study and
    two solve functions of bench/one_round.py's step clock must exist."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    # one_round sets thread-count defaults in the environment on import
    monkeypatch.setattr(os, "environ", dict(os.environ))
    import one_round
    import tracing

    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in tracing.targets()
               if not callable(getattr(owner, attr, None))]
    assert not missing
    # the step clock wraps these four by name; monkeypatch fails on a
    # missing one and puts the originals back after the test
    for owner, attr in ((methods, "solve_nitsche"),
                        (methods, "solve_lagrange"),
                        (driver, "amr_loop"), (driver, "uniform_study")):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    one_round.StepClock(probe=False)
