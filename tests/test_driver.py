import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxweight import driver, fem, methods, norms
from fluxweight.driver import AmrConfig, mark
from fluxweight.mesh import build_unit_square, uniform_refine
from fluxweight.problems import problem_data


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
    meshes = driver.weight_demo(k=2, c2=1.0, steps=3, initial_n=4)
    assert len(meshes) == 4
    assert meshes[-1].num_triangles > meshes[0].num_triangles
    nb, ct = driver.refinement_depth_stats(meshes[-1])
    assert nb >= ct


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
