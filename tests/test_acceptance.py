"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured quantities.

The studies reproduce the uniform and adaptive convergence experiments
at desk scale (20k-DOF budgets).  Session fixtures share the expensive
runs between criteria.
"""

import math
import time

import numpy as np
import pytest

from fluxweight import driver, estimator, methods, norms
from fluxweight.driver import AmrConfig
from fluxweight.mesh import build_unit_square, check_mesh, refine

from conftest import exact_flux_integral_defect, make_linear_problem

# the studies take minutes: `pytest -m "not slow"` leaves them out
pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- shared expensive runs ---------------------------------------------------

@pytest.fixture(scope="module")
def table1():
    """Uniform Nitsche on the Franke problem, orders 1 and 2, with timing."""
    out = {}
    t0 = time.perf_counter()
    for k in (1, 2):
        cfg = AmrConfig(problem="franke", method="nitsche", k=k, initial_n=8)
        out[k], _ = driver.uniform_study(cfg, 4)
    out["seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def table2_k0():
    cfg = AmrConfig(problem="franke", method="lagrange", k=2, kprime=0,
                    initial_n=8)
    return driver.uniform_study(cfg, 4)[0]


@pytest.fixture(scope="module")
def table2_k2():
    # five levels; the auxiliary solve is run on the first four (its
    # reference, graded from the boundary, grows about 2x per level)
    cfg = AmrConfig(problem="franke", method="lagrange", k=2, kprime=2,
                    continuous=True, initial_n=8)
    return driver.uniform_study(cfg, 5, e1_levels=4)[0]


@pytest.fixture(scope="module")
def table3():
    cfg = AmrConfig(problem="lshape-singular", method="nitsche", k=1,
                    initial_n=4)
    return driver.uniform_study(cfg, 6, e1_levels=0)[0]


@pytest.fixture(scope="module")
def franke_amr():
    out = {"t0": time.perf_counter()}
    for estim in ("eta", "eta_classical"):
        cfg = AmrConfig(problem="franke", method="nitsche", k=1,
                        estimator=estim, budget=20000)
        out[estim], _ = driver.amr_loop(cfg)
    out["seconds"] = time.perf_counter() - out.pop("t0")
    return out


@pytest.fixture(scope="module")
def lshape_amr():
    cfg = AmrConfig(problem="lshape-singular", method="nitsche", k=1,
                    estimator="eta", budget=20000)
    rec, _ = driver.amr_loop(cfg)
    graded, _ = driver.graded_study(cfg, [0.3, 0.2, 0.14, 0.1, 0.085])
    return rec, graded


# -- criteria ----------------------------------------------------------------

def test_criterion_1_uniform_nitsche_rates(table1):
    """Uniform Nitsche on Franke: k=1 E1 rates 1.0+-0.2, k=2 last E1
    rate >= 1.8, and the whole table1 fixture in at most 120 s.

    Known deviation, kept red on purpose: the k=1 E1 rates over the last
    two halvings measure 1.42 and 1.50 (E2 independently gives 1.30 and
    1.43).  Order 3/2 is the dual-trace best-approximation order of the
    facet-wise constant post-processed Nitsche flux, so this code
    converges faster than the tabulated rate.  The literal band stays
    as written until the paper's tables are in the repository and can
    settle whether the tabulated rates measure the same quantity.  The
    k=2 part and the runtime part pass.
    """
    r1 = table1[1].rates("E1")          # levels 1/8 -> 1/64
    last_k1 = r1[-2:]                   # the 1/16->1/32 and 1/32->1/64 steps
    ok_k1 = bool(((last_k1 >= 0.8) & (last_k1 <= 1.2)).all())
    r2 = table1[2].rates("E1")
    ok_k2 = r2[-1] >= 1.8
    ok_time = table1["seconds"] <= 120.0
    ok = ok_k1 and ok_k2 and ok_time
    assert report(
        1, ok,
        f"k=1 E1 rates (1/16->1/64) {np.round(last_k1, 3).tolist()} "
        f"target 1.0+-0.2; k=2 last rate {r2[-1]:.3f} target >= 1.8; "
        f"runtime {table1['seconds']:.0f}s <= 120s")


def test_criterion_2_ratio_band(table1):
    """E2/E1 for uniform Nitsche k=1 lies in [0.15, 0.40] and varies by
    at most 30% over the levels.

    Known deviation, kept red on purpose: E2/E1 measures 0.55-0.63 at
    every level.  The stability half passes (variation about 14%), so
    the two evaluations are equivalent norms with a different constant.
    E2 uses the 2^(M/2)/|boundary| cell-average scaling of the README;
    whether the tabulated band used the same normalisation cannot be
    settled from the abstract alone, so the band stays as written.
    """
    rec = table1[1]
    ratio = np.array(rec.E2) / np.array(rec.E1)
    in_band = bool(((ratio >= 0.15) & (ratio <= 0.40)).all())
    stable = ratio.max() / ratio.min() - 1.0 <= 0.30
    ok = in_band and stable
    assert report(
        2, ok,
        f"E2/E1 = {np.round(ratio, 3).tolist()} target [0.15, 0.40], "
        f"variation {(ratio.max() / ratio.min() - 1) * 100:.0f}% <= 30%")


def test_criterion_3_lagrange_k0_rate(table2_k0):
    rates = table2_k0.rates("E1")[-2:]
    ok = bool(((rates >= 1.3) & (rates <= 1.8)).all())
    assert report(
        3, ok,
        f"LM k=2,k'=0 E1 rates (last two) {np.round(rates, 3).tolist()} "
        f"target [1.3, 1.8]")


def test_criterion_4_lagrange_k2_degrades(table2_k2):
    r1 = table2_k2.rates("E1")
    r2 = table2_k2.rates("E2")
    finest = [r for r in (r1[-1], r2[-1]) if np.isfinite(r)]
    val = finest[-1]
    ok = 0.75 <= val <= 1.25
    assert report(
        4, ok,
        f"LM k=2,k'=2 rates E1 {np.round(r1[np.isfinite(r1)], 3).tolist()} "
        f"E2 {np.round(r2, 3).tolist()}; finest observed {val:.3f} "
        f"target 1.0+-0.25")


def test_criterion_5_lshape_uniform_rate(table3):
    rates = table3.rates("E2")[-2:]
    ok = bool(((rates >= 0.45) & (rates <= 0.70)).all())
    assert report(
        5, ok,
        f"L-shape Nitsche k=1 E2 rates (last two) "
        f"{np.round(rates, 3).tolist()} target [0.45, 0.70]")


def test_criterion_6_amr_beats_classical(franke_amr):
    """Franke AMR with Nitsche k=1: the dual-weighted estimator ends at
    most half the error of the classical one, E falls against N with a
    regression slope of at most -0.9 over all steps, and both runs take
    at most 15 minutes.

    Why -0.9: for P_k elements on shape-regular (newest-vertex
    bisection) meshes, the error in a smooth boundary functional is a
    volume sum of terms of size h_T^(2k), so no mesh sequence beats
    N^(-k) asymptotically.  For k=1 the optimal slope is -1; the bound
    allows 0.1 for the unresolved first steps from the 4x4 start.  With
    an 80000-DOF budget the same loop measures -0.98 over all steps at
    k=1 (-1.07 from step 8 on) and -1.79 at k=2 (-1.98 from step 12
    on), which is the -k law.  A constant factor in E (E = 4*E2) does
    not change a log-log slope.  The bound still separates the
    estimators: the classical run of this fixture and the uniform k=1
    sequence both measure about -0.72.
    """
    eta = franke_amr["eta"]
    cls = franke_amr["eta_classical"]
    factor_ok = eta.E[-1] <= 0.5 * cls.E[-1]
    slope = eta.regression_slope("E")
    slope_ok = slope <= -0.9
    time_ok = franke_amr["seconds"] <= 15 * 60
    ok = factor_ok and slope_ok and time_ok
    assert report(
        6, ok,
        f"final E(amr-eta) {eta.E[-1]:.3e} <= 0.5 * E(classical) "
        f"{cls.E[-1]:.3e}: {factor_ok}; slope {slope:.2f} <= -0.9: "
        f"{slope_ok} (classical {cls.regression_slope('E'):.2f}); "
        f"runtime {franke_amr['seconds']:.0f}s <= 900s")


def test_criterion_7_lshape_amr_beats_graded(lshape_amr):
    rec, graded = lshape_amr
    n_final = rec.N[-1]
    logN = np.log(np.asarray(graded.N, dtype=float))
    logE = np.log(np.asarray(graded.E, dtype=float))
    e_graded = math.exp(np.interp(math.log(n_final), logN, logE))
    ok = rec.E[-1] < e_graded
    assert report(
        7, ok,
        f"L-shape at N={n_final}: E(amr-eta) {rec.E[-1]:.3e} < "
        f"E(graded) {e_graded:.3e}")


def test_criterion_8_energy_norm_control(franke_amr):
    cls_slope = franke_amr["eta_classical"].regression_slope("energy_err")
    eta_slope = franke_amr["eta"].regression_slope("energy_err")
    ok = cls_slope <= -0.45 and eta_slope > cls_slope
    assert report(
        8, ok,
        f"energy slopes: classical {cls_slope:.3f} <= -0.45, "
        f"dual-weighted {eta_slope:.3f} strictly worse")


def test_criterion_9_property_suites():
    checks = []
    # wavelet filter identities
    v, d = norms.dwt_step(np.full(8, 2.5))
    checks.append(np.abs(v - math.sqrt(2.0) * 2.5).max() <= 1e-14
                  and np.abs(d).max() == 0.0)
    rng = np.random.default_rng(0)
    u8 = rng.standard_normal(8)
    checks.append(abs(norms.wavelet_norm_of_vector(3.0 * u8)
                      - 3.0 * norms.wavelet_norm_of_vector(u8)) <= 1e-12)
    v1, d1 = norms.dwt_step([1.0, 0.0, 0.0, 0.0])
    checks.append(np.allclose(v1, [math.sqrt(2.0) / 2.0, 0.0], atol=1e-15)
                  and np.allclose(d1, [math.sqrt(2.0) / 2.0, 0.0],
                                  atol=1e-15))
    # weight formula
    cfg1 = AmrConfig(c1=1.0, c2=1.0, k=1)
    checks.append(estimator.weight_element(0.3, 0.0, cfg1) == 1.0)
    checks.append(abs(estimator.weight_element(0.01, 0.5, cfg1) - 0.02)
                  <= 1e-15)
    checks.append(estimator.weight_element(
        0.1, 0.05, AmrConfig(c1=1.0, c2=1.0, k=2)) == 1.0)
    # marking rule
    checks.append(driver.mark(np.array([1.0, 0.6, 0.4]), 0.5).tolist()
                  == [0, 1])
    checks.append(driver.mark(np.array([1.0, 0.5]), 0.5).tolist() == [0, 1])
    # mesh invariants after 10 random refinement rounds
    m = build_unit_square(2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = refine(m, rng.choice(m.num_triangles,
                                 max(1, m.num_triangles // 4),
                                 replace=False))
        check_mesh(m)
    checks.append(True)
    # manufactured linear solution: all residuals vanish
    lin = make_linear_problem()
    m4 = build_unit_square(4)
    sol = methods.solve_lagrange(lin, m4, k=2, kprime=0)
    res = estimator.compute_residuals(sol)
    checks.append(max(res.r1T.max(), res.r0F.max(), res.r1F.max(),
                      res.r2F.max(), res.r3F.max(),
                      np.sqrt(res.patch_sq.max())) <= 1e-9)
    # compatibility
    from fluxweight.problems import problem_data
    p = problem_data("franke")
    ni = methods.solve_nitsche(p, build_unit_square(32), k=1, gamma=10.0)
    checks.append(abs(exact_flux_integral_defect(ni)) <= 1e-9)
    # penalty-multiplier elimination equivalence to 1e-8
    poly = methods.ProblemSpec(
        name="poly", domain="unit-square",
        a=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        grad_a=lambda x, y: np.zeros(np.shape(np.asarray(x)) + (2,)),
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), 2.0),
        g=lambda x, y: x * y + 1.0)
    bh = methods.solve_barbosa_hughes(poly, m4, k=1, kprime=1, alpha=0.1)
    nit = methods.solve_nitsche(poly, m4, k=1, gamma=10.0)
    checks.append(np.abs(bh.coeffs - nit.coeffs).max()
                  <= 1e-8 * np.abs(nit.coeffs).max())
    ok = all(checks)
    assert report(9, ok, f"{sum(checks)}/{len(checks)} property groups hold")


def test_criterion_10_weight_demo_depth():
    meshes = driver.weight_demo(AmrConfig(k=2, c2=1.0), 7)
    near, center = driver.refinement_depth_stats(meshes[-1])
    ok = near - center >= 2
    assert report(
        10, ok,
        f"7-step weight demo: depth near boundary {near}, at center "
        f"{center}, gap {near - center} >= 2")
