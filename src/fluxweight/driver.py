"""The adaptive loop (solve -> estimate -> mark -> refine), uniform
refinement studies, and boundary-concentrated mesh studies, each a loop
over one `step`, and the weight demo (marking on the weight alone);
each takes its parameters from one AmrConfig.

Every study returns a ConvergenceRecord and the state of its last step;
the error columns are E2 (the wavelet dual-norm surrogate, evaluated at
every step), E1 (the auxiliary-problem value: at the final AMR step and
at the uniform levels asked for), E = 4*E2 for the Nitsche/stabilized
runs (the calibrated substitute for the true error), and the bulk energy
error against the problem's exact solution.

Every E1 uses one reference rule: the harmonic lifting is solved at
order k+2 on a mesh graded from the boundary.  It is the coarse initial
mesh bisected toward the step's boundary facets alone
(`mesh.boundary_graded`), so the step's interior refinement stays out
of it, with its boundary band (the triangles whose vertex patch touches
the boundary) then bisected E1_BAND times (`mesh.boundary_band`).
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
from . import elements, fem, methods, norms
from .mesh import (boundary_band, boundary_graded, build_domain_mesh,
                   build_graded_mesh, compute_distance_field,
                   distance_to_boundary, refine, uniform_refine)
from .problems import problem_data, problem_names

log = logging.getLogger(__name__)

# bisection sweeps of the boundary band of every E1 reference
E1_BAND = 3

# refinement_depth_stats: a centroid this near the boundary, or this
# near the middle of the domain's corner loop
NEAR_DISTANCE = 0.125
CENTER_RADIUS = 0.2

RECORD_COLUMNS = ("step", "N", "N_boundary", "eta", "eta_classical",
                  "E1", "E2", "E", "energy_err", "seconds")


@dataclass
class AmrConfig:
    """Method, weight, estimator and marking parameters of a study, the
    one source of each: the weight min{C1, C2 (h_T/rho_T)^k} reads c1,
    c2 and k here (estimator.weight_element)."""

    problem: str = "franke"
    method: str = methods.NITSCHE
    k: int = 1
    kprime: int = 0
    continuous: bool = False
    gamma: float = 10.0
    alpha: float = 0.1
    sign: int = 1
    c1: float = 1.0
    c2: float = 1.0
    estimator: str = "eta"            # or "eta_classical"
    theta: float = 0.5
    budget: int = 20000
    wavelet_level: int = 20
    initial_n: int = 4

    def __post_init__(self):
        if self.problem not in problem_names():
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.method not in (methods.LAGRANGE, methods.BARBOSA_HUGHES,
                               methods.NITSCHE):
            raise ValueError(f"unknown method {self.method!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("weight constants must be positive")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("marking fraction must lie in (0, 1]")
        if self.estimator not in ("eta", "eta_classical"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass
class ConvergenceRecord:
    """Per-step study data; see RECORD_COLUMNS for the CSV layout."""

    label: str = ""
    N: list = field(default_factory=list)
    N_boundary: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    eta_classical: list = field(default_factory=list)
    E1: list = field(default_factory=list)
    E2: list = field(default_factory=list)
    E: list = field(default_factory=list)
    energy_err: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    h: list = field(default_factory=list)

    def __len__(self):
        return len(self.N)

    def append(self, **kw):
        for name in ("N", "N_boundary", "eta", "eta_classical", "E1", "E2",
                     "E", "energy_err", "seconds", "h"):
            getattr(self, name).append(kw.get(name, np.nan))

    def rates(self, metric):
        """Per-level rates log2(E(h)/E(h/2)) for halving sequences."""
        v = np.asarray(getattr(self, metric), dtype=float)
        return np.log2(v[:-1] / v[1:])

    def regression_slope(self, metric="E"):
        """Least-squares slope of log(metric) against log(N)."""
        v = np.asarray(getattr(self, metric), dtype=float)
        n = np.asarray(self.N, dtype=float)
        good = np.isfinite(v) & (v > 0)
        if good.sum() < 2:
            return np.nan
        return float(np.polyfit(np.log(n[good]), np.log(v[good]), 1)[0])

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(RECORD_COLUMNS) + "\n")
            for i in range(len(self)):
                row = [str(i), str(int(self.N[i])), str(int(self.N_boundary[i]))]
                for name in ("eta", "eta_classical", "E1", "E2", "E",
                             "energy_err", "seconds"):
                    val = getattr(self, name)[i]
                    row.append("" if not np.isfinite(val) else f"{val:.17g}")
                fh.write(",".join(row) + "\n")


def mark(indicators, theta=0.5):
    """Maximum marking: every element with eta_T >= theta * max eta_T.

    All-zero indicators mark everything (a uniform step) with a logged
    notice; the argmax element is always included.
    """
    indicators = np.asarray(indicators, dtype=float)
    if len(indicators) == 0:
        raise ValueError("empty indicator list")
    top = indicators.max()
    if top <= 0.0:
        log.warning("all indicators vanish: marking every element")
        return np.arange(len(indicators))
    return np.nonzero(indicators >= theta * top)[0]


def count_dofs(mesh, config):
    """Total unknowns of the configured method on a mesh: the bulk space
    plus, for the multiplier methods, the multiplier space."""
    n = fem.FeSpace(mesh, config.k).ndof
    if config.method in (methods.LAGRANGE, methods.BARBOSA_HUGHES):
        n += fem.BoundarySpace(mesh, config.kprime, config.continuous).ndof
    return n


def _solve(config, problem, mesh):
    if config.method == methods.LAGRANGE:
        return methods.solve_lagrange(problem, mesh, k=config.k,
                                      kprime=config.kprime,
                                      continuous=config.continuous)
    if config.method == methods.BARBOSA_HUGHES:
        return methods.solve_barbosa_hughes(
            problem, mesh, k=config.k, kprime=config.kprime,
            continuous=config.continuous, alpha=config.alpha,
            sign=config.sign)
    return methods.solve_nitsche(problem, mesh, k=config.k,
                                 gamma=config.gamma, sign=config.sign)


def _true_error_scale(config):
    # calibrated substitute for the true error in the stabilized runs
    return 4.0 if config.method in (methods.NITSCHE,
                                    methods.BARBOSA_HUGHES) else 1.0


def _check_e1_order(config):
    """Raise ValueError when E1's order k+2 has no elements, so that a
    study that will evaluate E1 stops before its first solve."""
    if config.k + 2 > elements.MAX_ORDER:
        raise ValueError(f"E1 needs elements of order k+2 = {config.k + 2}"
                         f", above the supported {elements.MAX_ORDER}")


def _e1_of(delta, config, mesh):
    """E1 of `delta` under the module's reference rule: order k+2 on the
    mesh graded from the boundary facets of `mesh` (which must be a
    bisection of the initial mesh at config.initial_n), its boundary
    band bisected E1_BAND times.  Logs one INFO line: the triangles of
    `mesh` and of the reference, the band depth and the build time.
    The lifting needs a flux error of mean zero, so E1 raises
    fem.SolverError unless the solution conserves: |compatibility
    defect| <= 1e-10 * integral |f|, both from the solve's own load
    pass."""
    sol = delta.solution
    defect = methods.compatibility_defect(sol)
    scale = sol.abs_f_integral
    if not abs(defect) <= 1e-10 * scale:
        raise fem.SolverError(f"compatibility defect {defect:.3e} exceeds "
                              f"1e-10 of integral |f|, {scale:.3e}")
    t0 = time.perf_counter()
    ref = boundary_band(boundary_graded(mesh, config.initial_n), E1_BAND)
    log.info("E1 reference: %(step)d step triangles, %(ref)d reference "
             "triangles, band %(band)d, built in %(seconds).3f s",
             dict(step=mesh.num_triangles, ref=ref.num_triangles,
                  band=E1_BAND, seconds=time.perf_counter() - t0))
    return norms.neumann_dual_error(delta, ref, order=config.k + 2)


def step(config, problem, mesh, e1=False):
    """One step of any study on `mesh`: solve, the patch distances rho_T,
    both estimators (whose volume pass also gives the energy error), E2
    and, with `e1`, E1 (see `_e1_of`).
    Logs one INFO line: N and the wall time of each phase, the energy
    error's within the estimator's.

    Returns the record row (the keywords of ConvergenceRecord.append,
    `seconds` included) and the state (mesh, solution, indicators, rho).
    """
    clock = [time.perf_counter()]
    solution = _solve(config, problem, mesh)
    clock.append(time.perf_counter())
    rho = compute_distance_field(mesh)
    clock.append(time.perf_counter())
    ind = est.build_indicators(solution, rho, config)
    clock.append(time.perf_counter())
    delta = norms.flux_error_function(solution)
    e2 = norms.wavelet_norm(delta, config.wavelet_level)
    clock.append(time.perf_counter())
    row = dict(N=solution.total_dofs, N_boundary=solution.boundary_dofs,
               eta=ind.eta, eta_classical=ind.eta_classical, E1=np.nan,
               E2=e2, E=_true_error_scale(config) * e2,
               energy_err=ind.residuals.energy_err,
               h=float(mesh.h_T.max()))
    if e1:
        row["E1"] = _e1_of(delta, config, mesh)
    clock.append(time.perf_counter())
    row["seconds"] = clock[-1] - clock[0]
    ms = 1e3 * np.diff(clock)
    log.info("step: N=%(N)d, solve %(solve).1f ms, rho_T %(rho).1f ms, "
             "estimator with energy error %(estimator).1f ms, "
             "E2 %(e2).1f ms, E1 %(e1)s",
             dict(N=row["N"], solve=ms[0], rho=ms[1], estimator=ms[2],
                  e2=ms[3], e1=f"{ms[4]:.1f} ms" if e1 else "-"))
    return row, (mesh, solution, ind, rho)


def amr_loop(config):
    """Adaptive loop from the coarse initial mesh up to the DOF budget.

    Stops before the refinement that would exceed the budget; E2 is
    evaluated at every step, E1 at the final step only (on the reference
    graded from its boundary facets, see `_e1_of`), and a k whose E1
    order is unsupported is refused before the first solve.  Returns the
    record and the state of the final step (see `step`).
    """
    _check_e1_order(config)
    problem = problem_data(config.problem)
    mesh = build_domain_mesh(problem.domain, config.initial_n)
    if count_dofs(mesh, config) >= config.budget:
        raise ValueError("DOF budget does not exceed the initial mesh")
    record = ConvergenceRecord(label=f"amr-{config.estimator}")
    while True:
        row, state = step(config, problem, mesh)
        record.append(**row)
        ind = state[2]
        eta_T = ind.eta_T if config.estimator == "eta" else ind.eta_T_classical
        nxt = refine(mesh, mark(eta_T, config.theta))
        if count_dofs(nxt, config) > config.budget:
            break
        mesh = nxt
        # the step's state is not kept through the next step
        del state, ind, eta_T
    # the mesh past the budget is not kept through the final E1, whose
    # factor sets the run's peak memory
    del nxt
    # the final row's seconds include its E1, as a uniform level's do
    t0 = time.perf_counter()
    record.E1[-1] = _e1_of(norms.flux_error_function(state[1]), config,
                           mesh)
    record.seconds[-1] += time.perf_counter() - t0
    return record, state


def uniform_study(config, levels, e1_levels=None):
    """Solves on uniformly refined meshes h, h/2, ... with E1 and E2.

    e1_levels bounds the number of levels that run the auxiliary-problem
    evaluation (its reference, graded from the boundary, grows about 2x
    per level: 624, 1360, 2968 and 6240 triangles from 8x8 on the unit
    square); None runs it everywhere, 0 disables it.  Unless it is 0, a
    k whose E1 order is unsupported is refused before the first solve.
    Returns the record and the state of the finest level (see `step`).
    """
    if e1_levels is None:
        e1_levels = levels
    if e1_levels:
        _check_e1_order(config)
    problem = problem_data(config.problem)
    mesh = build_domain_mesh(problem.domain, config.initial_n)
    record = ConvergenceRecord(label="uniform")
    for lvl in range(levels):
        if lvl:
            mesh = uniform_refine(mesh, 2)
            # the level's state is not kept through the next level
            del state
        row, state = step(config, problem, mesh, e1=lvl < e1_levels)
        record.append(**row)
    return record, state


def graded_study(config, h_list):
    """A-priori boundary-concentrated meshes for the given grading
    parameters: size h^2 on the boundary, h*sqrt(dist) in the bulk.
    Returns the record and the state of the last mesh (see `step`)."""
    problem = problem_data(config.problem)
    record = ConvergenceRecord(label="graded")
    for h in h_list:
        mesh = build_graded_mesh(problem.domain, h,
                                 initial_n=config.initial_n)
        row, state = step(config, problem, mesh)
        record.append(**row)
    return record, state


def weight_demo(config, steps):
    """Mark-and-refine `steps` times on the dual weight of `config`
    alone (its c1, c2, k and theta; no solve), from the initial mesh of
    its problem's domain at config.initial_n.

    Returns the initial mesh and the mesh after each step, steps + 1 in
    all; demonstrates that the weight alone concentrates refinement at
    the boundary.  `fluxweight run` reaches it through a `weight_demo`
    manifest study (experiments.run_study).
    """
    mesh = build_domain_mesh(problem_data(config.problem).domain,
                             config.initial_n)
    out = [mesh]
    for _ in range(steps):
        sigma = est.weight_element(mesh.h_T, compute_distance_field(mesh),
                                   config)
        mesh = refine(mesh, mark(sigma, config.theta))
        out.append(mesh)
    return out


def refinement_depth_stats(mesh):
    """Max refinement level of elements near the boundary (centroid
    within NEAR_DISTANCE) vs the domain center (centroid within
    CENTER_RADIUS of the middle)."""
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    d = distance_to_boundary(mesh.domain, cent)
    near = mesh.level[d <= NEAR_DISTANCE]
    poly_mid = mesh.polygon.mean(axis=0)
    ctr = mesh.level[np.hypot(cent[:, 0] - poly_mid[0],
                              cent[:, 1] - poly_mid[1]) <= CENTER_RADIUS]
    near_max = int(near.max()) if len(near) else 0
    ctr_max = int(ctr.max()) if len(ctr) else 0
    return near_max, ctr_max
