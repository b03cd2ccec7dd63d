"""The adaptive loop (solve -> estimate -> mark -> refine), uniform
refinement studies, and boundary-concentrated mesh studies, each a loop
over one `step`.

Every study returns a ConvergenceRecord and the state of its last step;
the error columns are E2 (the wavelet dual-norm surrogate, evaluated at
every step), E1 (the auxiliary-problem value: at the final AMR step and
at the uniform levels asked for), E = 4*E2 for the Nitsche/stabilized
runs (the calibrated substitute for the true error), and the bulk energy
error when the exact solution is known.

Every E1 uses one reference rule: the harmonic lifting is solved at
order k+2 on the boundary band of the step's mesh, where the triangles
whose vertex patch touches the boundary are bisected twice
(`mesh.boundary_band`).  Its boundary facets are those of the mesh
bisected twice everywhere, at a fraction of the unknowns.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
from . import fem, methods, norms
from .mesh import (boundary_band, build_domain_mesh, build_graded_mesh,
                   compute_distance_field, refine, uniform_refine)
from .problems import problem_data

log = logging.getLogger(__name__)

RECORD_COLUMNS = ("step", "N", "N_boundary", "eta", "eta_classical",
                  "E1", "E2", "E", "energy_err", "seconds")


@dataclass
class AmrConfig:
    """Method, estimator and marking parameters of a study."""

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
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("marking fraction must lie in (0, 1]")
        if self.estimator not in ("eta", "eta_classical"):
            raise ValueError(f"unknown estimator {self.estimator!r}")

    def weight_config(self):
        return est.WeightConfig(self.c1, self.c2, self.k)


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
    """Total unknowns of the configured method on a mesh (bulk plus
    multiplier), from mesh combinatorics alone."""
    k = config.k
    n_int = (k - 1) * (k - 2) // 2
    n = mesh.num_vertices + len(mesh.edges) * (k - 1) + mesh.num_triangles * n_int
    if config.method in (methods.LAGRANGE, methods.BARBOSA_HUGHES):
        nbf = mesh.num_boundary_facets
        if config.continuous:
            n += nbf * config.kprime
        else:
            n += nbf * (config.kprime + 1)
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
    if config.method == methods.NITSCHE:
        return methods.solve_nitsche(problem, mesh, k=config.k,
                                     gamma=config.gamma, sign=config.sign)
    raise ValueError(f"unknown method {config.method!r}")


def _true_error_scale(config):
    # calibrated substitute for the true error in the stabilized runs
    return 4.0 if config.method in (methods.NITSCHE,
                                    methods.BARBOSA_HUGHES) else 1.0


def _e1_of(delta, config, mesh):
    """E1 of `delta` under the module's reference rule: order k+2 on
    the boundary band of `mesh`.  The lifting needs a flux error of mean
    zero, so E1 raises fem.SolverError unless the solution conserves:
    |compatibility defect| <= 1e-10 * (load sum of |f|)."""
    sol = delta.solution
    defect = methods.compatibility_defect(sol)
    scale = fem.assemble_load(sol.space,
                              lambda x, y: np.abs(sol.problem.f(x, y))).sum()
    if not abs(defect) <= 1e-10 * scale:
        raise fem.SolverError(f"compatibility defect {defect:.3e} exceeds "
                              f"1e-10 of the load sum of |f|, {scale:.3e}")
    return norms.neumann_dual_error(delta, boundary_band(mesh, 2),
                                    order=config.k + 2)


def step(config, problem, mesh, e1=False):
    """One step of any study on `mesh`: solve, the patch distances rho_T,
    both estimators, E2, the energy error when the exact solution is
    known and, with `e1`, E1 (see `_e1_of`).

    Returns the record row (the keywords of ConvergenceRecord.append,
    `seconds` included) and the state (mesh, solution, indicators, rho).
    """
    t0 = time.perf_counter()
    solution = _solve(config, problem, mesh)
    rho = compute_distance_field(mesh)
    ind = est.build_indicators(solution, rho, config.weight_config())
    delta = norms.flux_error_function(solution)
    e2 = norms.wavelet_norm(delta, config.wavelet_level)
    energy = np.nan
    if problem.has_exact:
        energy = fem.h1_seminorm_error(solution.space, solution.coeffs,
                                       problem.grad_u)
    row = dict(N=solution.total_dofs, N_boundary=solution.boundary_dofs,
               eta=ind.eta, eta_classical=ind.eta_classical, E1=np.nan,
               E2=e2, E=_true_error_scale(config) * e2,
               energy_err=energy, h=float(mesh.h_T.max()))
    if e1:
        row["E1"] = _e1_of(delta, config, mesh)
    row["seconds"] = time.perf_counter() - t0
    return row, (mesh, solution, ind, rho)


def amr_loop(config):
    """Adaptive loop from the coarse initial mesh up to the DOF budget.

    Stops before the refinement that would exceed the budget; E2 is
    evaluated at every step, E1 at the final step only (on its boundary
    band, as in `step`).  Returns the record and the state of the final
    step (see `step`).
    """
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
    # the final row's seconds include its E1, as a uniform level's do
    t0 = time.perf_counter()
    record.E1[-1] = _e1_of(norms.flux_error_function(state[1]), config,
                           mesh)
    record.seconds[-1] += time.perf_counter() - t0
    return record, state


def uniform_study(config, levels, e1_levels=None):
    """Solves on uniformly refined meshes h, h/2, ... with E1 and E2.

    e1_levels bounds the number of levels that run the auxiliary-problem
    evaluation (its reference solve grows 16x per level); None runs it
    everywhere, 0 disables it.  Returns the record and the state of the
    finest level (see `step`).
    """
    problem = problem_data(config.problem)
    mesh = build_domain_mesh(problem.domain, config.initial_n)
    record = ConvergenceRecord(label="uniform")
    if e1_levels is None:
        e1_levels = levels
    for lvl in range(levels):
        if lvl:
            mesh = uniform_refine(mesh, 2)
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


def weight_demo(k=2, c2=1.0, steps=7, theta=0.5, initial_n=4,
                domain="unit-square"):
    """Mark-and-refine on the dual weight itself (no solve).

    Returns the list of meshes after each step; demonstrates that the
    weight alone concentrates refinement at the boundary.
    """
    wcfg = est.WeightConfig(1.0, c2, k)
    mesh = build_domain_mesh(domain, initial_n)
    out = [mesh]
    for _ in range(steps):
        sigma = est.weight_element(mesh.h_T, compute_distance_field(mesh),
                                   wcfg)
        mesh = refine(mesh, mark(sigma, theta))
        out.append(mesh)
    return out


def refinement_depth_stats(mesh, near_distance=0.125, center_radius=0.2):
    """Max refinement level of elements near the boundary (centroid
    within near_distance) vs the domain center (centroid within
    center_radius of the middle)."""
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    from .mesh import distance_to_boundary
    d = distance_to_boundary(mesh.domain, cent)
    near = mesh.level[d <= near_distance]
    poly_mid = mesh.polygon.mean(axis=0)
    ctr = mesh.level[np.hypot(cent[:, 0] - poly_mid[0],
                              cent[:, 1] - poly_mid[1]) <= center_radius]
    near_max = int(near.max()) if len(near) else 0
    ctr_max = int(ctr.max()) if len(ctr) else 0
    return near_max, ctr_max
