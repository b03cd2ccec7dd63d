"""Correctness checks of a study's outputs, made apart from the program.

`wavelet_e2` recomputes E2 from the flux error's pointwise evaluation:
cell averages on the dyadic boundary grid by a Gauss rule on each piece
of a cell cut at the facet ends, then the CDF(2,2) analysis pyramid and
the weighted coefficient norm of README "Conventions".  Nothing here
calls into `fluxweight.norms` for that.

`operations` turns one study into its operations (one per step, one per
E1 evaluation) and the reasons each one failed.
"""

import math
import warnings

import numpy as np

# (2,2)-biorthogonal analysis low-pass taps, README "Conventions"; tap l
# acts on entry 2k + l of the finer level.
_TAPS = (math.sqrt(2.0) / 2.0) * np.array(
    [3 / 128, -3 / 128, -11 / 64, 11 / 64, 1.0, 1.0,
     11 / 64, -11 / 64, -3 / 128, 3 / 128])
_GAUSS = np.polynomial.legendre.leggauss(4)


def dyadic_averages(mesh, evaluate, M, chunk=1 << 18):
    """2^(M/2)/|boundary| times the integral of evaluate(facet, t) over
    each of the 2^M dyadic boundary cells."""
    total = mesh.perimeter
    n = 1 << M
    cells = np.arange(n + 1) * (total / n)
    cuts = np.unique(np.concatenate([cells, mesh.bf_s0, [total]]))
    left, right = cuts[:-1], cuts[1:]
    keep = right - left > 1e-14 * total
    left, right = left[keep], right[keep]
    mid = 0.5 * (left + right)
    cell = np.minimum((mid * (n / total)).astype(np.int64), n - 1)
    facet = np.searchsorted(mesh.bf_s0, mid, side="right") - 1
    x, w = _GAUSS
    out = np.zeros(n)
    for lo in range(0, len(left), chunk):
        sl = slice(lo, lo + chunk)
        a, b, f = left[sl], right[sl], facet[sl]
        s = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
        t = (s - mesh.bf_s0[f][:, None]) / mesh.bf_len[f][:, None]
        vals = evaluate(np.repeat(f, len(x)), np.clip(t, 0.0, 1.0).ravel())
        piece = 0.5 * (b - a) * (vals.reshape(-1, len(x)) @ w)
        out += np.bincount(cell[sl], weights=piece, minlength=n)
    return (2.0 ** (M / 2.0) / total) * out


def pyramid_norm(v):
    """sqrt(v_0^2 + sum_j 2^-j |d_j|^2) of the periodic analysis pyramid."""
    v = np.asarray(v, dtype=float)
    total = 0.0
    while len(v) > 1:
        j = int(math.log2(len(v))) - 1
        d = (v[0::2] - v[1::2]) * (math.sqrt(2.0) / 2.0)
        total += 2.0 ** (-j) * float(d @ d)
        v = sum(h * np.roll(v, -l)[0::2] for l, h in enumerate(_TAPS))
    return math.sqrt(total + float(v[0]) ** 2)


def wavelet_e2(mesh, evaluate, M):
    return pyramid_norm(dyadic_averages(mesh, evaluate, M))


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def abs_source_integral(mesh, f):
    """Integral of |f| by the edge-midpoint rule (a scale, not a value
    under test)."""
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    vals = np.abs(f(mids[..., 0], mids[..., 1])).mean(axis=1)
    return float(vals @ np.abs(signed_areas(mesh)))


def slope(n, e):
    return float(np.polyfit(np.log(n), np.log(e), 1)[0])


def rate_last(values):
    return math.log2(values[-2] / values[-1])


def read_record(path):
    """Columns of a record CSV as float arrays (empty cells are NaN)."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: np.array([float(r[i]) if r[i] else np.nan for r in rows])
            for i, name in enumerate(head)}


def _final_checks(spec, record, state, fails):
    """Checks of the final step: the independent E2, the mesh, the
    discrete flux's conservation and the study's convergence law."""
    from fluxweight import methods, norms
    mesh, solution = state[0], state[1]
    e2 = wavelet_e2(mesh, norms.flux_error_function(solution).evaluate,
                    spec["M"])
    rel = abs(e2 - record["E2"][-1]) / e2
    if not rel <= 1e-10:
        fails.append(f"E2 {record['E2'][-1]:.17g} differs from the "
                     f"independent {e2:.17g} by {rel:.2e} relative")
    area = signed_areas(mesh)
    if not (area.min() > 0 and abs(area.sum() - spec["area"]) <= 1e-12):
        fails.append(f"mesh areas: min {area.min():.3e}, "
                     f"sum {area.sum():.17g} against {spec['area']}")
    defect = methods.compatibility_defect(solution)
    scale = abs_source_integral(mesh, solution.problem.f)
    if not abs(defect) <= 1e-10 * scale:
        fails.append(f"compatibility defect {defect:.3e} against "
                     f"integral |f| {scale:.3e}")
    info = {"E2_independent": e2, "E2_rel_diff": rel,
            "compatibility_rel": abs(defect) / scale}
    if "slope_max" in spec:
        s = info["slope"] = slope(record["N"], record["E"])
        if not s <= spec["slope_max"]:
            fails.append(f"slope of E against N {s:.3f} > "
                         f"{spec['slope_max']}")
    if "energy_rate" in spec:
        lo, hi = spec["energy_rate"]
        r = info["energy_rate"] = rate_last(record["energy_err"])
        if not lo <= r <= hi:
            fails.append(f"energy-error rate {r:.3f} not in [{lo}, {hi}]")
    return info


def _e1_checks(spec, record, state, fails):
    """Checks of the last E1 evaluation against its convergence law or
    against a resolved reference."""
    e1 = record["E1"]
    info = {}
    if "e1_rate_min" in spec:
        r = info["E1_rate"] = rate_last(e1)
        if not r >= spec["e1_rate_min"]:
            fails.append(f"E1 rate {r:.3f} < {spec['e1_rate_min']}")
    if "ratio_drift_max" in spec:
        ratio = record["E2"] / e1
        drift = info["ratio_drift"] = ratio.max() / ratio.min() - 1.0
        if not drift <= spec["ratio_drift_max"]:
            fails.append(f"E2/E1 drifts by {drift:.3f} > "
                         f"{spec['ratio_drift_max']}")
    if "e1_resolved_rtol" in spec:
        from fluxweight import mesh as fmesh, norms
        mesh, solution = state[0], state[1]
        fine = fmesh.uniform_refine(mesh, 2)
        delta = norms.flux_error_function(solution)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ref = norms.neumann_dual_error(delta, fine,
                                           order=solution.space.order + 2)
        rel = abs(e1[-1] - ref) / ref
        info.update(E1_resolved=ref, E1_rel_diff=rel)
        if not rel <= spec["e1_resolved_rtol"]:
            fails.append(f"E1 {e1[-1]:.6e} differs from {ref:.6e} on the "
                         f"final mesh bisected twice at order k+2 by "
                         f"{100 * rel:.1f}%")
    return info


def operations(spec, record, state):
    """[(operation name, [reasons it failed])] of one study, and the
    check values worth printing."""
    ops = []
    n, e, eta = record["N"], record["E"], record["eta"]
    for i in range(len(n)):
        fails = []
        if not (np.isfinite(e[i]) and e[i] > 0
                and np.isfinite(eta[i]) and eta[i] > 0):
            fails.append(f"E {e[i]!r} or eta {eta[i]!r} not positive")
        if i and not n[i] > n[i - 1]:
            fails.append(f"N does not grow: {n[i - 1]:.0f} -> {n[i]:.0f}")
        ops.append((f"step {i}", fails))
    info = _final_checks(spec, record, state, ops[-1][1])
    e1_steps = np.nonzero(np.isfinite(record["E1"]))[0]
    for j, i in enumerate(e1_steps):
        fails = []
        if not record["E1"][i] > 0:
            fails.append(f"E1 {record['E1'][i]!r} not positive")
        if j == len(e1_steps) - 1:
            info.update(_e1_checks(spec, record, state, fails))
        ops.append((f"E1 step {i}", fails))
    return ops, info
