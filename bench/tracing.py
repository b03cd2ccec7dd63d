"""In-memory spans around the public functions of each fluxweight layer.

The wrappers are installed from the benchmark's side: a function is
replaced on the object the caller looks it up on.  `driver` imports its
mesh functions by name, so those are wrapped in `driver`'s namespace;
`methods` and `norms` call `fem.<name>` through the module, so `fem`
functions are wrapped on the module; methods of `DiscreteSolution`,
`ProblemSpec`, `ConvergenceRecord` and `LogLogPlot` are wrapped on the
class.

A span is (name, start, end, parent), where the name is the wrapped
function as its caller sees it (`driver.refine`,
`DiscreteSolution.flux_values`); each function feeds one time metric.
The self time of a span is its duration minus the durations of its
direct children, so the self times of all spans plus the time outside
every span add up to the traced interval exactly.
"""

import functools
import json
import time


def _one(metric):
    return lambda args, kwargs, out: {metric: 1}


def _solve_counts(args, kwargs, out):
    system = args[0] if args else kwargs["system"]
    constraint = args[1] if len(args) > 1 else kwargs.get("constraint")
    n = system.matrix.shape[0] + (constraint is not None)
    return {"fem.solve_calls": 1, "fem.solve_dofs": n,
            "fem.solve_nnz": system.matrix.nnz}


def _e1_counts(args, kwargs, out):
    mesh = args[1] if len(args) > 1 else kwargs["fine_mesh"]
    k = args[2] if len(args) > 2 else kwargs["order"]
    ndof = (mesh.num_vertices + len(mesh.edges) * (k - 1)
            + mesh.num_triangles * (k - 1) * (k - 2) // 2)
    return {"norms.e1_dofs": ndof}


def _flux_counts(args, kwargs, out):
    return {"methods.flux_points": len(out)}


def _indicator_counts(args, kwargs, out):
    return {"estimator.elements": len(out.eta_T)}


def _refine_counts(args, kwargs, out):
    return {"mesh.refine_calls": 1, "mesh.triangles": out.num_triangles}


def targets():
    """(owner, attribute, time metric, counter) for every traced call."""
    from fluxweight import (driver, estimator, experiments, fem, methods,
                            norms, svgplot)
    return [
        (norms, "sample_to_dyadic", "norms.e2_sample_s",
         _one("norms.e2_calls")),
        (norms, "wavelet_norm_of_vector", "norms.dwt_s", None),
        (norms, "neumann_dual_error", "norms.e1_s", _e1_counts),
        (norms, "boundary_dual_load", "norms.dual_load_s", None),
        (methods.DiscreteSolution, "flux_values", "methods.flux_eval_s",
         _flux_counts),
        (methods.ProblemSpec, "exact_flux", "methods.exact_flux_s", None),
        (methods, "solve_nitsche", "methods.solve_s", _one("driver.steps")),
        (methods, "solve_lagrange", "methods.solve_s", _one("driver.steps")),
        (fem, "assemble_stiffness", "fem.assemble_s", None),
        (fem, "assemble_load", "fem.assemble_s", None),
        (fem, "boundary_integral_vector", "fem.assemble_s", None),
        (fem, "solve", "fem.solve_s", _solve_counts),
        (fem, "h1_seminorm_error", "fem.h1_error_s", None),
        (estimator, "build_indicators", "estimator.indicators_s",
         _indicator_counts),
        (driver, "refine", "mesh.refine_s", _refine_counts),
        (driver, "uniform_refine", "mesh.refine_s", _refine_counts),
        (driver, "build_graded_mesh", "mesh.refine_s", _refine_counts),
        (driver, "compute_distance_field", "mesh.distance_s", None),
        (driver, "mark", "driver.mark_s", None),
        (driver.ConvergenceRecord, "to_csv", "experiments.output_s", None),
        (svgplot.LogLogPlot, "write", "experiments.output_s", None),
        (experiments, "_write_uniform_table", "experiments.output_s", None),
    ]


# Every per-layer metric the traced run reports, with its unit; the
# time metrics are self times.
LAYER_METRICS = {
    "norms.e2_sample_s": "s", "norms.e2_calls": "count", "norms.dwt_s": "s",
    "methods.flux_eval_s": "s", "methods.flux_points": "points",
    "methods.exact_flux_s": "s",
    "norms.e1_s": "s", "norms.e1_dofs": "DOFs", "norms.dual_load_s": "s",
    "fem.assemble_s": "s", "fem.solve_s": "s", "fem.solve_calls": "count",
    "fem.solve_dofs": "DOFs", "fem.solve_nnz": "nnz", "fem.h1_error_s": "s",
    "methods.solve_s": "s",
    "estimator.indicators_s": "s", "estimator.elements": "count",
    "mesh.refine_s": "s", "mesh.refine_calls": "count",
    "mesh.triangles": "count", "mesh.distance_s": "s",
    "driver.mark_s": "s", "driver.steps": "count", "driver.other_s": "s",
    "experiments.output_s": "s",
    "trace.study_s": "s",
}


class Tracer:
    """Records spans of wrapped calls while `active` is set."""

    def __init__(self):
        self.active = False
        # [name, metric, start, end, parent index or -1, counts]
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, metric, counter=None):
        fn = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, metric, time.perf_counter(), None, parent, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self):
        for owner, attr, metric, counter in targets():
            self.wrap(owner, attr, metric, counter)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def layer_metrics(self, start, end):
        """Per-layer totals over [start, end]: self times, counters,
        `driver.other_s` (time in no span) and `trace.study_s`."""
        child = [0.0] * len(self.spans)
        for _, _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out = {m: 0 for m in LAYER_METRICS}
        covered = 0.0
        for i, (name, metric, s, e, parent, counts) in enumerate(self.spans):
            if s < start or e > end:
                raise ValueError(f"span {name} lies outside the study")
            out[metric] += (e - s) - child[i]
            if parent < 0:
                covered += e - s
            for key, val in (counts or {}).items():
                out[key] += val
        out["driver.other_s"] = (end - start) - covered
        out["trace.study_s"] = end - start
        return out

    def dump(self, path, origin):
        """Write the spans as JSON, times in seconds from `origin`."""
        rows = [{"name": n, "metric": m, "start": s - origin,
                 "end": e - origin, "parent": p, "counts": c or {}}
                for n, m, s, e, p, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
