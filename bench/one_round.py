"""One round of a benchmark workload: a fresh process runs the study
once through `experiments.run_experiment`, as `fluxweight run` does,
checks its outputs and prints one JSON line.

    python3 bench/one_round.py --workload franke-amr --out DIR [--check] [--trace 1]
    python3 bench/one_round.py --workload franke-amr --out DIR --probe

`--check` adds the operations of the study and the reasons each one
failed (checks.operations); the parent asks for them in one round and
requires every other round to write the same record.  `--probe` stops
at the first step and only reports when it began, for the set-up time.  Timestamps: `first_step_wall` is wall-clock time (so
the parent can measure set-up from its spawn); all durations come from
`time.perf_counter`.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Per workload: the E tolerance of time_to_tol_s / dofs_at_tol, the
# area of the domain, and the property checks of checks.operations.
SPECS = {
    "franke-amr": dict(tol=3e-2, area=1.0, slope_max=-0.9,
                       e1_resolved_rtol=0.05),
    "franke-uniform-e1": dict(tol=2e-3, area=1.0, energy_rate=(1.8, 2.2),
                              e1_rate_min=1.8, ratio_drift_max=0.3),
    "varcoef-multiplier-amr": dict(tol=5e-5, area=1.0, slope_max=-0.75,
                                   e1_resolved_rtol=0.05),
}


class FirstStep(Exception):
    """Raised by a set-up probe when the study reaches its first solve."""


def import_program():
    src = ROOT / "src"
    if not (src / "fluxweight" / "__init__.py").is_file():
        raise SystemExit(f"no fluxweight sources under {src}")
    sys.path.insert(0, str(src))
    import fluxweight
    if Path(fluxweight.__file__).resolve().parent != src / "fluxweight":
        raise SystemExit(f"imported fluxweight from {fluxweight.__file__}")


class StepClock:
    """Wall-clock marks at each method solve (a step starts) and at the
    return of the study function (the last step ends)."""

    def __init__(self, probe):
        from fluxweight import driver, methods
        self.first_wall = None
        self.starts = []
        self.loop_end = None
        for name in ("solve_nitsche", "solve_lagrange"):
            setattr(methods, name, self._at_solve(getattr(methods, name),
                                                  probe))
        for name in ("amr_loop", "uniform_study"):
            setattr(driver, name, self._at_end(getattr(driver, name)))

    def _at_solve(self, fn, probe):
        def solve(*args, **kwargs):
            if self.first_wall is None:
                self.first_wall = time.time()
            self.starts.append(time.perf_counter())
            if probe:
                raise FirstStep
            return fn(*args, **kwargs)
        return solve

    def _at_end(self, fn):
        def study(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.loop_end = time.perf_counter()
            return out
        return study

    def step_ends(self):
        return self.starts[1:] + [self.loop_end]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    from fluxweight import experiments
    import checks
    import tracing

    with open(BENCH / "workloads" / f"{args.workload}.json",
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    spec = dict(SPECS[args.workload], M=manifest["M"])
    out = Path(args.out)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    # installed last, so a step starts before any span inside it
    clock = StepClock(args.probe)
    tracer.active = bool(args.trace)
    try:
        _, _, results = experiments.run_experiment(manifest, out)
    except FirstStep:
        print(json.dumps({"first_step_wall": clock.first_wall}))
        return 0
    end = time.perf_counter()
    tracer.active = False
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = results[args.workload]
    study_dir = out / args.workload
    record = checks.read_record(study_dir / "record.csv")
    with open(study_dir / "record.csv", encoding="utf-8") as fh:
        outputs = [line.rsplit(",", 1)[0] for line in fh]

    start = clock.starts[0]
    ends = clock.step_ends()
    reached = [i for i, e in enumerate(record["E"]) if e <= spec["tol"]]
    at = reached[0] if reached else len(ends) - 1
    report = {
        "first_step_wall": clock.first_wall,
        "study_s": end - start,
        "step_s": [e - s for s, e in zip(clock.starts, ends)],
        "time_to_tol_s": ends[at] - start,
        "dofs_at_tol": int(record["N"][at]),
        "peak_rss_mb": peak_mb,
        "outputs": outputs,
    }
    if args.check:
        t0 = time.perf_counter()
        ops, info = checks.operations(spec, record, result.state)
        if not reached:
            ops[at][1].append(f"E never reaches the tolerance {spec['tol']}")
        report["operations"] = [{"name": n, "failed": f} for n, f in ops]
        report["checks"] = info
        report["check_s"] = time.perf_counter() - t0
    if args.trace:
        report["layers"] = tracer.layer_metrics(start, end)
        tracer.dump(out / "spans.json", start)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
