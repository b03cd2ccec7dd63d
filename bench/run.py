"""Benchmark of the fluxweight studies, end to end or layer by layer.

    python3 bench/run.py --workload franke-amr --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

A run repeats whole rounds of one workload, one at a time, as long as
another round still fits into `--seconds` (at least one round).  Each
round is a fresh process (`bench/one_round.py`) that runs the
workload's manifest through `experiments.run_experiment`, as
`fluxweight run` does.  The first round also checks the outputs (its
check time is not counted against `--seconds`); every later round must
write the same record, so the first round's verdicts hold for all.
Set-up probes (processes that stop at the first step) follow until
there are five set-up samples.

With `--trace 0` the last line of standard output is a JSON object with
every end-to-end metric, the median over the rounds; with `--trace 1`
the rounds run under the span tracer of `bench/tracing.py` and the
object carries the per-layer metrics instead.  Every input is
closed-form, so `--seed` is recorded and changes nothing.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 170


def child(workload, out, *flags):
    """Run one round (or a set-up probe); returns (report, spawn time)."""
    cmd = [sys.executable, str(BENCH / "one_round.py"), "--workload",
           workload, "--out", str(out), *flags]
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} round exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def run_workload(workload, seconds, trace):
    out = ROOT / ".bench_out" / workload
    shutil.rmtree(out, ignore_errors=True)
    rounds, setups, used = [], [], 0.0
    while not rounds or used * (1 + 1 / len(rounds)) <= seconds:
        flags = ["--trace", str(trace)] + ([] if rounds else ["--check"])
        t0 = time.perf_counter()
        report, spawned = child(workload, out / f"round-{len(rounds)}",
                                *flags)
        used += time.perf_counter() - t0 - report.get("check_s", 0.0)
        rounds.append(report)
        setups.append(report["first_step_wall"] - spawned)
    while len(setups) < SETUP_SAMPLES:
        report, spawned = child(workload, out / "probe", "--probe")
        setups.append(report["first_step_wall"] - spawned)

    ops = rounds[0]["operations"]
    failed = [op for op in ops if op["failed"]]
    # every round must write the same record (apart from its seconds)
    same = all(r["outputs"] == rounds[0]["outputs"] for r in rounds)
    med = lambda key: statistics.median(r[key] for r in rounds)
    if trace:
        # the median round (the mean of the middle two for an even count)
        # by traced study time, so that the self times still add up
        by_time = sorted(rounds, key=lambda r: r["layers"]["trace.study_s"])
        mid = by_time[(len(rounds) - 1) // 2:len(rounds) // 2 + 1]
        metrics = {name: {"value": statistics.fmean(
                              r["layers"][name] for r in mid),
                          "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "study_s": {"value": med("study_s"), "unit": "s"},
            "step_s": {"value": statistics.median(
                statistics.median(r["step_s"]) for r in rounds), "unit": "s"},
            "time_to_tol_s": {"value": med("time_to_tol_s"), "unit": "s"},
            "dofs_at_tol": {"value": med("dofs_at_tol"), "unit": "DOFs"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
    for op in failed:
        print(f"# {workload}: {op['name']} failed: {'; '.join(op['failed'])}")
    print(f"# {workload}: {len(rounds)} rounds, "
          f"{len(rounds[0]['step_s'])} steps each, study_s "
          + " ".join(f"{r['study_s']:.3f}" for r in rounds))
    print(f"# {workload}: checks " + json.dumps(rounds[0]["checks"]))
    for name, m in metrics.items():
        print(f"# {workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": same, "attempted": len(ops) * len(rounds),
            "failed": len(failed) * len(rounds), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fluxweight" / "__init__.py").is_file():
        sys.exit(f"no fluxweight sources under {ROOT / 'src'}")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        print(f"# {name}: seed {args.seed} (inputs do not depend on it)")
        result = run_workload(name, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
