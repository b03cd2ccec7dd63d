"""Command-line interface.

    fluxweight run <manifest.json> [--out DIR]
                   [--dump-mesh] [--dump-indicators] [--dump-pyramid]
    fluxweight list-problems

Every study setting comes from the manifest: the weight demo too is a
manifest study (`fluxweight run manifests/weights.json --dump-mesh`).
`run` checks the manifest's keys, study names and values, then runs its
studies on as many threads as it has studies, up to the CPUs available
to the process; each thread is named after its study, and every log
line carries the name of its thread.
"""

import argparse
import logging
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fluxweight",
        description="Adaptive FEM studies for boundary-flux approximation")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a manifest of studies")
    p_run.add_argument("manifest")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--dump-mesh", action="store_true")
    p_run.add_argument("--dump-indicators", action="store_true")
    p_run.add_argument("--dump-pyramid", action="store_true")

    sub.add_parser("list-problems", help="list registered problems")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(threadName)s %(name)s: %(message)s",
        stream=sys.stderr)

    if args.command == "list-problems":
        from .problems import problem_data, problem_names
        for name in problem_names():
            spec = problem_data(name)
            print(f"{name}: domain={spec.domain}")
        return 0

    if args.command == "run":
        from .experiments import run_experiment
        report, ok, _ = run_experiment(
            args.manifest, args.out,
            dump_mesh_flag=args.dump_mesh,
            dump_indicators_flag=args.dump_indicators,
            dump_pyramid_flag=args.dump_pyramid)
        for entry in report["assertions"]:
            status = "pass" if entry["ok"] else "FAIL"
            print(f"[{status}] {entry['check']}: {entry['detail']}")
        if not ok:
            print("some assertions failed", file=sys.stderr)
            return 1
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
