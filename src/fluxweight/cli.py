"""Command-line interface.

    fluxweight run <manifest.json> [--out DIR]
                   [--dump-mesh] [--dump-indicators] [--dump-pyramid]
    fluxweight demo-weights [--k 2] [--c2 1.0] [--steps 7] [--out DIR]
    fluxweight list-problems

`run` checks the manifest's keys and study names, then runs its studies
on as many threads as it has studies, up to the CPUs available to the
process; each thread is named after its study, and every log line
carries the name of its thread.
"""

import argparse
import logging
import sys
from pathlib import Path


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

    p_demo = sub.add_parser(
        "demo-weights",
        help="mark/refine on the dual weight alone (no solves)")
    p_demo.add_argument("--k", type=int, default=2)
    p_demo.add_argument("--c2", type=float, default=1.0)
    p_demo.add_argument("--steps", type=int, default=7)
    p_demo.add_argument("--theta", type=float, default=0.5)
    p_demo.add_argument("--out", default="out-weights")

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

    if args.command == "demo-weights":
        from .driver import AmrConfig, weight_demo
        from .experiments import write_weight_summary
        from .mesh import dump_mesh
        config = AmrConfig(k=args.k, c2=args.c2, theta=args.theta)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        meshes = weight_demo(config, args.steps)
        nb, ct = write_weight_summary(meshes, out / "summary.csv")
        for i, msh in enumerate(meshes):
            dump_mesh(msh, out / f"mesh_step{i}.txt")
        print(f"steps={args.steps} elements={meshes[-1].num_triangles} "
              f"depth near boundary={nb} depth at center={ct}")
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
