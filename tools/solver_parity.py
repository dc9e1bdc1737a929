"""Compare GAEC and KL results of the working tree with those of a git revision.

Usage: python3 tools/solver_parity.py --against REV   (run from the repository root)

It builds the costed multicut instance of five scenes with the working
tree's `src/`: the three benchmark workloads as `perfbench/workloads.py`
sets them up (seed 0), `benchmark_spec(300)` and `dense_spec()` with the
default lifted gaps, both with 4 epochs. Each instance is captured where
the pipeline hands it to `solve_gaec`, and written with `write_instance`.

REV is checked out into a temporary `git worktree` from the local
repository. Each tree then reads every instance with its own
`read_instance` and solves it with GAEC and then KL from GAEC's partition,
in its own process with its own `src/`. The script prints one row per
scene with the graph sizes and the first difference in partition, trace
or objective (`==` when there is none), and exits 1 if any scene differs.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ("paper-100", "lifted-long", "dense-retrack", "benchmark-300", "dense-lifted")
ARTEFACTS = ("partition", "trace", "objective")


def _capture_instances(workdir: Path) -> dict:
    """Scene name -> the costed instance its tracking run hands to GAEC."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from liftedtrack import pipeline
    from liftedtrack.pipeline import PipelineConfig
    from liftedtrack.synth import benchmark_spec

    captured = []
    solve = pipeline.solve_gaec

    def capture(instance, *args, **kwargs):
        captured.append(instance)
        return solve(instance, *args, **kwargs)

    four_epochs = dataclasses.replace(PipelineConfig(), epochs=4)
    runs = {
        name: (lambda w=workloads.WORKLOADS[name], d=workdir / name:
               w.operation(w.setup(0, d)))
        for name in SCENES[:3]
    }
    runs["benchmark-300"] = lambda: workloads.InMemory(300, four_epochs).operation(
        workloads.render(benchmark_spec(300), 0))
    runs["dense-lifted"] = lambda: workloads.InMemory(None, four_epochs).operation(
        workloads.render(workloads.dense_spec(), 0))
    pipeline.solve_gaec = capture
    try:
        instances = {}
        for name in SCENES:
            del captured[:]
            runs[name]()
            (instances[name],) = captured
        return instances
    finally:
        pipeline.solve_gaec = solve


def _solve(instance_dir: Path, out: Path) -> None:
    """Solve every scene's instance with this process's liftedtrack; dump JSON."""
    import liftedtrack
    from liftedtrack.solver import read_instance, solve_gaec, solve_kl

    results = {"liftedtrack": liftedtrack.__file__}
    for name in SCENES:
        instance = read_instance(instance_dir / f"{name}.txt")
        gaec_trace, kl_trace = [], []
        gaec, gaec_value = solve_gaec(instance, trace=gaec_trace)
        kl, kl_value = solve_kl(instance, gaec, trace=kl_trace)
        results[name] = {
            "gaec": [gaec.component_of.tolist(), gaec_trace, gaec_value],
            "kl": [kl.component_of.tolist(), kl_trace, kl_value],
        }
    out.write_text(json.dumps(results))


def _run_tree(tree: Path, instance_dir: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, "--solve", str(instance_dir), str(out)],
                   env=env, check=True)
    results = json.loads(out.read_text())
    if not Path(results["liftedtrack"]).is_relative_to(tree / "src"):
        sys.exit(f"solver_parity: {tree} imported {results['liftedtrack']}")
    return results


def _first_difference(ours, theirs) -> str:
    """'' when equal, else where the first solver output differs."""
    for solver in ("gaec", "kl"):
        for artefact, mine, other in zip(ARTEFACTS, ours[solver], theirs[solver]):
            if mine == other:
                continue
            if not isinstance(mine, list):
                return f"{solver} {artefact}: {other!r} -> {mine!r}"
            if len(mine) != len(other):
                return f"{solver} {artefact}: length {len(other)} -> {len(mine)}"
            i = next(i for i, (x, y) in enumerate(zip(mine, other)) if x != y)
            return f"{solver} {artefact}[{i}]: {other[i]!r} -> {mine[i]!r}"
    return ""


def _git(*args) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--solve", nargs=2, metavar=("INSTANCES", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.solve:
        _solve(*map(Path, args.solve))
        return 0
    if not args.against:
        parser.error("--against REV is required")

    with tempfile.TemporaryDirectory(prefix="solver-parity-") as tmp:
        tmp = Path(tmp)
        instance_dir = tmp / "instances"
        instance_dir.mkdir()
        instances = _capture_instances(tmp / "work")
        from liftedtrack.solver import write_instance

        for name, instance in instances.items():
            write_instance(instance, instance_dir / f"{name}.txt")
        other = tmp / "rev"
        _git("worktree", "add", "--detach", str(other), args.against)
        try:
            theirs = _run_tree(other, instance_dir, tmp / "rev.json")
        finally:
            _git("worktree", "remove", "--force", str(other))
        ours = _run_tree(ROOT, instance_dir, tmp / "ours.json")

    print(f"{'scene':<14} {'|V|':>5} {'|E|':>6} {'|F|':>5}  {'GAEC+KL vs ' + args.against}")
    differ = False
    for name in SCENES:
        inst = instances[name]
        diff = _first_difference(ours[name], theirs[name])
        differ |= bool(diff)
        print(f"{name:<14} {inst.num_nodes:>5} {inst.num_edges:>6} {inst.num_lifted:>5}  "
              f"{diff or '=='}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
