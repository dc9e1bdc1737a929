"""Compare costed instances and GAEC and KL results with those of a git revision.

Usage: python3 tools/solver_parity.py --against REV   (run from the repository root)

It builds the costed multicut instance of five scenes: the three
benchmark workloads as `perfbench/workloads.py` sets them up (seed 0),
`benchmark_spec(300)` and `dense_spec()` with the default lifted gaps,
both with 4 epochs. Each instance is captured where the pipeline hands it
to `solve_gaec`, and written with `write_instance`.

REV's `src/` is extracted with `git archive` from the local repository
into a temporary directory. Each tree builds and writes the five
instances in a process with its own `src/` (and the working tree's
`perfbench/`), and the two files of each scene must be byte-identical,
so every cost is compared bit for bit. Each tree then reads every
instance of the working tree with its own `read_instance` and solves it
with GAEC and then KL from GAEC's partition, in a process with its own
`src/`. That is repeated three times, the two trees' processes
alternating (REV, working tree, REV, ...) so that a drift in machine
speed falls on both; each tree's three results must be equal, and the
fastest seconds of each solver are kept. In the same process each tree
also recomputes every objective that GAEC and KL return as
`objective(instance, partition_to_labeling(instance, partition))`, and
the two must be the same float bit for bit. The script prints one row
per scene with the graph sizes, each tree's GAEC and KL seconds (REV ->
working tree), the first differing instance line (`==` when the files
are equal), the first difference in partition, trace or objective
between the trees, and the first returned objective that differs from
its recomputation (each `==` when there is none), and exits 1 if any
scene differs.
"""

import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ("paper-100", "lifted-long", "dense-retrack", "benchmark-300", "dense-lifted")
ARTEFACTS = ("partition", "trace", "objective")
REPEATS = 3


def _capture_instances(workdir: Path, out: Path) -> None:
    """Write each scene's costed instance, as its tracking run hands it to
    GAEC, to out/<scene>.txt with this process's liftedtrack."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import liftedtrack
    import workloads
    from liftedtrack import pipeline
    from liftedtrack.pipeline import PipelineConfig
    from liftedtrack.solver import write_instance
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
    out.mkdir()
    for name in SCENES:
        del captured[:]
        runs[name]()
        (instance,) = captured
        write_instance(instance, out / f"{name}.txt")
    (out / "liftedtrack.json").write_text(json.dumps(liftedtrack.__file__))


def _solve(instance_dir: Path, out: Path) -> None:
    """Solve every scene's instance once with this process's liftedtrack; dump
    JSON with the results and each solver's seconds."""
    import liftedtrack
    from liftedtrack.solver import (objective, partition_to_labeling, read_instance,
                                    solve_gaec, solve_kl)

    results = {"liftedtrack": liftedtrack.__file__}
    for name in SCENES:
        instance = read_instance(instance_dir / f"{name}.txt")
        gaec_trace, kl_trace = [], []
        start = time.perf_counter()
        gaec, gaec_value = solve_gaec(instance, trace=gaec_trace)
        middle = time.perf_counter()
        kl, kl_value = solve_kl(instance, gaec, trace=kl_trace)
        end = time.perf_counter()
        recomputed = [(solver, value, objective(instance, partition_to_labeling(
            instance, partition))) for solver, partition, value
            in (("gaec", gaec, gaec_value), ("kl", kl, kl_value))]
        results[name] = {
            "gaec": [gaec.component_of.tolist(), gaec_trace, gaec_value],
            "kl": [kl.component_of.tolist(), kl_trace, kl_value],
            # float.hex tells apart values that == does not, as -0.0 and 0.0
            "objective": next((f"{solver} {value!r} returned, {again!r} recomputed"
                               for solver, value, again in recomputed
                               if value.hex() != again.hex()), ""),
            "seconds": [middle - start, end - middle],
        }
    out.write_text(json.dumps(results))


def _best_of(repeats: list) -> dict:
    """One tree's repeated results: each scene's results, which must agree on
    every repeat, with the fastest seconds of each solver."""
    best = {}
    for name in SCENES:
        solved = [{k: v for k, v in run[name].items() if k != "seconds"}
                  for run in repeats]
        if any(other != solved[0] for other in solved[1:]):
            sys.exit(f"solver_parity: {name} gives different results on repeat")
        seconds = zip(*(run[name]["seconds"] for run in repeats))
        best[name] = dict(solved[0], seconds=[min(s) for s in seconds])
    return best


def _run_tree(tree: Path, mode: str, *paths: Path) -> Path:
    """Run this script in `mode` on `paths` in a process that imports the
    tree's `src/`; return the last path, where the process wrote."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, mode, *map(str, paths)],
                   env=env, check=True)
    return paths[-1]


def _check_import(tree: Path, module: str) -> None:
    if not Path(module).is_relative_to(tree / "src"):
        sys.exit(f"solver_parity: {tree} imported {module}")


def _instance_difference(ours: Path, theirs: Path) -> str:
    """'' when the two instance files hold the same bytes, else their first
    differing line (the header is line 1)."""
    if ours.read_bytes() == theirs.read_bytes():
        return ""
    mine, other = ours.read_text().splitlines(), theirs.read_text().splitlines()
    i = next((i for i, (x, y) in enumerate(zip(mine, other)) if x != y),
             min(len(mine), len(other)))

    def line(lines):
        return repr(lines[i]) if i < len(lines) else "end of file"

    return f"line {i + 1}: {line(other)} -> {line(mine)}"


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


def _export_src(rev: str, dest: Path) -> None:
    """Extract REV's `src/` from the local repository into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--solve", nargs=2, metavar=("INSTANCES", "OUT"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--capture", nargs=2, metavar=("WORKDIR", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.solve:
        _solve(*map(Path, args.solve))
        return 0
    if args.capture:
        _capture_instances(*map(Path, args.capture))
        return 0
    if not args.against:
        parser.error("--against REV is required")

    with tempfile.TemporaryDirectory(prefix="solver-parity-") as tmp:
        tmp = Path(tmp)
        other = tmp / "rev"
        _export_src(args.against, other)
        instance_dirs = {}
        for tree, tag in ((other, "rev"), (ROOT, "ours")):
            instance_dirs[tree] = _run_tree(tree, "--capture", tmp / f"work-{tag}",
                                            tmp / f"instances-{tag}")
            _check_import(tree, json.loads(
                (instance_dirs[tree] / "liftedtrack.json").read_text()))
        instance_dir = instance_dirs[ROOT]
        instance_diff = {name: _instance_difference(instance_dir / f"{name}.txt",
                                                    instance_dirs[other] / f"{name}.txt")
                         for name in SCENES}
        # each file's "n m k" header
        sizes = {name: (instance_dir / f"{name}.txt").read_text().split(maxsplit=3)[:3]
                 for name in SCENES}
        runs = {other: [], ROOT: []}
        for repeat in range(REPEATS):
            for tree, tag in ((other, "rev"), (ROOT, "ours")):
                out = _run_tree(tree, "--solve", instance_dir, tmp / f"{tag}-{repeat}.json")
                runs[tree].append(json.loads(out.read_text()))
                _check_import(tree, runs[tree][-1]["liftedtrack"])
        theirs, ours = _best_of(runs[other]), _best_of(runs[ROOT])

    versus = f"GAEC+KL vs {args.against}"
    print(f"{'scene':<14} {'|V|':>5} {'|E|':>6} {'|F|':>5}  {'GAEC s':<15} {'KL s':<15} "
          f"{'instance':<9} {versus} objective")
    differ = False
    for name in SCENES:
        seconds = [f"{then:.3f} -> {now:.3f}"
                   for then, now in zip(theirs[name]["seconds"], ours[name]["seconds"])]
        diff = _first_difference(ours[name], theirs[name])
        # each tree's own returned-against-recomputed check, REV's first
        check = "; ".join(f"{tag}: {result[name]['objective']}"
                          for tag, result in ((args.against, theirs), ("tree", ours))
                          if result[name]["objective"])
        differ |= bool(diff or instance_diff[name] or check)
        n, m, k = sizes[name]
        print(f"{name:<14} {n:>5} {m:>6} {k:>5}  {seconds[0]:<15} {seconds[1]:<15} "
              f"{instance_diff[name] or '==':<9} {diff or '==':<{len(versus)}} "
              f"{check or '=='}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
