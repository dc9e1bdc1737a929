"""Tracking benchmark: fixed synthetic scenes tracked one after another.

    python3 perfbench/run.py --workload paper-100 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # each workload in its own process
    python3 perfbench/selftest.py                      # the output checks reject bad results

Run from the repository root; liftedtrack is imported from ./src. One
closed-loop caller tracks one sequence per operation, at least two, and
stops at the operation boundary nearest to --seconds. Every operation's
outputs are checked apart from the program (checks.py); an operation
fails if it raises or a check rejects it. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones, from operations that
alternate between untraced and traced. Set-up and operation times are
scaled to full machine speed with a reference kernel timed around each
of them (see _steady). The last stdout line is one JSON object: correct,
attempted, failed, metrics. Details and spans go to perfbench/out/.
"""

import os
import sys
import time


def _cap_threads():
    """BLAS and OpenMP pools no larger than the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() else nproc)
    return nproc


NPROC = _cap_threads()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYER_CLASSES, Recorder, tree_summary  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("paper-100", "lifted-long", "dense-retrack")
SETUP_REPEATS = 3
REFERENCE_REPEATS = 3
# The reference kernel's time at full speed on the 2-vCPU machine the
# benchmark was sized on (Python 3.11.7): the fastest of about a hundred
# timings. Set-up and operation times are scaled to it.
REFERENCE_S = 0.044

END_TO_END = {
    "setup_s": "s",
    "sequence_s": "s",
    "idf1": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_LABELS = tuple(dict.fromkeys(LAYER_CLASSES.values()))

# Per-layer time: metric -> span whose inclusive seconds it sums.
SPAN_SECONDS = {
    "synth.synth_sequence_s": "synth.synth_sequence",
    "pipeline.pregroup_s": "pipeline.pregroup",
    "embedding.train_s": "embedding.train",
    "embedding.model_load_s": "embedding.model_load",
    "affinity.latent_codes_s": "affinity.latent_codes",
    "affinity.fit_s": "affinity.fit",
    "affinity.assemble_costs_s": "affinity.assemble_costs",
    "affinity.read_match_table_s": "affinity.read_match_table",
    "graph.build_graph_s": "graph.build_graph",
    "solver.gaec_s": "solver.gaec",
    "solver.kl_s": "solver.kl",
    "pipeline.clusters_to_tracks_s": "pipeline.clusters_to_tracks",
    "metrics.evaluate_s": "metrics.evaluate",
    "motio.read_mot_s": "motio.read_mot",
    "motio.write_mot_s": "motio.write_mot",
    "motio.load_patches_s": "motio.load_patches",
    **{f"embedding.{label}.{d}_s": f"embedding.{label}.{d}"
       for label in LAYER_LABELS for d in ("forward", "backward")},
}

# Per-layer counts and values measured from captured results: metric -> unit.
FACT_UNITS = {
    "pipeline.tracklets": "count",
    "embedding.final_loss": "loss",
    "affinity.labeled_pairs": "count",
    "affinity.nearby_grad_norm": "norm",
    "affinity.lifted_grad_norm": "norm",
    "affinity.pairs_costed": "count",
    "graph.edges": "count",
    "graph.lifted_built": "count",
    "graph.lifted_kept": "count",
    "solver.gaec_contractions": "count",
    "solver.gaec_objective": "cost",
    "solver.kl_moves": "count",
    "solver.kl_objective": "cost",
    "pipeline.clusters_dropped": "count",
    "metrics.mota": "ratio",
    "metrics.id_switches": "count",
}

# Per-layer values derived from spans and facts (see _layer_metrics).
DERIVED_UNITS = {
    "embedding.epoch_s": "s",
    "embedding.steps": "count",
    "pipeline.run_tracking_self_s": "s",
    "solver.kl_sweep_s": "s",
    "trace.operation_self_s": "s",
    "trace.overhead_s": "s",
    "operation.wall_s": "s",
    "machine.reference_s": "s",
}


def per_layer_units():
    return {**{name: "s" for name in SPAN_SECONDS}, **FACT_UNITS, **DERIVED_UNITS}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


_IMPORTS = ("import numpy, scipy, scipy.optimize, scipy.sparse.csgraph, liftedtrack, "
            "liftedtrack.cli")


def _import_program():
    """Import numpy, scipy and liftedtrack from ./src."""
    src = ROOT / "src"
    if not (src / "liftedtrack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no liftedtrack sources in {src}")
    sys.path.insert(0, str(src))
    import liftedtrack

    if Path(liftedtrack.__file__).resolve().parent != (src / "liftedtrack").resolve():
        raise SystemExit(f"perfbench: imported liftedtrack from {liftedtrack.__file__}")


def _import_seconds():
    """Time a fresh interpreter takes for the imports of a run, per repeat.

    Each entry is (seconds, reference before, reference after).
    """
    code = ("import time; began = time.perf_counter(); " + _IMPORTS
            + "; print(time.perf_counter() - began)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        before = _reference_seconds()
        seconds = float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                       check=True, capture_output=True, text=True).stdout)
        times.append((seconds, before, _reference_seconds()))
    return times


# A dict larger than the CPU caches, read in a scattered order by the kernel.
REFERENCE_TABLE = {k: float(k) for k in range(1 << 16)}
REFERENCE_KEYS = [(i * 40503) % (1 << 16) for i in range(100_000)]


def _reference_kernel():
    """Fixed work apart from the program, on the interpreter and the caches:
    dict updates and a sort in cache, then scattered reads of a large dict."""
    table = {}
    for i in range(100_000):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0.0) + 0.5 * i
    return sorted(table.values()), sum(REFERENCE_TABLE[k] for k in REFERENCE_KEYS)


def _reference_seconds():
    """Median time of the reference kernel: how fast the machine runs right now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        began = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - began)
    return _median(times)


def _steady(seconds, before, after):
    """`seconds` at the speed where the reference kernel takes REFERENCE_S.

    The machine's speed is taken as the geometric mean of the reference
    kernel's time just before and just after the measured interval.
    """
    return seconds * REFERENCE_S / math.sqrt(before * after)


def _environment():
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _layer_metrics(recorder, setups, operations):
    """Per-layer values: median over traced operations.

    A layer that never runs inside an operation (e.g. training on
    dense-retrack) is reported from the last set-up instead; one that runs
    in neither reads 0.
    """
    traced = [op for op in operations if op["traced"] and op["error"] is None]
    op_trees = [tree_summary(recorder.spans, op["root"]) for op in traced]
    setup_tree = tree_summary(recorder.spans, setups[-1]["root"])

    def span_value(span, part=0):
        values = [tree[part][span] for tree in op_trees if tree[2][span]]
        if values:
            return _median(values)
        return setup_tree[part][span] if setup_tree[2][span] else 0.0

    def fact(name):
        values = [op["facts"][name] for op in traced if name in op["facts"]]
        if values:
            return _median(values)
        return setups[-1]["facts"].get(name, 0.0)

    out = {name: span_value(span) for name, span in SPAN_SECONDS.items()}
    out.update({name: fact(name) for name in FACT_UNITS})
    epochs = fact("embedding.epochs")
    out["embedding.epoch_s"] = out["embedding.train_s"] / epochs if epochs else 0.0
    out["embedding.steps"] = span_value("embedding.backward_batch", part=2)
    out["pipeline.run_tracking_self_s"] = span_value("pipeline.run_tracking", part=1)
    out["solver.kl_sweep_s"] = out["solver.kl_s"] / (out["solver.kl_moves"] + 1)
    out["trace.operation_self_s"] = span_value("operation", part=1)
    plain = [op["seconds"] for op in operations if not op["traced"] and op["error"] is None]
    out["trace.overhead_s"] = (_median([op["seconds"] for op in traced])
                               - _median(plain))
    out["operation.wall_s"] = _median(plain)
    out["machine.reference_s"] = _median(
        [r for item in setups + operations for r in item["reference"]])
    return out


def _run_workload(args):
    _import_program()
    from checks import CheckFailed, setup_facts, verify_operation
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    imports = _import_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    recorder = Recorder(traced=bool(args.trace))
    try:
        recorder.install()
        setups = []
        for _ in range(SETUP_REPEATS):
            before = _reference_seconds()
            root = recorder.open("setup") if recorder.traced else None
            began = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            seconds = time.perf_counter() - began
            if root is not None:
                recorder.close(root)
            setups.append({"seconds": seconds, "reference": [before, _reference_seconds()],
                           "root": root, "facts": setup_facts(recorder.take_calls())})

        operations = []
        window = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(operations) % 2 == 1
            recorder.uninstall()
            recorder.traced = traced
            recorder.install()
            gc.collect()  # no garbage of the last operation is collected in this one
            reference = [_reference_seconds()]
            root = recorder.open("operation") if traced else None
            began = time.perf_counter()
            error, facts = None, {}
            try:
                workload.operation(state)
            except Exception as exc:  # a failed operation is counted, not fatal
                stage = getattr(exc, "stage", "uncaught")
                error = (f"stage {stage}: {type(exc).__name__}: "
                         f"{getattr(exc, 'cause', exc)}")
            seconds = time.perf_counter() - began
            if root is not None:
                recorder.close(root)
            reference.append(_reference_seconds())
            calls = recorder.take_calls()
            if error is None:
                try:
                    facts = {**setup_facts(calls), **verify_operation(calls)}
                except CheckFailed as exc:
                    error = f"check {exc}"
            del calls  # keep no operation's objects alive into the next one
            operations.append({"seconds": seconds, "reference": reference,
                               "steady": _steady(seconds, *reference), "traced": traced,
                               "root": root, "error": error, "facts": facts})
            print(f"operation {len(operations)}: {seconds:.3f} s wall, "
                  f"{operations[-1]['steady']:.3f} s steady"
                  f"{' traced' if traced else ''}"
                  f"{' FAILED ' + error if error else ''}", flush=True)
            elapsed = time.perf_counter() - window
            # Stop at the operation boundary nearest to --seconds, after two.
            if len(operations) >= 2 and elapsed + seconds / 2 >= args.seconds:
                break
    finally:
        recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [op for op in operations if op["error"] is None]
    outcomes = {json.dumps({k: op["facts"][k] for k in
                            ("idf1", "metrics.mota", "solver.kl_objective")})
                for op in ok}
    if args.trace:
        values = _layer_metrics(recorder, setups, operations)
        units = per_layer_units()
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        recorder.write(spans_path)
    else:
        values = {
            "setup_s": (_median([_steady(*probe) for probe in imports])
                        + _median([_steady(s["seconds"], *s["reference"]) for s in setups])),
            "sequence_s": _median([op["steady"] for op in ok or operations]),
            "idf1": _median([op["facts"]["idf1"] for op in ok]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": len(outcomes) <= 1,
        "attempted": len(operations),
        "failed": len(operations) - len(ok),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "imports": imports,
        "setups": [{k: s[k] for k in ("seconds", "reference")} for s in setups],
        "wall": {"setup_s": (_median([probe[0] for probe in imports])
                             + _median([s["seconds"] for s in setups])),
                 "sequence_s": _median([op["seconds"] for op in ok or operations])},
        "operations": [{k: op[k] for k in ("seconds", "reference", "steady", "traced",
                                           "error", "facts")}
                       for op in operations],
        "result": result,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    env = detail["environment"]
    print(f"environment: nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in detail["wall"].items():
        print(f"{args.workload} {name} unscaled = {value:.6g} s")
    print(f"{args.workload}: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result), flush=True)
    return 0


def _run_all(args):
    """Each workload in a fresh process, so its peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        status = status or child.returncode
    return status


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
