"""Spans and captured results, recorded by wrapping liftedtrack's public functions.

The benchmark never edits the program. It replaces module and class
attributes with wrappers for the length of a run:

* a captured call keeps its bound arguments and result, so the output
  checks can recompute what the program returned;
* a traced call records a span (name, start, end, parent) in memory.

Untraced runs install only the capturing wrappers around the dozen
pipeline-level calls of an operation, so the timed code is the program's
own; traced runs wrap every layer down to the network layers.
"""

import importlib
import inspect
import json
import time
from collections import defaultdict

# (module attribute path, attribute, span name, capture)
# Each function is wrapped where the pipeline looks it up, i.e. in the
# namespace of the module that calls it.
PIPELINE_CALLS = (
    ("liftedtrack.synth", "synth_sequence", "synth.synth_sequence", False),
    ("liftedtrack.pipeline", "pregroup", "pipeline.pregroup", True),
    ("liftedtrack.cli", "pregroup", "pipeline.pregroup", True),
    ("liftedtrack.pipeline", "train", "embedding.train", True),
    ("liftedtrack.pipeline", "latent_codes", "affinity.latent_codes", True),
    ("liftedtrack.cli", "latent_codes", "affinity.latent_codes", True),
    ("liftedtrack.pipeline", "fit_affinity_models", "affinity.fit", True),
    ("liftedtrack.cli", "fit_affinity_models", "affinity.fit", True),
    ("liftedtrack.pipeline", "run_tracking", "pipeline.run_tracking", True),
    ("liftedtrack.cli", "run_tracking", "pipeline.run_tracking", True),
    ("liftedtrack.pipeline", "build_graph", "graph.build_graph", True),
    ("liftedtrack.pipeline", "assemble_costs", "affinity.assemble_costs", True),
    ("liftedtrack.pipeline", "solve_gaec", "solver.gaec", True),
    ("liftedtrack.pipeline", "solve_kl", "solver.kl", True),
    ("liftedtrack.pipeline", "clusters_to_tracks", "pipeline.clusters_to_tracks", True),
    ("liftedtrack.metrics", "evaluate_clear_mot", "metrics.evaluate", True),
    ("liftedtrack.cli", "read_mot", "motio.read_mot", False),
    ("liftedtrack.motio", "read_mot", "motio.read_mot", False),
    ("liftedtrack.cli", "write_mot", "motio.write_mot", False),
    ("liftedtrack.motio", "write_mot", "motio.write_mot", False),
    ("liftedtrack.cli", "load_patches", "motio.load_patches", False),
    ("liftedtrack.cli", "read_match_table", "affinity.read_match_table", False),
)

# Solvers record their objective after each step when handed a list.
TRACE_ARGUMENT = frozenset({"solver.gaec", "solver.kl"})

# Network layers are timed per class; Flatten and Reshape share one name.
LAYER_CLASSES = {
    "Conv2D": "Conv2D",
    "MaxPool2x2": "MaxPool2x2",
    "Upsample2x": "Upsample2x",
    "ReLU": "ReLU",
    "Dense": "Dense",
    "Flatten": "Flatten-Reshape",
    "Reshape": "Flatten-Reshape",
}


class Recorder:
    """Holds the wrappers, the spans and the captured calls of one run."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []  # [parent index or -1, name, start, end]
        self.calls = defaultdict(list)  # span name -> [(arguments, result)]
        self._stack = []
        self._undo = []

    # -- wrapping -------------------------------------------------------------

    def install(self):
        from liftedtrack.embedding import AutoEncoder, layers

        for module_name, attr, name, capture in PIPELINE_CALLS:
            if capture or self.traced:
                self._wrap(importlib.import_module(module_name), attr, name, capture)
        if self.traced:
            self._wrap(AutoEncoder, "load", "embedding.model_load", False)
            self._wrap(AutoEncoder, "backward_batch", "embedding.backward_batch", False)
            for cls_name, label in LAYER_CLASSES.items():
                cls = getattr(layers, cls_name)
                self._wrap(cls, "forward", f"embedding.{label}.forward", False)
                self._wrap(cls, "backward", f"embedding.{label}.backward", False)

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, owner, attr, name, capture):
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn)
        recorder = self
        add_trace = name in TRACE_ARGUMENT

        def wrapper(*args, **kwargs):
            if add_trace and kwargs.get("trace") is None:
                kwargs["trace"] = []
            if recorder.traced:
                result = recorder._timed(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if capture:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                recorder.calls[name].append((dict(bound.arguments), result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def _timed(self, name, fn, args, kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, name, 0.0, 0.0])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][1]} closed out of order")

    def take_calls(self):
        """Captured calls since the last take; the recorder forgets them."""
        calls, self.calls = self.calls, defaultdict(list)
        return calls

    def write(self, path):
        """One JSON array per line: [index, parent, name, start, end]."""
        with open(path, "w", encoding="ascii") as fh:
            for index, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")


def tree_summary(spans, root):
    """Inclusive time, self time and count per span name under one root span.

    Self time is a span's duration minus the time its children cover.
    Raises ValueError when a child lies outside its parent or overlaps a
    sibling, since self times would then not add up to the root's
    duration.
    """
    children = defaultdict(list)
    members = [root]
    for index in range(root + 1, len(spans)):
        parent = spans[index][0]
        if parent < root:
            break
        children[parent].append(index)
        members.append(index)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    for index in members:
        _, name, start, end = spans[index]
        covered = 0.0
        previous_end = start
        for child in children[index]:
            _, child_name, c_start, c_end = spans[child]
            if c_start < previous_end or c_end > end:
                raise ValueError(f"span {child_name} escapes its parent {name}")
            covered += c_end - c_start
            previous_end = c_end
        inclusive[name] += end - start
        self_time[name] += end - start - covered
        count[name] += 1
    return inclusive, self_time, count
