"""Span tracing installed from outside the package.

``Tracer.install`` replaces, in every ``binadapt`` submodule, each name that
is bound to one of the traced public functions with a timing wrapper, so a
call is recorded however its caller resolved the function
(``training.forward``, ``autodiff.forward`` as used by
``models.predict_prob_map``, ``similarity.predict_prob_map``,
``cli.autobindann``, ...). ``uninstall`` puts the originals back. Spans
(name, start, end, parent, run id) are kept in memory; a span's self time is
its duration minus the durations of its direct children.

Besides time, the wrappers take counts where the work happens: conv and
tconv multiply-accumulates computed from the graph's node specs and input
shapes, repeated (parameters, page) pairs in page prediction, epochs and the
best epoch of every training call, and the gate's correlation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
import tracemalloc
import weakref

import numpy as np

# module -> traced public functions; each span is named "module.function"
_TRACED = {
    "autodiff": ("forward", "backward", "optimizer_step"),
    "models": ("predict_prob_map",),
    "data": ("split_patches", "assemble", "read_pgm", "write_pgm", "load_dataset", "load_eval_masks"),
    "training": ("train_sae", "train_bindann", "sweep_threshold", "binarize",
                 "save_binarizer", "load_binarizer"),
    "similarity": ("domain_histogram", "compare_histograms", "autobindann"),
    "metrics": ("confusion",),
    "cli": ("main",),
}
_MODULES = ("autodiff", "layers", "models", "data", "training", "similarity", "metrics", "cli")


def conv_macs(graph, shapes, ids):
    """Multiply-accumulates of the conv2d/tconv2d nodes among ``ids``.

    A convolution costs one MAC per output element per kernel tap and input
    channel; a transposed convolution one per input element per kernel tap and
    output channel (it is the adjoint of the convolution with the roles of
    input and output swapped).
    """
    total = 0
    for nid in ids:
        node = graph.nodes[nid]
        if node.kind == "conv2d":
            b, _, oh, ow = shapes[nid]
        elif node.kind == "tconv2d":
            b, _, oh, ow = shapes[node.inputs[0]]
        else:
            continue
        spec = node.attrs["spec"]
        total += b * oh * ow * spec.in_channels * spec.out_channels * spec.kernel[0] * spec.kernel[1]
    return total


def node_shapes(graph, bindings, order):
    """Output shape of every node in ``order`` (a topological id list)."""
    shapes = {}
    for nid in order:
        node = graph.nodes[nid]
        if node.kind == "input":
            shapes[nid] = np.shape(bindings[node.attrs["input_name"]])
        elif node.kind == "param":
            shapes[nid] = graph.params[node.attrs["param_name"]].shape
        elif node.kind in ("conv2d", "tconv2d"):
            spec = node.attrs["spec"]
            b, _, h, w = shapes[node.inputs[0]]
            hw = spec.out_hw(h, w) if node.kind == "conv2d" else spec.transpose_out_hw(h, w)
            shapes[nid] = (b, spec.out_channels, *hw)
        elif node.kind in ("bce", "sum"):
            shapes[nid] = (1,)
        else:  # elementwise: identity, add, relu, sigmoid, dropout, grl
            shapes[nid] = shapes[node.inputs[0]]
    return shapes


def _prediction_key(model, page):
    pixels = page.pixels if hasattr(page, "pixels") else np.asarray(page, dtype=np.float64)
    digest = hashlib.blake2b(digest_size=16)
    for tensor in model.params.values():
        digest.update(tensor.data.tobytes())
    digest.update(repr(pixels.shape).encode())
    digest.update(np.ascontiguousarray(pixels).tobytes())
    return digest.digest()


def _output_ids(graph, names):
    return [graph.outputs[n] if isinstance(n, str) else int(n) for n in names]


class Tracer:
    """Spans and counts of the traced calls made while installed, per run id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.run_id = 0
        self.measure_peak = False
        self.predict_peak_bytes = 0
        self.gate = {}  # run id -> (rho, rho - rho_th)
        self.counts = {}
        self._stack = []
        self._saved = []
        # keyed by graph, weakly, so a freed graph's entry cannot be found by a new one
        self._macs_cache = weakref.WeakKeyDictionary()  # graph -> {(wanted, shapes): ...}
        self._last_forward = weakref.WeakKeyDictionary()  # graph -> node shapes
        self._seen_predictions = set()

    # -- bookkeeping ------------------------------------------------------
    def start_run(self, run_id):
        self.run_id = run_id
        self._seen_predictions = set()

    def count(self, key, value=1):
        self.counts.setdefault(self.run_id, {}).setdefault(key, 0)
        self.counts[self.run_id][key] += value

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- wrappers with counts --------------------------------------------
    def _forward(self, fn):
        def wrapper(graph, bindings=None, **kwargs):
            training = kwargs.get("training", False)
            name = "autodiff.forward_train" if training else "autodiff.forward_infer"
            out = self._call(name, fn, (graph, bindings), kwargs)
            wanted = kwargs.get("wanted") or tuple(graph.outputs)
            key = (tuple(wanted), tuple((k, np.shape(v)) for k, v in sorted((bindings or {}).items())))
            per_graph = self._macs_cache.setdefault(graph, {})
            if key not in per_graph:
                order = graph.ancestors(_output_ids(graph, wanted))
                shapes = node_shapes(graph, bindings, order)
                per_graph[key] = (conv_macs(graph, shapes, order), shapes)
            macs, shapes = per_graph[key]
            self.count("conv_macs", macs)
            self._last_forward[graph] = shapes
            return out
        return wrapper

    def _backward(self, fn):
        def wrapper(graph, loss):
            out = self._call("autodiff.backward", fn, (graph, loss), {})
            # every conv/tconv on the loss path computes an input and a weight
            # gradient, each as costly as the forward
            ids = graph.ancestors(_output_ids(graph, [loss]))
            self.count("conv_macs", 2 * conv_macs(graph, self._last_forward[graph], ids))
            return out
        return wrapper

    def _predict(self, fn):
        def wrapper(model, page, *args, **kwargs):
            # hashing is the tracer's own work: its span keeps it out of the
            # caller's self time
            key = self._call("trace.hash", _prediction_key, (model, page), {})
            self.count("predict_repeats", key in self._seen_predictions)
            self._seen_predictions.add(key)
            if not self.measure_peak:
                return self._call("models.predict_prob_map", fn, (model, page, *args), kwargs)
            tracemalloc.start()
            try:
                return self._call("models.predict_prob_map", fn, (model, page, *args), kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.predict_peak_bytes = max(self.predict_peak_bytes, peak)
        return wrapper

    def _trainer(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            scores = [h.val_f1 for h in result.history]
            self.count(f"{name}.epochs", len(scores))
            self.count("epochs", len(scores))
            self.count("useful_epochs", scores.index(max(scores)) + 1)
            return result
        return wrapper

    def _compare(self, fn):
        def wrapper(*args, **kwargs):
            report = self._call("similarity.compare_histograms", fn, args, kwargs)
            self.gate[self.run_id] = (report.rho, report.rho - report.rho_th)
            return report
        return wrapper

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _wrapper_for(self, module, attr, fn):
        if (module, attr) == ("autodiff", "forward"):
            return self._forward(fn)
        if (module, attr) == ("autodiff", "backward"):
            return self._backward(fn)
        if (module, attr) == ("models", "predict_prob_map"):
            return self._predict(fn)
        if attr in ("train_sae", "train_bindann"):
            return self._trainer(f"{module}.{attr}", fn)
        if attr == "compare_histograms":
            return self._compare(fn)
        return self._plain(f"{module}.{attr}", fn)

    # -- installation ------------------------------------------------------
    def install(self, package):
        """Wrap every binding of a traced function in the package's modules."""
        modules = {name: getattr(package, name) for name in _MODULES}
        wrappers = {}
        for owner, attrs in _TRACED.items():
            for attr in attrs:
                fn = getattr(modules[owner], attr)
                wrappers[id(fn)] = functools.wraps(fn)(self._wrapper_for(owner, attr, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    # -- results -----------------------------------------------------------
    def self_times(self, run_ids):
        """Per span name: (calls, inclusive seconds, self seconds), summed over runs."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, parent, run), children in zip(self.spans, child_time):
            if run not in run_ids:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - children)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
