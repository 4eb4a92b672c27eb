"""Static-graph reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built explicitly, node by node, and stored in topological order.
``forward`` evaluates the subgraph needed for the requested outputs, planned
once per output set (``Graph.plan``). A training forward records what each
op's backward reads; ``backward`` walks that record in reverse and
accumulates gradients by the chain rule, including the sign-flipped path of
the gradient-reversal layer. Parameters, outputs and gradients are plain float64
``np.ndarray``s. Outputs are addressed by the names given to
``Graph.set_output``. Everything is bit-deterministic for a fixed seed.
The module holds the engine and Adam only; ``models`` owns the checkpoint file.

Who owns which array:

* ``Graph.params`` maps names to C-contiguous arrays that the graph owns and
  ``optimizer_step`` updates in place, as it does Adam's moments.
* Ops allocate their results with plain numpy. Each op's forward returns its
  value and what its backward reads (``register_op``), a relu only the sign
  of its input. A forward's record holds those, the parameters and the
  registered outputs; every other value goes after its last forward
  consumer. Only a training forward keeps its record, once its outputs pass
  the finiteness check, until a backward consumes it or the next forward
  starts. An inference forward, as prediction runs it, keeps none, so it
  holds only the values still to be consumed. The C heap keeps what a step
  frees for the next step (see the heap thresholds below).
* The caller owns what the engine hands out: ``forward`` returns copies and
  ``backward`` the gradients themselves, and neither aliases a parameter.
"""

from __future__ import annotations

import copy
import ctypes
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphError",
    "NumericError",
    "Node",
    "Graph",
    "forward",
    "backward",
    "grad_check",
    "OptimizerState",
    "adam",
    "optimizer_step",
    "register_op",
]


class GraphError(ValueError):
    """A graph was built or executed against its contracts."""


class NumericError(GraphError):
    """A forward output or a gradient holds non-finite values."""


def _f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


@dataclass
class Node:
    kind: str
    inputs: tuple
    attrs: dict
    name: str


# Op registry. Each entry maps a node kind to two callables:
#   fwd(node, xs, run) -> (value, saved), saved being all that bwd reads
#   bwd(node, g, saved, needs) -> list of per-input gradients (None = constant input)
# needs[k] says whether some parameter feeds input k; bwd may return None
# for every input whose need is False, as its gradient would be discarded.
# Ownership. xs, saved and g belong to other nodes or to the caller: an op
# reads them and never writes them. fwd returns its value, and bwd the
# gradients, as new arrays, or an input or g itself, unchanged; bwd may
# return the same array for two inputs, so the engine sums into a new array,
# never into one it was handed. An op updates in place only arrays it
# allocated.
_OPS: dict = {}


def register_op(kind, fwd, bwd):
    if kind in _OPS:
        raise GraphError(f"op kind {kind!r} already registered")
    _OPS[kind] = (fwd, bwd)


# glibc's heap thresholds, fixed once for the whole process. By default glibc
# maps every block above its mmap threshold (128 KiB, raised to the largest
# mapped block freed so far) on its own and unmaps it when it is freed, and
# hands free memory at the top of the heap back to the kernel past twice that
# threshold, so the arrays a step frees go back to the kernel and the next
# step faults their pages in again. Fixed thresholds keep every block up to
# 4 MiB in the heap and up to 16 MiB of free memory at its top; larger
# arrays, such as a 1024x1024 page map, are still mapped on their own.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h
_TRIM_THRESHOLD = 16 << 20
_MMAP_THRESHOLD = 4 << 20
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # a C library without mallopt
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    _mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@dataclass
class _Run:
    """Record of one forward execution, consumed by backward."""

    values: dict  # node id -> value; once forward returns, the params and outputs
    order: tuple
    input_needs: dict  # node id -> per input: does a parameter feed it?
    training: bool
    rng: np.random.Generator | None = None  # dropout mask source when training
    saved: dict = field(default_factory=dict)  # op node id -> what its backward reads


class Graph:
    """Explicit computation graph; node storage order is the topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, np.ndarray] = {}
        self.input_ids: dict[str, int] = {}
        self.param_ids: dict[str, int] = {}
        self.outputs: dict[str, int] = {}
        self._run: _Run | None = None  # the last training forward's record, until a backward
        self._plans: dict = {}  # target ids -> plan(); cleared when a node is added

    def add_node(self, kind, inputs=(), name=None, **attrs) -> int:
        if kind not in _OPS and kind not in ("input", "param"):
            raise GraphError(f"unknown op kind {kind!r}")
        nid = len(self.nodes)
        for i in inputs:
            if not (0 <= i < nid):
                raise GraphError(f"node {nid} ({kind}) consumes undefined node id {i}")
        self.nodes.append(Node(kind, tuple(inputs), dict(attrs), name or f"{kind}{nid}"))
        self._plans.clear()
        return nid

    def input(self, name) -> int:
        if name in self.input_ids:
            raise GraphError(f"duplicate input {name!r}")
        nid = self.add_node("input", (), name=name, input_name=name)
        self.input_ids[name] = nid
        return nid

    def param(self, name, value) -> int:
        if name in self.params:
            raise GraphError(f"duplicate parameter {name!r}")
        self.params[name] = _f64(value)
        nid = self.add_node("param", (), name=name, param_name=name)
        self.param_ids[name] = nid
        return nid

    def add(self, a, b, name=None) -> int:
        return self.add_node("add", (a, b), name=name)

    def sum(self, x, name=None) -> int:
        return self.add_node("sum", (x,), name=name)

    def set_output(self, name, nid):
        if not (0 <= nid < len(self.nodes)):
            raise GraphError(f"output {name!r} points at undefined node id {nid}")
        self.outputs[name] = nid
        self._plans.clear()  # a plan never drops a registered output

    def ancestors(self, ids) -> list:
        """All node ids the given ids depend on, in storage (topological) order."""
        needed = set()
        stack = list(ids)
        while stack:
            i = stack.pop()
            if i in needed:
                continue
            needed.add(i)
            stack.extend(self.nodes[i].inputs)
        return sorted(needed)

    def plan(self, ids) -> tuple:
        """Execution plan of the given ids: their ``ancestors`` as a tuple, a
        map from each of those nodes to a tuple saying, per input, whether some
        parameter feeds it, and a map from a node to the values a forward
        drops once it is evaluated: every value but the parameters and the
        registered outputs, after its last forward consumer. Cached until the
        graph grows or an output is set."""
        key = tuple(ids)
        plan = self._plans.get(key)
        if plan is None:
            order = tuple(self.ancestors(key))
            fed, needs = set(), {}
            kept = set(self.param_ids.values()) | set(self.outputs.values())
            last = {}
            for nid in order:
                node = self.nodes[nid]
                needs[nid] = tuple(i in fed for i in node.inputs)
                if node.kind == "param" or any(needs[nid]):
                    fed.add(nid)
                for i in node.inputs:
                    last[i] = nid
            drops = {}
            for i, nid in last.items():
                if i not in kept:
                    drops.setdefault(nid, []).append(i)
            plan = self._plans[key] = (order, needs, drops)
        return plan


def _output_id(graph: Graph, name) -> int:
    if name not in graph.outputs:
        raise GraphError(f"unknown output {name!r}")
    return graph.outputs[name]


def forward(
    graph: Graph,
    bindings: dict | None = None,
    *,
    wanted=None,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> dict:
    """Evaluate the graph and return copies of the requested named outputs.

    Only the ancestor subgraph of ``wanted`` (default: all registered outputs)
    is computed, so inputs outside that subgraph need not be bound. A training
    forward draws the dropout nodes' boolean keep-masks from ``rng`` and, once
    its outputs are checked finite, leaves its record on the graph for one
    ``backward``: what each op's backward reads, the parameters and the
    registered outputs. An inference forward keeps no record, and a backward
    after it raises. The previous record is released first, so a forward that
    raises leaves nothing to differentiate.
    """
    graph._run = None
    bindings = bindings or {}
    if wanted is None:
        wanted = tuple(graph.outputs)
    if not wanted:
        raise GraphError("graph has no registered outputs")
    targets = [_output_id(graph, w) for w in wanted]
    order, needs, drops = graph.plan(targets)
    run = _Run(values={}, order=order, input_needs=needs, training=training, rng=rng)
    # overflow surfaces as the non-finite output check's NumericError below
    with np.errstate(over="ignore", invalid="ignore"):
        for nid in order:
            node = graph.nodes[nid]
            if node.kind == "input":
                name = node.attrs["input_name"]
                if name not in bindings:
                    raise GraphError(f"input {name!r} is not bound")
                val = _f64(bindings[name])
                if not np.all(np.isfinite(val)):
                    raise GraphError(f"input {name!r} contains non-finite values")
                run.values[nid] = val
            elif node.kind == "param":
                run.values[nid] = graph.params[node.attrs["param_name"]]
            else:
                fwd = _OPS[node.kind][0]
                xs = [run.values[i] for i in node.inputs]
                try:
                    if training:
                        run.values[nid], run.saved[nid] = fwd(node, xs, run)
                    else:
                        run.values[nid] = fwd(node, xs, run)[0]
                except (GraphError, MemoryError):  # a MemoryError keeps its exit code
                    raise
                except Exception as exc:  # re-raise with the node named
                    raise GraphError(f"node {nid} ({node.name}): {exc}") from exc
            for i in drops.get(nid, ()):
                del run.values[i]

    out = {}
    for w, nid in zip(wanted, targets):
        val = run.values[nid]
        if not np.all(np.isfinite(val)):
            raise NumericError(f"output {w!r} (node {nid}) contains non-finite values")
        out[w] = val.copy()
    if training:
        graph._run = run
    return out


def backward(graph: Graph, loss) -> dict:
    """Accumulate gradients of a scalar loss and return them per parameter name.

    Requires a prior training ``forward`` whose computed subgraph contains the
    loss node. Gradients flow in reverse topological order; a parameter feeding
    several consumers receives the sum of all path gradients. Nodes that no
    parameter feeds, such as the data inputs, receive no gradient. A node's
    gradient is dropped once it has been passed to the node's inputs. The
    engine keeps no reference to the gradients it returns. ``add`` passes one
    array to both its inputs, so two parameters that feed one ``add``
    directly get the same array. The backward consumes the forward's record,
    so each forward serves one backward.
    """
    run = graph._run
    if run is None:
        raise GraphError("backward called before a training forward; each serves one backward")
    lid = _output_id(graph, loss)
    if lid not in run.values:
        raise GraphError(f"loss node {lid} was not computed by the last forward")
    if run.values[lid].shape != (1,):
        raise GraphError(f"loss node {lid} is not scalar (shape {run.values[lid].shape})")
    graph._run = None
    grads = {lid: np.ones(1)}
    # non-finite gradients surface as optimizer_step's NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for nid in reversed(run.order):
            node = graph.nodes[nid]
            if not node.inputs:  # a parameter keeps its gradient; an input gets none
                continue
            saved, g = run.saved.pop(nid), grads.pop(nid, None)
            if g is None:
                continue
            needs = run.input_needs[nid]
            for i, need, gi in zip(node.inputs, needs, _OPS[node.kind][1](node, g, saved, needs)):
                if gi is None or not need:
                    continue
                # summed into a new array: add passes one g to both inputs
                grads[i] = grads[i] + gi if i in grads else gi
    return {name: grads[nid] for name, nid in graph.param_ids.items() if nid in grads}


def grad_check(
    graph: Graph,
    loss,
    bindings: dict,
    parameter: str,
    epsilon: float = 1e-5,
    *,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The error per element is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8). Every evaluation is a training forward drawing its dropout masks
    from a copy of ``rng`` as it stood before the first one, so each draws the
    same masks and the loss stays a fixed differentiable function of the
    parameter.
    """
    if not (0.0 < epsilon <= 1e-3):
        raise GraphError(f"epsilon {epsilon} outside (0, 1e-3]")
    if parameter not in graph.params:
        raise GraphError(f"unknown parameter {parameter!r}")

    start = copy.deepcopy(rng)
    forward(graph, bindings, wanted=(loss,), training=True, rng=rng)
    analytic = backward(graph, loss)[parameter].ravel()

    def eval_loss():
        out = forward(graph, bindings, wanted=(loss,), training=True, rng=copy.deepcopy(start))
        return float(out[loss][0])

    flat = graph.params[parameter].reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        lp = eval_loss()
        flat[i] = orig - epsilon
        lm = eval_loss()
        flat[i] = orig
        numeric = (lp - lm) / (2.0 * epsilon)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# core ops

def _fwd_add(node, xs, run):
    a, b = xs
    if a.shape != b.shape:
        raise GraphError(f"add node ({node.name}): shapes {a.shape} and {b.shape} differ")
    return np.add(a, b), None


def _bwd_add(node, g, saved, needs):
    return [g, g]  # one array to both inputs: neither may write it


def _fwd_sum(node, xs, run):
    return np.array([xs[0].sum()]), xs[0].shape


def _bwd_sum(node, g, shape, needs):
    return [np.full(shape, g[0])]


register_op("add", _fwd_add, _bwd_add)
register_op("sum", _fwd_sum, _bwd_sum)


# ---------------------------------------------------------------------------
# optimizer

# Adam's standard moment decay rates and denominator guard (Kingma & Ba 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam's per-parameter moment buffers plus step counter and learning rate."""

    lr: float
    step_count: int = 0
    moments: dict = field(default_factory=dict)


def adam(lr) -> OptimizerState:
    return OptimizerState(lr=lr)


def optimizer_step(state: OptimizerState, params: dict, grads: dict) -> dict:
    """Apply one deterministic Adam update in place and return the parameter dict."""
    state.step_count += 1
    t = state.step_count
    for name, g in grads.items():
        if name not in params:
            raise GraphError(f"gradient for unknown parameter {name!r}")
        p = params[name]
        ga = _f64(g)
        if ga.shape != p.shape:
            raise GraphError(f"parameter {name!r}: gradient shape {ga.shape} != {p.shape}")
        if not np.all(np.isfinite(ga)):
            raise NumericError(f"parameter {name!r}: non-finite gradient")
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p), np.zeros_like(p))
        m, v = state.moments[name]
        np.multiply(m, _BETA1, out=m)
        m += (1.0 - _BETA1) * ga
        np.multiply(v, _BETA2, out=v)
        v += (1.0 - _BETA2) * ga * ga
        mhat = m / (1.0 - _BETA1 ** t)
        vhat = v / (1.0 - _BETA2 ** t)
        p -= state.lr * mhat / (np.sqrt(vhat) + _EPS)
    return params
