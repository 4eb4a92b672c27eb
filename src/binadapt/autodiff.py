"""Static-graph reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built explicitly, node by node, and stored in topological order.
``forward`` evaluates the subgraph needed for the requested outputs, planned
once per output set (``Graph.plan``), and caches the per-node values;
``backward`` walks that cache in reverse and accumulates
gradients by the chain rule, including the sign-flipped path used by the
gradient-reversal layer. Parameters, outputs and gradients are plain float64
``np.ndarray``s. Outputs are addressed by the names given to
``Graph.set_output``. Everything is bit-deterministic for a fixed seed.

Who owns which array:

* ``Graph.params`` maps names to C-contiguous arrays that the graph owns and
  ``optimizer_step`` updates in place, as it does Adam's moments, which the
  optimizer state owns.
* Ops write their values, dropout masks, grids, gradients and scratch into
  op buffers: views of one arena (``_Arena``). A buffer is live while any
  view of it is, and its place is free once the last one is gone, so an op
  keeps no reference past a buffer's last use and nothing module-level may
  hold an op buffer. A forward's record holds its values, masks and kept
  grids until the next forward on the graph. Buffers whose lives do not
  overlap share memory (static reuse, Chen et al. 2016). A backward planned
  after a replayed forward counts that forward's kept grids live throughout,
  since replayed views carry no record of their death.
* Inside a ``keep_buffers(graph)`` block the arena lives on the graph, and a
  forward or backward that ran before at the same shapes writes exactly
  where it did then, so a steady-state training step allocates no array.
  The block lets go of the arena, and of the last forward's record, when it
  exits; outside a block every forward has an arena of its own.
* The caller owns what the engine hands out: ``forward`` returns copies,
  ``backward`` returns copies of the parameters' gradients, and neither
  aliases a parameter or an op buffer. ``frozen_masks`` given to ``forward``
  are read, never written.
"""

from __future__ import annotations

import bisect
import math
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphError",
    "CheckpointError",
    "NumericError",
    "Node",
    "Graph",
    "keep_buffers",
    "forward",
    "backward",
    "grad_check",
    "OptimizerState",
    "adam",
    "optimizer_step",
    "CHECKPOINT_MAGIC",
    "write_checkpoint",
    "read_checkpoint",
    "register_op",
]


class GraphError(ValueError):
    """A graph was built or executed against its contracts."""


class CheckpointError(GraphError):
    """Checkpoint bytes that do not decode to the model they claim to hold."""


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


# Op registry. Each entry maps a node kind to a pair of callables:
#   fwd(node, xs, run) -> ndarray
#   bwd(node, g, xs, y, run) -> list of per-input gradients (None = constant input)
# bwd may return None for every input k whose run.needs[k] is False: no
# parameter feeds that input, so its gradient would be discarded.
# Ownership. xs, y and g belong to other nodes or to the caller: an op reads
# them and never writes them. fwd writes its value, and bwd the gradients it
# returns, into op buffers it takes (run.take, run.result); either may also
# return an input or g itself, unchanged, and bwd may return the same array
# for two inputs, so the engine sums into a new buffer, never into one it
# was handed. An op updates in place only buffers it took. A buffer's memory
# may go to the next buffer taken once its last view is gone, so an op drops
# each reference when it is done with it (``del``) if it takes more after.
_OPS: dict = {}


def register_op(kind, fwd, bwd):
    if kind in _OPS:
        raise GraphError(f"op kind {kind!r} already registered")
    _OPS[kind] = (fwd, bwd)


_ALIGN = 64  # bytes: every buffer of an arena starts on a cache line


def _view(raw, shape, dtype, order):
    """raw's bytes as an array of shape and dtype whose axes lie in memory in
    ``order``, from the largest stride (None: C order)."""
    flat = raw.view(dtype)
    if order is None:
        return flat.reshape(shape)
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return flat.reshape([shape[i] for i in order]).transpose(inverse)


class _Program:
    """Where the first run of a program placed each buffer it took, in order,
    and views of the arena's current array at those places. A forward's
    program also holds where its planner stood at its end, which a backward
    after it is planned from, and the programs of those backwards."""

    def __init__(self):
        self.places = []  # (start, shape, dtype, order) per buffer taken
        self.memory = None  # the array self.views look into
        self.views = []
        self.end = None
        self.backward = {}

    def views_in(self, memory):
        if self.memory is not memory:
            self.views = [_view(memory[start : start + math.prod(shape) * np.dtype(dtype).itemsize],
                                shape, dtype, order) for start, shape, dtype, order in self.places]
            self.memory = memory
        return self.views


class _Arena:
    """One flat byte array holding the op buffers of every program run on a
    graph. A program is one forward, or one backward after that forward.

    The first run of a program is planned: each buffer goes, best fit, to a
    place that no buffer still live overlaps, and the program records it.
    Later runs hand out views of the same places in the same order. A
    planned buffer that lies past the end of the array gets an array of its
    own, which goes with its last view; the next forward then replaces the
    array with one that holds every place planned so far.
    """

    def __init__(self):
        self.memory = np.empty(0, np.uint8)
        self.high = 0  # the end of the furthest place planned
        self.programs = {}  # forward key -> _Program
        self.layouts = {}  # (fn, operand layouts) -> shape, dtype and axis order of its result

    def begin(self):
        """Start a forward: no buffer of the arena is live any more."""
        if self.high > self.memory.size:
            self.memory = None  # let go of the old array before taking the new one
            self.memory = np.empty(self.high, np.uint8)


class _Planner:
    """Best-fit placement of one program's buffers in an arena: the gaps
    between live buffers, and the start and end of each."""

    def __init__(self, arena, program, state=None):
        self.arena, self.program = arena, program
        gaps, live = state or ([(0, math.inf)], {})
        self.gaps = list(gaps)  # (start, end), sorted
        self.live = dict(live)  # start -> end

    def state(self):
        return list(self.gaps), dict(self.live)

    def take(self, shape, dtype, order, run):
        """A buffer of ``shape`` placed best fit, with a base of its own whose
        death, when its last view is gone, gives the place back to the planner
        ``run`` (a weak reference) is then executing."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        need = -(-max(size, 1) // _ALIGN) * _ALIGN
        # best fit: the smallest gap that holds the buffer, lowest first; a
        # buffer freed just before is then taken again while still in cache
        fits = [(end - start, k) for k, (start, end) in enumerate(self.gaps) if end - start >= need]
        k = min(fits)[1]
        start, end = self.gaps[k]
        if end - start == need:
            del self.gaps[k]
        else:
            self.gaps[k] = (start + need, end)
        self.live[start] = start + need
        self.arena.high = max(self.arena.high, start + need)
        self.program.places.append((start, shape, dtype, order))
        memory = self.arena.memory
        # numpy collapses a view's base to the array that owns its memory, so
        # a base of its own inside the arena must wrap a buffer, not an array
        raw = (np.frombuffer(memoryview(memory)[start : start + size], np.uint8)
               if start + need <= memory.size else np.empty(size, np.uint8))
        weakref.finalize(raw, _died, run, start)
        return _view(raw, shape, dtype, order)

    def give(self, start):
        """Free the live buffer that starts at ``start``."""
        end = self.live.pop(start)
        k = bisect.bisect(self.gaps, (start,))
        if k < len(self.gaps) and self.gaps[k][0] == end:
            end = self.gaps.pop(k)[1]
        if k and self.gaps[k - 1][1] == start:
            k -= 1
            start = self.gaps.pop(k)[0]
        self.gaps.insert(k, (start, end))


def _died(run, start):
    """The last view of the buffer at ``start`` is gone: free its place in the
    plan its run is making, if the run is alive and planning."""
    run = run()
    if run is not None and run.planner is not None:
        run.planner.give(start)


def _axis_order(a):
    """a's axes from the largest stride to the smallest; None in C order."""
    order = tuple(sorted(range(a.ndim), key=lambda i: -a.strides[i]))
    return None if order == tuple(range(a.ndim)) else order


@dataclass
class _Run:
    """Cached state of one forward execution, consumed by backward."""

    values: dict
    masks: dict
    order: tuple
    input_needs: dict  # node id -> per input: does a parameter feed it?
    training: bool
    rng: np.random.Generator | None = None  # dropout mask source when training
    nid: int = -1  # id of the node being evaluated or differentiated
    needs: tuple = ()  # input_needs of that node
    grids: dict = field(default_factory=dict)  # node id -> operand grid kept for backward
    arena: _Arena = field(default_factory=_Arena)  # the graph's inside keep_buffers
    forward_program: _Program = field(default_factory=_Program)
    program: _Program | None = None  # the one running
    planner: _Planner | None = None  # None while the program is replayed
    views: list = field(default_factory=list)
    cursor: int = 0

    def start(self, program, state, planned):
        """Run ``program``: plan it from ``state``, or replay its places."""
        self.program, self.cursor = program, 0
        self.planner = _Planner(self.arena, program, state) if planned else None
        if not planned:
            self.views = program.views_in(self.arena.memory)

    def take(self, shape, dtype=np.float64, *, order=None):
        """An op buffer of ``shape``, C-ordered or with axes in ``order``
        from the largest stride, live while any view of it is."""
        if self.planner is None:
            view = self.views[self.cursor]
            self.cursor += 1
            if view.shape != tuple(shape):
                raise GraphError(f"node {self.nid}: op buffer {view.shape} replayed for {shape}")
            return view
        return self.planner.take(tuple(shape), dtype, order, weakref.ref(self))

    def result(self, fn, *args):
        """``fn(*args)``, for a ufunc or a function taking ``out=`` like one,
        in an op buffer laid out as numpy lays out a new result of these
        operands, so that reductions over it add in the same order."""
        if self.planner is None:
            self.cursor += 1
            return fn(*args, out=self.views[self.cursor - 1])
        key = (fn, *((a.shape, a.strides, a.dtype) for a in args if isinstance(a, np.ndarray)))
        layout = self.arena.layouts.get(key)
        if layout is None:  # learnt once from a new result
            new = fn(*args)
            layout = self.arena.layouts[key] = (new.shape, new.dtype, _axis_order(new))
        shape, dtype, order = layout
        return fn(*args, out=self.take(shape, dtype, order=order))


class Graph:
    """Explicit computation graph; node storage order is the topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, np.ndarray] = {}
        self.input_ids: dict[str, int] = {}
        self.param_ids: dict[str, int] = {}
        self.outputs: dict[str, int] = {}
        self._run: _Run | None = None
        self._arena: _Arena | None = None  # op buffers while a keep_buffers block is open
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
        parameter feeds it, and the names of the inputs among them. Cached
        until the graph grows."""
        key = tuple(ids)
        plan = self._plans.get(key)
        if plan is None:
            order = tuple(self.ancestors(key))
            fed, needs = set(), {}
            for nid in order:
                node = self.nodes[nid]
                needs[nid] = tuple(i in fed for i in node.inputs)
                if node.kind == "param" or any(needs[nid]):
                    fed.add(nid)
            inputs = tuple(self.nodes[nid].attrs["input_name"] for nid in order
                           if self.nodes[nid].kind == "input")
            plan = self._plans[key] = (order, needs, inputs)
        return plan


@contextmanager
def keep_buffers(graph: Graph):
    """Place the op buffers of every forward and backward on ``graph`` inside
    the block in one arena that the block keeps.

    A forward, or a backward after it, that already ran in the block at the
    same shapes takes no new array: it writes into the arena where its first
    run did. Inside the block, the values and masks of a forward's record are
    valid until the next forward on the graph. On exit the graph lets go of
    the last forward's record and, when no enclosing block is still open, of
    the arena: a model keeps no scratch past the call that opened the block.
    """
    outermost = graph._arena is None
    if outermost:
        graph._arena = _Arena()
    try:
        yield graph
    finally:
        graph._run = None
        if outermost:
            graph._arena = None


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
    frozen_masks: dict | None = None,
) -> dict:
    """Evaluate the graph and return copies of the requested named outputs.

    Only the ancestor subgraph of ``wanted`` (default: all registered outputs)
    is computed, so inputs outside that subgraph need not be bound. Dropout
    nodes draw masks from ``rng`` when training, or reuse ``frozen_masks``
    (node id -> mask) when given. The execution record is cached on the graph
    for a subsequent ``backward``; the previous record is released first, so
    a forward that raises leaves nothing to differentiate.
    """
    graph._run = None
    bindings = bindings or {}
    if wanted is None:
        wanted = tuple(graph.outputs)
    if not wanted:
        raise GraphError("graph has no registered outputs")
    targets = [_output_id(graph, w) for w in wanted]
    order, needs, inputs = graph.plan(targets)

    # outside a keep_buffers block the arena lives as long as the record
    arena = _Arena() if graph._arena is None else graph._arena
    arena.begin()
    key = (tuple(targets), len(graph.nodes), training, tuple(sorted(frozen_masks or ())),
           tuple(np.shape(bindings.get(name)) for name in inputs))
    program = arena.programs.get(key)
    run = _Run(values={}, masks=dict(frozen_masks or {}), order=order, input_needs=needs,
               training=training, rng=rng, arena=arena, forward_program=program or _Program())
    run.start(run.forward_program, None, program is None)
    # overflow surfaces as the non-finite output check's NumericError below
    with np.errstate(over="ignore", invalid="ignore"):
        for nid in order:
            node = graph.nodes[nid]
            run.nid = nid
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
                fwd, _ = _OPS[node.kind]
                xs = [run.values[i] for i in node.inputs]
                try:
                    run.values[nid] = fwd(node, xs, run)
                except GraphError:
                    raise
                except Exception as exc:  # re-raise with the node named
                    raise GraphError(f"node {nid} ({node.name}): {exc}") from exc

    if program is None:
        run.forward_program.end = run.planner.state()
        arena.programs[key] = run.forward_program
    graph._run = run
    out = {}
    for w, nid in zip(wanted, targets):
        val = run.values[nid]
        if not np.all(np.isfinite(val)):
            raise NumericError(f"output {w!r} (node {nid}) contains non-finite values")
        out[w] = val.copy()
    return out


def backward(graph: Graph, loss) -> dict:
    """Accumulate gradients of a scalar loss and return them per parameter name.

    Requires a prior ``forward`` whose computed subgraph contains the loss
    node. Gradients flow in reverse topological order; a parameter feeding
    several consumers receives the sum of all path gradients. Nodes that no
    parameter feeds, such as the data inputs, receive no gradient. A node's
    gradient is dropped once it has been passed to the node's inputs, and
    the parameters' gradients are returned as copies, which the next forward
    or backward leaves untouched.
    """
    run = graph._run
    if run is None:
        raise GraphError("backward called before forward")
    lid = _output_id(graph, loss)
    if lid not in run.values:
        raise GraphError(f"loss node {lid} was not computed by the last forward")
    if run.values[lid].shape != (1,):
        raise GraphError(f"loss node {lid} is not scalar (shape {run.values[lid].shape})")

    key = (lid, tuple(run.grids))  # a conv whose grid is gone grids its input again
    program = run.forward_program.backward.get(key)
    run.start(program or _Program(), run.forward_program.end, program is None)
    grads = {lid: np.ones(1)}
    # non-finite gradients surface as optimizer_step's NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for nid in reversed(run.order):
            node = graph.nodes[nid]
            if node.kind == "param":
                continue
            g = grads.pop(nid, None)
            if g is None or node.kind == "input":
                continue
            run.nid = nid
            run.needs = run.input_needs[nid]
            _, bwd = _OPS[node.kind]
            xs = [run.values[i] for i in node.inputs]
            for i, need, gi in zip(node.inputs, run.needs, bwd(node, g, xs, run.values[nid], run)):
                if gi is None or not need:
                    continue
                # summed into a new buffer: add passes one g to both inputs
                grads[i] = run.result(np.add, grads[i], gi) if i in grads else gi
            g = gi = None  # a gradient passed on and not kept dies here
    run.grids.clear()
    if program is None:
        run.forward_program.backward[key] = run.program
    return {name: grads[nid].copy() for name, nid in graph.param_ids.items() if nid in grads}


def grad_check(
    graph: Graph,
    loss,
    bindings: dict,
    parameter: str,
    epsilon: float = 1e-5,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The error per element is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8). Dropout masks are drawn once and frozen across all evaluations so
    the loss stays a fixed differentiable function of the parameter.
    """
    if not (0.0 < epsilon <= 1e-3):
        raise GraphError(f"epsilon {epsilon} outside (0, 1e-3]")
    if parameter not in graph.params:
        raise GraphError(f"unknown parameter {parameter!r}")

    with keep_buffers(graph):
        forward(graph, bindings, wanted=(loss,), training=training, rng=rng)
        # the record's masks live in the arena only until the next forward
        masks = {nid: mask.copy() for nid, mask in graph._run.masks.items()}
        analytic = backward(graph, loss)[parameter].ravel()

        def eval_loss():
            out = forward(graph, bindings, wanted=(loss,), training=training, frozen_masks=masks)
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
    return run.result(np.add, a, b)


def _bwd_add(node, g, xs, y, run):
    return [g, g]  # one array to both inputs: neither may write it


def _fwd_sum(node, xs, run):
    return np.array([xs[0].sum()])


def _bwd_sum(node, g, xs, y, run):
    grad = run.take(xs[0].shape)
    grad.fill(g[0])
    return [grad]


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


# ---------------------------------------------------------------------------
# parameter checkpoints
#
# Layout: the magic string, then one record per parameter:
#   u32 name length, UTF-8 name bytes, u32 rank, rank x u32 dims,
#   prod(dims) x little-endian float64 values.

CHECKPOINT_MAGIC = b"BINADAPT1"
_MAX_RANK = 32  # the smallest ndarray rank limit across numpy 1.x and 2.x


def write_checkpoint(params: dict) -> bytes:
    chunks = [CHECKPOINT_MAGIC]
    for name, value in params.items():
        arr = _f64(value)
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="C"))
    return b"".join(chunks)


def read_checkpoint(data: bytes) -> dict:
    """Parse checkpoint bytes into an ordered name -> ndarray map (bit-exact)."""
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    out = {}

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"truncated checkpoint while reading {what} at byte {pos}")
        piece = data[pos : pos + n]
        pos += n
        return piece

    while pos < len(data):
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        start = pos
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"parameter name at byte {start} is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4, "rank"))
        if rank > _MAX_RANK:
            raise CheckpointError(f"rank {rank} of {name!r} at byte {pos - 4} exceeds {_MAX_RANK}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        # Python ints: a product of u32 dims must not wrap around
        raw = take(8 * math.prod(dims), f"values of {name!r}")
        out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
    return out
