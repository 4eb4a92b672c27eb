"""Encoder-decoder binarization models.

``build_sae`` assembles the plain binarizer: ``depth`` encoder blocks
(3x3 conv at stride 2 + ReLU + dropout), ``depth`` decoder blocks (3x3
transposed conv at stride 2 + ReLU + dropout) with additive residual
connections from each encoder block to the same-shaped decoder stage, and a
final 3x3 conv at stride 1 + sigmoid emitting a one-channel
foreground-probability map the same size as the input patch.

``build_bindann`` keeps that trunk bit-identical (same node and parameter
order) and taps the activation entering the last decoder block through a
gradient-reversal node into a domain-classifier branch that replicates the
trunk tail (last decoder block + output conv) with its own parameters, so
both branches carry the same number of weights. Both models are described by
one ``SaeConfig``; the reversal coefficient is not part of the model but set
on it with ``Model.set_grl``, as training does from its schedule.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import signal
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff
from .autodiff import CheckpointError, Graph, GraphError, read_checkpoint, write_checkpoint
from .data import check_levels, gather_patches, unit_floats
from .layers import (
    ConvSpec,
    bce_node,
    conv_node,
    dropout_node,
    grl_node,
    relu_node,
    reversal_coefficient,
    sigmoid_node,
    tconv_node,
)

__all__ = [
    "SaeConfig",
    "Model",
    "build_sae",
    "build_bindann",
    "predict_prob_map",
    "save_model",
    "load_model",
]


# Largest patch side a model may name, 32x the default. Prediction pads a page
# up to whole patches, so an unbounded side in a checkpoint header could ask
# for any amount of memory before a single pixel is read.
_MAX_PATCH_SIDE = 1024


@dataclass(frozen=True)
class SaeConfig:
    """Architecture hyper-parameters, as ``ExperimentConfig.sae_config`` builds them."""

    depth: int
    filters: int
    dropout_rate: float
    patch: tuple

    def __post_init__(self):
        # a checkpoint header may give any JSON value; a float or bool size
        # would build a model that cannot predict, or the wrong one
        for size in (self.depth, self.filters, *self.patch):
            if type(size) is not int:
                raise GraphError(f"model size {size!r} is not an integer")
        if self.depth < 1:
            raise GraphError("depth must be >= 1")
        if self.filters < 1:
            raise GraphError("filters must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise GraphError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        if len(self.patch) != 2:
            raise GraphError(f"patch {self.patch!r} is not a (height, width) pair")
        for side in self.patch:
            if not 1 <= side <= _MAX_PATCH_SIDE:
                raise GraphError(f"patch side {side} outside [1, {_MAX_PATCH_SIDE}]")
            if side % (2 ** self.depth) != 0:
                raise GraphError(f"patch side {side} not divisible by stride^depth = {2 ** self.depth}")


@dataclass
class Model:
    kind: str  # "sae" | "bindann"
    config: SaeConfig
    graph: Graph

    @property
    def params(self):
        return self.graph.params

    def set_grl(self, lam):
        """Set the reversal coefficient, which must be finite and non-negative."""
        if self.kind != "bindann":
            raise GraphError("only the adversarial model has a gradient-reversal node")
        lam = reversal_coefficient(lam)
        for node in self.graph.nodes:
            if node.kind == "grl":
                node.attrs["lam"] = lam


def _conv_params(g, name, shape, c_in, c_out, rng):
    """He-style uniform weights from a per-parameter seed plus a zero bias."""
    seed = int(rng.integers(2**63))
    sub = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (c_in * shape[2] * shape[3]))
    w = g.param(f"{name}.w", sub.uniform(-bound, bound, size=shape))
    b = g.param(f"{name}.b", np.zeros(c_out))
    return w, b


def _block(g, cfg, x, name, c_in, c_out, transposed, rng):
    """conv/tconv + relu + dropout; returns the post-dropout node id."""
    # halving conv / doubling tconv on even sides
    spec = ConvSpec(c_in, c_out, (3, 3), (2, 2), (0, 1, 0, 1))
    if transposed:
        w, b = _conv_params(g, name, (c_in, c_out, 3, 3), c_in, c_out, rng)
        y = tconv_node(g, x, w, b, spec, name=f"{name}.tconv")
    else:
        w, b = _conv_params(g, name, (c_out, c_in, 3, 3), c_in, c_out, rng)
        y = conv_node(g, x, w, b, spec, name=f"{name}.conv")
    y = relu_node(g, y, name=f"{name}.relu")
    return dropout_node(g, y, cfg.dropout_rate, name=f"{name}.drop")


def _output_head(g, cfg, x, name, rng):
    spec = ConvSpec(cfg.filters, 1, (3, 3), (1, 1), (1, 1, 1, 1))
    w, b = _conv_params(g, name, (1, cfg.filters, 3, 3), cfg.filters, 1, rng)
    y = conv_node(g, x, w, b, spec, name=f"{name}.conv")
    return sigmoid_node(g, y, name=f"{name}.sigmoid")


def _build_trunk(g: Graph, cfg: SaeConfig, rng):
    """Shared SAE node sequence with its ``prob_map`` and ``bin_loss`` outputs;
    returns the loss id and the activation entering the last decoder block."""
    enc_out = []
    prev = g.input("x")
    for i in range(1, cfg.depth + 1):
        c_in = 1 if i == 1 else cfg.filters  # grayscale pages
        prev = _block(g, cfg, prev, f"enc{i}", c_in, cfg.filters, transposed=False, rng=rng)
        enc_out.append(prev)

    for j in range(1, cfg.depth + 1):
        tap = prev  # activation entering decoder block j (post-residual)
        prev = _block(g, cfg, prev, f"dec{j}", cfg.filters, cfg.filters, transposed=True, rng=rng)
        if j < cfg.depth:
            prev = g.add(prev, enc_out[cfg.depth - j - 1], name=f"dec{j}.res")

    prob_map = _output_head(g, cfg, prev, "out", rng)
    bin_loss = bce_node(g, prob_map, g.input("gt"), name="bin_bce")
    g.set_output("prob_map", prob_map)
    g.set_output("bin_loss", bin_loss)
    return bin_loss, tap


def build_sae(config: SaeConfig, rng) -> Model:
    """Plain binarizer; outputs ``prob_map`` and ``loss`` (== ``bin_loss``)."""
    g = Graph()
    bin_loss, _ = _build_trunk(g, config, np.random.default_rng(rng))
    g.set_output("loss", bin_loss)
    return Model(kind="sae", config=config, graph=g)


def build_bindann(cfg: SaeConfig, rng) -> Model:
    """Adversarial variant: trunk outputs plus ``domain_map``, ``domain_loss``
    and a combined ``loss``; the domain branch reads the trunk through a
    gradient-reversal node whose coefficient starts at 0.0."""
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    g = Graph()
    bin_loss, tap = _build_trunk(g, cfg, rng)

    rev = grl_node(g, tap, 0.0, name="grl")
    dom = _block(g, cfg, rev, f"dom_dec{cfg.depth}", cfg.filters, cfg.filters, transposed=True, rng=rng)
    domain_map = _output_head(g, cfg, dom, "dom_out", rng)
    domain_loss = bce_node(g, domain_map, g.input("domain_gt"), name="domain_bce")
    total = g.add(bin_loss, domain_loss, name="total_loss")

    g.set_output("domain_map", domain_map)
    g.set_output("domain_loss", domain_loss)
    g.set_output("loss", total)
    return Model(kind="bindann", config=cfg, graph=g)


_PREDICT_BATCH = 16  # patches per inference forward
# Batches per worker process: forking and reaping a child of a 60 MB process
# took 2.5 ms in the median on a 2-core x86 box, about one forward of 16
# default patches, so a worker is forked only for 8 batches or more.
_FORK_BATCHES = 8


def _workers(batches):
    """Processes to predict ``batches`` batches on: one per usable CPU, at most
    one per ``_FORK_BATCHES`` batches, and only the caller where a fork is
    missing or would copy a process other threads are running in."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, batches // _FORK_BATCHES))


def _predict_batches(model, arr, tiles, first, last):
    """Write the maps of batches ``first`` up to ``last``, their patches cut by
    ``data.gather_patches``, into ``tiles``, a ``[rows, cols, h, w]`` view of the map."""
    rows, cols, h, w = tiles.shape
    for start in range(first * _PREDICT_BATCH, min(last * _PREDICT_BATCH, rows * cols), _PREDICT_BATCH):
        k = np.arange(start, min(start + _PREDICT_BATCH, rows * cols))
        x = unit_floats(gather_patches(arr, h, w, k))[:, None]  # [n, 1, h, w]
        out = autodiff.forward(model.graph, {"x": x}, wanted=("prob_map",))
        tiles[k // cols, k % cols] = out["prob_map"][:, 0]


def _fork_share(model, arr, tiles, first, last):
    """Fork a child that predicts batches ``first`` up to ``last`` into the
    shared ``tiles``; returns its pid. The child exits 0 once its share is
    written and 1 if it raised, flushing none of its stdio."""
    pid = os.fork()
    if pid:
        return pid
    try:  # os._exit leaves at once, so the finally runs only if the share raised
        _predict_batches(model, arr, tiles, first, last)
        os._exit(0)
    finally:
        os._exit(1)


def predict_prob_map(model: Model, page) -> np.ndarray:
    """Foreground-probability map for a whole page.

    Every patch of the page's grid of model-sized patches runs in inference
    mode (dropout off) in batches of ``_PREDICT_BATCH`` in row-major order. The
    page must be 2-D ``uint8`` levels; anything else is a ``ValueError`` naming
    its dtype. A batch cuts its patches with ``data.gather_patches``, which
    replicates the page's edges, scales them as ``data.unit_floats`` does, and
    writes its maps straight into one map, which is cropped back to page size.

    The batches are split into contiguous shares, one per worker process:
    ``min(usable CPUs, batches // _FORK_BATCHES)`` of them, at least one, and
    one where ``os.fork`` is missing or other threads are running. The caller
    computes the first share and forked children the others. With children,
    the map is one anonymous shared mapping, so every worker writes its tiles
    in place and nothing is copied back. A child reports only its exit status;
    once every child is reaped, the caller computes, in batch order, each share
    whose child did not exit 0, so an error is raised as one process raises
    it, and a child that was killed or failed for a reason of its own does not
    fail the prediction. Every batch computes the same bytes wherever it runs,
    so the map is the same whatever the CPU count. Every forward is an
    inference forward, which leaves no record on the model, so beyond the
    page each process holds only the values a batch's forward has still to
    consume; all of them share the one map. Every child is reaped before the
    call returns or raises.
    """
    arr = check_levels(page, "predict_prob_map")
    h, w = model.config.patch
    rows, cols = math.ceil(arr.shape[0] / h), math.ceil(arr.shape[1] / w)
    batches = math.ceil(rows * cols / _PREDICT_BATCH)
    workers = _workers(batches)
    # shared only where children write it: at 128² a private map took 7 us
    # and a shared one 110 us (2-core x86 box), mostly in page faults
    size = rows * h * cols * w
    canvas = np.empty(size) if workers == 1 else np.frombuffer(mmap.mmap(-1, 8 * size), np.float64)
    canvas = canvas.reshape(rows * h, cols * w)
    tiles = canvas.reshape(rows, h, cols, w).transpose(0, 2, 1, 3)  # a view of canvas
    bounds = [batches * i // workers for i in range(workers + 1)]
    children = []  # (pid, first, last)
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            children.append((_fork_share(model, arr, tiles, first, last), first, last))
        _predict_batches(model, arr, tiles, 0, bounds[1])
    except BaseException:
        for pid, _, _ in children:  # their shares are of no use now
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        unfinished = [(first, last) for pid, first, last in children if os.waitpid(pid, 0)[1]]
    for first, last in unfinished:
        _predict_batches(model, arr, tiles, first, last)
    return canvas[: arr.shape[0], : arr.shape[1]]


# ---------------------------------------------------------------------------
# checkpoints: core format with a leading "__config__" record carrying the
# build header as f64-encoded JSON bytes

_HEADER_KEY = "__config__"
# header fields every SAE holds: grayscale pages, the blocks' kernel and stride
_FIXED_FIELDS = {"channels": 1, "kernel": [3, 3], "stride": [2, 2]}


def _config_dict(model: Model):
    """The header's config: the SAE fields, nested under ``"sae"`` for a Bin-DANN."""
    d = dict(asdict(model.config), **_FIXED_FIELDS)  # tuples serialize as JSON lists
    return d if model.kind == "sae" else {"sae": d}


def _config_from_dict(kind, d, stored):
    """The config a header describes, ignoring keys it does not read;
    ``stored`` is the number of parameter values in the file, which the model
    it names must not exceed."""
    sd = d if kind == "sae" else d["sae"]
    for key, value in _FIXED_FIELDS.items():
        if sd[key] != value:
            raise ValueError(f"{key} {sd[key]!r}, expected {value!r}")
    # checked before SaeConfig computes 2^depth: 2*depth - 1 convolutions
    # hold filters x filters x 3 x 3 weights each
    if (2 * sd["depth"] - 1) * 9 * sd["filters"] * sd["filters"] > stored:
        raise ValueError(f"it names a model larger than the {stored} values stored")
    return SaeConfig(depth=sd["depth"], filters=sd["filters"], dropout_rate=sd["dropout_rate"],
                     patch=tuple(sd["patch"]))


def save_model(path, model: Model, extra=None):
    """Write the parameter checkpoint with a header record holding the config
    (plus any extra JSON-serializable fields, e.g. a decision threshold)."""
    header = {"kind": model.kind, "config": _config_dict(model)}
    header.update(extra or {})
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records = {_HEADER_KEY: np.frombuffer(raw, dtype=np.uint8).astype(np.float64)}
    records.update(model.params)
    Path(path).write_bytes(write_checkpoint(records))


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, extra header fields).

    A file that does not describe a buildable model holding exactly the stored
    parameters raises ``CheckpointError``.
    """
    records = read_checkpoint(Path(path).read_bytes())
    if _HEADER_KEY not in records:
        raise CheckpointError(f"checkpoint {path} has no config header")
    codes = records.pop(_HEADER_KEY)
    if not np.all((codes >= 0) & (codes <= 255) & (codes == np.floor(codes))):
        raise CheckpointError(f"checkpoint {path}: config header is not a byte string")
    try:
        header = json.loads(bytes(codes.astype(np.uint8)).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise CheckpointError(f"checkpoint {path}: undecodable config header: {exc}") from None
    if not isinstance(header, dict) or header.get("kind") not in ("sae", "bindann"):
        raise CheckpointError(f"checkpoint {path}: config header names no known model kind")
    kind = header.pop("kind")
    try:
        stored = sum(arr.size for arr in records.values())
        config = _config_from_dict(kind, header.pop("config"), stored)
        builder = build_sae if kind == "sae" else build_bindann
        model = builder(config, np.random.default_rng(0))
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path}: config header lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: bad config header: {exc}") from None

    if set(records) != set(model.params):
        raise CheckpointError("checkpoint parameters do not match the rebuilt model")
    for name, arr in records.items():
        if arr.shape != model.params[name].shape:
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {arr.shape} "
                f"!= model shape {model.params[name].shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {name!r} has non-finite values")
        model.params[name] = arr
    return model, header
