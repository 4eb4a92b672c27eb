"""Encoder-decoder binarization models.

``build_sae`` assembles the plain binarizer: ``depth`` encoder blocks
(strided conv + ReLU + dropout), ``depth`` decoder blocks (strided transposed
conv + ReLU + dropout) with additive residual connections from each encoder
block to the same-shaped decoder stage, and a final non-strided conv +
sigmoid emitting a one-channel foreground-probability map the same size as
the input patch.

``build_bindann`` keeps that trunk bit-identical (same node and parameter
order) and taps the activation entering the last decoder block through a
gradient-reversal node into a domain-classifier branch that replicates the
trunk tail (last decoder block + output conv) with its own parameters, so
both branches carry the same number of weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff
from .autodiff import CheckpointError, Graph, GraphError
from .data import assemble, split_patches
from .layers import (
    ConvSpec,
    bce_node,
    conv_node,
    dropout_node,
    grl_node,
    relu_node,
    sigmoid_node,
    tconv_node,
)

__all__ = [
    "SaeConfig",
    "BinDannConfig",
    "Model",
    "build_sae",
    "build_bindann",
    "predict_prob_map",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class SaeConfig:
    """Architecture hyper-parameters; defaults are the small desk scale."""

    depth: int = 3
    filters: int = 8
    kernel: tuple = (3, 3)
    stride: tuple = (2, 2)
    dropout_rate: float = 0.2
    patch: tuple = (32, 32)

    def __post_init__(self):
        if self.depth < 1:
            raise GraphError("depth must be >= 1")
        if self.filters < 1:
            raise GraphError("filters must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise GraphError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        for k, s in zip(self.kernel, self.stride):
            if k < s:
                raise GraphError("kernel must be at least the stride")
        for side, s in zip(self.patch, self.stride):
            if side % (s ** self.depth) != 0:
                raise GraphError(
                    f"patch side {side} not divisible by stride^depth = {s ** self.depth}"
                )


@dataclass(frozen=True)
class BinDannConfig:
    """SAE plus the adversarial domain branch and its coefficient schedule."""

    sae: SaeConfig = SaeConfig()
    lambda0: float = 0.1
    lambda_increment: float = 0.01

    def __post_init__(self):
        if self.lambda0 < 0 or self.lambda_increment < 0:
            raise GraphError("reversal schedule values must be non-negative")


@dataclass
class Model:
    kind: str  # "sae" | "bindann"
    config: object
    graph: Graph

    @property
    def params(self):
        return self.graph.params

    def param_count(self, prefix=""):
        return sum(p.size for name, p in self.params.items() if name.startswith(prefix))

    def set_grl(self, lam):
        if self.kind != "bindann":
            raise GraphError("only the adversarial model has a gradient-reversal node")
        self.graph.set_attr("grl", "lam", float(lam))


def _strided_spec(cfg, c_in, c_out):
    pads = []
    for k, s in zip(cfg.kernel, cfg.stride):
        total = k - s  # halving conv / doubling tconv on stride-divisible sides
        pads.extend((total // 2, total - total // 2))
    return ConvSpec(c_in, c_out, cfg.kernel, cfg.stride, tuple(pads))


def _same_spec(cfg, c_in, c_out):
    pads = []
    for k in cfg.kernel:
        pads.extend(((k - 1) // 2, k - (k - 1) // 2 - 1))
    return ConvSpec(c_in, c_out, cfg.kernel, (1, 1), tuple(pads))


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
    spec = _strided_spec(cfg, c_in, c_out)
    if transposed:
        w, b = _conv_params(g, name, (c_in, c_out, *cfg.kernel), c_in, c_out, rng)
        y = tconv_node(g, x, w, b, spec, name=f"{name}.tconv")
    else:
        w, b = _conv_params(g, name, (c_out, c_in, *cfg.kernel), c_in, c_out, rng)
        y = conv_node(g, x, w, b, spec, name=f"{name}.conv")
    y = relu_node(g, y, name=f"{name}.relu")
    return dropout_node(g, y, cfg.dropout_rate, name=f"{name}.drop")


def _output_head(g, cfg, x, name, rng):
    spec = _same_spec(cfg, cfg.filters, 1)
    w, b = _conv_params(g, name, (1, cfg.filters, *cfg.kernel), cfg.filters, 1, rng)
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


def build_bindann(config: BinDannConfig, rng) -> Model:
    """Adversarial variant: trunk outputs plus ``domain_map``, ``domain_loss``
    and a combined ``loss``; the domain branch reads the trunk through a
    gradient-reversal node."""
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    cfg = config.sae
    g = Graph()
    bin_loss, tap = _build_trunk(g, cfg, rng)

    rev = grl_node(g, tap, config.lambda0, name="grl")
    dom = _block(g, cfg, rev, f"dom_dec{cfg.depth}", cfg.filters, cfg.filters, transposed=True, rng=rng)
    domain_map = _output_head(g, cfg, dom, "dom_out", rng)
    domain_loss = bce_node(g, domain_map, g.input("domain_gt"), name="domain_bce")
    total = g.add(bin_loss, domain_loss, name="total_loss")

    g.set_output("domain_map", domain_map)
    g.set_output("domain_loss", domain_loss)
    g.set_output("loss", total)
    return Model(kind="bindann", config=config, graph=g)


def predict_prob_map(model: Model, page, batch=16) -> np.ndarray:
    """Foreground-probability map for a whole page.

    The page is tiled into model-sized patches, every patch runs in inference
    mode (dropout off), and the per-patch maps are reassembled and cropped
    back to page size.
    """
    cfg = model.config if model.kind == "sae" else model.config.sae
    grid = split_patches(page, *cfg.patch)
    x = grid.patches[:, None]  # [k, 1, h, w]
    maps = []
    for start in range(0, len(x), batch):
        out = autodiff.forward(model.graph, {"x": x[start : start + batch]}, wanted=("prob_map",))
        maps.append(out["prob_map"][:, 0])
    return assemble(replace(grid, patches=np.concatenate(maps)))


# ---------------------------------------------------------------------------
# checkpoints: core format with a leading "__config__" record carrying the
# build header as f64-encoded JSON bytes

_HEADER_KEY = "__config__"


def _config_dict(model: Model):
    d = asdict(model.config)  # tuples serialize as JSON lists
    sae = d if model.kind == "sae" else d["sae"]
    sae["channels"] = 1  # fixed header field: pages are grayscale
    return d


def _config_from_dict(kind, d):
    def sae_cfg(sd):
        if sd["channels"] != 1:
            raise ValueError(f"{sd['channels']!r} channels, expected 1")
        return SaeConfig(
            depth=sd["depth"],
            filters=sd["filters"],
            kernel=tuple(sd["kernel"]),
            stride=tuple(sd["stride"]),
            dropout_rate=sd["dropout_rate"],
            patch=tuple(sd["patch"]),
        )

    if kind == "sae":
        return sae_cfg(d)
    return BinDannConfig(
        sae=sae_cfg(d["sae"]),
        lambda0=d["lambda0"],
        lambda_increment=d["lambda_increment"],
    )


def save_model(path, model: Model, extra=None):
    """Write the parameter checkpoint with a header record holding the config
    (plus any extra JSON-serializable fields, e.g. a decision threshold)."""
    header = {"kind": model.kind, "config": _config_dict(model)}
    header.update(extra or {})
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    records = {_HEADER_KEY: np.frombuffer(raw, dtype=np.uint8).astype(np.float64)}
    records.update(model.params)
    autodiff.save_checkpoint(path, records)


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, extra header fields).

    A file that does not describe a buildable model holding exactly the stored
    parameters raises ``CheckpointError``.
    """
    records = autodiff.load_checkpoint(path)
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
        config = _config_from_dict(kind, header.pop("config"))
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
