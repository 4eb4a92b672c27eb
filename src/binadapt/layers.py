"""Layer vocabulary: strided conv, transposed conv, ReLU, sigmoid, dropout,
gradient reversal, and binary cross-entropy.

Each op is a registered graph op kind (``conv2d``, ``tconv2d``, ``relu``,
``sigmoid``, ``dropout``, ``grl``, ``bce``) added to a graph by its node
builder (``conv_node``, ...) and evaluated by its registered forward and
backward functions on plain float64 arrays.
Convolution follows cross-correlation semantics (no kernel flip); the
transposed convolution is implemented as the exact adjoint of the convolution
with the same spec, so <conv(x), y> == <x, tconv(y)> holds for shared weights
and zero bias. Every convolution product runs on one zero-padded copy of its
input split into stride phases, on which each kernel tap's operand is a
contiguous window that BLAS reads in place: one matrix product per tap, or one
over all taps when the input has a single channel. The input gradient, and
with it the transposed convolution, runs as stride-1 convolutions of the
output gradient, one per stride phase of the input, all on one such copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, GraphError, register_op

__all__ = [
    "ConvSpec",
    "grl_lambda_at",
    "BCE_CLAMP",
    "conv_node",
    "tconv_node",
    "relu_node",
    "sigmoid_node",
    "dropout_node",
    "grl_node",
    "bce_node",
]

BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract of a (transposed) convolution.

    padding is per-side: (top, bottom, left, right). For a convolution the
    output spatial size is floor((in + pad_total - k) / s) + 1; for a
    transposed convolution it is (in - 1) * s + k - pad_total.
    """

    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: tuple = (1, 1)
    padding: tuple = (0, 0, 0, 0)

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise GraphError("channel counts must be positive")
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise GraphError("kernel and stride must be positive")
        if len(self.padding) != 4 or min(self.padding) < 0:
            raise GraphError("padding must be four non-negative ints")

    def out_hw(self, h, w):
        pt, pb, pl, pr = self.padding
        kh, kw = self.kernel
        sh, sw = self.stride
        oh = (h + pt + pb - kh) // sh + 1
        ow = (w + pl + pr - kw) // sw + 1
        if oh < 1 or ow < 1:
            raise GraphError(f"conv input {h}x{w} admits no output position")
        return oh, ow

    def transpose_out_hw(self, h, w):
        pt, pb, pl, pr = self.padding
        kh, kw = self.kernel
        sh, sw = self.stride
        oh = (h - 1) * sh + kh - (pt + pb)
        ow = (w - 1) * sw + kw - (pl + pr)
        if oh < 1 or ow < 1:
            raise GraphError(f"transposed conv input {h}x{w} admits no output position")
        return oh, ow


def grl_lambda_at(epoch, start=0.1, increment=0.01):
    """Reversal coefficient at a given epoch: start + increment * epoch."""
    if epoch < 0:
        raise GraphError("epoch must be non-negative")
    return start + increment * epoch


# ---------------------------------------------------------------------------
# array kernels (batched [n, c, h, w])
#
# Every product runs in _correlate on the grid _grid builds: the zero-padded
# input, split into its stride phases and laid out channel-major as one flat
# row per phase and channel, with each sample's rows of a phase back to back.
# On that grid a kernel tap moves every output position by the same number of
# columns, so the operand of tap (ki, kj) is a contiguous window of one phase
# and BLAS reads it in place: one [o, c] @ [c, n*Hq*Wq] product per tap,
# accumulated into a contiguous output (Anderson et al. 2017; Vasudevan et al.
# 2017). Outputs are computed on the whole grid and the valid ones are its
# top-left corner; slack columns past the last sample keep every window inside
# the buffer. When c == 1 those products would be one deep, which BLAS runs
# slowly, so the windows are stacked into one [o, kh*kw] @ [kh*kw, N] product.
# The input gradient, and with it the transposed convolution, is a gather: one
# stride-1 correlation of the output gradient per stride phase of the input,
# with the phase's flipped sub-kernel (Shi et al. 2016; Dumoulin & Visin 2016).

def _split(size, before, after, s):
    """Yield, for each stride phase of an axis of `size` samples padded by
    `before` and `after` (a negative pad crops), (phase, destination slice in
    the phase's samples, source slice of the axis) where the phase holds input."""
    lo, hi = max(before, 0), size + before - max(-after, 0)
    for a in range(s):
        i0, i1 = -(-(lo - a) // s), -(-(hi - a) // s)
        if i1 > i0:
            yield a, slice(i0, i1), slice(a + i0 * s - before, hi - before, s)


def _grid(x, padding, stride, kernel):
    """Padded, phase-split, channel-major grid of x [n, c, h, w]: an array
    [sh*sw, c, n*Hq*Wq + slack] and (Hq, Wq) = the padded size over the stride,
    rounded up. Padded row a + sh*i, column b + sw*j of sample m sits in phase
    a*sw + b at column (m*Hq + i)*Wq + j; slack is the largest tap offset."""
    n, c, h, w = x.shape
    pt, pb, pl, pr = padding
    (sh, sw), (kh, kw) = stride, kernel
    hq, wq = -(-(h + pt + pb) // sh), -(-(w + pl + pr) // sw)
    size = n * hq * wq
    buf = np.zeros((sh * sw, c, size + (kh - 1) // sh * wq + (kw - 1) // sw))
    xc = x.transpose(1, 0, 2, 3)
    for a, rows, src_rows in _split(h, pt, pb, sh):
        for b, cols, src_cols in _split(w, pl, pr, sw):
            phase = buf[a * sw + b, :, :size].reshape(c, n, hq, wq)
            phase[:, :, rows, cols] = xc[:, :, src_rows, src_cols]
    return buf, (hq, wq)


def _window(buf, size, wq, stride, ki, kj, origin=(0, 0)):
    """Contiguous [c, size] window of grid buf that tap (ki, kj) meets, the
    tap shifted by origin whole grid cells."""
    (sh, sw), (r0, c0) = stride, origin
    off = (r0 + ki // sh) * wq + c0 + kj // sw
    return buf[ki % sh * sw + kj % sw, :, off : off + size]


def _correlate(buf, grid_hw, n, w, stride, origin=(0, 0)):
    """Channel-major [o, n, Hq, Wq] cross-correlation of w [o, c, kh, kw] over
    grid buf; output (i, j) of each sample is valid where its windows stay
    inside that sample's grid."""
    o, c, kh, kw = w.shape
    size = n * grid_hw[0] * grid_hw[1]
    taps = [(w[:, :, ki, kj], _window(buf, size, grid_hw[1], stride, ki, kj, origin))
            for ki in range(kh) for kj in range(kw)]
    if c == 1:
        y = w.reshape(o, kh * kw) @ np.stack([win[0] for _, win in taps])
    else:
        y = taps[0][0] @ taps[0][1]
        for wt, win in taps[1:]:
            y += wt @ win
    return y.reshape(o, n, *grid_hw)


def _conv_fwd(x, w, stride, padding):
    n, _, h, wd = x.shape
    kh, kw = w.shape[2:]
    buf, grid_hw = _grid(x, padding, stride, (kh, kw))
    oh = (h + padding[0] + padding[1] - kh) // stride[0] + 1
    ow = (wd + padding[2] + padding[3] - kw) // stride[1] + 1
    return _correlate(buf, grid_hw, n, w, stride)[:, :, :oh, :ow].transpose(1, 0, 2, 3)


def _conv_grad_weight(x, g, stride, padding, kernel):
    n, o, oh, ow = g.shape
    buf, (hq, wq) = _grid(x, padding, stride, kernel)
    size = n * hq * wq
    gz = np.zeros((o, size))  # g on the grid; zeros drop the invalid positions
    gz.reshape(o, n, hq, wq)[:, :, :oh, :ow] = g.transpose(1, 0, 2, 3)
    gw = np.empty((o, x.shape[1], *kernel))
    for ki in range(kernel[0]):
        for kj in range(kernel[1]):
            gw[:, :, ki, kj] = gz @ _window(buf, size, wq, stride, ki, kj).T
    return gw


def _phases(k, s, pad, size, g_size):
    """Stride phases of one input axis: (first input index, kernel offset,
    pads before and after g) for each phase some kernel tap reaches.

    Input index first + s*m (m < count) meets kernel tap offset + s*t through
    output index m + d - t, where d = (first + pad - offset) // s. The phase
    is thus a stride-1 correlation, with its taps flipped, of g padded by
    taps - 1 - d before and count - g_size + d after; a negative pad crops g.
    """
    out = []
    for offset in range(s):
        taps = len(range(offset, k, s))
        first = (offset - pad) % s
        count = len(range(first, size, s))
        if taps and count:
            d = (first + pad - offset) // s
            out.append((first, offset, taps - 1 - d, count - g_size + d))
    return out


def _conv_grad_input(g, w, stride, padding, in_hw):
    """Gradient [n, c, h, w] of a convolution's input from its output gradient
    g [n, o, oh, ow], i.e. the transposed convolution of g with w [o, c, kh, kw]."""
    n, _, oh, ow = g.shape
    (sh, sw), (kh, kw) = stride, w.shape[2:]
    rows = _phases(kh, sh, padding[0], in_hw[0], oh)
    cols = _phases(kw, sw, padding[2], in_hw[1], ow)
    top, bottom = (max((p[i] for p in rows), default=0) for i in (2, 3))
    left, right = (max((p[i] for p in cols), default=0) for i in (2, 3))
    # a phase padded by lo before g starts top - lo rows into the grid, so its
    # last tap meets row top - lo + taps - 1: the grid's largest tap offset
    reach = (max((top - lo + len(range(a, kh, sh)) for _, a, lo, _ in rows), default=1),
             max((left - lo + len(range(b, kw, sw)) for _, b, lo, _ in cols), default=1))
    buf, grid_hw = _grid(g, (top, bottom, left, right), (1, 1), reach)

    def phase(r0, a, r_lo, c0, b, c_lo):
        """Channel-major gradient of the inputs r0::sh, c0::sw."""
        sub = w[:, :, a::sh, b::sw][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        y = _correlate(buf, grid_hw, n, sub, (1, 1), (top - r_lo, left - c_lo))
        return y[:, :, : len(range(r0, in_hw[0], sh)), : len(range(c0, in_hw[1], sw))]

    if sh == sw == 1:  # one phase, already in place: no interleaving copy
        return phase(*rows[0][:3], *cols[0][:3]).transpose(1, 0, 2, 3)
    gx = np.zeros((w.shape[1], n, *in_hw))  # phases no tap reaches stay zero
    for r0, a, r_lo, _ in rows:
        for c0, b, c_lo, _ in cols:
            gx[:, :, r0::sh, c0::sw] = phase(r0, a, r_lo, c0, b, c_lo)
    return gx.transpose(1, 0, 2, 3)


def _check_conv_args(x, w, b, spec, transposed):
    if x.ndim != 4:
        raise GraphError(f"expected [n,c,h,w] input, got shape {x.shape}")
    kh, kw = spec.kernel
    wshape = (
        (spec.in_channels, spec.out_channels, kh, kw)
        if transposed
        else (spec.out_channels, spec.in_channels, kh, kw)
    )
    if w.shape != wshape:
        raise GraphError(f"weight shape {w.shape} != expected {wshape}")
    if b.shape != (spec.out_channels,):
        raise GraphError(f"bias shape {b.shape} != ({spec.out_channels},)")
    if x.shape[1] != spec.in_channels:
        raise GraphError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")


# ---------------------------------------------------------------------------
# graph op registration

def _fwd_conv(node, xs, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    _check_conv_args(x, w, b, spec, transposed=False)
    spec.out_hw(*x.shape[2:])
    return _conv_fwd(x, w, spec.stride, spec.padding) + b[None, :, None, None]


def _bwd_conv(node, g, xs, y, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    gx = _conv_grad_input(g, w, spec.stride, spec.padding, x.shape[2:]) if run.needs[0] else None
    gw = _conv_grad_weight(x, g, spec.stride, spec.padding, spec.kernel)
    return [gx, gw, g.sum(axis=(0, 2, 3))]


def _fwd_tconv(node, xs, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    _check_conv_args(x, w, b, spec, transposed=True)
    out_hw = spec.transpose_out_hw(*x.shape[2:])
    return _conv_grad_input(x, w, spec.stride, spec.padding, out_hw) + b[None, :, None, None]


def _bwd_tconv(node, g, xs, y, run):
    x, w, b = xs
    spec = node.attrs["spec"]
    gx = _conv_fwd(g, w, spec.stride, spec.padding) if run.needs[0] else None
    gw = _conv_grad_weight(g, x, spec.stride, spec.padding, spec.kernel)
    return [gx, gw, g.sum(axis=(0, 2, 3))]


def _fwd_relu(node, xs, run):
    return np.maximum(xs[0], 0.0)


def _bwd_relu(node, g, xs, y, run):
    return [g * (xs[0] > 0)]


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def _fwd_sigmoid(node, xs, run):
    x = xs[0]
    # exp of -|x| never overflows; 1/(1+e) for x >= 0 and e/(1+e) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    # saturated float64 would round to exactly 0/1; keep the open interval
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def _bwd_sigmoid(node, g, xs, y, run):
    return [g * y * (1.0 - y)]


def _fwd_dropout(node, xs, run):
    x = xs[0]
    rate = node.attrs["rate"]
    if not run.training or rate == 0.0:
        return x
    mask = run.masks.get(run.nid)
    if mask is None:
        if run.rng is None:
            raise GraphError(f"dropout node ({node.name}) needs an rng in training mode")
        # inverted dropout: 0 with probability ``rate``, else 1/(1-rate)
        mask = (run.rng.random(x.shape) >= rate) / (1.0 - rate)
        run.masks[run.nid] = mask
    elif mask.shape != x.shape:
        raise GraphError(f"frozen dropout mask shape {mask.shape} != input {x.shape}")
    return x * mask


def _bwd_dropout(node, g, xs, y, run):
    mask = run.masks.get(run.nid)
    if mask is None or not run.training or node.attrs["rate"] == 0.0:
        return [g]
    return [g * mask]


def _fwd_grl(node, xs, run):
    return xs[0]


def _bwd_grl(node, g, xs, y, run):
    return [(-node.attrs["lam"]) * g]


def _fwd_bce(node, xs, run):
    p, t = xs
    if p.shape != t.shape:
        raise GraphError(f"prediction shape {p.shape} != target shape {t.shape}")
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return np.array([-np.mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))])


def _bwd_bce(node, g, xs, y, run):
    p, t = xs
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    in_range = (p >= BCE_CLAMP) & (p <= 1.0 - BCE_CLAMP)
    gp = g[0] / p.size * (pc - t) / (pc * (1.0 - pc)) * in_range
    return [gp, None]  # targets are constants


register_op("conv2d", _fwd_conv, _bwd_conv)
register_op("tconv2d", _fwd_tconv, _bwd_tconv)
register_op("relu", _fwd_relu, _bwd_relu)
register_op("sigmoid", _fwd_sigmoid, _bwd_sigmoid)
register_op("dropout", _fwd_dropout, _bwd_dropout)
register_op("grl", _fwd_grl, _bwd_grl)
register_op("bce", _fwd_bce, _bwd_bce)


# node builders

def conv_node(g: Graph, x, w, b, spec, name=None):
    return g.add_node("conv2d", (x, w, b), name=name, spec=spec)


def tconv_node(g: Graph, x, w, b, spec, name=None):
    return g.add_node("tconv2d", (x, w, b), name=name, spec=spec)


def relu_node(g: Graph, x, name=None):
    return g.add_node("relu", (x,), name=name)


def sigmoid_node(g: Graph, x, name=None):
    return g.add_node("sigmoid", (x,), name=name)


def dropout_node(g: Graph, x, rate, name=None):
    if not 0.0 <= rate < 1.0:
        raise GraphError(f"dropout rate {rate} outside [0, 1)")
    return g.add_node("dropout", (x,), name=name, rate=rate)


def grl_node(g: Graph, x, lam, name=None):
    if lam < 0:
        raise GraphError("gradient-reversal coefficient must be non-negative")
    return g.add_node("grl", (x,), name=name, lam=lam)


def bce_node(g: Graph, pred, target, name=None):
    return g.add_node("bce", (pred, target), name=name)
