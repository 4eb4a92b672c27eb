"""Layer semantics: conv/tconv against direct oracles, adjointness,
activations, dropout statistics, reversal exactness, cross-entropy."""

import math

import numpy as np
import pytest

import binadapt as ba
from binadapt import autodiff, layers
from binadapt.autodiff import GraphError
from binadapt.layers import (
    BCE_CLAMP,
    bce_node,
    conv_node,
    dropout_node,
    grl_lambda_at,
    grl_node,
    relu_node,
    sigmoid_node,
    tconv_node,
)

from defaults import DEFAULTS, SAE, bindann, sae_cfg
from reference import (
    direct_bce,
    direct_conv2d,
    direct_conv2d_grads,
    direct_tconv2d,
    fd_loss_gradient,
    max_rel_err,
)


def _op(node, *arrays, training=False, rng=None, **attrs):
    """Forward value of a one-node graph: ``node`` over the arrays bound as inputs."""
    g = ba.Graph()
    g.set_output("y", node(g, *(g.input(f"in{i}") for i in range(len(arrays))), **attrs))
    bindings = {f"in{i}": a for i, a in enumerate(arrays)}
    return ba.forward(g, bindings, training=training, rng=rng)["y"]


def _conv(x, spec, w, b):
    return _op(conv_node, x, w, b, spec=spec)


def _tconv(x, spec, w, b):
    return _op(tconv_node, x, w, b, spec=spec)


# ---------------------------------------------------------------------------
# conv2d

def test_conv_identity_kernel():
    spec = ba.ConvSpec(1, 1, (1, 1), (1, 1), (0, 0, 0, 0))
    out = _conv(np.array([[[[5.0]]]]), spec, np.ones((1, 1, 1, 1)), np.zeros(1))
    assert out.tolist() == [[[[5.0]]]]


def test_conv_zero_kernel_annihilates():
    rng = np.random.default_rng(0)
    spec = ba.ConvSpec(1, 2, (3, 3), (1, 1), (1, 1, 1, 1))
    out = _conv(rng.normal(size=(1, 1, 5, 5)), spec, np.zeros((2, 1, 3, 3)), np.zeros(2))
    assert np.all(out == 0.0)


def test_conv_ramp_case_frozen_values():
    # 4x4 ramp, 3x3 ones kernel, stride 2, pad 1 per side; expected values were
    # computed with the nested-loop oracle and frozen here
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    w = np.ones((1, 1, 3, 3))
    b = np.zeros(1)
    spec = ba.ConvSpec(1, 1, (3, 3), (2, 2), (1, 1, 1, 1))
    got = _conv(x, spec, w, b)
    frozen = np.array([[[[10.0, 24.0], [51.0, 90.0]]]])
    np.testing.assert_array_equal(got, frozen)
    np.testing.assert_array_equal(direct_conv2d(x, w, b, (2, 2), (1, 1, 1, 1)), frozen)


# convolutions run on a zero-padded grid split into stride phases: these
# (stride, kernel, padding, input side) cases give a ragged last phase row or
# column (padded side not divisible by the stride), pads wider than the
# stride, kernels smaller than it, and non-square strides
_GRID_EDGE_CASES = {
    "stride1x3_pad3": ((1, 3), (3, 2), (3, 0, 1, 2), (5, 7)),
    "stride3x2_row_kernel2": ((3, 2), (2, 3), (0, 3, 2, 0), (7, 6)),
    "stride3_kernel1x2": ((3, 3), (1, 2), (2, 1, 3, 3), (4, 5)),
    "stride2x3_ragged": ((2, 3), (3, 3), (1, 2, 0, 1), (8, 9)),
    "stride2x1_pads3": ((2, 1), (3, 1), (3, 3, 0, 0), (3, 3)),
}


def _grid_cases(rng, drawn):
    for _ in range(drawn):
        stride = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        pad = tuple(int(p) for p in rng.integers(0, 4, size=4))
        # at least one window: the padded side is no smaller than the kernel
        side = tuple(max(1, k - p0 - p1) + int(rng.integers(0, 5))
                     for k, p0, p1 in zip(kernel, pad[::2], pad[1::2]))
        yield stride, kernel, pad, side


def _check_conv_against_oracle(stride, kernel, pad, side, rng):
    for ci, co in ((1, 2), (3, 2)):  # one input channel stacks the taps into one product
        x = rng.normal(size=(2, ci, *side))
        w = rng.normal(size=(co, ci, *kernel))
        b = rng.normal(size=(co,))
        spec = ba.ConvSpec(ci, co, kernel, stride, pad)
        np.testing.assert_allclose(
            _conv(x, spec, w, b), direct_conv2d(x, w, b, stride, pad), rtol=0, atol=1e-12
        )


def test_conv_matches_oracle_on_random_instances():
    rng = np.random.default_rng(17)
    for case in _grid_cases(rng, 12):
        _check_conv_against_oracle(*case, rng)


@pytest.mark.parametrize("name", sorted(_GRID_EDGE_CASES))
def test_conv_matches_oracle_on_grid_edge_cases(name):
    _check_conv_against_oracle(*_GRID_EDGE_CASES[name], np.random.default_rng(5))


def _check_conv_weight_gradient(stride, kernel, pad, side, rng):
    for ci, co in ((1, 2), (3, 2)):
        g = ba.Graph()
        spec = ba.ConvSpec(ci, co, kernel, stride, pad)
        y = conv_node(g, g.input("x"), g.param("w", rng.normal(size=(co, ci, *kernel))),
                      g.param("b", np.zeros(co)), spec)
        g.set_output("loss", g.sum(sigmoid_node(g, y)))
        assert ba.grad_check(g, "loss", {"x": rng.normal(size=(2, ci, *side))}, "w") < 1e-4


def test_conv_weight_gradient_on_random_instances():
    rng = np.random.default_rng(19)
    for case in _grid_cases(rng, 6):
        _check_conv_weight_gradient(*case, rng)


@pytest.mark.parametrize("name", sorted(_GRID_EDGE_CASES))
def test_conv_weight_gradient_on_grid_edge_cases(name):
    _check_conv_weight_gradient(*_GRID_EDGE_CASES[name], np.random.default_rng(7))


def test_conv_channel_mismatch_errors():
    spec = ba.ConvSpec(2, 1, (3, 3), (1, 1), (1, 1, 1, 1))
    with pytest.raises(GraphError, match="channels"):
        _conv(np.zeros((1, 4, 4, 4)), spec, np.zeros((1, 2, 3, 3)), np.zeros(1))


# ---------------------------------------------------------------------------
# conv2d_transpose

def test_tconv_single_tap_spread():
    spec = ba.ConvSpec(1, 1, (2, 2), (2, 2), (0, 0, 0, 0))
    out = _tconv(np.array([[[[1.0]]]]), spec, np.ones((1, 1, 2, 2)), np.zeros(1))
    np.testing.assert_array_equal(out, np.ones((1, 1, 2, 2)))


def test_tconv_adjoint_identity_small():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 1, 4, 4))
    w = rng.normal(size=(1, 1, 2, 2))
    spec = ba.ConvSpec(1, 1, (2, 2), (2, 2), (0, 0, 0, 0))
    cx = _conv(x, spec, w, np.zeros(1))
    y = rng.normal(size=cx.shape)
    ty = _tconv(y, spec, w, np.zeros(1))
    assert abs(float((cx * y).sum()) - float((x * ty).sum())) < 1e-10


def test_tconv_adjoint_identity_random_shapes():
    rng = np.random.default_rng(21)
    for _ in range(12):
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sh, sw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        pad = (0, int(rng.integers(0, min(2, kh))), 0, int(rng.integers(0, min(2, kw))))
        h = int(rng.integers(kh + 1, kh + 6))
        wd = int(rng.integers(kw + 1, kw + 6))
        # conv maps ci -> co; its adjoint maps co -> ci with the same spec/weights
        conv_spec = ba.ConvSpec(ci, co, (kh, kw), (sh, sw), pad)
        t_spec = ba.ConvSpec(co, ci, (kh, kw), (sh, sw), pad)
        x = rng.normal(size=(1, ci, h, wd))
        w = rng.normal(size=(co, ci, kh, kw))
        cx = _conv(x, conv_spec, w, np.zeros(co))
        # pick the canonical input size so the adjoint output matches x exactly
        if t_spec.transpose_out_hw(*cx.shape[2:]) != x.shape[2:]:
            continue
        y = rng.normal(size=cx.shape)
        ty = _tconv(y, t_spec, w, np.zeros(ci))
        assert abs(float((cx * y).sum()) - float((x * ty).sum())) < 1e-10


def test_tconv_matches_scatter_add_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 2, 3, 3))
    w = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=(3,))
    spec = ba.ConvSpec(2, 3, (3, 3), (2, 2), (0, 1, 0, 1))
    np.testing.assert_allclose(
        _tconv(x, spec, w, b),
        direct_tconv2d(x, w, b, (2, 2), (0, 1, 0, 1)),
        rtol=0,
        atol=1e-12,
    )


# the input gradient, and so the transposed convolution, runs one stride-1
# correlation per stride phase; these (stride, kernel, padding, c_in, c_out)
# cases reach the phase layouts the model never builds
_PHASE_EDGE_CASES = [
    ((1, 2), (3, 2), (1, 0, 0, 1), 1, 3),  # non-square stride, one input channel
    ((3, 3), (2, 1), (0, 1, 0, 0), 2, 1),  # kernel < stride: phases no tap reaches
    ((2, 3), (3, 3), (2, 0, 1, 2), 1, 1),  # padding >= the sub-kernel: g is cropped
    ((3, 1), (1, 3), (0, 2, 1, 1), 3, 1),  # kernel < stride on one axis only
]


def _phase_cases(rng, drawn):
    for _ in range(drawn):
        yield ((int(rng.integers(1, 4)), int(rng.integers(1, 4))),
               (int(rng.integers(1, 5)), int(rng.integers(1, 5))),
               tuple(int(p) for p in rng.integers(0, 3, size=4)),
               int(rng.integers(1, 4)), int(rng.integers(1, 4)))


def test_tconv_matches_scatter_add_oracle_on_random_instances():
    rng = np.random.default_rng(23)
    for stride, kernel, pad, ci, co in _PHASE_EDGE_CASES + list(_phase_cases(rng, 24)):
        # at least pt + pb input rows keep every output size positive
        h = pad[0] + pad[1] + int(rng.integers(1, 4))
        wd = pad[2] + pad[3] + int(rng.integers(1, 4))
        x = rng.normal(size=(2, ci, h, wd))
        w = rng.normal(size=(ci, co, *kernel))
        b = rng.normal(size=(co,))
        spec = ba.ConvSpec(ci, co, kernel, stride, pad)
        np.testing.assert_allclose(
            _tconv(x, spec, w, b), direct_tconv2d(x, w, b, stride, pad), rtol=0, atol=1e-12
        )


def test_conv_input_gradient_on_phase_edge_cases():
    # input rows past the last window and inputs under a padding wider than
    # the kernel get no gradient; central differences see the same
    rng = np.random.default_rng(29)
    for stride, kernel, pad, ci, co in _PHASE_EDGE_CASES + list(_phase_cases(rng, 8)):
        h = kernel[0] + int(rng.integers(0, 4))
        wd = kernel[1] + int(rng.integers(0, 4))
        g = ba.Graph()
        spec = ba.ConvSpec(ci, co, kernel, stride, pad)
        y = conv_node(g, g.param("x", rng.normal(size=(1, ci, h, wd))),
                      g.param("w", rng.normal(size=(co, ci, *kernel))), g.param("b", np.zeros(co)),
                      spec)
        g.set_output("loss", g.sum(sigmoid_node(g, y)))
        assert ba.grad_check(g, "loss", {}, "x") < 1e-4


# ---------------------------------------------------------------------------
# conv and tconv at the shapes of the default model (batch 2)

_STRIDED = dict(kernel=(3, 3), stride=(2, 2), padding=(0, 1, 0, 1))
_REAL_SHAPES = {
    # name: (kind, spec, input side)
    "enc1_1to8_32": ("conv2d", ba.ConvSpec(1, 8, **_STRIDED), 32),
    "enc2_8to8_16": ("conv2d", ba.ConvSpec(8, 8, **_STRIDED), 16),
    "enc3_8to8_8": ("conv2d", ba.ConvSpec(8, 8, **_STRIDED), 8),
    "dec1_8to8_4": ("tconv2d", ba.ConvSpec(8, 8, **_STRIDED), 4),
    "dec3_8to8_16": ("tconv2d", ba.ConvSpec(8, 8, **_STRIDED), 16),
    "head_8to1_32": ("conv2d", ba.ConvSpec(8, 1, (3, 3), (1, 1), (1, 1, 1, 1)), 32),
}


def _real_shape_arrays(name):
    kind, spec, side = _REAL_SHAPES[name]
    rng = np.random.default_rng(sorted(_REAL_SHAPES).index(name))
    kh, kw = spec.kernel
    wshape = (spec.in_channels, spec.out_channels, kh, kw) if kind == "tconv2d" else (
        spec.out_channels, spec.in_channels, kh, kw)
    x = rng.normal(size=(2, spec.in_channels, side, side))
    return kind, spec, x, 0.3 * rng.normal(size=wshape), rng.normal(size=spec.out_channels), rng


def test_real_shape_cases_cover_the_default_model():
    model = bindann()
    used = {(n.kind, n.attrs["spec"]) for n in model.graph.nodes if n.kind in ("conv2d", "tconv2d")}
    assert used == {(kind, spec) for kind, spec, _ in _REAL_SHAPES.values()}


@pytest.mark.parametrize("name", sorted(_REAL_SHAPES))
def test_real_shape_forward_matches_oracle(name):
    kind, spec, x, w, b, _ = _real_shape_arrays(name)
    fn, oracle = (_conv, direct_conv2d) if kind == "conv2d" else (_tconv, direct_tconv2d)
    np.testing.assert_allclose(
        fn(x, spec, w, b), oracle(x, w, b, spec.stride, spec.padding), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("name", sorted(_REAL_SHAPES))
def test_real_shape_adjoint_identity(name):
    # <conv(x), y> == <x, tconv(y)> with shared weights, zero bias, swapped channels
    kind, spec, x, w, _, rng = _real_shape_arrays(name)
    fn, adjoint = (_conv, _tconv) if kind == "conv2d" else (_tconv, _conv)
    swapped = ba.ConvSpec(spec.out_channels, spec.in_channels, spec.kernel, spec.stride,
                          spec.padding)
    fx = fn(x, spec, w, np.zeros(spec.out_channels))
    y = rng.normal(size=fx.shape)
    ay = adjoint(y, swapped, w, np.zeros(spec.in_channels))
    assert ay.shape == x.shape
    np.testing.assert_allclose(float((fx * y).sum()), float((x * ay).sum()), rtol=1e-12)


@pytest.mark.parametrize("name", sorted(_REAL_SHAPES))
def test_real_shape_gradients_match_finite_differences(name):
    kind, spec, x, w, b, rng = _real_shape_arrays(name)
    g = ba.Graph()
    node = conv_node if kind == "conv2d" else tconv_node
    y = node(g, g.param("x", x), g.param("w", w), g.param("b", b), spec)
    g.set_output("loss", g.sum(sigmoid_node(g, y)))
    ba.forward(g)
    grads = ba.backward(g, "loss")
    for param in ("x", "w"):
        flat = g.params[param].reshape(-1)
        idx = rng.choice(flat.size, size=6, replace=False)
        probe = flat[idx].copy()

        def eval_loss():
            flat[idx] = probe
            return float(ba.forward(g)["loss"][0])

        numeric = fd_loss_gradient(eval_loss, probe)
        flat[idx] = probe
        assert max_rel_err(grads[param].reshape(-1)[idx], numeric) < 1e-4


# ---------------------------------------------------------------------------
# shape plans and the grids a training forward keeps for backward

_PLAN_MEMOS = (layers._grid_plan, layers._tap_plan, layers._gather_plan)


def _conv_op_results(kind, spec, x, w, b, g):
    """Value, input gradient and weight gradient of one conv2d or tconv2d
    node for output gradient g, evaluated as a training step evaluates it."""
    fwd, bwd = autodiff._OPS[kind]
    node = autodiff.Node(kind, (0, 1, 2), {"spec": spec}, kind)
    run = autodiff._Run(values={}, masks={}, order=(), input_needs={}, training=True, nid=3,
                        needs=(True, True, False))
    y = fwd(node, [x, w, b], run)
    gx, gw, _ = bwd(node, g, [x, w, b], y, run)
    return y, gx, gw


def _plan_leak_cases(rng, drawn):
    """(kind, spec, x, w, b, g) at batch 16, strides 1-3 and pads 0-3."""
    for _ in range(drawn):
        for kind in ("conv2d", "tconv2d"):
            stride = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            pad = tuple(int(p) for p in rng.integers(0, 4, size=4))
            ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            spec = ba.ConvSpec(ci, co, kernel, stride, pad)
            if kind == "conv2d":
                side = tuple(max(1, k - p0 - p1) + int(rng.integers(0, 4))
                             for k, p0, p1 in zip(kernel, pad[::2], pad[1::2]))
                out_hw, wshape = spec.out_hw(*side), (co, ci, *kernel)
            else:  # enough input rows that the output is at least one row
                side = tuple(-(-(p0 + p1 - k + 1) // s) + 1 + int(rng.integers(0, 3))
                             for k, s, p0, p1 in zip(kernel, stride, pad[::2], pad[1::2]))
                side = tuple(max(1, n) for n in side)
                out_hw, wshape = spec.transpose_out_hw(*side), (ci, co, *kernel)
            yield (kind, spec, rng.normal(size=(16, ci, *side)), rng.normal(size=wshape),
                   rng.normal(size=co), rng.normal(size=(16, co, *out_hw)))


def _oracle_results(kind, spec, x, w, b, g):
    if kind == "conv2d":
        y = direct_conv2d(x, w, b, spec.stride, spec.padding)
        return (y, *direct_conv2d_grads(x, w, g, spec.stride, spec.padding))
    # the transposed convolution is the convolution's adjoint: its input
    # gradient is that convolution of g, its weight gradient the one with the
    # roles of g and x swapped
    y = direct_tconv2d(x, w, b, spec.stride, spec.padding)
    gx = direct_conv2d(g, w, np.zeros(w.shape[0]), spec.stride, spec.padding)
    return y, gx, direct_conv2d_grads(g, w, x, spec.stride, spec.padding)[1]


def test_shape_plans_do_not_leak_across_shapes():
    # batches of 1, 8, 16 and a ragged 5 interleaved over 12 specs: every
    # plan is looked up under shapes it was not built for in between
    cases = list(_plan_leak_cases(np.random.default_rng(31), 6))
    batches = (8, 1, 16, 5, 8)

    def sweep():
        return [_conv_op_results(kind, spec, x[:n], w, b, g[:n])
                for n in batches for kind, spec, x, w, b, g in cases]

    for memo in _PLAN_MEMOS:
        memo.cache_clear()
    cold = sweep()
    assert all(memo.cache_info().hits for memo in _PLAN_MEMOS)
    warm = sweep()
    wanted = [_oracle_results(kind, spec, x[:n], w, b, g[:n])
              for n in batches for kind, spec, x, w, b, g in cases]
    for got_cold, got_warm, want in zip(cold, warm, wanted):
        for a, b, oracle in zip(got_cold, got_warm, want):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(a, oracle, rtol=0, atol=1e-11)


def _tiny_bindann():
    cfg = sae_cfg(depth=2, filters=3, dropout_rate=0.0, patch=(8, 8))
    model = bindann(cfg)
    rng = np.random.default_rng(1)
    bindings = {"x": rng.random((3, 1, 8, 8)), "gt": (rng.random((3, 1, 8, 8)) > 0.5) * 1.0,
                "domain_gt": np.ones((3, 1, 8, 8))}
    return model, bindings


def test_backward_reuses_the_grids_of_a_training_forward():
    model, bindings = _tiny_bindann()
    graph = model.graph
    convs = [nid for nid, node in enumerate(graph.nodes) if node.kind == "conv2d"]
    grads = {}
    for training in (True, False):  # with dropout off the two passes compute the same
        ba.forward(graph, bindings, training=training, rng=np.random.default_rng(2))
        assert sorted(graph._run.grids) == (convs if training else [])
        grads[training] = ba.backward(graph, "loss")
        assert graph._run.grids == {}
    assert set(grads[True]) == set(graph.params)
    for name in graph.params:
        np.testing.assert_array_equal(grads[True][name], grads[False][name])


def test_conv_weights_pass_grad_check_through_kept_grids():
    model, bindings = _tiny_bindann()
    weights = [model.graph.nodes[node.inputs[1]].name for node in model.graph.nodes
               if node.kind in ("conv2d", "tconv2d")]
    assert len(weights) == 7
    for name in weights:
        # the reversal flips the domain loss's gradient into the trunk, so each
        # weight is checked on the one loss it truly descends
        loss = "domain_loss" if name.startswith("dom_") else "bin_loss"
        assert ba.grad_check(model.graph, loss, bindings, name, training=True,
                             rng=np.random.default_rng(3)) < 1e-4


def test_one_grid_per_operand_per_training_step(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return grid(*args)

    grid = layers._grid
    monkeypatch.setattr(layers, "_grid", counted)
    rng = np.random.default_rng(4)
    x, gt = rng.random((8, 1, 32, 32)), (rng.random((8, 1, 32, 32)) > 0.5) * 1.0

    def step(model, bindings, wanted, loss):
        ba.forward(model.graph, bindings, wanted=wanted, training=True,
                   rng=np.random.default_rng(5))
        ba.backward(model.graph, loss)

    # SAE: the forward grids the input of its 4 convs and 3 tconvs; the
    # backward grids g once for 3 conv input gradients (enc1 reads data) and
    # once per tconv, the convs' weight gradients read the kept grids
    sae = ba.build_sae(SAE, np.random.default_rng(0))
    step(sae, {"x": x, "gt": gt}, ("loss", "bin_loss"), "loss")
    assert len(calls) == 7 + 3 + 3
    calls.clear()
    # Bin-DANN adds a tconv and a conv behind the reversal: the source pass
    # costs 9 + (4 + 4) grids; the target pass reaches 4 convs and 3 tconvs,
    # of which 3 convs take an input gradient: 7 + (3 + 3)
    dann = bindann()
    domain = np.zeros_like(x)
    step(dann, {"x": x, "gt": gt, "domain_gt": domain}, ("loss", "bin_loss", "domain_loss"),
         "loss")
    step(dann, {"x": x, "domain_gt": 1.0 - domain}, ("domain_loss",), "domain_loss")
    assert len(calls) == 17 + 13


# ---------------------------------------------------------------------------
# activations

def test_relu_definition():
    assert _op(relu_node, [-1.0, 0.0, 2.0]).tolist() == [0.0, 0.0, 2.0]


def test_sigmoid_matches_the_two_branch_formula_bitwise():
    # 1/(1+exp(-x)) at x >= 0 and exp(x)/(1+exp(x)) below, clipped into (0, 1)
    x = np.concatenate([[0.0, -0.0, 800.0, -800.0, 37.0, -37.0, 709.8, -745.2, 1e-300, -1e-300],
                        np.random.default_rng(3).normal(scale=30.0, size=200)])
    pos = x >= 0
    ref = np.empty_like(x)
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    ref = np.clip(ref, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    assert _op(sigmoid_node, x).view(np.int64).tolist() == ref.view(np.int64).tolist()


def test_sigmoid_symmetry_point():
    assert _op(sigmoid_node, [0.0])[0] == 0.5


def test_sigmoid_gradient_at_zero_via_backward():
    g = ba.Graph()
    p = g.param("p", [0.0])
    g.set_output("loss", g.sum(sigmoid_node(g, p)))
    ba.forward(g)
    assert ba.backward(g, "loss")["p"][0] == pytest.approx(0.25, abs=1e-15)


def test_activation_ranges():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=10, size=1000)
    s = _op(sigmoid_node, x)
    assert np.all((s > 0.0) & (s < 1.0))
    assert np.all(_op(relu_node, x) >= 0.0)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_inference_is_bitwise_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 5))
    out = _op(dropout_node, x, rate=0.2)
    assert out.tobytes() == x.tobytes()


def test_dropout_zero_rate_identity():
    x = np.arange(6.0)
    out = _op(dropout_node, x, rate=0.0, training=True, rng=np.random.default_rng(0))
    assert out.tobytes() == x.tobytes()


def test_dropout_inverted_scaling_mean():
    # mean of inverted dropout over ones: 3 sigma of the binomial estimate
    n, rate = 100_000, 0.2
    out = _op(dropout_node, np.ones(n), rate=rate, training=True, rng=np.random.default_rng(123))
    sigma = math.sqrt(rate / (1 - rate) / n)
    assert abs(out.mean() - 1.0) < 3 * sigma


def test_dropout_rate_one_rejected():
    with pytest.raises(GraphError):
        _op(dropout_node, np.ones(3), rate=1.0, training=True, rng=np.random.default_rng(0))


def test_dropout_masks_reproducible():
    x = np.ones((4, 4))
    a = _op(dropout_node, x, rate=0.5, training=True, rng=np.random.default_rng(6))
    b = _op(dropout_node, x, rate=0.5, training=True, rng=np.random.default_rng(6))
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# gradient reversal

def test_reversal_forward_is_bitwise_identity():
    x = np.array([3.0, -1.0])
    out = _op(grl_node, x, lam=0.5)
    assert out.tobytes() == x.tobytes()


def test_reversal_backward_definition():
    g = ba.Graph()
    p = g.param("p", [1.0, 1.0])
    g.set_output("loss", g.sum(grl_node(g, p, 0.5)))
    ba.forward(g)
    np.testing.assert_array_equal(ba.backward(g, "loss")["p"], [-0.5, -0.5])


@pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf"), -float("inf")])
def test_reversal_node_rejects_negative_or_non_finite_coefficients(lam):
    g = ba.Graph()
    x = g.input("x")
    with pytest.raises(GraphError, match="reversal coefficient"):
        grl_node(g, x, lam)


def test_reversal_backward_equals_minus_lambda_times_identity_backward():
    rng = np.random.default_rng(14)
    x0 = rng.normal(size=(3, 4))
    for lam in (0.0, 0.1, 0.37, 2.0):
        def grad_of(build_mid):
            g = ba.Graph()
            p = g.param("p", x0)
            g.set_output("loss", g.sum(sigmoid_node(g, build_mid(g, p))))
            ba.forward(g)
            return ba.backward(g, "loss")["p"]

        g_rev = grad_of(lambda g, p: grl_node(g, p, lam))
        g_id = grad_of(lambda g, p: p)
        assert g_rev.tobytes() == (-lam * g_id).tobytes()


def test_reversal_schedule_paper_values():
    schedule = (DEFAULTS.lambda0, DEFAULTS.lambda_inc)
    assert grl_lambda_at(0, *schedule) == pytest.approx(0.10, abs=1e-12)
    assert grl_lambda_at(5, *schedule) == pytest.approx(0.15, abs=1e-12)
    assert grl_lambda_at(10, *schedule) == pytest.approx(0.20, abs=1e-12)


# ---------------------------------------------------------------------------
# binary cross-entropy

def test_bce_maximal_entropy_prediction():
    target = np.array([1.0, 0.0, 1.0, 1.0])
    out = _op(bce_node, np.full(4, 0.5), target)
    assert out[0] == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_prediction_near_zero():
    t = np.array([1.0, 0.0, 0.0, 1.0])
    out = _op(bce_node, t, t)
    assert out[0] < 1e-6 * abs(math.log(BCE_CLAMP))


def test_bce_hand_evaluated_case():
    got = _op(bce_node, np.array([0.9, 0.2]), np.array([1.0, 0.0]))[0]
    want = -(math.log(0.9) + math.log(0.8)) / 2.0
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(direct_bce([0.9, 0.2], [1.0, 0.0]), abs=1e-15)


def test_bce_shape_mismatch_errors():
    with pytest.raises(GraphError, match="shape"):
        _op(bce_node, np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# finite-difference property: >= 100 random instances across the layer set

def _layer_fd_case(kind, rng):
    """Build loss = sum(op(...)) on a random small tensor; return (graph, bindings)."""
    g = ba.Graph()
    if kind in ("conv2d", "tconv2d"):
        ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        wshape = (co, ci, 2, 2) if kind == "conv2d" else (ci, co, 2, 2)
        spec = ba.ConvSpec(ci, co, (2, 2), (int(rng.integers(1, 3)),) * 2, (0, 1, 0, 1))
        p = g.param("p", rng.normal(size=wshape))
        b = g.param("b", rng.normal(size=(co,)))
        x = g.input("x")
        node = conv_node if kind == "conv2d" else tconv_node
        g.set_output("loss", g.sum(node(g, x, p, b, spec)))
        return g, {"x": rng.normal(size=(1, ci, 4, 4))}
    p0 = rng.normal(size=(3, 3))
    if kind == "relu":
        # keep pre-activations away from the kink so central differences are valid
        p0 = p0 + np.sign(p0) * 0.05
    p = g.param("p", p0)
    if kind == "bce":
        pred = sigmoid_node(g, p)
        t = g.input("t")
        g.set_output("loss", bce_node(g, pred, t))
        return g, {"t": (rng.random((3, 3)) > 0.5).astype(float)}
    node = {"relu": relu_node, "sigmoid": sigmoid_node}[kind]
    g.set_output("loss", g.sum(sigmoid_node(g, node(g, p))))
    return g, {}


@pytest.mark.parametrize("kind", ["conv2d", "tconv2d", "relu", "sigmoid", "bce"])
def test_layer_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(25):  # 5 kinds x 25 = 125 random instances
        g, bind = _layer_fd_case(kind, rng)
        assert ba.grad_check(g, "loss", bind, "p") < 1e-4


def test_dropout_gradient_with_frozen_mask():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = ba.Graph()
        p = g.param("p", rng.normal(size=(4, 4)))
        g.set_output("loss", g.sum(sigmoid_node(g, dropout_node(g, p, 0.4))))
        err = ba.grad_check(g, "loss", {}, "p", training=True, rng=np.random.default_rng(7))
        assert err < 1e-4


def test_reversal_gradient_against_scaled_finite_differences():
    # the reversal layer back-propagates -lam times the true gradient, so the
    # oracle is -lam times the central difference of the (identity) forward
    rng = np.random.default_rng(40)
    lam = 0.3
    g = ba.Graph()
    p = g.param("p", rng.normal(size=(3, 3)))
    g.set_output("loss", g.sum(sigmoid_node(g, grl_node(g, p, lam))))
    ba.forward(g)
    analytic = ba.backward(g, "loss")["p"]

    def eval_loss():
        return float(ba.forward(g, {})["loss"][0])

    numeric = -lam * fd_loss_gradient(eval_loss, g.params["p"])
    assert max_rel_err(analytic, numeric) < 1e-4

