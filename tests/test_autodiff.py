"""Engine-level contracts: forward/backward, grad_check, op arrays, optimizers, checkpoints."""

import gc
import weakref

import numpy as np
import pytest

import binadapt as ba
from binadapt import layers
from binadapt.autodiff import CHECKPOINT_MAGIC, GraphError
from binadapt.layers import bce_node, conv_node, grl_node, relu_node, sigmoid_node

from defaults import SAE, bindann
from reference import direct_conv2d, fd_loss_gradient, max_rel_err


def test_forward_sigmoid_zero():
    g = ba.Graph()
    x = g.input("x")
    g.set_output("y", g.add_node("sigmoid", (x,)))
    assert ba.forward(g, {"x": [0.0]})["y"][0] == 0.5


def test_forward_relu_conv_matches_direct_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 1, 4, 4))
    w = rng.normal(size=(2, 1, 3, 3))
    b = rng.normal(size=(2,))
    spec = ba.ConvSpec(1, 2, (3, 3), (1, 1), (1, 1, 1, 1))

    g = ba.Graph()
    xn = g.input("x")
    wn = g.param("w", w)
    bn = g.param("b", b)
    g.set_output("y", relu_node(g, conv_node(g, xn, wn, bn, spec)))
    got = ba.forward(g, {"x": x})["y"]

    want = np.maximum(direct_conv2d(x, w, b, (1, 1), (1, 1, 1, 1)), 0.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_backward_sum_gives_ones():
    g = ba.Graph()
    p = g.param("p", [4.0, -1.0, 2.0])
    g.set_output("loss", g.sum(p))
    ba.forward(g)
    grads = ba.backward(g, "loss")
    assert list(grads) == ["p"]
    assert np.array_equal(grads["p"], [1.0, 1.0, 1.0])


def test_backward_through_reversal_flips_and_scales():
    g = ba.Graph()
    p = g.param("p", [3.0, 7.0])
    g.set_output("loss", g.sum(grl_node(g, p, 0.1)))
    ba.forward(g)
    assert np.array_equal(ba.backward(g, "loss")["p"], [-0.1, -0.1])


def test_backward_bce_sigmoid_conv_matches_finite_differences():
    rng = np.random.default_rng(11)
    g = ba.Graph()
    xn = g.input("x")
    wn = g.param("w", rng.normal(size=(1, 1, 3, 3)) * 0.5)
    bn = g.param("b", np.zeros(1))
    spec = ba.ConvSpec(1, 1, (3, 3), (1, 1), (1, 1, 1, 1))
    pred = sigmoid_node(g, conv_node(g, xn, wn, bn, spec))
    tn = g.input("t")
    g.set_output("loss", bce_node(g, pred, tn))

    bind = {"x": rng.normal(size=(1, 1, 4, 4)), "t": (rng.random((1, 1, 4, 4)) > 0.5).astype(float)}
    ba.forward(g, bind)
    analytic = ba.backward(g, "loss")["w"]

    def eval_loss():
        return float(ba.forward(g, bind)["loss"][0])

    numeric = fd_loss_gradient(eval_loss, g.params["w"])
    assert max_rel_err(analytic, numeric) < 1e-4


def test_grad_check_linear_graph_is_exact():
    rng = np.random.default_rng(5)
    g = ba.Graph()
    xn = g.input("x")
    wn = g.param("w", rng.normal(size=(2, 1, 2, 2)))
    bn = g.param("b", rng.normal(size=(2,)))
    spec = ba.ConvSpec(1, 2, (2, 2), (1, 1), (0, 0, 0, 0))
    g.set_output("loss", g.sum(conv_node(g, xn, wn, bn, spec)))
    bind = {"x": rng.normal(size=(1, 1, 3, 3))}
    assert ba.grad_check(g, "loss", bind, "w") < 1e-8
    assert ba.grad_check(g, "loss", bind, "b") < 1e-8


def test_grad_check_rejects_bad_epsilon():
    g = ba.Graph()
    p = g.param("p", [1.0])
    g.set_output("loss", g.sum(p))
    with pytest.raises(GraphError):
        ba.grad_check(g, "loss", {}, "p", epsilon=0.1)


def test_gradient_accumulation_sums_both_paths():
    # p feeds two consumers; its gradient must be the sum of both path gradients
    p0 = np.array([0.3, -0.7, 1.2])
    g = ba.Graph()
    p = g.param("p", p0)
    two_path = g.add(sigmoid_node(g, p), relu_node(g, p))
    g.set_output("loss", g.sum(two_path))
    ba.forward(g)
    got = ba.backward(g, "loss")["p"]
    sig = 1.0 / (1.0 + np.exp(-p0))
    want = sig * (1.0 - sig) + (p0 > 0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_backward_skips_the_gradient_of_data_inputs(monkeypatch):
    # the SAE has three convs (enc2, enc3, output head) whose input a parameter
    # feeds; enc1 reads the data input x, whose gradient nobody uses
    model = ba.build_sae(SAE, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    bindings = {"x": rng.random((2, 1, 32, 32)), "gt": (rng.random((2, 1, 32, 32)) > 0.5) * 1.0}
    ba.forward(model.graph, bindings, training=True, rng=np.random.default_rng(2))
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return grad_input(*args)

    grad_input = layers._conv_grad_input
    monkeypatch.setattr(layers, "_conv_grad_input", counted)
    grads = ba.backward(model.graph, "loss")
    assert len(calls) == 3
    assert set(grads) == set(model.params)


def test_forward_is_pure_given_seed():
    g = ba.Graph()
    x = g.input("x")
    g.set_output("y", g.add_node("dropout", (x,), rate=0.5))
    bind = {"x": np.arange(12.0).reshape(3, 4)}
    a = ba.forward(g, bind, training=True, rng=np.random.default_rng(9))["y"]
    b = ba.forward(g, bind, training=True, rng=np.random.default_rng(9))["y"]
    assert a.tobytes() == b.tobytes()


def test_forward_errors():
    g = ba.Graph()
    x = g.input("x")
    y = g.input("y")
    g.set_output("s", g.add(x, y))
    with pytest.raises(GraphError, match="not bound"):
        ba.forward(g, {"x": [1.0]})
    with pytest.raises(GraphError, match="add"):
        ba.forward(g, {"x": [1.0], "y": [1.0, 2.0]})
    with pytest.raises(GraphError, match="non-finite"):
        ba.forward(g, {"x": [np.nan], "y": [1.0]})
    # outputs are named; a node id is not a name
    with pytest.raises(GraphError, match="unknown output"):
        ba.forward(g, {"x": [1.0], "y": [1.0]}, wanted=(g.outputs["s"],))


def test_backward_errors():
    g = ba.Graph()
    p = g.param("p", [1.0, 2.0])
    g.set_output("v", p)
    with pytest.raises(GraphError, match="before forward"):
        ba.backward(g, "v")
    ba.forward(g)
    with pytest.raises(GraphError, match="not scalar"):
        ba.backward(g, "v")
    with pytest.raises(GraphError, match="unknown output"):
        ba.backward(g, g.outputs["v"])


def test_execution_plan_follows_the_graph_as_it_grows():
    bindings = {"x": [3.0, 4.0]}

    def build(run_between):
        g = ba.Graph()
        p = g.param("p", [1.0, -2.0])
        g.set_output("y", g.add(g.input("x"), p))
        if run_between:  # caches the plan of "y"
            ba.forward(g, bindings)
        g.set_output("y", g.add(g.outputs["y"], g.param("q", [0.5, 0.25])))
        g.set_output("s", g.sum(g.outputs["y"]))
        return g

    runs = {}
    for run_between in (True, False):
        g = build(run_between)
        out = ba.forward(g, bindings, wanted=("y", "s"))
        runs[run_between] = (out, g._run.order, g._run.input_needs, ba.backward(g, "s"))
    (out, order, needs, grads), (out0, order0, needs0, grads0) = runs[True], runs[False]
    assert out.keys() == out0.keys() and all(np.array_equal(out[k], out0[k]) for k in out)
    assert order == order0 and needs == needs0
    assert grads.keys() == grads0.keys() == {"p", "q"}
    assert all(np.array_equal(grads[k], grads0[k]) for k in grads)


def test_failed_forward_releases_the_previous_run():
    g = ba.Graph()
    p = g.param("p", [1.0, -2.0])
    g.set_output("loss", g.sum(g.add(g.input("x"), p)))
    ba.forward(g, {"x": [3.0, 4.0]})
    assert set(ba.backward(g, "loss")) == {"p"}
    with pytest.raises(GraphError, match="not bound"):
        ba.forward(g, {})
    with pytest.raises(GraphError, match="backward called before forward"):
        ba.backward(g, "loss")


def test_outputs_and_gradients_do_not_alias_params():
    g = ba.Graph()
    p = g.param("p", [1.0, -2.0])
    g.set_output("y", grl_node(g, p, 1.0))
    g.set_output("loss", g.sum(grl_node(g, p, 1.0)))
    param = g.params["p"]
    out = ba.forward(g)
    grads = ba.backward(g, "loss")
    assert not np.shares_memory(out["y"], param)
    assert not np.shares_memory(grads["p"], param)
    before = out["y"].copy()
    ba.optimizer_step(ba.adam(0.1), g.params, grads)
    assert g.params["p"] is param and not np.array_equal(param, before)  # updated in place
    assert out["y"].tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# op arrays: steps on one graph share no state

_DANN_WANTED = ("loss", "bin_loss", "domain_loss")


def _dann_batches(n, seed):
    rng = np.random.default_rng(seed)
    x, t = rng.random((n, 1, 32, 32)), rng.random((n, 1, 32, 32))
    source = {"x": x, "gt": (rng.random(x.shape) > 0.5) * 1.0, "domain_gt": np.zeros_like(x)}
    return source, {"x": t, "domain_gt": np.ones_like(t)}


def _dann_step(graph, n, seed):
    """Both passes of one Bin-DANN training step at batch n, without the
    optimizer: the outputs, masks and summed gradients, copied."""
    source, target = _dann_batches(n, seed)
    out = ba.forward(graph, source, wanted=_DANN_WANTED, training=True,
                     rng=np.random.default_rng(seed))
    masks = {nid: m.copy() for nid, m in graph._run.masks.items()}
    grads = ba.backward(graph, "loss")
    out_t = ba.forward(graph, target, wanted=("domain_loss",), training=True,
                       rng=np.random.default_rng(seed + 1))
    masks_t = {nid: m.copy() for nid, m in graph._run.masks.items()}
    for name, g in ba.backward(graph, "domain_loss").items():
        grads[name] = grads[name] + g if name in grads else g
    return out, out_t, masks, masks_t, grads


def _assert_bitwise_equal(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_bitwise_equal(a[k], b[k])
    elif isinstance(a, tuple):
        for x, y in zip(a, b, strict=True):
            _assert_bitwise_equal(x, y)
    else:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_steps_on_one_graph_leak_no_state_between_shapes():
    # training at 8, inference at 16 and at a ragged 5, training at 8 again:
    # every step on the one graph must equal the same step on a fresh graph
    model = bindann()
    steps = [("train", 8, 1), ("infer", 16, 2), ("infer", 5, 3), ("train", 8, 4),
             ("train", 8, 5), ("infer", 16, 6)]

    def run(graph, kind, n, seed):
        if kind == "train":
            return _dann_step(graph, n, seed)
        x = np.random.default_rng(seed).random((n, 1, 32, 32))
        return ba.forward(graph, {"x": x}, wanted=("prob_map", "domain_map"))

    kept = [run(model.graph, *step) for step in steps]
    for step, got in zip(steps, kept):
        fresh = bindann()
        _assert_bitwise_equal(got, run(fresh.graph, *step))


def test_returned_gradients_survive_the_next_step():
    model = bindann()
    graph = model.graph
    _dann_step(graph, 8, 0)
    first = _dann_step(graph, 8, 1)[4]
    before = {name: g.copy() for name, g in first.items()}
    _dann_step(graph, 8, 2)
    _dann_step(graph, 8, 3)
    _assert_bitwise_equal(first, before)


def test_returned_gradients_belong_to_the_caller():
    # backward returns its gradients uncopied: a caller that overwrites them
    # after the optimizer step changes nothing in the next step
    def first_step(graph, opt):
        source, target = _dann_batches(8, 0)
        ba.forward(graph, source, wanted=_DANN_WANTED, training=True,
                   rng=np.random.default_rng(0))
        returned = [ba.backward(graph, "loss")]
        ba.forward(graph, target, wanted=("domain_loss",), training=True,
                   rng=np.random.default_rng(1))
        returned.append(ba.backward(graph, "domain_loss"))
        grads = dict(returned[0])
        for name, g in returned[1].items():
            grads[name] = grads[name] + g if name in grads else g
        ba.optimizer_step(opt, graph.params, grads)
        return returned

    models = [bindann() for _ in range(2)]
    opts = [ba.adam(0.01), ba.adam(0.01)]
    for grads in first_step(models[0].graph, opts[0]):
        for g in grads.values():
            g.fill(np.nan)
    first_step(models[1].graph, opts[1])  # a fresh graph, its gradients left alone
    after = []
    for model, opt in zip(models, opts):
        step = _dann_step(model.graph, 8, 2)
        ba.optimizer_step(opt, model.params, step[4])
        after.append((step, model.params, opt.moments))
    _assert_bitwise_equal(*after)


def test_frozen_masks_are_never_written():
    model = ba.build_sae(SAE, np.random.default_rng(0))
    graph = model.graph
    source, _ = _dann_batches(4, 0)
    del source["domain_gt"]
    want = ba.forward(graph, source, training=True, rng=np.random.default_rng(1))
    masks = {nid: m.copy() for nid, m in graph._run.masks.items()}
    for mask in masks.values():
        mask.flags.writeable = False  # a write would raise
    for _ in range(3):
        got = ba.forward(graph, source, training=True, frozen_masks=masks)
        ba.backward(graph, "loss")
        _assert_bitwise_equal(got, want)
    assert ba.grad_check(graph, "loss", source, "out.b", training=True,
                         rng=np.random.default_rng(1)) < 1e-4


def test_a_frozen_mask_must_be_a_boolean_keep_mask_of_the_input_shape():
    model = ba.build_sae(SAE, np.random.default_rng(0))
    source, _ = _dann_batches(4, 0)
    del source["domain_gt"]
    ba.forward(model.graph, source, training=True, rng=np.random.default_rng(1))
    masks = dict(model.graph._run.masks)
    nid, keep = next(iter(masks.items()))
    assert all(m.dtype == bool for m in masks.values())
    # the float multiplier keep / (1 - rate) a record once held is refused too
    for bad in (keep / 0.8, keep.astype(np.uint8), keep[:1], keep.tolist()):
        with pytest.raises(GraphError, match="frozen dropout mask"):
            ba.forward(model.graph, source, training=True, frozen_masks={**masks, nid: bad})


def test_a_replaced_record_dies_at_once_and_leaves_no_cycle():
    # a cycle through a record would hold its activations until the
    # collector ran
    model = bindann()
    graph = model.graph
    source, _ = _dann_batches(8, 0)
    gc.collect()
    gc.disable()
    try:
        _dann_step(graph, 8, 1)
        first = weakref.ref(graph._run)
        ba.forward(graph, source, wanted=_DANN_WANTED, training=True,
                   rng=np.random.default_rng(2))
        assert first() is None
        ba.backward(graph, "loss")
        _dann_step(graph, 8, 3)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert not [obj for obj in gc.garbage if isinstance(obj, np.ndarray)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# ---------------------------------------------------------------------------
# optimizer

def test_zero_gradient_is_fixed_point():
    state = ba.adam(1e-3)
    params = {"p": np.array([2.5, -1.0])}
    for _ in range(3):
        ba.optimizer_step(state, params, {"p": np.zeros(2)})
        assert np.array_equal(params["p"], [2.5, -1.0])


def test_adam_single_step_matches_hand_evaluation():
    # one step, scalar: m=(1-b1)g, v=(1-b2)g^2, mhat=g, vhat=g^2,
    # update = lr * g / (|g| + eps)
    lr, g_val = 1e-3, 0.7
    state = ba.adam(lr=lr)
    params = {"p": np.array([1.0])}
    ba.optimizer_step(state, params, {"p": np.array([g_val])})
    expected = 1.0 - lr * g_val / (np.sqrt(g_val**2) + 1e-8)
    assert params["p"][0] == pytest.approx(expected, abs=1e-15)


def test_optimizer_shape_mismatch_errors():
    state = ba.adam(0.1)
    with pytest.raises(GraphError, match="shape"):
        ba.optimizer_step(state, {"p": np.array([1.0])}, {"p": np.zeros(2)})


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_is_bit_exact():
    rng = np.random.default_rng(2)
    params = {
        "enc.w": rng.normal(size=(4, 3, 3, 3)),
        "enc.b": rng.normal(size=(4,)),
        "odd/name with spaces": rng.normal(size=(2, 5)),
    }
    blob = ba.write_checkpoint(params)
    assert blob.startswith(b"BINADAPT1")
    back = ba.read_checkpoint(blob)
    assert list(back) == list(params)
    for name in params:
        assert back[name].tobytes() == params[name].tobytes()
        assert back[name].shape == params[name].shape


def test_checkpoint_bad_magic_and_truncation():
    with pytest.raises(GraphError, match="magic"):
        ba.read_checkpoint(b"NOTMAGIC!")
    blob = ba.write_checkpoint({"p": np.ones(3)})
    with pytest.raises(GraphError, match="truncated"):
        ba.read_checkpoint(blob[:-4])


def test_checkpoint_rejects_a_repeated_record():
    # the second record would otherwise replace the first one's values
    blob = ba.write_checkpoint({"p": np.ones(3), "q": np.zeros(2)})
    again = ba.write_checkpoint({"p": np.full(3, 7.0)})[len(CHECKPOINT_MAGIC):]
    with pytest.raises(ba.CheckpointError, match=rf"record 'p' at byte {len(blob)} repeats"):
        ba.read_checkpoint(blob + again)
