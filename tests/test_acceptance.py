"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The heavyweight artifacts (three seeded source->far runs of
the full gated pipeline) are built once in a module fixture and shared by the
learning, recovery, gate, and determinism criteria.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import binadapt as ba
from binadapt.data import synthetic_domain_pairs
from binadapt.layers import (
    bce_node,
    conv_node,
    dropout_node,
    grl_lambda_at,
    grl_node,
    relu_node,
    sigmoid_node,
    tconv_node,
)
from binadapt.metrics import Confusion
from binadapt.similarity import USE_DA, USE_SAE, autobindann

from defaults import DEFAULTS, SAE, bindann
from reference import direct_pearson, fd_loss_gradient, max_rel_err

SEEDS = (0, 1, 2)
RUN_CFG = dict(epochs=60, batch=16)


def _report(criterion, ok, detail, elapsed=None):
    stamp = "" if elapsed is None else f"  [{elapsed:.1f}s]"
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}{stamp}")
    assert ok, f"criterion {criterion}: {detail}"


def _micro_f1(binarizer, dataset, masks):
    total = Confusion()
    for rec in dataset.records:
        pred = ba.binarize(ba.predict_prob_map(binarizer.model, rec.page), binarizer.th_s)
        total = total + ba.confusion(pred, masks[rec.stem])
    return ba.f1(total)


@pytest.fixture(scope="module")
def far_runs():
    """Full gated pipeline per seed on the source -> far pair, with timing."""
    runs = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        src, near, far = ba.make_synthetic_domains(seed)
        cfg = ba.ExperimentConfig(seed=seed, **RUN_CFG)
        result = autobindann(src, far, cfg)
        masks = {stem: m for stem, _, m in synthetic_domain_pairs(seed, "target_far")}
        runs[seed] = {
            "source": src,
            "near": near,
            "far": far,
            "result": result,
            "masks": masks,
            "seconds": time.perf_counter() - t0,
        }
    return runs


# ---------------------------------------------------------------------------
# 1. gradient correctness

def _layer_checks():
    rng = np.random.default_rng(10)
    worst = 0.0

    g = ba.Graph()
    x = g.input("x")
    w = g.param("p", rng.normal(size=(2, 1, 3, 3)))
    b = g.param("b", rng.normal(size=(2,)))
    spec = ba.ConvSpec(1, 2, (3, 3), (2, 2), (0, 1, 0, 1))
    g.set_output("loss", g.sum(conv_node(g, x, w, b, spec)))
    bind = {"x": rng.normal(size=(1, 1, 6, 6))}
    worst = max(worst, ba.grad_check(g, "loss", bind, "p"), ba.grad_check(g, "loss", bind, "b"))

    g = ba.Graph()
    x = g.input("x")
    w = g.param("p", rng.normal(size=(2, 1, 3, 3)))
    b = g.param("b", rng.normal(size=(1,)))
    spec = ba.ConvSpec(2, 1, (3, 3), (2, 2), (0, 1, 0, 1))
    g.set_output("loss", g.sum(tconv_node(g, x, w, b, spec)))
    bind = {"x": rng.normal(size=(1, 2, 3, 3))}
    worst = max(worst, ba.grad_check(g, "loss", bind, "p"), ba.grad_check(g, "loss", bind, "b"))

    for node in (relu_node, sigmoid_node):
        g = ba.Graph()
        p0 = rng.normal(size=(4, 4))
        p = g.param("p", p0 + np.sign(p0) * 0.05)
        g.set_output("loss", g.sum(sigmoid_node(g, node(g, p))))
        worst = max(worst, ba.grad_check(g, "loss", {}, "p"))

    g = ba.Graph()
    p = g.param("p", rng.normal(size=(5, 5)))
    g.set_output("loss", g.sum(sigmoid_node(g, dropout_node(g, p, 0.3))))
    worst = max(worst, ba.grad_check(g, "loss", {}, "p", training=True, rng=np.random.default_rng(2)))

    g = ba.Graph()
    p = g.param("p", rng.normal(size=(4, 4)))
    t = g.input("t")
    g.set_output("loss", bce_node(g, sigmoid_node(g, p), t))
    worst = max(worst, ba.grad_check(g, "loss", {"t": (rng.random((4, 4)) > 0.5).astype(float)}, "p"))

    # reversal layer: backward is -lam times the true gradient by definition,
    # so the oracle is -lam times the central difference of the forward
    lam = 0.3
    g = ba.Graph()
    p = g.param("p", rng.normal(size=(4, 4)))
    g.set_output("loss", g.sum(sigmoid_node(g, grl_node(g, p, lam))))
    ba.forward(g)
    analytic = ba.backward(g, "loss")["p"]
    numeric = -lam * fd_loss_gradient(
        lambda: float(ba.forward(g, {})["loss"][0]), g.params["p"]
    )
    worst = max(worst, max_rel_err(analytic, numeric))
    return worst


def _full_sae_check():
    model = ba.build_sae(SAE, np.random.default_rng(10))
    rng = np.random.default_rng(37)
    bind = {"x": rng.random((1, 1, 32, 32)), "gt": (rng.random((1, 1, 32, 32)) > 0.7).astype(float)}
    worst = 0.0
    for name in model.params:
        worst = max(
            worst,
            ba.grad_check(model.graph, "loss", bind, name, training=True,
                          rng=np.random.default_rng(16)),
        )
    return worst


def _full_bindann_check(lam=0.1):
    # trunk parameters: the engine's backward through the reversal node is the
    # true gradient of bin_loss - lam * domain_loss; branch parameters see the
    # plain combined loss
    model = bindann(seed=10, lam=lam)
    rng = np.random.default_rng(37)
    bind = {
        "x": rng.random((1, 1, 32, 32)),
        "gt": (rng.random((1, 1, 32, 32)) > 0.7).astype(float),
        "domain_gt": np.zeros((1, 1, 32, 32)),
    }
    ba.forward(model.graph, bind, wanted=("loss",), training=True, rng=np.random.default_rng(16))
    masks = dict(model.graph._run.masks)
    analytic = ba.backward(model.graph, "loss")

    worst = 0.0
    for name in model.params:
        trunk = not name.startswith("dom_")

        def eval_surrogate():
            out = ba.forward(model.graph, bind, wanted=("bin_loss", "domain_loss"),
                             training=True, frozen_masks=masks)
            bl = float(out["bin_loss"][0])
            dl = float(out["domain_loss"][0])
            return bl - lam * dl if trunk else bl + dl

        numeric = fd_loss_gradient(eval_surrogate, model.params[name])
        worst = max(worst, max_rel_err(analytic[name], numeric))
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = max(_layer_checks(), _full_sae_check(), _full_bindann_check())
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-4 and elapsed < 60,
            f"max finite-difference relative error {worst:.2e} (< 1e-4), "
            f"every layer + SAE-small + Bin-DANN-small", elapsed)


# ---------------------------------------------------------------------------
# 2. reversal contract

def test_criterion_2_reversal_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(5, 7))
    exact = True
    for lam in (0.0, 0.1, 0.5, 1.3):
        def trunk_grad(mid):
            g = ba.Graph()
            p = g.param("p", x0)
            g.set_output("loss", g.sum(sigmoid_node(g, mid(g, p))))
            ba.forward(g)
            return ba.backward(g, "loss")["p"]

        rev = trunk_grad(lambda g, p: grl_node(g, p, lam))
        ident = trunk_grad(lambda g, p: p)
        exact = exact and rev.tobytes() == (-lam * ident).tobytes()

    schedule = [grl_lambda_at(e, DEFAULTS.lambda0, DEFAULTS.lambda_inc) for e in range(11)]
    sched_ok = all(abs(v - (0.10 + 0.01 * e)) < 1e-12 for e, v in enumerate(schedule))
    elapsed = time.perf_counter() - t0
    _report(2, exact and sched_ok and elapsed < 1,
            f"backward == -lam x upstream bitwise; schedule 0.10, 0.11, ... 0.20", elapsed)


# ---------------------------------------------------------------------------
# 3. zero-coupling equivalence

def test_criterion_3_lambda_zero_equivalence():
    t0 = time.perf_counter()
    src, _, far = ba.make_synthetic_domains(5)
    cfg = ba.ExperimentConfig(epochs=1, batch=16, seed=5, lambda0=0.0, lambda_inc=0.0)
    steps = math.ceil(len(src.train()) * 16 / 16)  # 16 patches per 128x128 page
    sae = ba.train_sae(src, cfg)
    dann = ba.train_bindann(src, far, cfg)
    same = all(
        dann.model.params[name].tobytes() == sae.model.params[name].tobytes()
        for name in sae.model.params
    )
    elapsed = time.perf_counter() - t0
    _report(3, same and steps >= 5 and elapsed < 30,
            f"lambda==0 trunk trajectory bitwise identical over {steps} optimizer steps", elapsed)


# ---------------------------------------------------------------------------
# 4. on-domain learning

def test_criterion_4_on_domain_learning(far_runs):
    history = far_runs[0]["result"].sae.history
    best_50 = max(h.val_f1 for h in history[:50])
    budget = far_runs[0]["seconds"]
    _report(4, best_50 >= 0.90,
            f"source validation F1 {best_50:.3f} within 50 epochs (>= 0.90)", budget)


# ---------------------------------------------------------------------------
# 5. cross-domain degradation and recovery

def test_criterion_5_adaptation_recovery(far_runs):
    gaps = {}
    for seed in SEEDS:
        run = far_runs[seed]
        result = run["result"]
        assert result.da is not None, "gate did not trigger adaptation on the far target"
        f_sae = _micro_f1(result.sae, run["far"], run["masks"])
        f_da = _micro_f1(result.da, run["far"], run["masks"])
        gaps[seed] = (f_sae, f_da)
    holds = sum(1 for f_sae, f_da in gaps.values() if f_sae <= f_da - 0.10)
    total_time = sum(far_runs[s]["seconds"] for s in SEEDS)
    detail = "; ".join(
        f"seed {s}: SAE {v[0]:.3f} vs adapted {v[1]:.3f}" for s, v in gaps.items()
    )
    _report(5, holds >= 2 and total_time < 1200,
            f"recovery >= 0.10 on {holds}/3 seeds ({detail})", total_time)


# ---------------------------------------------------------------------------
# 6. gate behavior

def test_criterion_6_gate_behavior(far_runs):
    t0 = time.perf_counter()
    far_decisions = [far_runs[s]["result"].report.decision for s in SEEDS]

    run0 = far_runs[0]
    cfg = ba.ExperimentConfig(seed=0, **RUN_CFG)
    near_result = autobindann(run0["source"], run0["near"], cfg)
    near_ok = near_result.report.decision == USE_SAE and near_result.da is None

    boundary_ok = ba.gate_decision(0.25, 0.25) == USE_DA
    # the two halves of the source validation maps the sweep kept
    val_maps = run0["result"].sae.val_maps
    half = len(val_maps) // 2
    intra = ba.pearson(ba.domain_histogram(val_maps[:half], DEFAULTS.h_prec),
                       ba.domain_histogram(val_maps[half:], DEFAULTS.h_prec))
    elapsed = time.perf_counter() - t0
    _report(6,
            all(d == USE_DA for d in far_decisions) and near_ok and boundary_ok
            and intra >= 0.9 and elapsed < 300,
            f"far -> {far_decisions} (UseDA), near -> {near_result.report.decision} "
            f"(rho {near_result.report.rho:.3f}), boundary inclusive, intra-domain rho {intra:.3f}",
            elapsed)


# ---------------------------------------------------------------------------
# 7. similarity metric suite

def test_criterion_7_similarity_metrics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    bounds_ok = True
    asym_seen = False
    for _ in range(1000):
        a, b = rng.random(10), rng.random(10)
        a, b = a / a.sum(), b / b.sum()
        rho = ba.pearson(a, b)
        worst = max(worst, abs(rho - direct_pearson(a, b)))
        js = ba.js_divergence(a, b)
        hi = ba.hist_intersection(a, b)
        kl_ab, kl_ba = ba.kl_divergence(a, b), ba.kl_divergence(b, a)
        bounds_ok = bounds_ok and -1.0 <= rho <= 1.0 and 0.0 <= js <= math.log(2) and 0.0 <= hi <= 1.0
        bounds_ok = bounds_ok and rho == ba.pearson(b, a) and js == ba.js_divergence(b, a)
        bounds_ok = bounds_ok and hi == ba.hist_intersection(b, a)
        asym_seen = asym_seen or kl_ab != kl_ba
    elapsed = time.perf_counter() - t0
    _report(7, worst < 1e-12 and bounds_ok and asym_seen and elapsed < 10,
            f"pearson vs direct oracle max |diff| {worst:.1e} over 1000 pairs; "
            f"symmetry + bounds hold; KL asymmetry witnessed", elapsed)


# ---------------------------------------------------------------------------
# 8. pipeline exactness

def test_criterion_8_pipeline_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    tiling_ok = True
    for _ in range(200):
        page = rng.random((int(rng.integers(1, 120)), int(rng.integers(1, 120))))
        patches = ba.split_patches(page, int(rng.integers(1, 48)), int(rng.integers(1, 48)))
        tiling_ok = tiling_ok and ba.assemble(patches, page.shape).tobytes() == page.tobytes()

    payload = rng.integers(0, 256, size=64 * 48, dtype=np.uint8).tobytes()
    blob = b"P5\n48 64\n255\n" + payload
    pgm_ok = ba.write_pgm(ba.read_pgm(blob).pixels).endswith(payload)

    additive_ok = True
    harmonic_ok = True
    for _ in range(100):
        pred = rng.random((24, 31)) > 0.5
        gt = rng.random((24, 31)) > 0.6
        whole = ba.confusion(pred, gt)
        acc = Confusion()
        for i in range(0, 24, 7):
            for j in range(0, 31, 9):
                acc = acc + ba.confusion(pred[i : i + 7, j : j + 9], gt[i : i + 7, j : j + 9])
        additive_ok = additive_ok and (acc.tp, acc.fp, acc.fn, acc.tn) == (
            whole.tp, whole.fp, whole.fn, whole.tn)
        p, r = ba.precision(whole), ba.recall(whole)
        if p + r > 0 and whole.tp + whole.fp > 0 and whole.tp + whole.fn > 0:
            harmonic_ok = harmonic_ok and abs(ba.f1(whole) - 2 * p * r / (p + r)) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(8, tiling_ok and pgm_ok and additive_ok and harmonic_ok and elapsed < 30,
            "200 split/assemble round trips bit-exact; PGM payload bit-exact; "
            "confusion additive; F1 == harmonic mean", elapsed)


# ---------------------------------------------------------------------------
# 9. whole-run determinism

def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    env_run = lambda *a: subprocess.run(
        [sys.executable, "-m", "binadapt.cli", *a], capture_output=True, text=True
    )
    assert env_run("synth", "--seed", "3", "--out", str(tmp_path / "data")).returncode == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"source_dir = {tmp_path / 'data' / 'source'}\n"
        f"target_dir = {tmp_path / 'data' / 'target_far'}\n"
        "epochs = 20\nbatch = 16\nseed = 3\n"
    )
    assert env_run("run", "--config", str(cfg), "--out", str(tmp_path / "a")).returncode == 0
    assert env_run("run", "--config", str(cfg), "--out", str(tmp_path / "b")).returncode == 0

    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    identical = bool(files_a)
    for pa in files_a:
        pb = tmp_path / "b" / pa.relative_to(tmp_path / "a")
        identical = identical and pb.exists() and pa.read_bytes() == pb.read_bytes()

    report = json.loads((tmp_path / "a" / "report.json").read_text())
    covers_da = report["decision"] == USE_DA and (tmp_path / "a" / "bindann.ckpt").exists()
    elapsed = time.perf_counter() - t0
    _report(9, identical and covers_da,
            f"two cmd_run invocations byte-identical across {len(files_a)} artifacts "
            f"(decision {report['decision']}, both checkpoints covered)", elapsed)
