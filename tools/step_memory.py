"""Traced memory peak and time of one SAE and one Bin-DANN training step,
and of one SAE inference forward.

Usage: python3 tools/step_memory.py [TREE] --patch P --batch B [--steps 5]

TREE is a checkout holding ``src/binadapt`` (default: the one this tool sits
in). In a fresh process with BLAS at one thread, the tool builds the default
SAE and Bin-DANN (``ExperimentConfig``'s model at a P x P patch, the reversal
coefficient at its first scheduled value) and trains each on random batches
of B patches with boolean labels, as ``binadapt`` training steps: the SAE's
forward and backward on ``loss``; for Bin-DANN that source pass plus the
target pass on ``domain_loss``, each pass drawing its dropout masks from a
generator of its own, the two passes' gradients summed; then one Adam update.
The ``infer`` step is the SAE's inference forward on ``prob_map`` alone, as
page prediction runs it, on a batch of the same size. After one warm-up
step it times ``--steps`` steps, then runs one more under ``tracemalloc``,
whose peak is the most memory the step's own allocations held at once. It
prints each step's traced peak and median time, the last line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_STEPS = """
import dataclasses, json, statistics, sys, time, tracemalloc
import numpy as np
import binadapt as ba

patch, batch, steps = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
cfg = ba.ExperimentConfig()
sae = dataclasses.replace(cfg.sae_config(), patch=(patch, patch))
data = np.random.default_rng(0)
shape = (batch, 1, patch, patch)
source = {"x": data.random(shape), "gt": data.random(shape) > 0.8}  # boolean, as training cuts labels
target = {"x": data.random(shape), "domain_gt": np.ones(shape)}


def train_step(model, opt, seed):
    rng, rng_target = (np.random.default_rng([seed, p]) for p in (0, 1))
    if model.kind == "sae":
        ba.forward(model.graph, source, wanted=("loss", "bin_loss"), training=True, rng=rng)
        grads = ba.backward(model.graph, "loss")
    else:
        ba.forward(model.graph, {**source, "domain_gt": np.zeros(shape)},
                   wanted=("loss", "bin_loss", "domain_loss"), training=True, rng=rng)
        grads = ba.backward(model.graph, "loss")
        ba.forward(model.graph, target, wanted=("domain_loss",), training=True, rng=rng_target)
        for name, g in ba.backward(model.graph, "domain_loss").items():
            grads[name] = grads[name] + g if name in grads else g
    ba.optimizer_step(opt, model.params, grads)


def infer_step(model, opt, seed):
    ba.forward(model.graph, {"x": source["x"]}, wanted=("prob_map",))


report = {"patch": patch, "batch": batch}
for kind in ("sae", "bindann", "infer"):
    if kind == "bindann":
        model = ba.build_bindann(sae, np.random.default_rng(0))
        model.set_grl(cfg.lambda0)
    else:
        model = ba.build_sae(sae, np.random.default_rng(0))
    step = infer_step if kind == "infer" else train_step
    opt = ba.adam(cfg.lr)
    step(model, opt, 0)
    times = []
    for seed in range(1, steps + 1):
        start = time.perf_counter()
        step(model, opt, seed)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        step(model, opt, steps + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report[kind] = {"peak_bytes": peak, "step_s": statistics.median(times)}
print(json.dumps(report))
"""


def measure(tree: Path, patch, batch, steps) -> dict:
    """The child's report; exits 2 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _STEPS, str(patch), str(batch), str(steps)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"step_memory: the steps under {tree} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="checkout to measure (default: this one)")
    parser.add_argument("--patch", type=int, required=True, help="patch side in pixels")
    parser.add_argument("--batch", type=int, required=True, help="patches per batch")
    parser.add_argument("--steps", type=int, default=5, help="timed steps per model (default 5)")
    args = parser.parse_args(argv)
    if args.patch < 1 or args.batch < 1 or args.steps < 1:
        parser.error("--patch, --batch and --steps must be >= 1")
    report = measure(args.tree, args.patch, args.batch, args.steps)
    for kind in ("sae", "bindann", "infer"):
        row = report[kind]
        print(f"{kind}: traced peak {row['peak_bytes'] / 2**20:.2f} MiB, "
              f"median step {row['step_s'] * 1e3:.2f} ms over {args.steps} steps")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
