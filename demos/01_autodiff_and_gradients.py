# Build a computation graph by hand, run it forward and backward, verify the
# gradients against central finite differences, and take a few optimizer steps.

import numpy as np

import binadapt as ba
from binadapt.layers import bce_node, conv_node, grl_node, sigmoid_node

rng = np.random.default_rng(0)

# A miniature pipeline: conv -> sigmoid -> cross-entropy against a fixed target.
g = ba.Graph()
x = g.input("x")
w = g.param("w", rng.normal(size=(1, 1, 3, 3)) * 0.5)
b = g.param("b", np.zeros(1))
spec = ba.ConvSpec(1, 1, kernel=(3, 3), stride=(1, 1), padding=(1, 1, 1, 1))
pred = sigmoid_node(g, conv_node(g, x, w, b, spec))
target = g.input("target")
g.set_output("pred", pred)
g.set_output("loss", bce_node(g, pred, target))

bindings = {
    "x": rng.normal(size=(1, 1, 6, 6)),
    "target": (rng.random((1, 1, 6, 6)) > 0.5).astype(float),
}

# a training forward keeps the record its backward reads; an inference forward
# (training=False, the default) keeps none and cannot be differentiated
out = ba.forward(g, bindings, training=True)
print(f"initial loss: {out['loss'][0]:.4f}")

grads = ba.backward(g, "loss")
print("gradient shapes:", {name: grad.shape for name, grad in grads.items()})

# grad_check perturbs every weight element by +-1e-5 and compares the
# analytic gradient with the central difference
for name in ("w", "b"):
    err = ba.grad_check(g, "loss", bindings, name)
    print(f"finite-difference check {name}: max relative error {err:.2e}")

# a few Adam steps drive the toy loss down
opt = ba.adam(lr=0.05)
for step in range(20):
    loss = ba.forward(g, bindings, wanted=("loss",), training=True)["loss"][0]
    ba.optimizer_step(opt, g.params, ba.backward(g, "loss"))
print(f"loss after 20 Adam steps: {loss:.4f}")

# the gradient-reversal node is forward-identity but flips and scales the
# gradient on the way back: that asymmetry is what drives adversarial training
g2 = ba.Graph()
p = g2.param("p", np.array([1.0, 2.0, 3.0]))
g2.set_output("loss", g2.sum(grl_node(g2, p, lam=0.5)))
ba.forward(g2, training=True)
print("reversal-layer gradient of sum(x):", ba.backward(g2, "loss")["p"], "(plain sum would give +1)")
