# Domain histograms and the comparison metrics on hand-made probability maps,
# without any training: how pooled per-pixel confidences turn into one
# similarity number per domain pair.

import numpy as np

import binadapt as ba

cfg = ba.ExperimentConfig()  # the default bin width and gate threshold
rng = np.random.default_rng(0)

# a "confident" domain: most pixels near 0, some near 1 (typical of a model
# looking at data it understands)
confident = np.clip(np.concatenate([
    rng.normal(0.03, 0.02, size=9000),
    rng.normal(0.95, 0.03, size=1000),
]), 0, 1)

# an "unsure" domain: probabilities smeared across the middle of the range
unsure = np.clip(rng.normal(0.5, 0.2, size=10_000), 0, 1)

# a second confident sample, as a stand-in for a similar domain
confident2 = np.clip(np.concatenate([
    rng.normal(0.05, 0.03, size=8500),
    rng.normal(0.92, 0.04, size=1500),
]), 0, 1)

hists = {}
for name, values in (("confident", confident), ("confident2", confident2), ("unsure", unsure)):
    hists[name] = ba.domain_histogram([values], cfg.h_prec)
    print(f"{name:10s} bins:", np.round(hists[name], 3))

print()
for a, b in (("confident", "confident2"), ("confident", "unsure")):
    ha, hb = hists[a], hists[b]
    rho = ba.pearson(ha, hb)
    print(f"{a} vs {b}:")
    print(f"  pearson      {rho:+.3f}   -> gate: {ba.gate_decision(rho, cfg.rho_th)}")
    print(f"  kl (a->b)    {ba.kl_divergence(ha, hb):.3f}")
    print(f"  kl (b->a)    {ba.kl_divergence(hb, ha):.3f}   (not symmetric)")
    print(f"  jensen-shannon {ba.js_divergence(ha, hb):.3f}  (max {np.log(2):.3f})")
    print(f"  intersection {ba.hist_intersection(ha, hb):.3f}")
    print()
