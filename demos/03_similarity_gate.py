# The gated pipeline on both synthetic targets, one stage at a time: one plain
# model is trained on the source and gated against each target; the near
# domain keeps it, the far domain (low histogram correlation) triggers
# adversarial adaptation. Target labels are used here only to score the
# result afterwards.

import binadapt as ba
from binadapt.data import synthetic_domain_pairs
from binadapt.metrics import Confusion

source, near, far = ba.make_synthetic_domains(seed=0)
cfg = ba.ExperimentConfig(epochs=40, batch=16, seed=0)


def score(binarizer, dataset, masks):
    total = Confusion()
    for rec in dataset.records:
        pred = ba.binarize(ba.predict_prob_map(binarizer.model, rec.page), binarizer.th_s)
        total = total + ba.confusion(pred, masks[rec.stem])
    return ba.f1(total)


sae = ba.train_sae(source, cfg)  # trained once, gated against both targets
for name, target in (("near", near), ("far", far)):
    print(f"=== target: {name} ===")
    result = ba.gate(sae, source, target, cfg)
    r = result.report
    print(f"rho {r.rho:+.3f}  kl_st {r.kl_st:.3f}  kl_ts {r.kl_ts:.3f}  "
          f"js {r.js:.3f}  intersection {r.hist_intersection:.3f}")
    if r.decision == ba.USE_DA:  # the adversarial model is trained only where the gate fires
        result.da = ba.train_bindann(source, target, cfg)
    print(f"decision: {r.decision}"
          + ("" if result.da is None else "  (adversarial model trained)"))

    # post-hoc evaluation only: regenerate the target masks from the fixture seed
    masks = {stem: m for stem, _, m in synthetic_domain_pairs(0, f"target_{name}")}
    print(f"plain model F1 on {name}:   {score(result.sae, target, masks):.3f}")
    print(f"pipeline output F1 on {name}: {score(result.used, target, masks):.3f}")
    print()
