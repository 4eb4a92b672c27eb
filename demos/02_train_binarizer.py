# Train the plain encoder-decoder binarizer on the synthetic source domain,
# watch the per-epoch validation sweep pick a threshold, and export one page.

from pathlib import Path

import binadapt as ba

source, _, _ = ba.make_synthetic_domains(seed=0)
print(f"source: {len(source.train())} train / {len(source.validation())} validation pages")

cfg = ba.ExperimentConfig(epochs=15, batch=16, seed=0)
binarizer = ba.train_sae(source, cfg)

print("epoch  loss    val_f1  threshold")
for h in binarizer.history:
    print(f"{h.epoch:5d}  {h.bin_loss:.4f}  {h.val_f1:.4f}  {h.th_s:.2f}")
print(f"best threshold th={binarizer.th_s:.2f}")

# run a validation page through the tiled predictor and threshold it
page = source.validation()[0].page
prob = ba.predict_prob_map(binarizer.model, page)
mask = ba.binarize(prob, binarizer.th_s)

out = Path("demo_out")
out.mkdir(exist_ok=True)
(out / "page.pgm").write_bytes(ba.write_pgm(page))
(out / "probability.pgm").write_bytes(ba.write_pgm(prob))
(out / "binarized.pgm").write_bytes(ba.write_pgm(mask))
print(f"wrote {out}/page.pgm, probability.pgm, binarized.pgm")

gt = source.validation()[0].gt
c = ba.confusion(mask, gt)
print(f"page F1 {ba.f1(c):.3f}  precision {ba.precision(c):.3f}  recall {ba.recall(c):.3f}")
