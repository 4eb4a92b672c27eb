"""Check that two source trees write byte-identical artifacts.

Usage: python3 tools/compare_artifacts.py PARENT_TREE CHANGE_TREE [--seeds 0-3]

Each tree is a checkout holding ``src/binadapt``. Per seed, each tree writes
the synthetic data: 4 pages of 128x128 per domain with their ``gt`` masks;
two ragged far-target pages, 1000x750 and 45x300, under ``ragged/``; and a
ragged source and far target of three pages each, 100x75, 45x70 and 75x100,
with their ``gt`` masks, under ``ragged_run/``. Every generated file whose
bytes differ between the two data trees is listed, under ``seedN/data/``, so
a generator that is wrong only on non-square pages shows here. Both trees
then run on the first tree's data, each command in its own process with BLAS
at one thread, at the benchmark's ``adapt`` settings (10 epochs, batch 8, lr
0.01, validation fraction 0.2):

* ``binadapt run`` from the source to the far and to the near target;
* ``binadapt run`` from the ragged source to the ragged target, with the
  gate's threshold at 1.0 so that it always adapts. No side of these pages
  is a multiple of the patch, so the SAE's and Bin-DANN's training batches
  and every prediction replicate page edges;
* ``binadapt predict`` on every far-target page with the far run's
  ``bindann.ckpt``;
* ``binadapt predict`` with the same checkpoint on the two ragged pages,
  whose sides are no multiple of the patch and whose prediction batches
  cross rows of patches. The 1000x750 page has 48 batches of 16 patches,
  so on two or more usable CPUs its prediction forks workers that fill one
  shared map: it is the only command here that runs that path. The 45x300
  page (2 batches) and every 128x128 page (1 batch) run in one process;
* ``binadapt similarity`` from the source to the far target with the far
  run's ``sae.ckpt``;
* ``binadapt train-sae`` on the source;
* ``binadapt synth`` at the seed's defaults (8 pages of 128x128 per domain).

``train-sae`` and ``synth`` also get ``--seed`` with the value the config
holds, so the override path is compared as well.

Every command reads the same inputs at the same paths, so even the
manifests, which record those paths, must match. Exits 1 and lists every
file that differs or exists in one tree only; a checkpoint both trees wrote
is marked "header only" when only its ``__config__`` record differs and
"parameters differ" otherwise. Exits 2 if a command fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from binadapt.models import CheckpointError, read_checkpoint  # noqa: E402  (this checkout's reader)

PAGES, SIDE = 4, 128
ADAPT = {"epochs": 10, "batch": 8, "lr": 0.01, "validation_fraction": 0.2}
TARGETS = ("target_far", "target_near")
RAGGED = ((1000, 750), (45, 300))
RAGGED_RUN = ((100, 75), (45, 70), (75, 100))

_WRITE_DATA = f"""
import sys
from pathlib import Path
from binadapt.data import synthetic_domain_pairs, write_pgm, write_synthetic_dirs
seed, data = int(sys.argv[1]), Path(sys.argv[2])
write_synthetic_dirs(seed, data, {PAGES}, ({SIDE}, {SIDE}))
(data / "ragged").mkdir()
for h, w in {RAGGED}:
    [(_, page, _)] = synthetic_domain_pairs(seed, "target_far", 1, (h, w))
    (data / "ragged" / f"page{{h}}x{{w}}.pgm").write_bytes(write_pgm(page))
for kind, domain in (("source", "source"), ("target_far", "target")):
    for sub in ("images", "gt"):
        (data / "ragged_run" / domain / sub).mkdir(parents=True)
    for h, w in {RAGGED_RUN}:
        [(_, page, mask)] = synthetic_domain_pairs(seed, kind, 1, (h, w))
        (data / "ragged_run" / domain / "images" / f"page{{h}}x{{w}}.pgm").write_bytes(write_pgm(page))
        (data / "ragged_run" / domain / "gt" / f"page{{h}}x{{w}}.pgm").write_bytes(write_pgm(mask))
"""


def parse_seeds(text):
    """'0-3' -> [0, 1, 2, 3]; comma-separated parts and single seeds also work."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def differing_files(a: Path, b: Path):
    """Paths, relative to the two roots, whose bytes differ or that exist under one only."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(rel for rel in files_a | files_b
                  if rel not in files_a or rel not in files_b
                  or (a / rel).read_bytes() != (b / rel).read_bytes())


def checkpoint_difference(a: Path, b: Path):
    """How two differing checkpoints differ: "header only" when every record
    but ``__config__`` has the same name, place, shape and bytes in both."""
    def params(path):
        try:
            records = read_checkpoint(path.read_bytes())
        except CheckpointError:
            return None
        records.pop("__config__", None)
        return [(name, arr.shape, arr.tobytes()) for name, arr in records.items()]

    pa, pb = params(a), params(b)
    return "header only" if pa is not None and pa == pb else "parameters differ"


def note(a: Path, b: Path, rel: Path):
    """What differs in ``rel`` if it is a checkpoint under both roots, as " (...)", else ""."""
    if rel.suffix == ".ckpt" and (a / rel).is_file() and (b / rel).is_file():
        return f" ({checkpoint_difference(a / rel, b / rel)})"
    return ""


def _python(tree: Path, *args):
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"compare_artifacts: {' '.join(args)} under {tree} exited "
              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)


def _binadapt(tree: Path, *args):
    _python(tree, "-m", "binadapt.cli", *args)


def write_data(tree: Path, seed, data: Path):
    """The synthetic domains and the ragged pages, written by ``tree``'s code."""
    _python(tree, "-c", _WRITE_DATA, str(seed), str(data))


def compare_data(parent: Path, change: Path, seed, work: Path):
    """Write the seed's data with each tree, under ``work/parent`` and
    ``work/change``; return the parent's data directory and the generated
    files whose bytes differ between the two."""
    datas = [work / name / f"data{seed}" for name in ("parent", "change")]
    for tree, data in zip((parent, change), datas):
        write_data(tree, seed, data)
    return datas[0], differing_files(*datas)


def write_configs(seed, data: Path):
    """One config per target and one for the ragged run, at the benchmark's
    ``adapt`` settings, next to ``data``'s domains."""
    runs = {target: dict(source_dir=data / "source", target_dir=data / target) for target in TARGETS}
    runs["ragged_run"] = dict(source_dir=data / "ragged_run" / "source",
                              target_dir=data / "ragged_run" / "target", rho_th=1.0)
    for name, keys in runs.items():
        keys = dict(keys, seed=seed, **ADAPT)
        (data / f"{name}.cfg").write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def run_tree(tree: Path, seed, data: Path, out: Path):
    """Every artifact one tree writes for one seed, under ``out``."""
    for name in (*TARGETS, "ragged_run"):
        _binadapt(tree, "run", "--config", str(data / f"{name}.cfg"), "--out", str(out / name))
    for pages, name in ((data / "target_far" / "images", "predict"), (data / "ragged", "predict_ragged")):
        for page in sorted(pages.glob("*.pgm")):
            _binadapt(tree, "predict", "--checkpoint", str(out / "target_far" / "bindann.ckpt"),
                      "--input", str(page), "--out", str(out / name))
    far = str(data / "target_far.cfg")
    _binadapt(tree, "similarity", "--config", far,
              "--checkpoint", str(out / "target_far" / "sae.ckpt"), "--out", str(out / "similarity"))
    for command, name in (("train-sae", "train_sae"), ("synth", "synth")):
        _binadapt(tree, command, "--config", far, "--seed", str(seed), "--out", str(out / name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree whose artifacts are the reference")
    parser.add_argument("change", type=Path, help="tree to compare with it")
    parser.add_argument("--seeds", default="0-3", help="seeds as A-B or a comma list (default 0-3)")
    args = parser.parse_args(argv)

    differing = []
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as work:
        work = Path(work)
        for seed in parse_seeds(args.seeds):
            data, data_differing = compare_data(args.parent, args.change, seed, work)
            differing += [Path(f"seed{seed}", "data") / rel for rel in data_differing]
            n_data = sum(1 for p in data.rglob("*") if p.is_file())
            write_configs(seed, data)
            outs = [work / name / f"seed{seed}" for name in ("parent", "change")]
            for tree, out in zip((args.parent, args.change), outs):
                run_tree(tree, seed, data, out)
            differing += [f"{Path(f'seed{seed}') / rel}{note(*outs, rel)}" for rel in differing_files(*outs)]
            n_files = sum(1 for p in outs[0].rglob("*") if p.is_file())
            print(f"seed {seed}: {n_data} data files and {n_files} artifacts compared")
    for rel in differing:
        print(f"differs: {rel}")
    print(f"{len(differing)} differing files")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
