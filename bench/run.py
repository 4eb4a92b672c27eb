"""The binadapt benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload adapt --seed 0 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``adapt``        ``binadapt run`` from the synthetic source to the far target;
                   the gate fires, so SAE training, the gate, Bin-DANN training
                   and binarization all run.
* ``transfer``     the same run to the near target; the gate keeps the SAE and
                   Bin-DANN never runs.
* ``page-predict`` ``binadapt predict`` on large pages with a checkpoint trained
                   during set-up; inference only.

Each run builds its inputs from ``--seed`` (set-up, repeated and timed), runs
one discarded warm-up repetition, then repeats the workload on the same inputs
until ``--seconds`` have passed (at least ``MIN_REPS`` times). Every
repetition is checked: exit code, gate decision, and a digest of its ``--out``
directory that must equal the warm-up's byte for byte. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` untraced
and traced repetitions alternate and it carries the per-layer metrics and the
tracing overhead. The line before it is a report with provenance and samples.

Inputs and outputs go under ``.bench_work/`` at the checkout root; the
binadapt package is imported from the checkout's ``src/``. The process pins
BLAS to one thread before numpy loads.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("adapt", "transfer", "page-predict")
MIN_REPS = 3
SETUPS = 5

# Training budget of the two pipeline workloads: on the synthetic data the
# far gate lands on UseDA (rho <= -0.003 for seeds 0..100, threshold 0.25) and
# the near gate on UseSAE (rho >= 0.99), so each run exercises the path its
# workload names. At 8 epochs the far rho reached 0.17, at 6 epochs 0.82.
PIPELINE = {"epochs": 10, "batch": 8, "lr": 0.01, "validation_fraction": 0.2}
SMALL_PAGES, SMALL_SIDE = 4, 128
PATCH = 32
# page-predict: large pages through `binadapt predict`, checkpoint trained in set-up
LARGE_PAGES, LARGE_SIDE = 2, 1024
CHECKPOINT_EPOCHS = 4
EXPECTED_DECISION = {"adapt": "UseDA", "transfer": "UseSAE"}

def _import_package():
    """Import binadapt from this checkout's src/, never an installed copy."""
    if not (SRC / "binadapt" / "__init__.py").is_file():
        sys.exit(f"bench: no binadapt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import binadapt
    import binadapt.cli

    if Path(binadapt.__file__).resolve().parent != (SRC / "binadapt").resolve():
        sys.exit(f"bench: imported binadapt from {binadapt.__file__}, not {SRC}")
    return binadapt


def _provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:  # not an enclosing repository's HEAD
        commit = git[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "binadapt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_config(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


class Workload:
    """Inputs built by ``setup``; ``rep`` runs the timed calls into one out dir."""

    def __init__(self, ba, name, seed, work):
        self.ba, self.name, self.seed, self.work = ba, name, seed, work
        self.data = work / "data"

    def _write_datasets(self):
        shutil.rmtree(self.data, ignore_errors=True)
        self.ba.data.write_synthetic_dirs(self.seed, self.data, SMALL_PAGES, (SMALL_SIDE, SMALL_SIDE))


class Pipeline(Workload):
    """``binadapt run`` from the synthetic source to the far or near target."""

    binarized_pixels = SMALL_PAGES * SMALL_SIDE * SMALL_SIDE

    def setup(self):
        self._write_datasets()
        self.config = self.work / "run.cfg"
        target = "target_far" if self.name == "adapt" else "target_near"
        _write_config(self.config, source_dir=self.data / "source",
                      target_dir=self.data / target, seed=self.seed, **PIPELINE)

    def setup_digest(self):
        return _tree_digest(self.data)

    def rep(self, out):
        """The timed part: the `binadapt` calls a user makes. Returns exit codes."""
        with contextlib.redirect_stdout(sys.stderr):
            return [self.ba.cli.main(["run", "--config", str(self.config), "--out", str(out)])]

    def train_patches(self, decision):
        """Patches through a training forward and backward pass, from the config."""
        n_val = round(SMALL_PAGES * PIPELINE["validation_fraction"])
        pool = (SMALL_PAGES - n_val) * (SMALL_SIDE // PATCH) ** 2
        steps = -(-pool // PIPELINE["batch"]) * PIPELINE["epochs"]
        passes = 1 + (2 if decision == "UseDA" else 0)  # Bin-DANN: source and target pass
        return steps * passes * PIPELINE["batch"]

    def check(self, out):
        """Correctness of one repetition's artifacts; returns (F1 vs truth, decision)."""
        decision = json.loads((out / "manifest.json").read_text())["decision"]
        if decision != EXPECTED_DECISION[self.name]:
            raise AssertionError(f"gate decided {decision}, expected {EXPECTED_DECISION[self.name]}")
        overall = (out / "summary.csv").read_text().splitlines()[-1].split(",")
        if overall[0] != "overall":
            raise AssertionError("summary.csv has no overall row")
        return float(overall[1]), decision


class PagePredict(Workload):
    """``binadapt predict`` on large pages with a checkpoint trained in set-up."""

    binarized_pixels = LARGE_PAGES * LARGE_SIDE * LARGE_SIDE

    def setup(self):
        self._write_datasets()
        ckpt_dir = self.work / "checkpoint"
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        config = self.work / "train.cfg"
        _write_config(config, source_dir=self.data / "source", seed=self.seed,
                      **dict(PIPELINE, epochs=CHECKPOINT_EPOCHS))
        with contextlib.redirect_stdout(sys.stderr):
            rc = self.ba.cli.main(["train-sae", "--config", str(config), "--out", str(ckpt_dir)])
        if rc != 0:
            raise RuntimeError(f"checkpoint training exited {rc}")
        self.checkpoint = ckpt_dir / "sae.ckpt"
        pages = self.work / "pages"
        shutil.rmtree(pages, ignore_errors=True)
        (pages / "gt").mkdir(parents=True)
        self.pages = []
        for stem, page, mask in self.ba.data.synthetic_domain_pairs(
                self.seed, "source", LARGE_PAGES, (LARGE_SIDE, LARGE_SIDE)):
            path = pages / f"{stem}.pgm"
            path.write_bytes(self.ba.write_pgm(page))
            (pages / "gt" / f"{stem}.pgm").write_bytes(self.ba.write_pgm(mask.astype(float)))
            self.pages.append(path)

    def setup_digest(self):
        return _tree_digest(self.work / "pages") + hashlib.sha256(self.checkpoint.read_bytes()).hexdigest()

    def rep(self, out):
        """The timed part: the `binadapt` calls a user makes. Returns exit codes."""
        with contextlib.redirect_stdout(sys.stderr):
            return [self.ba.cli.main(["predict", "--checkpoint", str(self.checkpoint),
                                      "--input", str(page), "--out", str(out)])
                    for page in self.pages]

    def train_patches(self, decision):
        return 0

    def check(self, out):
        """Correctness of one repetition's artifacts; returns (F1 vs truth, None)."""
        ba = self.ba
        total = ba.Confusion()
        for page in self.pages:
            mask = ba.read_pgm((out / f"{page.stem}.mask.pgm").read_bytes()).pixels
            prob = ba.read_pgm((out / f"{page.stem}.prob.pgm").read_bytes()).pixels
            gt = ba.read_pgm((page.parent / "gt" / page.name).read_bytes()).pixels
            if not (mask.shape == prob.shape == gt.shape == (LARGE_SIDE, LARGE_SIDE)):
                raise AssertionError(f"{page.stem}: output shape {mask.shape}")
            if not set(np.unique(mask)) <= {0.0, 1.0}:
                raise AssertionError(f"{page.stem}: mask is not binary")
            total = total + ba.confusion(mask >= 0.5, gt >= 0.5)
        return ba.f1(total), None


class Runner:
    """Runs repetitions of one workload, checks each and counts failures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None
        self.f1 = None
        self.decision = None
        self.out_root = workload.work / "out"
        shutil.rmtree(self.out_root, ignore_errors=True)

    def run(self, label, traced=False):
        """One repetition: returns its wall time, or None if it failed."""
        out = self.out_root / label
        self.attempted += 1
        if traced:
            self.tracer.install(self.workload.ba)
        try:
            start = time.perf_counter()
            codes = self.workload.rep(out)
            elapsed = time.perf_counter() - start
        except (Exception, SystemExit) as exc:
            return self._fail(label, f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        if any(codes):
            return self._fail(label, f"exit codes {codes}")
        try:
            f1, decision = self.workload.check(out)
        except (Exception, SystemExit) as exc:
            return self._fail(label, f"check failed: {exc}")
        digest = _tree_digest(out)
        if self.reference is None:
            self.reference, self.f1, self.decision = digest, f1, decision
        elif digest != self.reference:
            return self._fail(label, "artifacts differ from the first repetition")
        if label != "warmup":
            shutil.rmtree(out)
        return elapsed

    def fail_check(self, label, message):
        """A failed check outside any repetition counts as one more attempt."""
        self.attempted += 1
        self._fail(label, message)

    def _fail(self, label, message):
        self.failed += 1
        self.errors.append(f"{label}: {message}")
        print(f"bench: {self.workload.name} {label}: {message}", file=sys.stderr)
        return None


def _median_max(samples):
    return {"median": statistics.median(samples), "max": max(samples), "n": len(samples)}


def _untraced(runner, seconds):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
        elapsed = runner.run(f"rep{runner.attempted}")
        if elapsed is None:
            break
        times.append(elapsed)
    return times


def _traced(runner, seconds):
    """Alternate untraced and traced repetitions; returns both time lists."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        t_plain = runner.run(f"rep{runner.attempted}")
        runner.tracer.start_run(len(traced))
        t_traced = runner.run(f"rep{runner.attempted}", traced=True)
        if t_plain is None or t_traced is None:
            break
        plain.append(t_plain)
        traced.append(t_traced)
    return plain, traced


def _per_layer(runner, plain, traced):
    """Per-layer metrics, per repetition, from the traced repetitions."""
    workload, tracer = runner.workload, runner.tracer
    runs = range(len(traced))
    n = len(traced)
    spans = tracer.self_times(set(runs))

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / n

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / n

    def counted(key):
        return sum(tracer.counts.get(r, {}).get(key, 0) for r in runs) / n

    def per_epoch(name):
        epochs = counted(f"{name}.epochs")
        return spans[name][1] / n / epochs if epochs else 0.0

    kernel_s = self_s("autodiff.forward_train") + self_s("autodiff.forward_infer") + self_s("autodiff.backward")
    gmac = counted("conv_macs") / 1e9
    predicts = calls("models.predict_prob_map")
    wall = statistics.median(plain)
    rho, margin = tracer.gate.get(0, (0.0, 0.0))
    return {
        "autodiff.forward_train.calls": (calls("autodiff.forward_train"), "count"),
        "autodiff.forward_train.s": (self_s("autodiff.forward_train"), "s"),
        "autodiff.backward.calls": (calls("autodiff.backward"), "count"),
        "autodiff.backward.s": (self_s("autodiff.backward"), "s"),
        "autodiff.forward_infer.calls": (calls("autodiff.forward_infer"), "count"),
        "autodiff.forward_infer.s": (self_s("autodiff.forward_infer"), "s"),
        "autodiff.optimizer_step.s": (self_s("autodiff.optimizer_step"), "s"),
        "layers.conv_gmac": (gmac, "GMAC"),
        "layers.conv_gmac_per_s": (gmac / kernel_s if kernel_s else 0.0, "GMAC/s"),
        "models.predict_prob_map.calls": (predicts, "count"),
        "models.predict_prob_map.s": (self_s("models.predict_prob_map"), "s"),
        "models.predict_prob_map.peak_mb": (tracer.predict_peak_bytes / 2**20, "MB"),
        "models.predict_prob_map.repeat_frac": (
            counted("predict_repeats") / predicts if predicts else 0.0, "frac"),
        "data.split_patches.s": (self_s("data.split_patches"), "s"),
        "data.assemble.s": (self_s("data.assemble"), "s"),
        "data.read_pgm.s": (self_s("data.read_pgm"), "s"),
        "data.write_pgm.s": (self_s("data.write_pgm"), "s"),
        "data.load_dataset.s": (self_s("data.load_dataset"), "s"),
        "training.sae_epoch_s": (per_epoch("training.train_sae"), "s"),
        "training.bindann_epoch_s": (per_epoch("training.train_bindann"), "s"),
        "training.train_patches_per_s": (workload.train_patches(runner.decision) / wall, "1/s"),
        "training.sweep_threshold.calls": (calls("training.sweep_threshold"), "count"),
        "training.sweep_threshold.s": (self_s("training.sweep_threshold"), "s"),
        "training.useful_epoch_frac": (
            counted("useful_epochs") / counted("epochs") if counted("epochs") else 0.0, "frac"),
        "metrics.confusion.calls": (calls("metrics.confusion"), "count"),
        "metrics.confusion.s": (self_s("metrics.confusion"), "s"),
        "metrics.target_f1": (runner.f1, "frac"),
        "similarity.domain_histogram.s": (self_s("similarity.domain_histogram"), "s"),
        "similarity.rho": (rho, "1"),
        "similarity.rho_margin": (margin, "1"),
        "cli.io.s": (self_s("cli.main"), "s"),
        "trace.overhead_frac": (statistics.median(traced) / wall - 1.0, "frac"),
    }


def _check_forward_counts(runner, n_traced):
    """Training forward calls seen by the tracer must match the config."""
    expected = runner.workload.train_patches(runner.decision) // PIPELINE["batch"]
    seen = sum(1 for s in runner.tracer.spans
               if s[0] == "autodiff.forward_train" and s[4] >= 0) / n_traced
    if seen != expected:
        raise AssertionError(f"traced {seen} training forwards per repetition, expected {expected}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ba = _import_package()
    from spans import Tracer

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kind = PagePredict if args.workload == "page-predict" else Pipeline
    workload = kind(ba, args.workload, args.seed, work)

    setup_times, setup_digests = [], set()
    for _ in range(SETUPS if args.trace == 0 else 1):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        setup_digests.add(workload.setup_digest())

    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    if len(setup_digests) != 1:
        runner.fail_check("setup", "repeated set-ups produced different inputs")
    if tracer:
        tracer.start_run(-1)
        tracer.measure_peak = True
    runner.run("warmup", traced=bool(tracer))
    if tracer:
        tracer.measure_peak = False

    metrics = {}
    report = {"workload": args.workload, "seed": args.seed, "provenance": _provenance(),
              "setup_s": _median_max(setup_times)}
    if args.trace == 0:
        times = _untraced(runner, args.seconds)
        if times:
            wall = statistics.median(times)
            report["wall_s"] = _median_max(times)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (wall, "s"),
                "mpix_per_s": (workload.binarized_pixels / 1e6 / wall, "Mpix/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    else:
        plain, traced = _traced(runner, args.seconds)
        if traced:
            report["wall_s"] = _median_max(plain)
            report["traced_wall_s"] = _median_max(traced)
            try:
                _check_forward_counts(runner, len(traced))
            except AssertionError as exc:
                runner.fail_check("trace", str(exc))
            metrics = _per_layer(runner, plain, traced)
            tracer.write(work / "spans.jsonl")

    correct = runner.failed == 0 and runner.reference is not None
    report.update(decision=runner.decision, target_f1=runner.f1, artifact_sha256=runner.reference,
                  failed_frac=runner.failed / runner.attempted, errors=runner.errors)
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
