"""Wall time and minor page faults of repeated ``binadapt run`` calls in one process.

Usage: python3 tools/faults.py [TREE] [--runs 6] [--seed 0] [--epochs 10]

TREE is a checkout holding ``src/binadapt`` (default: the one this tool sits
in). The tool writes the synthetic domains for ``--seed`` (4 pages of 128x128
per domain) once, then calls ``binadapt.cli.main(["run", ...])`` ``--runs``
times in this one process, from the source to the far target at the
benchmark's ``adapt`` settings (batch 8, lr 0.01, validation fraction 0.2;
``--epochs`` defaults to 10), with BLAS at one thread. For every run it prints
the wall time and the minor page faults (``ru_minflt``) the process took
during it; the first run also pays for imports and first-touch memory, so the
summary line gives the median and the largest count of the runs after it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

PAGES, SIDE = 4, 128
ADAPT = {"batch": 8, "lr": 0.01, "validation_fraction": 0.2}


def measure(cli, config: Path, out: Path):
    """(wall seconds, minor faults) of one ``binadapt run``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(["run", "--config", str(config), "--out", str(out)])
    wall = time.perf_counter() - start
    if rc != 0:
        sys.exit(f"faults: binadapt run exited {rc}")
    return wall, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/binadapt runs (default: this one)")
    parser.add_argument("--runs", type=int, default=6, help="runs in the one process (default 6)")
    parser.add_argument("--seed", type=int, default=0, help="data and training seed (default 0)")
    parser.add_argument("--epochs", type=int, default=10, help="epochs per training (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.epochs < 1:
        parser.error("--runs and --epochs must be >= 1")

    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import binadapt.cli
    from binadapt.data import write_synthetic_dirs

    rows = []
    with tempfile.TemporaryDirectory(prefix="faults_") as work:
        work = Path(work)
        write_synthetic_dirs(args.seed, work / "data", PAGES, (SIDE, SIDE))
        config = work / "run.cfg"
        keys = dict(source_dir=work / "data" / "source", target_dir=work / "data" / "target_far",
                    seed=args.seed, epochs=args.epochs, **ADAPT)
        config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        for i in range(args.runs):
            wall, faults = measure(binadapt.cli, config, work / f"out{i}")
            rows.append((wall, faults))
            print(f"run {i}: wall_s {wall:.3f} minflt {faults}", flush=True)
    later = rows[1:] or rows
    print(f"after the first run: median wall_s {statistics.median(w for w, _ in later):.3f} "
          f"median minflt {statistics.median(f for _, f in later):.0f} "
          f"max minflt {max(f for _, f in later)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
