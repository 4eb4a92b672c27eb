"""Peak resident memory of one ``binadapt run`` on large synthetic pages.

Usage: python3 tools/memory_probe.py [TREE] --side 2048 --pages 4 --seed 0 --out DIR

TREE is a checkout holding ``src/binadapt`` (default: the one this tool sits
in). The tool writes the synthetic domains for ``--seed``, ``--pages`` pages
of ``--side`` x ``--side`` per domain, under ``DIR/data``, then runs
``binadapt run`` from the source to the far target (1 epoch, batch 8, the
other settings at their defaults, so ``--pages`` must be at least 3 to leave
a validation page) into ``DIR/out``. Each step runs in a
fresh process with BLAS at one thread; this process imports neither numpy
nor binadapt, so the run's ``ru_maxrss``, which Linux carries over from the
process that starts it, starts from an interpreter's size. It prints the
run's ``ru_maxrss``, the number of input pixels (source and far-target
pages) and the bytes per input pixel, the last line as JSON. Four 2048²
pages per domain take about 45 s on a 2-core x86 box.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = {"epochs": 1, "batch": 8}

_WRITE_DATA = """
import sys
from binadapt.data import write_synthetic_dirs
seed, data, pages, side = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
write_synthetic_dirs(seed, data, pages, (side, side))
"""

_RUN = """
import contextlib, resource, sys
from binadapt.cli import main
with contextlib.redirect_stdout(sys.stderr):
    rc = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
sys.exit(rc)
"""


def _python(tree: Path, *args) -> str:
    """Stdout of ``python -c`` with ``tree``'s sources and BLAS at one thread; exits 2 on failure."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"memory_probe: a step under {tree} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def probe(tree: Path, side, pages, seed, out: Path) -> dict:
    """Write the data and run once; returns the peak and the input size."""
    data = out / "data"
    _python(tree, _WRITE_DATA, str(seed), str(data), str(pages), str(side))
    config = out / "run.cfg"
    keys = dict(source_dir=data / "source", target_dir=data / "target_far", seed=seed, **RUN)
    config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    maxrss = int(_python(tree, _RUN, str(config), str(out / "out")).split()[-1])
    pixels = 2 * pages * side * side  # source and far-target pages
    return {"maxrss_bytes": maxrss, "input_pixels": pixels, "bytes_per_pixel": round(maxrss / pixels, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="checkout to measure (default: this one)")
    parser.add_argument("--side", type=int, default=2048, help="page side in pixels (default 2048)")
    parser.add_argument("--pages", type=int, default=4, help="pages per domain (default 4)")
    parser.add_argument("--seed", type=int, default=0, help="data and run seed (default 0)")
    parser.add_argument("--out", type=Path, required=True, help="directory for the data and the run")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = probe(args.tree, args.side, args.pages, args.seed, args.out)
    print(f"ru_maxrss {result['maxrss_bytes'] / 2**20:.1f} MiB over {result['input_pixels']} input pixels: "
          f"{result['bytes_per_pixel']} bytes per input pixel")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
