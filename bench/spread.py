"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads adapt transfer page-predict --seeds 0-9
    python3 bench/spread.py --workloads adapt --seeds 0-4 --trace 1 --label seed

Runs are sequential, one process each, with the settings in BENCHMARK.json.
For every workload and metric it prints the median, the quartiles and the
interquartile range as a share of the median (``statistics.quantiles(n=4)``),
next to the metric's bound. With ``--label`` the summary, the raw values and
the provenance of the first run are written to ``bench/BENCH_<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def _run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    report = json.loads(lines[-2]) if len(lines) > 1 else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  {workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return result, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="write bench/BENCH_<label>.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    summary = {"trace": args.trace, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        failures = 0
        for seed in args.seeds:
            result, report = _run(spec, workload, seed, args.trace)
            summary.setdefault("provenance", report.get("provenance"))
            failures += not result.get("correct")
            for name, metric in result.get("metrics", {}).items():
                values[name].append(metric["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result.get("metrics", {}).items()), flush=True)
        rows = {}
        print(f"{workload}: {len(args.seeds) - failures}/{len(args.seeds)} runs correct")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            rows[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m.get("bound"), "values": vals}
            bound = f" bound {m['bound']:.2f}" if m.get("bound") is not None else ""
            print(f"  {m['name']:40s} median {median:12.5g} {m['unit']:8s} spread {spread:6.3f}{bound}")
        summary["workloads"][workload] = {"failed_runs": failures, "metrics": rows}
    if args.label:
        path = ROOT / "bench" / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
