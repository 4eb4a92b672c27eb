"""Command-line front end: reproducible experiments from key=value configs.

Subcommands: ``train-sae``, ``predict``, ``similarity``, ``run``, ``synth``.
Each writes its artifacts under the output directory with a ``manifest.json``
of the resolved config, its hash, the seed and library versions, and no
timestamps, so identical config + seed give byte-identical outputs. This module
alone formats the CSV and JSON files; ``models`` writes checkpoints, ``data`` PGMs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import NumericError
from .data import (
    DataError,
    PgmError,
    load_dataset,
    load_eval_masks,
    read_pgm,
    write_pgm,
    write_synthetic_dirs,
)
from .metrics import Confusion, confusion, f1, precision, recall
from .models import CheckpointError, load_binarizer, predict_prob_map, save_binarizer
from .similarity import autobindann, gate
from .training import ExperimentConfig, binarize, train_sae

__all__ = ["ConfigError", "parse_config", "main"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value lines ('#' starts a comment); unknown keys and
    out-of-range values are rejected."""
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        caster = {"str": str, "int": int, "float": float}[known[key]]
        try:
            values[key] = caster(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad {known[key]} value {value!r} for {key!r}") from None
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args) -> ExperimentConfig:
    """The config file's settings with ``--seed``/``--out`` applied, all of
    them checked, an output directory among them, before any command reads
    data. No command creates that directory until its results exist, so a
    command that fails leaves none behind."""
    cfg = parse_config(Path(args.config).read_text()) if args.config else ExperimentConfig()
    cfg = replace(cfg, seed=cfg.seed if args.seed is None else args.seed,
                  out_dir=args.out or cfg.out_dir)
    if not cfg.out_dir:
        raise ConfigError("no output directory (set out_dir or pass --out)")
    return cfg


def _write_csv(path: Path, header, rows):
    """A header line, then one line per row: a ``str`` cell as it is, ``None``
    as an empty cell, anything else as its ``repr``."""
    lines = [header] + [",".join(c if isinstance(c, str) else "" if c is None else repr(c) for c in row)
                        for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out: Path, command, cfg, results):
    manifest = {
        "command": command,
        "config": cfg.as_dict(),
        "config_hash": hashlib.sha256(cfg.canonical_text().encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": {"binadapt": __version__, "numpy": np.__version__},
    }
    manifest.update(results)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_gate(out: Path, command, cfg, result, **extra):
    """The gate's artifacts: its report, the two domain histograms, and the
    manifest, which records the gate's decision and rho."""
    report = result.report
    (out / "report.json").write_text(json.dumps(asdict(report), sort_keys=True) + "\n")
    for name, hist in (("source", result.hist_source), ("target", result.hist_target)):
        # float(): the masses are np.float64, whose repr is not the number alone
        _write_csv(out / f"hist_{name}.csv", "bin_low,bin_high,mass",
                   ((i * cfg.h_prec, (i + 1) * cfg.h_prec, float(m)) for i, m in enumerate(hist)))
    _write_manifest(out, command, cfg, {"decision": report.decision, "rho": report.rho, **extra})


def _write_binarizer(out: Path, name, tb):
    """A trained binarizer's checkpoint and its history, one row per epoch."""
    save_binarizer(out / f"{name}.ckpt", tb)
    _write_csv(out / f"history_{name}.csv", "epoch,bin_loss,domain_loss,lambda,val_f1,th_s",
               map(astuple, tb.history))


def _collapsed(**binarizers):
    """Whether any freshly trained binarizer kept a best validation F1 of 0;
    each such model gets a warning on stderr. ``None`` entries are skipped."""
    names = [name for name, tb in binarizers.items()
             if tb is not None and max(h.val_f1 for h in tb.history) == 0.0]
    for name in names:
        print(f"warning: the {name} model collapsed: its best validation F1 is 0",
              file=sys.stderr)
    return bool(names)


def _require(cfg, *keys):
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"missing required config key {key!r}")


def _evaluation_rows(masks, eval_masks):
    """(stem, F1, precision, recall) per page with a label, then "overall" pooled."""
    counts = [(s, confusion(masks[s], eval_masks[s])) for s in sorted(set(masks) & set(eval_masks))]
    if counts:
        counts.append(("overall", sum((c for _, c in counts), Confusion())))
    return [(stem, f1(c), precision(c), recall(c)) for stem, c in counts]


# ---------------------------------------------------------------------------
# commands

def cmd_train_sae(args) -> int:
    cfg = _load_config(args)
    _require(cfg, "source_dir")
    source = load_dataset(cfg.source_dir, "source", cfg.validation_fraction, cfg.seed)
    out = Path(cfg.out_dir)
    tb = train_sae(source, cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_binarizer(out, "sae", tb)
    best_f1 = max(h.val_f1 for h in tb.history)
    _write_manifest(out, "train-sae", cfg,
                    {"val_f1": best_f1, "th_s": tb.th_s, "collapsed": _collapsed(sae=tb)})
    print(f"trained {cfg.epochs} epochs; best validation F1 {best_f1:.4f}; "
          f"checkpoint {out / 'sae.ckpt'}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    tb = load_binarizer(args.checkpoint)
    page = read_pgm(Path(args.input).read_bytes()).levels
    out = Path(cfg.out_dir)
    prob = predict_prob_map(tb.model, page)
    stem = Path(args.input).stem
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.prob.pgm").write_bytes(write_pgm(prob))
    (out / f"{stem}.mask.pgm").write_bytes(write_pgm(binarize(prob, tb.th_s)))
    _write_manifest(out, "predict", cfg, {"input": str(args.input), "th_s": tb.th_s})
    print(f"wrote {out / f'{stem}.prob.pgm'} and {out / f'{stem}.mask.pgm'}")
    return 0


def cmd_similarity(args) -> int:
    cfg = _load_config(args)
    _require(cfg, "source_dir", "target_dir")
    tb = load_binarizer(args.checkpoint)
    source = load_dataset(cfg.source_dir, "source", cfg.validation_fraction, cfg.seed)
    target = load_dataset(cfg.target_dir, "target", cfg.validation_fraction, cfg.seed)
    result = gate(tb, source, target, cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_gate(out, "similarity", cfg, result)
    print(f"rho={result.report.rho:.4f} decision={result.report.decision}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    _require(cfg, "source_dir", "target_dir")
    source = load_dataset(cfg.source_dir, "source", cfg.validation_fraction, cfg.seed)
    target = load_dataset(cfg.target_dir, "target", cfg.validation_fraction, cfg.seed)
    # post-hoc evaluation only: target labels, when present on disk, never
    # feed back into training or the gate; they are read up front so a bad
    # one fails the run before it trains
    eval_masks = load_eval_masks(cfg.target_dir, target.records)
    out = Path(cfg.out_dir)

    result = autobindann(source, target, cfg)

    mask_dir = out / "binarized"
    mask_dir.mkdir(parents=True, exist_ok=True)
    for stem, mask in result.masks.items():
        (mask_dir / f"{stem}.pgm").write_bytes(write_pgm(mask))

    _write_binarizer(out, "sae", result.sae)
    if result.da is not None:
        _write_binarizer(out, "bindann", result.da)

    rows = _evaluation_rows(result.masks, eval_masks)
    if rows:
        _write_csv(out / "summary.csv", "page,f1,precision,recall", rows)

    _write_gate(out, "run", cfg, result, collapsed=_collapsed(sae=result.sae, bindann=result.da))
    print(f"rho={result.report.rho:.4f} decision={result.report.decision}; "
          f"binarized {len(result.masks)} pages into {mask_dir}")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    dirs = write_synthetic_dirs(cfg.seed, out)
    _write_manifest(out, "synth", cfg, {"datasets": [d.name for d in dirs]})
    print("wrote " + ", ".join(str(d) for d in dirs))
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(prog="binadapt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (overrides out_dir)")

    p = sub.add_parser("train-sae", help="fit the plain binarizer on the source domain")
    common(p)
    p.set_defaults(func=cmd_train_sae)

    p = sub.add_parser("predict", help="binarize one page with a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="page PGM to binarize")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("similarity", help="histogram similarity report for two domains")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("run", help="full gated pipeline on source + target directories")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="write the three synthetic fixture datasets")
    common(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PgmError, CheckpointError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"error: memory: {exc}", file=sys.stderr)
        return 6
    except ValueError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
