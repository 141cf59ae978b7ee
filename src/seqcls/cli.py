"""Command-line entry points.

Subcommands: ``synthgen`` (write a synthetic planted-signal dataset),
``train`` (fit a model, write checkpoint/metrics/scores), ``eval`` (score
a dataset with a checkpoint), ``fuse`` (combine score tables), and
``gradcheck`` (finite-difference verification of the gradient engine; its
case-runs go to one worker per usable CPU and print the same lines as an
in-process run, which ``taskset -c 0 seqcls gradcheck ...`` gives).

Exit codes: 0 success, 2 configuration, usage or data problem (an empty
batch, data that lacks a modality the model needs or holds a sequence of
the wrong shape, or sizes too large for memory, included), 3 I/O or file
format problem, 4 numeric failure (gradient verification failed or a
gradcheck worker died, or training met a non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from .data import (SynthConfig, atomic_write, read_labels, read_mmf, read_text_lines,
                   synth_generate, write_labels, write_mmf)
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError, UsageError
from .fusion import late_fuse, read_scores, top_k_accuracy, write_scores
from .gradcheck import case_names, run_cases
from .training import TrainConfig, evaluate, load_model, save_model, train_from_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_GRADCHECK = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqcls",
                                     description="sequence classification over frame features")
    sub = parser.add_subparsers(dest="command", required=True)

    sd = SynthConfig()
    p = sub.add_parser("synthgen", help="write a synthetic planted-signal dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=sd.num_classes)
    p.add_argument("--videos-per-class", type=int, default=sd.videos_per_class)
    p.add_argument("--frames", type=int, default=sd.frames)
    p.add_argument("--signal-frames", type=int, default=sd.signal_frames)
    p.add_argument("--signal-std", type=float, default=sd.signal_std)
    p.add_argument("--noise-std", type=float, default=sd.noise_std)
    p.add_argument("--seed", type=int, default=sd.seed)
    p.add_argument("--modalities",
                   default=",".join(f"{m}:{d}" for m, d in sd.modalities.items()),
                   help="comma list of name:dim pairs")

    p = sub.add_parser("train", help="train a model and write its artifacts")
    p.add_argument("--train", required=True, dest="train_path", help="training .mmf file")
    p.add_argument("--val", required=True, dest="val_path", help="validation .mmf file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=str, default=None,
                       help=f"{f.name} (default {f.default})")

    p = sub.add_parser("eval", help="score a dataset with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help=".mmf file to score")
    p.add_argument("--out", help="optional scores file to write")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and checked (>= 1); evaluation runs on one thread")

    p = sub.add_parser("fuse", help="combine score tables with convex weights")
    p.add_argument("--scores", required=True, nargs="+", help="input score files")
    p.add_argument("--weights", help="comma list; omitted means uniform")
    p.add_argument("--out", required=True, help="fused scores file")
    p.add_argument("--labels", help="optional labels file for accuracy reporting")

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--op", default="all", help="case name or 'all'")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of seeds")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-4)
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_modalities(text: str) -> dict[str, int]:
    modalities: dict[str, int] = {}
    for part in text.split(","):
        name, sep, dim = part.strip().partition(":")
        if not sep or not name:
            raise ConfigError(f"bad modality argument {part!r}, expected name:dim")
        if name in modalities:
            raise ConfigError(f"modality {name!r} given twice")
        try:
            modalities[name] = int(dim)
        except ValueError as exc:
            raise ConfigError(f"bad modality dim in {part!r}") from exc
    return modalities


def _cmd_synthgen(args) -> int:
    config = SynthConfig(num_classes=args.classes,
                         videos_per_class=args.videos_per_class,
                         modalities=_parse_modalities(args.modalities),
                         frames=args.frames,
                         signal_frames=args.signal_frames,
                         signal_std=args.signal_std,
                         noise_std=args.noise_std,
                         seed=args.seed)
    train, val = synth_generate(config)
    os.makedirs(args.out, exist_ok=True)
    write_mmf(os.path.join(args.out, "train.mmf"), train)
    write_mmf(os.path.join(args.out, "val.mmf"), val)
    write_labels(os.path.join(args.out, "train_labels.csv"), train)
    write_labels(os.path.join(args.out, "val_labels.csv"), val)
    print(f"wrote {len(train)} train and {len(val)} val videos to {args.out}")
    return EXIT_OK


def parse_config_file(path) -> dict[str, str]:
    """Flat 'key = value' utf-8 file; '#' starts a comment; unknown or repeated keys rejected."""
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        lines = read_text_lines(path, "config file")
    except FormatError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} already set at line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


def make_train_config(file_values: dict[str, str], flag_values: dict[str, str]) -> TrainConfig:
    """Defaults, overridden by the config file, overridden by flags; each value is
    read as its field's default's type, the one type ``TrainConfig`` accepts."""
    merged: dict[str, object] = {}
    for name, raw in [*file_values.items(), *flag_values.items()]:
        kind = type(getattr(TrainConfig, name))
        try:
            merged[name] = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"config value {name}={raw!r} is not a valid "
                              f"{kind.__name__}") from exc
    return TrainConfig(**merged)


def _check_out(path: str, directory: bool) -> None:
    """Raise the OSError that making the output directory, or writing the output file, ends in."""
    parent = path if directory else os.path.dirname(path) or "."
    while directory and not os.path.lexists(parent):  # makedirs makes every missing level
        parent = os.path.dirname(parent) or "."
    code = (errno.ENOENT if not path
            else errno.EISDIR if not directory and os.path.isdir(path)
            else 0 if os.path.isdir(parent)
            else errno.EEXIST if parent == path
            else errno.ENOTDIR if os.path.lexists(parent) else errno.ENOENT)
    if code:
        raise OSError(code, os.strerror(code), path)


def _cmd_train(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
                   if getattr(args, f.name) is not None}
    cfg = make_train_config(file_values, flag_values)
    _check_out(args.out, directory=True)
    progress = None if args.quiet else lambda line: print(line, flush=True)
    result = train_from_files(cfg, args.train_path, args.val_path, progress=progress)

    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "checkpoint.ckpt"), cfg.model, result.params,
               result.kwargs, meta_extra={"best_epoch": result.report.best_epoch,
                                          "seed": cfg.seed})
    with atomic_write(os.path.join(args.out, "metrics.txt")) as fh:
        fh.write(result.report.to_text())
    write_scores(os.path.join(args.out, "scores.csv"), result.best_table)
    r = result.report
    print(f"best epoch {r.best_epoch}: val_top1={r.best_top1:.9g} "
          f"val_top5={r.best_top5:.9g} ({r.wall_seconds:.1f}s)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.out:
        _check_out(args.out, directory=False)
    model, params, _ = load_model(args.checkpoint)
    samples = read_mmf(args.data)
    table = evaluate(model, params, samples, threads=args.threads)
    labels = {s.video_id: s.label for s in samples}
    top_k = min(5, params.num_classes)
    top1 = top_k_accuracy(table, labels, 1)
    topk = top_k_accuracy(table, labels, top_k)
    if args.out:
        write_scores(args.out, table)
    print(f"top1={top1:.9g} top{top_k}={topk:.9g} videos={len(samples)}")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    tables = [read_scores(path) for path in args.scores]
    if args.weights is not None:
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad weights {args.weights!r}") from exc
    else:
        weights = [1.0 / len(tables)] * len(tables)
    fused = late_fuse(tables, weights)
    write_scores(args.out, fused)
    print(f"fused {len(tables)} tables over {len(fused.ids)} videos into {args.out}")
    if args.labels:
        labels = read_labels(args.labels)
        top_k = min(5, fused.num_classes)
        print(f"top1={top_k_accuracy(fused, labels, 1):.9g} "
              f"top{top_k}={top_k_accuracy(fused, labels, top_k):.9g}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    names = case_names() if args.op == "all" else [args.op]
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad seeds {args.seeds!r}") from exc
    results = run_cases(names, seeds, step=args.step, tol=args.tol)
    failures = 0
    for r in results:
        print(r.line())
        failures += 0 if r.report.passed else 1
    print(f"{len(results) - failures}/{len(results)} case-runs passed")
    return EXIT_OK if failures == 0 else EXIT_GRADCHECK


_COMMANDS = {
    "synthgen": _cmd_synthgen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "fuse": _cmd_fuse,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError, DataError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRADCHECK
    except MemoryError as exc:  # sizes multiply, so no per-size bound rules this out
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
