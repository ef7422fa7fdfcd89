"""Command-line driver: synth, train, infer, eval, gradcheck.

Exit codes: 0 success, 2 bad command line (argparse), 3 config/parse errors,
4 numeric failures (including failed gradient checks), 5 I/O errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import EdgekitError, InputError, NumericError
from .evalbench import DEFAULT_TOLERANCE, evaluate_predictions, write_pr_csv
from .model import DEFAULT_SCALES, EdgeDetector, ModelConfig
from .rasters import load_edge_map, load_image, save_edge_map
from .runconfig import RunConfig, default_config_text
from .synth import ANNOTATORS, JITTER, load_annotators, load_dataset, write_dataset
from .train import check_training_set, train_two_phase, write_loss_csv

EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _cmd_synth(args) -> int:
    write_dataset(args.out, args.n, args.seed, args.size,
                  annotators=args.annotators, jitter=args.jitter)
    print(f"wrote {args.n} scenes of size {args.size} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    run = RunConfig.load(args.config)
    mcfg = run.model_config()
    tcfg = run.train_config()
    scenes = load_dataset(run["data_dir"], eta=tcfg.eta,
                          use_ignore_band=tcfg.use_ignore_band)
    check_training_set(scenes, tcfg, mcfg.input_hw)  # before the model is built
    model = EdgeDetector(mcfg, seed=tcfg.seed)
    out_dir = Path(run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    result = train_two_phase(model, scenes, tcfg)
    write_loss_csv(result, out_dir / "loss.csv")
    save_checkpoint(out_dir / "model.ckpt", model.state_arrays(),
                    mcfg.canonical_text())
    last = result.history[-1][2] if result.history else float("nan")
    print(f"trained {len(result.history)} iterations in "
          f"{time.time() - t0:.1f}s; final loss {last:.4f}")
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return 0


def _load_model(ckpt_path) -> EdgeDetector:
    arrays, config_text = load_checkpoint(ckpt_path)
    model = EdgeDetector(ModelConfig.from_canonical_text(config_text))
    model.load_state_arrays(arrays)
    return model


def _cmd_infer(args) -> int:
    model = _load_model(args.ckpt)
    image = load_image(args.input)
    if args.ms:
        edge = model.infer_multiscale(image, args.scales or DEFAULT_SCALES)
    else:
        edge = model.infer(image)
    save_edge_map(edge[0], args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    preds, stacks = [], []
    paths = sorted(p for p in pred_dir.iterdir()
                   if p.suffix in (".pgm", ".epfm"))
    if not paths:
        raise InputError(f"no predictions under {pred_dir}")
    stems = [p.stem for p in paths]
    for stem in stems:
        if stems.count(stem) > 1:
            raise InputError(f"two predictions for image {stem} under {pred_dir}")
    for p in paths:
        preds.append(load_edge_map(p))
        stacks.append(load_annotators(Path(args.gt) / p.stem))
    report = evaluate_predictions(preds, stacks, tol=args.tol,
                                  apply_nms=not args.no_nms)
    if args.csv:
        write_pr_csv(report, args.csv)
    print(report.summary())
    return 0


def _cmd_gradcheck(args) -> int:
    from .suite import run_gradient_suite

    ok = run_gradient_suite(seed=args.seed, full_model=not args.quick,
                            verbose=True)
    if not ok:
        raise NumericError("gradient suite failed")
    return 0


def _cmd_config(args) -> int:
    sys.stdout.write(default_config_text())
    return 0


def _scale_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers; their range is checked by infer_multiscale."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse reports "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _probability(text: str) -> float:
    """An argparse type: a number in [0, 1]; NaN and infinities are not."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="edgekit",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--size", type=_int_at_least(3), default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--annotators", type=_int_at_least(1), default=ANNOTATORS)
    p.add_argument("--jitter", type=_probability, default=JITTER)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="two-phase training from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="predict an edge map for one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ms", action="store_true", help="multi-scale averaging")
    p.add_argument("--scales", type=_scale_list, default=None,
                   help="comma list for --ms, e.g. 0.5,1.0,1.5")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--csv", default=None, help="write the PR table here")
    p.add_argument("--no-nms", action="store_true",
                   help="skip thinning (predictions already thin)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--quick", action="store_true",
                   help="layer checks only, skip the full-model sweep")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("config", help="print a commented default config")
    p.set_defaults(fn=_cmd_config)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "scales", None) is not None and not args.ms:
        ap.error("infer: --scales requires --ms")
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EdgekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
