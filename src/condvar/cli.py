"""Command-line front end: generate, train, evaluate, shift-eval, plot.

Each subcommand reads every input, computes every result and returns its
files as texts or JSON payloads. ``_publish`` serializes every payload, and a
``manifest.json`` of every parsed flag overlaid by the values the subcommand
resolved itself, as standard JSON; only then does it create ``--out`` and
write. A failing subcommand writes nothing. Every subcommand is
deterministic under a fixed seed.

``main`` pauses the cyclic garbage collector for each whole subcommand,
parse and writes included, and re-enables it on exit only if it was on.
A subcommand builds arrays and JSON trees (the sidecars' 2n row lists the
largest); a JSON tree holds no reference cycle, so reference counting
frees it, and a collection could only scan it.

Exit codes: 0 success, 2 configuration error, 3 data error (any file that
cannot be read or written included), 4 numerical failure (non-finite results too).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import models as md
from . import robustness as rb
from . import scm
from .data import (DataFormatError, _csv_text, _json_text, _natural, _write_text, build_group_index,
                   load_csv)
from .penalties import (
    DegenerateVarianceError,
    PenaltyConfig,
    conditional_penalty,
    variance_ratio,
)
from .plotting import decision_boundary_svg
from .training import (
    DivergenceError,
    OptimizerConfig,
    TrainConfig,
    _OPTIMIZERS,
    train,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _publish(args, resolved: dict, files: dict) -> None:
    """Serialize the JSON payloads of ``{name: text or payload}`` and the
    manifest (every flag, overlaid by ``resolved``); a NaN or an infinity is
    a numerical failure naming its file. Only then create ``--out`` and write."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
    files = {**files, "manifest.json": {
        "tool": "condvar",
        "version": __version__,
        "command": args.command,
        "config": {**flags, **resolved},
        "outputs": sorted(files),
    }}
    for name, content in files.items():
        if not isinstance(content, str):
            files[name] = _serialized(name, _json_text, content)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write_text(out / name, text)


def _serialized(name: str, build, content) -> str:
    """``build(content)``; the ValueError of a NaN or an infinity becomes a
    numerical failure naming the file ``name``."""
    try:
        return build(content)
    except ValueError as exc:
        raise ArithmeticError(f"{name}: non-finite result ({exc})") from None


def _parse_model(text: str) -> md.ModelSpec:
    if text == "linear":
        raise ValueError("linear models need the feature dimension: use linear:p[,out]")
    kind, _, rest = text.partition(":")
    if kind not in ("linear", "mlp") or not rest:
        raise ValueError(f"bad model spec {text!r}; expected linear:p or mlp:p,h...,out")
    try:
        sizes = tuple(int(v) for v in rest.split(","))
    except ValueError:
        raise ValueError(f"bad layer sizes in {text!r}") from None
    if kind == "linear" and len(sizes) == 1:
        sizes = (sizes[0], 1)
    return md.ModelSpec(kind, sizes)


def _parse_penalty(text: str, lam: float, gamma: float) -> PenaltyConfig:
    try:
        kind, _, nu_text = text.partition(",")
        target = {"f": "prediction", "l": "loss"}[kind]
        nu = float(nu_text) if nu_text else 1.0
        return PenaltyConfig(target, nu, lam, gamma)
    except (KeyError, ValueError):
        raise ValueError(
            f"bad penalty spec {text!r}; expected f,1 | f,0.5 | l,1 | l,0.5"
        ) from None


def _check_fit(spec, dataset, data_path, what: str) -> None:
    """Data error naming ``data_path`` unless its ``dataset`` fits the model
    ``spec`` of a ``what``: the feature width and the labels."""
    if spec.input_dim != dataset.p:
        raise DataFormatError(f"{data_path}: {what} expects {spec.input_dim} features "
                              f"but data has {dataset.p}")
    try:
        md._targets(spec, dataset.labels)
    except ValueError as exc:
        raise DataFormatError(f"{data_path}: {exc}") from None


# Each _cmd_* returns (resolved values, {file name: text or JSON payload}, stdout summary).

# ---- gen -------------------------------------------------------------------

def _cmd_gen(args) -> tuple:
    _natural("--seed", args.seed)
    for flag, value in (("--test-shift", args.test_shift), ("--style-mean", args.style_mean)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    variance = np.square(args.style_sd)  # inf past the float range: _run ignores the warning
    if not (args.style_sd > 0.0 and 0.0 < variance < np.inf):
        raise ValueError(f"--style-sd must be finite and > 0 with a finite positive square, "
                         f"got {args.style_sd}")
    # a test shift goes to the generator only when given: the generator owns its default
    shift = () if args.test_shift is None else (args.test_shift,)
    if args.generator == "linear_scm":
        if args.c != 0:
            raise ValueError("linear_scm groups samples by (Y, ID) collisions; "
                             "it takes --c 0 and --id-count")
        spec = scm.LinearScmSpec(
            p=args.p, q=args.q, r=args.r,
            id_count=args.id_count,
            style_class_mean=[args.style_mean] * args.q, style_cov=variance * np.eye(args.q),
            structure_seed=args.seed,
        )
        train_ds = scm.sample_linear_scm(spec, args.n, args.seed)
        test_ds = scm.sample_linear_scm(spec, args.n, args.seed + 1, *shift)
    else:
        gen = scm.gen_example1 if args.generator == "example1" else scm.gen_example2
        train_ds, test_ds = gen(args.n, args.c, *shift, seed=args.seed)
    splits = (("train", train_ds), ("test", test_ds))
    # the sidecars' row lists are gen's largest transient, so they come and go first
    train_side, test_side = (_serialized(f"{split}_latents.json", scm._latents_text, ds)
                             for split, ds in splits)
    files = {f"{split}.csv": _serialized(f"{split}.csv", _csv_text, ds.dataset)
             for split, ds in splits}  # finite latents can render past the float range
    files.update({"train_latents.json": train_side, "test_latents.json": test_side})
    resolved = {"test_shift": test_ds.generator_params.get("test_shift", args.test_shift)}
    return resolved, files, f"wrote {' '.join(files)} to {Path(args.out)}"


# ---- train -----------------------------------------------------------------

def _cmd_train(args) -> tuple:
    _natural("--seed", args.seed)
    dataset = load_csv(args.data)
    spec = _parse_model(args.model)
    _check_fit(spec, dataset, args.data, "model")
    penalty = _parse_penalty(args.penalty, args.lam, args.gamma)
    config = TrainConfig(
        penalty,
        OptimizerConfig(args.optimizer, args.lr),
        args.batch_size,
        args.epochs,
        args.seed,
    )
    report = train(dataset, build_group_index(dataset), spec, config)
    files = {
        "checkpoint.json": md._checkpoint_payload(spec, report.theta, args.seed, report.steps),
        "report.json": {"theta": report.theta.tolist(), "history": report.history},
    }
    last = report.history[-1]
    summary = (f"final loss {last['loss']:.6f} penalty {last['penalty']:.6f} "
               f"train error {last['train_error']:.4f}")
    return asdict(config), files, summary


# ---- eval ------------------------------------------------------------------

def _evaluate(spec, theta, dataset) -> dict:
    logits = md.forward(spec, theta, dataset.features)
    losses = md.per_sample_loss(spec, logits, dataset.labels)
    groups = build_group_index(dataset)
    pen = conditional_penalty(logits, groups, 1.0)
    try:
        ratio = variance_ratio(logits, groups)
    except (DegenerateVarianceError, ValueError):
        ratio = None
    return {
        "n": len(dataset),
        "error_rate": float(np.mean(md._decide(spec, logits) != dataset.labels)),
        "mean_loss": float(np.mean(losses)),
        "penalty_value": float(pen),
        "variance_ratio": ratio,
        "grouped_observations": int(groups.c),
    }


def _load_checkpoint_for(path, dataset, data_path):
    spec, theta, _seed, _step = md.load_checkpoint(path)
    _check_fit(spec, dataset, data_path, f"checkpoint {path}")
    return spec, theta


def _cmd_eval(args) -> tuple:
    dataset = load_csv(args.data)
    spec, theta = _load_checkpoint_for(args.checkpoint, dataset, args.data)
    metrics = _evaluate(spec, theta, dataset)
    return {}, {"metrics.json": metrics}, json.dumps(metrics, indent=1, sort_keys=True)


# ---- shift_eval --------------------------------------------------------------

def _cmd_shift_eval(args) -> tuple:
    dataset = load_csv(args.data)
    style_ds = scm.load_style_dataset(dataset, args.latents)
    spec, theta = _load_checkpoint_for(args.checkpoint, dataset, args.data)
    groups = build_group_index(dataset)
    if style_ds.scm is not None:
        sigma = style_ds.scm.style_cov
    else:
        try:
            cov = rb.estimate_conditional_covariance(style_ds, groups)
        except ValueError as exc:
            raise DataFormatError(f"{args.data}: {exc}") from None
        if not cov.spd:
            raise DataFormatError(f"{args.latents}: the within-group style covariance "
                                  "estimated from these latents is not positive definite")
        sigma = cov.pooled
    report = rb.report(spec, theta, style_ds, groups, sigma, args.xi, args.method,
                       args.fo_xi, args.magnitudes).to_json()
    summary = json.dumps({"unshifted_loss": report["unshifted_loss"],
                          "worst_case": report["worst_case"],
                          "verdict": report["divergence"]["verdict"]}, indent=1, sort_keys=True)
    return {}, {"robustness.json": report}, summary


# ---- plot ------------------------------------------------------------------

def _cmd_plot(args) -> tuple:
    # the SVG goes beside the manifest, so its name is a plain file name
    if args.name in ("", ".", "..", "manifest.json") or Path(args.name).name != args.name:
        raise ValueError(f"--name must be a plain file name other than manifest.json, "
                         f"got {args.name!r}")
    dataset = load_csv(args.data)
    checkpoints = [_load_checkpoint_for(path, dataset, args.data) for path in args.checkpoints]
    for path, (spec, _theta) in zip(args.checkpoints, checkpoints):
        if spec.output_dim > 2:
            raise DataFormatError(f"{path}: plots need 1 or 2 outputs, not {spec.output_dim}")
    labels = args.labels if args.labels is not None else [Path(p).stem for p in args.checkpoints]
    try:
        svg = decision_boundary_svg(dataset, checkpoints, labels)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{args.name}: {exc}") from None
    return {"labels": labels}, {args.name: svg}, f"wrote {Path(args.out) / args.name}"


# ---- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condvar",
        description="conditional variance regularization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic style-aware datasets")
    g.add_argument("generator", choices=["example1", "example2", "linear_scm"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--c", type=int, required=True,
                   help="number of grouped sample pairs (0 for linear_scm)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--test-shift", type=float, default=None)
    g.add_argument("--p", type=int, default=10)
    g.add_argument("--q", type=int, default=2)
    g.add_argument("--r", type=int, default=4)
    g.add_argument("--id-count", type=int, default=2500)
    g.add_argument("--style-mean", type=float, default=1.0)
    g.add_argument("--style-sd", type=float, default=1.0)
    g.add_argument("--out", default=".")
    g.set_defaults(func=_cmd_gen)

    t = sub.add_parser("train", help="train a classifier")
    t.add_argument("--data", required=True)
    t.add_argument("--model", required=True, help="linear:p or mlp:p,h...,out")
    t.add_argument("--lambda", dest="lam", type=float, default=0.0)
    t.add_argument("--penalty", default="f,1", help="f,1 | f,0.5 | l,1 | l,0.5")
    t.add_argument("--gamma", type=float, default=0.0)
    t.add_argument("--optimizer", choices=list(_OPTIMIZERS), default="adam")
    t.add_argument("--lr", type=float, default=0.01)
    t.add_argument("--batch-size", type=int, default=120)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default=".")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", default=".")
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("shift_eval", help="robustness report under style shifts")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--latents", required=True, help="latent sidecar JSON")
    s.add_argument("--xi", type=float, nargs="+", default=[0.0, 0.01, 0.1, 1.0])
    s.add_argument("--fo-xi", type=float, default=1e-3)
    s.add_argument("--method", default="gradient_allocation",
                   choices=rb._METHODS)
    s.add_argument("--magnitudes", type=float, nargs="+",
                   default=[0.0, 1.0, 10.0, 100.0, 1000.0])
    s.add_argument("--out", default=".")
    s.set_defaults(func=_cmd_shift_eval)

    p = sub.add_parser("plot", help="SVG scatter with decision boundaries")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoints", nargs="*", default=[])
    p.add_argument("--labels", nargs="*", default=None)
    p.add_argument("--name", default="plot.svg")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, collector paused (see above); return its exit code."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config exit code
        return int(exc.code) if exc.code else 0
    try:
        # a failure is reported in the one line below; numpy's floating-point
        # warnings would only print ahead of it
        with np.errstate(all="ignore"):
            resolved, files, summary = args.func(args)
            _publish(args, resolved, files)
    # LinAlgError and DataFormatError subclass ValueError, so they go first
    except (DivergenceError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
