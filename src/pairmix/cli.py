"""Command-line interface.

Commands: ``fit``, ``predict``, ``evaluate``, ``gen-relations``,
``gen-data``, ``trials``, ``pca``.  Every command runs serially and is
deterministic given its seed flags, reads/writes the formats documented
in the README, and on failure prints a single machine-parseable line
``error: <ErrorName>: <detail>`` to stderr.  Every command accepts
``--threads N`` so that existing scripts keep working, and ignores it.

Exit codes: 0 success; 2 usage error; 3 invalid input (every
:class:`~pairmix.errors.PairmixError` outside the numerical family);
4 numerical failure; 5 filesystem error.

argparse resolves every option: a flag wins over an entry of the optional
``--config FILE`` (a JSON object keyed by long option names with
underscores, e.g. ``{"max_iters": 200}``), which wins over the default
declared on the option.  Each entry is checked against the option it names,
the entries become the command's defaults, and the command line is parsed
again; so a required option must be on the command line.  Options named
after :class:`~pairmix.flat.FitConfig` fields default to ``None``, which
keeps the field's own default.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .datasets import DEFAULT_NOISE, gen_synthetic
from .errors import (
    DegenerateNormalizerError,
    NoConvergenceError,
    PairmixError,
    ParseError,
)
from .flat import FitConfig, fit_flat, predict_flat_batch
from .hier import fit_hier, predict_hier_batch
from .initialize import SAMPLING_MODES, _normalize_cluster_counts, make_rng, sample_relations
from .io import (
    atomic_write_text,
    load_csv,
    load_relations,
    read_text,
    save_dataset_csv,
    save_posteriors_csv,
    save_relations,
    save_trace_csv,
)
from .metrics import hard_assign, purity, run_trials
from .pca import apply_pca, fit_pca
from .serialize import load_model, save_model, serialize_pca
from .types import Dataset, FlatModel, RelationSet

_NUMERIC_ERRORS = (DegenerateNormalizerError, NoConvergenceError)


# config entries that may also be a JSON list of integers
_LIST_OPTIONS = frozenset({"clusters_per_class", "budgets"})


def _check_config_entry(action: argparse.Action, value):
    """A config ``value`` for the flag behind ``action``, as that flag would
    parse it: a JSON boolean for a switch, one of the choices, a non-empty
    JSON list of integers for a list option (returned as its comma-separated
    text), or a value whose ``str`` the flag's type parses (a JSON number for
    a numeric flag).  Any other value raises :class:`ParseError`."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif isinstance(value, list):
        if action.dest in _LIST_OPTIONS and value and all(type(v) is int for v in value):
            return ",".join(map(str, value))
        ok = False
    elif action.type is None:
        ok = isinstance(value, str) and value in (action.choices or [value])
    else:
        try:
            return action.type(str(value))
        except (ValueError, argparse.ArgumentTypeError):
            ok = False
    if not ok:
        raise ParseError(f"config value {value!r} is not valid for {action.dest!r}")
    return value


def _config_defaults(args: argparse.Namespace) -> dict:
    """The entries of the ``--config`` file, each checked against the option
    of the command that it names."""
    with read_text(args.config) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("config file must hold a JSON object")
    # a config file may set every option of the command but --config and --help
    actions = {a.dest: a for a in args.command_parser._actions
               if a.option_strings and a.dest not in ("config", "help")}
    for key, value in payload.items():
        if key not in actions:
            raise ParseError(f"config key {key!r} is not an option of {args.command!r}")
        payload[key] = _check_config_entry(actions[key], value)
    return payload


def _seed(text: str) -> int:
    """Type of the seed flags: numpy seeds only with non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        values = []
    if not values:
        raise ParseError(f"expected a comma-separated integer list, got {text!r}")
    return values


def _cluster_counts(args: argparse.Namespace) -> tuple[int, ...]:
    """``--clusters-per-class``: one count for every class, or one per class."""
    counts = _parse_int_list(args.clusters_per_class)
    return _normalize_cluster_counts(args.classes, counts[0] if len(counts) == 1 else counts)


def _fit_config(args: argparse.Namespace) -> FitConfig:
    """Each FitConfig field from the option of the same name; a field whose
    option is unset, or that the command lacks, keeps its default."""
    values = {f.name: getattr(args, f.name, None) for f in fields(FitConfig)}
    return FitConfig(**{name: v for name, v in values.items() if v is not None})


def _load_labeled(args: argparse.Namespace) -> Dataset:
    """The ``--data`` CSV with its ``--label-column``, which the command
    requires (a named label column always yields labels)."""
    if args.label_column is None:
        raise ParseError(f"{args.command} requires --label-column")
    return load_csv(args.data, args.label_column)


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data, args.label_column)
    relations = load_relations(args.relations) if args.relations else RelationSet()
    clusters = _cluster_counts(args)
    config = _fit_config(args)
    if all(k == 1 for k in clusters):
        model, trace = fit_flat(dataset, relations, args.classes, config)
    else:
        model, trace = fit_hier(dataset, relations, args.classes, clusters, config)
    save_model(model, args.out)
    if args.trace:
        save_trace_csv(trace, args.trace)
    for warning in trace.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"wrote {args.out}: converged={str(trace.converged).lower()} "
        f"iterations={trace.n_iters} "
        f"log_likelihood={trace.log_likelihoods[-1]!r}"
    )
    return 0


def _posteriors(model, points: np.ndarray) -> np.ndarray:
    if isinstance(model, FlatModel):
        return predict_flat_batch(model, points)
    return predict_hier_batch(model, points)


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = load_csv(args.data, args.label_column)
    post = _posteriors(model, dataset.points)
    save_posteriors_csv(post, args.out)
    print(f"wrote {args.out}: {post.shape[0]} points, {post.shape[1]} classes")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = _load_labeled(args)
    post = _posteriors(model, dataset.points)
    score = purity(hard_assign(post), dataset.labels)
    line = f"purity={score!r}"
    if args.out:
        atomic_write_text(args.out, line + "\n")
    print(line)
    return 0


def _cmd_gen_relations(args: argparse.Namespace) -> int:
    dataset = _load_labeled(args)
    relations = sample_relations(
        dataset.labels, args.n_pairs, make_rng(args.seed), args.mode
    )
    save_relations(relations, args.out)
    print(
        f"wrote {args.out}: {relations.n_must} must-links, "
        f"{relations.n_cannot} cannot-links"
    )
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    noise = DEFAULT_NOISE[args.kind] if args.noise is None else args.noise
    dataset = gen_synthetic(args.kind, args.n_per_class, noise, args.seed)
    save_dataset_csv(dataset, args.out)
    print(f"wrote {args.out}: {dataset.n} points, d={dataset.dim}")
    return 0


def _cmd_trials(args: argparse.Namespace) -> int:
    dataset = _load_labeled(args)
    reports = run_trials(
        dataset,
        args.classes,
        _cluster_counts(args),
        _parse_int_list(args.budgets),
        mode=args.mode,
        n_trials=args.n_trials,
        base_seed=args.base_seed,
        config=_fit_config(args),
        csv_path=args.out,
    )
    for report in reports:
        print(
            f"budget={report.budget} mean={report.mean!r} std={report.std!r} "
            f"failed={report.n_failed}"
        )
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data, args.label_column)
    transform = fit_pca(dataset, args.k)
    projected = apply_pca(transform, dataset.points)
    save_dataset_csv(Dataset(points=projected, labels=dataset.labels), args.out_data)
    atomic_write_text(args.out_transform, serialize_pca(transform))
    print(
        f"wrote {args.out_data} and {args.out_transform}: "
        f"k={transform.k} of d={transform.dim}"
    )
    return 0


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--label-column")


def _add_model_shape(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--clusters-per-class", default="1")


def _add_em(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--ridge-floor", type=float)


def _add_common(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--config", help="JSON file of default option values")
    p.add_argument("--threads", type=int, help="ignored; every command runs serially")
    p.set_defaults(func=func, command_parser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairmix",
        description="Gaussian mixture clustering with pairwise must-link / "
        "cannot-link relations",
    )
    parser.add_argument("--version", action="version", version=f"pairmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to a dataset (+ optional relations)")
    _add_data(p)
    p.add_argument("--relations")
    _add_model_shape(p)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--seed", type=_seed)
    _add_em(p)
    p.add_argument("--count-linked-as-unsupervised", action="store_const", const=True)
    _add_common(p, _cmd_fit)

    p = sub.add_parser("predict", help="per-point posterior table for a fitted model")
    p.add_argument("--model", required=True)
    _add_data(p)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_predict)

    p = sub.add_parser("evaluate", help="purity of a fitted model on labeled data")
    p.add_argument("--model", required=True)
    _add_data(p)
    p.add_argument("--out")
    _add_common(p, _cmd_evaluate)

    p = sub.add_parser("gen-relations", help="sample pairwise relations from labels")
    _add_data(p)
    p.add_argument("--n-pairs", type=int, required=True)
    p.add_argument("--mode", choices=SAMPLING_MODES, default="both")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_gen_relations)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    p.add_argument("--kind", choices=list(DEFAULT_NOISE), required=True)
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_gen_data)

    p = sub.add_parser("trials", help="repeated-trial purity sweep over link budgets")
    _add_data(p)
    _add_model_shape(p)
    p.add_argument("--budgets", required=True)
    p.add_argument("--mode", choices=SAMPLING_MODES, default="both")
    p.add_argument("--n-trials", type=int, default=100)
    p.add_argument("--base-seed", type=_seed, default=0)
    _add_em(p)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_trials)

    p = sub.add_parser("pca", help="project a dataset onto leading principal axes")
    _add_data(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-transform", required=True)
    _add_common(p, _cmd_pca)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.command_parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except PairmixError as exc:  # every other error of the package is an input error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
