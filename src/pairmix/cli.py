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

An optional ``--config FILE`` (JSON object keyed by long option names with
underscores, e.g. ``{"max_iters": 200}``) supplies defaults; explicit
flags always override the file.
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
from .initialize import make_rng, sample_relations
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
from .types import Dataset, FlatModel, RelationSet, validate_relations

_NUMERIC_ERRORS = (DegenerateNormalizerError, NoConvergenceError)


# config entries that may also be a JSON list of integers
_LIST_OPTIONS = frozenset({"clusters_per_class", "budgets"})


def _check_config_entry(action: argparse.Action, value) -> None:
    """Raise :class:`ParseError` unless ``value`` is what the flag behind
    ``action`` accepts: a JSON boolean for a switch, one of the choices,
    a string the flag's type parses (a JSON number for a numeric flag)."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif isinstance(value, list):
        ok = action.dest in _LIST_OPTIONS and all(type(v) is int for v in value)
    elif action.type is None:
        ok = isinstance(value, str) and value in (action.choices or [value])
    else:
        try:
            action.type(str(value))
            return
        except (ValueError, argparse.ArgumentTypeError):
            ok = False
    if not ok:
        raise ParseError(f"config value {value!r} is not valid for {action.dest!r}")


class _Options:
    """Merged view of CLI flags, config-file entries, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file = {}
        config_path = self._args.get("config")
        if config_path:
            with read_text(config_path) as fh:
                try:
                    payload = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ParseError("config file must hold a JSON object")
            actions = {a.dest: a for a in args.config_actions}
            for key, value in payload.items():
                if key not in actions:
                    raise ParseError(
                        f"config key {key!r} is not an option of {args.command!r}"
                    )
                _check_config_entry(actions[key], value)
            self._file = payload

    def get(self, name: str, default=None):
        value = self._args.get(name)
        if value is not None:
            return value
        if name in self._file:
            return self._file[name]
        return default


def _seed(text: str) -> int:
    """Type of the seed flags: numpy seeds only with non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parse_int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise ParseError(f"expected a comma-separated integer list, got {text!r}") from None


def _fit_config(opt: _Options) -> FitConfig:
    """Each FitConfig field from the option of the same name, converted to
    the type of the field's default, which it falls back to."""
    return FitConfig(**{
        f.name: type(f.default)(opt.get(f.name, f.default)) for f in fields(FitConfig)
    })


def _load_labeled(opt: _Options, command: str) -> Dataset:
    """The ``--data`` CSV with its ``--label-column``, which ``command``
    requires (a named label column always yields labels)."""
    label_column = opt.get("label_column")
    if label_column is None:
        raise ParseError(f"{command} requires --label-column")
    return load_csv(opt.get("data"), label_column)


def _load_inputs(opt: _Options) -> tuple[Dataset, RelationSet]:
    dataset = load_csv(opt.get("data"), opt.get("label_column"))
    rel_path = opt.get("relations")
    relations = load_relations(rel_path) if rel_path else RelationSet()
    return dataset, validate_relations(relations, dataset.n)


def _cmd_fit(args: argparse.Namespace) -> int:
    opt = _Options(args)
    dataset, relations = _load_inputs(opt)
    n_classes = int(opt.get("classes"))
    clusters = _parse_int_list(opt.get("clusters_per_class", "1"))
    if len(clusters) == 1:
        clusters = clusters * n_classes
    config = _fit_config(opt)
    if all(k == 1 for k in clusters):
        model, trace = fit_flat(dataset, relations, n_classes, config)
    else:
        model, trace = fit_hier(dataset, relations, n_classes, clusters, config)
    save_model(model, opt.get("out"))
    trace_path = opt.get("trace")
    if trace_path:
        save_trace_csv(trace, trace_path)
    for warning in trace.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"wrote {opt.get('out')}: converged={str(trace.converged).lower()} "
        f"iterations={trace.n_iters} "
        f"log_likelihood={trace.log_likelihoods[-1]!r}"
    )
    return 0


def _posteriors(model, points: np.ndarray) -> np.ndarray:
    if isinstance(model, FlatModel):
        return predict_flat_batch(model, points)
    return predict_hier_batch(model, points)


def _cmd_predict(args: argparse.Namespace) -> int:
    opt = _Options(args)
    model = load_model(opt.get("model"))
    dataset = load_csv(opt.get("data"), opt.get("label_column"))
    post = _posteriors(model, dataset.points)
    save_posteriors_csv(post, opt.get("out"))
    print(f"wrote {opt.get('out')}: {post.shape[0]} points, {post.shape[1]} classes")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    opt = _Options(args)
    model = load_model(opt.get("model"))
    dataset = _load_labeled(opt, "evaluate")
    post = _posteriors(model, dataset.points)
    score = purity(hard_assign(post), dataset.labels)
    line = f"purity={score!r}"
    out = opt.get("out")
    if out:
        atomic_write_text(out, line + "\n")
    print(line)
    return 0


def _cmd_gen_relations(args: argparse.Namespace) -> int:
    opt = _Options(args)
    dataset = _load_labeled(opt, "gen-relations")
    relations = sample_relations(
        dataset.labels,
        int(opt.get("n_pairs")),
        make_rng(int(opt.get("seed", 0))),
        str(opt.get("mode", "both")),
    )
    save_relations(relations, opt.get("out"))
    print(
        f"wrote {opt.get('out')}: {relations.n_must} must-links, "
        f"{relations.n_cannot} cannot-links"
    )
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    opt = _Options(args)
    kind = str(opt.get("kind"))
    noise = opt.get("noise")
    if noise is None:
        noise = DEFAULT_NOISE.get(kind, 0.1)
    dataset = gen_synthetic(
        kind, int(opt.get("n_per_class")), float(noise), int(opt.get("seed", 0))
    )
    save_dataset_csv(dataset, opt.get("out"))
    print(f"wrote {opt.get('out')}: {dataset.n} points, d={dataset.dim}")
    return 0


def _cmd_trials(args: argparse.Namespace) -> int:
    opt = _Options(args)
    dataset = _load_labeled(opt, "trials")
    n_classes = int(opt.get("classes"))
    clusters = _parse_int_list(opt.get("clusters_per_class", "1"))
    if len(clusters) == 1:
        clusters = clusters * n_classes
    budgets = _parse_int_list(opt.get("budgets", "0"))
    reports = run_trials(
        dataset,
        n_classes,
        clusters,
        budgets,
        mode=str(opt.get("mode", "both")),
        n_trials=int(opt.get("n_trials", 100)),
        base_seed=int(opt.get("base_seed", 0)),
        config=_fit_config(opt),
        csv_path=opt.get("out"),
    )
    for report in reports:
        print(
            f"budget={report.budget} mean={report.mean!r} std={report.std!r} "
            f"failed={report.n_failed}"
        )
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    opt = _Options(args)
    dataset = load_csv(opt.get("data"), opt.get("label_column"))
    transform = fit_pca(dataset, int(opt.get("k")))
    projected = apply_pca(transform, dataset.points)
    save_dataset_csv(Dataset(points=projected, labels=dataset.labels), opt.get("out_data"))
    atomic_write_text(opt.get("out_transform"), serialize_pca(transform))
    print(
        f"wrote {opt.get('out_data')} and {opt.get('out_transform')}: "
        f"k={transform.k} of d={transform.dim}"
    )
    return 0


def _add_common(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--config", help="JSON file of default option values")
    p.add_argument("--threads", type=int, help="ignored; every command runs serially")
    # the flags a config file may set: every option of this command
    # except --config and --help
    p.set_defaults(func=func, config_actions=[
        a for a in p._actions if a.option_strings and a.dest not in ("config", "help")
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairmix",
        description="Gaussian mixture clustering with pairwise must-link / "
        "cannot-link relations",
    )
    parser.add_argument("--version", action="version", version=f"pairmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to a dataset (+ optional relations)")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--relations")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--clusters-per-class", dest="clusters_per_class")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--ridge-floor", dest="ridge_floor", type=float)
    p.add_argument(
        "--count-linked-as-unsupervised",
        dest="count_linked_as_unsupervised",
        action="store_const",
        const=True,
    )
    _add_common(p, _cmd_fit)

    p = sub.add_parser("predict", help="per-point posterior table for a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_predict)

    p = sub.add_parser("evaluate", help="purity of a fitted model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--out")
    _add_common(p, _cmd_evaluate)

    p = sub.add_parser("gen-relations", help="sample pairwise relations from labels")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--n-pairs", dest="n_pairs", type=int, required=True)
    p.add_argument("--mode", choices=["both", "must-only", "cannot-only"])
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_gen_relations)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled dataset")
    p.add_argument("--kind", choices=["two-cluster", "two-moons"], required=True)
    p.add_argument("--n-per-class", dest="n_per_class", type=int, required=True)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_gen_data)

    p = sub.add_parser("trials", help="repeated-trial purity sweep over link budgets")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--clusters-per-class", dest="clusters_per_class")
    p.add_argument("--budgets", required=True)
    p.add_argument("--mode", choices=["both", "must-only", "cannot-only"])
    p.add_argument("--n-trials", dest="n_trials", type=int)
    p.add_argument("--base-seed", dest="base_seed", type=_seed)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--ridge-floor", dest="ridge_floor", type=float)
    p.add_argument("--out", required=True)
    _add_common(p, _cmd_trials)

    p = sub.add_parser("pca", help="project a dataset onto leading principal axes")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-data", dest="out_data", required=True)
    p.add_argument("--out-transform", dest="out_transform", required=True)
    _add_common(p, _cmd_pca)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
