"""Versioned JSON persistence for models and PCA transforms.

Schema (field names are part of the CLI contract)::

    {"version": 1, "kind": "flat" | "hier", "M": int, "d": int,
     "alpha": [...], "classes": [{"pi": [...], "means": [[...]], "covs": [[[...]]]}]}

Floats are emitted with full ``repr`` precision, so a round trip reproduces
every parameter bit-for-bit.  A flat model is stored as one single-cluster
entry per class (``pi = [1.0]``).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SchemaMismatchError
from .io import atomic_write_text, read_text
from .types import ClassMixture, FlatModel, HierModel

SCHEMA_VERSION = 1


def _model_payload(model: FlatModel | HierModel) -> dict:
    if isinstance(model, FlatModel):
        kind = "flat"
        hier = model.to_hier()
    elif isinstance(model, HierModel):
        kind = "hier"
        hier = model
    else:
        raise SchemaMismatchError(f"cannot serialize object of type {type(model).__name__}")
    return {
        "version": SCHEMA_VERSION,
        "kind": kind,
        "M": hier.n_classes,
        "d": hier.dim,
        "alpha": hier.alpha.tolist(),
        "classes": [
            {"pi": c.pi.tolist(), "means": c.means.tolist(), "covs": c.covs.tolist()}
            for c in hier.classes
        ],
    }


def serialize_model(model: FlatModel | HierModel) -> str:
    """Render ``model`` as a JSON document (schema above)."""
    return json.dumps(_model_payload(model), indent=2) + "\n"


def _payload(doc: str, what: str) -> dict:
    """The JSON object of the ``what`` document ``doc``."""
    try:
        payload = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{what} document is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaMismatchError(f"{what} document must be a JSON object")
    return payload


def _require(doc: dict, key: str, types) -> object:
    if key not in doc:
        raise SchemaMismatchError(f"model document is missing field {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise SchemaMismatchError(f"model field {key!r} has the wrong type")
    return value


def _numbers(doc: dict, key: str, where: str = "") -> np.ndarray:
    """Field ``key`` as a float array; SchemaMismatchError if it is none."""
    value = _require(doc, key, list)
    try:
        array = np.asarray(value)
        if array.dtype.kind in "iuf":  # not strings, booleans, nulls or objects
            return np.asarray(array, dtype=float)
    except ValueError:  # ragged nesting
        pass
    raise SchemaMismatchError(f"{where}{key} is not a rectangular array of numbers")


def deserialize_model(doc: str) -> FlatModel | HierModel:
    """Parse a model document; inverse of :func:`serialize_model`.

    Raises :class:`SchemaMismatchError` for structural problems and
    :class:`InvariantViolationError` (via the model constructors) for value
    violations such as a non-simplex ``alpha``.
    """
    payload = _payload(doc, "model")
    version = _require(payload, "version", int)
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(f"unsupported model schema version {version!r}")
    kind = _require(payload, "kind", str)
    if kind not in ("flat", "hier"):
        raise SchemaMismatchError(f"unknown model kind {kind!r}")
    m = _require(payload, "M", int)
    d = _require(payload, "d", int)
    alpha = _numbers(payload, "alpha")
    classes_doc = _require(payload, "classes", list)
    if len(classes_doc) != m or len(alpha) != m:
        raise SchemaMismatchError(
            f"document declares M={m} but carries {len(alpha)} weights and "
            f"{len(classes_doc)} classes"
        )
    classes = []
    for idx, entry in enumerate(classes_doc):
        if not isinstance(entry, dict):
            raise SchemaMismatchError(f"classes[{idx}] is not an object")
        where = f"classes[{idx}]."
        pi = _numbers(entry, "pi", where)
        means = _numbers(entry, "means", where)
        covs = _numbers(entry, "covs", where)
        if means.ndim != 2 or means.shape != (pi.size, d):
            raise SchemaMismatchError(
                f"classes[{idx}].means has shape {means.shape}, expected ({pi.size}, {d})"
            )
        if covs.shape != (pi.size, d, d):
            raise SchemaMismatchError(
                f"classes[{idx}].covs has shape {covs.shape}, expected ({pi.size}, {d}, {d})"
            )
        classes.append(ClassMixture(pi=pi, means=means, covs=covs))
    hier = HierModel(alpha=alpha, classes=tuple(classes))
    if kind == "flat":
        if not hier.is_flat_equivalent:
            raise SchemaMismatchError(
                'kind "flat" requires exactly one cluster per class'
            )
        return hier.to_flat()
    return hier


def save_model(model: FlatModel | HierModel, path) -> None:
    atomic_write_text(path, serialize_model(model))


def load_model(path) -> FlatModel | HierModel:
    with read_text(path) as fh:
        return deserialize_model(fh.read())


# ---------------------------------------------------------------------------
# PCA transform documents (same versioning style)


def serialize_pca(transform) -> str:
    return json.dumps(
        {
            "version": SCHEMA_VERSION,
            "kind": "pca",
            "d": int(transform.mean.size),
            "k": int(transform.components.shape[0]),
            "mean": transform.mean.tolist(),
            "components": transform.components.tolist(),
            "eigenvalues": transform.eigenvalues.tolist(),
        },
        indent=2,
    ) + "\n"


def deserialize_pca(doc: str):
    from .pca import PcaTransform

    payload = _payload(doc, "transform")
    if _require(payload, "version", int) != SCHEMA_VERSION:
        raise SchemaMismatchError("unsupported transform schema version")
    if _require(payload, "kind", str) != "pca":
        raise SchemaMismatchError('transform document must have kind "pca"')
    return PcaTransform(
        mean=_numbers(payload, "mean"),
        components=_numbers(payload, "components"),
        eigenvalues=_numbers(payload, "eigenvalues"),
    )
