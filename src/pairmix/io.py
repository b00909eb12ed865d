"""File ingestion and emission: CSV datasets, relation files, result CSVs.

All indices in files are 0-based.  A dataset CSV is read in one
``np.loadtxt`` pass; the line-by-line strict parser is the reference for
its result and runs whenever that pass cannot vouch for it, so every parse
error (class, message, line and column) comes from the strict parser.
Writers go through one temp-file + atomic-rename path, :func:`atomic_writer`,
so malformed runs never leave partial outputs, and floats are rendered with
``repr``, a block of rows at a time, same bytes as row by row, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import (
    NonNumericFeatureError,
    ParseError,
    RaggedRowsError,
)
from .types import Dataset, RelationSet, validate_relations

# A label cell must read as an integer of smaller magnitude (int64 range).
_LABEL_LIMIT = 2.0**63
# rows formatted and written at a time by the result CSV writers
_WRITE_ROWS = 4096


@contextmanager
def atomic_writer(path):
    """Yield a UTF-8 text handle (``newline=""``) on a temp file beside
    ``path``; a clean exit renames it onto ``path``.  An ``OSError`` names
    ``path``, not the temp file, which never outlives the block."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


def _write_rows_csv(path, header: list[str], values: np.ndarray, last) -> None:
    """Write ``header``, then each row of ``values`` as ``repr`` cells and
    ``last``'s entry unless ``last`` is None, ``_WRITE_ROWS`` rows at a time."""
    with atomic_writer(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, values.shape[0], _WRITE_ROWS):
            cells = [map(repr, col) for col in values[lo:lo + _WRITE_ROWS].T.tolist()]
            if last is not None:
                cells.append(map(str, last[lo:lo + _WRITE_ROWS].tolist()))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@contextmanager
def read_text(path, newline=None):
    """Open ``path`` as UTF-8 text; an undecodable byte is a ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_float(cell: str, line_no: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise NonNumericFeatureError(
            f"line {line_no}, column {col}: {cell!r} is not numeric"
        ) from None


def _parse_label(cell: str, line_no: int, col: int) -> int:
    value = _parse_float(cell, line_no, col)
    if not (math.isfinite(value) and abs(value) < _LABEL_LIMIT and value == int(value)):
        raise ParseError(
            f"line {line_no}, column {col}: label {cell!r} is not an integer"
        )
    return int(value)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _label_index(label_column, header: list[str] | None, width: int) -> int | None:
    if label_column is None:
        return None
    if isinstance(label_column, str) and not label_column.isdigit():
        if header is None:
            raise ParseError(
                f"label column {label_column!r} given but the file has no header"
            )
        if label_column not in header:
            raise ParseError(
                f"label column {label_column!r} not in header {header}"
            )
        return header.index(label_column)
    label_idx = int(label_column)
    if not 0 <= label_idx < width:
        raise ParseError(f"label column index {label_idx} outside [0, {width})")
    return label_idx


def load_csv(path, label_column=None) -> Dataset:
    """Parse a rectangular numeric CSV, optionally extracting a label column.

    ``label_column`` may be a 0-based column index or a header name (the
    latter requires a header row).  A header is detected when any cell of
    the first non-blank row fails to parse as a number.  Cells are read as
    Python's ``float()`` reads them; a label cell must be a finite integer
    below 2**63 in magnitude (``1`` and ``1.0`` both read as 1).

    The body is parsed in one streaming ``np.loadtxt`` pass.  Whenever that
    pass cannot vouch for its result (any error or warning, a column count
    other than the header row's, a label that breaks the rule above, a quote
    up to the header row), the file is parsed again line by line by the
    strict parser, which returns the same dataset bit for bit or raises the
    documented error with its line and column.  ``#`` starts no comment.
    """
    fast = _load_csv_fast(path, label_column)
    if fast is not None:
        points, labels = fast
    else:
        points, labels = _load_csv_strict(path, label_column)
    return Dataset(points=points, labels=labels)


def _first_row(path) -> tuple[int, list[str]] | None:
    """Lines before the first non-blank line, and that line's cells; None
    when a quote could make the csv module split or count them otherwise."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for skipped, line in enumerate(fh):
            if '"' in line:
                return None
            cells = line.rstrip("\r\n").split(",")
            if any(c.strip() for c in cells):
                return skipped, cells
    return None


def _load_csv_fast(path, label_column):
    """``(points, labels)`` bit for bit as the strict parser returns them,
    or None when the strict parser must decide."""
    try:
        head = _first_row(path)
        if head is None:
            return None
        skipped, first = head
        header = None if all(map(_is_number, first)) else [c.strip() for c in first]
        width = len(first)
        label_idx = _label_index(label_column, header, width)
        # A file handle, not the path: np.loadtxt would open a path through
        # numpy's DataSource, which decompresses by file extension and
        # fetches URLs.  The handle splits lines as the strict parser's does.
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar='"',
                skiprows=skipped + (header is not None), ndmin=2, dtype=float,
            )
    except (OSError, ValueError, ParseError, Warning):
        return None
    if table.shape[0] == 0 or table.shape[1] != width:
        return None
    if label_idx is None:
        return table, None
    if width == 1:
        return None
    labels = table[:, label_idx]
    if not np.all(np.isfinite(labels) & (np.abs(labels) < _LABEL_LIMIT)
                  & (labels == np.trunc(labels))):
        return None
    return np.delete(table, label_idx, axis=1), labels.astype(np.int64)


def _load_csv_strict(path, label_column):
    """The line-by-line parser: the reference for every result and the only
    code that raises a parse error."""
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(i + 1, row) for i, row in enumerate(reader)]
        except csv.Error as exc:  # e.g. a cell over the csv module's field limit
            raise ParseError(f"line {reader.line_num}: {exc}") from None
    rows = [(no, row) for no, row in rows if row and any(c.strip() for c in row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    width = len(rows[0][1])
    for no, row in rows:
        if len(row) != width:
            raise RaggedRowsError(
                f"line {no}: expected {width} columns, found {len(row)}"
            )

    header: list[str] | None = None
    first = rows[0][1]
    if not all(map(_is_number, first)):
        header = [c.strip() for c in first]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    label_idx = _label_index(label_column, header, width)
    feature_cols = [c for c in range(width) if c != label_idx]
    if not feature_cols:
        raise ParseError("no feature columns remain after removing the label column")
    points = np.empty((len(rows), len(feature_cols)))
    labels = np.empty(len(rows), dtype=np.int64) if label_idx is not None else None
    for r, (no, row) in enumerate(rows):
        for c_out, c_in in enumerate(feature_cols):
            points[r, c_out] = _parse_float(row[c_in].strip(), no, c_in)
        if labels is not None:
            labels[r] = _parse_label(row[label_idx].strip(), no, label_idx)
    return points, labels


def save_dataset_csv(dataset: Dataset, path, label_name: str = "label") -> None:
    """Write a dataset as CSV with an ``x0..x{d-1}`` header (+ label column)."""
    cols = [f"x{i}" for i in range(dataset.dim)]
    if dataset.labels is not None:
        cols.append(label_name)
    _write_rows_csv(path, cols, dataset.points, dataset.labels)


def load_relations(path) -> RelationSet:
    """Parse a relation file: one ``ml,i,j`` or ``cl,a,b`` per line.

    Indices are 0-based; blank lines and lines starting with ``#`` are
    ignored.  The result is canonicalized via :func:`validate_relations`
    (self-pairs, conflicts, and duplicates rejected/collapsed here; bounds
    against a dataset are re-checked by the consumer).
    """
    must: list[tuple[int, int]] = []
    cannot: list[tuple[int, int]] = []
    max_index = 0
    with read_text(path) as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ParseError(
                    f"line {no}: expected 'ml,i,j' or 'cl,a,b', got {line!r}"
                )
            kind, a_txt, b_txt = parts
            if kind not in ("ml", "cl"):
                raise ParseError(
                    f"line {no}: unknown relation kind {kind!r} (want 'ml' or 'cl')"
                )
            try:
                a, b = int(a_txt), int(b_txt)
            except ValueError:
                raise ParseError(
                    f"line {no}: indices must be integers, got {line!r}"
                ) from None
            max_index = max(max_index, a, b)
            (must if kind == "ml" else cannot).append((a, b))
    relations = RelationSet(must=tuple(must), cannot=tuple(cannot))
    return validate_relations(relations, max_index + 1)


def save_relations(relations: RelationSet, path) -> None:
    """Write a relation file in the ``ml,i,j`` / ``cl,a,b`` line format."""
    with atomic_writer(path) as fh:
        fh.write("# pairwise relations: ml,i,j = must-link, cl,a,b = cannot-link"
                 " (0-based)\n")
        fh.writelines(f"ml,{i},{j}\n" for i, j in relations.must)
        fh.writelines(f"cl,{a},{b}\n" for a, b in relations.cannot)


def save_posteriors_csv(posteriors: np.ndarray, path) -> None:
    """Write per-point soft labels (columns ``p0..p{M-1}``) plus the
    hard assignment column ``assigned``."""
    posteriors = np.asarray(posteriors, dtype=float)
    header = [f"p{k}" for k in range(posteriors.shape[1])] + ["assigned"]
    _write_rows_csv(path, header, posteriors, np.argmax(posteriors, axis=1))


def save_trace_csv(trace, path) -> None:
    """Write a fit trace as CSV (iteration 0 is the initial model)."""
    lines = ["iteration,log_likelihood"]
    for i, ll in enumerate(trace.log_likelihoods):
        lines.append(f"{i},{repr(float(ll))}")
    atomic_write_text(path, "\n".join(lines) + "\n")
