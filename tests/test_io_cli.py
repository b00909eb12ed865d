"""CSV/relation file formats and the command-line pipeline."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pairmix
from pairmix import (
    ConflictingPairError,
    Dataset,
    DegenerateNormalizerError,
    FitConfig,
    FlatModel,
    NoConvergenceError,
    NonNumericFeatureError,
    PairmixError,
    ParseError,
    RaggedRowsError,
    RelationSet,
    SelfPairError,
    fit_flat,
    load_csv,
    load_model,
    load_relations,
    save_dataset_csv,
    save_relations,
)
from pairmix import cli
from pairmix import io as pairmix_io
from pairmix.cli import build_parser
from pairmix.serialize import save_model
from pairmix.io import (
    _load_csv_fast,
    _load_csv_strict,
    atomic_write_text,
    save_posteriors_csv,
    save_trace_csv,
)


# ---------------------------------------------------------------------------
# dataset CSV


def test_load_csv_headerless(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0\n3.5,-4.0\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.5, -4.0]])
    assert ds.labels is None


def test_load_csv_header_and_label_by_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1,label\n1,2,0\n3,4,1\n5,6,1\n")
    ds = load_csv(p, label_column="label")
    assert ds.points.shape == (3, 2)
    np.testing.assert_array_equal(ds.labels, [0, 1, 1])


def test_load_csv_label_by_index(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1.5,2.5\n1,3.5,4.5\n")
    for col in (0, "0"):
        ds = load_csv(p, label_column=col)
        np.testing.assert_array_equal(ds.labels, [0, 1])
        np.testing.assert_array_equal(ds.points, [[1.5, 2.5], [3.5, 4.5]])


def test_load_csv_blank_lines_ignored(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("\n1,2\n\n3,4\n   \n")
    assert load_csv(p).n == 2


def test_load_csv_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3,4,5\n")
    with pytest.raises(RaggedRowsError, match="line 2"):
        load_csv(ragged)

    non_numeric = tmp_path / "n.csv"
    non_numeric.write_text("1,2\n3,oops\n")
    with pytest.raises(NonNumericFeatureError, match="line 2"):
        load_csv(non_numeric)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_csv(empty)

    header_only = tmp_path / "h.csv"
    header_only.write_text("x0,x1\n")
    with pytest.raises(ParseError):
        load_csv(header_only)

    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4\n")
    with pytest.raises(ParseError, match="no header"):
        load_csv(p, label_column="label")
    with pytest.raises(ParseError, match="outside"):
        load_csv(p, label_column=5)

    named = tmp_path / "m.csv"
    named.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="not in header"):
        load_csv(named, label_column="c")

    frac_label = tmp_path / "f.csv"
    frac_label.write_text("1.5,0.5\n2.5,1.0\n")
    with pytest.raises(ParseError, match="not an integer"):
        load_csv(frac_label, label_column=1)

    only_label = tmp_path / "o.csv"
    only_label.write_text("0\n1\n")
    with pytest.raises(ParseError, match="no feature columns"):
        load_csv(only_label, label_column=0)


def test_dataset_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(60)
    ds = Dataset(rng.standard_normal((25, 3)), labels=rng.integers(0, 3, 25))
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, p)
    back = load_csv(p, label_column="label")
    np.testing.assert_array_equal(back.points, ds.points)
    np.testing.assert_array_equal(back.labels, ds.labels)

    unlabeled = Dataset(rng.standard_normal((5, 2)))
    q = tmp_path / "u.csv"
    save_dataset_csv(unlabeled, q)
    back2 = load_csv(q)
    np.testing.assert_array_equal(back2.points, unlabeled.points)
    assert back2.labels is None


def test_load_csv_rejects_non_finite_and_out_of_range_labels(tmp_path):
    p = tmp_path / "l.csv"
    for cell in ("nan", "inf", "-inf", "1e30", "9223372036854775808"):
        p.write_text(f"x,label\n1,0\n2,{cell}\n")
        with pytest.raises(ParseError) as info:
            load_csv(p, label_column="label")
        assert str(info.value) == f"line 3, column 1: label {cell!r} is not an integer"


def _oversized_cell_csv(path):
    # a quoted header sends the file to the line-by-line parser, whose csv
    # module caps a field at 131 072 characters
    path.write_text('"x0","x1"\n1,1.' + "0" * 140_000 + "\n")
    return path


def test_load_csv_oversized_cell_is_parse_error(tmp_path):
    p = _oversized_cell_csv(tmp_path / "wide.csv")
    message = "line 2: field larger than field limit (131072)"
    for read in (load_csv, lambda path: _load_csv_strict(path, None)):
        with pytest.raises(ParseError) as info:
            read(p)
        assert str(info.value) == message


# (file text, label column): each file is read by load_csv and by the
# line-by-line parser, which must agree on every bit or on the error.
LOAD_CSV_CORPUS = {
    "plain": ("1.0,2.0\n3.5,-4.0\n", None),
    "underscore_first_row": ("1_000,2\n3,4\n", None),
    "underscore_body": ("x,y\n1,2\n1_000,2\n", None),
    "special_floats": ("x,y\ninfinity,-inf\nNaN,1\n-nan,+Infinity\n", None),
    "padded_cells": ("x,y\n 1.5 , 2\t\n3, 4 \n\x0b5\x0c,6\n", None),
    "quoted_cells": ('x,y\n"1.5","2"\n3,"4"\n', None),
    "quoted_header": ('"x","y"\n1,2\n', None),
    "quoted_numeric_first_row": ('"1","2"\n3,4\n', None),
    "quoted_comma": ('x,y\n"1,5",2\n', None),
    "quote_inside_cell": ('x,y\n1"2",3\n', None),
    "quote_then_digit": ('x,y\n"1"2,3\n', None),
    "space_then_quote": ('x,y\n "1",3\n', None),
    "doubled_quote": ('x,y\n"1""2",3\n', None),
    "unterminated_quote_last_row": ('x,y\n1," 2\n', None),
    "unterminated_quote_mid": ('x,y\n1,"2\n3,4\n', None),
    "blank_lines": ("\n\nx,y\n\n1,2\n\n3,4\n\n", None),
    "whitespace_line": ("x,y\n1,2\n   \n3,4\n", None),
    "whitespace_line_first": ("   \nx,y\n1,2\n", None),
    "comma_space_line": ("x,y\n1,2\n, ,\n3,4\n", None),
    "comma_space_line_first": (", \n1,2\n", None),
    "hash_line": ("x,y\n1,2\n# c\n3,4\n", None),
    "hash_header": ("# c,d\n1,2\n", None),
    "hash_cell": ("x,y\n1,2\n#,1\n", None),
    "crlf": ("x,y\r\n1,2\r\n\r\n3,4\r\n", None),
    "cr_only": ("x,y\r1,2\r3,4\r", None),
    "cr_in_body": ("x,y\n1,2\r3,4\n", None),
    "bom_numeric": ("\ufeff1,2\n3,4\n", None),
    "bom_header": ("\ufeffx,y\n1,2\n", None),
    "bom_alone": ("\ufeff\n1,2\n", None),
    "arabic_indic_body": ("x,y\n\u0663,2\n4,5\n", None),
    "arabic_indic_first_row": ("\u0663,\u0664\n1,2\n", None),
    "fullwidth_digit": ("x,y\n\uff11,2\n", None),
    "superscript_digit": ("x,y\n\u00b2,2\n", None),
    "line_separators_in_cells": ("x,y\n1,2\u2028\n3\x85,4\n", None),
    "nul": ("x\x00,y\n1,2\x00\n", None),
    "quoted_newline_header": ('"x\ny",z\n1,2\n', None),
    "quoted_newline_body": ('x,y\n"1\n",2\n3,4\n', None),
    "quoted_newline_splits_number": ('x,y\n"1\n2",2\n3,4\n', None),
    "blank_lines_before_header": ("\n\n\nx,y\n1,2\n", None),
    "header_only": ("x,y\n", None),
    "header_then_blanks": ("x,y\n\n\n", None),
    "empty": ("", None),
    "blank_only": ("\n \n", None),
    "ragged_long": ("x,y\n1,2\n3,4,5\n", None),
    "ragged_short": ("x,y\n1,2\n3\n", None),
    "trailing_comma": ("x,y\n1,2,\n3,4,\n", None),
    "trailing_comma_everywhere": ("x,y,\n1,2,\n3,4,\n", None),
    "empty_cell": ("x,y\n1,\n3,4\n", None),
    "hex_and_complex": ("x,y\n0x10,1j\n", None),
    "exponents": ("x,y\n1e500,-1e-400\n1E5,.5\n+1,5.\n", None),
    "other_delimiters": ("x\ty;z\n1\t2;3\n", None),
    "single_column": ("1\n2\n3\n", None),
    "label_by_name": ("x0,x1,label\n1,2,0\n3,4,1\n", "label"),
    "label_by_padded_name": ("x, label \n1,0\n", "label"),
    "label_by_index": ("0,1.5,2.5\n1,3.5,4.5\n", 0),
    "label_by_index_text": ("0,1.5,2.5\n1,3.5,4.5\n", "0"),
    "label_float_spellings": ("x,label\n1,1.0\n2,1e0\n3,-0.0\n4,2.00\n", "label"),
    "label_large_integer": ("x,label\n1,4611686018427387904\n", "label"),
    "label_half": ("x,label\n1,0.5\n", "label"),
    "label_nan": ("x,label\n1,nan\n", "label"),
    "label_inf": ("x,label\n1,-inf\n", "label"),
    "label_1e30": ("x,label\n1,1e30\n", "label"),
    "label_2_pow_63": ("x,label\n1,-9223372036854775808\n", "label"),
    "label_negative": ("x,label\n1,-1\n", "label"),
    "label_missing_name": ("x,y\n1,2\n", "label"),
    "label_name_without_header": ("1,2\n", "label"),
    "label_index_outside": ("1,2\n", 5),
    "label_only_column": ("l\n0\n1\n", "l"),
}

# files the one-pass reader must take without falling back
FAST_PATH_FILES = (
    "plain", "special_floats", "padded_cells", "quoted_cells", "blank_lines",
    "crlf", "bom_header", "blank_lines_before_header", "single_column",
    "label_by_name", "label_by_index", "label_float_spellings",
)


def _outcome(read):
    try:
        points, labels = read()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    lab = None if labels is None else (labels.dtype, labels.tobytes())
    return points.shape, points.dtype, points.tobytes(), lab


@pytest.mark.parametrize("name", sorted(LOAD_CSV_CORPUS))
def test_load_csv_matches_strict_parser(tmp_path, name):
    text, label_column = LOAD_CSV_CORPUS[name]
    p = tmp_path / f"{name}.csv"
    p.write_bytes(text.encode("utf-8"))

    def loaded():
        ds = load_csv(p, label_column)
        return ds.points, ds.labels

    def strict():
        ds = Dataset(*_load_csv_strict(p, label_column))
        return ds.points, ds.labels

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(loaded) == _outcome(strict)
        fast = _load_csv_fast(p, label_column)
    assert caught == []
    if fast is not None:  # compared before Dataset rejects NaN and inf
        assert _outcome(lambda: fast) == _outcome(lambda: _load_csv_strict(p, label_column))
    assert fast is not None or name not in FAST_PATH_FILES


def _reference_dataset_csv(points, labels, label_name="label"):
    cols = [f"x{i}" for i in range(points.shape[1])]
    if labels is not None:
        cols.append(label_name)
    lines = [",".join(cols)]
    for r in range(points.shape[0]):
        cells = [repr(float(v)) for v in points[r]]
        if labels is not None:
            cells.append(str(int(labels[r])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


WRITER_VALUES = np.array(
    [[-0.0, 1e-05], [1e16, 5e-324], [0.1 + 0.2, -1.7976931348623157e308],
     [123456789.125, -2.5e-300], [1.0, 0.0]]
)


def _reference_posteriors_csv(post):
    lines = [",".join([f"p{k}" for k in range(post.shape[1])] + ["assigned"])]
    for row in post:
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(np.argmax(row)))]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_writers_match_per_cell_repr_bytes(tmp_path):
    labels = np.array([0, 7, 1, 12, 3])
    p = tmp_path / "d.csv"
    for points, lab in ((WRITER_VALUES, labels), (WRITER_VALUES, None),
                        (WRITER_VALUES[:, :1], labels), (WRITER_VALUES[:, 1:], None)):
        save_dataset_csv(Dataset(points, labels=lab), p)
        assert p.read_bytes() == _reference_dataset_csv(points, lab)
    save_dataset_csv(Dataset(WRITER_VALUES, labels=labels), p, label_name="class")
    assert p.read_bytes() == _reference_dataset_csv(WRITER_VALUES, labels, "class")

    post = np.abs(WRITER_VALUES) / np.abs(WRITER_VALUES).sum(axis=1, keepdims=True)
    post[2] = [0.1 + 0.2, 0.7]
    save_posteriors_csv(post, p)
    assert p.read_bytes() == _reference_posteriors_csv(post)

    # one row, a block's worth of rows either side of the block size, and
    # three blocks with a ragged tail; magnitudes from 1e-300 to 1e300
    rng = np.random.default_rng(301)
    block = pairmix_io._WRITE_ROWS
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        points = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 301, size=(n, 3))
        for lab in (rng.integers(0, 2**62, size=n), None):
            save_dataset_csv(Dataset(points, labels=lab), p)
            assert p.read_bytes() == _reference_dataset_csv(points, lab)
        post = rng.random((n, 4))
        post /= post.sum(axis=1, keepdims=True)
        save_posteriors_csv(post, p)
        assert p.read_bytes() == _reference_posteriors_csv(post)


def test_writers_peak_memory_is_bounded(tmp_path):
    # N = 1e5 rows, about 4 MB of text each: a block at a time the writers
    # peak at 0.74 MB (dataset) and 1.53 MB (posteriors, with their N-long
    # argmax); holding the whole file as rows and text took about 23 MB
    n = 100_000
    rng = np.random.default_rng(302)
    ds = Dataset(rng.normal(size=(n, 2)), labels=np.repeat([0, 1], n // 2))
    post = rng.random((n, 2))
    post /= post.sum(axis=1, keepdims=True)
    for write in (lambda: save_dataset_csv(ds, tmp_path / "d.csv"),
                  lambda: save_posteriors_csv(post, tmp_path / "p.csv")):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"peak {peak / 1e6:.2f} MB"


class _FailingHandle:
    """A text handle whose ``fail_at``-th ``write`` raises ``exc``."""

    def __init__(self, fh, fail_at, exc):
        self.fh, self.fail_at, self.exc, self.calls = fh, fail_at, exc, 0

    def write(self, text):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.exc
        return self.fh.write(text)


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                 ValueError("formatting failed")])
def test_writers_failing_block_leave_target_untouched(tmp_path, monkeypatch, exc):
    # the header is write 1, the first block write 2: the second block's
    # write raises, after part of the file reached the temporary file
    real = pairmix_io.atomic_writer

    @contextmanager
    def failing_writer(path):
        with real(path) as fh:
            yield _FailingHandle(fh, 3, exc)

    monkeypatch.setattr(pairmix_io, "atomic_writer", failing_writer)
    n = 2 * pairmix_io._WRITE_ROWS + 1
    points = np.random.default_rng(303).random((n, 2))
    target = tmp_path / "out.csv"
    target.write_bytes(b"previous contents\n")
    for write in (lambda: save_dataset_csv(Dataset(points), target),
                  lambda: save_posteriors_csv(points, target)):
        with pytest.raises(type(exc)) as info:
            write()
        if isinstance(exc, OSError):
            assert info.value.filename == str(target)
        assert target.read_bytes() == b"previous contents\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["out.csv"]


# ---------------------------------------------------------------------------
# relation files


def test_relations_round_trip_and_canonical_order(tmp_path):
    rel = RelationSet(must=[(3, 1), (0, 2)], cannot=[(5, 4)])
    p = tmp_path / "rel.txt"
    save_relations(rel, p)
    back = load_relations(p)
    assert back.must == ((0, 2), (1, 3))
    assert back.cannot == ((4, 5),)


def test_load_relations_comments_and_blanks(tmp_path):
    p = tmp_path / "rel.txt"
    p.write_text("# header comment\n\nml,0,1\n  \ncl,2,3\n")
    rel = load_relations(p)
    assert rel.must == ((0, 1),) and rel.cannot == ((2, 3),)


def test_load_relations_parse_errors(tmp_path):
    bad_kind = tmp_path / "a.txt"
    bad_kind.write_text("xx,0,1\n")
    with pytest.raises(ParseError, match="line 1"):
        load_relations(bad_kind)

    bad_arity = tmp_path / "b.txt"
    bad_arity.write_text("ml,0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_relations(bad_arity)

    bad_int = tmp_path / "c.txt"
    bad_int.write_text("ml,0,x\n")
    with pytest.raises(ParseError, match="integers"):
        load_relations(bad_int)

    self_pair = tmp_path / "d.txt"
    self_pair.write_text("ml,2,2\n")
    with pytest.raises(SelfPairError):
        load_relations(self_pair)

    conflict = tmp_path / "e.txt"
    conflict.write_text("ml,0,1\ncl,1,0\n")
    with pytest.raises(ConflictingPairError):
        load_relations(conflict)


def test_load_relations_collapses_duplicates(tmp_path):
    p = tmp_path / "rel.txt"
    p.write_text("ml,0,1\nml,1,0\ncl,2,3\ncl,2,3\n")
    rel = load_relations(p)
    assert rel.must == ((0, 1),) and rel.cannot == ((2, 3),)


# ---------------------------------------------------------------------------
# auxiliary writers


def test_save_posteriors_csv_format(tmp_path):
    p = tmp_path / "post.csv"
    save_posteriors_csv(np.array([[0.25, 0.75], [0.9, 0.1]]), p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "p0,p1,assigned"
    assert lines[1] == "0.25,0.75,1"
    assert lines[2] == "0.9,0.1,0"


def test_save_trace_csv_format(tmp_path):
    rng = np.random.default_rng(61)
    ds = Dataset(rng.standard_normal((20, 2)))
    _, trace = fit_flat(ds, RelationSet(), 2, FitConfig(max_iters=3, seed=0))
    p = tmp_path / "trace.csv"
    save_trace_csv(trace, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "iteration,log_likelihood"
    assert len(lines) == len(trace.log_likelihoods) + 1
    assert lines[1].startswith("0,")
    assert float(lines[1].split(",")[1]) == trace.log_likelihoods[0]


def test_atomic_write_overwrites_and_leaves_no_temp(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "first")
    atomic_write_text(p, "second")
    assert p.read_text() == "second"
    leftovers = [f for f in tmp_path.iterdir() if f.name.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_error_names_the_given_path(tmp_path):
    # a missing directory, and a failed rename onto a directory, are
    # reported with the path asked for, and leave no temporary file
    missing = tmp_path / "nope" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_text(missing, "text")
    assert info.value.filename == str(missing)
    assert str(missing) in str(info.value)
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        atomic_write_text(taken, "text")
    assert info.value.filename == str(taken)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["taken"]
    assert list(taken.iterdir()) == []


# ---------------------------------------------------------------------------
# command-line pipeline (subprocess level)


def package_env():
    """Environment whose PYTHONPATH starts with the directory the tested
    ``pairmix`` was imported from, so a child process started in any
    working directory runs the same code as this one."""
    env = dict(os.environ)
    root = str(Path(pairmix.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "pairmix.cli", *argv],
        capture_output=True,
        text=True,
        env=package_env(),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus relations shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    rels = root / "rels.txt"
    r1 = run_cli(
        "gen-data", "--kind", "two-cluster", "--n-per-class", "25",
        "--noise", "0.25", "--seed", "5", "--out", str(data),
    )
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(
        "gen-relations", "--data", str(data), "--label-column", "label",
        "--n-pairs", "10", "--seed", "3", "--out", str(rels),
    )
    assert r2.returncode == 0, r2.stderr
    return root, data, rels


def test_cli_fit_predict_evaluate_pipeline(workspace, tmp_path):
    root, data, rels = workspace
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    r = run_cli(
        "fit", "--data", str(data), "--label-column", "label",
        "--relations", str(rels), "--classes", "2",
        "--seed", "1", "--max-iters", "100",
        "--out", str(model), "--trace", str(trace),
    )
    assert r.returncode == 0, r.stderr
    assert "converged=" in r.stdout and "log_likelihood=" in r.stdout
    fitted = load_model(model)
    assert fitted.n_classes == 2
    assert trace.read_text().startswith("iteration,log_likelihood")

    post = tmp_path / "post.csv"
    r = run_cli(
        "predict", "--model", str(model), "--data", str(data),
        "--label-column", "label", "--out", str(post),
    )
    assert r.returncode == 0, r.stderr
    assert post.read_text().startswith("p0,p1,assigned")

    score_file = tmp_path / "score.txt"
    r = run_cli(
        "evaluate", "--model", str(model), "--data", str(data),
        "--label-column", "label", "--out", str(score_file),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("purity=")
    value = float(score_file.read_text().strip().split("=")[1])
    assert 0.5 <= value <= 1.0


def test_cli_fit_hier_clusters(workspace, tmp_path):
    root, data, rels = workspace
    model = tmp_path / "hier.json"
    r = run_cli(
        "fit", "--data", str(data), "--label-column", "label",
        "--classes", "2", "--clusters-per-class", "2,2",
        "--seed", "4", "--max-iters", "60", "--out", str(model),
    )
    assert r.returncode == 0, r.stderr
    fitted = load_model(model)
    assert fitted.cluster_counts == (2, 2)


def test_cli_byte_deterministic(workspace, tmp_path):
    root, data, rels = workspace
    outs = []
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.json"
        post = tmp_path / f"post_{tag}.csv"
        r = run_cli(
            "fit", "--data", str(data), "--relations", str(rels),
            "--label-column", "label", "--classes", "2", "--seed", "7",
            "--threads", "1", "--out", str(model),
        )
        assert r.returncode == 0, r.stderr
        r = run_cli(
            "predict", "--model", str(model), "--data", str(data),
            "--label-column", "label", "--out", str(post),
        )
        assert r.returncode == 0, r.stderr
        outs.append((model.read_bytes(), post.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_trials_command(workspace, tmp_path):
    root, data, rels = workspace
    out = tmp_path / "sweep.csv"
    r = run_cli(
        "trials", "--data", str(data), "--label-column", "label",
        "--classes", "2", "--budgets", "0,4", "--n-trials", "3",
        "--base-seed", "2", "--max-iters", "40", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "budget,trial_index,seed,purity,iterations,converged"
    assert len(lines) == 7
    assert r.stdout.count("budget=") == 2


def test_cli_trials_threads_flag_does_not_change_output(workspace, tmp_path):
    # --threads still parses but is ignored: the sweep file is the same bytes
    root, data, rels = workspace
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"sweep_{threads}.csv"
        r = run_cli(
            "trials", "--data", str(data), "--label-column", "label",
            "--classes", "2", "--budgets", "0,4", "--n-trials", "3",
            "--base-seed", "2", "--max-iters", "40", "--threads", threads,
            "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        outs.append((out.read_bytes(), r.stdout))
    assert outs[0] == outs[1]


def test_cli_pca_command(workspace, tmp_path):
    root, data, rels = workspace
    out_data = tmp_path / "proj.csv"
    out_tr = tmp_path / "transform.json"
    r = run_cli(
        "pca", "--data", str(data), "--label-column", "label", "--k", "1",
        "--out-data", str(out_data), "--out-transform", str(out_tr),
    )
    assert r.returncode == 0, r.stderr
    back = load_csv(out_data, label_column="label")
    assert back.points.shape[1] == 1
    doc = json.loads(out_tr.read_text())
    assert doc["kind"] == "pca"


def test_cli_config_file_merge(workspace, tmp_path):
    root, data, rels = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 2, "seed": 9}))
    model = tmp_path / "m.json"
    trace = tmp_path / "t.csv"
    r = run_cli(
        "fit", "--data", str(data), "--label-column", "label",
        "--classes", "2", "--config", str(cfg),
        "--out", str(model), "--trace", str(trace),
    )
    assert r.returncode == 0, r.stderr
    # config capped the run at two iterations (rows: header + init + 2)
    assert len(trace.read_text().strip().split("\n")) <= 4

    # an explicit flag overrides the config file
    r = run_cli(
        "fit", "--data", str(data), "--label-column", "label",
        "--classes", "2", "--config", str(cfg), "--max-iters", "1",
        "--out", str(model), "--trace", str(trace),
    )
    assert r.returncode == 0, r.stderr
    assert len(trace.read_text().strip().split("\n")) == 3


_OPTION_STRINGS = {
    "fit": ["--data", "--label-column", "--relations", "--classes",
            "--clusters-per-class", "--out", "--trace", "--seed", "--max-iters",
            "--tol", "--ridge-floor", "--count-linked-as-unsupervised"],
    "predict": ["--model", "--data", "--label-column", "--out"],
    "evaluate": ["--model", "--data", "--label-column", "--out"],
    "gen-relations": ["--data", "--label-column", "--n-pairs", "--mode", "--seed",
                      "--out"],
    "gen-data": ["--kind", "--n-per-class", "--noise", "--seed", "--out"],
    "trials": ["--data", "--label-column", "--classes", "--clusters-per-class",
               "--budgets", "--mode", "--n-trials", "--base-seed", "--max-iters",
               "--tol", "--ridge-floor", "--out"],
    "pca": ["--data", "--label-column", "--k", "--out-data", "--out-transform"],
}


def test_cli_option_strings_per_command():
    # no option is added, dropped or reordered on any command
    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and a.dest == "command")
    assert list(sub.choices) == list(_OPTION_STRINGS)
    for command, options in _OPTION_STRINGS.items():
        got = [s for a in sub.choices[command]._actions for s in a.option_strings]
        assert got == ["-h", "--help", *options, "--config", "--threads"], command


def _cli_run(monkeypatch, capsys, root, argv, config=None):
    """Exit code, stdout and output files of ``cli.main(argv)`` run in a
    fresh directory ``root``, with ``config`` as its ``--config`` file."""
    root.mkdir()
    monkeypatch.chdir(root)
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    code = cli.main(argv)
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.name != "cfg.json"}
    return code, capsys.readouterr().out, files


# (command, config entry, the same value as flags, flags that must override it)
_CONFIG_KINDS = {
    "number": ("fit", {"seed": 4}, ["--seed", "4"], ["--seed", "7"]),
    "numeric-string": ("fit", {"max_iters": "3"}, ["--max-iters", "3"],
                       ["--max-iters", "1"]),
    "switch-true": ("fit", {"count_linked_as_unsupervised": True},
                    ["--count-linked-as-unsupervised"], None),
    "switch-false": ("fit", {"count_linked_as_unsupervised": False}, [],
                     ["--count-linked-as-unsupervised"]),
    "list": ("fit-two-level", {"clusters_per_class": [2, 2]},
             ["--clusters-per-class", "2,2"], ["--clusters-per-class", "1,2"]),
    "choice": ("trials", {"mode": "must-only"}, ["--mode", "must-only"],
               ["--mode", "cannot-only"]),
    "trials-list-number": ("trials", {"clusters_per_class": [2, 2], "base_seed": 5},
                           ["--clusters-per-class", "2,2", "--base-seed", "5"],
                           ["--clusters-per-class", "1", "--base-seed", "6"]),
}


@pytest.mark.parametrize("kind", list(_CONFIG_KINDS))
def test_cli_config_value_equals_flag_and_flag_wins(workspace, tmp_path, monkeypatch,
                                                    capsys, kind):
    # a config entry writes the same bytes and stdout as the same value given
    # as a flag, and a flag given alongside the config wins
    root, data, rels = workspace
    command, entry, same, override = _CONFIG_KINDS[kind]
    data_args = ["--data", str(data), "--label-column", "label"]
    base = {
        "fit": ["fit", *data_args, "--relations", str(rels), "--classes", "2",
                "--out", "m.json", "--trace", "t.csv"],
        "fit-two-level": ["fit", *data_args, "--relations", str(rels),
                          "--classes", "2", "--seed", "2", "--max-iters", "40",
                          "--out", "m.json", "--trace", "t.csv"],
        "trials": ["trials", *data_args, "--classes", "2", "--budgets", "0,6",
                   "--n-trials", "3", "--max-iters", "20", "--out", "t.csv"],
    }[command]
    from_config = _cli_run(monkeypatch, capsys, tmp_path / "config", base, entry)
    from_flags = _cli_run(monkeypatch, capsys, tmp_path / "flags", [*base, *same])
    assert from_config[0] == 0
    assert from_config == from_flags
    if override is not None:
        both = _cli_run(monkeypatch, capsys, tmp_path / "both", [*base, *override], entry)
        flag_only = _cli_run(monkeypatch, capsys, tmp_path / "flag", [*base, *override])
        assert both == flag_only
        assert both[2] != from_config[2]


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"max_iters": "abc"}, "config value 'abc' is not valid for 'max_iters'"),
        ({"max_iter": 3}, "config key 'max_iter' is not an option of 'fit'"),
        ({"mixing_iters": 20}, "config key 'mixing_iters' is not an option of 'fit'"),
    ],
)
def test_cli_config_bad_entry_exit_3(workspace, tmp_path, entry, message):
    # a config value the flag would not parse, or a key that names no
    # option of the command, is an input error: one error line, no output
    root, data, rels = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    model = tmp_path / "m.json"
    r = run_cli(
        "fit", "--data", str(data), "--label-column", "label",
        "--classes", "2", "--config", str(cfg), "--out", str(model),
    )
    assert r.returncode == 3
    assert r.stderr == f"error: ParseError: {message}\n"
    assert not model.exists()


def test_cli_fit_has_an_option_for_every_fit_config_field(workspace, tmp_path):
    # the CLI builds FitConfig field by field from same-named options and
    # falls back to the default for a field with none, so each needs a flag
    ns = build_parser().parse_args(["fit", "--data", "d", "--classes", "2", "--out", "o"])
    options = {a.dest for a in ns.command_parser._actions}
    assert {f.name for f in fields(FitConfig)} <= options
    root, data, rels = workspace
    r = run_cli(
        "fit", "--data", str(data), "--classes", "2", "--mixing-iters", "20",
        "--out", str(tmp_path / "m.json"),
    )
    assert r.returncode == 2
    # trials seeds every trial itself and takes no --seed, on the command
    # line or in a config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    trials = ["trials", "--data", str(data), "--label-column", "label",
              "--classes", "2", "--budgets", "0", "--out", str(tmp_path / "t.csv")]
    r = run_cli(*trials, "--seed", "1")
    assert r.returncode == 2
    r = run_cli(*trials, "--config", str(cfg))
    assert r.returncode == 3
    assert r.stderr == "error: ParseError: config key 'seed' is not an option of 'trials'\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["fit", "trials"])
@pytest.mark.parametrize(
    "args, config, message",
    [
        (["--clusters-per-class", "1,1,1"], None,
         "LengthMismatchError: got 3 cluster counts for 2 classes"),
        (["--clusters-per-class", "2,2,2"], None,
         "LengthMismatchError: got 3 cluster counts for 2 classes"),
        (["--clusters-per-class", "0,0"], None,
         "InvariantViolationError: every class needs at least one cluster"),
        (["--clusters-per-class", ""], None,
         "ParseError: expected a comma-separated integer list, got ''"),
        (["--clusters-per-class", ","], None,
         "ParseError: expected a comma-separated integer list, got ','"),
        ([], {"clusters_per_class": []},
         "ParseError: config value [] is not valid for 'clusters_per_class'"),
        (["--classes", "0"], None, "InvariantViolationError: need at least one class"),
        (["--classes", "-1"], None, "InvariantViolationError: need at least one class"),
    ],
    ids=["counts-1,1,1", "counts-2,2,2", "counts-0,0", "counts-empty", "counts-comma",
         "config-counts-empty", "classes-0", "classes-neg"],
)
def test_cli_model_shape_errors_exit_3(workspace, tmp_path, monkeypatch, capsys, command,
                                       args, config, message):
    # a class or cluster count that no data could fit is an input error
    # before any fit or trial runs: one error line, no output file
    root, data, rels = workspace
    out = tmp_path / "out"
    argv = [command, "--data", str(data), "--label-column", "label", "--classes", "2",
            *args, "--out", str(out)]
    if command == "trials":
        argv += ["--budgets", "0", "--n-trials", "1"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "budgets, config, message",
    [
        ("", None, "expected a comma-separated integer list, got ''"),
        (",", None, "expected a comma-separated integer list, got ','"),
        ("0", {"budgets": []}, "config value [] is not valid for 'budgets'"),
    ],
    ids=["empty", "comma", "config-empty"],
)
def test_cli_trials_empty_budgets_exit_3(workspace, tmp_path, capsys, budgets, config,
                                         message):
    # a sweep over no budget is an input error, on the command line or in a
    # config file, and writes no header-only trials CSV
    root, data, rels = workspace
    out = tmp_path / "t.csv"
    argv = ["trials", "--data", str(data), "--label-column", "label", "--classes", "2",
            "--budgets", budgets, "--n-trials", "1", "--out", str(out)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: ParseError: {message}\n"
    assert not out.exists()


def test_cli_exit_code_2_usage():
    r = run_cli("fit", "--classes", "2")  # --data and --out missing
    assert r.returncode == 2
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_cli_exit_code_3_bad_input(workspace, tmp_path):
    root, data, rels = workspace
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    r = run_cli(
        "fit", "--data", str(bad), "--classes", "2",
        "--out", str(tmp_path / "m.json"),
    )
    assert r.returncode == 3
    assert r.stderr.startswith("error: NonNumericFeatureError:")

    conflicted = tmp_path / "conflict.txt"
    conflicted.write_text("ml,0,1\ncl,0,1\n")
    r = run_cli(
        "fit", "--data", str(data), "--relations", str(conflicted),
        "--classes", "2", "--out", str(tmp_path / "m.json"),
    )
    assert r.returncode == 3
    assert r.stderr.startswith("error: ConflictingPairError:")


def test_cli_bad_label_cell_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,label\n1,2,0\n3,4,nan\n")
    out = tmp_path / "rels.txt"
    r = run_cli(
        "gen-relations", "--data", str(bad), "--label-column", "label",
        "--n-pairs", "1", "--seed", "0", "--out", str(out),
    )
    assert r.returncode == 3
    assert r.stderr == (
        "error: ParseError: line 3, column 2: label 'nan' is not an integer\n"
    )
    assert not out.exists()


def test_cli_oversized_cell_exit_3(tmp_path):
    wide = _oversized_cell_csv(tmp_path / "wide.csv")
    out_data, out_tr = tmp_path / "proj.csv", tmp_path / "pca.json"
    r = run_cli(
        "pca", "--data", str(wide), "--k", "1",
        "--out-data", str(out_data), "--out-transform", str(out_tr),
    )
    assert r.returncode == 3
    assert r.stderr == (
        "error: ParseError: line 2: field larger than field limit (131072)\n"
    )
    assert not out_data.exists() and not out_tr.exists()


def _undecodable(path, text: str):
    # valid UTF-8 text with one 0xff byte inserted after the first line
    head, tail = text.split("\n", 1)
    path.write_bytes(head.encode() + b"\n\xff" + tail.encode())
    return path


def _model_doc(tmp_path, **fields):
    """A valid flat model document with ``fields`` replaced at top level or,
    for ``means``, in the first class."""
    path = tmp_path / "model.json"
    save_model(FlatModel(alpha=[0.5, 0.5], means=[[0.0, 0.0], [3.0, 3.0]],
                         covs=[np.eye(2), np.eye(2)]), path)
    doc = json.loads(path.read_text())
    for key, value in fields.items():
        (doc["classes"][0] if key == "means" else doc)[key] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("kind", ["data", "relations", "config", "alpha", "means"])
def test_cli_malformed_input_file_exit_3(workspace, tmp_path, kind):
    # a file that is not UTF-8 text, or a model document whose arrays are
    # not arrays of numbers, is an input error: one error line, no output
    root, data, rels = workspace
    outs = [tmp_path / "out.json"]
    if kind == "data":
        bad = _undecodable(tmp_path / "d.csv", data.read_text())
        outs = [tmp_path / "proj.csv", tmp_path / "pca.json"]
        argv = ["pca", "--data", str(bad), "--k", "1",
                "--out-data", str(outs[0]), "--out-transform", str(outs[1])]
        want = f"error: ParseError: {bad}: not UTF-8 text (invalid start byte)\n"
    elif kind in ("relations", "config"):
        if kind == "relations":
            bad = _undecodable(tmp_path / "r.txt", rels.read_text())
        else:
            bad = _undecodable(tmp_path / "c.json", '{"seed": 1,\n"max_iters": 5}')
        argv = ["fit", "--data", str(data), "--label-column", "label",
                "--classes", "2", f"--{kind}", str(bad), "--out", str(outs[0])]
        want = f"error: ParseError: {bad}: not UTF-8 text (invalid start byte)\n"
    else:
        if kind == "alpha":
            bad = _model_doc(tmp_path, alpha=["half", 0.5])
            want = "alpha"
        else:
            bad = _model_doc(tmp_path, means=[[0.0, 0.0], [1.0]])
            want = "classes[0].means"
        outs = [tmp_path / "post.csv"]
        argv = ["predict", "--model", str(bad), "--data", str(data),
                "--label-column", "label", "--out", str(outs[0])]
        want = f"error: SchemaMismatchError: {want} is not a rectangular array of numbers\n"
    r = run_cli(*argv)
    assert r.returncode == 3
    assert r.stderr == want
    assert not any(out.exists() for out in outs)


def _error_classes(base=PairmixError):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_cli_exit_code_by_error_family(monkeypatch, capsys, tmp_path, error):
    # numerical failures exit 4 and every other error of the package exits
    # 3, so a new error class can never end in a traceback
    exc = error("detail")

    def command(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_gen_data", command)
    code = cli.main(["gen-data", "--kind", "two-cluster", "--n-per-class", "2",
                     "--out", str(tmp_path / "d.csv")])
    numeric = (DegenerateNormalizerError, NoConvergenceError)
    assert code == (4 if issubclass(error, numeric) else 3)
    assert capsys.readouterr().err == f"error: {error.__name__}: {exc}\n"


@pytest.fixture
def overflow_dir(tmp_path, monkeypatch):
    """A working directory with a 50-row dataset (``unit.csv``), the same
    rows scaled by 1e160 (``huge.csv``), whose squared distances overflow
    float64, by 1e153 (``large.csv``), whose squared distances are finite
    but sum past float64, and by 1e150 (``wide.csv``), and models fitted on
    the unit rows (``unit.json``) and on the rows scaled by 1e-150
    (``tight.json``)."""
    ds = pairmix.gen_synthetic("two-cluster", 25, 0.25, seed=0)
    save_dataset_csv(ds, tmp_path / "unit.csv")
    for name, scale in (("huge", 1e160), ("large", 1e153), ("wide", 1e150)):
        save_dataset_csv(Dataset(ds.points * scale, labels=ds.labels), tmp_path / f"{name}.csv")
    save_model(fit_flat(ds, RelationSet(), 2, FitConfig(seed=0))[0], tmp_path / "unit.json")
    tight = Dataset(ds.points * 1e-150, labels=ds.labels)
    save_model(fit_flat(tight, RelationSet(), 2, FitConfig(seed=0))[0], tmp_path / "tight.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


HUGE = ["--data", "huge.csv", "--label-column", "label"]
LARGE = ["--data", "large.csv", "--label-column", "label"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", *HUGE, "--classes", "2", "--out", "out.json", "--trace", "trace.csv"],
        ["fit", *HUGE, "--classes", "2", "--clusters-per-class", "2", "--out", "out.json"],
        ["fit", *LARGE, "--classes", "2", "--out", "out.json"],
        ["fit", *LARGE, "--classes", "2", "--clusters-per-class", "2", "--out", "out.json"],
        ["predict", "--model", "unit.json", *HUGE, "--out", "out.csv"],
        ["evaluate", "--model", "unit.json", *HUGE, "--out", "out.txt"],
        ["fit", *HUGE, "--classes", "1", "--out", "out.json"],
        ["pca", *HUGE, "--k", "1", "--out-data", "out.csv", "--out-transform", "out.json"],
        ["predict", "--model", "tight.json", *HUGE, "--out", "out.csv"],
        ["fit", "--data", "wide.csv", "--label-column", "label", "--classes", "2",
         "--ridge-floor", "1e300", "--out", "out.json"],
    ],
    ids=["fit", "fit-two-level", "fit-sum", "fit-two-level-sum", "predict", "evaluate",
         "fit-one-class", "pca", "predict-tight-model", "fit-ridge-floor"],
)
def test_cli_overflowing_data_exit_3(overflow_dir, capsys, argv):
    # fitting data whose squared distances (or only their sum, or one
    # class's covariance) overflow, projecting data whose covariance does,
    # fitting with a ridge floor that does, or predicting points with zero
    # density under every class (whose quadratic forms may overflow too) is
    # an input error: exit 3, one error line, no output and no temporary
    # file.  The suite turns warnings into errors, so a RuntimeWarning on
    # the way would not exit 3
    before = sorted(p.name for p in overflow_dir.iterdir())
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: NotFiniteError: ")
    assert sorted(p.name for p in overflow_dir.iterdir()) == before


@pytest.mark.parametrize("data", [HUGE, LARGE], ids=["distances", "sum"])
def test_cli_trials_on_overflowing_data_records_failures(overflow_dir, capsys, data):
    # each trial fails at its initialization and the sweep records it
    argv = ["trials", *data, "--classes", "2", "--budgets", "0,2", "--n-trials", "2",
            "--out", "trials.csv"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("budget=0 mean= std= failed=2\n"
                            "budget=2 mean= std= failed=2\n")
    rows = [r.split(",") for r in (overflow_dir / "trials.csv").read_text().splitlines()]
    assert len(rows) == 5 and all(r[3] == "" and r[5] == "false" for r in rows[1:])
    # the unit-scale rows fit and score as usual
    assert cli.main(["evaluate", "--model", "unit.json", "--data", "unit.csv",
                     "--label-column", "label"]) == 0
    assert capsys.readouterr().out == "purity=1.0\n"


def test_cli_exit_code_4_numeric(workspace, tmp_path):
    root, data, rels = workspace
    # a cannot-link with a single class has no valid normalizer
    cl = tmp_path / "cl.txt"
    cl.write_text("cl,0,1\n")
    r = run_cli(
        "fit", "--data", str(data), "--relations", str(cl),
        "--classes", "1", "--out", str(tmp_path / "m.json"),
    )
    assert r.returncode == 4
    assert r.stderr.startswith("error: DegenerateNormalizerError:")


def test_cli_exit_code_5_missing_file(tmp_path):
    r = run_cli(
        "fit", "--data", str(tmp_path / "nope.csv"), "--classes", "2",
        "--out", str(tmp_path / "m.json"),
    )
    assert r.returncode == 5
    assert r.stderr.startswith("error: FileNotFoundError:")


def test_cli_missing_output_directory_exit_5(workspace, tmp_path):
    root, data, rels = workspace
    out = tmp_path / "nope" / "m.json"
    r = run_cli("fit", "--data", str(data), "--classes", "2", "--out", str(out))
    assert r.returncode == 5
    assert r.stderr == (
        f"error: FileNotFoundError: [Errno 2] No such file or directory: '{out}'\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen-data", "gen-relations", "fit", "trials"])
def test_cli_negative_seed_is_rejected(workspace, tmp_path, command, route):
    # numpy seeds only with non-negative integers: a negative seed is a
    # usage error on the command line and an input error in a config file
    root, data, rels = workspace
    out = tmp_path / "out"
    dest = "base_seed" if command == "trials" else "seed"
    flag = "--" + dest.replace("_", "-")
    argv = {
        "gen-data": ["--kind", "two-cluster", "--n-per-class", "5"],
        "gen-relations": ["--data", str(data), "--label-column", "label",
                          "--n-pairs", "2"],
        "fit": ["--data", str(data), "--classes", "2"],
        "trials": ["--data", str(data), "--label-column", "label", "--classes", "2",
                   "--budgets", "0", "--n-trials", "1"],
    }[command]
    if route == "flag":
        r = run_cli(command, *argv, flag, "-1", "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.splitlines()[-1] == (
            f"pairmix {command}: error: argument {flag}: "
            "must be a non-negative integer, got -1"
        )
        assert r.stderr.count("error:") == 1
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: -1}))
        r = run_cli(command, *argv, "--config", str(cfg), "--out", str(out))
        assert r.returncode == 3
        assert r.stderr == f"error: ParseError: config value -1 is not valid for '{dest}'\n"
    assert not out.exists()


def test_cli_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("pairmix ")


def test_cli_import_leaves_scipy_unloaded():
    # the package depends on numpy alone; scipy's import would double the
    # start-up time of every CLI command
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairmix.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
