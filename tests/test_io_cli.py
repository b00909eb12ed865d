"""CSV/relation file formats and the command-line pipeline."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pairmix
from pairmix import (
    ConflictingPairError,
    Dataset,
    FitConfig,
    NonNumericFeatureError,
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
from pairmix.cli import build_parser
from pairmix.io import atomic_write_text, save_posteriors_csv, save_trace_csv


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
    options = {a.dest for a in ns.config_actions}
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
