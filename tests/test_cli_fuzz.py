"""A seeded fuzz of the command line, run in process through ``cli.main``.

Each case writes a small labeled dataset at a random magnitude (1e-310 to
1e300), often with one bad cell (``nan``, ``inf``, blank, hex) or a ragged
row, a relation file with random bad lines, and sometimes a ``--config``
file of random entries; then it runs one of ``fit`` (flat or two-level),
``trials``, ``predict``, ``evaluate`` (on a model fitted earlier in the same
case), ``pca`` or ``gen-relations`` with random class and cluster counts.

Every run must end in a documented exit code, 0, 2 (usage), 3 (input),
4 (numerical) or 5 (filesystem).  A failure prints exactly one ``error:``
line, nothing else but argparse's usage, and leaves no new or changed file
and no ``.tmp-*~`` file.  A success writes no non-finite number to any
file or to stdout.
"""

import json
import math
import re
from pathlib import Path

import numpy as np

import pairmix
from pairmix import cli

N_CASES = 160
SCALES = (1e-310, 1e-300, 1e-150, 1.0, 1.0, 1e150, 1e153, 1e160, 1e300)
BAD_CELLS = ("nan", "inf", "-inf", "", " ", "0x1p3", "1e999", "abc")
COMMANDS = ("fit", "fit-two-level", "trials", "predict", "evaluate", "pca",
            "gen-relations")
CLASSES = ("2", "2", "3", "1", "0", "-1", "30", "x")
CLUSTERS = ("1", "2", "2,1", "1,2,3", "0", "", "x")
BAD_RELATIONS = ("xx,0,1", "ml,0.5,1", "ml,0,99999999999999999999", "cl,-1,2",
                 "ml,0,1,2", "ml,0", "cl,3,3", "ml,0,{n}", "cl,0,1\nml,0,1")
CONFIG_VALUES = {
    "max_iters": (3, "3", 0, -1, 1.5, "abc", True, None, [2]),
    "tol": (1e-3, 0, -1.0, "x", 1e300, 1e-300),
    "ridge_floor": (1e-5, 0.0, -1.0, 1e300),
    "seed": (2, -1, 2**70, 1.5),
    "clusters_per_class": ([2, 1], [], [0], "2", [1.5]),
    "classes": (2, 0, "2"),
    "count_linked_as_unsupervised": (True, False, 1, "yes"),
    "no_such_option": (1,),
}
# a number in a written file, or a word that float() reads as NaN or infinite
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?\b(?:nan|inf|NaN|Infinity)\b")


def _data_csv(rng, ds) -> str:
    scale = SCALES[rng.integers(len(SCALES))]
    rows = [[repr(float(v)) for v in row * scale] + [str(label)]
            for row, label in zip(ds.points, ds.labels)]
    mutation = rng.integers(6)
    r, c = rng.integers(len(rows)), rng.integers(len(rows[0]))
    if mutation == 1:
        rows[r][c] = BAD_CELLS[rng.integers(len(BAD_CELLS))]
    elif mutation == 2:
        rows[r] = rows[r][:-1] if rng.random() < 0.5 else rows[r] + ["1.0"]
    return "x0,x1,label\n" + "".join(",".join(row) + "\n" for row in rows)


def _relations(rng, n) -> str:
    lines = [f"ml,{i},{i + 1}" for i in rng.choice(n // 2 - 1, size=2, replace=False)]
    lines.append(f"cl,0,{n - 1}")
    if rng.random() < 0.3:
        lines.insert(rng.integers(len(lines) + 1),
                     BAD_RELATIONS[rng.integers(len(BAD_RELATIONS))].format(n=n))
    return "".join(line + "\n" for line in lines)


def _config(rng) -> str:
    keys = rng.choice(list(CONFIG_VALUES), size=rng.integers(1, 3), replace=False)
    if rng.random() < 0.1:
        return "{not json"
    return json.dumps({k: CONFIG_VALUES[k][rng.integers(len(CONFIG_VALUES[k]))]
                       for k in keys})


def _argv(rng, command) -> list[str]:
    data = ["--data", "data.csv", "--label-column", "label"]
    shape = ["--classes", CLASSES[rng.integers(len(CLASSES))]]
    if command == "fit-two-level" or (command == "trials" and rng.random() < 0.5):
        shape += ["--clusters-per-class", CLUSTERS[rng.integers(len(CLUSTERS))]]
    iters = ["--max-iters", "15"]
    if command in ("fit", "fit-two-level"):
        return ["fit", *data, "--relations", "rel.txt", *shape, *iters,
                "--seed", str(rng.integers(5)), "--out", "out.json", "--trace", "trace.csv"]
    if command == "trials":
        return ["trials", *data, *shape, *iters, "--budgets", "0,2", "--n-trials", "2",
                "--out", "trials.csv"]
    if command in ("predict", "evaluate"):
        return [command, "--model", "model.json", *data, "--out", f"{command}.out"]
    if command == "pca":
        return ["pca", *data, "--k", str(rng.integers(-1, 4)), "--out-data", "proj.csv",
                "--out-transform", "pca.json"]
    return ["gen-relations", *data, "--n-pairs", str(rng.choice([-1, 0, 3, 10**6])),
            "--mode", ("both", "must-only", "cannot-only", "never")[rng.integers(4)],
            "--out", "gen.txt"]


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


def _finite(text: str) -> bool:
    return all(math.isfinite(float(token)) for token in _NUMBER.findall(text))


def _run(argv, root, capsys, context) -> int:
    before = _files(root)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    after = _files(root)
    written = {name: data for name, data in after.items() if before.get(name) != data}
    where = f"{context}\npairmix {' '.join(argv)}\nstdout: {out!r}\nstderr: {err!r}"
    assert code in (0, 2, 3, 4, 5), where
    assert not any(name.startswith(".tmp-") for name in after), where
    if code:
        assert not written, where
        lines = err.splitlines()
        assert len([line for line in lines if "error:" in line]) == 1, where
        if code != 2:
            assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), where
    else:
        for name, data in written.items():
            assert _finite(data.decode()), f"{where}\nnon-finite number in {name}"
        assert _finite(out), where
    return code


def test_cli_fuzz(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(2027)
    base = pairmix.gen_synthetic("two-cluster", 12, 0.25, seed=1)
    codes = []
    for case in range(N_CASES):
        root = tmp_path / f"case{case}"
        root.mkdir()
        monkeypatch.chdir(root)
        command = COMMANDS[rng.integers(len(COMMANDS))]
        data = _data_csv(rng, base)
        (root / "data.csv").write_text(data)
        (root / "rel.txt").write_text(_relations(rng, base.n))
        context = f"case {case}\ndata.csv:\n{data}rel.txt:\n{(root / 'rel.txt').read_text()}"
        if command in ("predict", "evaluate"):
            # the model comes from a fit earlier in the case, on data of
            # its own magnitude
            (root / "fit.csv").write_text(_data_csv(rng, base))
            fit = ["fit", "--data", "fit.csv", "--label-column", "label", "--classes",
                   CLASSES[rng.integers(3)], "--max-iters", "15", "--out", "model.json"]
            if _run(fit, root, capsys, context) != 0:
                continue
        argv = _argv(rng, command)
        if rng.random() < 0.25:
            config = _config(rng)
            (root / "cfg.json").write_text(config)
            argv += ["--config", "cfg.json"]
            context += f"cfg.json: {config}\n"
        codes.append(_run(argv, root, capsys, context))
    # the draw reaches successes, usage errors and input errors
    assert {0, 2, 3}.issubset(codes), sorted(set(codes))
