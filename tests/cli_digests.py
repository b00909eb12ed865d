"""Digests of what the command line does, for comparing two trees.

Run from a checkout, with the ``pairmix`` to test first on ``PYTHONPATH``::

    PYTHONPATH=src python tests/cli_digests.py > after.txt

Each command runs as a child ``python -m pairmix.cli`` in one temporary
directory, with relative paths, in the order listed below: the A9 pipeline,
a 12 000-row dataset predicted and projected (more than one block of rows
for the CSV writers), ``--config`` cases, and error cases (``bad_rel.txt``
names a point that no dataset here has; ``huge.csv`` holds 50 points about
1e160 apart, whose squared distances overflow float64 and which have zero
density under the model fitted on ``data.csv``).  Each prints one line: its label,
exit code, and the first 16 hex digits of the SHA-256 of its stdout, its
stderr and every file it created or changed.  Each ``--help`` page prints
one line too.  Run the script on two trees and ``diff`` the outputs: no
difference means the same exit codes, stdout, stderr and output bytes.
Fits in the children are not seen by the in-process ``tests/fit_digests.py``.

A hash cannot tell a last-digit change from a change of behaviour, so the
outputs can be kept and compared number by number::

    PYTHONPATH=src python tests/cli_digests.py --keep /tmp/after > after.txt
    python tests/cli_digests.py --compare /tmp/before /tmp/after

``--keep DIR`` saves each command's stdout, stderr and the files it
created or changed under ``DIR/<label>/`` (a ``--help`` page under
``DIR/help-<command>/``).  ``--compare A B`` prints one line per file of
either tree: ``identical``; where the text between the numbers matches,
the largest relative difference over the numbers; otherwise ``text
differs`` (or ``only in A`` / ``only in B``).  It exits with status 1 when
any file's text differs or is missing from one tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = ["--data", "data.csv", "--label-column", "label"]
FIT = ["fit", *DATA, "--relations", "rel.txt", "--classes", "2", "--seed", "7"]
TRIALS = ["trials", *DATA, "--classes", "2", "--budgets", "0,2", "--n-trials", "3",
          "--max-iters", "20"]

# (label, argv, config file contents or None)
COMMANDS = [
    # the A9 pipeline
    ("gen-data", ["gen-data", "--kind", "two-cluster", "--n-per-class", "40",
                  "--noise", "0.25", "--seed", "5", "--out", "data.csv"], None),
    ("gen-relations", ["gen-relations", *DATA, "--n-pairs", "6", "--seed", "3",
                       "--out", "rel.txt"], None),
    ("fit", [*FIT, "--threads", "1", "--out", "model.json", "--trace", "trace.csv"],
     None),
    ("fit-two-level", [*FIT, "--clusters-per-class", "2,2", "--threads", "1",
                       "--out", "model_h.json"], None),
    ("predict", ["predict", "--model", "model.json", *DATA, "--out", "post.csv"], None),
    ("evaluate", ["evaluate", "--model", "model.json", *DATA, "--out", "eval.txt"],
     None),
    ("trials", ["trials", *DATA, "--classes", "2", "--budgets", "0,2,4",
                "--n-trials", "3", "--base-seed", "11", "--threads", "1",
                "--out", "trials.csv"], None),
    ("pca", ["pca", *DATA, "--k", "1", "--out-data", "proj.csv",
             "--out-transform", "pca.json"], None),
    ("gen-data-default-noise", ["gen-data", "--kind", "two-moons", "--n-per-class",
                                "10", "--out", "moons.csv"], None),
    ("gen-relations-cannot-only", ["gen-relations", *DATA, "--n-pairs", "6", "--seed",
                                   "3", "--mode", "cannot-only", "--out", "rel_c.txt"],
     None),
    # 12 000 rows: the result CSVs are written in more than one block of rows
    ("gen-data-blocks", ["gen-data", "--kind", "two-cluster", "--n-per-class", "6000",
                         "--noise", "0.25", "--seed", "9", "--out", "big.csv"], None),
    ("predict-blocks", ["predict", "--model", "model.json", "--data", "big.csv",
                        "--label-column", "label", "--out", "big_post.csv"], None),
    ("pca-blocks", ["pca", "--data", "big.csv", "--label-column", "label", "--k", "1",
                    "--out-data", "big_proj.csv", "--out-transform", "big_pca.json"],
     None),
    # values from a --config file, alone and under a flag
    ("config-list", [*FIT, "--out", "c_list.json"], {"clusters_per_class": [2, 2]}),
    ("config-numeric-string", [*FIT, "--out", "c_str.json", "--trace", "c_str.csv"],
     {"max_iters": "3"}),
    ("config-number", [*FIT, "--out", "c_num.json"], {"tol": 1e-3, "ridge_floor": 1e-5}),
    ("config-switch-true", [*FIT, "--out", "c_true.json"],
     {"count_linked_as_unsupervised": True}),
    ("config-switch-false", [*FIT, "--out", "c_false.json"],
     {"count_linked_as_unsupervised": False}),
    ("config-choice", [*TRIALS, "--out", "c_choice.csv"], {"mode": "cannot-only"}),
    ("config-flag-wins", [*TRIALS, "--mode", "must-only", "--max-iters", "5",
                          "--out", "c_wins.csv"], {"mode": "cannot-only", "max_iters": 9}),
    ("config-seeds", ["gen-relations", *DATA, "--n-pairs", "4", "--out", "c_rel.txt"],
     {"seed": 2, "mode": "must-only"}),
    ("config-optional-out", ["evaluate", "--model", "model.json", *DATA],
     {"out": "c_eval.txt"}),
    ("config-bad-choice", [*TRIALS, "--out", "c_bad.csv"], {"mode": "sometimes"}),
    ("config-unknown-key", [*FIT, "--out", "c_key.json"], {"max_iter": 3}),
    ("config-required-only", [*FIT], {"out": "c_req.json"}),
    ("config-not-object", [*FIT, "--out", "c_obj.json"], [1, 2]),
    # errors
    ("fit-classes-0", ["fit", *DATA, "--classes", "0", "--out", "e0.json"], None),
    ("fit-classes-neg", ["fit", *DATA, "--classes", "-1", "--out", "e1.json"], None),
    ("fit-clusters-too-many", [*FIT, "--clusters-per-class", "1,1,1",
                               "--out", "e2.json"], None),
    ("fit-clusters-empty", [*FIT, "--clusters-per-class", "", "--out", "e3.json"], None),
    ("fit-clusters-bad", [*FIT, "--clusters-per-class", "2,x", "--out", "e4.json"], None),
    ("trials-classes-0", ["trials", *DATA, "--classes", "0", "--budgets", "0",
                          "--n-trials", "1", "--out", "e5.csv"], None),
    ("trials-clusters-too-many", [*TRIALS, "--clusters-per-class", "1,1,1",
                                  "--out", "e6.csv"], None),
    ("trials-clusters-zero", [*TRIALS, "--clusters-per-class", "0,0",
                              "--out", "e7.csv"], None),
    ("trials-budgets-empty", ["trials", *DATA, "--classes", "2", "--budgets", "",
                              "--out", "e8.csv"], None),
    ("trials-budgets-comma", ["trials", *DATA, "--classes", "2", "--budgets", ",",
                              "--out", "e9.csv"], None),
    ("trials-budgets-config-empty", [*TRIALS, "--out", "e10.csv"], {"budgets": []}),
    ("trials-clusters-config-empty", [*TRIALS, "--out", "e11.csv"],
     {"clusters_per_class": []}),
    ("trials-no-label", ["trials", "--data", "data.csv", "--classes", "2",
                             "--budgets", "0", "--out", "e12.csv"], None),
    ("fit-bad-tol", [*FIT, "--tol", "0", "--out", "e13.json"], None),
    ("fit-bad-relation", ["fit", *DATA, "--relations", "bad_rel.txt", "--classes", "2",
                          "--out", "e14.json"], None),
    ("fit-bad-relation-and-tol", ["fit", *DATA, "--relations", "bad_rel.txt",
                                  "--classes", "2", "--tol", "0", "--out", "e14.json"],
     None),
    ("fit-negative-seed", ["fit", *DATA, "--classes", "2", "--seed", "-1",
                           "--out", "e14.json"], None),
    ("fit-missing-data", ["fit", "--data", "nope.csv", "--classes", "2",
                          "--out", "e15.json"], None),
    ("fit-missing-outdir", [*FIT, "--out", "nope/e16.json"], None),
    ("gen-data-bad-kind", ["gen-data", "--kind", "spiral", "--n-per-class", "3",
                           "--out", "e17.csv"], None),
    # 80 points have 80·79/2 = 3 160 pairs
    ("gen-relations-over-capacity", ["gen-relations", *DATA, "--n-pairs", "3161",
                                     "--out", "e18.txt"], None),
]

HUGE = ["--data", "huge.csv", "--label-column", "label"]
COMMANDS += [
    ("fit-overflow", ["fit", *HUGE, "--classes", "2", "--out", "e19.json"], None),
    ("fit-two-level-overflow", ["fit", *HUGE, "--classes", "2", "--clusters-per-class",
                                "2", "--out", "e19.json"], None),
    ("trials-overflow", ["trials", *HUGE, "--classes", "2", "--budgets", "0,2",
                         "--n-trials", "2", "--out", "e20.csv"], None),
    ("predict-overflow", ["predict", "--model", "model.json", *HUGE, "--out", "e21.csv"],
     None),
    ("evaluate-overflow", ["evaluate", "--model", "model.json", *HUGE,
                           "--out", "e22.txt"], None),
]

HELP = [[], ["fit"], ["predict"], ["evaluate"], ["gen-relations"], ["gen-data"],
        ["trials"], ["pca"]]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def _run(argv, cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pairmix.cli", *argv],
                          capture_output=True, cwd=cwd, env=env)


def _keep(keep: Path | None, label: str, proc, written: dict[str, bytes]) -> None:
    if keep is None:
        return
    out = keep / label
    out.mkdir(parents=True, exist_ok=True)
    for name, data in {**written, "stdout": proc.stdout, "stderr": proc.stderr}.items():
        (out / name).write_bytes(data)


def run(keep: Path | None) -> None:
    # the children run elsewhere, so a relative PYTHONPATH entry is made
    # absolute; help text wraps at the width a child reads from COLUMNS
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in path if p))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "bad_rel.txt").write_text("ml,0,999\n")
        (root / "huge.csv").write_text("x0,x1,label\n" + "".join(
            f"{(i % 10) * 1e160 + (i // 25) * 3e161!r},{(i % 7) * -1e160!r},{i // 25}\n"
            for i in range(50)))
        for label, argv, config in COMMANDS:
            if config is not None:
                (root / "cfg.json").write_text(json.dumps(config))
                argv = [*argv, "--config", "cfg.json"]
            before = _files(root)
            proc = _run(argv, root, env)
            (root / "cfg.json").unlink(missing_ok=True)
            written = {name: data for name, data in sorted(_files(root).items())
                       if before.get(name) != data}
            _keep(keep, label, proc, written)
            files = " ".join(f"{name}={_digest(data)}" for name, data in written.items())
            print(f"{label} exit={proc.returncode} stdout={_digest(proc.stdout)} "
                  f"stderr={_digest(proc.stderr)} {files}".rstrip())
        for argv in HELP:
            proc = _run([*argv, "--help"], root, env)
            _keep(keep, f"help-{argv[0] if argv else 'pairmix'}", proc, {})
            print(f"help {' '.join(argv) or 'pairmix'} exit={proc.returncode} "
                  f"stdout={_digest(proc.stdout)} stderr={_digest(proc.stderr)}")


# a decimal or exponent number, or a word a float's repr can print
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b")


def compare_text(a: str, b: str) -> str:
    """``identical``; the largest relative difference over the numbers of
    two texts whose other characters match; or ``text differs``."""
    if a == b:
        return "identical"
    if _NUMBER.split(a) != _NUMBER.split(b):  # equal text, so as many numbers
        return "text differs"
    worst = 0.0
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x != y:
            x, y = float(x), float(y)
            rel = abs(x - y) / abs(x) if x else abs(y)
            worst = max(worst, rel if rel == rel else math.inf)  # NaN: no bound
    return f"numbers differ by at most {worst:.3g} relative"


def compare(a: Path, b: Path) -> int:
    """Print one line per file of either kept tree; 1 when any file's text
    differs or is missing from one tree."""
    names = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    status = 0
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            verdict = f"only in {'B' if (b / name).is_file() else 'A'}"
        else:
            verdict = compare_text((a / name).read_text(errors="replace"),
                                   (b / name).read_text(errors="replace"))
        status |= verdict.startswith(("text", "only"))
        print(f"{name}: {verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="save each command's stdout, stderr and files under DIR/<label>/")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two --keep trees number by number, and run nothing")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    run(args.keep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
