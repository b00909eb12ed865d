"""Show that the working tree gives the same results as another commit.

Run from anywhere in the repository, with the commit to compare against::

    python tests/same_results.py REV

The script extracts REV's ``src/``, ``tests/`` and ``pyproject.toml`` (the
suite's pytest settings) into a temporary directory with ``git archive``,
which leaves ``.git`` unchanged.  On each tree, REV's and the working
tree's, it runs that tree's own suite with ``-p fit_digests`` (see
``tests/fit_digests.py``) and this tree's ``tests/cli_digests.py --keep``
against that tree's ``src``.  It prints each suite's summary line, the
``fit_digests`` report, the ``cli_digests`` lines that differ and every
``--compare`` line that is not ``identical``.  It exits with status 1 when
a suite fails, a paired fit is not bit-identical, a ``cli_digests`` line
differs or a kept command-line file is not identical.

Each suite runs once, one after the other, so the whole takes about two
suite runs and two ``cli_digests`` runs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def _run(argv, cwd: Path, pythonpath: list[Path]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "tests",
                              "pyproject.toml"], cwd=ROOT, capture_output=True, check=True)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _record(tree: Path, work: Path, name: str) -> tuple[int, list[str]]:
    """Run ``tree``'s suite and the command-line digests on ``tree``'s
    ``src``; returns the suite's exit status and the digest lines."""
    suite = _run(["-m", "pytest", "-q", "-p", "fit_digests",
                  f"--fit-digests={work / f'{name}.jsonl'}"],
                 tree, [tree / "src", tree / "tests"])
    summary = (suite.stdout.strip().splitlines() or ["(no output)"])[-1]
    print(f"suite of {name}: exit {suite.returncode}, {summary}")
    digests = _run([str(TESTS / "cli_digests.py"), "--keep", str(work / name)],
                   work, [tree / "src"])
    if digests.returncode:
        sys.exit(f"cli_digests.py failed on {name}:\n{digests.stderr}")
    return suite.returncode, digests.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the commit to compare the working tree against")
    rev = parser.parse_args().rev
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _extract(rev, work / "rev")
        rev_status, rev_lines = _record(work / "rev", work, "before")
        status, lines = _record(ROOT, work, "after")
        fits = _run([str(TESTS / "fit_digests.py"), str(work / "before.jsonl"),
                     str(work / "after.jsonl")], work, [])
        print(fits.stdout, end="")
        differ = [(a, b) for a, b in zip(rev_lines, lines) if a != b]
        differ += [("", b) for b in lines[len(rev_lines):]]
        differ += [(a, "") for a in rev_lines[len(lines):]]
        print(f"cli_digests: {len(differ)} of {max(len(lines), len(rev_lines))} lines differ")
        for a, b in differ:
            print(f"  before: {a}\n  after:  {b}")
        kept = _run([str(TESTS / "cli_digests.py"), "--compare", str(work / "before"),
                     str(work / "after")], work, [])
        verdicts = kept.stdout.splitlines()
        other = [v for v in verdicts if not v.endswith(": identical")]
        print(f"kept files: {len(verdicts) - len(other)} of {len(verdicts)} identical")
        print("".join(f"  {v}\n" for v in other), end="")
    return 1 if rev_status or status or fits.returncode or differ or other else 0


if __name__ == "__main__":
    sys.exit(main())
