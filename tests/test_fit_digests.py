"""The fit-record comparison of ``tests/fit_digests.py``: its verdict line and
exit status."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("fit_digests.py")


def _record(path, fits):
    path.write_text("".join(json.dumps(fit) + "\n" for fit in fits), encoding="utf-8")
    return path


def _fit(test, number, **changes):
    fit = {"test": test, "fit": number, "params": {"alpha": "a1", "means": "m1"},
           "trace": [-10.0, -9.5, -9.25], "n_iters": 2, "converged": True,
           "warnings": []}
    fit.update(changes)
    return fit


def _compare(before, after):
    run = subprocess.run([sys.executable, str(SCRIPT), str(before), str(after)],
                         capture_output=True, text=True, check=False)
    return run.stdout.splitlines()[-1], run.returncode


def test_identical_records_pass(tmp_path):
    fits = [_fit("t::a", 1), _fit("t::a", 2), _fit("t::b", 1)]
    before = _record(tmp_path / "before.jsonl", fits)
    after = _record(tmp_path / "after.jsonl", fits + [_fit("t::c", 1)])
    assert _compare(before, after) == ("3 fits paired, all bit-identical", 0)


def test_any_differing_field_fails(tmp_path):
    before = _record(tmp_path / "before.jsonl", [_fit("t::a", n) for n in range(1, 6)])
    after = _record(tmp_path / "after.jsonl", [
        _fit("t::a", 1),
        _fit("t::a", 2, warnings=["iteration 1: class 0 lost all responsibility mass"]),
        _fit("t::a", 3, n_iters=3),
        _fit("t::a", 4, params={"alpha": "a1", "means": "m2"}),
        _fit("t::a", 5, trace=[-10.0, -9.5, -9.250000000000002]),
    ])
    assert _compare(before, after) == ("5 fits paired, 4 differ", 1)
