"""Opt-in pytest plugin that records every in-process EM fit, and a report
that compares two such records.

Record (``tests`` must be importable before collection, hence the path)::

    PYTHONPATH=src:tests python -m pytest -q -p fit_digests --fit-digests=fits.jsonl

(with ``=``: pytest reads a separate argument that names an existing file
as a path when it picks its root directory, which changes the test ids).

Every call of the engine's fit loop during the run — ``pairmix.hier._fit``,
which ``fit_flat`` reaches as ``pairmix.flat._fit`` — appends one JSON line:
the test it ran in (fits made by a fixture count for the test whose setup
made them), its number within that test, a SHA-256 of each array of the
returned ``_Params`` (dtype, shape and bytes) by name, the trace entries,
``n_iters``, ``converged`` and the warnings.  Fits in child processes (the
CLI tests) are not seen.

Compare two records, say the suite of one commit against that of another::

    python tests/fit_digests.py before.jsonl after.jsonl

The report pairs fits by (test, number), counts equal warnings, ``n_iters``
and parameter digests, names the ``_Params`` arrays that differ in each
fit whose digests differ, and buckets each pair by its largest relative
deviation over the common trace entries, naming every fit above 1e-12.
Its last line is the verdict, ``N fits paired, all bit-identical`` or
``N fits paired, K differ``; the command exits with status 1 when any
paired fit differs in its warnings, ``n_iters``, a parameter digest or a
trace entry.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

_current = {"test": "", "fits": Counter()}


def pytest_addoption(parser):
    parser.addoption("--fit-digests", metavar="PATH", required=True,
                     help="write one JSON line per in-process EM fit to PATH")


def pytest_configure(config):
    from pairmix import flat, hier

    out = open(config.getoption("fit_digests"), "w", encoding="utf-8")
    fit = hier._fit

    def recorded(*args, **kwargs):
        params, trace = fit(*args, **kwargs)
        test = _current["test"]
        _current["fits"][test] += 1
        out.write(json.dumps({
            "test": test,
            "fit": _current["fits"][test],
            "params": _digest(params),
            "trace": list(trace.log_likelihoods),
            "n_iters": trace.n_iters,
            "converged": trace.converged,
            "warnings": list(trace.warnings),
        }) + "\n")
        return params, trace

    hier._fit = flat._fit = recorded
    config._fit_digests = (out, fit)


def pytest_unconfigure(config):
    from pairmix import flat, hier

    out, fit = config._fit_digests
    hier._fit = flat._fit = fit
    out.close()


def pytest_runtest_logstart(nodeid, location):
    _current["test"] = nodeid


def _digest(params) -> dict[str, str]:
    digests = {}
    for name, value in params._asdict().items():
        h = hashlib.sha256(f"{value.dtype}:{value.shape}".encode())
        h.update(value.tobytes())
        digests[name] = h.hexdigest()
    return digests


# ---------------------------------------------------------------------------
# report

_BUCKETS = (0.0, 1e-15, 1e-14, 1e-13, 1e-12)


def _load(path):
    with open(path, encoding="utf-8") as f:
        return {(r["test"], r["fit"]): r for r in map(json.loads, f)}


def _deviation(a, b) -> float:
    """Largest relative deviation of ``b`` from ``a`` over common entries."""
    return max((abs(x - y) / abs(x) if x else abs(y)
                for x, y in zip(a, b) if x != y), default=0.0)


def _differing(a: dict, b: dict) -> list[str]:
    """The names of the ``_Params`` arrays whose digests differ."""
    return [name for name in a if a[name] != b.get(name)]


def compare(before_path, after_path) -> tuple[str, int]:
    """The report on two records and the number of paired fits that are
    not bit-identical."""
    before, after = _load(before_path), _load(after_path)
    keys = [k for k in before if k in after]
    lines = [f"fits: {len(before)} before, {len(after)} after, {len(keys)} paired"]
    for field in ("warnings", "n_iters", "params"):
        differ = [k for k in keys if before[k][field] != after[k][field]]
        lines.append(f"{field} equal in {len(keys) - len(differ)} of {len(keys)}")
        if field == "n_iters":
            lines += [f"  n_iters {before[k]['n_iters']} -> {after[k]['n_iters']}: "
                      f"{k[0]} fit {k[1]}" for k in differ]
        if field == "params":
            lines += [f"  {', '.join(_differing(before[k]['params'], after[k]['params']))}: "
                      f"{k[0]} fit {k[1]}" for k in differ]
    devs = {k: _deviation(before[k]["trace"], after[k]["trace"]) for k in keys}
    counts = Counter()
    for dev in devs.values():
        counts[next((i for i, edge in enumerate(_BUCKETS) if dev <= edge),
                    len(_BUCKETS))] += 1
    labels = ["0"] + [f"({lo:g}, {hi:g}]" for lo, hi in zip(_BUCKETS, _BUCKETS[1:])]
    labels.append(f"> {_BUCKETS[-1]:g}")
    lines.append("largest relative trace deviation per fit:")
    lines += [f"  {label}: {counts[i]}" for i, label in enumerate(labels)]
    lines += [f"  {dev:.3g}: {k[0]} fit {k[1]} ({before[k]['n_iters']} iterations)"
              for k, dev in sorted(devs.items(), key=lambda kv: -kv[1])
              if dev > _BUCKETS[-1]]
    fields = ("warnings", "n_iters", "params", "trace")
    differ = sum(any(before[k][f] != after[k][f] for f in fields) for k in keys)
    lines.append(f"{len(keys)} fits paired, "
                 + (f"{differ} differ" if differ else "all bit-identical"))
    return "\n".join(lines), differ


if __name__ == "__main__":
    report, differ = compare(*sys.argv[1:3])
    print(report)
    sys.exit(1 if differ else 0)
