"""pairmix benchmark: one workload per invocation, timed end to end or traced.

    python3 bench/run.py --workload rescue-2d --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``pairmix`` from its
``src/``.  Human-readable report lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The same report is written under ``bench/out/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# one BLAS thread, so that a process's CPU time is the time of its one
# computing thread (idle BLAS threads spin and would add to it)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_cpu_seconds(code: str) -> float:
    """CPU seconds of a fresh interpreter running ``code``, start to exit."""
    from workloads import child_env, clock

    t0 = clock()
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())
    return clock() - t0


def quantile(values, q: float) -> float:
    """Quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "pairmix").glob("*.py")))


def run_rounds(wl, rec, seconds, tracer=None, traced=None):
    """Whole rounds until ``seconds`` have passed (at least ``min_rounds``).

    With a tracer, rounds 1 to ``traced_rounds`` each run a second time on
    the same inputs under the tracer, into ``traced``: the traced work is
    the same in every run of a seed, and each traced round differs from its
    untraced twin only by the tracing overhead.  Round 0 warms up
    (allocator, file cache) and is never traced.
    """
    from workloads import clock

    traced_rounds = range(1, wl.traced_rounds + 1) if tracer is not None else range(0)
    min_rounds = max(wl.min_rounds, len(traced_rounds) + 1 if tracer is not None else 0)
    t_start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - t_start < seconds:
        before = (len(rec.flat_fit_s), len(rec.hier_fit_s), rec.fit_iters)
        w0, t0 = time.perf_counter(), clock()
        wl.round(r, rec)
        rec.round_s.append(clock() - t0)
        rec.round_wall_s.append(time.perf_counter() - w0)
        if r in traced_rounds:
            fit_s = sum(rec.flat_fit_s[before[0]:]) + sum(rec.hier_fit_s[before[1]:])
            rec.twins.append((rec.round_s[-1], fit_s, rec.fit_iters - before[2]))
            tracer.install()
            token = tracer.open("bench.round")
            t0 = clock()
            try:
                wl.round(r, traced, tracer)
            finally:
                tracer.close(token)
                tracer.uninstall()
            traced.round_s.append(clock() - t0)
        r += 1


def end_to_end(rec, setup_samples, peak_rss_mb) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "em_iter_us": (rec.em_iter_us, "us"),
        "flat_fit_ms_p50": (1e3 * statistics.median(rec.flat_fit_s), "ms"),
        "hier_fit_ms_p50": (1e3 * statistics.median(rec.hier_fit_s), "ms"),
        "round_s": (statistics.median(rec.round_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_lines(rec) -> list[str]:
    """Further timings, each with its sample count; a p90 only from 100 samples."""
    n_fits = len(rec.flat_fit_s) + len(rec.hier_fit_s)
    wall = sum(rec.round_wall_s) / sum(rec.round_s)
    lines = [f"  rounds took {wall:.3f} x their CPU time in wall time"]
    if n_fits:
        lines.append(f"  em_iters_per_fit: {rec.fit_iters / n_fits:.3f} (n={n_fits})")
    series = {"flat_fit_ms": rec.flat_fit_s, "hier_fit_ms": rec.hier_fit_s,
              "round_ms": rec.round_s}
    series.update({f"{k}_trial_ms": v for k, v in rec.trial_s.items()})
    series.update({f"cmd.{k}_ms": v for k, v in rec.cmd_s.items()})
    if rec.cmd_s:
        series["cli_cmd_ms"] = [t for v in rec.cmd_s.values() for t in v]
    for name, values in series.items():
        if not values:
            continue
        line = f"  {name}: p50 {1e3 * statistics.median(values):.3f} ms (n={len(values)})"
        if len(values) >= 100:
            line += f", p90 {1e3 * quantile(values, 0.9):.3f} ms"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairmix" / "__init__.py").is_file():
        print(f"error: no pairmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import layers
    import workloads
    from checks import Checks
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / f"work-{tag}-{os.getpid()}")
    tracer = Tracer() if args.trace else None

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = workloads.clock()
        subprocess.run([sys.executable, "-c", "import " + wl.imports], check=True,
                       env=workloads.child_env())
        if tracer:
            tracer.install()
        wl.setup()
        if tracer:
            tracer.uninstall()
        setup_samples.append(workloads.clock() - t0)

    rec = workloads.Record()
    if tracer:
        traced = workloads.Record()
        traced.outputs = rec.outputs  # checked together
        wl.in_process = True
        run_rounds(wl, rec, args.seconds, tracer, traced)
    else:
        run_rounds(wl, rec, args.seconds)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (children if args.workload == "cli-pipeline" else own) / 1024.0

    checks = Checks()
    summary = wl.check(checks, rec)
    attempted = rec.attempted + (traced.attempted if tracer else 0)
    failed = rec.failed + (traced.failed if tracer else 0)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(rec.round_s) + (len(traced.round_s) if tracer else 0)} rounds, "
             f"{attempted} operations, {failed} failed, "
             f"{checks.n_checked} checks, {len(checks.failures)} failed"]
    lines += [f"  check failed: {f}" for f in checks.failures[:20]]
    lines += [f"  {k}: {v!r}" for k, v in summary.items()]
    if tracer:
        extra = {}
        if args.workload == "cli-pipeline":
            bare = statistics.median(child_cpu_seconds("pass") for _ in range(IMPORT_REPEATS))
            full = statistics.median(child_cpu_seconds("import pairmix.cli")
                                     for _ in range(IMPORT_REPEATS))
            extra["cli.import_s"] = full - bare
        metrics = layers.per_layer(tracer, rec, traced, args.workload, extra, src_lines())
        lines += layers.report(metrics)
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.csv")
    else:
        metrics = end_to_end(rec, setup_samples, peak_rss_mb)
        lines += [f"  {k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines += report_lines(rec)
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    text = "\n".join(lines) + "\n" + json.dumps(result) + "\n"
    (OUT / f"result-{tag}.txt").write_text(text, encoding="utf-8")
    if args.workload == "cli-pipeline":
        import shutil

        shutil.rmtree(wl.work, ignore_errors=True)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
