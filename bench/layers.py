"""Per-layer metrics from a traced run.

Every workload reports the same names; a layer that a workload does not
exercise reads 0.  Busy seconds ``.s`` sum a function's spans over the
traced part of the run (set-up and traced rounds); shares are self time
over the traced rounds' wall time.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import IO_WRITERS, LAYERS

CLI_COMMANDS = ("gen-data", "gen-relations", "fit", "fit-two-level", "predict",
                "evaluate", "pca", "trials")

# name -> unit, in report order
METRICS = {
    "gaussian.log_density_stack.calls": "count",
    "gaussian.log_density_stack.s": "s",
    "gaussian.log_density_stack.gflop": "GFLOP",
    "gaussian.log_density_stack.gbyte": "GB",
    "gaussian.log_density_stack.gflop_per_s": "GFLOP/s",
    "gaussian.log_sum_exp.calls": "count",
    "gaussian.log_sum_exp.s": "s",
    "gaussian.regularize_covariances.calls": "count",
    "gaussian.regularize_covariances.s": "s",
    "gaussian.ridged": "count",
    "mixing.optimize_mixing.calls": "count",
    "mixing.optimize_mixing.s": "s",
    "mixing.newton_steps": "count",
    "mixing.mixing_objective.calls": "count",
    "mixing.solves_per_em_iter": "ratio",
    "types.model_init.calls": "count",
    "types.model_init.s": "s",
    "types.validate_relations.calls": "count",
    "types.validate_relations.s": "s",
    "flat.fit_flat.calls": "count",
    "flat.fit_flat.s": "s",
    "flat.fit_flat.self_s": "s",
    "flat.em_iters": "count",
    "flat.log_likelihood.s": "s",
    "flat.predict_flat_batch.s": "s",
    "hier.fit_hier.calls": "count",
    "hier.fit_hier.s": "s",
    "hier.fit_hier.self_s": "s",
    "hier.em_iters": "count",
    "hier.log_likelihood_hier.s": "s",
    "hier.predict_hier_batch.s": "s",
    "initialize.init_flat.s": "s",
    "initialize.init_hier.s": "s",
    "initialize.sample_relations.s": "s",
    "metrics.purity.s": "s",
    "metrics.run_trials.s": "s",
    "io.load_csv.calls": "count",
    "io.load_csv.s": "s",
    "io.load_csv.rows_per_s": "1/s",
    "io.write.s": "s",
    "io.bytes_written": "B",
    "serialize.save_model.s": "s",
    "serialize.load_model.s": "s",
    "pca.fit_pca.s": "s",
    "pca.apply_pca.s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "src.lines": "count",
    **{f"share.{layer}": "%" for layer in LAYERS + ("bench",)},
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def per_layer(tracer, plain, traced, workload: str, extra: dict, lines: int) -> dict:
    """Metric name -> (value, unit) for the names in :data:`METRICS`.

    ``plain`` and ``traced`` are the Records of the untraced and traced
    rounds; the tracing overhead compares each traced round with its
    untraced twin (EM time per iteration for the fitting workloads, pass
    time for the pipeline).  ``extra`` holds values measured outside the
    tracer.
    """
    calls, busy = defaultdict(int), defaultdict(float)
    self_s = tracer.self_times()
    fn_self = defaultdict(float)
    by_id = {}
    for sid, name, start, end, parent in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        fn_self[name] += self_s[sid]
        by_id[sid] = name
    in_rounds = tracer.within("bench.round")
    layer_self = defaultdict(float)
    for sid in in_rounds:
        layer_self[by_id[sid].split(".")[0]] += self_s[sid]
    round_wall = sum(end - start for _, name, start, end, _ in tracer.spans
                     if name == "bench.round")
    write_s = sum(end - start for _, name, start, end, parent in tracer.spans
                  if name in IO_WRITERS and by_id.get(parent) not in IO_WRITERS)
    counts = tracer.counts

    v = {}
    for name in METRICS:
        if name.endswith(".calls"):
            v[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            v[name] = fn_self[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            v[name] = busy[name[: -len(".s")]]
    ldst = busy["gaussian.log_density_stack"]
    v["gaussian.log_density_stack.gflop"] = counts["gaussian.log_density_stack.flop"] / 1e9
    v["gaussian.log_density_stack.gbyte"] = counts["gaussian.log_density_stack.byte"] / 1e9
    v["gaussian.log_density_stack.gflop_per_s"] = (
        v["gaussian.log_density_stack.gflop"] / ldst if ldst else 0.0)
    v["gaussian.ridged"] = counts["gaussian.ridged"]
    v["mixing.newton_steps"] = counts["mixing.newton_steps"]
    v["flat.em_iters"] = counts["flat.em_iters"]
    v["hier.em_iters"] = counts["hier.em_iters"]
    em_iters = counts["flat.em_iters"] + counts["hier.em_iters"]
    v["mixing.solves_per_em_iter"] = (
        calls["mixing.optimize_mixing"] / em_iters if em_iters else 0.0)
    load_s = busy["io.load_csv"]
    v["io.load_csv.rows_per_s"] = counts["io.load_csv.rows"] / load_s if load_s else 0.0
    v["io.write.s"] = write_s
    v["io.bytes_written"] = counts["io.bytes_written"]
    v["cli.import_s"] = extra.get("cli.import_s", 0.0)
    for c in CLI_COMMANDS:
        v[f"cli.{c}.s"] = busy[f"bench.cmd.{c}"]
    v["src.lines"] = lines
    for layer in LAYERS + ("bench",):
        v[f"share.{layer}"] = 100.0 * layer_self[layer] / round_wall if round_wall else 0.0
    twin_round, twin_fit, twin_iters = (sum(t) for t in zip(*plain.twins))
    if workload == "cli-pipeline":
        ratio = sum(traced.round_s) / twin_round
    else:
        ratio = traced.em_iter_us / (1e6 * twin_fit / twin_iters)
    v["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    v["trace.spans"] = len(tracer.spans)
    return {name: (v[name], unit) for name, unit in METRICS.items()}


def report(metrics: dict) -> list[str]:
    """Self-time shares (largest first), the tracing overhead, then every
    non-zero layer metric."""
    shares = sorted(((v, k) for k, (v, _) in metrics.items() if k.startswith("share.")),
                    reverse=True)
    lines = ["  self-time share of the traced rounds: " + ", ".join(
        f"{k[len('share.'):]} {v:.1f}%" for v, k in shares if v >= 0.05)]
    lines.append(f"  tracing overhead: {metrics['trace.overhead_pct'][0]:+.1f}% "
                 "(traced vs untraced rounds of the same run)")
    lines += [f"  {k}: {v:.6g} {u}" for k, (v, u) in metrics.items()
              if v and not k.startswith(("share.", "trace."))]
    return lines
