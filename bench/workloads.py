"""The benchmark's three workloads.

Each workload is a closed loop with one caller: :meth:`setup` builds the
inputs, :meth:`round` runs one whole round of the same operations and
records its timings, and :meth:`check` verifies what the rounds produced.
Layer functions are always looked up on their ``pairmix`` module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from io import StringIO
from pathlib import Path

import numpy as np

import pairmix
import pairmix.cli  # noqa: F401  (loaded so the tracer can wrap the cli layer)
from pairmix import errors, flat, hier, initialize, io, metrics, types
from pairmix import datasets

import oracle
from checks import Checks


def clock() -> float:
    """CPU seconds of this process and of its waited-for children.

    Timings use CPU time, not wall time: on a shared virtual machine the
    hypervisor takes the CPU away in bursts, which wall time counts and CPU
    time does not.
    """
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class Record:
    """Samples and outputs collected over a run's rounds."""

    def __init__(self):
        self.flat_fit_s: list[float] = []
        self.hier_fit_s: list[float] = []
        self.fit_iters = 0
        self.round_s: list[float] = []
        self.round_wall_s: list[float] = []
        # (round, fit seconds, EM iterations) of untraced rounds with a traced twin
        self.twins: list[tuple[float, float, int]] = []
        self.trial_s: dict[str, list[float]] = {}
        self.cmd_s: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.outputs: list = []

    @property
    def em_iter_us(self) -> float:
        return 1e6 * (sum(self.flat_fit_s) + sum(self.hier_fit_s)) / self.fit_iters


def _fit(rec: Record, kind: str, *args, **kwargs):
    """One timed fit; ``None`` when it raises a documented pairmix error."""
    fn = flat.fit_flat if kind == "flat" else hier.fit_hier
    rec.attempted += 1
    t0 = clock()
    try:
        model, trace = fn(*args, **kwargs)
    except errors.PairmixError:
        rec.failed += 1
        return None
    (rec.flat_fit_s if kind == "flat" else rec.hier_fit_s).append(clock() - t0)
    rec.fit_iters += trace.n_iters
    return model, trace


def _trace_summary(trace):
    return tuple(trace.log_likelihoods), bool(trace.warnings)


# ---------------------------------------------------------------------------
# rescue-2d: the restart-and-rank recipe on the bundled 2-D shapes


def anchor_links(dataset) -> types.RelationSet:
    """The A1 protocol's 2 must + 2 cannot links between the arm extremes."""
    pts, labels = dataset.points, dataset.labels
    top, bot = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    lt, rt = int(top[np.argmin(pts[top, 0])]), int(top[np.argmax(pts[top, 0])])
    lb, rb = int(bot[np.argmin(pts[bot, 0])]), int(bot[np.argmax(pts[bot, 0])])
    must = [tuple(sorted((lt, rt))), tuple(sorted((lb, rb)))]
    cannot = [tuple(sorted((lt, lb))), tuple(sorted((rt, rb)))]
    return types.RelationSet(must=must, cannot=cannot)


def moons_links(points) -> types.RelationSet:
    """The A2 protocol's links: the two arcs' ends as must-links, the two
    closest cross-moon pairs (more than 0.5 apart in x) as cannot-links."""
    upper, lower = np.arange(100), np.arange(100, 200)
    d2 = ((points[upper][:, None, :] - points[lower][None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=None)
    i, j = np.unravel_index(order[0], d2.shape)
    first = (int(upper[i]), int(lower[j]))
    mid0 = (points[first[0], 0] + points[first[1], 0]) / 2
    for flat_idx in order[1:]:
        i, j = np.unravel_index(flat_idx, d2.shape)
        pair = (int(upper[i]), int(lower[j]))
        if abs((points[pair[0], 0] + points[pair[1], 0]) / 2 - mid0) > 0.5:
            return types.RelationSet(must=[(0, 99), (100, 199)], cannot=[first, pair])
    raise RuntimeError("no second cannot-link pair")


class Rescue2D:
    """A1: two-cluster N=400, flat M=2, 10 restarts per trial in the modes
    both / must-only / cannot-only.  A2: two-moons N=200, 3 restarts each of
    flat M=2 and two-level (2, 2).  The datasets are the protocols' fixed
    draws; ``seed`` picks every restart's initialization."""

    name = "rescue-2d"
    imports = "pairmix"
    min_rounds = 1
    traced_rounds = 20
    RESTARTS_A1 = 10
    RESTARTS_A2 = 3

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        cluster = datasets.gen_synthetic("two-cluster", 200, 0.25, seed=0)
        links = anchor_links(cluster)
        moons = datasets.gen_synthetic("two-moons", 100, 0.05, seed=11)
        self.cluster, self.moons = cluster, moons
        self.modes = {
            "both": links,
            "must-only": types.RelationSet(must=links.must),
            "cannot-only": types.RelationSet(cannot=links.cannot),
        }
        self.moons_rel = moons_links(moons.points)
        self.config = flat.FitConfig(seed=0)

    def _rank(self, rec, kind, ds, rel, init, best):
        shape = (2,) if kind == "flat" else (2, (2, 2))
        out = _fit(rec, kind, ds, rel, *shape, self.config, init=init)
        if out is None:
            return best
        model, trace = out
        evaluate = flat.log_likelihood if kind == "flat" else hier.log_likelihood_hier
        ll = evaluate(model, ds, rel)
        rec.outputs.append(("trace", kind, _trace_summary(trace)))
        if best is None or ll > best[1]:
            return model, ll, trace.log_likelihoods[-1]
        return best

    def _winner(self, kind, ds, best):
        if best is None:  # every restart raised
            return None
        model, ll, last = best
        predict = flat.predict_flat_batch if kind == "flat" else hier.predict_hier_batch
        assigned = metrics.hard_assign(predict(model, ds.points))
        score = metrics.purity(assigned, ds.labels)
        return oracle.ref_from_model(model), ll, last, assigned, score

    def round(self, r: int, rec: Record, tracer=None) -> None:
        ds = self.cluster
        for mode_idx, (mode, rel) in enumerate(self.modes.items()):
            t0 = clock()
            rng = initialize.make_rng(initialize.trial_seed(self.seed, r, mode_idx))
            best = None
            for _ in range(self.RESTARTS_A1):
                best = self._rank(rec, "flat", ds, rel, initialize.init_flat(ds, 2, rng), best)
            win = self._winner("flat", ds, best)
            rec.trial_s.setdefault("rescue", []).append(clock() - t0)
            rec.outputs.append(("a1", mode, rel, win))

        ds, rel = self.moons, self.moons_rel
        t0 = clock()
        rng = initialize.make_rng(initialize.trial_seed(self.seed, r, len(self.modes)))
        best_f = best_h = None
        for _ in range(self.RESTARTS_A2):
            init_f = initialize.init_flat(ds, 2, rng)
            init_h = initialize.init_hier(ds, 2, (2, 2), rng)
            best_f = self._rank(rec, "flat", ds, rel, init_f, best_f)
            best_h = self._rank(rec, "hier", ds, rel, init_h, best_h)
        win_f = self._winner("flat", ds, best_f)
        win_h = self._winner("hier", ds, best_h)
        rec.trial_s.setdefault("moons", []).append(clock() - t0)
        rec.outputs.append(("a2", win_f, win_h))

    def check(self, checks: Checks, rec: Record) -> dict:
        hits = {mode: [] for mode in self.modes}
        joint = []
        for out in rec.outputs:
            if out[0] == "trace":
                _, kind, (lls, warned) = out
                checks.ascent(lls, warned, f"{kind} trace")
            elif out[0] == "a1":
                _, mode, rel, win = out
                p = self._check_winner(checks, f"two-cluster {mode} winner", self.cluster, rel, win)
                hits[mode].append(p >= 0.95)
            else:
                _, win_f, win_h = out
                pf = self._check_winner(checks, "two-moons flat winner", self.moons,
                                        self.moons_rel, win_f)
                ph = self._check_winner(checks, "two-moons two-level winner", self.moons,
                                        self.moons_rel, win_h)
                joint.append(pf < 1.0 and ph == 1.0)
        summary = {}
        for mode, h in hits.items():
            share = sum(h) / len(h)
            summary[f"rescued_{mode}"] = share
            checks.expect(share >= 0.9, f"two-cluster {mode}: purity >= 0.95 in {share:.0%} < 90%")
        share = sum(joint) / len(joint)
        summary["moons_joint"] = share
        checks.expect(share >= 0.8, f"two-moons: flat < 1 with two-level = 1 in {share:.0%} < 80%")
        return summary

    @staticmethod
    def _check_winner(checks, what, ds, rel, win):
        """Purity of a trial's winner (0 when every restart raised)."""
        if win is None:
            return 0.0
        ref, ll, last, assigned, score = win
        checks.loglik(ref, ds.points, rel.must, rel.cannot,
                      {"log_likelihood": ll, "last trace entry": last}, what)
        return checks.purity(assigned, ds.labels, score, what)


# ---------------------------------------------------------------------------
# scale-16d: the ROADMAP's scale point


class Scale16D:
    """d=16, N=100 000: 8 unit-variance Gaussian blobs, paired into 4
    classes.  Class centres are N(0, 3^2 I); a class's two blobs sit at
    its centre +- 1.5 u (u a random unit vector), so the pair overlaps and
    EM keeps moving.  Links are 1 % of N, drawn with ``sample_relations``
    from the blob labels (flat M=8 fit) and from the class labels
    (two-level 4 x 2 fit).  Every fit starts from a k-means++ init and runs
    ``ITERS`` EM iterations (``tol`` out of reach)."""

    name = "scale-16d"
    imports = "pairmix"
    min_rounds = 1
    traced_rounds = 2
    N, D, CLASSES, ITERS = 100_000, 16, 4, 4

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        centres = rng.normal(size=(self.CLASSES, self.D)) * 3.0
        u = rng.normal(size=(self.CLASSES, self.D))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        blob_centres = np.concatenate([centres - 1.5 * u, centres + 1.5 * u])
        blob = np.arange(self.N) % (2 * self.CLASSES)
        points = blob_centres[blob] + rng.standard_normal((self.N, self.D))
        cls = blob % self.CLASSES
        self.blobs = types.Dataset(points=points, labels=blob)
        self.classes = types.Dataset(points=points, labels=cls)
        n_links = self.N // 100
        self.blob_rel = initialize.sample_relations(
            blob, n_links, initialize.make_rng(initialize.trial_seed(self.seed, 1)))
        self.class_rel = initialize.sample_relations(
            cls, n_links, initialize.make_rng(initialize.trial_seed(self.seed, 2)))
        self.config = flat.FitConfig(max_iters=self.ITERS, tol=1e-300)

    def round(self, r: int, rec: Record, tracer=None) -> None:
        rng = initialize.make_rng(initialize.trial_seed(self.seed, r, 3))
        ds, rel = self.blobs, self.blob_rel
        init = initialize.init_flat(ds, 2 * self.CLASSES, rng)
        out = _fit(rec, "flat", ds, rel, 2 * self.CLASSES, self.config, init=init)
        if out is not None:
            model, trace = out
            assigned = metrics.hard_assign(flat.predict_flat_batch(model, ds.points))
            rec.outputs.append(("flat", oracle.ref_from_model(model), _trace_summary(trace),
                                assigned, metrics.purity(assigned, ds.labels)))

        ds, rel = self.classes, self.class_rel
        init = initialize.init_hier(ds, self.CLASSES, (2,) * self.CLASSES, rng)
        out = _fit(rec, "hier", ds, rel, self.CLASSES, (2,) * self.CLASSES, self.config,
                   init=init)
        if out is not None:
            model, trace = out
            assigned = metrics.hard_assign(hier.predict_hier_batch(model, ds.points))
            rec.outputs.append(("hier", oracle.ref_from_model(model), _trace_summary(trace),
                                assigned, metrics.purity(assigned, ds.labels)))

    def check(self, checks: Checks, rec: Record) -> dict:
        purities = {"flat": [], "hier": []}
        for kind, ref, (lls, warned), assigned, score in rec.outputs:
            ds, rel = (self.blobs, self.blob_rel) if kind == "flat" else (self.classes, self.class_rel)
            what = f"scale {kind} fit"
            checks.loglik(ref, ds.points, rel.must, rel.cannot, {"last trace entry": lls[-1]}, what)
            checks.ascent(lls, warned, what)
            checks.valid_model(ref, what)
            purities[kind].append(checks.purity(assigned, ds.labels, score, what))
        return {f"{k}_purity_p50": float(np.median(v)) for k, v in purities.items() if v}


# ---------------------------------------------------------------------------
# cli-pipeline: the demos/cli_pipeline.sh sequence as child processes


class CliPipeline:
    """One pass: ``gen-data`` (two-cluster, 100 000 rows), ``gen-relations``
    (1 000 links), ``fit`` flat with ``--trace``, ``fit`` two-level (2, 2),
    ``predict``, ``evaluate``, ``pca`` and a ``trials`` sweep (budgets 0
    and 4, 10 trials each) on a 200-row two-moons CSV with ``--threads 2``.
    Every fit, the sweep's too, runs ``ITERS`` EM iterations (``tol`` out of
    reach), so a pass does the same work whatever the seed: with more
    iterations some seeds' fits reach an exact fixed point and stop early.
    Every command is a child ``python -m pairmix.cli``; with tracing the same
    argument lists go to ``pairmix.cli.main`` in-process."""

    name = "cli-pipeline"
    imports = "pairmix.cli"
    min_rounds = 2  # the second pass is checked byte for byte against the first
    traced_rounds = 2
    N_PER_CLASS, LINKS, ITERS = 50_000, 1_000, 3
    COMPARED = ("model.json", "model_h.json", "post.csv", "trials.csv")

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.in_process = False
        self.first_digests = None

    def setup(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        moons = datasets.gen_synthetic("two-moons", 100, 0.05, seed=self.seed)
        io.save_dataset_csv(moons, self.work / "moons.csv")

    def commands(self):
        w = lambda name: str(self.work / name)  # noqa: E731
        s = str(self.seed)
        data = ["--data", w("data.csv"), "--label-column", "label"]
        fixed = ["--max-iters", str(self.ITERS), "--tol", "1e-300"]
        fit = ["fit", *data, "--relations", w("rel.txt"), "--classes", "2", "--seed", s,
               *fixed, "--threads", "1"]
        return [
            ("gen-data", ["gen-data", "--kind", "two-cluster", "--n-per-class",
                          str(self.N_PER_CLASS), "--noise", "0.25", "--seed", s,
                          "--out", w("data.csv")]),
            ("gen-relations", ["gen-relations", *data, "--n-pairs", str(self.LINKS),
                               "--seed", s, "--out", w("rel.txt")]),
            ("fit", [*fit, "--out", w("model.json"), "--trace", w("trace.csv")]),
            ("fit-two-level", [*fit, "--clusters-per-class", "2,2",
                               "--out", w("model_h.json")]),
            ("predict", ["predict", "--model", w("model.json"), *data,
                         "--out", w("post.csv")]),
            ("evaluate", ["evaluate", "--model", w("model.json"), *data,
                          "--out", w("eval.txt")]),
            ("pca", ["pca", *data, "--k", "1", "--out-data", w("proj.csv"),
                     "--out-transform", w("pca.json")]),
            ("trials", ["trials", "--data", w("moons.csv"), "--label-column", "label",
                        "--classes", "2", "--budgets", "0,4", "--n-trials", "10",
                        "--base-seed", s, *fixed, "--threads", "2",
                        "--out", w("trials.csv")]),
        ]

    def _run(self, name, argv, tracer):
        """Run one command; returns (exit code, stdout, stderr)."""
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "pairmix.cli", *argv],
                                  capture_output=True, text=True, cwd=self.work,
                                  env=child_env())
            return proc.returncode, proc.stdout, proc.stderr
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.span("bench.cmd." + name) if tracer else contextlib.nullcontext()
            with span:
                code = pairmix.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def round(self, r: int, rec: Record, tracer=None) -> None:
        for name, argv in self.commands():
            rec.attempted += 1
            t0 = clock()
            code, out, err = self._run(name, argv, tracer)
            elapsed = clock() - t0
            rec.cmd_s.setdefault(name, []).append(elapsed)
            if code != 0:
                rec.failed += 1
                rec.outputs.append(("error", name, code, err.strip()[-300:]))
                continue
            if name.startswith("fit"):
                rec.fit_iters += int(re.search(r"iterations=(\d+)", out).group(1))
                (rec.flat_fit_s if name == "fit" else rec.hier_fit_s).append(elapsed)
                ll = float(re.search(r"log_likelihood=(\S+)", out).group(1))
                rec.outputs.append(("fit", name, ll, "warning:" in err))
        digests = {n: hashlib.sha256((self.work / n).read_bytes()).hexdigest()
                   for n in self.COMPARED if (self.work / n).exists()}
        if self.first_digests is None:
            self.first_digests = digests
        else:
            rec.outputs.append(("digests", digests))

    def check(self, checks: Checks, rec: Record) -> dict:
        errors_seen = [out for out in rec.outputs if out[0] == "error"]
        for _, name, code, err in errors_seen:
            checks.expect(False, f"command {name} exited {code}: {err}")
        if errors_seen:  # the output files are missing or stale
            return {}
        w = self.work
        table = np.loadtxt(w / "data.csv", delimiter=",", skiprows=1, ndmin=2)
        x, labels = table[:, :-1], table[:, -1].astype(np.int64)
        must, cannot = read_relations(w / "rel.txt")

        fits = {out[1]: out for out in rec.outputs if out[0] == "fit"}
        for name, model_file in (("fit", "model.json"), ("fit-two-level", "model_h.json")):
            if name not in fits:
                continue
            ref = oracle.ref_from_json((w / model_file).read_text(encoding="utf-8"))
            reported = {"printed log_likelihood": fits[name][2]}
            if name == "fit":
                trace = np.loadtxt(w / "trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
                reported["last trace entry"] = trace[-1]
                checks.ascent(trace, fits[name][3], "trace.csv")
            checks.loglik(ref, x, must, cannot, reported, model_file)
            checks.valid_model(ref, model_file)

        post = np.loadtxt(w / "post.csv", delimiter=",", skiprows=1, ndmin=2)
        probs, assigned = post[:, :-1], post[:, -1].astype(np.int64)
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        checks.expect(worst <= 1e-12, f"posterior rows sum to 1 within {worst:.1e}")
        checks.expect(bool(np.array_equal(assigned, probs.argmax(axis=1))),
                      "assigned is not the row argmax")
        evaluated = float((w / "eval.txt").read_text().strip().split("=", 1)[1])
        purity = checks.purity(assigned, labels, evaluated, "evaluate")

        proj = np.loadtxt(w / "proj.csv", delimiter=",", skiprows=1, ndmin=2)[:, 0]
        sigma = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)[0]
        expected = sigma**2 / x.shape[0]
        gap = oracle.relative_gap(float(proj.var()), expected)
        checks.expect(gap <= 1e-9, f"pca variance {proj.var()!r} vs svd {expected!r}")

        passes = [out[1] for out in rec.outputs if out[0] == "digests"]
        checks.expect(bool(passes), "no second pass to compare")
        for digests in passes:
            for name in self.COMPARED:
                checks.expect(digests.get(name) == self.first_digests.get(name),
                              f"{name} differs between passes")
        return {"purity": purity}


def read_relations(path):
    """``ml,i,j`` / ``cl,a,b`` lines, parsed here rather than by pairmix.io."""
    must, cannot = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            kind, a, b = line.split(",")
            (must if kind == "ml" else cannot).append((int(a), int(b)))
    return must, cannot


def child_env() -> dict:
    """Environment for child interpreters: the package under test first on
    ``PYTHONPATH``, and the same BLAS thread cap as this process."""
    env = dict(os.environ)
    src = str(Path(pairmix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


WORKLOADS = {w.name: w for w in (Rescue2D, Scale16D, CliPipeline)}
