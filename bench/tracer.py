"""Spans at the layer boundaries of pairmix, recorded from outside the package.

:meth:`Tracer.install` replaces every public function of each layer module
(and the constructors of the model types) with a wrapper that records a
span, in the defining module and in every ``pairmix`` module that imported
the name; :meth:`Tracer.uninstall` puts the originals back.  Spans are kept
in memory and summarized, or written out, when the run ends.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# the modules of src/pairmix that do measurable work, in dependency order
LAYERS = (
    "types", "gaussian", "mixing", "initialize", "flat", "hier",
    "metrics", "io", "serialize", "pca", "cli",
)
MODEL_TYPES = ("FlatModel", "ClassMixture", "HierModel")
# writers whose outermost spans make up ``io.write.s``
IO_WRITERS = frozenset(
    "io." + n for n in ("atomic_write_text", "save_dataset_csv", "save_relations",
                        "save_posteriors_csv", "save_trace_csv")
)


def _ldst_counts(counts, args, kwargs, result):
    # per component and point: d^2 for the triangular solve, d to centre,
    # 2d for the squared norm; bytes: the centred copy and the solve's
    # output are each written once and read once, the points read once
    points, means = args[0], args[1]
    n, d = points.shape
    c = means.shape[0]
    counts["gaussian.log_density_stack.flop"] += c * n * (d * d + 3 * d)
    counts["gaussian.log_density_stack.byte"] += 8 * (c * n * (5 * d + 1))


def _ridge_counts(counts, args, kwargs, result):
    counts["gaussian.ridged"] += int((result[1] > 0.0).sum())


def _mixing_counts(counts, args, kwargs, result):
    counts["mixing.newton_steps"] += int(result[1].n_steps)


def _flat_counts(counts, args, kwargs, result):
    counts["flat.em_iters"] += int(result[1].n_iters)


def _hier_counts(counts, args, kwargs, result):
    counts["hier.em_iters"] += int(result[1].n_iters)


def _load_counts(counts, args, kwargs, result):
    counts["io.load_csv.rows"] += int(result.n)


def _write_counts(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["io.bytes_written"] += len(text.encode("utf-8"))


RESULT_COUNTERS = {
    "gaussian.log_density_stack": _ldst_counts,
    "gaussian.regularize_covariances": _ridge_counts,
    "mixing.optimize_mixing_info": _mixing_counts,
    "flat.fit_flat": _flat_counts,
    "hier.fit_hier": _hier_counts,
    "io.load_csv": _load_counts,
    "io.atomic_write_text": _write_counts,
}


class Tracer:
    """In-memory span recorder.

    A span is ``(id, name, start, end, parent id)``.  Within a thread, spans
    nest by call order; the first span of a worker thread takes as parent
    the span the main thread has open (the pool's caller).
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, name, parent, time.perf_counter()

    def close(self, token) -> None:
        end = time.perf_counter()
        sid, name, parent, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent))

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of each layer and the model types'
        constructors, wherever a ``pairmix`` module holds a reference."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pairmix" or n.startswith("pairmix.")]
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pairmix.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)][1])
        types_mod = importlib.import_module("pairmix.types")
        for cls_name in MODEL_TYPES:
            cls = getattr(types_mod, cls_name)
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap("types.model_init", cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # summaries

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the union of its children's."""
        children = defaultdict(list)
        for sid, _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def within(self, root_name: str) -> set[int]:
        """Ids of the spans named ``root_name`` and of all their descendants."""
        parent_of = {sid: parent for sid, _, _, _, parent in self.spans}
        roots = {sid for sid, name, *_ in self.spans if name == root_name}
        inside = set()
        for sid in parent_of:
            p = sid
            path = []
            while p >= 0 and p not in roots and p not in inside:
                path.append(p)
                p = parent_of.get(p, -1)
            if p >= 0:
                inside.add(sid)
                inside.update(path)
        return inside | roots

    def write(self, path) -> None:
        """Write the spans as CSV, in order of opening."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


class _Span:
    __slots__ = ("tracer", "name", "token")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.token = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.token)
        return False
