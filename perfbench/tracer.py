"""Span tracer that instruments loewner_lab from outside.

The library binds imported names directly (``from .hermitian import
apply_scalar_function``), so wrapping a function means rebinding every
name that refers to it, in every loaded ``loewner_lab`` module, and
restoring each binding afterwards.  ``Tracer.uninstall`` does exactly that
and ``Tracer.check_restored`` proves it.

Spans are ``(name, start_ns, end_ns, parent)`` and are kept in memory until
the run ends.  A span's self time is its duration minus the durations of
its direct children; children of one parent never overlap because a traced
pass runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

# Jacobi operands kept per dimension for the kernel timing and cross-check.
OPERANDS_PER_DIM = 24

LAYERS = ("cli", "campaign", "chains", "instances", "maps", "hermitian",
          "functions", "serialize", "seeding")

# Methods that carry per-layer work but are not module-level functions.
# (module, class, attribute, span name)
METHOD_SPANS = (
    ("maps", "PositiveUnitalMap", "apply", "maps.apply"),
    ("maps", "MapFamily", "apply_sum", "maps.apply_sum"),
    ("functions", "FunctionDescriptor", "__call__", "functions.eval"),
)


class Tracer:
    """Wraps the public functions of every layer and records spans.

    Besides spans it keeps three counters that need no span of their own:
    HermitianMatrix constructions, fresh Jacobi runs (decompositions the
    per-matrix cache did not serve), and fresh Jacobi runs on content that
    was already decomposed in the same instance.  An instance starts at each
    ``spawn_rng`` call with a non-empty stream path: the campaign keys
    instance streams by ``(seed, cell, instance)`` and the hunter by
    ``(seed, attempt)``, while samplers derive generators from a bare seed.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.raised: set = set()
        self._stack: list[int] = []
        self._thread = None
        self.matrices = 0
        self.fresh_eig = 0
        self.repeat_eig = 0
        self.instances = 0
        self._seen: set = set()
        self.operands: dict[int, list] = {}
        self._restore: list = []
        self._snapshot: dict = {}

    # -- installation ---------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        self._thread = threading.get_ident()
        self._snapshot = {m.__name__: dict(vars(m)) for m in self._modules()}
        pkg = self.package.__name__
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapper = self._span_wrapper(f"{layer}.{attr}", obj)
                    if attr == "spawn_rng":
                        wrapper = self._instance_marker(wrapper)
                    self._rebind(obj, wrapper)
        herm = sys.modules[f"{pkg}.hermitian"]
        self._rebind(herm._jacobi, self._jacobi_probe(herm._jacobi))
        self._patch_attr(herm.HermitianMatrix, "__init__",
                         self._counter(herm.HermitianMatrix.__init__))
        for layer, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(sys.modules[f"{pkg}.{layer}"], cls_name)
            self._patch_attr(cls, attr, self._span_wrapper(span, vars(cls)[attr]))

    def _rebind(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def check_restored(self) -> list[str]:
        """Names whose binding differs from the snapshot taken at install."""
        bad = []
        for mod in self._modules():
            before = self._snapshot.get(mod.__name__, {})
            for attr, value in before.items():
                if vars(mod).get(attr) is not value:
                    bad.append(f"{mod.__name__}.{attr}")
        pkg = self.package.__name__
        herm = sys.modules[f"{pkg}.hermitian"]
        classes = [(herm.HermitianMatrix, "__init__")] + [
            (getattr(sys.modules[f"{pkg}.{layer}"], cls), attr)
            for layer, cls, attr, _ in METHOD_SPANS
        ]
        for cls, attr in classes:
            if hasattr(vars(cls)[attr], "__wrapped__"):
                bad.append(f"{cls.__qualname__}.{attr}")
        return bad

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        stack, name_of, start, end, parent = (
            self._stack, self.name_of, self.start, self.end, self.parent)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _instance_marker(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def wrapper(seed, *path):
            if path:
                tracer.instances += 1
                tracer._seen = set()
            return wrapped(seed, *path)

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.matrices += 1
            return fn(*args, **kwargs)

        return wrapper

    def _jacobi_probe(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(matrix, want_vectors):
            tracer.fresh_eig += 1
            key = matrix.tobytes()
            if key in tracer._seen:
                tracer.repeat_eig += 1
            else:
                tracer._seen.add(key)
            kept = tracer.operands.setdefault(matrix.shape[0], [])
            if len(kept) < OPERANDS_PER_DIM:
                kept.append(matrix.copy())
            return fn(matrix, want_vectors)

        return wrapper

    # -- aggregation ----------------------------------------------------

    def span_stats(self) -> dict:
        """name -> {"calls", "raised", "self_s", "durations_ns"}."""
        n = len(self.start)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "raised": 0, "self_s": 0.0, "durations_ns": []}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_of[i]]]
            s["calls"] += 1
            s["raised"] += i in self.raised
            s["self_s"] += (dur[i] - child[i]) * 1e-9
            s["durations_ns"].append(dur[i])
        return stats

    def count_nested(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that run inside a span named ``outer``."""
        inner_id, outer_id = self._name_ids.get(inner), self._name_ids.get(outer)
        count = 0
        for i in range(len(self.start)):
            if self.name_of[i] != inner_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != outer_id:
                p = self.parent[p]
            count += p >= 0
        return count

    def outermost(self, prefix: str) -> int:
        """Spans whose name starts with ``prefix`` and whose parent's does not."""
        ids = {i for name, i in self._name_ids.items() if name.startswith(prefix)}
        return sum(1 for i in range(len(self.start))
                   if self.name_of[i] in ids
                   and (self.parent[i] < 0 or self.name_of[self.parent[i]] not in ids))

    def write(self, path) -> None:
        """Spans as tab-separated ``name start_ns end_ns parent`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_of[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\n")
