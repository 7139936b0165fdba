"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of each layer module, plus the
CLI's report writer, and rebinds every name in the ``lexpalo`` package that
refers to them, so calls made through ``from .vectorize import tfidf`` in
``experiments`` or ``cli`` are seen too. Each call records a span (name,
start, end, parent). Spans stay in memory until the run ends.

Pool workers forked during the traced run inherit the wrappers; each keeps
its own spans and writes them to ``<spill_dir>/spans-<pid>.json`` when it
exits, and ``Tracer.collect`` merges them. Bytes pickled to and from the
pool's workers are counted in the parent by wrapping ``ForkingPickler``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter
from multiprocessing import reduction, util
from pathlib import Path

LAYERS = (
    "corpus_io", "preprocess", "vectorize", "mnb",
    "experiments", "lexstats", "genre_graph", "cli",
)
# Called once per raw token inside preprocessing; a span each would cost more
# than the work, so they are timed as part of their caller.
PER_TOKEN = {"preprocess.strip_accents_and_punct", "preprocess.tokenize"}
# Private helpers traced because a layer metric needs them (skipped if absent).
PRIVATE = {"cli": ("_atomic_write",)}


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.spans: list[list] = []  # [name, start, end, parent index, pid]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.hooks = {}
        self.enabled = False
        self.pid = os.getpid()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, os.getpid()]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            hook = self.hooks.get(name)
            if hook is not None:
                # counting runs in a span of its own, so it is no one's self time
                with self.span("trace.hook"):
                    try:
                        hook(self.counts, args, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        self.counts["trace.hook_errors"] += 1
            return result

        return traced

    def install(self, hooks) -> int:
        """Wrap the layer functions; returns how many were wrapped."""
        self.hooks = hooks
        modules = [m for n, m in sys.modules.items()
                   if n == "lexpalo" or n.startswith("lexpalo.")]
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"lexpalo.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                traced_name = f"{layer}.{attr}"
                public = not attr.startswith("_") and traced_name not in PER_TOKEN
                if not (public or attr in PRIVATE.get(layer, ())):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = self._wrap(traced_name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(module, attr, originals[id(obj)])
        self._watch_pickles()
        util.register_after_fork(self, Tracer._after_fork)
        return len(originals)

    def _watch_pickles(self):
        dumps, loads = reduction.ForkingPickler.dumps, reduction.ForkingPickler.loads
        tracer = self

        def counted_dumps(cls, obj, protocol=None):
            buf = dumps(obj, protocol)
            if tracer.enabled and os.getpid() == tracer.pid:
                with tracer._lock:
                    tracer.counts["pool.sent_bytes"] += len(buf)
            return buf

        def counted_loads(data, *args, **kwargs):
            if tracer.enabled and os.getpid() == tracer.pid:
                with tracer._lock:
                    tracer.counts["pool.received_bytes"] += len(data)
            return loads(data, *args, **kwargs)

        reduction.ForkingPickler.dumps = classmethod(counted_dumps)
        reduction.ForkingPickler.loads = staticmethod(counted_loads)

    def _after_fork(self):
        self.spans, self.stack, self.counts = [], [], Counter()
        self._lock = threading.Lock()
        util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self):
        if self.spans:
            path = self.spill_dir / f"spans-{os.getpid()}.json"
            path.write_text(json.dumps(self.spans))

    # -- results ---------------------------------------------------------
    def collect(self) -> list[list]:
        """All spans, the workers' included, with parents as global indices."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            offset = len(spans)
            for name, start, end, parent, pid in json.loads(path.read_text()):
                spans.append([name, start, end, parent + offset if parent >= 0 else -1, pid])
            path.unlink()
        return spans

    def write(self, spans, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pid"],
                       "spans": spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
