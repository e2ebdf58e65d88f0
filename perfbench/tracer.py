"""Outside-in tracer for the nega3 benchmark.

The tracer replaces the public functions of the nega3 modules, and a few
methods of ``gf3.Code``, with timing wrappers.  A function is replaced at
every ``nega3.*`` module attribute that binds it, so a call that reaches it
through ``from .x import f`` is caught as well as a call through its home
module.  Nothing under ``src/`` is edited; ``uninstall`` puts every original
back.

Spans are kept in memory as (name, start, end, parent) and written out when
the run ends.  A function that returns an iterator (``run_search``,
``neighbor_sweep``) does its work while the caller iterates, so each step of
that iterator is recorded as a further span of the same name.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# Public functions left untraced: they run once per block row or per pool
# entry, a wrapper there would cost more than the work it measures, and no
# metric reads them.  Their time counts as self time of their callers.
_UNTRACED = {"nega3.nega": ("negashift", "vector_from_f")}

# Methods of gf3.Code traced under the name "gf3.Code.<label>".
_CODE_METHODS = {"__init__": "init", "dual": "dual",
                 "is_self_dual": "is_self_dual", "contains": "contains"}

TRACED_MODULES = ("gf3", "nega", "weights", "search", "registry", "gleason", "cli")


class Tracer:
    """Records spans for calls into the traced nega3 functions.

    ``observers`` maps a span name to ``f(args, kwargs, result)``.  It runs
    after the span has closed and with recording paused, so neither its cost
    nor the nega3 calls it makes land in any span.
    """

    def __init__(self, observers=None):
        self.paused = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.observers = observers or {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hasattr(result, "__next__"):
                result = tracer._steps(name, result)
            observe = tracer.observers.get(name)
            if observe is not None:
                tracer.paused = True
                try:
                    observe(args, kwargs, result)
                finally:
                    tracer.paused = False
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _steps(self, name: str, it):
        """Re-yield an iterator, recording each step as a span."""
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.calls[name + ".items"] += 1
            yield item

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions at every nega3 module attribute."""
        import nega3

        originals: dict[int, str] = {}  # id(function) -> span name
        funcs: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"nega3.{short}")
            skip = _UNTRACED.get(mod.__name__, ())
            for attr, value in vars(mod).items():
                # functions defined here, including lru_cache-wrapped ones
                if (attr.startswith("_") or attr in skip
                        or not (inspect.isfunction(value) or hasattr(value, "cache_info"))
                        or value.__module__ != mod.__name__):
                    continue
                originals[id(value)] = f"{short}.{attr}"
                funcs[id(value)] = value
        wrappers = {key: self._wrap(originals[key], funcs[key]) for key in originals}

        holders = [nega3] + [m for n, m in sorted(sys.modules.items())
                             if n.startswith("nega3.") and m is not None]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and funcs[id(value)] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        code_cls = sys.modules["nega3.gf3"].Code
        for method, label in _CODE_METHODS.items():
            original = code_cls.__dict__[method]
            self._restore.append((code_cls, method, original))
            setattr(code_cls, method, self._wrap(f"gf3.Code.{label}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            out[self.names[self.name_of[i]]] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def inclusive_times(self, outermost_of=None) -> dict[str, float]:
        """Total span time per name, counting a span only when no ancestor
        has the same name (or, with ``outermost_of``, a name the predicate
        accepts), so recursion and iterator steps are not counted twice."""
        same = outermost_of or (lambda a, b: a == b)
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            name = self.names[self.name_of[i]]
            p = self.parent[i]
            nested = False
            while p >= 0:
                if same(self.names[self.name_of[p]], name):
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                out[name] += self.end[i] - self.start[i]
        return dict(out)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        nid = self._name_id.get(name)
        aid = self._name_id.get(ancestor)
        if nid is None or aid is None:
            return 0
        n = 0
        for i in range(len(self.start)):
            if self.name_of[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            n += p >= 0
        return n

    def write(self, path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\n")
