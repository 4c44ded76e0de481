"""Spans around the public functions of the six vtrees layers, installed
from outside the library.

The library's modules bind each other's names with ``from .x import f``, so
a function is held under its name by several modules (and methods by their
aliases, such as ``ClopenSet.__or__`` for ``union``).  ``install`` rebinds
every such reference to a wrapper that records a span (name, start, end,
parent span), and ``uninstall`` puts the originals back.  Spans stay in
memory until the traced pass ends; self time is a span's duration minus the
durations of its child spans (calls are sequential, so children never
overlap).
"""

import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("treespace", "element", "revealing", "subgroup", "alternative", "cli")

# (metric prefix, module, attribute path), one line per traced function.
TRACED = (
    ("treespace.boundary_point", "treespace", "boundary_point"),
    ("treespace.ClopenSet.union", "treespace", "ClopenSet.union"),
    ("treespace.ClopenSet.intersect", "treespace", "ClopenSet.intersect"),
    ("treespace.ClopenSet.complement", "treespace", "ClopenSet.complement"),
    ("treespace.ClopenSet.subset_of", "treespace", "ClopenSet.subset_of"),
    ("treespace.ClopenSet.from_balls", "treespace", "ClopenSet.from_balls"),
    ("treespace.ClopenSet.contains_point", "treespace", "ClopenSet.contains_point"),
    ("element.compose", "element", "compose"),
    ("element.Element.inverse", "element", "Element.inverse"),
    ("element.Element.power", "element", "Element.power"),
    ("element.reduce", "element", "reduce"),
    ("element.Element.apply_point", "element", "Element.apply_point"),
    ("element.Element.apply_clopen", "element", "Element.apply_clopen"),
    ("revealing.reveal", "revealing", "reveal"),
    ("revealing.dynamics", "revealing", "dynamics"),
    ("revealing.hyp_power_bound", "revealing", "hyp_power_bound"),
    ("revealing.is_elliptic", "revealing", "is_elliptic"),
    ("revealing.order", "revealing", "order"),
    ("subgroup.enumerate_elements", "subgroup", "enumerate_elements"),
    ("subgroup.finite_closure", "subgroup", "finite_closure"),
    ("subgroup.restricted_closure", "subgroup", "restricted_closure"),
    ("subgroup.orbit", "subgroup", "orbit"),
    ("subgroup.restrict", "subgroup", "restrict"),
    ("subgroup.common_admissible_partition", "subgroup",
     "common_admissible_partition"),
    ("alternative.dichotomy", "alternative", "dichotomy"),
    ("alternative.stable_intersection", "alternative", "stable_intersection"),
    ("alternative.proximal_contraction", "alternative", "proximal_contraction"),
    ("alternative.neumann_disjoint", "alternative", "neumann_disjoint"),
    ("alternative.build_pingpong", "alternative", "build_pingpong"),
    ("alternative.verify_pingpong", "alternative", "verify_pingpong"),
    ("cli.main", "cli", "main"),
)

# reveal is reported per strategy, so it has two span names
SPAN_NAMES = tuple(n for n, _, _ in TRACED if n != "revealing.reveal") + (
    "revealing.reveal.rolling", "revealing.reveal.bfs")

# searches whose share of calls returning a result is reported
CLOSED_SEARCHES = ("subgroup.finite_closure", "subgroup.restricted_closure",
                   "subgroup.orbit")


class Tracer:
    """Span store and counters for one traced pass."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.spans = []   # [name id, start, end, parent index or -1]
        self.stack = []
        self.rolling = []  # one fallback flag per open rolling reveal
        self.case_starts = []  # span index at which each case began
        self.counts = dict.fromkeys(
            ("element.compose.carets_out", "revealing.bfs_fallbacks",
             "revealing.rolling_ok", "alternative.build_pingpong.found",
             *(f"{n}.closed" for n in CLOSED_SEARCHES)), 0)
        self._undo = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    # -- wrappers ----------------------------------------------------------

    def _open(self, nid):
        rec = [nid, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_reveal(self, fn):
        ids = {s: self._id(f"revealing.reveal.{s}") for s in ("rolling", "bfs")}

        @functools.wraps(fn)
        def traced(g, strategy="rolling"):
            rolling = strategy == "rolling"
            if rolling:
                self.rolling.append(False)
            rec = self._open(ids.get(strategy, ids["rolling"]))
            try:
                return fn(g, strategy)
            finally:
                self._close(rec)
                if rolling and not self.rolling.pop():
                    self.counts["revealing.rolling_ok"] += 1

        return traced

    def _wrap_bfs(self, fn):
        @functools.wraps(fn)
        def traced(pair):
            if self.rolling:
                self.rolling[-1] = True
                self.counts["revealing.bfs_fallbacks"] += 1
            return fn(pair)

        return traced

    def _wrap_generator(self, name, fn):
        """One span per resumption; calls count the elements yielded."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    rec[0] = -1 - nid  # time counted, no element yielded
                    return
                finally:
                    self._close(rec)
                yield item

        return traced

    def _counter(self, key, test):
        def after(result):
            if test(result):
                self.counts[key] += 1
        return after

    def _make(self, name, fn):
        if name == "revealing.reveal":
            return self._wrap_reveal(fn)
        if name == "subgroup.enumerate_elements":
            return self._wrap_generator(name, fn)
        if name == "element.compose":
            from vtrees.element import shape_caret_count

            def carets(e):
                self.counts["element.compose.carets_out"] += \
                    shape_caret_count(e.pair.domain)
            return self._wrap(name, fn, carets)
        if name in CLOSED_SEARCHES:
            return self._wrap(name, fn, self._counter(
                f"{name}.closed", lambda r: r is not None))
        if name == "alternative.build_pingpong":
            return self._wrap(name, fn, self._counter(
                "alternative.build_pingpong.found", lambda r: r is not None))
        return self._wrap(name, fn)

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, old, new):
        for attr, value in list(vars(owner).items()):
            if value is old:
                self._undo.append((owner, attr, value))
                setattr(owner, attr, new)

    def install(self):
        import vtrees
        mods = [vtrees] + [importlib.import_module(f"vtrees.{m}")
                           for m in MODULES]
        revealing = importlib.import_module("vtrees.revealing")
        self._rebind(revealing, revealing._bfs_reveal,
                     self._wrap_bfs(revealing._bfs_reveal))
        for name, mod, path in TRACED:
            home = importlib.import_module(f"vtrees.{mod}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._make(name, raw.__func__))
                else:
                    new = self._make(name, raw)
                self._rebind(cls, raw, new)
            else:
                fn = getattr(home, path)
                new = self._make(name, fn)
                for m in mods:
                    self._rebind(m, fn, new)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self, lo=0, hi=None):
        """Per span name: calls, self seconds, total seconds, over the spans
        recorded between indices ``lo`` and ``hi``.  Total time counts only
        the outermost span of a name, so recursion through the same
        function is not counted twice."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        open_depth = [0] * n
        ends = []  # (end time, name id) of spans enclosing the current one
        for i in range(lo, len(self.spans) if hi is None else hi):
            nid, start, end, _parent = self.spans[i]
            yielded = nid >= 0
            nid = nid if yielded else -1 - nid
            while ends and ends[-1][0] <= start:
                open_depth[ends.pop()[1]] -= 1
            dur = end - start
            calls[nid] += yielded
            self_s[nid] += dur - child[i]
            if open_depth[nid] == 0:
                total_s[nid] += dur
            open_depth[nid] += 1
            ends.append((end, nid))
        return {name: (calls[i], self_s[i], total_s[i])
                for i, name in enumerate(self.names)}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"[{nid},{start:.9f},{end:.9f},{parent}]\n")
