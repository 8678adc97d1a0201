"""In-memory span and counter recorder for traced benchmark runs (stdlib only).

Spans are recorded around calls into the public functions of the
`sosgraphs` modules, from outside the package: `install` replaces every
module-level binding of a wrapped function (a name imported with
`from x import y` lives in several namespaces) and the
`MembershipGraph.neighbors` method. Each span keeps its name, start, end,
parent span and the process's `ru_maxrss` before and after, so the span
that raised the peak resident set can be named.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import Counter


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Spans as (name, start, end, parent index, rss_before_kb, rss_after_kb)."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen_rows: set = set()

    def wrap(self, name: str, fn, count=None):
        """Return fn recording one span per call; count(rec, args, result) after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, rss0, _maxrss_kb())
            self.counters[name + ".calls"] += 1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def first_time(self, key) -> bool:
        """True once per key; used for counters over distinct rows."""
        if key in self._seen_rows:
            return False
        self._seen_rows.add(key)
        return True

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct child spans."""
    out = [s[2] - s[1] for s in spans]
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


# Counters recorded where the work happens; each returns nothing.
def _count_vertex_set(rec, args, vs):
    if rec.first_time((vs.label, vs.k)):
        rec.counters["sos.sos_enumerated"] += vs.sos_count()
        rec.counters["sos.vertices"] += len(vs)


def _count_orbits(key):
    def count(rec, args, labels):
        rec.counters[key] += int(labels.max()) + 1 if labels.size else 0

    return count


def _count_neighbors(rec, args, nb):
    rec.counters["graph.neighbors.lookups"] += args[0].n
    rec.counters["graph.neighbors.hits"] += int(nb.size)


def _count_build(rec, args, g):
    rec.counters["graph.vertex_pairs"] += g.n * (g.n - 1) // 2
    rec.counters["graph.edges"] += g.edge_count


def _count_serialize(rec, args, _):
    rec.counters["graph.serialize.bytes"] += os.path.getsize(args[1])


def _count_bitrows(rec, args, rows):
    rec.counters["clique.induced_bitrows.pairs"] += len(rows) ** 2


def _count_collected(rec, args, cliques):
    rec.counters["clique.collect_cliques_of_size.cliques"] += int(cliques.shape[0])


# (span name, module, attribute, counter). Orchestrators are wrapped too so
# that their own work is charged to their layer rather than to the CLI.
TARGETS = [
    ("roots.build_root_system", "sosgraphs.roots", "build_root_system", None),
    ("sos.vertex_set", "sosgraphs.sos", "vertex_set", _count_vertex_set),
    ("graph.weyl_orbit_labels", "sosgraphs.graph", "weyl_orbit_labels",
     _count_orbits("graph.weyl_orbits")),
    ("graph.membership_graph", "sosgraphs.graph", "membership_graph", None),
    ("graph.build_gamma", "sosgraphs.graph", "build_gamma", _count_build),
    ("graph.stats", "sosgraphs.graph", "stats", None),
    ("graph.serialize", "sosgraphs.graph", "serialize", _count_serialize),
    ("graph.deserialize", "sosgraphs.graph", "deserialize", None),
    ("graph.file_checksum", "sosgraphs.graph", "file_checksum", None),
    ("clique.induced_bitrows", "sosgraphs.clique", "induced_bitrows", _count_bitrows),
    ("clique.max_clique_size_bitset", "sosgraphs.clique", "max_clique_size_bitset", None),
    ("clique.count_cliques_of_size_bitset", "sosgraphs.clique",
     "count_cliques_of_size_bitset", None),
    ("clique.collect_cliques_of_size", "sosgraphs.clique", "collect_cliques_of_size",
     _count_collected),
    ("clique.clique_number", "sosgraphs.clique", "clique_number", None),
    ("clique.count_maximum_cliques", "sosgraphs.clique", "count_maximum_cliques", None),
    ("sunflower.perm_orbit_labels", "sosgraphs.sunflower", "perm_orbit_labels",
     _count_orbits("sunflower.perm_orbits")),
    ("sunflower.count_sunflower_max_cliques", "sosgraphs.sunflower",
     "count_sunflower_max_cliques", None),
]


def install(rec: Recorder) -> None:
    """Wrap every TARGETS function in every loaded sosgraphs namespace."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "sosgraphs" or name.startswith("sosgraphs."))]
    for name, module_name, attr, count in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        traced = rec.wrap(name, original, count)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, traced)
    graph_cls = sys.modules["sosgraphs.graph"].MembershipGraph
    graph_cls.neighbors = rec.wrap("graph.neighbors", graph_cls.neighbors, _count_neighbors)
