"""Per-layer spans around setiso's public functions, installed from outside.

``Tracer.install`` replaces every public function of the layer modules, and
the public methods of the layer classes, by a wrapper that records a span:
name, start, end, parent span and query id.  ``Tracer.uninstall`` puts the
originals back, so traced and untraced calls can alternate.  A function is rebound in every
module namespace that holds it by name (``from .strings import string_iso``
in ``solver``, for instance), or internal calls would bypass the wrapper.

A span's self time is its duration minus the durations of its child spans.
A layer's self time is the sum over its spans, so time spent in code that is
not wrapped (``Permutation`` arithmetic, ``ColoredGraph`` methods) is charged
to the innermost wrapped caller.  A generator is traced one ``next()`` at a
time, so the consumer's work between items is not charged to it.

Spans stay in memory and are written out by ``write_spans`` after the run.
A metric whose function no longer exists is left out of the report, so the
benchmark keeps running when a later refactor renames or removes it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("perm", "strings", "solver", "pstrings", "refine", "minorfree", "hfs")
# classes whose methods are wrapped once on the class; True also wraps
# __init__, for the layers that report construction counts
CLASSES = {
    "perm": {"PermGroup": True, "GroupHom": True, "CosetUnion": False},
    "pstrings": {"PStringFamily": False},
    "strings": {"Budget": False},
}
# called once per recursion node: counted, with no span of its own
COUNT_ONLY = {"strings.Budget.tick"}
ROOT = "bench.query"


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.yields: list[int] = []
        self.by_parent: dict[tuple[int, int], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []   # (span, parent, query, name id, start, end)
        self.stack: list[list] = []    # [span, name id, start, child time]
        self.next_span = 0
        self.query = -1
        self.root = self._register(ROOT)
        self.patches = None    # (namespace, attribute, original, wrapper)

    # -- recording -------------------------------------------------------------

    def _register(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.yields.append(0)
        return self.ids[name]

    def _enter(self, nid: int) -> None:
        self.stack.append([self.next_span, nid, time.perf_counter(), 0.0])
        self.next_span += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span, nid, start, child = self.stack.pop()
        duration = end - start
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            pspan, pnid = parent[0], parent[1]
        else:
            pspan = pnid = -1
        self.by_parent[(nid, pnid)] += 1
        self.spans.append((span, pspan, self.query, nid, start, end))

    def run_query(self, query_id: int, fn):
        """Call ``fn`` as one traced query under a root span."""
        self.query = query_id
        self.active = True
        self._enter(self.root)
        try:
            return fn()
        finally:
            while self.stack:   # a wall-cap interrupt can leave spans open
                self._exit()
            self.active = False

    def _paused(self, fn, *args):
        self.active = False
        try:
            return fn(*args)
        finally:
            self.active = True

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._register(name)
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    self.calls[nid] += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracing = self.active
                    if tracing:
                        self._enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if tracing:
                            self._exit()
                    if tracing:
                        self.yields[nid] += 1
                    yield item
            return generator
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = self._paused(hook[0], args) if hook and hook[0] else None
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook:
                self._paused(hook[1], self.extra, args, result, before)
            return result
        return call

    def install(self, package: str = "setiso") -> None:
        if self.patches is None:
            self.patches = self._patches(package)
        for namespace, attr, _, wrapper in self.patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self.patches:
            setattr(namespace, attr, original)

    def _patches(self, package: str) -> list[tuple]:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        patches, wrapped = [], {}
        for layer in LAYERS:
            mod = sys.modules.get("%s.%s" % (package, layer))
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(obj, "%s.%s" % (layer, attr))
            for cls_name, with_init in CLASSES.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    continue
                for attr, obj in vars(cls).items():
                    if inspect.isfunction(obj) and (
                            not attr.startswith("_") or (attr == "__init__" and with_init)):
                        patches.append((cls, attr, obj, self._wrap(
                            obj, "%s.%s.%s" % (layer, cls_name, attr))))
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((mod, attr, obj, wrapped[obj]))
        return patches

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tquery\tname\tstart_s\tend_s\n")
            for span, parent, query, nid, start, end in self.spans:
                out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                          % (span, parent, query, self.names[nid], start, end))


# -- hooks: (before(args) or None, after(extra, args, result, before)) ----------

def _group_order(args):
    return args[0].result().order()


def _coset_add_after(extra, args, result, before):
    extra["coset_union_useful"] += args[0].result().order() > before


def _build_after(extra, args, result, before):
    extra["max_build_degree"] = max(extra["max_build_degree"], args[0].degree)


def _encode_after(extra, args, result, before):
    extra["encoded_vertices"] += result[0].n


def _pair_after(extra, args, result, before):
    extra["tcr_pair_nonempty"] += not result.is_empty


HOOKS = {
    "perm.CosetUnion.add": (_group_order, _coset_add_after),
    "perm.PermGroup.__init__": (None, _build_after),
    "hfs.hfs_to_graph": (None, _encode_after),
    "refine.iso_tcr_pairs": (None, _pair_after),
}


# -- the per-layer report ----------------------------------------------------------

class _Absent(Exception):
    """A metric refers to a function the library no longer has."""


def _ratio(num, den):
    # 0 when the layer made no attempts on this workload
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, untraced_s: float, traced_s: float,
                      queries: int) -> tuple[dict, list[str]]:
    """({name: (value, unit)}, absent metrics) for one traced pass."""

    def nid(name):
        if name not in tr.ids:
            raise _Absent(name)
        return tr.ids[name]

    def calls(name):
        return tr.calls[nid(name)]

    def self_s(*names):
        return sum(tr.self_s[nid(n)] for n in names)

    def under(name, parent):
        return tr.by_parent.get((nid(name), nid(parent)), 0)

    def triples():
        # the first tcr_sequence call of each query refines the base triple
        return (under("refine.tcr_sequence", "minorfree.iso_excluded_minor")
                - calls("minorfree.iso_excluded_minor"))

    total = sum(tr.self_s)   # self times partition the root spans
    pg, gh, cu = "perm.PermGroup.", "perm.GroupHom.", "perm.CosetUnion.add"
    fam = "pstrings.PStringFamily."
    table = [
        ("perm.group_builds", "count", lambda: calls(pg + "__init__")),
        ("perm.group_build_s", "s", lambda: self_s(pg + "__init__")),
        ("perm.max_build_degree", "points",
         lambda: calls(pg + "__init__") and tr.extra["max_build_degree"]),
        ("perm.hom_builds", "count", lambda: calls(gh + "__init__")),
        ("perm.hom_build_s", "s", lambda: self_s(gh + "__init__")),
        ("perm.kernel_calls", "count", lambda: calls(gh + "kernel")),
        ("perm.kernel_s", "s", lambda: self_s(gh + "kernel")),
        ("perm.preimage_calls", "count", lambda: calls(gh + "preimage")),
        ("perm.sifts", "count", lambda: calls(pg + "contains")),
        ("perm.contains_s", "s", lambda: self_s(pg + "contains")),
        ("perm.elements_yielded", "count", lambda: tr.yields[nid(pg + "elements")]),
        ("perm.elements_s", "s", lambda: self_s(pg + "elements")),
        ("perm.transversal_yielded", "count", lambda: tr.yields[nid("perm.transversal_cosets")]),
        ("perm.coset_union_adds", "count", lambda: calls(cu)),
        ("perm.coset_union_add_s", "s", lambda: self_s(cu)),
        ("perm.coset_union_useful_ratio", "ratio",
         lambda: _ratio(tr.extra["coset_union_useful"], calls(cu))),
        ("strings.budget_ticks", "count", lambda: calls("strings.Budget.tick")),
        ("strings.string_iso_calls", "count", lambda: calls("strings.string_iso")),
        ("strings.string_iso_s", "s", lambda: self_s("strings.string_iso")),
        ("strings.graph_iso_calls", "count", lambda: calls("strings.graph_iso_under_group")),
        ("strings.graph_iso_s", "s", lambda: self_s("strings.graph_iso_under_group")),
        ("solver.gsi_calls", "count", lambda: calls("solver.generalized_string_iso")),
        ("solver.gsi_s", "s", lambda: self_s("solver.generalized_string_iso")),
        ("solver.image_keys", "count", lambda: calls("solver.family_image_key")),
        ("solver.image_key_s", "s", lambda: self_s("solver.family_image_key")),
        ("solver.balance_calls", "count", lambda: calls("solver.balance_orbits")),
        ("solver.balance_s", "s", lambda: self_s("solver.balance_orbits")),
        ("pstrings.family_applies", "count", lambda: calls(fam + "apply")),
        ("pstrings.family_restricts", "count", lambda: calls(fam + "restrict")),
        ("pstrings.action_s", "s", lambda: self_s(fam + "apply", fam + "restrict")),
        ("refine.color_refinement_calls", "count", lambda: calls("refine.color_refinement")),
        ("refine.color_refinement_s", "s", lambda: self_s("refine.color_refinement")),
        ("refine.tcr_sequence_calls", "count", lambda: calls("refine.tcr_sequence")),
        ("refine.tcr_sequence_s", "s", lambda: self_s("refine.tcr_sequence")),
        ("refine.tcr_pair_calls", "count", lambda: calls("refine.iso_tcr_pairs")),
        ("refine.tcr_pair_s", "s", lambda: self_s("refine.iso_tcr_pairs")),
        ("refine.tcr_pair_nonempty_ratio", "ratio",
         lambda: _ratio(tr.extra["tcr_pair_nonempty"], calls("refine.iso_tcr_pairs"))),
        ("minorfree.triples_examined", "count", triples),
        ("minorfree.screen_pass_ratio", "ratio",
         lambda: _ratio(under("refine.iso_tcr_pairs", "minorfree.iso_excluded_minor"), triples())),
        ("minorfree.three_connected_s", "s",
         lambda: self_s("minorfree.is_three_connected", "minorfree.is_connected")),
        ("minorfree.query_s", "s", lambda: self_s("minorfree.iso_excluded_minor")),
        ("hfs.encode_s", "s", lambda: self_s("hfs.hfs_to_graph")),
        ("hfs.encoded_vertices", "count",
         lambda: calls("hfs.hfs_to_graph") and tr.extra["encoded_vertices"]),
    ]
    for layer in LAYERS:
        table.append(("%s.self_share" % layer, "ratio",
                      lambda layer=layer: _ratio(sum(
                          tr.self_s[i] for i, name in enumerate(tr.names)
                          if name.split(".", 1)[0] == layer), total)))
    table.append(("trace.overhead_ms", "ms",
                  lambda: 1000.0 * (traced_s - untraced_s) / queries))
    metrics, absent = {}, []
    for name, unit, value in table:
        try:
            v = value()
            metrics[name] = (int(v) if unit in ("count", "points") else v, unit)
        except _Absent as missing:
            absent.append("%s (needs %s)" % (name, missing))
    return metrics, absent
