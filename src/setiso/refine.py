"""Color refinement, the t-CR alternation, and isomorphism of t-CR-bounded
pairs by reduction to the group-theoretic solvers.

Refinement ranks signatures lexicographically each round, so color ids are
canonical: isomorphic inputs refined separately end up with identical ids.
The t-CR iso test never compares raw split ids across graphs; every
cross-graph matching is delegated to the coset machinery.

The replay carries an isomorphism coset from each class list to the next,
finer one by one rule, ``_lift``.  Each refined class on each side is named
(parent old class, tag), the tag being its refinement string, its rank among
the singletons of a split class, or, for the first list, its color; a
vertex is the untagged child of its discrete class.  A permutation g of the
old classes sends the class (p, tag) to (g(p), tag^g), where only a string
tag moves under g.  ``_lift`` is two calls of ``perm.induced_action`` on the
first side's names: the generators act on them, and the representative maps
them into the second side's names (``targets``).  A missing name, the
action's NotInvariant, gives the empty coset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import ColoredGraph
from .perm import IsoCoset, NotInvariant, PermGroup, Permutation, induced_action
from .solver import set_of_strings_iso
from .strings import Budget, BudgetArg, ColoredString, graph_iso_under_group


class NotTCRBounded(RuntimeError):
    """The alternating refinement stalled before reaching a discrete coloring."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class Coloring:
    """Dense per-vertex color ids plus the classes they induce."""

    ids: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(set(self.ids))

    def classes(self) -> list[tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.ids):
            out.setdefault(c, []).append(v)
        return [tuple(out[c]) for c in sorted(out)]

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(Counter(self.ids).values()))

    def is_discrete(self) -> bool:
        return self.num_classes == len(self.ids)


def _rank_dense(values: Sequence) -> tuple[int, ...]:
    table = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(table[v] for v in values)


def _refine_once(graph: ColoredGraph, ids: Sequence[int],
                 neighbors: list[list[int]]) -> tuple[int, ...]:
    signatures = []
    for v in range(graph.n):
        ms = sorted(
            (ids[w], graph.arc_colors[(v, w)], graph.arc_colors[(w, v)])
            for w in neighbors[v]
        )
        signatures.append((ids[v], tuple(ms)))
    return _rank_dense(signatures)


def color_refinement(graph: ColoredGraph,
                     start: Optional[Sequence[int]] = None) -> Coloring:
    """The coarsest stable refinement of the vertex coloring (1-WL)."""
    neighbors = graph.neighbor_table()
    ids = _rank_dense(tuple(start) if start is not None else graph.vertex_colors)
    while True:
        new = _refine_once(graph, ids, neighbors)
        if len(set(new)) == len(set(ids)):
            return Coloring(new)
        ids = new


def tcr_sequence(graph: ColoredGraph, individualize: Sequence[int], t: int
                 ) -> tuple[Coloring, bool, list[tuple]]:
    """Alternate refinement with splitting of classes of size <= t.

    Individualized vertices each get their own color up front; each splitting
    phase makes every class of size at most t discrete.  Returns the final
    coloring, whether it is discrete, and a per-phase trace of
    (phase, class-size multiset) records, which is an isomorphism invariant.
    """
    n = graph.n
    sset = set(individualize)
    init = [("s", v) if v in sset else ("c", graph.vertex_colors[v]) for v in range(n)]
    ids = _rank_dense(init)
    trace: list[tuple] = [("init", Coloring(ids).class_sizes())]
    while True:
        refined = color_refinement(graph, ids)
        trace.append(("refine", refined.class_sizes()))
        sizes = Counter(refined.ids)
        split = [("v", v) if 1 < sizes[refined.ids[v]] <= t else ("c", refined.ids[v])
                 for v in range(n)]
        new = Coloring(_rank_dense(split))
        trace.append(("split", new.class_sizes()))
        if new.num_classes == len(set(ids)):
            return new, new.is_discrete(), trace
        ids = new.ids


# -- isomorphism of t-CR-bounded pairs ------------------------------------------

def _index_of(classes) -> dict[int, int]:
    out = {}
    for i, cls in enumerate(classes):
        for v in cls:
            out[v] = i
    return out


def _quotient_graph(graph: ColoredGraph, classes: list[tuple[int, ...]],
                    encode: dict) -> ColoredGraph:
    """Vertex colors: multiset of original colors; arc colors: multisets of
    original arc colors between the classes."""
    idx = _index_of(classes)
    m = len(classes)
    vcolors = []
    for cls in classes:
        key = ("v", tuple(sorted(graph.vertex_colors[v] for v in cls)))
        vcolors.append(encode.setdefault(key, len(encode)))
    arcs: dict[tuple[int, int], list] = {}
    for e in graph.edges:
        u, v = sorted(e)
        iu, iv = idx[u], idx[v]
        if iu == iv:
            # arcs inside one class are reflected in the vertex color instead
            continue
        arcs.setdefault((iu, iv), []).append(
            (graph.arc_colors[(u, v)], graph.arc_colors[(v, u)]))
        arcs.setdefault((iv, iu), []).append(
            (graph.arc_colors[(v, u)], graph.arc_colors[(u, v)]))
    # arcs within a class change the class's own color (loop data)
    loop_data: dict[int, list] = {i: [] for i in range(m)}
    for e in graph.edges:
        u, v = sorted(e)
        if idx[u] == idx[v]:
            loop_data[idx[u]].append(tuple(sorted(
                (graph.arc_colors[(u, v)], graph.arc_colors[(v, u)]))))
    final_vcolors = []
    for i in range(m):
        key = ("vl", vcolors[i], tuple(sorted(loop_data[i])))
        final_vcolors.append(encode.setdefault(key, len(encode)))
    arc_color_map = {}
    for (iu, iv), data in arcs.items():
        key = ("a", tuple(sorted(data)))
        arc_color_map[(iu, iv)] = encode.setdefault(key, len(encode))
    return ColoredGraph.build(m, arc_color_map, final_vcolors)


def _class_strings(graph: ColoredGraph, classes: list[tuple[int, ...]],
                   encode: dict) -> dict[int, tuple]:
    """For each vertex: its refinement string over the current classes."""
    idx = _index_of(classes)
    neighbors = graph.neighbor_table()
    strings = {}
    for v in range(graph.n):
        letters = []
        for i, cls in enumerate(classes):
            ms = tuple(sorted(
                (graph.arc_colors[(v, w)], graph.arc_colors[(w, v)])
                for w in neighbors[v] if idx[w] == i))
            key = (1 if idx[v] == i else 0, ms)
            letters.append(encode.setdefault(("l", key), len(encode)))
        strings[v] = tuple(letters)
    return strings


def _split_classes(classes: list[tuple[int, ...]], groups: dict[int, tuple]
                   ) -> list[tuple[int, ...]]:
    """Refine classes by the per-vertex data in ``groups``; order: by class,
    then by the canonical order of the distinct data values."""
    out = []
    for cls in classes:
        buckets: dict[tuple, list[int]] = {}
        for v in cls:
            buckets.setdefault(groups[v], []).append(v)
        for key in sorted(buckets):
            out.append(tuple(sorted(buckets[key])))
    return out


def _lift(gens: Sequence[Permutation], rep: Permutation, key1: list, key2: list,
          act: Optional[Callable] = None,
          kernel: Sequence[Permutation] = ()) -> IsoCoset:
    """The coset ``<gens> * rep`` on old classes, carried to refined classes.

    ``key1[i]`` and ``key2[i]`` name refined class i of each side as
    (parent old class, tag); g sends (p, tag) to (g(p), act(tag, g)), or to
    (g(p), tag) without ``act``.  Generators are looked up in side 1's names,
    the representative in side 2's; ``kernel`` generators, which fix every
    parent, go after the lifted ones.  Empty when an image name is missing.
    """
    def image(name: tuple, g: Permutation) -> tuple:
        p, tag = name
        return g.images[p], tag if act is None else act(tag, g)

    try:
        lifted = induced_action(key1, image, gens)
        [rep_img] = induced_action(key1, image, [rep], targets=key2)
    except NotInvariant:
        return IsoCoset.empty()
    return IsoCoset(PermGroup(lifted + list(kernel), len(key1)), rep_img)


def _permuted(letters: tuple, g: Permutation) -> tuple:
    return ColoredString(letters).apply(g).letters


def _quotient_check(g1: ColoredGraph, g2: ColoredGraph, cls1: list, cls2: list,
                    coset: IsoCoset, budget: Budget) -> IsoCoset:
    """Constrain the coset by isomorphism of the quotient graphs."""
    if coset.is_empty:
        return coset
    encode: dict = {}
    q1 = _quotient_graph(g1, cls1, encode)
    q2 = _quotient_graph(g2, cls2, encode)
    res = graph_iso_under_group(q1, q2.apply(coset.rep.inverse()), coset.group,
                                budget=budget)
    return res.shifted(coset.rep)


def _replay_refinement(g1: ColoredGraph, g2: ColoredGraph, cls1: list, cls2: list,
                       coset: IsoCoset, budget: Budget
                       ) -> tuple[list, list, IsoCoset, bool]:
    """Replay refinement rounds: a set-of-strings instance per round, then
    the quotient-graph constraint on the refined classes."""
    progressed = False
    while True:
        if coset.is_empty:
            return cls1, cls2, coset, progressed
        encode: dict = {}
        str1 = _class_strings(g1, cls1, encode)
        str2 = _class_strings(g2, cls2, encode)
        new1 = _split_classes(cls1, str1)
        new2 = _split_classes(cls2, str2)
        if len(new1) == len(cls1) and len(new2) == len(cls2):
            return cls1, cls2, coset, progressed
        progressed = True
        if len(new1) != len(new2):
            return new1, new2, IsoCoset.empty(), progressed

        back = coset.rep.inverse()
        xs = [ColoredString(l) for l in str1.values()]
        ys = [ColoredString(l).apply(back) for l in str2.values()]
        res = set_of_strings_iso(coset.group, xs, ys, budget).shifted(coset.rep)
        if res.is_empty:
            return new1, new2, res, progressed
        # a refined class is named by its parent and its string
        idx1, idx2 = _index_of(cls1), _index_of(cls2)
        coset = _lift(res.group.generators, res.rep,
                      [(idx1[c[0]], str1[c[0]]) for c in new1],
                      [(idx2[c[0]], str2[c[0]]) for c in new2], act=_permuted)
        cls1, cls2 = new1, new2
        coset = _quotient_check(g1, g2, cls1, cls2, coset, budget)


def _replay_split(g1: ColoredGraph, g2: ColoredGraph, cls1: list, cls2: list,
                  coset: IsoCoset, t: int, budget: Budget
                  ) -> tuple[list, list, IsoCoset, bool]:
    """One splitting phase; always ends with the quotient-graph constraint
    (at discrete classes that constraint is full graph isomorphism)."""
    if coset.is_empty:
        return cls1, cls2, coset, False

    def split(classes):
        """The split classes, each named by its parent and its rank among
        its siblings."""
        out, names = [], []
        for p, cls in enumerate(classes):
            parts = [(v,) for v in cls] if 1 < len(cls) <= t else [cls]
            out.extend(parts)
            names.extend((p, r) for r in range(len(parts)))
        return out, names

    (new1, key1), (new2, key2) = split(cls1), split(cls2)
    if len(new1) == len(cls1):
        return cls1, cls2, _quotient_check(g1, g2, cls1, cls2, coset, budget), False
    if len(new1) != len(new2):
        return new1, new2, IsoCoset.empty(), True

    # full symmetry inside each split class: a transposition, and a cycle
    # over all of its vertices when there are more than two
    m = len(new1)
    kernel = []
    for j, (p, r) in enumerate(key1):
        size = len(cls1[p])
        if r == 0 and 1 < size <= t:
            kernel.append(Permutation.from_cycles(m, [j, j + 1]))
            if size > 2:
                kernel.append(Permutation.from_cycles(m, list(range(j, j + size))))
    coset = _lift(coset.group.generators, coset.rep, key1, key2, kernel=kernel)
    return new1, new2, _quotient_check(g1, g2, new1, new2, coset, budget), True


def iso_tcr_pairs(g1: ColoredGraph, s1: Sequence[int], g2: ColoredGraph,
                  s2: Sequence[int], group: PermGroup, theta: dict,
                  t: int, budget: BudgetArg = None) -> IsoCoset:
    """{sigma : g1 ≅ g2 and sigma restricted to s1 lies in group*theta}.

    ``group`` acts on the sorted positions of s1; ``theta`` maps s1 onto s2.
    The alternation is replayed round by round: refinement rounds become
    set-of-strings instances over the current classes, and each phase ends
    with a quotient-graph isomorphism under the coset.  Between phases the
    coset is lifted to the refined classes by their (parent, tag) names, as
    the module docstring describes.  Raises NotTCRBounded when the
    alternation stalls before both colorings are discrete.
    """
    budget = Budget.of(budget)
    if g1.n != g2.n:
        return IsoCoset.empty()
    n = g1.n
    s1_sorted, s2_sorted = sorted(set(s1)), sorted(set(s2))
    if len(s1_sorted) != len(s2_sorted):
        raise ValueError("individualized sets must have equal size")
    k = len(s1_sorted)
    if group.degree != k:
        raise ValueError("group degree must equal the individualized set size")

    def initial_classes(graph, ss):
        """The classes, and their names: position i of ``ss`` is (i, None),
        and each color class is a child of the extra parent k, tagged by
        its color."""
        sset = set(ss)
        rest: dict[int, list[int]] = {}
        for v in range(graph.n):
            if v not in sset:
                rest.setdefault(graph.vertex_colors[v], []).append(v)
        colors = sorted(rest)
        classes = [(v,) for v in ss] + [tuple(sorted(rest[c])) for c in colors]
        return classes, [(i, None) for i in range(k)] + [(k, c) for c in colors]

    cls1, key1 = initial_classes(g1, s1_sorted)
    cls2, key2 = initial_classes(g2, s2_sorted)
    if len(cls1) != len(cls2):
        return IsoCoset.empty()
    pos2 = {v: i for i, v in enumerate(s2_sorted)}
    theta_pos = Permutation([pos2[theta[v]] for v in s1_sorted] + [k])
    coset = _lift([Permutation(g.images + (k,)) for g in group.generators],
                  theta_pos, key1, key2)

    while True:
        cls1, cls2, coset, progress1 = _replay_refinement(g1, g2, cls1, cls2, coset,
                                                          budget)
        cls1, cls2, coset, progress2 = _replay_split(g1, g2, cls1, cls2, coset, t,
                                                     budget)
        if coset.is_empty:
            return IsoCoset.empty()
        if all(len(c) == 1 for c in cls1):
            break
        if not progress1 and not progress2:
            raise NotTCRBounded(
                "alternation stalled at %d classes before discreteness"
                % len(cls1))

    # vertex v is the untagged child of its class
    idx1, idx2 = _index_of(cls1), _index_of(cls2)
    return _lift(coset.group.generators, coset.rep,
                 [(idx1[v], None) for v in range(n)],
                 [(idx2[v], None) for v in range(n)])
