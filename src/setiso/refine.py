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

The replay is pure class-and-coset bookkeeping, and one graph isomorphism
test at the end makes it exact.  Let Iso be the isomorphisms g1 -> g2 that
respect ``group * theta`` on s1; the first coset contains them.  Each step
keeps every isomorphism that respects the coset before it:
- a refinement round's set-of-strings query, because an isomorphism maps
  the set of class strings of g1 onto that of g2;
- the (parent, tag) lift, because it maps each refined class onto the one
  with the image parent and the image tag;
- a split step, which adds the full symmetric group on each split class.
So the final coset contains Iso, and the graph test under it removes
exactly the non-isomorphisms; checks between phases could only prune.  A
final coset with the trivial group is one permutation, and its graph test
is one comparison of graphs.
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


def _lift(coset: IsoCoset, key1: list, key2: list, act: Optional[Callable] = None,
          kernel: Sequence[Permutation] = ()) -> IsoCoset:
    """A coset on old classes, carried to refined classes.

    ``key1[i]`` and ``key2[i]`` name refined class i of each side as
    (parent old class, tag); g sends (p, tag) to (g(p), act(tag, g)), or to
    (g(p), tag) without ``act``.  Generators are looked up in side 1's names,
    the representative in side 2's; ``kernel`` generators, which fix every
    parent, go after the lifted ones.  Empty when the coset is, or when an
    image name is missing.
    """
    def image(name: tuple, g: Permutation) -> tuple:
        p, tag = name
        return g.images[p], tag if act is None else act(tag, g)

    if coset.is_empty:
        return coset
    try:
        lifted = induced_action(key1, image, coset.group.generators)
        [rep_img] = induced_action(key1, image, [coset.rep], targets=key2)
    except NotInvariant:
        return IsoCoset.empty()
    return IsoCoset(PermGroup(lifted + list(kernel), len(key1)), rep_img)


def _permuted(letters: tuple, g: Permutation) -> tuple:
    return ColoredString(letters).apply(g).letters


def _replay_refinement(g1: ColoredGraph, g2: ColoredGraph, cls1: list, cls2: list,
                       coset: IsoCoset, budget: Budget
                       ) -> tuple[list, list, IsoCoset, bool]:
    """Replay refinement rounds, a set-of-strings instance per round."""
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
        # a refined class is named by its parent and its string
        idx1, idx2 = _index_of(cls1), _index_of(cls2)
        coset = _lift(res, [(idx1[c[0]], str1[c[0]]) for c in new1],
                      [(idx2[c[0]], str2[c[0]]) for c in new2], act=_permuted)
        cls1, cls2 = new1, new2


def _replay_split(cls1: list, cls2: list, coset: IsoCoset, t: int
                  ) -> tuple[list, list, IsoCoset, bool]:
    """One splitting phase: every class of size at most t becomes discrete."""
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
        return cls1, cls2, coset, False
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
    return new1, new2, _lift(coset, key1, key2, kernel=kernel), True


def iso_tcr_pairs(g1: ColoredGraph, s1: Sequence[int], g2: ColoredGraph,
                  s2: Sequence[int], group: PermGroup, theta: dict,
                  t: int, budget: BudgetArg = None) -> IsoCoset:
    """{sigma : g1 ≅ g2 and sigma restricted to s1 lies in group*theta}.

    ``group`` acts on the sorted positions of s1; ``theta`` must map s1
    bijectively onto s2 (ValueError otherwise).  The alternation is replayed
    round by round: refinement rounds become set-of-strings instances over
    the current classes, and the coset is lifted to the refined classes by
    their (parent, tag) names.  Once the classes are discrete, one graph
    test under the coset gives the exact answer, as the module docstring
    argues; none runs if the replay empties the coset first.  When the
    coset's group is trivial the test is ``g1.apply(rep) == g2`` and one
    budget tick; otherwise it is one ``graph_iso_under_group`` call.
    Raises NotTCRBounded only when side 1 stalls: its classes stop refining
    before they are discrete.  Side 1's classes depend on g1, s1 and t
    alone.
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
    if {theta.get(v) for v in s1_sorted} != set(s2_sorted):
        raise ValueError("theta must map s1 bijectively onto s2")

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
    extended = PermGroup([Permutation(g.images + (k,)) for g in group.generators], k + 1)
    coset = _lift(IsoCoset(extended, theta_pos), key1, key2)

    while True:
        cls1, cls2, coset, progress1 = _replay_refinement(g1, g2, cls1, cls2, coset,
                                                          budget)
        cls1, cls2, coset, progress2 = _replay_split(cls1, cls2, coset, t)
        if coset.is_empty:
            return IsoCoset.empty()
        if all(len(c) == 1 for c in cls1):
            break
        if not progress1 and not progress2:
            raise NotTCRBounded(
                "alternation stalled at %d classes before discreteness"
                % len(cls1))

    # vertex v is the untagged child of its class (a lift between discrete
    # classes is never empty); the coset now contains every isomorphism, and
    # one graph test keeps exactly those
    idx1, idx2 = _index_of(cls1), _index_of(cls2)
    coset = _lift(coset, [(idx1[v], None) for v in range(n)],
                  [(idx2[v], None) for v in range(n)])
    rep = coset.rep
    if coset.group.is_trivial():
        budget.tick()
        if g1.apply(rep) != g2:
            return IsoCoset.empty()
        # no generators, as the solver answers: the lifted group may list
        # identities, which a CosetUnion would carry into the answer
        return IsoCoset(PermGroup([], n), rep)
    return graph_iso_under_group(g1, g2.apply(rep.inverse()), coset.group,
                                 budget=budget).shifted(rep)
