"""Color refinement, the t-CR alternation, and isomorphism of t-CR-bounded
pairs by reduction to the group-theoretic solvers.

Refinement ranks signatures lexicographically each round, so color ids are
canonical: isomorphic inputs refined separately end up with identical ids.
The t-CR iso test never compares raw split ids across graphs; every
cross-graph matching is delegated to the coset machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import ColoredGraph
from .perm import IsoCoset, PermGroup, Permutation
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
        return tuple(sorted(len(c) for c in self.classes()))

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
    trace: list[tuple] = [("init", tuple(sorted(_sizes(ids))))]
    while True:
        refined = color_refinement(graph, ids)
        trace.append(("refine", refined.class_sizes()))
        sizes: dict[int, int] = {}
        for c in refined.ids:
            sizes[c] = sizes.get(c, 0) + 1
        split = [("v", v) if 1 < sizes[refined.ids[v]] <= t else ("c", refined.ids[v])
                 for v in range(n)]
        new_ids = _rank_dense(split)
        trace.append(("split", tuple(sorted(_sizes(new_ids)))))
        if len(set(new_ids)) == len(set(ids)):
            final = Coloring(tuple(new_ids))
            return final, final.is_discrete(), trace
        ids = new_ids


def _sizes(ids: Sequence[int]) -> list[int]:
    out: dict[int, int] = {}
    for c in ids:
        out[c] = out.get(c, 0) + 1
    return list(out.values())


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


class _PairState:
    def __init__(self, g1: ColoredGraph, g2: ColoredGraph,
                 cls1: list[tuple[int, ...]], cls2: list[tuple[int, ...]],
                 coset: IsoCoset):
        self.g1 = g1
        self.g2 = g2
        self.cls1 = cls1
        self.cls2 = cls2
        self.coset = coset  # group over cls1 indices, rep mapping onto cls2

    def empty(self, cls1=None, cls2=None) -> "_PairState":
        return _PairState(self.g1, self.g2, cls1 or self.cls1,
                          cls2 or self.cls2, IsoCoset.empty())


def _quotient_check(state: _PairState, budget: Budget) -> _PairState:
    """Constrain the coset by isomorphism of the quotient graphs."""
    if state.coset.is_empty:
        return state
    encode: dict = {}
    q1 = _quotient_graph(state.g1, state.cls1, encode)
    q2 = _quotient_graph(state.g2, state.cls2, encode)
    shift = state.coset.rep
    q2_aligned = q2.apply(shift.inverse())
    res = graph_iso_under_group(q1, q2_aligned, state.coset.group,
                                budget=budget)
    if res.is_empty:
        return state.empty()
    return _PairState(state.g1, state.g2, state.cls1, state.cls2,
                      IsoCoset(res.group, res.rep * shift))


def _replay_refinement(state: _PairState, budget: Budget
                       ) -> tuple[_PairState, bool]:
    """Replay refinement rounds: a set-of-strings instance per round, then
    the quotient-graph constraint on the refined classes."""
    progressed = False
    while True:
        if state.coset.is_empty:
            return state, progressed
        encode: dict = {}
        str1 = _class_strings(state.g1, state.cls1, encode)
        str2 = _class_strings(state.g2, state.cls2, encode)
        new1 = _split_classes(state.cls1, str1)
        new2 = _split_classes(state.cls2, str2)
        if len(new1) == len(state.cls1) and len(new2) == len(state.cls2):
            return state, progressed
        progressed = True
        if len(new1) != len(new2):
            return state.empty(new1, new2), progressed

        shift = state.coset.rep
        back = shift.inverse()
        xs = [ColoredString(l) for l in str1.values()]
        ys = [ColoredString(l).apply(back) for l in str2.values()]
        res = set_of_strings_iso(state.coset.group, xs, ys, budget)
        if res.is_empty:
            return state.empty(new1, new2), progressed
        coset = IsoCoset(res.group, res.rep * shift)
        state = _advance_to(state, new1, new2, str1, str2, coset)
        state = _quotient_check(state, budget)


def _advance_to(state: _PairState, new1, new2, data1, data2,
                coset: IsoCoset) -> _PairState:
    """Push a coset on the old classes to the refined class domain.

    A permutation of old classes respecting the string sets induces a map of
    new classes: the class keyed by (parent, string) goes to the class keyed
    by (image parent, permuted string)."""
    m_new = len(new1)
    idx_old1 = _index_of(state.cls1)
    idx_old2 = _index_of(state.cls2)
    parent_new1 = [idx_old1[new1[i][0]] for i in range(m_new)]
    parent_new2 = [idx_old2[new2[i][0]] for i in range(m_new)]
    key_new1 = {(parent_new1[i], data1[new1[i][0]]): i for i in range(m_new)}
    key_new2 = {(parent_new2[i], data2[new2[i][0]]): i for i in range(m_new)}

    def lift(g: Permutation, cross: bool):
        lookup = key_new2 if cross else key_new1
        img = [0] * m_new
        for i in range(m_new):
            d = data1[new1[i][0]]
            key = (g.images[parent_new1[i]], ColoredString(d).apply(g).letters)
            if key not in lookup:
                return None
            img[i] = lookup[key]
        return Permutation(img)

    gens = []
    for g in coset.group.generators:
        lifted = lift(g, cross=False)
        if lifted is None:
            return state.empty(new1, new2)
        gens.append(lifted)
    rep = lift(coset.rep, cross=True)
    if rep is None:
        return state.empty(new1, new2)
    return _PairState(state.g1, state.g2, new1, new2,
                      IsoCoset(PermGroup(gens, m_new), rep))


def _replay_split(state: _PairState, t: int, budget: Budget
                  ) -> tuple[_PairState, bool]:
    """One splitting phase; always ends with the quotient-graph constraint
    (at discrete classes that constraint is full graph isomorphism)."""
    if state.coset.is_empty:
        return state, False

    def split(classes):
        out = []
        for cls in classes:
            if 1 < len(cls) <= t:
                out.extend(tuple([v]) for v in cls)
            else:
                out.append(cls)
        return out

    new1, new2 = split(state.cls1), split(state.cls2)
    progressed = len(new1) != len(state.cls1)
    if not progressed:
        return _quotient_check(state, budget), False
    if len(new1) != len(new2):
        return state.empty(new1, new2), True

    m_new = len(new1)
    idx_old1 = _index_of(state.cls1)
    idx_old2 = _index_of(state.cls2)
    parent1 = [idx_old1[new1[i][0]] for i in range(m_new)]
    parent2 = [idx_old2[new2[i][0]] for i in range(m_new)]
    children1: dict[int, list[int]] = {}
    for j, p in enumerate(parent1):
        children1.setdefault(p, []).append(j)
    children2: dict[int, list[int]] = {}
    for j, p in enumerate(parent2):
        children2.setdefault(p, []).append(j)

    # the lift: positional child maps over the group part, full symmetry
    # inside each split class, positional rep across the pair
    gens = []
    for g in state.coset.group.generators:
        img = [0] * m_new
        for p, kids in children1.items():
            tkids = children1[g.images[p]]
            if len(kids) != len(tkids):
                return state.empty(new1, new2), True
            for a, b in zip(kids, tkids):
                img[a] = b
        gens.append(Permutation(img))
    for p, kids in children1.items():
        if len(kids) > 1:
            gens.append(Permutation.from_cycles(m_new, [kids[0], kids[1]]))
            if len(kids) > 2:
                gens.append(Permutation.from_cycles(m_new, kids))
    rep_img = [0] * m_new
    for p, kids in children1.items():
        tkids = children2[state.coset.rep.images[p]]
        if len(kids) != len(tkids):
            return state.empty(new1, new2), True
        for a, b in zip(kids, tkids):
            rep_img[a] = b
    lifted = _PairState(state.g1, state.g2, new1, new2,
                        IsoCoset(PermGroup(gens, m_new), Permutation(rep_img)))
    return _quotient_check(lifted, budget), True


def iso_tcr_pairs(g1: ColoredGraph, s1: Sequence[int], g2: ColoredGraph,
                  s2: Sequence[int], group: PermGroup, theta: dict,
                  t: int, budget: BudgetArg = None) -> IsoCoset:
    """{sigma : g1 ≅ g2 and sigma restricted to s1 lies in group*theta}.

    ``group`` acts on the sorted positions of s1; ``theta`` maps s1 onto s2.
    The alternation is replayed round by round: refinement rounds become
    set-of-strings instances over the current classes, splitting phases lift
    the coset through per-class symmetric groups, and each phase ends with a
    quotient-graph isomorphism under the lifted coset.  Raises NotTCRBounded
    when the alternation stalls before both colorings are discrete.
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
        rest: dict[int, list[int]] = {}
        for v in range(graph.n):
            if v not in set(ss):
                rest.setdefault(graph.vertex_colors[v], []).append(v)
        return ([tuple([v]) for v in ss]
                + [tuple(sorted(rest[c])) for c in sorted(rest)])

    cls1 = initial_classes(g1, s1_sorted)
    cls2 = initial_classes(g2, s2_sorted)
    if len(cls1) != len(cls2):
        return IsoCoset.empty()
    m = len(cls1)
    colors1 = [g1.vertex_colors[cls[0]] for cls in cls1[k:]]
    colors2 = [g2.vertex_colors[cls[0]] for cls in cls2[k:]]
    if sorted(colors1) != sorted(colors2):
        return IsoCoset.empty()

    lift_gens = []
    for g in group.generators:
        img = list(range(m))
        for i in range(k):
            img[i] = g.images[i]
        lift_gens.append(Permutation(img))
    lifted = PermGroup(lift_gens, m)
    pos2 = {v: i for i, v in enumerate(s2_sorted)}
    theta_img = [0] * m
    for i in range(k):
        theta_img[i] = pos2[theta[s1_sorted[i]]]
    color_to_idx2: dict[int, list[int]] = {}
    for i2 in range(k, m):
        color_to_idx2.setdefault(colors2[i2 - k], []).append(i2)
    for i1 in range(k, m):
        cands = color_to_idx2.get(colors1[i1 - k])
        if not cands:
            return IsoCoset.empty()
        theta_img[i1] = cands.pop(0)
    state = _PairState(g1, g2, cls1, cls2,
                       IsoCoset(lifted, Permutation(theta_img)))

    while True:
        state, progress1 = _replay_refinement(state, budget)
        state, progress2 = _replay_split(state, t, budget)
        if state.coset.is_empty:
            return IsoCoset.empty()
        if all(len(c) == 1 for c in state.cls1):
            break
        if not progress1 and not progress2:
            raise NotTCRBounded(
                "alternation stalled at %d classes before discreteness"
                % len(state.cls1))

    order1 = [cls[0] for cls in state.cls1]
    order2 = [cls[0] for cls in state.cls2]
    gens = []
    for g in state.coset.group.generators:
        img = [0] * n
        for i, v in enumerate(order1):
            img[v] = order1[g.images[i]]
        gens.append(Permutation(img))
    rep_img = [0] * n
    for i, v in enumerate(order1):
        rep_img[v] = order2[state.coset.rep.images[i]]
    return IsoCoset(PermGroup(gens, n), Permutation(rep_img))
