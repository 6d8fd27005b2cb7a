"""Color refinement, the t-CR alternation, and isomorphism of t-CR-bounded
pairs by reduction to the group-theoretic solvers.

One round function, ``_round``, refines every partition here: it keys each
vertex by its class id and the sorted (class id, arc colors) of its
neighbors, and ranks the keys.  So class ids are canonical: isomorphic
inputs refined separately end up with identical ids.

``_alternation`` records the t-CR alternation on one graph as steps
(kind, ids, names).  ``names[i]`` names class i by its parent, a class of
the step before, and a tag:
- the initial classes: individualized vertex j is (j, None), and each color
  class of the others is (k, color), a child of an extra parent k;
- a refinement round's classes: their key (parent, tail), the tail being
  the sorted (class id, arc colors) of a member's neighbors;
- a split's classes: (parent, rank among the siblings by vertex index).
``tcr_sequence`` summarizes the record.  ``iso_tcr_pairs`` walks the
records of its two sides in step and never compares raw ids across graphs;
every cross-graph matching is delegated to the coset machinery.  A coset
on one step's classes is carried to the next step's by one rule, ``_lift``:
a permutation g of the old classes sends (p, tag) to (g(p), tag^g).  Only a
tail moves under g, because it names neighbors by their old class ids,
which g permutes.  ``_lift`` is two calls of ``perm.induced_action`` on the
first side's names: the generators act on them, and the representative
maps them into the second side's names (``targets``).  A missing name, the
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
Reading a round from the records instead of rescanning the graphs changes
none of this: a record holds the same partitions, and a class's string is
the one every member's neighbors would spell.  So the final coset contains
Iso, and the graph test under it removes exactly the non-isomorphisms;
checks between steps could only prune.  A final coset with the trivial
group is one permutation, and its graph test is one comparison of graphs.

A refinement round under a coset whose group is trivial is a name check:
the rep alone is ``_lift``ed, with no set-of-strings query.  This is
exact.  Under the trivial group the query accepts rep exactly when rep maps
the set of class strings of g1 onto that of g2.  ``_class_string`` is
injective and equivariant on names: its letters are keyed by content, not
by position, so rep sends the string of (p, tail) to that of (rep(p),
tail^rep).  So the strings match exactly when rep maps names1 into names2,
which is what ``_lift``'s NotInvariant tests.  Triviality is read off the
generators, which ``PermGroup`` keeps free of identities, so no chain is
built.

Each graph keeps its last alternation record (``_alternation``), so a
``tcr_sequence`` call followed by a replay on the same graph and start
runs the alternation once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .graphs import ColoredGraph
from .perm import (IsoCoset, NotInvariant, PermGroup, Permutation, _checked_points,
                   induced_action)
from .solver import Budget, BudgetArg, _gsi_coset, _string_family
from .strings import graph_iso_under_group


class NotTCRBounded(RuntimeError):
    """The alternating refinement stalled before reaching a discrete coloring."""


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


def _ranked(labels: Sequence[Hashable]) -> tuple[tuple[int, ...], list]:
    """Dense ids ranking ``labels``, and the distinct labels in id order."""
    names = sorted(set(labels))
    rank = {x: i for i, x in enumerate(names)}
    return tuple(rank[x] for x in labels), names


def _round(graph: ColoredGraph, ids: Sequence[int]) -> tuple[tuple[int, ...], list]:
    """One refinement round: the ranked keys (ids[v], tail), the tail being
    the sorted (ids[w], arc colors v->w and w->v) over the neighbors w of v,
    read from the graph's arc table."""
    return _ranked([(c, tuple(sorted((ids[w], out, back) for w, out, back in row)))
                    for c, row in zip(ids, graph.arc_table())])


def color_refinement(graph: ColoredGraph,
                     start: Optional[Sequence[int]] = None) -> Coloring:
    """The coarsest stable refinement of the vertex coloring (1-WL), or of
    ``start``, which needs one label per vertex (ValueError otherwise)."""
    labels = graph.vertex_colors if start is None else tuple(start)
    if len(labels) != graph.n:
        raise ValueError("start must give one label per vertex")
    ids, names = _ranked(labels)
    while True:
        ids, new = _round(graph, ids)
        if len(new) == len(names):
            return Coloring(ids)
        names = new


def _start(graph: ColoredGraph, points: Sequence[int]) -> tuple[tuple[int, ...], list]:
    """The ranked initial classes with ``points`` individualized by
    position: points[j] is the class (j, None), and any other vertex lies in
    (len(points), its color)."""
    k = len(points)
    pos = {v: j for j, v in enumerate(points)}
    return _ranked([(pos[v], None) if v in pos else (k, graph.vertex_colors[v])
                    for v in range(graph.n)])


def _alternation(graph: ColoredGraph, points: Sequence[int], t: int) -> tuple[tuple, ...]:
    """The record of the t-CR alternation from ``_start(graph, points)``:
    its steps (kind, ids, names), kind "init", "refine" or "split".

    A phase runs refinement rounds until the class count stops growing, one
    "refine" step per growing round, and then makes every class of size at
    most t discrete, one "split" step if any class splits.  The record ends
    with the first phase that changes nothing.

    The graph is immutable, so it keeps its last record: a second call with
    the same ``(points, t)`` returns it without a round.  One entry per
    graph, so alternating calls on one graph recompute each time.
    """
    key = (tuple(points), t)
    last = graph.__dict__.get("_tcr_record")
    if last is not None and last[0] == key:
        return last[1]
    ids, names = _start(graph, points)
    record = [("init", ids, names)]
    while True:
        count = len(names)
        while True:
            new, keys = _round(graph, ids)
            if len(keys) == len(names):
                break
            ids, names = new, keys
            record.append(("refine", ids, names))
        sizes, ranks = Counter(ids), Counter()
        labels = []
        for c in ids:
            labels.append((c, ranks[c]))
            if 1 < sizes[c] <= t:
                ranks[c] += 1
        if ranks:
            ids, names = _ranked(labels)
            record.append(("split", ids, names))
        if len(names) == count:
            record = tuple(record)
            graph.__dict__["_tcr_record"] = (key, record)
            return record


def tcr_sequence(graph: ColoredGraph, individualize: Sequence[int], t: int
                 ) -> tuple[Coloring, bool, list[tuple]]:
    """Alternate refinement with splitting of classes of size <= t.

    Individualized vertices each get their own color up front (ValueError
    for a point outside 0..n-1); each splitting phase makes every class of
    size at most t discrete.  Returns the final coloring, whether it is
    discrete, and a per-phase trace of (phase, class-size multiset) records,
    which is an isomorphism invariant.
    """
    record = _alternation(graph, _checked_points(individualize, graph.n), t)
    sizes = [Coloring(ids).class_sizes() for _, ids, _ in record]
    trace: list[tuple] = [("init", sizes[0])]
    for i, (kind, _, _) in enumerate(record):
        if kind == "split":
            trace += [("refine", sizes[i - 1]), ("split", sizes[i])]
    # the phases that split nothing: one that only refined, then the one
    # that changed nothing
    phases = 2 if record[-1][0] == "refine" else 1
    trace += [("refine", sizes[-1]), ("split", sizes[-1])] * phases
    final = Coloring(record[-1][1])
    return final, final.is_discrete(), trace


# -- isomorphism of t-CR-bounded pairs ------------------------------------------

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


def _moved_tail(tail: tuple, g: Permutation) -> tuple:
    return tuple(sorted((g.images[c], out, back) for c, out, back in tail))


def _class_string(name: tuple, width: int, encode: dict) -> tuple:
    """The string of the refined class ``name`` = (parent, tail) over the
    ``width`` old classes.  Letter i stands for (i is the parent, the arc
    colors of the tail's entries in class i).  ``encode`` numbers letters in
    the order they first occur along the string, so it reads only the
    positions the name lists and ``gap``, the first default one."""
    parent, tail = name
    pairs: dict[int, list] = {parent: []}
    for c, out, back in tail:
        pairs.setdefault(c, []).append((out, back))
    gap = next(i for i in range(width + 1) if i not in pairs)
    codes = {i: encode.setdefault((int(i == parent), tuple(pairs.get(i, ()))), len(encode))
             for i in sorted({*pairs, gap}) if i < width}
    letters = [codes.get(gap)] * width
    for i, code in codes.items():
        letters[i] = code
    return tuple(letters)


def _split_kernel(names: list) -> list[Permutation]:
    """Full symmetry inside each split class: a transposition, and a cycle
    over all of its children when there are more than two."""
    m = len(names)
    children = Counter(p for p, _ in names)
    kernel = []
    for j, (p, r) in enumerate(names):
        if r == 0 and children[p] > 1:
            kernel.append(Permutation.from_cycles(m, [j, j + 1]))
            if children[p] > 2:
                kernel.append(Permutation.from_cycles(m, list(range(j, j + children[p]))))
    return kernel


def iso_tcr_pairs(g1: ColoredGraph, s1: Sequence[int], g2: ColoredGraph,
                  s2: Sequence[int], group: PermGroup, theta: dict,
                  t: int, budget: BudgetArg = None) -> IsoCoset:
    """{sigma : g1 ≅ g2 and sigma restricted to s1 lies in group*theta}.

    ``group`` acts on the sorted positions of s1; s1 and s2 must lie in
    0..n-1, and ``theta`` must map s1 bijectively onto s2 (ValueError
    otherwise).  The alternation is recorded once per side, and the records
    are walked in step: a refinement round becomes a set-of-strings instance
    over the classes before it, and the coset is lifted to each step's
    classes by their names.  Records of unequal length, or a step of another
    kind or class count, give the empty coset.  Once the classes are
    discrete, one graph test under the coset gives the exact answer, as the
    module docstring argues; none runs if the replay empties the coset
    first.  A refinement round under a coset with the trivial group is a
    name check and one budget tick, with no set-of-strings query.  When the
    final coset's group is trivial the test is ``g1.apply(rep) == g2`` and
    one budget tick; otherwise it is one ``graph_iso_under_group`` call.
    Raises NotTCRBounded only when side 1 stalls: the records agree, and
    side 1's classes are not discrete at the end.  Side 1's record depends
    on g1, s1 and t alone, and each graph keeps its last record, so a call
    after ``tcr_sequence`` on the same graph and start runs no round there.
    """
    budget = Budget.of(budget)
    s1_sorted, s2_sorted = _checked_points(s1, g1.n), _checked_points(s2, g2.n)
    if g1.n != g2.n:
        return IsoCoset.empty()
    n = g1.n
    if len(s1_sorted) != len(s2_sorted):
        raise ValueError("individualized sets must have equal size")
    k = len(s1_sorted)
    if group.degree != k:
        raise ValueError("group degree must equal the individualized set size")
    if {theta.get(v) for v in s1_sorted} != set(s2_sorted):
        raise ValueError("theta must map s1 bijectively onto s2")

    record1, record2 = _alternation(g1, s1_sorted, t), _alternation(g2, s2_sorted, t)
    if len(record1) != len(record2):
        return IsoCoset.empty()
    # the coset on the k positions and on k, the parent of the color classes
    pos2 = {v: i for i, v in enumerate(s2_sorted)}
    theta_pos = Permutation([pos2[theta[v]] for v in s1_sorted] + [k])
    extended = PermGroup([Permutation(g.images + (k,)) for g in group.generators], k + 1)
    coset = IsoCoset(extended, theta_pos)
    width = k + 1
    for (kind, ids1, names1), (kind2, ids2, names2) in zip(record1, record2):
        if kind != kind2 or len(names1) != len(names2):
            return IsoCoset.empty()
        if kind == "refine" and not coset.group.generators:
            # under the trivial group the round is a name check (module
            # docstring), one budget tick
            budget.tick()
            coset = _lift(coset, names1, names2, act=_moved_tail)
        elif kind == "refine":
            # one string per class, in the order a vertex scan meets them,
            # so that letters are numbered as the per-vertex strings would be
            encode: dict = {}
            fx, fy = (_string_family(width, [_class_string(names[c], width, encode)
                                             for c in dict.fromkeys(ids)])
                      for names, ids in ((names1, ids1), (names2, ids2)))
            res = _gsi_coset(coset, fx.partition, fx, fy, budget)
            coset = _lift(res, names1, names2, act=_moved_tail)
        else:
            kernel = _split_kernel(names1) if kind == "split" else ()
            coset = _lift(coset, names1, names2, kernel=kernel)
        if coset.is_empty:
            return coset
        width = len(names1)
    if width < n:
        raise NotTCRBounded("alternation stalled at %d classes before discreteness"
                            % width)

    # vertex v is the untagged child of its class (a lift between discrete
    # classes is never empty); the coset now contains every isomorphism, and
    # one graph test keeps exactly those
    coset = _lift(coset, [(c, None) for c in ids1], [(c, None) for c in ids2])
    rep = coset.rep
    if not coset.group.generators:
        budget.tick()
        return IsoCoset(coset.group, rep) if g1.apply(rep) == g2 else IsoCoset.empty()
    return graph_iso_under_group(g1, g2.apply(rep.inverse()), coset.group,
                                 budget=budget).shifted(rep)
