"""Isomorphism of 3-connected graphs promised to exclude a K_{3,h} minor.

The pipeline individualizes one vertex triple of the first graph and
searches the ordered triples of the second as an individualization-
refinement tree (McKay and Piperno, *Practical graph isomorphism II*, 2014):
each prefix is individualized and refined, and a branch survives only while
its refinement matches the first graph's.  A prefix that the isomorphisms
found so far already carry the base triple's prefix onto is skipped before
it is refined (the covered-prefix rule of the ``perm`` docstring, at inner
nodes and leaves); the (h-1)-CR alternation runs on both sides of every
surviving triple not skipped, which is then solved as a t-CR-bounded pair.
Both prunes are exact: refinement ids are canonical, so no isomorphism
extends a dropped prefix, a skipped prefix's isomorphisms are already in the
answer, and no triple below either could have stalled, because the replay
stalls only on a first side that is not discrete, and that side is checked
once up front (``iso_excluded_minor`` gives the argument in full).  A stalled
sequence is a diagnosable symptom of a broken promise: on small inputs it
falls back to graph isomorphism under the full symmetric group, and
otherwise it errors, never answering wrongly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .graphs import ColoredGraph
from .perm import CosetUnion, IsoCoset, PermGroup, Permutation
from .refine import _start, color_refinement, iso_tcr_pairs, tcr_sequence
from .solver import Budget, BudgetArg
from .strings import graph_iso_under_group

# Largest vertex count for which a stalled alternation falls back to graph
# isomorphism under the full symmetric group.
BRUTE_FORCE_LIMIT = 10


def genus_to_h(g: int) -> int:
    """Excluding K_{3,4g+3} captures Euler genus at most g."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    return 4 * g + 3


def bipartite_genus(m: int, n: int) -> int:
    """Euler genus of the complete bipartite graph K_{m,n} (m, n >= 2)."""
    if m < 2 or n < 2:
        raise ValueError("the genus formula needs both sides of size >= 2")
    return math.ceil((m - 2) * (n - 2) / 4)


def k3h_genus_table(h_max: int) -> dict[int, int]:
    return {h: bipartite_genus(3, h) for h in range(3, h_max + 1)}


def is_connected(graph: ColoredGraph, removed: frozenset = frozenset()) -> bool:
    """Whether ``graph`` minus ``removed`` is connected.

    No query calls it; it stays because perfbench's
    ``minorfree.three_connected_s`` names it, and the bench guard fails
    when a named function is gone."""
    alive = [v for v in range(graph.n) if v not in removed]
    if not alive:
        return True
    neighbors = graph.neighbor_table()
    seen = {alive[0]}
    queue = [alive[0]]
    while queue:
        v = queue.pop()
        for w in neighbors[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(alive)


def is_three_connected(graph: ColoredGraph) -> bool:
    """At least 4 vertices, and no two of them cut the graph.

    A pair {u, v} cuts G exactly when v cuts G - u or G - u is disconnected,
    so one lowpoint search per deleted vertex decides it: O(n (n + m)).
    """
    if graph.n < 4:
        return False
    neighbors = graph.neighbor_table()
    return not any(_has_cut_vertex(neighbors, u) for u in range(graph.n))


def _has_cut_vertex(neighbors: Sequence[Sequence[int]], removed: int) -> bool:
    """Whether the graph minus vertex ``removed`` is disconnected or has a
    cut vertex: an iterative depth-first search with lowpoints (Hopcroft
    and Tarjan 1973).  A non-root vertex p cuts exactly when some child c
    has low[c] >= disc[p], and the root exactly when it has two children."""
    n = len(neighbors)
    root = 1 if removed == 0 else 0
    disc = [-1] * n
    low = [0] * n
    disc[root] = 0
    seen = 1
    root_children = 0
    stack = [(root, -1, iter(neighbors[root]))]
    while stack:
        v, parent, rest = stack[-1]
        for w in rest:
            if w == removed or w == parent:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = seen
                seen += 1
                stack.append((w, v, iter(neighbors[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent >= 0:
                if low[v] >= disc[parent]:
                    return True
                low[parent] = min(low[parent], low[v])
    return root_children > 1 or seen < n - 1


@dataclass
class SmallClassReport:
    """Outcome of the small-color-class diagnostic."""

    ok: bool
    witness: Optional[tuple[int, ...]]  # a class of size <= h-1 inside V2
    reason: str


def lemma_small_class(graph: ColoredGraph, coloring, v1: Sequence[int],
                      v2: Sequence[int], h: int) -> SmallClassReport:
    """Find a color class of size at most h-1 inside v2, or report that the
    excluded-minor promise is violated.  The hypotheses (v1 discrete under
    the coloring, coloring stable, |v1| >= 3, N(v2) = v1) are checked."""
    ids = coloring.ids
    v1s, v2s = sorted(set(v1)), sorted(set(v2))
    if not v2s:
        return SmallClassReport(True, None, "vacuous: empty interior")
    counts = Counter(ids)
    for v in v1s:
        if counts[ids[v]] != 1:
            return SmallClassReport(False, None,
                                    "hypothesis failed: boundary vertex %d is not a singleton class" % v)
    if len(v1s) < 3:
        return SmallClassReport(False, None, "hypothesis failed: boundary smaller than 3")
    refined = color_refinement(graph, ids)
    if refined.num_classes != coloring.num_classes:
        return SmallClassReport(False, None, "hypothesis failed: coloring is not stable")
    neighbors = graph.neighbor_table()
    interior = set(v2s)
    boundary = set()
    for v in v2s:
        for w in neighbors[v]:
            if w not in interior:
                boundary.add(w)
    if boundary != set(v1s):
        return SmallClassReport(False, None, "hypothesis failed: N(V2) differs from V1")
    classes: dict[int, list[int]] = {}
    for v in v2s:
        classes.setdefault(ids[v], []).append(v)
    small = [tuple(sorted(cls)) for cls in classes.values() if len(cls) <= h - 1]
    if small:
        witness = min(small)
        return SmallClassReport(True, witness, "found class of size %d" % len(witness))
    return SmallClassReport(
        False, None,
        "no class of size <= %d inside the interior: the input cannot "
        "exclude a K_{3,%d} minor" % (h - 1, h))


class MinorPromiseViolation(RuntimeError):
    """The (h-1)-CR alternation stalled and the input is too large for the
    fallback to graph isomorphism under the full symmetric group."""


def iso_excluded_minor(g1: ColoredGraph, g2: ColoredGraph, h: int,
                       budget: BudgetArg = None) -> IsoCoset:
    """Isomorphisms of two 3-connected graphs under the full symmetric group.

    The base triple (0, 1, 2) of g1 is matched against the ordered triples
    of g2 by a depth-first search over prefixes.  At depth i = 0, 1, 2 the
    prefix is individualized by position, as the t-CR alternation starts
    (prefix vertex j in the class (j, None), any other vertex in (i, its
    color)), and refined, and so is ``base_triple[:i]`` in g1.  A prefix
    whose sorted color ids differ from g1's is dropped; otherwise it is
    extended, in increasing vertex order, by the vertices whose id is that
    of ``base_triple[i]`` in g1.  So the surviving triples come out in
    sorted order.  Each triple's piece, {sigma : sigma(base) = triple}, goes
    into one ``CosetUnion`` on the base (0, 1, 2).  A prefix of length
    k = 1, 2, 3 that the union covers (``CosetUnion.covers``: some sigma in
    it maps ``base[:k]`` onto the prefix) is skipped before it is refined,
    or for k = 3 before it is screened; every other surviving triple is
    screened by the exact trace invariant of the (h-1)-CR sequence and then
    decided as a t-CR-bounded pair with the trivial group matching the
    triples.  One budget bounds the pairs of all triples.  Each graph keeps
    its last alternation record, so g1's alternation runs once per query,
    in the up-front ``tcr_sequence``, and g2's once per examined triple: the
    screen's ``tcr_sequence`` records it, and the replay reads both records
    back.  An automorphism query (g2 is g1) replays against a copy of g1, so
    the screen does not overwrite the record side 1 reads, and checks
    3-connectivity once.

    The search answers exactly what a loop over all ordered triples would:
    - Refinement ids are canonical (signatures are ranked), so any
      isomorphism sigma with sigma(base[:i]) = prefix carries g1's coloring
      onto g2's, id for id.  A pruned triple has no isomorphism extending
      it, its piece would be empty, and an empty piece leaves the
      ``CosetUnion`` unchanged.
    - Every piece below a covered prefix is already in the union: the
      search is depth first, drops only prefixes without isomorphisms, and
      adds at each triple every isomorphism that maps the base onto it, so
      the covered-prefix rule of the ``perm`` docstring applies as stated
      there, with Sym(n) as the searched group.
    - No replay stalls, so none needs a fallback, and a triple that is
      pruned or skipped, or lies below a skipped prefix, cannot have
      stalled either.  ``iso_tcr_pairs`` raises
      ``NotTCRBounded`` only when its side-1 record ends before the classes
      are discrete.  Side 1 is always (g1, base triple), and its record is
      the one that ``tcr_sequence(g1, base_triple, t)`` summarizes: the
      same alternation from the same start.  That sequence is checked to
      be discrete before the search, so side 1's record ends discrete in
      every replay.
    """
    if h < 3:
        raise ValueError("h must be at least 3")
    budget = Budget.of(budget)
    for graph in (g1,) if g2 is g1 else (g1, g2):
        if graph.n < 4:
            raise ValueError("need at least 4 vertices")
        if not is_three_connected(graph):
            raise ValueError("input graph is not 3-connected")
    if g1.n != g2.n:
        return IsoCoset.empty()
    if g2 is g1:
        g2 = replace(g1)
    n = g1.n
    t = h - 1
    base_triple = (0, 1, 2)
    col1, discrete1, trace1 = tcr_sequence(g1, base_triple, t)
    if not discrete1:
        return _stall_fallback(g1, g2, budget)

    base_ids = [color_refinement(g1, _start(g1, base_triple[:i])[0]).ids
                for i in range(3)]
    base_sorted = [sorted(ids) for ids in base_ids]

    union = CosetUnion(n, base_triple)

    def search(prefix=()):
        """Add the piece of every triple of g2 that extends ``prefix`` and
        survives the refinement prune, in sorted order, skipping covered
        prefixes."""
        i = len(prefix)
        # base_triple is (0, 1, 2), so the prefix is the image table it reads
        if union.covers(prefix, i):
            return
        if i == 3:
            union.add(examine(prefix))
            return
        ids = color_refinement(g2, _start(g2, prefix)[0]).ids
        if sorted(ids) != base_sorted[i]:
            return
        target = base_ids[i][base_triple[i]]
        for v in range(n):
            if ids[v] == target and v not in prefix:
                search(prefix + (v,))

    def examine(triple):
        col2, discrete2, trace2 = tcr_sequence(g2, triple, t)
        if not discrete2:
            # isomorphisms transport the sequence; a stalled g2 side with a
            # discrete g1 side rules this triple out exactly
            return IsoCoset.empty()
        if trace1 != trace2:
            return IsoCoset.empty()
        theta = dict(zip(base_triple, triple))
        return iso_tcr_pairs(g1, base_triple, g2, triple,
                             PermGroup([], 3), theta, t, budget)

    search()
    return union.result()


def _stall_fallback(g1: ColoredGraph, g2: ColoredGraph, budget: Budget) -> IsoCoset:
    n = g1.n
    if n > BRUTE_FORCE_LIMIT:
        raise MinorPromiseViolation(
            "the alternation stalled (excluded-minor promise violated?) and "
            "%d vertices exceed the fallback limit %d"
            % (n, BRUTE_FORCE_LIMIT))
    sym = PermGroup([Permutation.from_cycles(n, [0, 1]),
                     Permutation.from_cycles(n, list(range(n)))], n)
    return graph_iso_under_group(g1, g2, sym, budget=budget)


def iso_genus(g1: ColoredGraph, g2: ColoredGraph, genus: int,
              budget: BudgetArg = None) -> IsoCoset:
    return iso_excluded_minor(g1, g2, genus_to_h(genus), budget)
