"""Isomorphism of 3-connected graphs promised to exclude a K_{3,h} minor.

The pipeline individualizes one vertex triple of the first graph, loops over
all ordered triples of the second, runs the (h-1)-CR alternation on both and
solves the surviving candidates as t-CR-bounded pairs.  A stalled sequence is
a diagnosable symptom of a broken promise: it falls back to brute force on
small inputs and errors otherwise, never answering wrongly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import ColoredGraph
from .perm import CosetUnion, IsoCoset, PermGroup, Permutation
from .refine import NotTCRBounded, color_refinement, iso_tcr_pairs, tcr_sequence
from .strings import Budget, BudgetArg

# Largest vertex count the brute-force fallback for a stalled alternation
# scans (10! permutations).
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
    """Brute force: delete every vertex pair and test connectivity."""
    if graph.n < 4:
        return False
    if not is_connected(graph):
        return False
    for u in range(graph.n):
        if not is_connected(graph, frozenset({u})):
            return False
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if not is_connected(graph, frozenset({u, v})):
                return False
    return True


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
    counts: dict[int, int] = {}
    for v in range(graph.n):
        counts[ids[v]] = counts.get(ids[v], 0) + 1
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
    boundary = set()
    for v in v2s:
        for w in neighbors[v]:
            if w not in set(v2s):
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
    brute-force fallback."""


def _brute_force_iso(g1: ColoredGraph, g2: ColoredGraph) -> IsoCoset:
    union = CosetUnion(g1.n)
    trivial = PermGroup([], g1.n)
    for images in itertools.permutations(range(g1.n)):
        p = Permutation(images)
        if g1.apply(p) == g2:
            union.add(IsoCoset(trivial, p))
    return union.result()


def iso_excluded_minor(g1: ColoredGraph, g2: ColoredGraph, h: int,
                       budget: BudgetArg = None) -> IsoCoset:
    """Isomorphisms of two 3-connected graphs under the full symmetric group.

    Exhaustive and order-deterministic over the ordered triples of g2; each
    candidate triple is first screened by the exact trace invariant of the
    (h-1)-CR sequence, then decided as a t-CR-bounded pair with the trivial
    group matching the triples.  One budget bounds the pairs of all triples.
    """
    if h < 3:
        raise ValueError("h must be at least 3")
    budget = Budget.of(budget)
    for graph in (g1, g2):
        if graph.n < 4:
            raise ValueError("need at least 4 vertices")
        if not is_three_connected(graph):
            raise ValueError("input graph is not 3-connected")
    if g1.n != g2.n:
        return IsoCoset.empty()
    n = g1.n
    t = h - 1
    base_triple = (0, 1, 2)
    col1, discrete1, trace1 = tcr_sequence(g1, base_triple, t)
    if not discrete1:
        return _stall_fallback(g1, g2)

    triples = sorted(itertools.permutations(range(n), 3))

    def examine(triple):
        col2, discrete2, trace2 = tcr_sequence(g2, triple, t)
        if not discrete2:
            # isomorphisms transport the sequence; a stalled g2 side with a
            # discrete g1 side rules this triple out exactly
            return IsoCoset.empty()
        if trace1 != trace2:
            return IsoCoset.empty()
        theta = dict(zip(base_triple, triple))
        try:
            return iso_tcr_pairs(g1, base_triple, g2, triple,
                                 PermGroup([], 3), theta, t, budget)
        except NotTCRBounded:
            return None  # signals a stall that the screen did not catch

    results = [examine(triple) for triple in triples]
    union = CosetUnion(n)
    for res in results:
        if res is None:
            return _stall_fallback(g1, g2)
        union.add(res)
    return union.result()


def _stall_fallback(g1: ColoredGraph, g2: ColoredGraph) -> IsoCoset:
    if g1.n > BRUTE_FORCE_LIMIT:
        raise MinorPromiseViolation(
            "the alternation stalled (excluded-minor promise violated?) and "
            "%d vertices exceed the brute-force fallback limit %d"
            % (g1.n, BRUTE_FORCE_LIMIT))
    return _brute_force_iso(g1, g2)


def iso_genus(g1: ColoredGraph, g2: ColoredGraph, genus: int,
              budget: BudgetArg = None) -> IsoCoset:
    return iso_excluded_minor(g1, g2, genus_to_h(genus), budget)
