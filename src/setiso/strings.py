"""String isomorphism over a window, and graph isomorphism under a group
via the string encoding.

``string_iso`` is a one-member family query: the string is the one member
of a family on the trivial partition, and the family recursion of
``solver`` answers ``Iso_K^W(x, y)`` exactly.  A window W that is not the
whole domain is enforced as the solver enforces an orbit window: the query
runs on the group restricted to W, which leaves W invariant, and the answer
is pulled back.

``Budget`` is the one work bound of a query: every public query converts
its budget argument once, with ``Budget.of``, and hands that object to
every nested call, so all its recursion nodes count against one limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graphs import ColoredGraph
from .perm import IsoCoset, PermGroup, Permutation
from .pstrings import PPartition, PString, PStringFamily


class BudgetExceeded(RuntimeError):
    """The recursion explored more nodes than the configured cap."""


@dataclass
class SolverConfig:
    """The node cap of a query, in the form older callers pass it."""

    budget: Optional[int] = None


class Budget:
    """Mutable recursion-node counter shared by one query."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded("recursion budget of %d nodes exceeded" % self.limit)

    @classmethod
    def of(cls, arg: "BudgetArg") -> "Budget":
        """The budget of a query: a ``Budget`` goes on with the count of the
        query that holds it; a node cap, a ``SolverConfig`` or None (no cap)
        starts a count of its own."""
        if isinstance(arg, Budget):
            return arg
        if isinstance(arg, SolverConfig):
            arg = arg.budget
        return cls(arg)


BudgetArg = Union[int, SolverConfig, Budget, None]


@dataclass(frozen=True)
class ColoredString:
    """A string: one color id per domain point."""

    letters: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.letters)

    def apply(self, g: Permutation) -> "ColoredString":
        # (x^g)(a) = x(a^{g^-1}), i.e. position a^g receives letter x(a)
        out = [0] * len(self.letters)
        for a, letter in enumerate(self.letters):
            out[g.images[a]] = letter
        return ColoredString(tuple(out))

    def restrict(self, points: Sequence[int]) -> "ColoredString":
        return ColoredString(tuple(self.letters[p] for p in sorted(points)))


@dataclass
class StringQuery:
    """Iso_K^W(x, y) for K either a group or a coset ``group * shift``.

    ``budget`` caps the recursion nodes, as ``Budget.of`` reads it.
    """

    group: PermGroup
    x: ColoredString
    y: ColoredString
    window: Optional[Sequence[int]] = None
    shift: Optional[Permutation] = None
    budget: BudgetArg = None


def string_iso(query: StringQuery) -> IsoCoset:
    """Exactly ``Iso_K^W(x, y)`` as an IsoCoset: a one-member family query
    on the trivial partition, cut to W when W is not the whole domain."""
    from .solver import _enforce_window, _gsi_coset  # the solver imports this module
    group = query.group
    n = group.degree
    if query.x.n != n or query.y.n != n:
        raise ValueError("string domains must match the group degree")
    if query.shift is not None and query.shift.degree != n:
        raise ValueError("shift degree must match the group degree")
    window = frozenset(query.window) if query.window is not None else frozenset(range(n))
    for g in group.generators:
        if g.apply_set(window) != window:
            raise ValueError("window is not invariant under the group part")
    budget = Budget.of(query.budget)
    coset = IsoCoset.full(group, query.shift)
    if not window:
        budget.tick()
        return coset
    part = PPartition.trivial(n)
    x, y = (PStringFamily(part, [PString(0, s.letters)]) for s in (query.x, query.y))
    if len(window) < n:
        return _enforce_window(coset, part, x, y, sorted(window), budget)
    return _gsi_coset(coset, part, x, y, budget)


# -- graph isomorphism under a group ------------------------------------------

_NON_EDGE = ("non-edge",)


def _pair_index(n: int, u: int, v: int) -> int:
    return n + u * (n - 1) + (v if v < u else v - 1)


def _pair_domain_size(n: int) -> int:
    return n + n * (n - 1)


def _lift_to_pairs(g: Permutation) -> Permutation:
    """Diagonal action on Omega + ordered pairs (u, v), u != v."""
    n = g.degree
    images = [0] * _pair_domain_size(n)
    for v in range(n):
        images[v] = g.images[v]
    for u in range(n):
        for v in range(n):
            if u != v:
                images[_pair_index(n, u, v)] = _pair_index(n, g.images[u], g.images[v])
    return Permutation(images)


def _encode_graph(graph: ColoredGraph, letter_ids: dict) -> ColoredString:
    n = graph.n
    letters = [0] * _pair_domain_size(n)
    for v in range(n):
        letters[v] = letter_ids[("vertex", graph.vertex_colors[v])]
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if graph.has_edge(u, v):
                val = ("arc", graph.arc_colors[(u, v)], graph.arc_colors[(v, u)])
            else:
                val = _NON_EDGE
            letters[_pair_index(n, u, v)] = letter_ids[val]
    return ColoredString(tuple(letters))


def _joint_letter_ids(graphs: Sequence[ColoredGraph]) -> dict:
    values = {_NON_EDGE}
    for graph in graphs:
        for c in graph.vertex_colors:
            values.add(("vertex", c))
        for (u, v), c in graph.arc_colors.items():
            values.add(("arc", c, graph.arc_colors[(v, u)]))
    return {val: i for i, val in enumerate(sorted(values, key=repr))}


def graph_iso_under_group(g1: ColoredGraph, g2: ColoredGraph, group: PermGroup,
                          shift: Optional[Permutation] = None,
                          budget: BudgetArg = None) -> IsoCoset:
    """{gamma in group*shift : gamma maps g1 onto g2, colors and all}.

    Encodes each graph as a string over Omega + Omega^2 (vertex colors on the
    points, directed color pairs or a non-edge marker on ordered pairs) and
    runs string isomorphism under the induced diagonal action.  The returned
    coset lives on the original n points.
    """
    if g1.n != g2.n:
        raise ValueError("graphs must share their vertex count")
    if group.degree != g1.n:
        raise ValueError("group degree must match the vertex count")
    if shift is not None and shift.degree != g1.n:
        raise ValueError("shift degree must match the vertex count")
    n = g1.n
    ids = _joint_letter_ids([g1, g2])
    x = _encode_graph(g1, ids)
    y = _encode_graph(g2, ids)
    lifted = PermGroup([_lift_to_pairs(g) for g in group.generators], _pair_domain_size(n))
    lifted_shift = _lift_to_pairs(shift) if shift is not None else None
    result = string_iso(StringQuery(lifted, x, y, shift=lifted_shift, budget=budget))
    if result.is_empty:
        return result
    aut = PermGroup([Permutation(g.images[:n]) for g in result.group.generators], n)
    return IsoCoset(aut, Permutation(result.rep.images[:n]))
