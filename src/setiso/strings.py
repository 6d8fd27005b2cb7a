"""String isomorphism over a window, and graph isomorphism under a group.

Both are family queries on the trivial partition of the n points, answered
exactly by the family recursion of ``solver``.  ``string_iso`` asks for
``Iso_K^W(x, y)`` with the string as the one member.  A window W that is not
the whole domain is enforced as the solver enforces an orbit window: the
query runs on the group restricted to W, which leaves W invariant, and the
answer is pulled back.  ``graph_iso_under_group`` writes a colored graph as
one member for the vertex colors plus one member per edge, which carries the
colors of its two arcs at its two ends, so the group acts on the n
vertices themselves.  ``set_of_strings_iso`` writes each set of strings as
one family.  The work bound of every query is ``solver.Budget``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import ColoredGraph
from .perm import IsoCoset, PermGroup, Permutation, _checked_points
from .pstrings import PStringFamily
from .solver import (Budget, BudgetArg, GsiInstance, _gsi_coset, _string_family, enforce_window,
                     generalized_string_iso)


@dataclass(frozen=True)
class ColoredString:
    """A string: one color id per domain point.  Any iterable of ints is
    stored as a tuple; anything else raises ValueError."""

    letters: tuple[int, ...]

    def __post_init__(self):
        try:
            letters = tuple(self.letters)
        except TypeError:
            raise ValueError("string letters must be a sequence of ints") from None
        if not all(isinstance(letter, int) for letter in letters):
            raise ValueError("string letters must be ints")
        object.__setattr__(self, "letters", letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    def apply(self, g: Permutation) -> "ColoredString":
        # (x^g)(a) = x(a^{g^-1}), i.e. position a^g receives letter x(a)
        out = [0] * len(self.letters)
        for a, letter in enumerate(self.letters):
            out[g.images[a]] = letter
        return ColoredString(tuple(out))


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
    group = query.group
    n = group.degree
    if query.x.n != n or query.y.n != n:
        raise ValueError("string domains must match the group degree")
    if query.shift is not None and query.shift.degree != n:
        raise ValueError("shift degree must match the group degree")
    window = frozenset(range(n) if query.window is None
                       else _checked_points(query.window, n))
    for g in group.generators:
        if g.apply_set(window) != window:
            raise ValueError("window is not invariant under the group part")
    budget = Budget.of(query.budget)
    coset = IsoCoset.full(group, query.shift)
    if not window:
        budget.tick()
        return coset
    x, y = (_string_family(n, [s.letters]) for s in (query.x, query.y))
    if len(window) < n:
        return enforce_window(coset, x.partition, x, y, sorted(window), budget)
    return _gsi_coset(coset, x.partition, x, y, budget)


def set_of_strings_iso(group: PermGroup, xs: Sequence[ColoredString],
                       ys: Sequence[ColoredString],
                       budget: BudgetArg = None) -> IsoCoset:
    """Set-of-strings isomorphism: the trivial-partition special case."""
    fx, fy = (_string_family(group.degree, [s.letters for s in ss]) for ss in (xs, ys))
    return generalized_string_iso(GsiInstance(group, fx.partition, fx, fy), budget)


# -- graph isomorphism under a group ------------------------------------------

def _graph_families(g1: ColoredGraph, g2: ColoredGraph) -> list[PStringFamily]:
    """Each graph as a family on its n points, on the trivial partition.

    One member holds the vertex colors; each edge uv is one member with the
    color of arc (u, v) at u, that of (v, u) at v and the blank letter 0
    elsewhere.  Vertex and arc colors get disjoint letters, numbered jointly
    for both graphs, so a member of one kind never equals one of the other.
    """
    graphs = (g1, g2)
    vertex = sorted({c for g in graphs for c in g.vertex_colors}, key=repr)
    arc = sorted({c for g in graphs for c in g.arc_colors.values()}, key=repr)
    letter = {("v", c): 1 + i for i, c in enumerate(vertex)}
    letter.update((("a", c), 1 + len(vertex) + i) for i, c in enumerate(arc))
    families = []
    for g in graphs:
        strings = [tuple(letter[("v", c)] for c in g.vertex_colors)]
        for e in g.edges:
            u, v = sorted(e)
            letters = [0] * g.n
            letters[u] = letter[("a", g.arc_colors[(u, v)])]
            letters[v] = letter[("a", g.arc_colors[(v, u)])]
            strings.append(tuple(letters))
        families.append(_string_family(g.n, strings))
    return families


def graph_iso_under_group(g1: ColoredGraph, g2: ColoredGraph, group: PermGroup,
                          shift: Optional[Permutation] = None,
                          budget: BudgetArg = None) -> IsoCoset:
    """{gamma in group*shift : gamma maps g1 onto g2, colors and all}.

    A family query on the n vertices: a permutation maps g1 onto g2 exactly
    when it maps the family of ``_graph_families`` for g1 onto that of g2.
    """
    if g1.n != g2.n:
        raise ValueError("graphs must share their vertex count")
    if group.degree != g1.n:
        raise ValueError("group degree must match the vertex count")
    if shift is not None and shift.degree != g1.n:
        raise ValueError("shift degree must match the vertex count")
    x, y = _graph_families(g1, g2)
    return _gsi_coset(IsoCoset.full(group, shift), x.partition, x, y, Budget.of(budget))
