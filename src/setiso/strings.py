"""Luks's String Isomorphism over a window, and graph isomorphism under a
group via the string encoding.

The recursion follows the classical scheme: a coset query is aligned to a
group query by shifting the second string; an intransitive window is chained
orbit by orbit; a transitive window decomposes over the transversal of the
block-stabilizer of a minimal block system.  Every returned set is
``Iso_K^W(x, y)`` exactly.

``Budget`` is the one work bound of a query: every public query converts
its budget argument once, with ``Budget.of``, and hands that object to
every nested call, so all its recursion nodes count against one limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graphs import ColoredGraph
from .perm import CosetUnion, IsoCoset, PermGroup, Permutation, transversal_cosets


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


# Below this order the recursion setup costs more than checking elements
# one by one.
DIRECT_ENUM_CUTOFF = 120


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


def _window_orbits(group: PermGroup, window: frozenset) -> list[tuple[int, ...]]:
    return [orb for orb in group.orbits() if orb[0] in window]


def _iso_group(group: PermGroup, x: ColoredString, y: ColoredString,
               window: frozenset, budget: Budget) -> IsoCoset:
    """Iso_Gamma^W(x, y) for a plain group."""
    budget.tick()
    if not window:
        return IsoCoset.full(group)
    win = sorted(window)
    if sorted(x.letters[a] for a in win) != sorted(y.letters[a] for a in win):
        return IsoCoset.empty()

    def same_letter(a: int, b: int) -> bool:
        return x.letters[a] == y.letters[b]

    if group.order() <= DIRECT_ENUM_CUTOFF:
        return IsoCoset.from_elements(list(group.elements_where(win, same_letter)),
                                      group.degree)

    orbits = _window_orbits(group, window)
    if len(orbits) > 1:
        current = IsoCoset.full(group)
        for orb in orbits:
            current = _iso_coset(current, x, y, frozenset(orb), budget)
            if current.is_empty:
                return current
        return current

    # transitive on the window: decompose over a minimal block system
    orb = orbits[0]
    blocks, primitive = group.minimal_block_system(orb)
    if primitive:
        blocks = [frozenset({p}) for p in orb]
    hom = group.block_action(blocks)
    union = CosetUnion(group.degree)
    kernel = hom.kernel()
    order = group.order()
    # With singleton blocks, or a trivial kernel, the kernel acts trivially
    # on the window: a shift's piece is its whole kernel coset if the shift
    # matches the letters, and empty if not.  Otherwise a shift that carries
    # a block onto one with other letters has an empty piece.  Either way,
    # only the shifts that can have a nonempty piece are listed.
    trivial_on_window = len(blocks) == len(orb) or kernel.is_trivial()
    if trivial_on_window:
        points, test = win, same_letter
    else:
        block_of = {p: i for i, blk in enumerate(blocks) for p in blk}
        x_keys = [sorted(x.letters[p] for p in blk) for blk in blocks]
        y_keys = [sorted(y.letters[p] for p in blk) for blk in blocks]

        def same_block_letters(a: int, b: int) -> bool:
            return x_keys[block_of[a]] == y_keys[block_of[b]]

        points, test = [min(blk) for blk in blocks], same_block_letters
    for delta in transversal_cosets(group, hom, points, test):
        budget.tick()
        if trivial_on_window:
            piece = IsoCoset(kernel, delta)
        else:
            piece = _iso_coset(IsoCoset(kernel, delta), x, y, window, budget)
        # a union that reaches the group's order holds every later piece
        if union.add(piece) and union.order() == order:
            break
    return union.result()


def _iso_coset(coset: IsoCoset, x: ColoredString, y: ColoredString,
               window: frozenset, budget: Budget) -> IsoCoset:
    """Iso over a coset, aligned to a group query by shifting y."""
    if coset.is_empty:
        return coset
    shift = coset.rep
    if shift.is_identity():
        return _iso_group(coset.group, x, y, window, budget)
    y_shifted = y.apply(shift.inverse())
    inner = _iso_group(coset.group, x, y_shifted, window, budget)
    return inner.shifted(shift)


def string_iso(query: StringQuery) -> IsoCoset:
    """Exactly ``Iso_K^W(x, y)`` as an IsoCoset."""
    group = query.group
    if query.x.n != group.degree or query.y.n != group.degree:
        raise ValueError("string domains must match the group degree")
    if query.shift is not None and query.shift.degree != group.degree:
        raise ValueError("shift degree must match the group degree")
    window = frozenset(query.window) if query.window is not None else frozenset(range(group.degree))
    for g in group.generators:
        if g.apply_set(window) != window:
            raise ValueError("window is not invariant under the group part")
    budget = Budget.of(query.budget)
    shift = query.shift if query.shift is not None else Permutation.identity(group.degree)
    return _iso_coset(IsoCoset(group, shift), query.x, query.y, window, budget)


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
