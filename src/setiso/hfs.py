"""Hereditarily finite sets over a ground set, encoded as colored graphs.

Atoms are vertices of color 0; set nodes have color 1 and uniform downward
arc color 0; tuple nodes have color 2 and downward arc colors 1..k giving the
positions.  Upward arcs carry a reserved color so direction is never lost.
Structurally identical subterms share one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import ColoredGraph
from .perm import IsoCoset, PermGroup, Permutation
from .refine import iso_tcr_pairs
from .strings import BudgetArg

UP_ARC = -1


@dataclass(frozen=True)
class HfsTerm:
    """Atom(index) | Set(children, unordered, duplicate-free) | Tuple(children)."""

    kind: str  # 'atom' | 'set' | 'tuple'
    atom: Optional[int] = None
    children: tuple = ()

    def __post_init__(self):
        if self.kind == "atom":
            if self.atom is None or self.atom < 0:
                raise ValueError("atom index must be a non-negative integer")
        elif self.kind == "set":
            if len(set(self.children)) != len(self.children):
                raise ValueError("set children must be pairwise distinct")
        elif self.kind != "tuple":
            raise ValueError("unknown term kind %r" % (self.kind,))

    @classmethod
    def make_atom(cls, index: int) -> "HfsTerm":
        return cls("atom", atom=index)

    @classmethod
    def make_set(cls, children: Sequence["HfsTerm"]) -> "HfsTerm":
        return cls("set", children=tuple(sorted(set(children), key=repr)))

    @classmethod
    def make_tuple(cls, children: Sequence["HfsTerm"]) -> "HfsTerm":
        return cls("tuple", children=tuple(children))

    def atoms_used(self) -> set:
        if self.kind == "atom":
            return {self.atom}
        out: set = set()
        for c in self.children:
            out |= c.atoms_used()
        return out

    def apply(self, g: Permutation) -> "HfsTerm":
        if self.kind == "atom":
            return HfsTerm.make_atom(g.images[self.atom])
        mapped = [c.apply(g) for c in self.children]
        if self.kind == "set":
            return HfsTerm.make_set(mapped)
        return HfsTerm.make_tuple(mapped)

    def size(self) -> int:
        if self.kind == "atom":
            return 1
        return 1 + sum(c.size() for c in self.children)


def hfs_to_graph(term: HfsTerm, universe: int) -> tuple[ColoredGraph, dict]:
    """The encoding graph plus the atom-to-vertex map.

    Vertices 0..universe-1 are the atoms (in ground-set order); inner nodes
    are numbered by first appearance of their structure.  Identical subterms
    are merged.
    """
    _check_universe(term, universe)
    node_of: dict[HfsTerm, int] = {}
    arcs: dict[tuple[int, int], int] = {}
    vcolors: list[int] = [0] * universe

    def visit(t: HfsTerm) -> int:
        if t.kind == "atom":
            return t.atom
        if t in node_of:
            return node_of[t]
        kids = [visit(c) for c in t.children]
        node = universe + len(node_of)
        node_of[t] = node
        vcolors.append(1 if t.kind == "set" else 2)
        positions: dict[int, list[int]] = {}
        for pos, kid in enumerate(kids):
            positions.setdefault(kid, []).append(pos + 1)
        for kid, pos_list in positions.items():
            if t.kind == "set":
                down = 0
            elif len(pos_list) == 1:
                down = pos_list[0]
            else:
                # a repeated tuple child: one simple arc encodes all its
                # positions injectively
                down = (1 << 30) + sum(1 << p for p in pos_list)
            arcs[(node, kid)] = down
            arcs[(kid, node)] = UP_ARC
        return node

    visit(term)
    n = universe + len(node_of)
    graph = ColoredGraph.build(n, arcs, vcolors)
    atom_map = {a: a for a in range(universe)}
    return graph, atom_map


def _check_universe(term: HfsTerm, universe: int) -> None:
    used = term.atoms_used()
    if used and max(used) >= universe:
        raise ValueError("term uses an atom outside the universe")


def iso_hfs(t1: HfsTerm, t2: HfsTerm, group: PermGroup,
            budget: BudgetArg = None) -> IsoCoset:
    """{gamma in group : t1^gamma = t2}, via the 0-CR-bounded pair encoding."""
    n = group.degree
    if t1.kind == "atom" or t2.kind == "atom":
        # a bare atom encodes to an edgeless graph that forgets which atom it
        # was; answer the transporter question directly
        _check_universe(t1, n)
        _check_universe(t2, n)
        if t1.kind != t2.kind:
            return IsoCoset.empty()
        movers = group.orbit_transversal(t1.atom)
        if t2.atom not in movers:
            return IsoCoset.empty()
        return IsoCoset(group.stabilizer(t1.atom), movers[t2.atom])
    g1, _ = hfs_to_graph(t1, n)
    g2, _ = hfs_to_graph(t2, n)
    if g1.n != g2.n:
        return IsoCoset.empty()
    theta = {v: v for v in range(n)}
    res = iso_tcr_pairs(g1, range(n), g2, range(n), group, theta, 0, budget)
    if res.is_empty:
        return res
    gens = [Permutation(g.images[:n]) for g in res.group.generators]
    return IsoCoset(PermGroup(gens, n), Permutation(res.rep.images[:n]))
