"""Vertex- and arc-colored graphs.

Arc colors live on ordered pairs of adjacent vertices, so an undirected edge
vw may carry different colors in the two directions; that is how directed
structures are represented throughout the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .perm import Permutation


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    edges: frozenset  # frozenset of frozenset({u, v})
    vertex_colors: tuple[int, ...]
    arc_colors: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.vertex_colors) != self.n:
            raise ValueError("need one vertex color per vertex")
        for e in self.edges:
            u, v = sorted(e)
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
        expected = {(u, v) for e in self.edges for u, v in (sorted(e), sorted(e)[::-1])}
        if set(self.arc_colors) != expected:
            raise ValueError("arc colors must be defined exactly on the arcs of E")

    @classmethod
    def plain(cls, n: int, edge_list: Sequence[tuple[int, int]],
              vertex_colors: Sequence[int] | None = None) -> "ColoredGraph":
        """Uniform arc colors; default uniform vertex colors."""
        edges = frozenset(frozenset(e) for e in edge_list)
        arcs = {}
        for e in edges:
            u, v = sorted(e)
            arcs[(u, v)] = 0
            arcs[(v, u)] = 0
        vc = tuple(vertex_colors) if vertex_colors is not None else (0,) * n
        return cls(n, edges, vc, arcs)

    @classmethod
    def build(cls, n: int, arcs: Mapping[tuple[int, int], int],
              vertex_colors: Sequence[int]) -> "ColoredGraph":
        """From a full arc-color map (both directions present)."""
        edges = frozenset(frozenset(a) for a in arcs)
        return cls(n, edges, tuple(vertex_colors), dict(arcs))

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset({u, v}) in self.edges

    def neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbors of every vertex, built on the first call.

        The table is immutable, so every caller can share the one copy.
        """
        return self._neighbor_table

    @functools.cached_property
    def _neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        table: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            u, v = sorted(e)
            table[u].append(v)
            table[v].append(u)
        return tuple(tuple(sorted(row)) for row in table)

    def apply(self, g: Permutation) -> "ColoredGraph":
        if g.degree != self.n:
            raise ValueError("permutation degree does not match vertex count")
        vc = [0] * self.n
        for v in range(self.n):
            vc[g.images[v]] = self.vertex_colors[v]
        arcs = {(g.images[u], g.images[v]): c for (u, v), c in self.arc_colors.items()}
        edges = frozenset(frozenset({g.images[u], g.images[v]}) for e in self.edges for u, v in [sorted(e)])
        return ColoredGraph(self.n, edges, tuple(vc), arcs)
