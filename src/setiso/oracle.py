"""The independent brute-force oracle.

Everything here works by plain closure enumeration and direct application of
image tables; no code is shared with the solvers beyond the Permutation type
itself.  HFS terms are compared in the oracle's own canonical form
(``term_form``), read from their ``kind``, ``atom`` and ``children`` fields.
The oracle is what acceptance runs compare the solvers against.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .perm import Permutation

ORDER_CAP = math.factorial(10)


class OracleCapExceeded(RuntimeError):
    pass


def enumerate_group(gens: Sequence[Permutation], n: int,
                    cap: int = ORDER_CAP) -> list[tuple[int, ...]]:
    """All elements of the generated group as image tuples, by BFS closure."""
    ident = tuple(range(n))
    seen = {ident}
    queue = [ident]
    tables = [tuple(g.images) for g in gens]
    while queue:
        cur = queue.pop()
        for t in tables:
            nxt = tuple(t[i] for i in cur)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise OracleCapExceeded("group order exceeds the oracle cap %d" % cap)
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


# -- appliers, one per object kind ------------------------------------------------

def apply_string(letters: tuple, g: tuple) -> tuple:
    out = [0] * len(letters)
    for i, letter in enumerate(letters):
        out[g[i]] = letter
    return tuple(out)


def apply_hypergraph(edges: frozenset, g: tuple) -> frozenset:
    return frozenset(frozenset(g[v] for v in e) for e in edges)


def apply_family(members: frozenset, class_of: tuple, g: tuple) -> frozenset:
    """Members are (class_id, letters-over-sorted-class-points) pairs."""
    classes: dict[int, list[int]] = {}
    for p, c in enumerate(class_of):
        classes.setdefault(c, []).append(p)
    out = set()
    for c, letters in members:
        pts = classes[c]
        image_pts = sorted(g[p] for p in pts)
        new_c = class_of[image_pts[0]]
        pos = {p: i for i, p in enumerate(image_pts)}
        new_letters = [0] * len(pts)
        for p, letter in zip(pts, letters):
            new_letters[pos[g[p]]] = letter
        out.add((new_c, tuple(new_letters)))
    return frozenset(out)


def apply_graph(data: tuple, g: tuple) -> tuple:
    """Graph data: (vertex_colors tuple, frozenset of (u, v, cuv, cvu))."""
    vcolors, arcs = data
    n = len(vcolors)
    new_colors = [0] * n
    for v in range(n):
        new_colors[g[v]] = vcolors[v]
    new_arcs = frozenset((g[u], g[v], cuv, cvu) for (u, v, cuv, cvu) in arcs)
    return (tuple(new_colors), new_arcs)


def graph_data(graph) -> tuple:
    arcs = frozenset(
        (u, v, graph.arc_colors[(u, v)], graph.arc_colors[(v, u)])
        for e in graph.edges for u, v in [sorted(e)])
    full = arcs | frozenset((v, u, cvu, cuv) for (u, v, cuv, cvu) in arcs)
    return (tuple(graph.vertex_colors), full)


def term_form(term, g: Optional[tuple] = None):
    """The canonical form of an HFS term, or of its image under g: an atom
    is its index, moved by g; a set is the frozenset and a tuple the tuple
    of its children's forms."""
    if term.kind == "atom":
        return term.atom if g is None else g[term.atom]
    forms = (term_form(c, g) for c in term.children)
    return frozenset(forms) if term.kind == "set" else tuple(forms)


def brute_force_iso(gens: Sequence[Permutation], n: int, kind: str,
                    obj1, obj2, cap: int = ORDER_CAP) -> list[tuple[int, ...]]:
    """The exact set {g : obj1^g = obj2} by full enumeration.

    Kinds: 'string' (letter tuples), 'hypergraph' (frozensets of
    frozensets), 'family' ((class_of, members) pairs), 'graph'
    (ColoredGraph), 'hfs' (HfsTerm).
    """
    elements = enumerate_group(gens, n, cap)
    out = []
    if kind == "string":
        target = tuple(obj2)
        for g in elements:
            if apply_string(obj1, g) == target:
                out.append(g)
    elif kind == "hypergraph":
        for g in elements:
            if apply_hypergraph(obj1, g) == obj2:
                out.append(g)
    elif kind == "family":
        class_of1, members1 = obj1
        class_of2, members2 = obj2
        if class_of1 != class_of2:
            raise ValueError("families must share their partition")
        target = frozenset(members2)
        src = frozenset(members1)
        for g in elements:
            if apply_family(src, class_of1, g) == target:
                out.append(g)
    elif kind == "graph":
        d1, d2 = graph_data(obj1), graph_data(obj2)
        for g in elements:
            if apply_graph(d1, g) == d2:
                out.append(g)
    elif kind == "hfs":
        target = term_form(obj2)
        for g in elements:
            if term_form(obj1, g) == target:
                out.append(g)
    else:
        raise ValueError("unknown object kind %r" % (kind,))
    return out
