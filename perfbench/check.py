"""Independent answer checks for the benchmark.

Every action and every expected group order here is written from scratch and
shares no code with setiso, so a wrong answer cannot pass by reusing the
library's own routine.  Permutations are image tuples: ``g[a]`` is the image
of point ``a``.

Object representations, one per query kind:

* ``string``: a tuple of letters; position ``g[a]`` of the image holds ``x[a]``.
* ``graph``: ``(vertex_colors, edges)`` with edges a frozenset of 2-sets.
* ``hypergraph``: a frozenset of frozensets of vertices.
* ``family``: ``(classes, members)``; ``classes`` is a tuple of sorted point
  tuples, ``members`` a frozenset of ``(class_index, letters)`` with letters
  listed in increasing point order of the class.
* ``hfs``: nested ``("a", atom)``, ``("s", frozenset(children))`` and
  ``("t", tuple(children))``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


def string_image(x, g):
    out = [0] * len(x)
    for a, letter in enumerate(x):
        out[g[a]] = letter
    return tuple(out)


def graph_image(graph, g):
    colors, edges = graph
    out = [0] * len(colors)
    for v, c in enumerate(colors):
        out[g[v]] = c
    return tuple(out), frozenset(frozenset(g[v] for v in e) for e in edges)


def hypergraph_image(edges, g):
    return frozenset(frozenset(g[v] for v in e) for e in edges)


def family_image(family, g):
    classes, members = family
    index = {pts: i for i, pts in enumerate(classes)}
    out = set()
    for c, letters in members:
        pts = classes[c]
        image = tuple(sorted(g[p] for p in pts))
        pos = {p: i for i, p in enumerate(image)}
        new = [0] * len(pts)
        for p, letter in zip(pts, letters):
            new[pos[g[p]]] = letter
        out.add((index[image], tuple(new)))
    return classes, frozenset(out)


def hfs_image(term, g):
    kind, body = term
    if kind == "a":
        return ("a", g[body])
    if kind == "s":
        return ("s", frozenset(hfs_image(t, g) for t in body))
    return ("t", tuple(hfs_image(t, g) for t in body))


ACTIONS = {
    "string": string_image,
    "graph": graph_image,
    "hypergraph": hypergraph_image,
    "family": family_image,
    "hfs": hfs_image,
}


def compose(g, h):
    """Apply g, then h."""
    return tuple(h[i] for i in g)


def inverse(g):
    out = [0] * len(g)
    for i, j in enumerate(g):
        out[j] = i
    return tuple(out)


def preserves_blocks(g, block_sets) -> bool:
    """True when g maps every block of each system onto a block of the same
    system; ``block_sets`` is a list of frozensets of frozensets."""
    for blocks in block_sets:
        for b in blocks:
            if frozenset(g[p] for p in b) not in blocks:
                return False
    return True


# -- expected automorphism group orders --------------------------------------

def wreath_string_order(x, blocks) -> int:
    """|Aut(x)| inside S_k wr S_m: blocks with equal letter multisets may be
    exchanged, and equal letters inside a block may be permuted."""
    types = Counter(tuple(sorted(x[p] for p in b)) for b in blocks)
    order = 1
    for letters, mult in types.items():
        inside = math.prod(math.factorial(c) for c in Counter(letters).values())
        order *= math.factorial(mult) * inside ** mult
    return order


def block_content_form(rows, k: int):
    """Canonical form of a set of strings on one block under S_k acting on
    positions, plus the number of position permutations that fix the set."""
    best, fixing = None, 0
    original = frozenset(rows)
    for sigma in itertools.permutations(range(k)):
        permuted = frozenset(tuple(r[sigma[i]] for i in range(k)) for r in rows)
        if permuted == original:
            fixing += 1
        form = tuple(sorted(permuted))
        if best is None or form < best:
            best = form
    return best, fixing


def family_block_types(family, factors):
    """Per wreath factor: Counter of (canonical block content, fixing count)."""
    classes, members = family
    rows: dict[int, list] = {}
    for c, letters in members:
        rows.setdefault(c, []).append(letters)
    out = []
    for class_ids in factors:
        out.append(Counter(block_content_form(rows[c], len(classes[c])) for c in class_ids))
    return out


def family_order(family, factors) -> int:
    """|Aut| of a family under a product of full wreath products whose blocks
    are the classes: blocks with equivalent contents may be exchanged, each
    block contributing the position permutations that fix its strings."""
    order = 1
    for types in family_block_types(family, factors):
        for (_, fixing), mult in types.items():
            order *= math.factorial(mult) * fixing ** mult
    return order


def cycle_union_order(lengths) -> int:
    """|Aut| of a disjoint union of cycles (each of length at least 3)."""
    order = 1
    for length, mult in Counter(lengths).items():
        order *= math.factorial(mult) * (2 * length) ** mult
    return order


def graph_automorphism_count(graph) -> int:
    """Colour-preserving automorphisms by backtracking over vertex images."""
    colors, edges = graph
    n = len(colors)
    adj = [set() for _ in range(n)]
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    image: dict[int, int] = {}
    used: set = set()

    def extend(i: int) -> int:
        if i == n:
            return 1
        v = order[i]
        total = 0
        for w in range(n):
            if w in used or colors[w] != colors[v] or len(adj[w]) != len(adj[v]):
                continue
            if all((image[u] in adj[w]) == (u in adj[v]) for u in image):
                image[v] = w
                used.add(w)
                total += extend(i + 1)
                del image[v]
                used.discard(w)
        return total

    return extend(0)


def hfs_invariant(term, universe: int):
    """Multiset over atoms of the sorted root paths of their occurrences; a
    path step is -1 below a set and the position below a tuple.  Equal
    under every relabeling of the atoms."""
    paths: dict[int, list] = {a: [] for a in range(universe)}

    def walk(t, path):
        kind, body = t
        if kind == "a":
            paths[body].append(path)
        elif kind == "s":
            for c in body:
                walk(c, path + (-1,))
        else:
            for i, c in enumerate(body):
                walk(c, path + (i,))

    walk(term, ())
    return sorted(tuple(sorted(p)) for p in paths.values())


def hyperedge_degrees(edges):
    """Multiset of per-edge sorted vertex-degree tuples."""
    deg = Counter(v for e in edges for v in e)
    return sorted(tuple(sorted(deg[v] for v in e)) for e in edges)


def distance(edges, n: int, a: int, b: int) -> int:
    adj = [[] for _ in range(n)]
    for e in edges:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    seen = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    nxt.append(v)
        frontier = nxt
    return seen[b]


# -- the check of one answer ---------------------------------------------------

def check_answer(query, coset) -> str | None:
    """None when the answer is right, else the reason it is wrong."""
    if not query.iso:
        return None if coset.is_empty else "non-isomorphic pair answered with a coset"
    if coset.is_empty:
        return "isomorphic pair answered empty"
    act = ACTIONS[query.kind]
    rep = tuple(coset.rep.images)
    if len(rep) != query.degree:
        return "representative has degree %d, expected %d" % (len(rep), query.degree)
    if act(query.x, rep) != query.y:
        return "representative does not map x onto y"
    if query.in_group is not None and not query.in_group(compose(rep, query.shift_inverse)):
        return "representative lies outside the queried coset"
    for gen in coset.group.generators:
        g = tuple(gen.images)
        if act(query.x, g) != query.x:
            return "automorphism generator does not fix x"
        if query.in_group is not None and not query.in_group(g):
            return "automorphism generator lies outside the group"
    want = query.expected_order()
    got = coset.order()
    if got != want:
        return "order %d, expected %d" % (got, want)
    return None
