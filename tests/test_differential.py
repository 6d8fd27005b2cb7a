"""Differential tests: independent routes give the same coset.

A graph query under a group and the same graph as an edge hypergraph must
have the same isomorphisms, so must a hypergraph and its edge-set term as a
hereditarily finite set, the excluded-minor pipeline must agree with the
graph query under Sym(n) on 3-connected graphs, and ``string_iso`` must
agree with the brute-force oracle's group enumeration, windows and shifts
included.  Between order 121 and the solver's listing bound, the listing
must agree with the Luks recursion that answered there before the bound was
raised.  Each answer's representative must lie in the other answer, and
the orders must match.
"""

import functools
import random

import pytest

import setiso.solver
from setiso.graphs import ColoredGraph
from setiso.hfs import HfsTerm, iso_hfs
from setiso.minorfree import iso_excluded_minor
from setiso.oracle import enumerate_group
from setiso.perm import PermGroup, Permutation
from setiso.pstrings import Hypergraph, PPartition, hypergraph_to_family
from setiso.solver import DIRECT_ENUM_CUTOFF, GsiInstance, generalized_string_iso
from setiso.strings import ColoredString, StringQuery, graph_iso_under_group, string_iso

from util import rand_family_on, rand_perm

from test_minorfree import (
    complete_bipartite,
    cube_graph,
    moved_edge,
    random_three_connected,
    truncated_prism,
)


def sym_on(n, points):
    """Generators of Sym(points) as permutations of degree n."""
    points = list(points)
    if len(points) < 2:
        return []
    return [Permutation.from_cycles(n, points[:2]), Permutation.from_cycles(n, points)]


def cyclic_on(n, points):
    """Generator of the cyclic group on ``points`` as a permutation of degree n."""
    points = list(points)
    return [Permutation.from_cycles(n, points)] if len(points) > 1 else []


def diagonal(k, copies):
    """Sym(k) acting on ``copies`` disjoint copies of {0..k-1} at once."""
    n = k * copies
    gens = []
    for cyc in ([0, 1], list(range(k))):
        gens.append(Permutation.from_cycles(n, *[[c * k + p for p in cyc]
                                                 for c in range(copies)]))
    return PermGroup(gens, n)


def ordered_pairs(k):
    """Sym(k) on the k(k-1) ordered pairs of distinct points: transitive and
    imprimitive, and it acts faithfully on every block system."""
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    index = {pair: i for i, pair in enumerate(pairs)}
    gens = [Permutation([index[(g(a), g(b))] for a, b in pairs])
            for g in sym_on(k, range(k))]
    return PermGroup(gens, len(pairs))


def assert_same_coset(a, b):
    assert a.is_empty == b.is_empty
    if not a.is_empty:
        assert a.order() == b.order()
        assert b.contains(a.rep) and a.contains(b.rep)


def graph_groups(rng, n):
    k = rng.randint(1, n - 1)
    product = PermGroup(sym_on(n, range(k)) + cyclic_on(n, range(k, n)), n)
    return [PermGroup(sym_on(n, range(n)), n), PermGroup(cyclic_on(n, range(n)), n), product]


def test_graph_route_agrees_with_the_edge_hypergraph():
    rng = random.Random(11)
    for n in range(3, 9):
        for group in graph_groups(rng, n):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
            g1 = ColoredGraph.plain(n, edges)
            if rng.random() < 0.6:
                g2 = g1.apply(rand_perm(rng, n))
            else:
                g2 = ColoredGraph.plain(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                            if rng.random() < 0.45])
            h1, h2 = Hypergraph(n, g1.edges), Hypergraph(n, g2.edges)
            via_graph = graph_iso_under_group(g1, g2, group)
            via_family = generalized_string_iso(GsiInstance(
                group, PPartition.trivial(n), hypergraph_to_family(h1),
                hypergraph_to_family(h2)))
            assert_same_coset(via_graph, via_family)


def assert_same_answer(a, b):
    """The same coset, by order, mutual generator containment and
    representatives."""
    assert_same_coset(a, b)
    if not a.is_empty:
        assert all(b.group.contains(g) for g in a.group.generators)
        assert all(a.group.contains(g) for g in b.group.generators)


def random_edges(rng, n, count):
    """``count`` distinct nonempty hyperedges on n vertices."""
    edges = set()
    while len(edges) < count:
        edges.add(frozenset(v for v in range(n) if rng.random() < 0.5)
                  or frozenset([rng.randrange(n)]))
    return frozenset(edges)


def edge_set_term(h):
    """The hereditarily finite set {{v in e} : e in E} of a hypergraph."""
    return HfsTerm.make_set([HfsTerm.make_set([HfsTerm.make_atom(v) for v in e])
                             for e in h.edges])


def test_hfs_route_agrees_with_the_hypergraph_family():
    rng = random.Random(1919)
    for n in range(2, 9):
        two_random = PermGroup([rand_perm(rng, n), rand_perm(rng, n)], n)
        for group in (PermGroup(sym_on(n, range(n)), n),
                      PermGroup(cyclic_on(n, range(n)), n), two_random):
            for image in (True, False) * 3:
                count = rng.randint(1, min(6, 2 ** n - 1))
                h1 = Hypergraph(n, random_edges(rng, n, count))
                if image:
                    word = [rng.choice(group.generators) for _ in range(6)]
                    h2 = h1.apply(functools.reduce(Permutation.__mul__, word))
                else:
                    h2 = Hypergraph(n, random_edges(rng, n, count))
                via_hfs = iso_hfs(edge_set_term(h1), edge_set_term(h2), group)
                via_family = generalized_string_iso(GsiInstance(
                    group, PPartition.trivial(n), hypergraph_to_family(h1),
                    hypergraph_to_family(h2)))
                assert_same_answer(via_hfs, via_family)


def prism(k):
    """C_k x K_2: the rims 0..k-1 and k..2k-1, joined by the rungs i, k + i."""
    rims = [(r + i, r + (i + 1) % k) for r in (0, k) for i in range(k)]
    return ColoredGraph.plain(2 * k, rims + [(i, k + i) for i in range(k)])


def wheel(k):
    """The hub 0 joined to every vertex of the rim cycle 1..k."""
    return ColoredGraph.plain(k + 1, [(0, i) for i in range(1, k + 1)]
                              + [(i, i % k + 1) for i in range(1, k + 1)])


def test_excluded_minor_agrees_with_the_graph_route():
    rng = random.Random(1212)
    named = [cube_graph(), truncated_prism(), complete_bipartite(3), prism(3),
             prism(5), prism(6), wheel(5), wheel(7), wheel(11)]
    generated = [random_three_connected(rng, rng.randint(6, 12), 2 * (i % 2))
                 for i in range(6)]
    pairs = [(g, g.apply(rand_perm(rng, g.n))) for g in named + generated]
    pairs += [(g, moved_edge(rng, g)) for g in generated]
    pairs += [(a, b.apply(rand_perm(rng, b.n))) for a in named for b in named
              if a is not b and a.n == b.n]
    for g1, g2 in pairs:
        sym = PermGroup(sym_on(g1.n, range(g1.n)), g1.n)
        assert_same_coset(iso_excluded_minor(g1, g2, 3), graph_iso_under_group(g1, g2, sym))


def oracle_string_iso(group, x, y, window, shift):
    """{h * shift : h in group, x(a) = y(a^(h*shift)) on the window}."""
    n = group.degree
    out = set()
    for h in enumerate_group(group.generators, n):
        g = tuple(shift.images[h[a]] for a in range(n))
        if all(x.letters[a] == y.letters[g[a]] for a in window):
            out.add(g)
    return out


def string_groups():
    n = 7
    return [
        PermGroup(sym_on(n, range(3)) + sym_on(n, range(3, 7)), n),        # S3 x S4
        PermGroup(sym_on(n, range(4)) + cyclic_on(n, range(4, 7)), n),      # S4 x C3
        diagonal(4, 2),
        diagonal(3, 3),
        ordered_pairs(6),
    ]


@pytest.mark.parametrize("index", range(5))
def test_string_iso_agrees_with_the_oracle(index):
    group = string_groups()[index]
    n = group.degree
    rng = random.Random(100 + index)
    orbits = group.orbits()
    for _ in range(6):
        chosen = rng.sample(orbits, rng.randint(1, len(orbits)))
        window = sorted(p for orb in chosen for p in orb)
        shift = rand_perm(rng, n) if rng.random() < 0.5 else None
        x = ColoredString(tuple(rng.randrange(2) for _ in range(n)))
        if rng.random() < 0.6:
            y = x.apply(rng.choice(list(group.elements())))
            if shift is not None:
                y = y.apply(shift)
        else:
            y = ColoredString(tuple(rng.randrange(2) for _ in range(n)))
        res = string_iso(StringQuery(group, x, y, window=window, shift=shift))
        want = oracle_string_iso(group, x, y, window,
                                 shift or Permutation.identity(n))
        assert res.order() == len(want)
        assert res.is_empty or res.rep.images in want
        assert all(res.contains(Permutation(g)) for g in want)


def test_ordered_pairs_reach_the_trivial_kernel_branch():
    # Sym(9) on its 72 ordered pairs is transitive, too large to list
    # directly, and its minimal block system has a trivial kernel
    group = ordered_pairs(9)
    blocks, primitive = group.minimal_block_system(range(group.degree))
    assert group.is_transitive_on(range(group.degree))
    assert group.order() > DIRECT_ENUM_CUTOFF
    assert not primitive
    assert group.block_action(blocks).kernel().is_trivial()


def wreath_on(n, k, m, offset=0):
    """Generators of S_k wr S_m on the blocks {offset + ik, ..., offset +
    ik + k - 1}, as permutations of degree n."""
    blocks = [list(range(offset + i * k, offset + (i + 1) * k)) for i in range(m)]
    return sym_on(n, blocks[0]) + [
        Permutation.from_cycles(n, *zip(blocks[0], blocks[1])),
        Permutation.from_cycles(n, *zip(*blocks))]


WREATHS = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 2)]
PRODUCTS = [((2, 3), (2, 3)), ((2, 4), (3, 2)), ((3, 3), (2, 3))]


def random_element(rng, group):
    return functools.reduce(Permutation.__mul__,
                            [rng.choice(group.generators) for _ in range(12)])


def between_the_bounds():
    """String and family queries under groups of order 121 to the listing
    bound: wreath products with strings, and products of two wreath
    products with their blocks as classes, half of them isomorphic."""
    rng = random.Random(36)
    for k, m in WREATHS:
        n = k * m
        group = PermGroup(wreath_on(n, k, m), n)
        part = PPartition.trivial(n)
        for _ in range(4):
            x = ColoredString(tuple(rng.randrange(2) for _ in range(n)))
            y = (x.apply(random_element(rng, group)) if rng.random() < 0.5 else
                 ColoredString(tuple(rng.randrange(2) for _ in range(n))))
            yield group, part, x, y
    for (k1, m1), (k2, m2) in PRODUCTS:
        n = k1 * m1 + k2 * m2
        group = PermGroup(wreath_on(n, k1, m1) + wreath_on(n, k2, m2, k1 * m1), n)
        part = PPartition.from_classes(n, [range(i, i + k1) for i in range(0, k1 * m1, k1)]
                                       + [range(i, i + k2) for i in range(k1 * m1, n, k2)])
        for _ in range(4):
            x = rand_family_on(rng, part, max_members=6)
            y = (x.apply(random_element(rng, group)) if rng.random() < 0.5 else
                 rand_family_on(rng, part, max_members=6))
            yield group, part, x, y


def answer(group, part, x, y):
    if isinstance(x, ColoredString):
        return string_iso(StringQuery(group, x, y))
    return generalized_string_iso(GsiInstance(group, part, x, y))


def test_listing_agrees_with_the_recursion_between_the_bounds(monkeypatch):
    cases = list(between_the_bounds())
    assert all(120 < group.order() <= DIRECT_ENUM_CUTOFF for group, *_ in cases)
    listed = [answer(*case) for case in cases]
    monkeypatch.setattr(setiso.solver, "DIRECT_ENUM_CUTOFF", 120)
    recursed = [answer(*case) for case in cases]
    assert sum(not a.is_empty for a in listed) >= len(cases) // 3
    for a, b in zip(listed, recursed):
        assert_same_answer(a, b)
