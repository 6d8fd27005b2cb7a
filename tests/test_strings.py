import random

import pytest

from setiso.graphs import ColoredGraph
from setiso.perm import PermGroup, Permutation
from setiso.strings import (
    BudgetExceeded,
    ColoredString,
    StringQuery,
    graph_iso_under_group,
    string_iso,
)

from util import rand_group, rand_perm


def sym(n):
    if n <= 1:
        return PermGroup([], max(n, 1))
    return PermGroup(
        [Permutation.from_cycles(n, [0, 1]), Permutation.from_cycles(n, list(range(n)))], n)


def brute_iso_set(group, x, y, window):
    return frozenset(
        g.images for g in group.elements()
        if all(x.letters[a] == y.letters[g.images[a]] for a in window)
    )


def s_of(letters):
    return ColoredString(tuple(letters))


class TestStringIso:
    def test_aab_aba_under_s3(self):
        res = string_iso(StringQuery(sym(3), s_of([0, 0, 1]), s_of([0, 1, 0])))
        assert not res.is_empty
        assert res.group.order() == 2
        expected = brute_iso_set(sym(3), s_of([0, 0, 1]), s_of([0, 1, 0]), range(3))
        assert res.element_set() == expected

    def test_identity_group_cannot_move(self):
        res = string_iso(StringQuery(PermGroup([], 2), s_of([0, 1]), s_of([1, 0])))
        assert res.is_empty

    def test_equal_strings_contain_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 6)
            g = rand_group(rng, n)
            x = s_of([rng.randint(0, 2) for _ in range(n)])
            res = string_iso(StringQuery(g, x, x))
            assert not res.is_empty
            assert res.contains(Permutation.identity(n))

    def test_window_invariance_enforced(self):
        with pytest.raises(ValueError):
            string_iso(StringQuery(sym(3), s_of([0, 1, 2]), s_of([0, 1, 2]), window=[0]))

    def test_exactness_small_random(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(1, 7)
            g = rand_group(rng, n, order_cap=5040)
            x = s_of([rng.randint(0, 2) for _ in range(n)])
            y = s_of([rng.randint(0, 2) for _ in range(n)])
            res = string_iso(StringQuery(g, x, y))
            assert res.element_set() == brute_iso_set(g, x, y, range(n))

    def test_exactness_with_windows(self):
        rng = random.Random(77)
        for _ in range(80):
            n = rng.randint(2, 7)
            g = rand_group(rng, n, order_cap=5040)
            orbs = g.orbits()
            k = rng.randint(0, len(orbs))
            window = sorted(p for orb in rng.sample(orbs, k) for p in orb)
            x = s_of([rng.randint(0, 1) for _ in range(n)])
            y = s_of([rng.randint(0, 1) for _ in range(n)])
            res = string_iso(StringQuery(g, x, y, window=window))
            assert res.element_set() == brute_iso_set(g, x, y, window)

    def test_coset_shift_identity(self):
        # Iso over Gamma*s equals Iso over Gamma against y^(s^-1), shifted
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            s = rand_perm(rng, n)
            x = s_of([rng.randint(0, 1) for _ in range(n)])
            y = s_of([rng.randint(0, 1) for _ in range(n)])
            lhs = string_iso(StringQuery(g, x, y, shift=s))
            rhs = string_iso(StringQuery(g, x, y.apply(s.inverse())))
            assert lhs.element_set() == frozenset((e * s).images for e in rhs.elements())

    def test_window_monotonicity(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            orbs = g.orbits()
            if len(orbs) < 2:
                continue
            small = sorted(orbs[0])
            large = sorted(orbs[0] + orbs[1])
            x = s_of([rng.randint(0, 1) for _ in range(n)])
            y = s_of([rng.randint(0, 1) for _ in range(n)])
            res_small = string_iso(StringQuery(g, x, y, window=small)).element_set()
            res_large = string_iso(StringQuery(g, x, y, window=large)).element_set()
            assert res_large <= res_small

    def test_budget_cap(self):
        g = sym(7)
        x = s_of([0] * 7)
        with pytest.raises(BudgetExceeded):
            string_iso(StringQuery(g, x, x, budget=1))

    def test_union_stops_at_the_group_order(self):
        # the transversal holds 5040 shifts; the union is the whole group
        # long before the last one, and the loop stops there
        x = s_of([0] * 7)
        res = string_iso(StringQuery(sym(7), x, x, budget=1000))
        assert res.order() == 5040

    def test_shift_degree_must_match(self):
        x = s_of([0, 1, 0])
        for degree in (2, 4):
            with pytest.raises(ValueError):
                string_iso(StringQuery(sym(3), x, x, shift=Permutation.identity(degree)))


class TestGraphIso:
    def test_triangles_full_symmetry(self):
        tri = ColoredGraph.plain(3, [(0, 1), (1, 2), (0, 2)])
        res = graph_iso_under_group(tri, tri, sym(3))
        assert res.order() == 6

    def test_path_relabeled(self):
        p1 = ColoredGraph.plain(3, [(0, 1), (1, 2)])
        p2 = ColoredGraph.plain(3, [(1, 2), (2, 0)])  # path 1-2-0
        res = graph_iso_under_group(p1, p2, sym(3))
        assert not res.is_empty
        assert res.group.order() == 2
        brute = [g for g in sym(3).elements() if p1.apply(g) == p2]
        assert res.element_set() == frozenset(g.images for g in brute)

    def test_triangle_vs_path_empty(self):
        tri = ColoredGraph.plain(3, [(0, 1), (1, 2), (0, 2)])
        path = ColoredGraph.plain(3, [(0, 1), (1, 2)])
        assert graph_iso_under_group(tri, path, sym(3)).is_empty

    def test_every_returned_element_maps_graph(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randint(2, 6)
            group = rand_group(rng, n)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            g1 = ColoredGraph.plain(n, edges, [rng.randint(0, 1) for _ in range(n)])
            s = rand_perm(rng, n)
            g2 = g1.apply(s)
            res = graph_iso_under_group(g1, g2, group)
            brute = frozenset(g.images for g in group.elements() if g1.apply(g) == g2)
            assert res.element_set() == brute
            for e in res.elements():
                assert g1.apply(e) == g2

    def test_shift_degree_must_match(self):
        tri = ColoredGraph.plain(3, [(0, 1), (1, 2), (0, 2)])
        for degree in (2, 4):
            with pytest.raises(ValueError):
                graph_iso_under_group(tri, tri, sym(3), shift=Permutation.identity(degree))

    def test_arc_colors_matter(self):
        arcs1 = {(0, 1): 0, (1, 0): 1}
        arcs2 = {(0, 1): 1, (1, 0): 0}
        g1 = ColoredGraph.build(2, arcs1, [0, 0])
        g2 = ColoredGraph.build(2, arcs2, [0, 0])
        res = graph_iso_under_group(g1, g2, sym(2))
        # only the swap maps the asymmetric arc correctly
        assert res.element_set() == frozenset({(1, 0)})
