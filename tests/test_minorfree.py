import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

from setiso import minorfree, refine
from setiso.graphs import ColoredGraph
from setiso.minorfree import (
    MinorPromiseViolation,
    bipartite_genus,
    genus_to_h,
    is_three_connected,
    iso_excluded_minor,
    iso_genus,
    k3h_genus_table,
    lemma_small_class,
)
from setiso.perm import CosetUnion, PermGroup, Permutation
from setiso.refine import NotTCRBounded, color_refinement, iso_tcr_pairs, tcr_sequence
from setiso.solver import Budget, BudgetExceeded

from util import rand_perm


def complete_graph(n):
    return ColoredGraph.plain(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cube_graph():
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return ColoredGraph.plain(8, edges)


def truncated_prism():
    """The 3-prism with one vertex truncated: cubic planar 3-connected on 8
    vertices, not isomorphic to the cube (it has triangles)."""
    # prism: triangles 0-1-2 and 3-4-5 with rungs; truncate vertex 0 into
    # the triangle 6-7-0' keeping degrees cubic
    edges = [
        (0, 1), (0, 2), (1, 2),          # new triangle from truncation
        (1, 3), (2, 4), (0, 5),          # connections to the old structure
        (3, 4), (3, 6), (4, 7), (6, 7), (5, 6), (5, 7),
    ]
    return ColoredGraph.plain(8, edges)


def dodecahedron():
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 10), (6, 11), (7, 12), (8, 13), (9, 14),
        (10, 6), (11, 7), (12, 8), (13, 9), (14, 5),
        (10, 15), (11, 16), (12, 17), (13, 18), (14, 19),
        (15, 16), (16, 17), (17, 18), (18, 19), (19, 15),
    ]
    return ColoredGraph.plain(20, edges)


def prism(k, colored=()):
    """C_k x K_2: rims 0..k-1 and k..2k-1 with rungs i -- k+i; the vertices
    in ``colored`` get color 1."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return ColoredGraph.plain(2 * k, edges,
                              [int(v in colored) for v in range(2 * k)])


def wheel(k):
    """The rim cycle 0..k-1 and the hub k."""
    return ColoredGraph.plain(k + 1, [(i, (i + 1) % k) for i in range(k)]
                              + [(i, k) for i in range(k)])


def every_piece(g1, g2, t):
    """The search without any skip, through public pieces: the piece of
    every triple of g2 that survives the refinement prune and the trace
    screen, and the number of prefixes of g2 refined on the way."""
    base = (0, 1, 2)
    _, _, trace1 = tcr_sequence(g1, base, t)

    def ids(g, prefix):
        return color_refinement(g, [
            ("s", prefix.index(v)) if v in prefix else ("c", g.vertex_colors[v])
            for v in range(g.n)]).ids

    base_ids = [ids(g1, base[:i]) for i in range(3)]
    pieces = {}
    refined = [0]

    def extend(prefix):
        i = len(prefix)
        if i == 3:
            _, discrete2, trace2 = tcr_sequence(g2, prefix, t)
            if discrete2 and trace2 == trace1:
                pieces[prefix] = iso_tcr_pairs(g1, base, g2, prefix, PermGroup([], 3),
                                               dict(zip(base, prefix)), t)
            return
        here = ids(g2, prefix)
        refined[0] += 1
        if sorted(here) != sorted(base_ids[i]):
            return
        for v in range(g2.n):
            if here[v] == base_ids[i][base[i]] and v not in prefix:
                extend(prefix + (v,))
    extend(())
    return pieces, refined[0]


def brute_iso_count(g1, g2):
    count = 0
    for images in itertools.permutations(range(g1.n)):
        if g1.apply(Permutation(images)) == g2:
            count += 1
    return count


def backtrack_iso_count(g1, g2):
    """Isomorphisms g1 -> g2 counted by extending vertex maps one vertex at a
    time; as exhaustive as ``brute_iso_count``, but cut where a partial map
    already breaks a color or an adjacency."""
    n = g1.n
    if n != g2.n:
        return 0
    images = []

    def extend(v):
        if v == n:
            return 1
        count = 0
        for w in range(n):
            if w in images or g1.vertex_colors[v] != g2.vertex_colors[w]:
                continue
            if all(g1.has_edge(u, v) == g2.has_edge(images[u], w) for u in range(v)):
                images.append(w)
                count += extend(v + 1)
                images.pop()
        return count
    return extend(0)


def random_three_connected(rng, n, colored=0):
    """A seeded random 3-connected graph; ``colored`` vertices get color 1."""
    while True:
        p = rng.uniform(0.4, 0.7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        colors = [0] * n
        for v in rng.sample(range(n), colored):
            colors[v] = 1
        g = ColoredGraph.plain(n, edges, colors)
        if is_three_connected(g):
            return g


def moved_edge(rng, g):
    """g with one edge moved to a non-edge, relabeled; 3-connected, with the
    same vertex colors and edge count, and mostly not isomorphic to g."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    non = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if (i, j) not in edges]
    while True:
        moved = list(edges)
        moved[rng.randrange(len(moved))] = rng.choice(non)
        other = ColoredGraph.plain(g.n, moved, g.vertex_colors)
        if is_three_connected(other):
            return other.apply(rand_perm(rng, g.n))


class TestGenusHelpers:
    def test_h_from_genus(self):
        assert genus_to_h(0) == 3
        assert genus_to_h(1) == 7
        assert genus_to_h(2) == 11

    def test_k33_genus_one(self):
        assert bipartite_genus(3, 3) == 1

    def test_k37_genus_two(self):
        assert bipartite_genus(3, 7) == 2

    def test_table(self):
        table = k3h_genus_table(7)
        assert table[3] == 1 and table[7] == 2


class TestThreeConnectivity:
    def test_k4_three_connected(self):
        assert is_three_connected(complete_graph(4))

    def test_cube_three_connected(self):
        assert is_three_connected(cube_graph())

    def test_truncated_prism_three_connected(self):
        assert is_three_connected(truncated_prism())

    def test_cycle_not_three_connected(self):
        c5 = ColoredGraph.plain(5, [(i, (i + 1) % 5) for i in range(5)])
        assert not is_three_connected(c5)

    def test_dodecahedron(self):
        assert is_three_connected(dodecahedron())

    def test_checked_once_per_graph(self, monkeypatch):
        # one lowpoint search per vertex and graph: an automorphism query
        # checks its one graph once, a pair of graphs checks both
        calls = []
        real = minorfree._has_cut_vertex

        def counting(neighbors, removed):
            calls.append(removed)
            return real(neighbors, removed)
        monkeypatch.setattr(minorfree, "_has_cut_vertex", counting)
        cube = cube_graph()
        assert iso_excluded_minor(cube, cube, 3).order() == 48
        assert len(calls) == 8
        calls.clear()
        assert iso_excluded_minor(cube, dataclasses.replace(cube), 3).order() == 48
        assert len(calls) == 16

    def test_agrees_with_pair_deletion(self):
        def brute(g):
            """At least 4 vertices, and deleting no set of at most two of
            them disconnects the rest."""
            if g.n < 4:
                return False
            nbrs = g.neighbor_table()

            def connected(cut):
                alive = [v for v in range(g.n) if v not in cut]
                seen, stack = {alive[0]}, [alive[0]]
                while stack:
                    for w in nbrs[stack.pop()]:
                        if w not in cut and w not in seen:
                            seen.add(w)
                            stack.append(w)
                return len(seen) == len(alive)
            return all(connected(cut) for k in range(3)
                       for cut in itertools.combinations(range(g.n), k))

        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        two_cut = ColoredGraph.plain(6, k4 + [(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)])
        two_k4 = ColoredGraph.plain(8, k4 + [(i + 4, j + 4) for i, j in k4])
        named = [(complete_graph(4), True), (wheel(4), True), (wheel(9), True),
                 (prism(3), True), (prism(6), True), (two_cut, False),
                 (two_k4, False), (complete_graph(3), False)]
        for g, expected in named:
            assert is_three_connected(g) == brute(g) == expected

        rng = random.Random(31)
        verdicts = Counter()
        for _ in range(2000):
            n = rng.randint(4, 10)
            p = rng.uniform(0.3, 0.9)
            g = ColoredGraph.plain(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                       if rng.random() < p])
            verdict = is_three_connected(g)
            assert verdict == brute(g), sorted(tuple(sorted(e)) for e in g.edges)
            verdicts[verdict] += 1
        assert min(verdicts.values()) > 300


class TestIsoExcludedMinor:
    def test_k4_self(self):
        res = iso_excluded_minor(complete_graph(4), complete_graph(4), 3)
        assert res.order() == 24

    def test_cube_vs_relabeled(self):
        rng = random.Random(808)
        cube = cube_graph()
        pi = rand_perm(rng, 8)
        res = iso_excluded_minor(cube, cube.apply(pi), 3)
        assert not res.is_empty
        assert res.contains(pi)
        assert res.order() == 48  # |Aut(Q3)|
        assert brute_iso_count(cube, cube.apply(pi)) == 48

    def test_cube_vs_truncated_prism_empty(self):
        res = iso_excluded_minor(cube_graph(), truncated_prism(), 3)
        assert res.is_empty
        assert brute_iso_count(cube_graph(), truncated_prism()) == 0

    def test_small_random_agrees_with_brute_force(self):
        rng = random.Random(4545)
        pool = [complete_graph(5), cube_graph(), truncated_prism(),
                complete_graph(4)]
        for g in pool:
            pi = rand_perm(rng, g.n)
            relabeled = g.apply(pi)
            res = iso_excluded_minor(g, relabeled, 3)
            assert res.order() == brute_iso_count(g, relabeled)

    def test_random_three_connected_agree_with_brute_force(self):
        rng = random.Random(1218)
        for case in range(12):
            n = rng.randint(6, 9)
            colored = 2 if case % 2 else 0
            g1 = random_three_connected(rng, n, colored)
            g2 = moved_edge(rng, g1) if case % 3 == 2 else g1.apply(rand_perm(rng, n))
            res = iso_excluded_minor(g1, g2, rng.randint(3, 4))
            expected = backtrack_iso_count(g1, g2)
            if n <= 7:
                assert expected == brute_iso_count(g1, g2)
            assert res.order() == expected
            if expected:
                assert g1.apply(res.rep) == g2
                for gen in res.group.generators:
                    assert g1.apply(gen) == g1

    def test_search_replays_only_matching_triples(self, monkeypatch):
        # the refinement prune leaves one triple per automorphism, 48 on the
        # cube, and the triples the union already covers are skipped: 4 are
        # replayed, in sorted order, and each one grows the union
        calls, pieces = [], []

        def counting(*args):
            calls.append(args[3])
            pieces.append(iso_tcr_pairs(*args))
            return pieces[-1]
        monkeypatch.setattr(minorfree, "iso_tcr_pairs", counting)
        cube = cube_graph()
        res = iso_excluded_minor(cube, cube.apply(rand_perm(random.Random(5), 8)), 3)
        assert res.order() == 48
        assert len(calls) == 4
        assert calls == sorted(calls)
        union = CosetUnion(8)
        assert all(union.add(piece) for piece in pieces)

    def test_skipping_covered_triples_keeps_the_union(self, monkeypatch):
        # the loop without the skip, through public pieces: every triple
        # that survives the refinement prune and the trace screen is
        # replayed and added.  The generators and the representative must
        # match; each skipped triple must carry an isomorphism (its piece is
        # covered, so nonempty), and each replayed one must grow the union
        calls = []

        def counting(*args):
            calls.append(args[3])
            return iso_tcr_pairs(*args)
        monkeypatch.setattr(minorfree, "iso_tcr_pairs", counting)
        rng = random.Random(12)
        for g in (cube_graph(), truncated_prism(), wheel(6), prism(5, colored=(0, 5))):
            skipped = 0
            for _ in range(3):
                g1 = g.apply(rand_perm(rng, g.n))
                g2 = g.apply(rand_perm(rng, g.n))
                pieces, _ = every_piece(g1, g2, 2)
                calls.clear()
                res = iso_excluded_minor(g1, g2, 3)
                union = CosetUnion(g.n)
                for triple, piece in pieces.items():
                    grew = union.add(piece)
                    if triple in calls:
                        assert grew
                    else:
                        assert not piece.is_empty and not grew
                        skipped += 1
                ref = union.result()
                assert res.order() == ref.order()
                assert res.group.generators == ref.group.generators
                assert res.rep == ref.rep
            assert skipped > 0

    def test_skipping_covered_prefixes_keeps_the_union(self, monkeypatch):
        # the orbit prune at inner nodes: a prefix of length k that is an
        # image of base[:k] under the union is skipped before it is refined.
        # Fewer prefixes of g2 are refined than in the search without any
        # skip, and the generators and the representative are those of
        # every piece added
        refined = []
        real = minorfree.color_refinement

        def counting(graph, start=None):
            refined.append(graph)
            return real(graph, start)
        monkeypatch.setattr(minorfree, "color_refinement", counting)
        rng = random.Random(28)
        for g in (cube_graph(), wheel(7), prism(5, colored=(0, 5))):
            g1 = g.apply(rand_perm(rng, g.n))
            g2 = g.apply(rand_perm(rng, g.n))
            pieces, prefixes = every_piece(g1, g2, 2)
            refined.clear()
            res = iso_excluded_minor(g1, g2, 3)
            assert sum(graph is g2 for graph in refined) < prefixes
            union = CosetUnion(g.n)
            for piece in pieces.values():
                union.add(piece)
            ref = union.result()
            assert res.group.generators == ref.group.generators
            assert res.rep == ref.rep

    def test_one_alternation_per_graph_and_triple(self, monkeypatch):
        # each graph keeps its last alternation record: g1's runs once per
        # query, g2's once per examined triple (the screen records it, the
        # replay reads it back), and every replay round runs under the
        # trivial group, so none is a set-of-strings query.  With g1 and g2
        # one object, the replay runs against a copy: as many records and
        # the same answer as against a copy made by the caller
        records, screened = [], []
        real_alternation, real_sequence = refine._alternation, minorfree.tcr_sequence

        def alternation(graph, points, t):
            records.append((graph, real_alternation(graph, points, t)))
            return records[-1][1]

        def sequence(graph, individualize, t):
            screened.append(graph)
            return real_sequence(graph, individualize, t)

        def no_query(*args):
            raise AssertionError("set-of-strings query in a replay")
        monkeypatch.setattr(refine, "_alternation", alternation)
        monkeypatch.setattr(minorfree, "tcr_sequence", sequence)
        monkeypatch.setattr(refine, "_gsi_coset", no_query)
        rng = random.Random(26)
        colored = prism(6, colored=(0, 7))
        pairs = [(g, g.apply(rand_perm(rng, g.n)), True) for g in (prism(5), colored, wheel(7))]
        pairs.append((colored, prism(6, colored=(0, 8)).apply(rand_perm(rng, 12)), False))
        for g1, g2, iso in pairs:
            records.clear()
            screened.clear()
            assert iso_excluded_minor(g1, g2, 3).is_empty != iso
            examined = sum(graph is g2 for graph in screened)
            computed = {id(record): graph for graph, record in records}.values()
            assert sum(graph is g1 for graph in screened) == 1
            assert sum(graph is g1 for graph in computed) == 1
            assert sum(graph is g2 for graph in computed) == examined
            assert examined > 0
            same = iso_excluded_minor(g1, g1, 3)
            copied = iso_excluded_minor(g1, dataclasses.replace(g1), 3)
            assert same.rep == copied.rep
            assert same.group.generators == copied.group.generators
        for make, count in ((lambda: prism(6), 5), (lambda: wheel(9), 4)):
            answers = []
            for copy in (False, True):
                g = make()
                records.clear()
                answers.append(iso_excluded_minor(g, dataclasses.replace(g) if copy else g, 3))
                assert len({id(record) for _, record in records}) == count
            same, copied = answers
            assert same.rep == copied.rep
            assert same.group.generators == copied.group.generators

    def test_discrete_base_side_never_stalls(self):
        # the prune may skip triples only because none of them can stall:
        # with a discrete side 1, no screened triple makes the replay raise
        rng = random.Random(77)
        checked = 0
        for case in range(9):
            n = rng.randint(5, 7)
            g1 = random_three_connected(rng, n, 2 * (case % 2))
            g2 = g1.apply(rand_perm(rng, n)) if case % 3 else moved_edge(rng, g1)
            t = rng.randint(2, 3)
            _, discrete1, trace1 = tcr_sequence(g1, (0, 1, 2), t)
            if not discrete1:
                continue
            for triple in itertools.permutations(range(n), 3):
                _, discrete2, trace2 = tcr_sequence(g2, triple, t)
                if not discrete2 or trace2 != trace1:
                    continue
                try:
                    iso_tcr_pairs(g1, (0, 1, 2), g2, triple, PermGroup([], 3),
                                  dict(zip((0, 1, 2), triple)), t)
                except NotTCRBounded:
                    pytest.fail("triple %s stalled" % (triple,))
                checked += 1
        assert checked > 0

    def test_rejects_non_three_connected(self):
        c5 = ColoredGraph.plain(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(ValueError):
            iso_excluded_minor(c5, c5, 3)

    def test_rejects_small(self):
        tri = ColoredGraph.plain(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            iso_excluded_minor(tri, tri, 3)


def complete_bipartite(m):
    return ColoredGraph.plain(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


class TestStallFallback:
    """At h = 3 the alternation never makes a side of K_{m,m}, m >= 3,
    discrete; up to ``BRUTE_FORCE_LIMIT`` vertices the query falls back to
    graph isomorphism under the full symmetric group."""

    @pytest.mark.parametrize("m, count", [(3, brute_iso_count), (4, backtrack_iso_count)],
                             ids=["K33", "K44"])
    def test_stalled_inputs_answer_exactly(self, monkeypatch, m, count):
        calls = []
        fallback = minorfree._stall_fallback

        def counting(*args):
            calls.append(args[0].n)
            return fallback(*args)
        monkeypatch.setattr(minorfree, "_stall_fallback", counting)
        g = complete_bipartite(m)
        pi = rand_perm(random.Random(m), 2 * m)
        res = iso_excluded_minor(g, g.apply(pi), 3)
        assert calls == [2 * m]
        assert res.contains(pi)
        assert res.order() == count(g, g.apply(pi)) == 2 * math.factorial(m) ** 2

    def test_fallback_ticks_the_query_budget(self):
        g = complete_bipartite(3)
        budget = Budget()
        iso_excluded_minor(g, g, 3, budget)
        assert budget.used > 0
        with pytest.raises(BudgetExceeded):
            iso_excluded_minor(g, g, 3, budget.used - 1)

    def test_too_large_to_fall_back(self):
        g = complete_bipartite(6)
        with pytest.raises(MinorPromiseViolation):
            iso_excluded_minor(g, g, 3)


class TestLemmaSmallClass:
    def test_vacuous_empty_interior(self):
        g = complete_graph(4)
        col = color_refinement(g)
        report = lemma_small_class(g, col, [0, 1, 2, 3], [], 3)
        assert report.ok

    def test_dodecahedron_mid_pipeline(self):
        g = dodecahedron()
        col, discrete, _ = tcr_sequence(g, [0, 1, 2], 0)
        # take the non-singleton part as the interior
        sizes = {}
        for c in col.ids:
            sizes[c] = sizes.get(c, 0) + 1
        v2 = [v for v in range(g.n) if sizes[col.ids[v]] > 1]
        neighbors = g.neighbor_table()
        v1 = sorted({w for v in v2 for w in neighbors[v] if w not in set(v2)})
        if v2:
            report = lemma_small_class(g, col, v1, v2, 3)
            if report.ok:
                assert report.witness is not None
                assert len(report.witness) <= 2

    def test_k35_promise_violation(self):
        # K_{3,5}: left side individualized, right side stays one class of 5
        edges = [(i, 3 + j) for i in range(3) for j in range(5)]
        g = ColoredGraph.plain(8, edges, [0, 1, 2] + [3] * 5)
        col = color_refinement(g)
        report = lemma_small_class(g, col, [0, 1, 2], list(range(3, 8)), 3)
        assert not report.ok
        assert "K_{3,3}" in report.reason


class TestIsoGenus:
    def test_genus_zero_maps_to_h3(self):
        res = iso_genus(complete_graph(4), complete_graph(4), 0)
        assert res.order() == 24
