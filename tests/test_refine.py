import dataclasses
import itertools
import random

import pytest

import setiso.refine
from setiso.graphs import ColoredGraph
from setiso.hfs import hfs_to_graph
from setiso.perm import PermGroup, Permutation
from setiso.refine import (
    NotTCRBounded,
    color_refinement,
    iso_tcr_pairs,
    tcr_sequence,
)

from util import rand_perm

from test_hfs import chain, rand_term
from test_minorfree import cube_graph


def cycle_graph(n):
    return ColoredGraph.plain(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return ColoredGraph.plain(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return ColoredGraph.plain(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def rand_graph(rng, n, colors=1):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return ColoredGraph.plain(n, edges, [rng.randrange(colors) for _ in range(n)])


def brute_iso_set(g1, g2, s1=(), s2=(), group=None, theta=None):
    """{sigma : g1^sigma = g2, sigma(s1) = s2, and the map of sorted
    positions that sigma induces from s1 to s2 lies in group * theta}."""
    s1s, s2s = sorted(s1), sorted(s2)
    pos2 = {v: i for i, v in enumerate(s2s)}
    theta_pos = Permutation([pos2[theta[v]] for v in s1s]) if theta else Permutation([])
    group = group or PermGroup([], 0)
    allowed = {(h * theta_pos).images for h in group.elements()}
    out = set()
    for images in itertools.permutations(range(g1.n)):
        if tuple(pos2.get(images[v]) for v in s1s) not in allowed:
            continue
        if g1.apply(Permutation(images)) == g2:
            out.add(images)
    return out


def test_neighbor_table_is_built_once_and_read_only():
    g = ColoredGraph.plain(4, [(2, 0), (0, 1), (3, 0)])
    table = g.neighbor_table()
    assert table == ((1, 2, 3), (0,), (0,), (0,))
    assert g.neighbor_table() is table
    with pytest.raises(TypeError):
        table[0][0] = 3
    assert g == ColoredGraph.plain(4, [(0, 1), (0, 2), (0, 3)])


def test_arc_table_is_built_once_from_the_arc_colors():
    g = ColoredGraph.build(3, {(0, 1): 4, (1, 0): 5, (1, 2): 6, (2, 1): 6}, [0, 0, 0])
    table = g.arc_table()
    assert table == (((1, 4, 5),), ((0, 5, 4), (2, 6, 6)), ((1, 6, 6),))
    assert g.arc_table() is table
    assert g == ColoredGraph.build(3, dict(g.arc_colors), [0, 0, 0])


def _reference_round(g, ids):
    """One refinement round computed straight from ``arc_colors``."""
    keys = [(ids[v], tuple(sorted((ids[w], g.arc_colors[(v, w)], g.arc_colors[(w, v)])
                                  for w in range(g.n) if g.has_edge(v, w))))
            for v in range(g.n)]
    names = sorted(set(keys))
    return tuple(names.index(key) for key in keys), names


def test_round_reads_the_arc_table_as_the_arc_colors():
    """Asymmetric arc colors: random directed colorings, and HFS encodings,
    whose arcs down to a child carry its position and arcs up a fixed color."""
    rng = random.Random(2828)
    graphs = []
    for _ in range(30):
        n = rng.randint(2, 8)
        arcs = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    arcs[(u, v)], arcs[(v, u)] = rng.randrange(3), rng.randrange(3)
        graphs.append(ColoredGraph.build(n, arcs, [rng.randrange(2) for _ in range(n)]))
    for _ in range(15):
        graphs.append(hfs_to_graph(rand_term(rng, 4), 4)[0])
    for g in graphs:
        ids = tuple(rng.randrange(3) for _ in range(g.n))
        while True:
            new = setiso.refine._round(g, ids)
            assert new == _reference_round(g, ids)
            if new[0] == ids:
                break
            ids = new[0]


class TestColorRefinement:
    def test_c6_single_class(self):
        col = color_refinement(cycle_graph(6))
        assert col.num_classes == 1

    def test_p3_degree_split(self):
        col = color_refinement(path_graph(3))
        assert col.num_classes == 2
        assert col.ids[0] == col.ids[2] != col.ids[1]

    def test_star_two_classes(self):
        star = ColoredGraph.plain(6, [(0, i) for i in range(1, 6)])
        col = color_refinement(star)
        assert col.num_classes == 2

    def test_equitability(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = rand_graph(rng, n, colors=2)
            col = color_refinement(g)
            classes = col.classes()
            neighbors = g.neighbor_table()
            for cls in classes:
                for other in classes:
                    sigs = set()
                    for u in cls:
                        ms = tuple(sorted(
                            (col.ids[w], g.arc_colors[(u, w)], g.arc_colors[(w, u)])
                            for w in neighbors[u] if w in set(other)))
                        sigs.add(ms)
                    assert len(sigs) == 1

    @pytest.mark.parametrize("start", [[0, 0], [0, 0, 0, 1]])
    def test_start_needs_one_label_per_vertex(self, start):
        with pytest.raises(ValueError, match="one label per vertex"):
            color_refinement(path_graph(3), start)

    def test_monotone_refinement_and_invariance(self):
        rng = random.Random(4321)
        for _ in range(40):
            n = rng.randint(2, 7)
            g1 = rand_graph(rng, n, colors=2)
            s = rand_perm(rng, n)
            g2 = g1.apply(s)
            c1, c2 = color_refinement(g1), color_refinement(g2)
            assert c1.class_sizes() == c2.class_sizes()
            # the canonical ids transport along the isomorphism
            for v in range(n):
                assert c1.ids[v] == c2.ids[s.images[v]]


class TestTcrSequence:
    def test_all_individualized_discrete(self):
        g = cycle_graph(5)
        col, discrete, trace = tcr_sequence(g, range(5), 0)
        assert discrete

    def test_k4_three_individualized(self):
        g = complete_graph(4)
        col, discrete, _ = tcr_sequence(g, [0, 1, 2], 2)
        assert discrete

    def test_c6_no_split_possible(self):
        g = cycle_graph(6)
        col, discrete, _ = tcr_sequence(g, [], 1)
        assert not discrete
        assert col.num_classes == 1

    def test_points_outside_the_graph_are_refused(self):
        with pytest.raises(ValueError, match="points must lie in 0..4"):
            tcr_sequence(cycle_graph(5), [99], 2)

    def test_trace_is_invariant(self):
        rng = random.Random(777)
        for _ in range(20):
            n = rng.randint(3, 7)
            g1 = rand_graph(rng, n)
            s = rand_perm(rng, n)
            g2 = g1.apply(s)
            _, d1, tr1 = tcr_sequence(g1, [], 2)
            _, d2, tr2 = tcr_sequence(g2, [], 2)
            assert d1 == d2
            assert tr1 == tr2


class TestIsoTcrPairs:
    def test_self_iso_empty_s(self):
        g = cycle_graph(5)
        res = iso_tcr_pairs(g, [], g, [], PermGroup([], 0), {}, t=5)
        assert not res.is_empty
        assert res.contains(Permutation.identity(5))
        assert res.order() == 10  # dihedral group of the 5-cycle

    def test_k4_matched_triples(self):
        g1 = complete_graph(4)
        s = Permutation([2, 0, 3, 1])
        g2 = g1.apply(s)
        triple = [0, 1, 2]
        theta = {v: s.images[v] for v in triple}
        res = iso_tcr_pairs(g1, triple, g2, [s.images[v] for v in triple],
                            PermGroup([], 3), theta, t=2)
        assert not res.is_empty
        assert res.order() == 1
        assert next(iter(res.elements())) == s

    def test_k4_vs_c4_empty(self):
        g1 = complete_graph(4)
        g2 = cycle_graph(4)
        theta = {0: 0, 1: 1, 2: 2}
        res = iso_tcr_pairs(g1, [0, 1, 2], g2, [0, 1, 2], PermGroup([], 3), theta, t=2)
        assert res.is_empty

    def test_agrees_with_brute_force(self):
        # first no individualized vertices and t = n; then up to three, with
        # a trivial or a transposition group on their positions, a random
        # theta and t from 0 to 3
        rng = random.Random(5511)
        cases = []
        for _ in range(25):
            n = rng.randint(2, 6)
            g1 = rand_graph(rng, n, colors=2)
            if rng.random() < 0.6:
                s = rand_perm(rng, n)
                g2 = g1.apply(s)
            else:
                g2 = rand_graph(rng, n, colors=2)
            cases.append((g1, [], g2, [], PermGroup([], 0), {}, n))
        for _ in range(300):
            n = rng.randint(2, 7)
            k = rng.randint(0, min(3, n))
            t = rng.randint(0, 3)
            g1 = rand_graph(rng, n, colors=2)
            s1 = rng.sample(range(n), k)
            if rng.random() < 0.6:
                s = rand_perm(rng, n)
                g2, s2 = g1.apply(s), [s.images[v] for v in s1]
            else:
                g2, s2 = rand_graph(rng, n, colors=2), rng.sample(range(n), k)
            swap = k >= 2 and rng.random() < 0.5
            group = PermGroup([Permutation.from_cycles(k, [0, 1])] if swap else [], k)
            theta = dict(zip(sorted(s1), rng.sample(s2, k)))
            cases.append((g1, s1, g2, s2, group, theta, t))
        checked = nonempty = 0
        for g1, s1, g2, s2, group, theta, t in cases:
            try:
                res = iso_tcr_pairs(g1, s1, g2, s2, group, theta, t=t)
            except NotTCRBounded:
                continue
            got = res.element_set()
            assert got == frozenset(brute_iso_set(g1, g2, s1, s2, group, theta))
            checked += 1
            nonempty += bool(got)
        assert checked > 250 and nonempty > 100

    def test_not_bounded_reported(self):
        # two disjoint 3-cycles with t=1: refinement cannot separate them
        g = ColoredGraph.plain(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(NotTCRBounded):
            iso_tcr_pairs(g, [], g, [], PermGroup([], 0), {}, t=1)

    @pytest.mark.parametrize("theta", [{0: 0, 1: 3}, {0: 1, 1: 1}])
    def test_theta_must_map_s1_onto_s2(self, theta):
        g = path_graph(4)
        with pytest.raises(ValueError, match="theta must map s1 bijectively onto s2"):
            iso_tcr_pairs(g, [0, 1], g, [0, 1], PermGroup([], 2), theta, t=2)

    @pytest.mark.parametrize("s1, s2", [([0, 99], [0, 1]), ([0, 1], [-1, 1])])
    def test_points_outside_the_graphs_are_refused(self, s1, s2):
        g = path_graph(4)
        theta = dict(zip(sorted(s1), sorted(s2)))
        with pytest.raises(ValueError, match="points must lie in 0..3"):
            iso_tcr_pairs(g, s1, g, s2, PermGroup([], 2), theta, t=2)

    def test_one_graph_test_per_pair(self, monkeypatch):
        # the replay only narrows the coset; one graph isomorphism test at
        # the end makes it exact, and none runs once the replay empties it.
        # A final coset with the trivial group is one permutation, compared
        # directly with no solver call
        calls = []
        real = setiso.refine.graph_iso_under_group

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(setiso.refine, "graph_iso_under_group", counted)
        g1 = cube_graph()
        s = Permutation([3, 6, 0, 7, 1, 5, 2, 4])
        triple = [0, 1, 2]
        res = iso_tcr_pairs(g1, triple, g1.apply(s), [s.images[v] for v in triple],
                            PermGroup([], 3), {v: s.images[v] for v in triple}, t=2)
        assert res.order() == 1 and res.rep == s
        assert calls == []

        # a final coset with a nontrivial group makes exactly one call: the
        # cycle C6 individualized at one vertex keeps its reflection
        c6 = cycle_graph(6)
        res = iso_tcr_pairs(c6, [0], c6, [0], PermGroup([], 1), {0: 0}, t=2)
        assert res.order() == 2
        assert len(calls) == 1

        calls.clear()
        p4 = path_graph(4)
        star = ColoredGraph.plain(4, [(0, 1), (0, 2), (0, 3)])
        assert iso_tcr_pairs(p4, [], star, [], PermGroup([], 0), {}, t=4).is_empty
        assert calls == []


def _rounds(run):
    """Refinement rounds (calls of the round function) while ``run`` runs."""
    count = [0]
    real = setiso.refine._round

    def counted(*args):
        count[0] += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setiso.refine, "_round", counted)
        run()
    return count[0]


def test_replay_rounds_are_those_of_the_two_sequences():
    """On fresh graph objects, one ``iso_tcr_pairs`` call runs the
    alternation once per side and reads every round's classes from the two
    records: exactly the rounds of ``tcr_sequence`` on its two sides, with
    no rescans, whether the pair is isomorphic or not.  Each graph keeps its
    last record, so after ``tcr_sequence`` on the same objects the replay
    runs none, and answers the same."""
    cube = cube_graph()
    s = Permutation([3, 6, 0, 7, 1, 5, 2, 4])
    star = ColoredGraph.plain(4, [(0, 1), (0, 2), (0, 3)])
    hfs1, _ = hfs_to_graph(chain(0, 3, 40, 0), 3)
    hfs2, _ = hfs_to_graph(chain(0, 3, 40, 1), 3)
    cases = [
        (cube, [0, 1, 2], cube.apply(s), [3, 6, 0], 2, 6, True),
        (cycle_graph(6), [0], cycle_graph(6), [0], 2, 8, True),
        (path_graph(4), [], star, [], 4, 6, False),
        (hfs1, [0, 1, 2], hfs1, [0, 1, 2], 0, 30, True),
        (hfs1, [0, 1, 2], hfs2, [0, 1, 2], 0, 30, False),
    ]
    for g1, s1, g2, s2, t, rounds, iso in cases:
        group, theta = PermGroup([], len(s1)), dict(zip(s1, s2))
        res = []
        a1, a2 = dataclasses.replace(g1), dataclasses.replace(g2)
        assert _rounds(lambda: (tcr_sequence(a1, s1, t), tcr_sequence(a2, s2, t))) == rounds
        assert _rounds(lambda: res.append(
            iso_tcr_pairs(a1, s1, a2, s2, group, theta, t))) == 0
        b1, b2 = dataclasses.replace(g1), dataclasses.replace(g2)
        assert _rounds(lambda: res.append(
            iso_tcr_pairs(b1, s1, b2, s2, group, theta, t))) == rounds
        stored, fresh = res
        assert stored.is_empty == fresh.is_empty != iso
        if iso:
            assert stored.rep == fresh.rep
            assert stored.group.generators == fresh.group.generators
