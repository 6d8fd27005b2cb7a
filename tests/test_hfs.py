import random
import sys

import pytest

from setiso.hfs import HfsTerm, hfs_to_graph, iso_hfs
from setiso.perm import PermGroup, Permutation

from util import rand_perm


def atom(i):
    return HfsTerm.make_atom(i)


def hset(*ts):
    return HfsTerm.make_set(ts)


def htuple(*ts):
    return HfsTerm.make_tuple(ts)


def sym(n):
    if n <= 1:
        return PermGroup([], max(n, 1))
    return PermGroup([Permutation.from_cycles(n, [0, 1]),
                      Permutation.from_cycles(n, list(range(n)))], n)


def rand_term(rng, universe, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return atom(rng.randrange(universe))
    k = rng.randint(1, 3)
    children = [rand_term(rng, universe, depth - 1) for _ in range(k)]
    if rng.random() < 0.5:
        return HfsTerm.make_set(children)
    return HfsTerm.make_tuple(children)


def chain(shape_seed, universe, depth, base):
    """A term nested ``depth`` deep over the atom ``base``: every level is a
    set of the level below, or every level a tuple, and at most one level
    also holds a second atom, as drawn from ``shape_seed``.  Refinement
    tells the levels apart one round at a time, from both ends."""
    rng = random.Random(shape_seed)
    wrap = hset if rng.random() < 0.5 else htuple
    marked = rng.randrange(depth + 1)
    side = atom(rng.randrange(universe))
    term = atom(base)
    for level in range(depth):
        term = wrap(term, side) if level == marked else wrap(term)
    return term


class TestEncoding:
    def test_simple_set(self):
        g, _ = hfs_to_graph(hset(atom(0), atom(1)), 2)
        assert g.n == 3
        assert len(g.edges) == 2

    def test_figure_term_counts(self):
        # ({1..5}, {(1,2),(3,4),(4,5)}, {(3,1),(3,4),{1,2}}) over a 5-atom
        # ground set, written with 0-indexed atoms
        a = [atom(i) for i in range(5)]
        term = htuple(
            hset(*a),
            hset(htuple(a[0], a[1]), htuple(a[2], a[3]), htuple(a[3], a[4])),
            hset(htuple(a[2], a[0]), htuple(a[2], a[3]), hset(a[0], a[1])),
        )
        g, _ = hfs_to_graph(term, 5)
        assert g.n == 14
        counts = {}
        for c in g.vertex_colors:
            counts[c] = counts.get(c, 0) + 1
        assert counts == {0: 5, 1: 4, 2: 5}

    def test_repeated_tuple_child_merges_arcs(self):
        g, _ = hfs_to_graph(htuple(atom(0), atom(0)), 1)
        assert g.n == 2
        assert len(g.edges) == 1
        color = g.arc_colors[(1, 0)]
        assert color == (1 << 30) + (1 << 1) + (1 << 2)

    def test_shared_subterms_merged(self):
        shared = htuple(atom(0), atom(1))
        term = hset(hset(shared), htuple(shared, atom(1)))
        g, _ = hfs_to_graph(term, 2)
        # atoms 0,1 + shared tuple + inner set + inner tuple + outer set
        assert g.n == 6

    def test_out_of_range_atom(self):
        with pytest.raises(ValueError):
            hfs_to_graph(atom(3), 2)


class TestIsoHfs:
    def test_bare_atom_outside_universe(self):
        for t1, t2 in ((atom(7), atom(0)), (atom(0), atom(7))):
            with pytest.raises(ValueError, match="outside the universe"):
                iso_hfs(t1, t2, sym(5))

    def test_relabeled_term_found(self):
        rng = random.Random(99)
        for _ in range(15):
            n = rng.randint(2, 5)
            t1 = rand_term(rng, n)
            pi = rand_perm(rng, n)
            t2 = t1.apply(pi)
            res = iso_hfs(t1, t2, sym(n))
            assert not res.is_empty
            assert res.contains(pi)
            assert t1.apply(res.rep) == t2

    def test_tuple_order_detected(self):
        res = iso_hfs(htuple(atom(0), atom(1)), htuple(atom(1), atom(0)),
                      PermGroup([], 2))
        assert res.is_empty

    def test_set_unordered(self):
        res = iso_hfs(hset(atom(0), atom(1)), hset(atom(1), atom(0)),
                      PermGroup([], 2))
        assert not res.is_empty
        assert res.contains(Permutation.identity(2))

    def test_agreement_with_structural_oracle(self):
        # random terms up to 6 deep, then chains nested 30 to 60 deep, each
        # against a relabeled copy and against the same chain over another
        # atom: the replay runs one refinement round per level on encoded
        # graphs with tens of vertices
        rng = random.Random(123)
        pairs = []
        for _ in range(40):
            n = rng.randint(2, 5)
            t1 = rand_term(rng, n, depth=rng.randint(1, 6))
            t2 = rand_term(rng, n) if rng.random() < 0.5 else t1.apply(rand_perm(rng, n))
            pairs.append((n, t1, t2))
        for seed in range(6):
            n, depth = rng.randint(2, 4), rng.randint(30, 60)
            a, b = rng.sample(range(n), 2)
            t1 = chain(seed, n, depth, a)
            pairs.append((n, t1, t1.apply(rand_perm(rng, n))))
            pairs.append((n, t1, chain(seed, n, depth, b)))
        nonempty = 0
        for n, t1, t2 in pairs:
            res = iso_hfs(t1, t2, sym(n))
            brute = {g.images for g in sym(n).elements() if t1.apply(g) == t2}
            assert res.element_set() == frozenset(brute)
            nonempty += bool(brute)
        assert 20 < nonempty < len(pairs) - 20

    def test_deep_chain_answers_like_shallow_ones(self):
        # (((a0))) nested 300 deep against the same chain over a1: after the
        # first round the coset's group is trivial, so every further replay
        # round is a name check.  Hashing, relabeling and comparing terms
        # still recurse once per level, hence the raised recursion limit.
        # Tuples, because a set sorts its children by their repr, which
        # costs O(depth) per level
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 5000))
        try:
            t1, t2 = atom(0), atom(1)
            for _ in range(300):
                t1, t2 = htuple(t1), htuple(t2)
            res = iso_hfs(t1, t2, sym(2))
            brute = {g.images for g in sym(2).elements() if t1.apply(g) == t2}
            assert res.element_set() == frozenset(brute) == {(1, 0)}
        finally:
            sys.setrecursionlimit(limit)

    def test_under_restricted_group(self):
        rng = random.Random(321)
        for _ in range(15):
            n = rng.randint(2, 5)
            gens = [rand_perm(rng, n) for _ in range(rng.randint(0, 2))]
            group = PermGroup(gens, n)
            t1 = rand_term(rng, n)
            t2 = rand_term(rng, n) if rng.random() < 0.4 else t1.apply(rand_perm(rng, n))
            res = iso_hfs(t1, t2, group)
            brute = {g.images for g in group.elements() if t1.apply(g) == t2}
            assert res.element_set() == frozenset(brute)
