import random

import pytest
from hypothesis import given, settings, strategies as st

from setiso.oracle import apply_family
from setiso.perm import NotInvariant, Permutation
from setiso.pstrings import (
    Hypergraph,
    PPartition,
    PString,
    PStringFamily,
    VirtualSizeConfig,
    family_to_hypergraph,
    funcnorm,
    harmonize_sentinels,
    hypergraph_to_family,
    make_family,
)
from setiso.solver import family_image_key

from util import rand_family_on, rand_group, rand_invariant_partition, rand_perm


def rand_partition(rng, n):
    ids = [rng.randint(0, max(0, n // 2)) for _ in range(n)]
    # densify
    seen = {}
    dense = []
    for i in ids:
        if i not in seen:
            seen[i] = len(seen)
        dense.append(seen[i])
    return PPartition(n, tuple(dense))


def rand_family(rng, n, max_members=8, colors=3):
    part = rand_partition(rng, n)
    members = set()
    for _ in range(rng.randint(1, max_members)):
        c = rng.randrange(part.num_classes)
        letters = tuple(rng.randrange(colors) for _ in part.members(c))
        members.add((c, letters))
    return make_family(part, [PString(c, l) for c, l in sorted(members)])


class TestPartition:
    def test_dense_ids_required(self):
        with pytest.raises(ValueError):
            PPartition(3, (0, 2, 2))

    def test_from_classes_orders_by_min(self):
        p = PPartition.from_classes(4, [[3, 1], [0, 2]])
        assert p.class_of == (0, 1, 0, 1)

    def test_invariance(self):
        p = PPartition.from_classes(4, [[0, 1], [2, 3]])
        assert p.is_invariant_under(Permutation([1, 0, 3, 2]))
        assert p.is_invariant_under(Permutation([2, 3, 0, 1]))
        assert not p.is_invariant_under(Permutation([0, 2, 1, 3]))

    def test_class_tables(self):
        p = PPartition.from_classes(5, [[4, 1], [0, 3, 2]])
        assert p.classes() == [(0, 2, 3), (1, 4)]
        assert [p.members(p.class_of[q])[p.positions[q]] for q in range(5)] == list(range(5))
        assert p.members(2) == () and p.members(-1) == ()
        # the tables are derived data: equality and hashing ignore them
        same = PPartition(5, (0, 1, 0, 0, 1))
        assert same == p and hash(same) == hash(p)
        assert "positions" not in repr(p)


class TestMakeFamily:
    def test_trivial_partition_counts(self):
        part = PPartition.trivial(3)
        fam = make_family(part, [PString(0, (0, 0, 1)), PString(0, (1, 0, 0))])
        assert fam.occupancy(0) == 2

    def test_simple_family(self):
        part = PPartition.discrete(3)
        fam = make_family(part, [PString(i, (0,)) for i in range(3)])
        assert fam.is_simple()
        assert fam.occupancy_profile() == (1, 1, 1)

    def test_empty_class_padded(self):
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fam = make_family(part, [PString(0, (1, 2))])
        assert fam.is_completely_occupied()
        assert fam.sentinel == 3
        assert fam.occupancy(1) == 1

    def test_support_mismatch_rejected(self):
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        with pytest.raises(ValueError):
            make_family(part, [PString(0, (1, 2, 3))])

    def test_duplicate_rejected(self):
        part = PPartition.trivial(2)
        with pytest.raises(ValueError):
            PStringFamily(part, [PString(0, (0, 1)), PString(0, (0, 1))])

    def test_harmonize_sentinels(self):
        part = PPartition.from_classes(2, [[0], [1]])
        x = make_family(part, [PString(0, (0,))])
        y = make_family(part, [PString(0, (5,))])
        hx, hy = harmonize_sentinels(x, y)
        assert hx.sentinel == hy.sentinel == 6


class TestRestrict:
    def test_identity_restriction(self):
        rng = random.Random(3)
        fam = rand_family(rng, 5)
        assert fam.restrict(range(5)).key() == fam.key()

    def test_collapse_outside_window(self):
        part = PPartition.trivial(4)
        fam = make_family(part, [PString(0, (0, 0, 0, 1)), PString(0, (0, 0, 1, 1))])
        res = fam.restrict([0, 1])
        assert len(res.members) == 1

    def test_disjoint_class_dropped(self):
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fam = make_family(part, [PString(0, (1, 1)), PString(1, (2, 2))])
        res = fam.restrict([0, 1])
        assert res.partition.num_classes == 1
        assert res.members == (PString(0, (1, 1)),)

    def test_empty_restriction_rejected(self):
        part = PPartition.trivial(2)
        fam = make_family(part, [PString(0, (0, 0))])
        with pytest.raises(ValueError):
            fam.restrict([])


class TestVirtualSize:
    def test_worked_example(self):
        # |P1|=2 with m=2, |P2|=3 with m=1, exponent 2: 2*4 + 3*1 = 11
        part = PPartition.from_classes(5, [[0, 1], [2, 3, 4]])
        fam = make_family(part, [
            PString(0, (0, 0)), PString(0, (0, 1)), PString(1, (0, 0, 0)),
        ])
        assert fam.virtual_size(VirtualSizeConfig(d=2)) == 11

    def test_simple_family_equals_n(self):
        part = PPartition.from_classes(6, [[0, 1, 2], [3], [4, 5]])
        fam = make_family(part, [PString(0, (0, 0, 0)), PString(1, (1,)), PString(2, (0, 1))])
        for d in (2, 3, 10):
            assert fam.virtual_size(VirtualSizeConfig(d=d)) == 6

    def test_balanced_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 8)
            part = rand_partition(rng, n)
            m0 = rng.randint(1, 3)
            members = []
            for c in range(part.num_classes):
                size = len(part.members(c))
                pool = set()
                while len(pool) < m0:
                    pool.add(tuple(rng.randint(0, 5) for _ in range(size)))
                members += [PString(c, l) for l in sorted(pool)]
            fam = make_family(part, members)
            assert fam.is_balanced()
            cfg = VirtualSizeConfig(d=rng.choice([2, 3, 5]))
            assert fam.virtual_size(cfg) == n * m0 ** cfg.exponent

    def test_funcnorm_monotone(self):
        vals = [funcnorm(d) for d in range(2, 40)]
        assert vals == sorted(vals)
        assert VirtualSizeConfig(d=2).exponent >= 2

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_partition_split_lemma(self, n, rng):
        fam = rand_family(rng, n)
        cfg = VirtualSizeConfig(d=2)
        pts = list(range(n))
        rng.shuffle(pts)
        k = rng.randint(1, n - 1) if n > 1 else 1
        w1, w2 = sorted(pts[:k]), sorted(pts[k:])
        if not w1 or not w2:
            return
        s = fam.virtual_size(cfg)
        s1 = fam.restrict(w1).virtual_size(cfg)
        s2 = fam.restrict(w2).virtual_size(cfg)
        assert s1 + s2 <= s

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_strict_monotonicity(self, n, rng):
        fam = rand_family(rng, n)
        cfg = VirtualSizeConfig(d=2)
        pts = list(range(n))
        rng.shuffle(pts)
        k = rng.randint(1, n - 1)
        small, large = sorted(pts[:k]), sorted(pts[: k + 1])
        assert fam.restrict(small).virtual_size(cfg) < fam.restrict(large).virtual_size(cfg)


class TestHypergraphRoundTrip:
    def test_four_cycle(self):
        h = Hypergraph(4, frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)]))
        fam = hypergraph_to_family(h)
        assert len(fam.members) == 4

    def test_round_trip_identity_on_edge_sets(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 6)
            edges = set()
            for _ in range(rng.randint(0, 6)):
                k = rng.randint(0, n)
                edges.add(frozenset(rng.sample(range(n), k)))
            h = Hypergraph(n, frozenset(edges))
            fam = hypergraph_to_family(h)
            h2 = family_to_hypergraph(fam)
            # the reverse encoding lives on Omega x Sigma; pull back via the
            # "letter 1" slots when the alphabet is {0,1}
            assert len(h2.edges) == len(fam.members)
            alphabet = sorted({l for m in fam.members for l in m.letters})
            if alphabet == [0, 1]:
                decoded = frozenset(
                    frozenset(v // 2 for v in e if v % 2 == 1) for e in h2.edges)
                assert decoded == frozenset(h.edges) or not h.edges

    def test_isomorphism_preserved_by_encoding(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 5)
            edges = frozenset(
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 4)))
            h = Hypergraph(n, edges)
            g = rand_perm(rng, n)
            fam = hypergraph_to_family(h)
            fam_g = hypergraph_to_family(h.apply(g))
            assert fam.apply(g).key() == fam_g.key()


class TestFamilyAction:
    def test_action_is_homomorphic(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 7)
            fam = rand_family(rng, n)
            g, h = rand_perm(rng, n), rand_perm(rng, n)
            part = fam.partition
            if not (part.is_invariant_under(g) and part.is_invariant_under(h)):
                continue
            assert fam.apply(g).apply(h).key() == fam.apply(g * h).key()


def _instance(n, rng):
    """A group, a family on an invariant partition, a group element and a
    union of orbits."""
    g = rand_group(rng, n, order_cap=2000)
    fam = rand_family_on(rng, rand_invariant_partition(rng, g), colors=3)
    h = list(g.elements())[rng.randrange(g.order())]
    orbits = g.orbits()
    window = sorted(p for orb in orbits if rng.random() < 0.5 for p in orb)
    return g, fam, h, window or list(orbits[0])


class TestActionPrimitives:
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_image_agrees_with_the_oracle(self, n, rng):
        _, fam, h, _ = _instance(n, rng)
        part = fam.partition
        members = frozenset((m.class_id, m.letters) for m in fam.members)
        assert fam.apply(h).key() == apply_family(members, part.class_of, h.images)
        assert family_image_key(fam, h) == fam.apply(h).key()

    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_cut_and_image_commute(self, n, rng):
        _, fam, h, window = _instance(n, rng)
        part = fam.partition
        wset = set(window)
        for c, pts in enumerate(part.classes()):
            assert part.cut(c, pts, wset) == tuple(p for p in pts if p in wset)
        assert (fam.restrict(window).apply(h.restrict(window)).key()
                == fam.apply(h).restrict(window).key())

    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_restrict(self, n, rng):
        g, _, h, window = _instance(n, rng)
        sub, hom = g.restrict(window)
        assert hom.gen_images == tuple(x.restrict(window) for x in g.generators)
        assert hom.apply(h) == h.restrict(window)
        moved = [orb for orb in g.orbits() if len(orb) > 1]
        if moved:
            part_of_orbit = moved[0][:-1]
            with pytest.raises(NotInvariant):
                for x in g.generators:
                    x.restrict(part_of_orbit)
            with pytest.raises(NotInvariant):
                g.restrict(part_of_orbit)
