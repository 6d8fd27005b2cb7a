import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from setiso.perm import (
    CosetUnion,
    GroupHom,
    IsoCoset,
    NotInvariant,
    PermGroup,
    Permutation,
    SearchCapExceeded,
    is_giant,
    transversal_cosets,
)

from util import closure, rand_group, rand_perm


def sym(n):
    if n == 1:
        return PermGroup([], 1)
    gens = [Permutation.from_cycles(n, [0, 1]), Permutation.from_cycles(n, list(range(n)))]
    return PermGroup(gens, n)


def alt(n):
    gens = []
    for i in range(n - 2):
        gens.append(Permutation.from_cycles(n, [i, i + 1, i + 2]))
    return PermGroup(gens, n)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_compose_applies_left_first(self):
        p = Permutation.from_cycles(3, [0, 1])
        q = Permutation.from_cycles(3, [1, 2])
        assert (p * q)(0) == q(p(0)) == 2

    def test_inverse_and_power(self):
        p = Permutation.from_cycles(5, [0, 1, 2, 3, 4])
        assert (p * p.inverse()).is_identity()
        assert p ** 5 == Permutation.identity(5)
        assert p ** -1 == p.inverse()

    def test_sign(self):
        assert Permutation.from_cycles(4, [0, 1]).sign() == -1
        assert Permutation.from_cycles(4, [0, 1, 2]).sign() == 1

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_group_axioms(self, n, rng):
        p, q = rand_perm(rng, n), rand_perm(rng, n)
        assert (p * q).inverse() == q.inverse() * p.inverse()
        assert all((p * p.inverse())(i) == i for i in range(n))


class TestBuildGroup:
    def test_s3_from_two_generators(self):
        g = PermGroup([Permutation([1, 0, 2]), Permutation([1, 2, 0])], 3)
        assert g.order() == 6

    def test_cyclic_c4_membership(self):
        g = PermGroup([Permutation([1, 2, 3, 0])], 4)
        assert g.order() == 4
        assert g.contains(Permutation([2, 3, 0, 1]))
        assert not g.contains(Permutation([1, 0, 2, 3]))

    def test_trivial_group(self):
        g = PermGroup([], 5)
        assert g.order() == 1
        assert g.contains(Permutation.identity(5))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PermGroup([Permutation([1, 0]), Permutation([0, 1, 2])], 2)

    def test_order_matches_closure_enumeration(self):
        rng = random.Random(12345)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = rand_group(rng, n)
            elems = closure(g.generators, n)
            assert g.order() == len(elems)
            listed = list(g.elements())
            assert len(listed) == len(elems)
            assert {e.images for e in listed} == elems

    def test_contains_agrees_with_closure(self):
        rng = random.Random(999)
        for _ in range(30):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            elems = closure(g.generators, n)
            for _ in range(10):
                p = rand_perm(rng, n)
                assert g.contains(p) == (p.images in elems)

    def test_big_symmetric_orders(self):
        for n in (5, 6, 7, 8):
            assert sym(n).order() == math.factorial(n)
            assert alt(n).order() == math.factorial(n) // 2


class TestOrbitsAndBlocks:
    def test_orbits_from_generator_support(self):
        g = PermGroup([Permutation.from_cycles(5, [0, 1], [2, 3])], 5)
        assert g.orbits() == [(0, 1), (2, 3), (4,)]

    def test_c4_minimal_block_system(self):
        g = PermGroup([Permutation([1, 2, 3, 0])], 4)
        blocks, primitive = g.minimal_block_system(range(4))
        assert not primitive
        assert blocks == [frozenset({0, 2}), frozenset({1, 3})]

    def test_c4_blocks_by_brute_force(self):
        # enumerate all invariant partitions of C4 into equal blocks
        g = PermGroup([Permutation([1, 2, 3, 0])], 4)
        c4 = list(g.elements())

        def is_block(block):
            return all(
                set(p(i) for i in block) == set(block) or not (set(p(i) for i in block) & set(block))
                for p in c4
            )

        nontrivial = [b for b in ({0, 2}, {1, 3}, {0, 1}, {0, 3}) if is_block(b)]
        assert {frozenset(b) for b in nontrivial} == {frozenset({0, 2}), frozenset({1, 3})}

    def test_s4_is_primitive(self):
        blocks, primitive = sym(4).minimal_block_system(range(4))
        assert primitive
        assert blocks == [frozenset({i}) for i in range(4)]

    def test_orbits_and_blocks_surface(self):
        g = PermGroup([Permutation.from_cycles(5, [0, 1], [2, 3])], 5)
        orbits = g.orbits()
        blocks = {orb: g.minimal_block_system(orb) for orb in orbits if len(orb) > 1}
        assert orbits == [(0, 1), (2, 3), (4,)]
        assert set(blocks) == {(0, 1), (2, 3)}

    def test_minimality_by_block_enumeration(self):
        # independent oracle: enumerate every block through the orbit's first
        # point by subset search over the closure, and check no system is
        # strictly coarser than the returned one
        rng = random.Random(777)
        from itertools import combinations

        for _ in range(25):
            n = rng.randint(3, 8)
            g = rand_group(rng, n)
            elements = [Permutation(images) for images in closure(g.generators, n)]
            for orb in g.orbits():
                if len(orb) <= 1:
                    continue
                blocks, primitive = g.minimal_block_system(orb)
                base = min(orb)
                all_blocks = []
                rest = [p for p in orb if p != base]
                for size in range(0, len(orb)):
                    for extra in combinations(rest, size):
                        cand = frozenset((base,) + extra)
                        if all(frozenset(e.images[p] for p in cand) in (cand,)
                               or not (frozenset(e.images[p] for p in cand) & cand)
                               for e in elements):
                            all_blocks.append(cand)
                nontrivial = [b for b in all_blocks if 1 < len(b) < len(orb)]
                returned = next(b for b in blocks if base in b)
                if primitive:
                    assert not nontrivial, (g.generators, orb)
                else:
                    # no genuine block strictly contains the returned one
                    assert returned in all_blocks
                    assert not any(returned < b for b in nontrivial), (orb, returned)


class TestStabilizers:
    def test_point_stabilizer_of_s3(self):
        g = sym(3).pointwise_stabilizer([0])
        assert g.order() == 2

    def test_setwise_stabilizer_of_s4(self):
        g = sym(4).setwise_stabilizer([0, 1])
        brute = [p for p in sym(4).elements() if p.apply_set({0, 1}) == frozenset({0, 1})]
        assert g.order() == len(brute) == 4
        assert all(g.contains(p) for p in brute)

    def test_empty_condition_returns_group(self):
        g = sym(4)
        assert g.pointwise_stabilizer([]) is g
        assert g.setwise_stabilizer([]) is g

    def test_stabilizers_against_brute_force(self):
        rng = random.Random(4242)
        for _ in range(20):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            pts = rng.sample(range(n), rng.randint(1, n))
            elems = list(g.elements())
            pw = [p for p in elems if all(p(x) == x for x in pts)]
            sw = [p for p in elems if p.apply_set(pts) == frozenset(pts)]
            assert g.pointwise_stabilizer(pts).order() == len(pw)
            assert g.setwise_stabilizer(pts).order() == len(sw)

    def test_setwise_stabilizer_rejects_a_negative_point(self):
        # used to loop forever
        with pytest.raises(ValueError):
            sym(4).setwise_stabilizer([-1])

    def test_setwise_stabilizer_rejects_a_point_past_the_degree(self):
        # used to raise IndexError; the chain now checks its base points
        with pytest.raises(ValueError):
            sym(4).setwise_stabilizer([5])
        with pytest.raises(ValueError):
            PermGroup(sym(4).generators, 4, base_prefix=[4])

    def test_setwise_stabilizer_search_cap(self):
        with pytest.raises(SearchCapExceeded):
            sym(8).setwise_stabilizer([0, 1, 2, 3], node_cap=50)
        assert sym(8).setwise_stabilizer([0, 1, 2, 3]).order() == 24 * 24

    def test_pointwise_stabilizer_rejects_outside_points(self):
        for pts in ([4], [-1], [0, 7]):
            with pytest.raises(ValueError):
                sym(4).pointwise_stabilizer(pts)


class TestHomTools:
    def test_c4_square_map(self):
        c4 = PermGroup([Permutation([1, 2, 3, 0])], 4)
        sq = Permutation([2, 3, 0, 1])
        hom = GroupHom(c4, 4, [sq])
        image, kernel = hom.image(), hom.kernel()
        assert image.order() == 2
        assert kernel.order() == 2
        assert hom.apply(Permutation([1, 2, 3, 0])) == sq

    def test_wreath_block_action(self):
        # S2 wr S4 on 8 points, blocks {2i, 2i+1}
        gens = [
            Permutation.from_cycles(8, [0, 1]),
            Permutation.from_cycles(8, [0, 2], [1, 3]),
            Permutation.from_cycles(8, [0, 2, 4, 6], [1, 3, 5, 7]),
        ]
        g = PermGroup(gens, 8)
        blocks = [frozenset({2 * i, 2 * i + 1}) for i in range(4)]
        hom = g.block_action(blocks)
        image, kernel = hom.image(), hom.kernel()
        assert image.order() == 24
        assert kernel.order() == 2 ** 4
        assert image.order() * kernel.order() == g.order()

    def test_identity_hom(self):
        g = sym(3)
        hom = GroupHom(g, 3, list(g.generators))
        kernel, preimage = hom.kernel(), hom.preimage
        assert kernel.order() == 1
        p = Permutation([2, 0, 1])
        assert preimage(p) == p

    def test_preimage_absent(self):
        c4 = PermGroup([Permutation([1, 2, 3, 0])], 4)
        sq = Permutation([2, 3, 0, 1])
        hom = GroupHom(c4, 4, [sq])
        assert hom.preimage(Permutation([1, 2, 3, 0])) is None

    def test_order_product_random(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            blocks = None
            for orb in g.orbits():
                if len(orb) > 1:
                    bl, prim = g.minimal_block_system(orb)
                    if not prim:
                        blocks = bl + [frozenset({p}) for o in g.orbits() for p in o if p not in set().union(*bl)]
                        break
            if blocks is None:
                continue
            hom = g.block_action(sorted(blocks, key=min))
            assert hom.image().order() * hom.kernel().order() == g.order()
            for kgen in hom.kernel().generators:
                assert hom.apply(kgen).is_identity()


class TestIsGiant:
    def test_s4_is_sym(self):
        assert is_giant(sym(4), range(4)) == "sym"

    def test_a4_is_alt(self):
        assert is_giant(alt(4), range(4)) == "alt"

    def test_c4_is_none(self):
        assert is_giant(PermGroup([Permutation([1, 2, 3, 0])], 4), range(4)) is None

    def test_invariant_required(self):
        with pytest.raises(NotInvariant):
            is_giant(sym(4), [0, 1])

    def test_agrees_with_brute_force_small(self):
        rng = random.Random(5150)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = rand_group(rng, n)
            for orb in g.orbits():
                restricted, _ = g.restrict(orb)
                k = len(orb)
                order = restricted.order()
                expected = None
                if order == math.factorial(k) and (k <= 1 or restricted.is_transitive_on(range(k))):
                    expected = "sym"
                elif order == max(1, math.factorial(k) // 2) and (k <= 1 or restricted.is_transitive_on(range(k))):
                    expected = "alt"
                assert is_giant(g, orb) == expected


class TestRestrictAction:
    def test_restriction_of_support(self):
        g = PermGroup([Permutation.from_cycles(5, [0, 1], [2, 3])], 5)
        sub, hom = g.restrict([0, 1])
        assert sub.order() == 2
        assert sub.degree == 2

    def test_full_domain_is_identity_relabeling(self):
        g = sym(4)
        sub, hom = g.restrict(range(4))
        assert sub.order() == g.order()
        p = Permutation([1, 0, 3, 2])
        assert hom.apply(p) == p

    def test_product_restriction_order(self):
        # S3 x C2 on 3 + 2 points
        gens = [
            Permutation.from_cycles(5, [0, 1]),
            Permutation.from_cycles(5, [0, 1, 2]),
            Permutation.from_cycles(5, [3, 4]),
        ]
        g = PermGroup(gens, 5)
        sub, _ = g.restrict([3, 4])
        assert sub.order() == 2


class TestIsoCosetAndUnions:
    def test_coset_membership(self):
        g = PermGroup([Permutation([1, 0, 2])], 3)
        shift = Permutation([2, 0, 1])
        coset = IsoCoset(g, shift)
        elems = list(coset.elements())
        assert len(elems) == 2
        assert all(coset.contains(e) for e in elems)
        assert not coset.contains(Permutation.identity(3))

    def test_coset_membership_of_another_degree(self):
        coset = IsoCoset(sym(3), Permutation([2, 0, 1]))
        assert not coset.contains(Permutation.identity(4))
        assert not coset.contains(Permutation.identity(2))

    def test_normalized_uses_identity_rep(self):
        g = PermGroup([Permutation([1, 0, 2])], 3)
        coset = IsoCoset(g, Permutation([1, 0, 2])).normalized()
        assert coset.rep.is_identity()

    def test_union_reassembles_full_coset(self):
        # union of the cosets of <(01)> in S3 equals all of S3
        s3 = sym(3)
        sub = PermGroup([Permutation([1, 0, 2])], 3)
        union = CosetUnion(3)
        for e in s3.elements():
            union.add(IsoCoset(sub, e))
        total = union.result()
        assert total.order() == 6
        assert total.element_set() == frozenset(e.images for e in s3.elements())


def test_transversal_covers_image():
    g = sym(4)
    blocks, _ = g.minimal_block_system(range(4))
    # S4 is primitive: use orbit partition of a subgroup instead
    sub = PermGroup([Permutation.from_cycles(4, [0, 1, 2, 3])], 4)
    bl, prim = sub.minimal_block_system(range(4))
    hom = sub.block_action(bl)
    reps = list(transversal_cosets(sub, hom))
    assert len(reps) == hom.image().order()
    images = {hom.apply(r).images for r in reps}
    assert len(images) == len(reps)
