import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from setiso.perm import (
    CosetUnion,
    DegreeMismatch,
    GroupHom,
    IsoCoset,
    NotInvariant,
    PermGroup,
    Permutation,
    induced_action,
    is_giant,
    transversal_cosets,
)

from setiso import oracle
from setiso.solver import Budget, BudgetExceeded

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


def _naive_product(a, b):
    """The table of "apply a, then b", point by point."""
    return tuple(b[a[i]] for i in range(len(a)))


def _naive_inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


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

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degrees_below_three_compose_as_tables(self, n):
        # the degrees where composing by itemgetter would give a scalar or fail
        perms = [Permutation(t) for t in itertools.permutations(range(n))]
        for p in perms:
            assert p.inverse().images == _naive_inverse(p.images)
            assert p.is_identity() == (p.images == tuple(range(n)))
            assert (p ** 3).images == _naive_product(p.images, (p * p).images)
            for q in perms:
                assert (p * q).images == _naive_product(p.images, q.images)
        assert Permutation.identity(n).images == tuple(range(n))
        assert Permutation.identity(n).is_identity()
        group = PermGroup(perms, n)
        assert group.order() == len(perms)
        assert all(group.contains(p) for p in perms)
        assert sorted(g.images for g in group.elements()) == sorted(p.images for p in perms)

    @given(st.integers(0, 300).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=3, max_size=3)))
    @settings(max_examples=40, deadline=None)
    def test_products_inverses_and_membership_are_the_naive_tables(self, tables):
        a, b, c = (tuple(t) for t in tables)
        n = len(a)
        p, q = Permutation(a), Permutation(b)
        ab = _naive_product(a, b)
        assert (p * q).images == ab
        assert (p * q).inverse().images == _naive_inverse(ab)
        assert p.is_identity() == (a == tuple(range(n)))
        assert (p * p.inverse()).is_identity()
        # Sym on the first (up to) 4 points of c: members fix every other point
        pts = c[:4]
        gens = ([Permutation.from_cycles(n, pts[:2]), Permutation.from_cycles(n, pts)]
                if len(pts) > 1 else [])
        group = PermGroup(gens, n)
        member = list(range(n))
        for i, j in zip(pts, sorted(pts, key=b.__getitem__)):
            member[i] = j
        outside = list(member)
        if n >= 6:
            outside[c[4]], outside[c[5]] = c[5], c[4]
        for t in (a, ab, tuple(member), tuple(outside)):
            naive = all(t[i] == i for i in range(n) if i not in pts)
            assert group.contains(Permutation(t)) == naive


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

    def test_points_outside_the_domain_are_rejected(self):
        # orbit(-1) used to return [-1, 2, 3], orbit_transversal(-1) the
        # identity as the mover of -1 onto 3; the others raised IndexError
        g = PermGroup([Permutation.from_cycles(4, [2, 3])], 4)
        for call in (lambda: g.orbit(-1), lambda: g.orbit(7),
                     lambda: g.orbit_transversal(-1), lambda: g.orbit_transversal(9),
                     lambda: Permutation.from_cycles(3, [0, 5]),
                     lambda: Permutation.from_cycles(3, [-1, 0])):
            with pytest.raises(ValueError, match="points must lie in 0.."):
                call()
        assert g.orbit(3) == [2, 3]
        assert set(g.orbit_transversal(2)) == {2, 3}

    def test_orbit_transversal_checks_the_action_domain(self):
        # over an induced action the domain is the blocks
        g = PermGroup([Permutation([1, 2, 3, 0])], 4)
        blocks = [frozenset({0, 2}), frozenset({1, 3})]
        acts = g.block_action(blocks).gen_images
        assert set(g.orbit_transversal(1, acts)) == {0, 1}
        with pytest.raises(ValueError):
            g.orbit_transversal(2, acts)

    def test_orbit_transversal_needs_one_action_per_generator(self):
        # zip used to stop at the shorter list: S3 with one action gave {0: identity}
        g = sym(3)
        for acts in ([Permutation([1, 0, 2])], list(g.generators) * 2):
            with pytest.raises(ValueError, match="one action per generator"):
                g.orbit_transversal(0, acts)
        assert set(g.orbit_transversal(0, list(g.generators))) == {0, 1, 2}

    def test_is_transitive_on_rejects_outside_points(self):
        # [0, 1, 2, 7] used to give False while [7] raised
        g = sym(3)
        for points in ([0, 1, 2, 7], [7], [-1, 0]):
            with pytest.raises(ValueError, match="points must lie in 0.."):
                g.is_transitive_on(points)
        assert g.is_transitive_on([2, 0, 1]) and g.is_transitive_on([])
        assert not PermGroup([Permutation.from_cycles(3, [0, 1])], 3).is_transitive_on([0, 1, 2])

    def test_minimal_block_system_needs_one_orbit(self):
        # [0, 1] and [0, 2, 3] used to come back as primitive singletons,
        # and a point past the degree raised IndexError
        g = PermGroup([Permutation.from_cycles(4, [2, 3])], 4)
        for domain in ([0, 1], [0, 2, 3], [2, 3, 9], [], [5]):
            with pytest.raises(ValueError):
                g.minimal_block_system(domain)
        assert g.minimal_block_system([3, 2]) == ([frozenset({2}), frozenset({3})], True)
        assert g.minimal_block_system([1]) == ([frozenset({1})], True)

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

    def test_setwise_stabilizer_of_an_invariant_set_is_the_group(self):
        # no search: the parent walked 1,236 prefixes of Sym(6) here
        g = sym(6)
        assert g.setwise_stabilizer(range(6), Budget(0).tick) is g
        two_orbits = PermGroup([Permutation.from_cycles(5, [0, 1, 2], [3, 4])], 5)
        assert two_orbits.setwise_stabilizer([3, 4], Budget(0).tick) is two_orbits

    def test_setwise_stabilizer_of_a_proper_subset_still_searches(self):
        # 84 ticks before the search skipped the prefixes its answer covers
        budget = Budget()
        assert sym(6).setwise_stabilizer([0, 1], budget.tick).order() == 48
        assert budget.used == 16

    def test_setwise_stabilizer_skips_covered_prefixes(self):
        # 1,024 ticks before the search skipped the prefixes its answer covers
        budget = Budget()
        assert sym(8).setwise_stabilizer([0, 1, 2, 3], budget.tick).order() == 24 * 24
        assert budget.used == 31

    @given(st.integers(1, 7), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_setwise_stabilizer_is_the_brute_force_stabilizer(self, n, full, rng):
        # on every subset T: the order is the number of elements mapping T
        # onto T, and every generator is such an element, so the answer is
        # Stab(T) itself
        g = sym(n) if full else rand_group(rng, n, order_cap=5040)
        elems = oracle.enumerate_group(g.generators, n)
        members = set(elems)
        for mask in range(1 << n):
            target = frozenset(p for p in range(n) if mask >> p & 1)
            count = sum(1 for e in elems if all(e[p] in target for p in target))
            stab = g.setwise_stabilizer(target)
            assert stab.order() == count, (g.generators, target)
            for h in stab.generators:
                assert h.images in members and h.apply_set(target) == target

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

    def test_base_prefix_rejects_a_repeated_point(self):
        # used to keep the repeat: the base came out as (0, 0, 1)
        for prefix in ([0, 0], [2, 1, 2]):
            with pytest.raises(ValueError, match="base prefix repeats a point"):
                PermGroup(sym(3).generators, 3, base_prefix=prefix)
        assert PermGroup(sym(3).generators, 3, base_prefix=[2, 0]).base == (2, 0)

    def test_setwise_stabilizer_search_cap(self):
        # the search has no cap of its own; it ticks the caller's budget
        with pytest.raises(BudgetExceeded):
            sym(8).setwise_stabilizer([0, 1, 2, 3], Budget(30).tick)
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

    def test_block_action_rejects_a_non_invariant_block_list(self):
        g = PermGroup([Permutation.from_cycles(4, [0, 1, 2, 3])], 4)
        with pytest.raises(NotInvariant):
            g.block_action([frozenset({0, 1}), frozenset({2, 3})])
        assert g.block_action([frozenset({0, 2}), frozenset({1, 3})]).image().order() == 2

    def test_identity_hom(self):
        g = sym(3)
        hom = GroupHom(g, 3, list(g.generators))
        kernel, preimage = hom.kernel(), hom.preimage
        assert kernel.order() == 1
        p = Permutation([2, 0, 1])
        assert preimage(p) == p

    def test_constructor_rejects_images_that_are_no_homomorphism(self):
        # (0 1) -> identity and (0 1 2) -> (0 1): the relation (0 1 2)^3 = 1 fails
        with pytest.raises(ValueError, match="do not define a homomorphism"):
            GroupHom(sym(3), 2, [Permutation.identity(2), Permutation.from_cycles(2, [0, 1])])

    def test_apply_and_preimage_check_degrees(self):
        # S2 wr S4 on the four pairs {2i, 2i + 1}
        s = PermGroup([Permutation.from_cycles(8, [0, 1]), Permutation.from_cycles(8, [0, 2], [1, 3]),
                       Permutation.from_cycles(8, [0, 2, 4, 6], [1, 3, 5, 7])], 8)
        hom = s.block_action([frozenset({2 * i, 2 * i + 1}) for i in range(4)])
        for degree in (3, 6):
            with pytest.raises(DegreeMismatch):
                hom.preimage(Permutation.identity(degree))
        for degree in (3, 6, 12):
            with pytest.raises(DegreeMismatch):
                hom.apply(Permutation.identity(degree))
        assert hom.apply(Permutation.identity(8)).is_identity()

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

    @staticmethod
    def _random_hom(kind, n, rng):
        """A hom of one kind; the source has degree n except for C4."""
        if kind == "c4":
            # the squaring map of C4
            return GroupHom(PermGroup([Permutation([1, 2, 3, 0])], 4), 4, [Permutation([2, 3, 0, 1])])
        g = rand_group(rng, n)
        if kind == "identity":
            return GroupHom(g, n, list(g.generators))
        orbits = g.orbits()
        if kind == "restrict":
            return g.restrict(rng.choice(orbits))[1]
        # a coarsest block system on one orbit, the other points as singletons
        orb = rng.choice(orbits)
        blocks = [frozenset(orb)] if len(orb) == 1 else g.minimal_block_system(orb)[0]
        return g.block_action(blocks + [frozenset({p}) for p in range(n) if p not in orb])

    @given(st.sampled_from(["block", "restrict", "identity", "c4"]), st.integers(1, 7),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_apply_preimage_and_kernel_agree(self, kind, degree, rng):
        hom = self._random_hom(kind, degree, rng)
        source, n, k = hom.source, hom.source.degree, hom.target_degree
        image, kernel = hom.image(), hom.kernel()
        for _ in range(5):
            # a random generator word, evaluated in the source and over the images
            g, h = Permutation.identity(n), Permutation.identity(k)
            for _ in range(rng.randint(0, 6) if source.generators else 0):
                i = rng.randrange(len(source.generators))
                g, h = g * source.generators[i], h * hom.gen_images[i]
            assert hom.apply(g) == h
            assert kernel.contains(hom.preimage(h) * g.inverse())
            outside = rand_perm(rng, k)
            pre = hom.preimage(outside)
            assert (pre is None) == (not image.contains(outside))
            if pre is not None:
                assert hom.apply(pre) == outside
            p = rand_perm(rng, n)
            if not source.contains(p):
                with pytest.raises(ValueError):
                    hom.apply(p)


class TestInducedAction:
    def test_maps_names_to_their_images(self):
        g = Permutation.from_cycles(4, [0, 1, 2, 3])
        diagonals = [frozenset({0, 2}), frozenset({1, 3})]
        acts = induced_action(diagonals, lambda blk, m: m.apply_set(blk), [g, g * g])
        assert acts == [Permutation([1, 0]), Permutation([0, 1])]

    def test_maps_through_targets(self):
        g = Permutation.from_cycles(3, [0, 1, 2])
        names = [(0, "x"), (1, "y"), (2, "z")]
        targets = [(1, "x"), (0, "z"), (2, "y")]
        [h] = induced_action(names, lambda nm, m: (m.images[nm[0]], nm[1]), [g], targets=targets)
        # (0,x) -> (1,x) at 0, (1,y) -> (2,y) at 2, (2,z) -> (0,z) at 1
        assert h == Permutation([0, 2, 1])

    def test_raises_when_an_image_is_not_listed(self):
        g = Permutation.from_cycles(4, [0, 1, 2, 3])
        with pytest.raises(NotInvariant):
            induced_action([frozenset({0, 1}), frozenset({2, 3})],
                           lambda blk, m: m.apply_set(blk), [g])
        with pytest.raises(NotInvariant):
            induced_action([0, 1], lambda p, m: m.images[p], [g], targets=[0, 1])

    def test_an_error_inside_the_action_propagates(self):
        with pytest.raises(KeyError):
            induced_action(["a"], lambda name, m: m[name], [{}])


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

    def test_permutation_restrict_rejects_outside_points(self):
        p = Permutation.from_cycles(4, [0, 1])
        for pts in ([-1, 3], [0, 1, 4]):
            with pytest.raises(ValueError, match="points must lie in 0..3"):
                p.restrict(pts)

    def test_group_restrict_rejects_outside_points(self):
        for g in (sym(4), PermGroup([], 4)):
            for pts in ([0, 1, 7], [-1]):
                with pytest.raises(ValueError, match="points must lie in 0..3"):
                    g.restrict(pts)


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

    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_covers_is_the_brute_force_test(self, n, rng):
        # pieces of one coset H * r merged on a random base: covers(images,
        # d) holds exactly when some element of the union maps base[:d] as
        # images does, whatever base prefix the first piece's group has
        h = rand_group(rng, n, order_cap=120)
        r = rand_perm(rng, n)
        base = rng.sample(range(n), rng.randint(0, n))
        union = CosetUnion(n, base)
        assert not union.covers(tuple(range(n)), 0)
        elems = list(h.elements())
        for _ in range(rng.randint(1, 3)):
            gens = rng.sample(h.generators, rng.randint(0, len(h.generators)))
            sub = PermGroup(gens, n, base if rng.random() < 0.5 else ())
            union.add(IsoCoset(sub, rng.choice(elems) * r))
            members = [e.images for e in union.result().elements()]
            # members, members moved by a transposition, random tables
            probes = [rand_perm(rng, n).images for _ in range(5)]
            for m in rng.sample(members, min(5, len(members))):
                swap = Permutation.from_cycles(n, rng.sample(range(n), min(2, n)))
                probes += [m, (Permutation(m) * swap).images]
            for images in probes:
                for d in range(len(base) + 1):
                    want = any(all(m[b] == images[b] for b in base[:d]) for m in members)
                    assert union.covers(images, d) == want


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
    # points without a test accept every representative
    assert list(transversal_cosets(sub, hom, [0])) == reps
