import random

import pytest

from setiso.certificates import (
    Certificate,
    GiantRep,
    LocalCertificateError,
    affected_points,
    find_giant_rep,
    local_certificate_pair,
)
from setiso.perm import GroupHom, PermGroup, Permutation, is_giant
from setiso.pstrings import PPartition, PString, make_family
from setiso.solver import family_image_key
from setiso.structure import PartitionChain

from util import golden_certify_case


def s2_wr_s5():
    """S2 wr S5 on 10 points, blocks {2i, 2i+1}."""
    return PermGroup([
        Permutation.from_cycles(10, [0, 1]),
        Permutation.from_cycles(10, [0, 2], [1, 3]),
        Permutation.from_cycles(10, [0, 2, 4, 6, 8], [1, 3, 5, 7, 9]),
    ], 10)


def pair_partition(n):
    return PPartition.from_classes(n, [[2 * i, 2 * i + 1] for i in range(n // 2)])


def pair_chain(n):
    return PartitionChain.from_partitions(range(n), [
        [frozenset(range(n))],
        [frozenset({2 * i, 2 * i + 1}) for i in range(n // 2)],
        [frozenset({i}) for i in range(n)],
    ])


class TestFindGiantRep:
    def test_wreath_block_action(self):
        rep = find_giant_rep(s2_wr_s5())
        assert rep is not None
        assert rep.k == 5
        assert rep.flavor == "sym"
        assert rep.hom.image().order() == 120

    def test_c6_has_none(self):
        g = PermGroup([Permutation.from_cycles(6, list(range(6)))], 6)
        assert find_giant_rep(g) is None

    def test_s4_below_cutoff(self):
        g = PermGroup([Permutation.from_cycles(4, [0, 1]),
                       Permutation.from_cycles(4, [0, 1, 2, 3])], 4)
        assert find_giant_rep(g) is None

    def test_intransitive_rejected(self):
        g = PermGroup([Permutation.from_cycles(4, [0, 1])], 4)
        with pytest.raises(ValueError):
            find_giant_rep(g)


def _projection_rep(n_first, n_second):
    """S_{n_first} x S_{n_second} with the projection onto the first factor."""
    n = n_first + n_second
    gens = [
        Permutation.from_cycles(n, [0, 1]),
        Permutation.from_cycles(n, list(range(n_first))),
        Permutation.from_cycles(n, [n_first, n_first + 1]),
    ]
    group = PermGroup(gens, n)
    images = [
        Permutation.from_cycles(n_first, [0, 1]),
        Permutation.from_cycles(n_first, list(range(n_first))),
        Permutation.identity(n_first),
    ]
    hom = GroupHom(group, n_first, images)
    return group, GiantRep(hom, "sym", n_first)


class TestAffectedPoints:
    def test_projection_affects_first_factor(self):
        group, rep = _projection_rep(4, 2)
        assert affected_points(group, rep) == [0, 1, 2, 3]

    def test_natural_s5_all_affected(self):
        n = 5
        g = PermGroup([Permutation.from_cycles(5, [0, 1]),
                       Permutation.from_cycles(5, list(range(5)))], 5)
        rep = GiantRep(GroupHom(g, 5, list(g.generators)), "sym", 5)
        assert affected_points(g, rep) == list(range(5))

    def test_non_giant_subgroup_every_point_affected(self):
        group, rep = _projection_rep(4, 2)
        # a subgroup whose image is already not a giant
        delta = PermGroup([Permutation.from_cycles(6, [0, 1])], 6)
        assert affected_points(delta, rep) == list(range(6))

    def test_affected_is_union_of_orbits(self):
        group = s2_wr_s5()
        rep = find_giant_rep(group)
        aff = set(affected_points(group, rep))
        for orb in group.orbits():
            assert set(orb) <= aff or not (set(orb) & aff)

    def test_kernel_orbit_bound(self):
        group = s2_wr_s5()
        rep = find_giant_rep(group)
        aff = affected_points(group, rep)
        assert aff == list(range(10))  # one affected orbit
        kernel = rep.hom.kernel()
        for orb in kernel.orbits():
            assert len(orb) <= len(aff) // rep.k

    def test_unaffected_stabilizer_on_wreath(self):
        # S2 wr S9 plus a free S2 factor: the extra orbit is unaffected and
        # the pointwise stabilizer of it still maps onto the giant
        n = 20
        gens = [
            Permutation.from_cycles(n, [0, 1]),
            Permutation.from_cycles(n, [0, 2], [1, 3]),
            Permutation.from_cycles(n, [2 * i for i in range(9)],
                                    [2 * i + 1 for i in range(9)]),
            Permutation.from_cycles(n, [18, 19]),
        ]
        group = PermGroup(gens, n)
        blocks = [frozenset({2 * i, 2 * i + 1}) for i in range(9)]
        hom = group.block_action(blocks)
        rep = GiantRep(hom, "sym", 9)
        assert is_giant(hom.image(), range(9)) == "sym"
        aff = affected_points(group, rep)
        assert aff == list(range(18))
        unaffected = [18, 19]
        fixer = group.pointwise_stabilizer(unaffected)
        image = PermGroup([rep.apply(g) for g in fixer.generators], 9)
        assert is_giant(image, range(9)) is not None


class TestLocalCertificatePair:
    def setup_symmetric(self):
        group = s2_wr_s5()
        part = pair_partition(10)
        chain = pair_chain(10)
        fam = make_family(part, [PString(c, (0, 0)) for c in range(5)])
        return group, part, chain, fam

    def test_fully_symmetric_full_certificate(self):
        group, part, chain, fam = self.setup_symmetric()
        rep = find_giant_rep(group)
        res = local_certificate_pair(fam, fam, group, rep, [0, 1, 2, 3, 4],
                                     [0, 1, 2, 3, 4], part, chain, d=5)
        assert res.cert_x.kind == "full"
        delta = res.cert_x.group
        key = fam.key()
        for g in delta.generators:
            assert family_image_key(fam, g) == key
        image = PermGroup([rep.apply(g) for g in delta.generators], 5)
        assert is_giant(image, range(5)) is not None

    def test_rigid_family_nonfull(self):
        group = s2_wr_s5()
        part = pair_partition(10)
        chain = pair_chain(10)
        fam = make_family(part, [PString(c, (2 * c, 2 * c + 1)) for c in range(5)])
        # brute-force: only the identity preserves this family
        auts = [g for g in group.elements() if family_image_key(fam, g) == fam.key()]
        assert len(auts) == 1
        rep = find_giant_rep(group)
        res = local_certificate_pair(fam, fam, group, rep, [0, 1, 2, 3, 4],
                                     [0, 1, 2, 3, 4], part, chain, d=5)
        assert res.cert_x.kind == "nonfull"
        assert res.cert_x.group.order() == 1

    def test_full_certificate_soundness_random(self):
        rng = random.Random(2718)
        group = s2_wr_s5()
        part = pair_partition(10)
        chain = pair_chain(10)
        rep = find_giant_rep(group)
        for _ in range(6):
            members = set()
            for c in range(5):
                for _ in range(rng.randint(1, 2)):
                    members.add((c, (rng.randint(0, 1), rng.randint(0, 1))))
            fam = make_family(part, [PString(c, l) for c, l in sorted(members)])
            res = local_certificate_pair(fam, fam, group, rep, [0, 1, 2, 3, 4],
                                         [0, 1, 2, 3, 4], part, chain, d=5)
            auts = {g.images for g in group.elements()
                    if family_image_key(fam, g) == fam.key()}
            if res.cert_x.kind == "full":
                for g in res.cert_x.group.elements():
                    assert g.images in auts
            else:
                # every automorphism projects into the certified coset
                proj = set()
                t = [0, 1, 2, 3, 4]
                for g_imgs in auts:
                    g = Permutation(g_imgs)
                    img = rep.apply(g)
                    proj.add(tuple(img.images[p] for p in t))
                allowed = set()
                for h in res.cert_x.group.elements():
                    allowed.add(tuple(res.cert_x.mapping[h.images[i]]
                                      for i in range(5)))
                assert proj <= allowed

    def test_nonfull_comparison_contains_projections(self):
        rng = random.Random(16180)
        group = s2_wr_s5()
        part = pair_partition(10)
        chain = pair_chain(10)
        rep = find_giant_rep(group)
        t1, t2 = [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]
        for trial in range(5):
            members = set()
            for c in range(5):
                members.add((c, (rng.randint(0, 2), rng.randint(0, 2))))
            fx = make_family(part, [PString(c, l) for c, l in sorted(members)])
            s = None
            for cand in group.elements():
                s = cand
                if rng.random() < 0.3:
                    break
            fy = fx.apply(s) if trial % 2 == 0 else make_family(
                part, [PString(c, ((rng.randint(0, 2)), rng.randint(0, 2)))
                       for c in range(5)])
            res = local_certificate_pair(fx, fy, group, rep, t1, t2,
                                         part, chain, d=5)
            want = set()
            fy_key = fy.key()
            for g in group.elements():
                if family_image_key(fx, g) != fy_key:
                    continue
                img = rep.apply(g)
                if img.apply_set(t1) != frozenset(t2):
                    continue
                want.add(tuple(img.images[p] for p in sorted(t1)))
            if res.compare_empty:
                assert not want
                continue
            allowed = set()
            for h in res.compare_group.elements():
                allowed.add(tuple(res.compare_map[h.images[i]] for i in range(5)))
            assert want <= allowed

    def test_locally_identical_nonisomorphic(self):
        # same window behavior, globally different occupancy
        group = s2_wr_s5()
        part = pair_partition(10)
        chain = pair_chain(10)
        rep = find_giant_rep(group)
        fx = make_family(part, [PString(c, (0, 1)) for c in range(5)])
        members = [PString(c, (0, 1)) for c in range(5)] + [PString(0, (1, 0))]
        fy = make_family(part, members)
        res = local_certificate_pair(fx, fy, group, rep, [0, 1, 2, 3, 4],
                                     [0, 1, 2, 3, 4], part, chain, d=5)
        brute = [g for g in group.elements()
                 if family_image_key(fx, g) == fy.key()]
        assert not brute
        # empty set is contained in any certified coset; nothing to assert
        # beyond the call having produced a well-formed result
        assert res.cert_x.kind in ("full", "nonfull")

    def test_full_certificate_with_proper_window(self):
        # wreath times a free swap: the extra orbit stays unaffected, so the
        # window grows to a proper subset and the certified group must fix
        # the unaffected points
        n = 12
        gens = [
            Permutation.from_cycles(n, [0, 1]),
            Permutation.from_cycles(n, [0, 2], [1, 3]),
            Permutation.from_cycles(n, [0, 2, 4, 6, 8], [1, 3, 5, 7, 9]),
            Permutation.from_cycles(n, [10, 11]),
        ]
        group = PermGroup(gens, n)
        blocks = [frozenset({2 * i, 2 * i + 1}) for i in range(5)]
        rep = GiantRep(group.block_action(blocks), "sym", 5)
        assert affected_points(group, rep) == list(range(10))
        part = PPartition.from_classes(
            n, [[2 * i, 2 * i + 1] for i in range(5)] + [[10, 11]])
        chain = PartitionChain.from_partitions(range(n), [
            [frozenset(range(n))],
            [frozenset(range(10)), frozenset({10, 11})],
            [frozenset(b) for b in blocks] + [frozenset({10, 11})],
            [frozenset({i}) for i in range(n)],
        ])
        fam = make_family(part, [PString(c, (0, 0)) for c in range(5)]
                          + [PString(5, (7, 7))])
        res = local_certificate_pair(fam, fam, group, rep, [0, 1, 2, 3, 4],
                                     [0, 1, 2, 3, 4], part, chain, d=5)
        assert res.cert_x.kind == "full"
        assert res.cert_x.group.order() == 3840
        key = fam.key()
        for g in res.cert_x.group.generators:
            assert family_image_key(fam, g) == key
            assert g.images[10] == 10 and g.images[11] == 11
        image = PermGroup([rep.apply(g) for g in res.cert_x.group.generators], 5)
        assert is_giant(image, range(5)) is not None

    def test_small_k_rejected(self):
        g = PermGroup([Permutation.from_cycles(4, [0, 1]),
                       Permutation.from_cycles(4, [0, 1, 2, 3])], 4)
        hom = GroupHom(g, 4, list(g.generators))
        rep = GiantRep(hom, "sym", 4)
        part = PPartition.trivial(4)
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))], [frozenset({i}) for i in range(4)]])
        fam = make_family(part, [PString(0, (0, 0, 0, 0))])
        with pytest.raises(ValueError):
            local_certificate_pair(fam, fam, g, rep, [0, 1], [2, 3],
                                   part, chain, d=4)

    def test_empty_test_sets_rejected(self):
        fx, fy, group, rep, _, _, part, chain = golden_certify_case()
        with pytest.raises(ValueError, match="at least one point"):
            local_certificate_pair(fx, fy, group, rep, [], [], part, chain, d=5)

    def test_test_set_stabilizer_built_once_per_test_set(self, monkeypatch):
        # the first side and the comparison run share the stabilizer of T1,
        # so equal test sets need one setwise stabilizer per side, not three
        calls = []
        setwise = PermGroup.setwise_stabilizer

        def counting(self, points, *args, **kwargs):
            calls.append(tuple(points))
            return setwise(self, points, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "setwise_stabilizer", counting)
        res = local_certificate_pair(*golden_certify_case(), d=5)
        assert calls == [(0, 1, 2, 3, 4)] * 2
        assert not res.compare_empty
        assert res.compare_group.order() == 6
