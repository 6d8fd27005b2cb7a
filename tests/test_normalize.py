import random

import pytest

from setiso.normalize import normalize_families, renormalize_families
from setiso.perm import PermGroup, Permutation
from setiso.pstrings import PPartition, PString, make_family
from setiso.structure import PartitionChain, is_almost_d_ary

from util import rand_group


def rand_invariant_partition(rng, group):
    """A random group-invariant partition: merge some orbits / split by blocks."""
    n = group.degree
    choice = rng.randint(0, 2)
    if choice == 0:
        return PPartition.trivial(n)
    if choice == 1:
        return PPartition.from_classes(n, [set(o) for o in group.orbits()])
    # per-orbit minimal blocks when available
    classes = []
    for orb in group.orbits():
        if len(orb) > 2 and rng.random() < 0.7:
            blocks, primitive = group.minimal_block_system(orb)
            if not primitive:
                classes.extend(set(b) for b in blocks)
                continue
        classes.append(set(orb))
    return PPartition.from_classes(n, classes)


def rand_family_on(rng, partition, max_members=6, colors=2):
    members = set()
    for _ in range(rng.randint(1, max_members)):
        c = rng.randrange(partition.num_classes)
        members.add((c, tuple(rng.randrange(colors) for _ in partition.members(c))))
    return make_family(partition, [PString(c, l) for c, l in sorted(members)])


def brute_iso(group, partition, fx, fy):
    out = []
    for g in group.elements():
        if fx.apply(g).key() == fy.key():
            out.append(g)
    return out


def wreath_c2_c2():
    return PermGroup([
        Permutation.from_cycles(4, [0, 1]),
        Permutation.from_cycles(4, [2, 3]),
        Permutation.from_cycles(4, [0, 2], [1, 3]),
    ], 4)


class TestNormalize:
    def test_trivial_group_identity_translation(self):
        g = PermGroup([], 3)
        part = PPartition.trivial(3)
        fam = rand_family_on(random.Random(1), part)
        res = normalize_families(g, part, [fam])
        assert res.domain_size == 3
        assert sorted(res.point_map) == [0, 1, 2]

    def test_empty_domain_rejected(self):
        part = PPartition(0, ())
        with pytest.raises(ValueError, match="cannot normalize an empty domain"):
            normalize_families(PermGroup([], 0), part, [make_family(part, [])])

    @pytest.mark.parametrize("degree,points", [(4, 3), (3, 4)])
    def test_partition_of_another_degree_rejected(self, degree, points):
        group = PermGroup([Permutation.from_cycles(degree, [0, 1])], degree)
        part = PPartition.trivial(points)
        with pytest.raises(ValueError, match="partition domain does not match the group degree"):
            normalize_families(group, part, [make_family(part, [PString(0, (0,) * points)])])

    def test_tree_construction_keeps_domain_size(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = rand_group(rng, n)
            part = rand_invariant_partition(rng, g)
            fam = rand_family_on(rng, part)
            res = normalize_families(g, part, [fam])
            assert res.domain_size == n
            assert sorted(res.point_map) == list(range(n))

    def test_chain_contains_partition_and_is_certified(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = rand_group(rng, n)
            part = rand_invariant_partition(rng, g)
            fam = rand_family_on(rng, part)
            res = normalize_families(g, part, [fam])
            level = set(res.chain.levels[res.chain_index])
            assert level == {frozenset(pts) for pts in res.partition.classes()}
            ok, _ = is_almost_d_ary(res.chain, res.group, res.certified_d)
            assert ok

    def test_iso_answer_preserved(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(2, 6)
            g = rand_group(rng, n, order_cap=720)
            part = rand_invariant_partition(rng, g)
            fx = rand_family_on(rng, part)
            fy = rand_family_on(rng, part)
            res = normalize_families(g, part, [fx, fy])
            nx, ny = res.families
            for e in g.elements():
                before = fx.apply(e).key() == fy.key()
                after = nx.apply(res.phi.apply(e)).key() == ny.key()
                assert before == after

    def test_c4_hypergraph_instance_roundtrip(self):
        g = PermGroup([Permutation([1, 2, 3, 0])], 4)
        part = PPartition.trivial(4)
        fx = make_family(part, [PString(0, (1, 1, 0, 0)), PString(0, (0, 1, 1, 0))])
        s = Permutation([1, 2, 3, 0])
        fy = fx.apply(s)
        res = normalize_families(g, part, [fx, fy])
        nx, ny = res.families
        before = {e.images for e in brute_iso(g, part, fx, fy)}
        after = {e.images for e in g.elements()
                 if nx.apply(res.phi.apply(e)).key() == ny.key()}
        assert before == after
        assert s.images in before


class TestRenormalize:
    def chain_for(self, group, levels):
        return PartitionChain.from_partitions(range(group.degree), levels)

    def test_good_level_passthrough(self):
        g = wreath_c2_c2()
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        chain = self.chain_for(g, [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        fam = make_family(part, [PString(0, (0, 1))])
        res = renormalize_families(g, part, [fam], chain, 1, 2)
        assert res.domain_size == 4
        ok, _ = is_almost_d_ary(res.chain, res.group, 2)
        assert ok

    def test_artificially_coarse_level_repaired(self):
        # C2 wr C2 with the singleton partition and the one-step chain:
        # level 1 has fan-out 4 and a non-semi-regular action (bad for d=2)
        g = wreath_c2_c2()
        part = PPartition.discrete(4)
        chain = self.chain_for(g, [
            [frozenset(range(4))],
            [frozenset({i}) for i in range(4)],
        ])
        ok_before, _ = is_almost_d_ary(chain, g, 2)
        assert not ok_before
        fam = make_family(part, [PString(i, (i % 2,)) for i in range(4)])
        res = renormalize_families(g, part, [fam], chain, 1, 2)
        # properties I-V
        ok, _ = is_almost_d_ary(res.chain, res.group, 2)          # I
        assert ok
        for e in g.elements():                                    # II
            img = res.phi.apply(e)
            for i, p in enumerate(res.point_map):
                assert res.point_map[img.images[i]] == e.images[p]
        for new_c, old_c in enumerate(res.class_map):             # III + V
            new_pts = {res.point_map[p] for p in res.partition.members(new_c)}
            assert new_pts == set(part.members(old_c))
            assert len(res.partition.members(new_c)) == len(part.members(old_c))
        counts = {}                                               # IV
        for old_c in res.class_map:
            counts[old_c] = counts.get(old_c, 0) + 1
        assert all(v == 1 for v in counts.values())

    def test_iso_preserved_and_window_flag_transfers(self):
        rng = random.Random(909)
        g = wreath_c2_c2()
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        chain = self.chain_for(g, [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        for _ in range(10):
            fx = rand_family_on(rng, part)
            fy = rand_family_on(rng, part)
            res = renormalize_families(g, part, [fx, fy], chain, 1, 2)
            nx, ny = res.families
            for e in g.elements():
                assert (fx.apply(e).key() == fy.key()) == \
                    (nx.apply(res.phi.apply(e)).key() == ny.key())

    def test_window_automorphism_transfer(self):
        # intransitive group: the orbit {0,1} is an invariant window
        g = PermGroup([Permutation.from_cycles(4, [0, 1]),
                       Permutation.from_cycles(4, [2, 3])], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        chain = self.chain_for(g, [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        # constant letters on the window make the window automorphic
        fx = make_family(part, [PString(0, (7, 7)), PString(1, (7, 7)), PString(1, (5, 5))])
        window = [0, 1]
        res = renormalize_families(g, part, [fx], chain, 1, 2)
        new_window = res.pull_window(window)
        nx = res.families[0]
        restricted = nx.restrict(new_window)
        for gen in res.group.generators:
            sub = restricted.apply(_restrict_perm(gen, new_window))
            assert sub.key() == restricted.key()

    def test_repair_transported_across_blocks(self):
        # (C2 wr C2) wr C2 on 8 points: the bad level sits inside TWO quad
        # blocks that the group swaps, so the rebuilt middle trees must be
        # transported along the block orbit
        gens = [
            Permutation.from_cycles(8, [0, 1]),
            Permutation.from_cycles(8, [2, 3]),
            Permutation.from_cycles(8, [0, 2], [1, 3]),
            Permutation.from_cycles(8, [4, 5]),
            Permutation.from_cycles(8, [6, 7]),
            Permutation.from_cycles(8, [4, 6], [5, 7]),
            Permutation.from_cycles(8, [0, 4], [1, 5], [2, 6], [3, 7]),
        ]
        g = PermGroup(gens, 8)
        assert g.order() == 128
        part = PPartition.discrete(8)
        chain = self.chain_for(g, [
            [frozenset(range(8))],
            [frozenset(range(4)), frozenset(range(4, 8))],
            [frozenset({i}) for i in range(8)],
        ])
        ok_before, _ = is_almost_d_ary(chain, g, 2)
        assert not ok_before
        fam = make_family(part, [PString(i, (i % 3,)) for i in range(8)])
        res = renormalize_families(g, part, [fam], chain, 2, 2)
        ok, _ = is_almost_d_ary(res.chain, res.group, 2)
        assert ok
        assert res.domain_size == 8
        nx = res.families[0]
        for e in g.elements():
            assert (fam.apply(e).key() == fam.key()) == \
                (nx.apply(res.phi.apply(e)).key() == nx.key())

    def test_bad_hypothesis_rejected(self):
        # two bad levels: renormalize must refuse
        gens = [Permutation.from_cycles(8, [0, 1, 2, 3], [4, 5, 6, 7]),
                Permutation.from_cycles(8, [0, 4], [1, 5], [2, 6], [3, 7]),
                Permutation.from_cycles(8, [0, 1])]
        g = PermGroup(gens, 8)
        part = PPartition.from_classes(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
        chain = PartitionChain.from_partitions(range(8), [
            [frozenset(range(8))],
            [frozenset(range(4)), frozenset(range(4, 8))],
            [frozenset({i}) for i in range(8)],
        ])
        fam = make_family(part, [PString(0, (0, 0, 0, 1))])
        with pytest.raises(ValueError):
            renormalize_families(g, part, [fam], chain, 1, 2)


def _restrict_perm(g, points):
    pts = sorted(points)
    pos = {p: i for i, p in enumerate(pts)}
    return Permutation([pos[g.images[p]] for p in pts])
