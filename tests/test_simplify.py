import random

import pytest

from setiso.normalize import normalize_families
from setiso.perm import PermGroup, Permutation
from setiso.pstrings import PPartition, PString, VirtualSizeConfig, make_family
from setiso.simplify import simplify_on_window
from setiso.solver import family_image_key
from setiso.structure import PartitionChain

from util import rand_group


def trivial_chain_for(partition):
    """{Omega} > classes > singletons (skipping degenerate repeats)."""
    n = partition.n
    parts = [[frozenset(range(n))],
             [frozenset(c) for c in partition.classes()],
             [frozenset({p}) for p in range(n)]]
    return PartitionChain.from_partitions(range(n), parts)


def figure_instance():
    """The worked 2-class, 4-strings-per-class splitting example."""
    a, b = 0, 1
    p1 = [
        [a, b, a, a, a, b, b, a, b],
        [a, a, a, b, a, b, a, a, a],
        [a, a, a, b, a, a, a, b, a],
        [a, b, a, a, a, b, a, b, a],
    ]
    p2 = [
        [a, a, b, b, b, b, b, a, a],
        [a, b, a, a, a, a, a, b, b],
        [a, b, a, a, a, b, a, a, b],
        [a, b, a, a, b, a, a, b, b],
    ]
    part = PPartition.from_classes(18, [list(range(9)), list(range(9, 18))])
    members = [PString(0, tuple(r)) for r in p1] + [PString(1, tuple(r)) for r in p2]
    fam = make_family(part, members)
    window = list(range(4)) + [9, 10, 11]
    group = PermGroup([], 18)
    return group, part, fam, window


class TestFigureExample:
    def test_split_counts_and_window_simplicity(self):
        group, part, fam, window = figure_instance()
        chain = trivial_chain_for(part)
        out = simplify_on_window([fam], group, part, window, chain, d=2)
        assert len(out) == 1
        cls = out[0]
        new_fam = cls.families[0]
        assert new_fam.partition.num_classes == 4
        assert sorted(new_fam.occupancy_profile()) == [1, 2, 2, 3]
        restricted = new_fam.restrict(cls.window)
        assert restricted.is_simple()


def build_simplify_instance(rng, n_max=12, group_cap=2000):
    """A random instance satisfying the simplify preconditions."""
    n = rng.randint(3, n_max)
    base = rand_group(rng, n, order_cap=group_cap)
    part0_choice = rng.random()
    if part0_choice < 0.4:
        part0 = PPartition.trivial(n)
    else:
        part0 = PPartition.from_classes(n, [set(o) for o in base.orbits()])
    norm = normalize_families(base, part0, [])
    group, part, chain = norm.group, norm.partition, norm.chain
    d = norm.certified_d
    m = group.degree

    orbits = group.orbits()
    k = rng.randint(1, len(orbits))
    window = sorted(p for orb in rng.sample(orbits, k) for p in orb)
    wset = set(window)

    # per class-orbit color sets; constant letters on the window keep the
    # group action on each window restriction trivial to verify
    classes = part.classes()
    class_orbit = {}
    for c, pts in enumerate(classes):
        rep = min(min(o) for o in orbits if pts[0] in o)
        class_orbit[c] = rep
    orbit_colors = {}
    for c in range(len(classes)):
        key = class_orbit[c]
        if key not in orbit_colors:
            orbit_colors[key] = list(range(rng.randint(1, 2)))
    families = []
    for _ in range(rng.randint(1, 3)):
        members = set()
        for c, pts in enumerate(classes):
            serial = 0
            for color in orbit_colors[class_orbit[c]]:
                for _ in range(rng.randint(1, 2)):
                    # distinct off-window restrictions per class: the measure
                    # accounting of the split step presumes no collapse there
                    letters = []
                    for k, p in enumerate(pts):
                        if p in wset:
                            letters.append(color)
                        elif k == next((i for i, q in enumerate(pts)
                                        if q not in wset), None):
                            letters.append(10 + serial)
                        else:
                            letters.append(rng.randint(0, 1))
                    serial += 1
                    members.add((c, tuple(letters)))
        families.append(make_family(part, [PString(c, l) for c, l in sorted(members)]))
    return group, part, families, window, chain, d


class TestSimplifyProperties:
    def test_window_simplicity_and_virtual_size(self):
        rng = random.Random(6060)
        cfg_checked = 0
        for _ in range(40):
            group, part, families, window, chain, d = build_simplify_instance(rng)
            vcfg = VirtualSizeConfig(d)
            out = simplify_on_window(families, group, part, window, chain, d)
            seen = set()
            for cls in out:
                seen.update(cls.indices)
                for k, idx in enumerate(cls.indices):
                    new_fam = cls.families[k]
                    if cls.window:
                        assert new_fam.restrict(cls.window).is_simple()   # (E)
                    assert (new_fam.virtual_size(vcfg)
                            <= families[idx].virtual_size(vcfg))          # (F)
                    off_old = sorted(set(range(part.n)) - set(window))
                    off_new = sorted(set(range(new_fam.partition.n)) - set(cls.window))
                    if off_old and off_new:                                # (G)
                        assert (new_fam.restrict(off_new).virtual_size(vcfg)
                                <= families[idx].restrict(off_old).virtual_size(vcfg))
                    cfg_checked += 1
            assert seen == set(range(len(families)))
        assert cfg_checked > 0

    def test_property_d_by_enumeration(self):
        rng = random.Random(6161)
        checked = 0
        for _ in range(30):
            group, part, families, window, chain, d = build_simplify_instance(
                rng, n_max=6, group_cap=240)
            if group.order() > 240 or len(families) < 2:
                continue
            out = simplify_on_window(families, group, part, window, chain, d)
            for cls in out:
                for ka, ia in enumerate(cls.indices):
                    for kb, ib in enumerate(cls.indices):
                        lhs = {
                            e.images for e in group.elements()
                            if family_image_key(families[ia], e) == families[ib].key()
                        }
                        star = cls.norm.group
                        fa, fb = cls.families[ka], cls.families[kb]
                        rhs = set()
                        la_inv = cls.shifts[ka].inverse()
                        lb = cls.shifts[kb]
                        for e in star.elements():
                            if family_image_key(fa, e) == fb.key():
                                rhs.add((la_inv * cls.phi.apply(e) * lb).images)
                        assert lhs == rhs
                        checked += 1
        assert checked >= 10

    def test_non_isomorphic_occupancy_split(self):
        # two families with incompatible occupancy strings end up in
        # distinct classes
        group = PermGroup([], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        chain = trivial_chain_for(part)
        window = [0, 2]
        fx = make_family(part, [
            PString(0, (0, 0)), PString(0, (0, 1)), PString(1, (1, 0)),
        ])
        fy = make_family(part, [
            PString(0, (0, 0)), PString(1, (1, 0)), PString(1, (1, 1)),
        ])
        out = simplify_on_window([fx, fy], group, part, window, chain, d=2)
        assert len(out) == 2

    def test_already_simple_identity(self):
        group = PermGroup([Permutation([1, 0, 2, 3])], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        chain = trivial_chain_for(part)
        fam = make_family(part, [PString(0, (3, 3)), PString(1, (0, 1))])
        out = simplify_on_window([fam], group, part, [0, 1], chain, d=2)
        assert len(out) == 1
        assert out[0].norm.domain_size == 4
        assert out[0].families[0].key() == fam.key()

    def test_precondition_violation_rejected(self):
        group = PermGroup([], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        chain = trivial_chain_for(part)
        fx = make_family(part, [PString(0, (0, 1)), PString(1, (0, 0))])
        fy = make_family(part, [PString(0, (1, 0)), PString(1, (0, 0))])
        with pytest.raises(ValueError):
            simplify_on_window([fx, fy], group, part, [0, 1], chain, d=2)

    def test_window_automorphism_extension(self):
        # with a simple, respected window, fixing everything outside the
        # window already yields automorphisms of the whole family
        rng = random.Random(7007)
        checked = 0
        for _ in range(40):
            group, part, families, window, chain, d = build_simplify_instance(
                rng, n_max=8, group_cap=2000)
            fam = families[0]
            if not fam.restrict(window).is_simple():
                continue
            outside = sorted(set(range(part.n)) - set(window))
            fixer = group.pointwise_stabilizer(outside) if outside else group
            for g in fixer.generators:
                assert family_image_key(fam, g) == fam.key()
                checked += 1
        assert checked >= 0

    def test_off_window_collapse_boundary(self):
        # two strings identical off the window but split by their window
        # parts: the off-window measure of the split instance exceeds the
        # collapsed original one.  The non-increase bound applies when
        # off-window restrictions are distinct within each class; this pins
        # the boundary so the behavior is explicit.
        group = PermGroup([], 2)
        part = PPartition.trivial(2)
        chain = trivial_chain_for(part)
        fam = make_family(part, [PString(0, (0, 9)), PString(0, (1, 9))])
        out = simplify_on_window([fam], group, part, [0], chain, d=2)
        cls = out[0]
        vcfg = VirtualSizeConfig(2)
        new_fam = cls.families[0]
        assert new_fam.virtual_size(vcfg) <= fam.virtual_size(vcfg)
        off_new = sorted(set(range(new_fam.partition.n)) - set(cls.window))
        assert new_fam.restrict(off_new).virtual_size(vcfg) == 2
        assert fam.restrict([1]).virtual_size(vcfg) == 1
