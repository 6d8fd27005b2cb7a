"""Property tests for the pruned element enumeration, the solver's
letter-pruned search, the chain-read kernel and the pull-back; the
Schreier-Sims build against its written-out reference, and pinned counts of
its work."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from setiso import perm
from setiso.perm import CosetUnion, GroupHom, IsoCoset, Permutation, PermGroup, _pointwise
from setiso.pstrings import PPartition, PString, make_family
from setiso.solver import GsiInstance, _iso_search, family_image_key, generalized_string_iso
from setiso.strings import ColoredString, StringQuery, string_iso

from util import (closure, rand_family_on, rand_group, rand_invariant_partition, rand_perm,
                  reference_chain)


def _homs(rng, g):
    """A block action and a restriction of ``g``, when it has them."""
    n = g.degree
    orbits = g.orbits()
    blocks = []
    for orb in orbits:
        if rng.random() < 0.3:
            blocks.append(frozenset(orb))
        else:
            blocks.extend(g.minimal_block_system(orb)[0])
    out = [g.block_action(blocks)]
    chosen = [orb for orb in orbits if rng.random() < 0.5] or orbits[:1]
    if sum(len(o) for o in chosen) < n:
        out.append(g.restrict([p for orb in chosen for p in orb])[1])
    return out


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_pointwise_search_is_the_filtered_enumeration(n, rng):
    g = rand_group(rng, n, order_cap=2000)
    pts = rng.sample(range(n), rng.randint(0, n))
    src = [rng.randint(0, 2) for _ in range(n)]
    dst = [rng.randint(0, 2) for _ in range(n)]

    def ok(p, q):
        return src[p] == dst[q]

    expect = [h for h in g.elements() if all(ok(p, h(p)) for p in pts)]
    assert list(g.search(pts, True, _pointwise(ok))) == expect


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_kernel_is_the_brute_force_kernel(n, rng):
    g = rand_group(rng, n, order_cap=2000)
    elems = closure(g.generators, n)
    for hom in _homs(rng, g):
        ident = tuple(range(hom.target_degree))
        brute = {e for e in elems if hom.apply(Permutation(e)).images == ident}
        kernel = hom.kernel()
        assert {h.images for h in kernel.elements()} == brute
        # the same generators a pointwise stabilizer of the target prefix gives
        chain = hom._tgt_first
        prefix = [lvl.point for lvl in chain._levels if lvl.point >= n]
        sub = chain.pointwise_stabilizer(prefix)
        assert kernel.generators == tuple(Permutation(h.images[:n]) for h in sub.generators)


def _image_cosets(rng, image):
    """Cosets in an image group: a point stabilizer times an arbitrary
    permutation (often outside the image) and a string isomorphism answer."""
    k = image.degree
    out = [IsoCoset(image.stabilizer(rng.randrange(k)), rand_perm(rng, k))]
    x = ColoredString(tuple(rng.randrange(2) for _ in range(k)))
    if rng.random() < 0.7:
        y = x.apply(rng.choice(list(image.elements())))
    else:
        y = ColoredString(tuple(rng.randrange(2) for _ in range(k)))
    out.append(string_iso(StringQuery(image, x, y)))
    return out


@given(st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_pull_back_is_the_brute_force_preimage(n, rng):
    g = rand_group(rng, n, order_cap=2000)
    elems = [Permutation(e) for e in closure(g.generators, n)]
    for hom in _homs(rng, g):
        for coset in _image_cosets(rng, hom.image()):
            pulled = hom.pull_back(coset)
            brute = {e for e in elems if coset.contains(hom.apply(e))}
            assert {e for e in elems if pulled.contains(e)} == brute
            assert pulled.order() == len(brute)


def test_pull_back_rejects_a_coset_outside_the_image():
    c3 = PermGroup([Permutation.from_cycles(3, [0, 1, 2])], 3)
    hom = c3.block_action([frozenset({p}) for p in range(3)])
    s3 = PermGroup([Permutation.from_cycles(3, [0, 1]),
                    Permutation.from_cycles(3, [0, 1, 2])], 3)
    assert hom.pull_back(IsoCoset.empty()).is_empty
    with pytest.raises(ValueError):
        hom.pull_back(IsoCoset.full(s3))


def test_orbit_transversal_moves_the_point_onto_each_orbit_point():
    g = PermGroup([Permutation.from_cycles(8, [0, 1]),
                   Permutation.from_cycles(8, [0, 2], [1, 3]),
                   Permutation.from_cycles(8, [0, 4, 2, 6], [1, 5, 3, 7])], 8)
    movers = g.orbit_transversal(1)
    assert sorted(movers) == g.orbit(1)
    assert all(t(1) == q and g.contains(t) for q, t in movers.items())
    # over the induced action on the four pairs
    hom = g.block_action([frozenset({2 * i, 2 * i + 1}) for i in range(4)])
    movers = g.orbit_transversal(0, hom.gen_images)
    assert sorted(movers) == [0, 1, 2, 3]
    assert all(t(0) // 2 == q for q, t in movers.items())


def test_kernel_of_a_trivial_image_keeps_the_source_generators():
    g = PermGroup([Permutation([1, 0, 2]), Permutation([0, 2, 1])], 3)
    hom = g.block_action([frozenset(range(3))])
    assert hom.kernel().generators == g.generators


def test_pointwise_search_prunes_before_the_last_level():
    g = PermGroup([Permutation.from_cycles(6, [0, 1]),
                   Permutation.from_cycles(6, list(range(6)))], 6)
    calls = []

    def ok(p, q):
        calls.append(p)
        return p == q

    found = g.search([0, 1, 2, 3, 4, 5], True, _pointwise(ok))
    assert [h.images for h in found] == [tuple(range(6))]
    # a full scan would test six points on each of 720 elements
    assert len(calls) < 720


def _iso_elements(group, x, y, tick=None):
    """The g in ``group`` with x^g = y, by the solver's letter-pruned search."""
    return group.search(range(group.degree), *_iso_search(x, y, tick))


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_iso_search_is_the_filtered_enumeration(n, rng):
    g = rand_group(rng, n, order_cap=2000)
    part = rand_invariant_partition(rng, g)
    x = rand_family_on(rng, part, colors=rng.randint(1, 3))
    if rng.random() < 0.6:
        y = x.apply(rng.choice(list(g.elements())))
    else:
        y = rand_family_on(rng, part, colors=2)
    y_key = y.key()
    expect = [h for h in g.elements() if family_image_key(x, h) == y_key]
    assert list(_iso_elements(g, x, y)) == expect


def _listed_reference(group, x, y):
    """The listing without covered prefixes: every isomorphism goes into the
    union, and the loop stops once the union is the whole group."""
    order = group.order()
    trivial = PermGroup([], group.degree)
    union = CosetUnion(group.degree)
    for delta in _iso_elements(group, x, y):
        if union.add(IsoCoset(trivial, delta)) and union.order() == order:
            break
    return union.result()


@given(st.integers(1, 9), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_the_pruned_listing_gives_the_reference_answer(n, rng):
    # under Sym(n) (n <= 8) or a wreath product S_k wr S_m with km = n,
    # strings and families on invariant partitions, isomorphic or not
    shapes = [(k, n // k) for k in range(2, n) if n % k == 0]
    if shapes and (n > 8 or rng.random() < 0.5):
        group = PermGroup(_wreath(*rng.choice(shapes)), n)
    else:
        group = PermGroup(_sym(n) if n > 1 else [], n)
    if rng.random() < 0.5:
        part = PPartition.trivial(n)
        x = make_family(part, [PString(0, tuple(rng.randrange(3) for _ in range(n)))])
    else:
        part = rand_invariant_partition(rng, group)
        x = rand_family_on(rng, part, colors=rng.randint(2, 3))
    if rng.random() < 0.7:
        y = x.apply(_random_element(rng, group))
    else:
        y = rand_family_on(rng, part, colors=2)
    want = _listed_reference(group, x, y)
    got = group.search_coset(range(n), *_iso_search(x, y))
    assert got.is_empty == want.is_empty
    if not got.is_empty:
        assert got.rep == want.rep
        assert got.group.generators == want.group.generators
        assert got.order() == want.order()


def _random_element(rng, group):
    """A product of ten random generators."""
    g = Permutation.identity(group.degree)
    for _ in range(10 if group.generators else 0):
        g = g * rng.choice(group.generators)
    return g


def test_iso_search_prunes_a_non_isomorphic_pair():
    # the 6-cycle against two triangles: same size, same degrees
    n = 6
    sym6 = PermGroup([Permutation.from_cycles(n, [0, 1]),
                      Permutation.from_cycles(n, list(range(n)))], n)
    part = PPartition.trivial(n)

    def edges(pairs):
        return make_family(part, [PString(0, tuple(int(v in e) for v in range(n)))
                                  for e in pairs])

    x = edges([(i, (i + 1) % n) for i in range(n)])
    y = edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    accepted = []
    assert list(_iso_elements(sym6, x, y, lambda: accepted.append(1))) == []
    # a full scan would test each of the 720 elements
    assert len(accepted) < 720 // 10


def _chain(group):
    """Level by level: base point, placed generators, transversal."""
    return [(lvl.point, tuple(g.images for g in lvl.gens),
             {beta: t.images for beta, t in lvl.transversal.items()})
            for lvl in group._levels]


def _rand_generators(rng, n):
    """Up to three permutations, each moving a random subset of the points."""
    gens = []
    for _ in range(rng.randint(0, 3)):
        pts = rng.sample(range(n), rng.randint(0, n))
        images = list(range(n))
        for a, b in zip(pts, rng.sample(pts, len(pts))):
            images[a] = b
        gens.append(Permutation(images))
    return gens


@given(st.integers(1, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_chain_is_the_reference_chain(n, rng):
    gens = _rand_generators(rng, n)
    prefix = rng.sample(range(n), rng.randint(0, min(n, 4)))
    expect = reference_chain(gens, n, prefix)
    order = math.prod(len(tree) for _, _, tree in expect)
    lazy = PermGroup(gens, n, base_prefix=prefix)
    assert "_levels" not in vars(lazy)
    assert _chain(lazy) == expect
    assert lazy.order() == order
    stated = PermGroup(gens, n, base_prefix=prefix, _order=order)
    assert stated.order() == order
    assert _chain(stated) == expect


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_stated_orders_give_the_unstated_chains(n, rng):
    """Every group built with a stated order, by each construction that
    states one, has the chain and the order of the same build without it."""
    g = rand_group(rng, n, order_cap=2000)
    stated = []
    init = PermGroup.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._order is not None:
            stated.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PermGroup, "__init__", spy)
        for hom in _homs(rng, g):
            hom.kernel()
            hom.apply(g.generators[0] if g.generators else Permutation.identity(n))
            for coset in _image_cosets(rng, hom.image()):
                hom.pull_back(coset)
        pts = rng.sample(range(n), rng.randint(1, n))
        g.pointwise_stabilizer(pts).contains(Permutation.identity(n))
        g.setwise_stabilizer(pts)
        g.conjugate(rand_perm(rng, n)).contains(Permutation.identity(n))
    assert stated
    for h in stated:
        plain = PermGroup(h.generators, h.degree, base_prefix=h._base_prefix)
        assert _chain(h) == _chain(plain)
        assert h.order() == plain.order()


def _shifted(perms, offset, n):
    """The permutations moved onto the points offset, offset + 1, ... of Sym(n)."""
    return [Permutation(list(range(offset)) + [offset + i for i in p.images]
                        + list(range(offset + p.degree, n))) for p in perms]


def test_solver_homs_give_the_unstated_chains():
    """Every homomorphism a multi-orbit family query builds is an induced
    action whose target-first chain states |source|: it has the chain of
    the same build without the order, and that build's order is |source|,
    which is the check the public constructor makes."""
    rng = random.Random(3)
    # S2 wr S7 x S3 wr S2 on 14 + 6 points, the blocks as classes; the
    # first factor is past the solver's listing bound, so it is balanced
    n = 20
    group = PermGroup(_shifted(_wreath(2, 7), 0, n) + _shifted(_wreath(3, 2), 14, n), n)
    part = PPartition.from_classes(n, [{2 * i, 2 * i + 1} for i in range(7)]
                                   + [{14, 15, 16}, {17, 18, 19}])
    built = []
    init = GroupHom.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        callers = set()
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        built.append((self, callers))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GroupHom, "__init__", spy)
        for _ in range(12):
            x = rand_family_on(rng, part)
            g = Permutation.identity(n)
            for _ in range(12):
                g = g * rng.choice(group.generators)
            y = x.apply(g) if rng.random() < 0.6 else rand_family_on(rng, part)
            generalized_string_iso(GsiInstance(group, part, x, y))
    for name in ("_combine_group", "balance_orbits", "enforce_window"):
        assert any(name in callers for _, callers in built)
    for hom, _ in built:
        assert hom._induced
        chain = hom._tgt_first
        plain = PermGroup(chain.generators, chain.degree, base_prefix=chain._base_prefix)
        assert _chain(chain) == _chain(plain)
        assert plain.order() == hom.source.order()


def test_a_stated_order_above_the_group_order_raises():
    gens = [Permutation.from_cycles(3, [0, 1]), Permutation.from_cycles(3, [0, 1, 2])]
    g = PermGroup(gens, 3, _order=12)
    assert g.order() == 12   # no chain is read
    for _ in range(2):
        with pytest.raises(RuntimeError):
            g.contains(gens[0])


def _wreath(k, m):
    """S_k wr S_m on the blocks {ik, ..., ik + k - 1}."""
    n = k * m
    return [Permutation.from_cycles(n, [0, 1]),
            Permutation.from_cycles(n, list(range(k))),
            Permutation.from_cycles(n, *([j, k + j] for j in range(k))),
            Permutation.from_cycles(n, *(list(range(j, n, k)) for j in range(k)))]


def _sym(n):
    return [Permutation.from_cycles(n, [0, 1]), Permutation.from_cycles(n, list(range(n)))]


def _rand_gens_14():
    rng = random.Random(0)
    return [rand_perm(rng, 14) for _ in range(4)]


@pytest.mark.parametrize("gens, n, prefix, stated", [
    (gens, n, prefix, False)
    for gens, n in [(_wreath(2, 5), 10), (_wreath(3, 4), 12), (_sym(9), 9)]
    for prefix in [(), (7, 2, 5, 0)]
] + [(_rand_gens_14(), 14, (), stated) for stated in (False, True)] + [
    ([Permutation((9, 2, 0, 3, 4, 5, 11, 7, 8, 1, 10, 6)),
      Permutation((0, 8, 1, 10, 6, 9, 3, 4, 2, 7, 5, 11))], 12, (), False),
])
def test_reshaped_trees_give_the_reference_chain(gens, n, prefix, stated):
    """Groups whose builds place many residues, so most trees are rebuilt
    many times and reshaped, give the chain written out in full.  In the
    last one a tree keeps u_beta but changes u_(beta^g): a Schreier
    generator filed without the serial of u_(beta^g) would be skipped
    although it is no longer the proven one."""
    expect = reference_chain(gens, n, prefix)
    order = math.prod(len(tree) for _, _, tree in expect)
    group = PermGroup(gens, n, base_prefix=prefix, _order=order if stated else None)
    assert _chain(group) == expect
    assert group.order() == order
    # the tree edges and serials serve the build only
    assert all(lvl.parents is lvl.serials is None for lvl in group._levels)


def _count_work(run):
    """(sifts, chain builds) while ``run`` runs."""
    counts = [0, 0]
    sift, build = PermGroup._sift, PermGroup._build

    def counted_sift(self, *args):
        counts[0] += 1
        return sift(self, *args)

    def counted_build(self):
        counts[1] += 1
        return build(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PermGroup, "_sift", counted_sift)
        mp.setattr(PermGroup, "_build", counted_build)
        run()
    return tuple(counts)


def _seeded_wreath_string_query():
    # S2 wr S7, of order 645,120: past the solver's listing bound, so the
    # query runs the Luks recursion and its block branch
    rng = random.Random(1)
    gens = _wreath(2, 7)
    x = ColoredString(tuple(rng.randrange(2) for _ in range(14)))
    y = x
    for _ in range(8):
        y = y.apply(rng.choice(gens))
    return StringQuery(PermGroup(gens, 14), x, y)


def test_kernel_work_is_pinned():
    """Exact sift and chain-build counts.  A change that moves one changes
    the group kernel's work and pins the new count; the deterministic build
    with every Schreier generator sifted took 299 and 541 sifts on the two
    groups.  ``_sift`` is every walk down a chain, so the string query's
    count holds Schreier generators (504), membership tests (72),
    covered-prefix tests (165) and preimages (27)."""
    assert _count_work(lambda: PermGroup(_sym(8), 8).order()) == (116, 1)
    assert _count_work(lambda: PermGroup(_wreath(3, 4), 12).order()) == (55, 1)
    query = _seeded_wreath_string_query()
    assert _count_work(lambda: string_iso(query)) == (768, 43)


def _compositions_in_builds(run):
    """``perm._compose`` calls made inside ``PermGroup._build`` while ``run``
    runs: Schreier generators, sifts and tree elements alike."""
    count = [0]
    inside = [0]
    compose, build = perm._compose, PermGroup._build

    def counted_compose(a, b):
        count[0] += inside[0] > 0
        return compose(a, b)

    def counted_build(self):
        inside[0] += 1
        try:
            return build(self)
        finally:
            inside[0] -= 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perm, "_compose", counted_compose)
        mp.setattr(PermGroup, "_build", counted_build)
        run()
    return count[0]


def test_build_compositions_are_pinned():
    """Exact compositions inside chain builds, for the builds pinned above.
    A tree rebuild keeps the elements of unchanged tree edges; recomputing
    every element of every rebuilt tree took 1233 and 1396 on the two
    groups."""
    assert _compositions_in_builds(lambda: PermGroup(_sym(8), 8).order()) == 849
    assert _compositions_in_builds(lambda: PermGroup(_wreath(3, 4), 12).order()) == 682
    query = _seeded_wreath_string_query()
    assert _compositions_in_builds(lambda: string_iso(query)) == 3611
