"""Property tests for the pruned element enumeration, the solver's
letter-pruned search, the chain-read kernel and the pull-back."""

import pytest
from hypothesis import given, settings, strategies as st

from setiso.perm import IsoCoset, Permutation, PermGroup
from setiso.pstrings import PPartition, PString, make_family
from setiso.solver import _iso_elements, family_image_key
from setiso.strings import ColoredString, StringQuery, string_iso

from util import closure, rand_family_on, rand_group, rand_invariant_partition, rand_perm


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
def test_elements_where_is_the_filtered_enumeration(n, rng):
    g = rand_group(rng, n, order_cap=2000)
    pts = rng.sample(range(n), rng.randint(0, n))
    src = [rng.randint(0, 2) for _ in range(n)]
    dst = [rng.randint(0, 2) for _ in range(n)]

    def ok(p, q):
        return src[p] == dst[q]

    expect = [h for h in g.elements() if all(ok(p, h(p)) for p in pts)]
    assert list(g.elements_where(pts, ok)) == expect


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


def test_elements_where_prunes_before_the_last_level():
    g = PermGroup([Permutation.from_cycles(6, [0, 1]),
                   Permutation.from_cycles(6, list(range(6)))], 6)
    calls = []

    def ok(p, q):
        calls.append(p)
        return p == q

    assert [h.images for h in g.elements_where([0, 1, 2, 3, 4, 5], ok)] == [tuple(range(6))]
    # a full scan would test six points on each of 720 elements
    assert len(calls) < 720


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
