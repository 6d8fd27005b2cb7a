"""Property tests for the pruned element enumeration, the solver's
letter-pruned search and the chain-read kernel."""

from hypothesis import given, settings, strategies as st

from setiso.perm import Permutation, PermGroup
from setiso.pstrings import PPartition, PString, make_family
from setiso.solver import _iso_elements, family_image_key

from util import closure, rand_family_on, rand_group, rand_invariant_partition


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
