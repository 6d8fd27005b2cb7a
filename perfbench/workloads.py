"""Seeded query pools for the three workloads.

Each workload is a fixed list of slots.  A slot's objects (letters,
hyperedges, string families, terms, graphs, and the non-isomorphic partner)
come from a random stream that does not depend on the seed.  A pool holds
COPIES copies of the workload, each with one query per slot under its own
relabeling by group elements drawn from the seed.  So every seed asks for
the same work under other labels, and each slot's label-dependent cost is
averaged over its copies, which keeps the medians steady from seed to
seed.  The library receives
only the relabeled objects and the group generators.

Non-isomorphic partners share the invariants the solvers test first (letter
multiset, edge-size profile, vertex degrees, vertex count) and differ in an
invariant computed in ``check``, so a negative verdict needs real search.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Optional

import check

# Recursion-node cap handed to every entry point that takes one; no query
# at the parent commit comes near it.
BUDGET_NODES = 1_000_000
# relabeled copies of the workload; a run warms up on the last one and
# makes one pass per other copy, rarely getting through all of them, so
# every pass sees fresh labels
COPIES = 6


@dataclass
class Query:
    label: str            # slot description, the same for every seed
    kind: str             # key into check.ACTIONS
    iso: bool             # verdict known by construction
    degree: int           # points the answer's permutations act on
    x: object             # the benchmark's own copy of the inputs
    y: object
    run: Callable         # the timed call; returns an IsoCoset
    # shared by a slot's copies and computed once: a relabeling does not
    # change the order of the automorphism group
    expected_order: Callable[[], int]
    in_group: Optional[Callable] = None   # membership in the queried group
    shift_inverse: Optional[tuple] = None

    def __post_init__(self):
        if self.shift_inverse is None:
            self.shift_inverse = tuple(range(self.degree))


def _rand_perm(rng: random.Random, n: int) -> tuple:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _sym_gens(S, n: int) -> list:
    return [S.Permutation.from_cycles(n, [0, 1]),
            S.Permutation.from_cycles(n, list(range(n)))]


# -- wreath products S_k wr S_m on contiguous blocks ------------------------

def _blocks(k: int, m: int, offset: int) -> list[tuple]:
    return [tuple(range(offset + b * k, offset + (b + 1) * k)) for b in range(m)]


def _wreath_gens(S, k: int, m: int, offset: int, n: int) -> list:
    """S_k on the first block plus S_m permuting whole blocks."""
    def perm(f):
        img = list(range(n))
        for j in range(k * m):
            img[offset + j] = offset + f(j)
        return S.Permutation(img)

    gens = [perm(lambda j: {0: 1, 1: 0}.get(j, j))]
    if k > 2:
        gens.append(perm(lambda j: (j + 1) % k if j < k else j))
    gens.append(perm(lambda j: j + k if j < k else (j - k if j < 2 * k else j)))
    if m > 2:
        gens.append(perm(lambda j: ((j // k + 1) % m) * k + j % k))
    return gens


def _wreath_element(rng: random.Random, blocks: list[tuple], img: list) -> None:
    """Write a uniform element of the full wreath product on ``blocks``."""
    targets = list(blocks)
    rng.shuffle(targets)
    for src, dst in zip(blocks, targets):
        dst = list(dst)
        rng.shuffle(dst)
        for p, q in zip(src, dst):
            img[p] = q


def _block_types(x, blocks):
    return sorted(tuple(sorted(x[p] for p in b)) for b in blocks)


# -- luks_strings --------------------------------------------------------------

WREATH_SHAPES = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4),
                 (4, 2), (4, 3), (5, 2), (6, 2), (7, 2)]
# (letters, shifted coset, isomorphic); the fourth variant runs on every
# other shape so that about 40% of the whole pool is non-isomorphic
WREATH_VARIANTS = [(2, False, True), (3, True, True), (3, True, False), (2, False, False)]
# cycle-length multisets of the two graphs
CYCLE_SLOTS = [((5,), (5,)), ((6,), (6,)), ((6,), (3, 3)), ((3, 3), (3, 3)),
               ((7,), (7,)), ((7,), (3, 4)), ((3, 4), (3, 4))]
# (k, m, letters, shifted, isomorphic): two more small slots, built last so
# the slots above keep their letters.  They move the pool's median from the
# edge into the middle of the dense 55-66 ms band (m = 5 and k = 5, 6
# strings at the parent commit), so label-dependent costs move it less.
SMALL_WREATH_SLOTS = [(2, 4, 3, False, True), (4, 2, 2, True, True)]
# (k, m, letters, shifted, isomorphic): four more non-isomorphic slots, built
# after those, in the band of S2 wr S5 and S6 wr S2 strings whose cost
# hardly depends on the labels.  Without them the non-isomorphic median sat
# at the edge of that band, where a slower or faster minute, or a relabeling
# that moved an S4 wr S3 or S3 wr S4 string across it, shifted it by a
# whole gap between slots; with them seven slots of similar cost surround it.
NONISO_BAND_SLOTS = [(2, 5, 2, False, False), (6, 2, 3, False, False),
                     (2, 5, 2, True, False), (6, 2, 2, True, False)]
# (k, m, letters, shifted, isomorphic): S7 wr S2 with two letters takes
# about 0.9 s, the most of any slot.  With it the tail above 600 ms held
# four slots per pass, and p90 fell at the edge of the 200 ms gap below
# them; without it p90 falls inside the four S2 wr S6 slots at 400-450 ms.
LEFT_OUT_WREATH_SLOTS = {(7, 2, 2, False, True)}


def _wreath_partner(rng: random.Random, x: tuple, blocks: list[tuple]) -> Optional[tuple]:
    """Swap two letters across blocks so the per-block multisets change."""
    pairs = [(p, q) for i, bi in enumerate(blocks) for bj in blocks[i + 1:]
             for p in bi for q in bj if x[p] != x[q]]
    rng.shuffle(pairs)
    want = _block_types(x, blocks)
    for p, q in pairs:
        y = list(x)
        y[p], y[q] = y[q], y[p]
        if _block_types(y, blocks) != want:
            return tuple(y)
    return None


def _wreath_slot(S, shape_rng, k, m, letters, shifted, iso):
    n = k * m
    blocks = _blocks(k, m, 0)
    while True:
        template = tuple(shape_rng.randrange(letters) for _ in range(n))
        partner = _wreath_partner(shape_rng, template, blocks)
        if partner is not None:
            break
    gens = _wreath_gens(S, k, m, 0, n)
    block_sets = [frozenset(frozenset(b) for b in blocks)]
    order = functools.cache(lambda: check.wreath_string_order(template, blocks))
    label = "wreath k=%d m=%d letters=%d%s %s" % (
        k, m, letters, " shifted" if shifted else "", "iso" if iso else "noniso")

    def query(rng) -> Query:
        g, h = list(range(n)), list(range(n))
        _wreath_element(rng, blocks, g)
        _wreath_element(rng, blocks, h)
        shift = _rand_perm(rng, n) if shifted else tuple(range(n))
        x = check.string_image(template, tuple(g))
        y = check.string_image(template if iso else partner, check.compose(tuple(h), shift))
        xs, ys = S.ColoredString(x), S.ColoredString(y)
        shift_perm = S.Permutation(shift) if shifted else None

        def run():
            return S.string_iso(S.StringQuery(S.PermGroup(gens, n), xs, ys,
                                              shift=shift_perm, budget=BUDGET_NODES))

        return Query(label, "string", iso, n, x, y, run, order,
                     in_group=lambda p: check.preserves_blocks(p, block_sets),
                     shift_inverse=check.inverse(shift))
    return query


def _cycle_union(rng: random.Random, lengths) -> tuple:
    n = sum(lengths)
    label = _rand_perm(rng, n)
    edges, start = set(), 0
    for length in lengths:
        for i in range(length):
            edges.add(frozenset({label[start + i], label[start + (i + 1) % length]}))
        start += length
    return (0,) * n, frozenset(edges)


def _graph(S, graph):
    colors, edges = graph
    return S.ColoredGraph.plain(len(colors), sorted(tuple(sorted(e)) for e in edges), colors)


def _cycle_slot(S, lengths1, lengths2):
    n = sum(lengths1)
    gens = _sym_gens(S, n)
    iso = sorted(lengths1) == sorted(lengths2)
    label = "cycles %s vs %s" % ("+".join(map(str, lengths1)), "+".join(map(str, lengths2)))

    def query(rng) -> Query:
        x, y = _cycle_union(rng, lengths1), _cycle_union(rng, lengths2)
        g1, g2 = _graph(S, x), _graph(S, y)

        def run():
            return S.graph_iso_under_group(g1, g2, S.PermGroup(gens, n), budget=BUDGET_NODES)

        return Query(label, "graph", iso, n, x, y, run,
                     lambda: check.cycle_union_order(lengths1))
    return query


def luks_strings(S, shape_rng: random.Random) -> list:
    out = []
    for i, (k, m) in enumerate(WREATH_SHAPES):
        for j, (letters, shifted, iso) in enumerate(WREATH_VARIANTS):
            if j < 3 or i % 2 == 0:
                # built even when left out, so later slots keep their letters
                slot = _wreath_slot(S, shape_rng, k, m, letters, shifted, iso)
                if (k, m, letters, shifted, iso) not in LEFT_OUT_WREATH_SLOTS:
                    out.append(slot)
    for lengths1, lengths2 in CYCLE_SLOTS:
        out.append(_cycle_slot(S, lengths1, lengths2))
    for slot in SMALL_WREATH_SLOTS + NONISO_BAND_SLOTS:
        out.append(_wreath_slot(S, shape_rng, *slot))
    return out


# -- gsi_families --------------------------------------------------------------

# (vertices, isomorphic) for 3-uniform hypergraphs with as many edges as vertices
# (Sym(8) costs about 3 s a query, so it has a single slot)
HYPER_SLOTS = [(6, True), (6, False), (6, True), (6, False),
               (7, True), (7, False), (7, True), (7, False), (8, False)]
# (k1, m1, k2, m2): S_k1 wr S_m1 times S_k2 wr S_m2, classes = blocks
FAMILY_SHAPES = [(2, 3, 3, 2), (2, 2, 2, 3), (3, 2, 2, 3),
                 (2, 4, 3, 2), (3, 3, 2, 2), (4, 2, 2, 3)]
FAMILY_VARIANTS = [True, False, True, False]


def _switch_partner(rng, edges):
    """Exchange one vertex between two edges: vertex degrees stay, the
    multiset of per-edge degree tuples must change."""
    edges = sorted(sorted(e) for e in edges)
    want = check.hyperedge_degrees(edges)
    moves = [(i, j, b, e) for i in range(len(edges)) for j in range(len(edges)) if i < j
             for b in edges[i] for e in edges[j] if b not in edges[j] and e not in edges[i]]
    rng.shuffle(moves)
    for i, j, b, e in moves:
        new = [set(x) for x in edges]
        new[i].remove(b)
        new[i].add(e)
        new[j].remove(e)
        new[j].add(b)
        result = frozenset(frozenset(x) for x in new)
        if len(result) == len(edges) and check.hyperedge_degrees(result) != want:
            return result
    return None


def _hyper_slot(S, shape_rng, n, iso):
    while True:
        edges = set()
        while len(edges) < n:
            edges.add(frozenset(shape_rng.sample(range(n), 3)))
        template = frozenset(edges)
        partner = _switch_partner(shape_rng, template)
        if partner is not None:
            break
    gens = _sym_gens(S, n)
    budget = S.SolverConfig(budget=BUDGET_NODES)

    def oracle():
        from setiso.oracle import brute_force_iso
        return len(brute_force_iso(gens, n, "hypergraph", template, template))

    order = functools.cache(oracle)
    label = "hypergraph n=%d %s" % (n, "iso" if iso else "noniso")

    def query(rng) -> Query:
        x = check.hypergraph_image(template, _rand_perm(rng, n))
        y = check.hypergraph_image(template if iso else partner, _rand_perm(rng, n))
        h1, h2 = S.Hypergraph(n, x), S.Hypergraph(n, y)

        def run():
            inst = S.GsiInstance(S.PermGroup(gens, n), S.PPartition.trivial(n),
                                 S.hypergraph_to_family(h1), S.hypergraph_to_family(h2))
            return S.generalized_string_iso(inst, budget)

        return Query(label, "hypergraph", iso, n, x, y, run, order)
    return query


def _family_partner(rng, family, factors):
    """Permute the letters of one string, exchange two strings with equal
    letter multisets between blocks of equal size, or exchange the whole
    contents of two blocks of equal size.  The solver's profile (block
    sizes with the letter multisets of their strings) stays; the per-factor
    block contents must change."""
    classes, members = family
    want = check.family_block_types(family, factors)
    rows = sorted(members)
    moves = [("permute", m, None) for m in rows if len(m[1]) >= 3]
    moves += [("exchange", m1, m2) for i, m1 in enumerate(rows) for m2 in rows[i + 1:]
              if m1[0] != m2[0] and len(m1[1]) == len(m2[1])
              and sorted(m1[1]) == sorted(m2[1]) and m1[1] != m2[1]]
    moves += [("blocks", c, d) for c in range(len(classes)) for d in range(c + 1, len(classes))
              if len(classes[c]) == len(classes[d])]
    rng.shuffle(moves)
    for kind, a, b in moves:
        if kind == "permute":
            c, letters = a
            moved = list(letters)
            rng.shuffle(moved)
            new = (members - {a}) | {(c, tuple(moved))}
        elif kind == "exchange":
            (c, r), (d, s) = a, b
            new = (members - {a, b}) | {(c, s), (d, r)}
        else:
            new = frozenset((b if e == a else a if e == b else e, r) for e, r in members)
        candidate = (classes, frozenset(new))
        if len(new) == len(members) and check.family_block_types(candidate, factors) != want:
            return candidate
    return None


def _family_slot(S, shape_rng, k1, m1, k2, m2, iso):
    n = k1 * m1 + k2 * m2
    blocks_a, blocks_b = _blocks(k1, m1, 0), _blocks(k2, m2, k1 * m1)
    classes = tuple(blocks_a + blocks_b)
    factors = [range(m1), range(m1, m1 + m2)]
    while True:
        members = set()
        for c, pts in enumerate(classes):
            rows = set()
            target = shape_rng.randint(1, 3)
            while len(rows) < target:
                rows.add(tuple(shape_rng.randrange(2) for _ in pts))
            members.update((c, r) for r in rows)
        template = (classes, frozenset(members))
        partner = _family_partner(shape_rng, template, factors)
        if partner is not None:
            break
    part = S.PPartition.from_classes(n, classes)
    gens = _wreath_gens(S, k1, m1, 0, n) + _wreath_gens(S, k2, m2, k1 * m1, n)
    budget = S.SolverConfig(budget=BUDGET_NODES)
    block_sets = [frozenset(frozenset(b) for b in blocks_a),
                  frozenset(frozenset(b) for b in blocks_b)]
    order = functools.cache(lambda: check.family_order(template, factors))
    label = "family S%d wr S%d x S%d wr S%d %s" % (k1, m1, k2, m2, "iso" if iso else "noniso")

    def query(rng) -> Query:
        g, h = list(range(n)), list(range(n))
        for blocks in (blocks_a, blocks_b):
            _wreath_element(rng, blocks, g)
            _wreath_element(rng, blocks, h)
        x = check.family_image(template, tuple(g))
        y = check.family_image(template if iso else partner, tuple(h))
        fx = S.make_family(part, [S.PString(c, letters) for c, letters in sorted(x[1])])
        fy = S.make_family(part, [S.PString(c, letters) for c, letters in sorted(y[1])])

        def run():
            return S.generalized_string_iso(S.GsiInstance(S.PermGroup(gens, n), part, fx, fy),
                                            budget)

        return Query(label, "family", iso, n, x, y, run, order,
                     in_group=lambda p: check.preserves_blocks(p, block_sets))
    return query


def _a(i):
    return ("a", i)


def _s(*ts):
    return ("s", frozenset(ts))


def _t(*ts):
    return ("t", tuple(ts))


# (atoms, term): nested sets and tuples whose queries each take well under a
# second at the parent commit; highly symmetric small terms are left out
# because Sym(7) acting on them costs tens of seconds
HFS_TEMPLATES = [
    (5, _t(_s(_a(0), _a(1)), _t(_a(1), _a(2)), _s(_t(_a(2), _a(3)), _a(4)))),
    (5, _s(_t(_a(0), _a(1), _a(2)), _t(_a(2), _a(3)), _s(_a(3), _a(4), _t(_a(0), _a(4))))),
    (6, _t(_s(_t(_a(0), _a(1)), _t(_a(1), _a(2))), _s(_a(3), _a(4)), _t(_a(5), _a(0), _a(3)))),
    (6, _s(_t(_a(0), _a(1)), _t(_a(2), _a(3)), _t(_a(4), _a(5)), _s(_a(0), _a(2), _a(4)),
           _t(_a(1), _s(_a(3), _a(5))))),
    (7, _t(_s(_a(0), _a(1), _a(2)), _t(_a(3), _a(4)), _s(_t(_a(5), _a(6)), _t(_a(0), _a(3))),
           _t(_a(6), _a(1)))),
    (7, _s(_t(_a(0), _a(1), _s(_a(2), _a(3))), _t(_a(4), _a(5)), _t(_a(6), _a(0)),
           _s(_t(_a(2), _a(4)), _a(5)))),
]


def _hfs_key(term):
    """A total order on terms that does not depend on string hashing."""
    kind, body = term
    if kind == "a":
        return (0, body)
    keys = [_hfs_key(c) for c in body]
    return (1, tuple(sorted(keys))) if kind == "s" else (2, tuple(keys))


def _children(term) -> list:
    kind, body = term
    return sorted(body, key=_hfs_key) if kind == "s" else list(body)


def _hfs_leaves(term, path=()):
    if term[0] == "a":
        yield path
    else:
        for i, c in enumerate(_children(term)):
            yield from _hfs_leaves(c, path + (i,))


def _hfs_replace(term, path, atom):
    """The term with the leaf at ``path`` set to ``atom``; None when a set
    would lose an element."""
    if not path:
        return ("a", atom)
    children = _children(term)
    inner = _hfs_replace(children[path[0]], path[1:], atom)
    if inner is None:
        return None
    children[path[0]] = inner
    if term[0] == "s":
        return ("s", frozenset(children)) if len(set(children)) == len(children) else None
    return ("t", tuple(children))


def _hfs_nodes(term) -> int:
    """Distinct non-atom subterms: the encoding graph's inner vertices."""
    seen = set()

    def walk(t):
        if t[0] != "a" and t not in seen:
            seen.add(t)
            for c in t[1]:
                walk(c)

    walk(term)
    return len(seen)


def _hfs_partner(rng, term, atoms):
    """Change one atom occurrence; the encoding keeps its vertex count and
    the atom-path invariant changes."""
    want = check.hfs_invariant(term, atoms)
    nodes = _hfs_nodes(term)
    leaves = list(_hfs_leaves(term))
    rng.shuffle(leaves)
    for path in leaves:
        for atom in rng.sample(range(atoms), atoms):
            new = _hfs_replace(term, path, atom)
            if (new is not None and _hfs_nodes(new) == nodes
                    and check.hfs_invariant(new, atoms) != want):
                return new
    raise ValueError("template admits no non-isomorphic partner")


def _to_hfs(S, term):
    kind, body = term
    if kind == "a":
        return S.HfsTerm.make_atom(body)
    children = [_to_hfs(S, c) for c in body]
    return S.HfsTerm.make_set(children) if kind == "s" else S.HfsTerm.make_tuple(children)


def _hfs_slot(S, shape_rng, atoms, template, iso):
    partner = template if iso else _hfs_partner(shape_rng, template, atoms)
    gens = _sym_gens(S, atoms)
    budget = S.SolverConfig(budget=BUDGET_NODES)

    def oracle():
        from setiso.oracle import brute_force_iso
        term = _to_hfs(S, template)
        return len(brute_force_iso(gens, atoms, "hfs", term, term))

    order = functools.cache(oracle)
    label = "hfs atoms=%d size=%d %s" % (atoms, _hfs_nodes(template), "iso" if iso else "noniso")

    def query(rng) -> Query:
        x = check.hfs_image(template, _rand_perm(rng, atoms))
        y = check.hfs_image(partner, _rand_perm(rng, atoms))
        t1, t2 = _to_hfs(S, x), _to_hfs(S, y)

        def run():
            return S.iso_hfs(t1, t2, S.PermGroup(gens, atoms), budget)

        return Query(label, "hfs", iso, atoms, x, y, run, order)
    return query


def gsi_families(S, shape_rng: random.Random) -> list:
    out = [_hyper_slot(S, shape_rng, n, iso) for n, iso in HYPER_SLOTS]
    for shape in FAMILY_SHAPES:
        for iso in FAMILY_VARIANTS:
            out.append(_family_slot(S, shape_rng, *shape, iso))
    for atoms, template in HFS_TEMPLATES:
        for iso in (True, False):
            out.append(_hfs_slot(S, shape_rng, atoms, template, iso))
    return out


# -- excluded_minor -------------------------------------------------------------

def _prism(k: int) -> tuple[int, list]:
    """C_k x K_2: rims 0..k-1 and k..2k-1, rung i -- k+i."""
    edges = ([(i, (i + 1) % k) for i in range(k)]
             + [(k + i, k + (i + 1) % k) for i in range(k)]
             + [(i, k + i) for i in range(k)])
    return 2 * k, edges


def _wheel(k: int) -> tuple[int, list]:
    """Rim 0..k-1 around hub k."""
    return k + 1, [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]


def _truncated_prism() -> tuple[int, list]:
    """The triangular prism with one vertex truncated: cubic, planar,
    3-connected on 8 vertices, with triangles (so not the cube)."""
    return 8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (0, 5),
               (3, 4), (3, 6), (4, 7), (6, 7), (5, 6), (5, 7)]


def _shape(name: str) -> tuple[int, list]:
    if name == "truncated_prism":
        return _truncated_prism()
    family, k = name.rsplit("_", 1)
    return _prism(int(k)) if family == "prism" else _wheel(int(k))


def _plain_order(name: str) -> Optional[int]:
    """Closed forms: 4k for the prism C_k x K_2 (k != 4), 48 for the cube
    (k = 4), 2k for the wheel with k >= 4 rim vertices."""
    if name.startswith("prism_"):
        k = int(name.split("_")[1])
        return 48 if k == 4 else 4 * k
    if name.startswith("wheel_"):
        return 2 * int(name.split("_")[1])
    return None


# (shape, coloured pair of x, coloured pair of y): no pair means uncoloured;
# pairs at different distances make a non-isomorphic pair
MINOR_SLOTS = [
    ("prism_4", None, None), ("truncated_prism", None, None), ("prism_5", None, None),
    ("wheel_5", None, None), ("wheel_6", None, None), ("wheel_7", None, None),
    ("wheel_8", None, None),
    ("prism_4", (0, 1), (0, 1)), ("prism_4", (0, 2), (0, 2)),
    ("truncated_prism", (0, 3), (0, 3)), ("truncated_prism", (0, 5), (0, 5)),
    ("prism_5", (0, 1), (0, 1)), ("wheel_5", (0, 1), (0, 1)), ("wheel_5", (0, 2), (0, 2)),
    ("wheel_6", (0, 1), (0, 1)), ("wheel_7", (0, 1), (0, 1)), ("wheel_7", (0, 2), (0, 2)),
    ("wheel_8", (0, 1), (0, 1)), ("wheel_9", (0, 2), (0, 2)), ("wheel_10", (0, 2), (0, 2)),
    ("prism_4", (0, 1), (0, 2)), ("prism_4", (0, 2), (0, 1)),
    ("truncated_prism", (0, 5), (0, 3)), ("truncated_prism", (0, 3), (0, 5)),
    ("prism_5", (0, 1), (0, 2)), ("prism_6", (0, 1), (0, 2)), ("prism_7", (0, 1), (0, 2)),
    ("wheel_5", (0, 1), (0, 2)), ("wheel_6", (0, 1), (0, 2)), ("wheel_7", (0, 1), (0, 2)),
    ("wheel_8", (0, 2), (0, 1)), ("wheel_9", (0, 1), (0, 2)), ("wheel_10", (0, 1), (0, 2)),
    ("wheel_11", (0, 1), (0, 2)),
    # a 15th non-isomorphic slot: with an odd count the non-isomorphic median
    # is one query, not the mean of two across the 150-210 ms gap
    ("wheel_8", (0, 1), (0, 2)),
    # four more, so that as many non-isomorphic slots cost more than the
    # four 8-wheels as cost less, and the median falls among those four
    # rather than at the edge of the gap below them (a coloured hub is at
    # distance 1 from every rim vertex)
    ("wheel_8", (0, 8), (0, 2)), ("wheel_8", (0, 2), (0, 8)),
    ("wheel_9", (0, 9), (0, 2)), ("prism_5", (0, 2), (0, 7)),
]


def _coloured(name, pair):
    n, edges = _shape(name)
    colors = [0] * n
    if pair is not None:
        for v in pair:
            colors[v] = 1
    return tuple(colors), frozenset(frozenset(e) for e in edges)


def _minor_slot(S, name, pair1, pair2):
    base1, base2 = _coloured(name, pair1), _coloured(name, pair2)
    n = len(base1[0])
    iso = pair1 == pair2
    if not iso and (check.distance(base1[1], n, *pair1) == check.distance(base2[1], n, *pair2)):
        raise ValueError("non-isomorphic slot %s needs pairs at different distances" % name)
    budget = S.SolverConfig(budget=BUDGET_NODES)
    closed = _plain_order(name) if pair1 is None else None
    order = functools.cache(
        lambda: closed if closed is not None else check.graph_automorphism_count(base1))
    label = name if pair1 is None else "%s coloured %s vs %s" % (name, pair1, pair2)

    def query(rng) -> Query:
        x = check.graph_image(base1, _rand_perm(rng, n))
        y = check.graph_image(base2, _rand_perm(rng, n))
        g1, g2 = _graph(S, x), _graph(S, y)

        def run():
            return S.iso_excluded_minor(g1, g2, 3, budget)

        return Query(label, "graph", iso, n, x, y, run, order)
    return query


def excluded_minor(S, shape_rng: random.Random) -> list:
    return [_minor_slot(S, *slot) for slot in MINOR_SLOTS]


WORKLOADS = {
    "luks_strings": luks_strings,
    "gsi_families": gsi_families,
    "excluded_minor": excluded_minor,
}


def build(name: str, seed: int, S) -> list[list[Query]]:
    """COPIES lists, each with one relabeled query per slot."""
    # string seeds are hashed with SHA-512, so pools do not depend on
    # PYTHONHASHSEED
    slots = WORKLOADS[name](S, random.Random("shapes:" + name))
    rng = random.Random("%s:%d" % (name, seed))
    return [[query(rng) for query in slots] for _ in range(COPIES)]
