"""The generalized string isomorphism solver.

Dispatch: an intransitive group is processed orbit by orbit (each orbit
window enforced by a recursive call on the restricted instance) and the
per-orbit answers are merged pairwise with the bipartite window-combination
step.  A transitive group is first balanced, then decomposed over the
transversal of the block stabilizer of a minimal block system (standard Luks
reduction; no giant-representation shortcut, which keeps answers exact at
the cost of the quasipolynomial speedup).

Where the group is small or primitive, the isomorphisms are listed by a
search pruned by letters (the first refiner of Leon's partition backtrack):
it walks the stabilizer chain in the order of ``PermGroup.elements`` and
drops a prefix as soon as, for some class whose points it has fixed, the
letters of x at those points and of y at their images differ as multisets
of member signatures.  The test is exact once every point is fixed, so the
search yields exactly the elements a full scan would accept, in the same
order, and the answers do not change.  One recursion budget is shared by
the whole query, the nested string and graph queries included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graphs import ColoredGraph
from .perm import CosetUnion, GroupHom, IsoCoset, PermGroup, Permutation, transversal_cosets
from .pstrings import (
    PPartition,
    PString,
    PStringFamily,
    VirtualSizeConfig,
    harmonize_sentinels,
)
from .strings import Budget, ColoredString, StringQuery, graph_iso_under_group, string_iso
from .structure import PartitionChain


@dataclass
class SolverConfig:
    d: int = 2
    budget: Optional[int] = None
    direct_cutoff: int = 120

    def vsize(self) -> VirtualSizeConfig:
        return VirtualSizeConfig(self.d)


@dataclass
class GsiInstance:
    """One generalized string isomorphism query.

    The partition must be invariant under the group; the two families are
    re-padded with a common sentinel on construction.  A partition chain, when
    provided, must contain the partition as one of its levels.
    """

    group: PermGroup
    partition: PPartition
    x: PStringFamily
    y: PStringFamily
    chain: Optional[PartitionChain] = None

    def __post_init__(self):
        n = self.group.degree
        if self.partition.n != n:
            raise ValueError("partition domain does not match the group degree")
        for g in self.group.generators:
            if not self.partition.is_invariant_under(g):
                raise ValueError("partition is not invariant under the group")
        if self.x.partition != self.partition or self.y.partition != self.partition:
            raise ValueError("family partitions must equal the instance partition")
        self.x, self.y = harmonize_sentinels(self.x, self.y)
        if self.chain is not None:
            self.chain.level_index_of(
                frozenset(pts) for pts in self.partition.classes())


def restrict_perm(g: Permutation, points: Sequence[int]) -> Permutation:
    pts = sorted(points)
    pos = {p: i for i, p in enumerate(pts)}
    return Permutation([pos[g.images[p]] for p in pts])


def family_image_key(fam: PStringFamily, g: Permutation) -> frozenset:
    """Canonical key of fam^g without building the family object."""
    part = fam.partition
    out = []
    for m in fam.members:
        pts = part.members(m.class_id)
        image_pts = sorted(g.images[p] for p in pts)
        pos = {p: i for i, p in enumerate(image_pts)}
        letters = [0] * len(pts)
        for p, letter in zip(pts, m.letters):
            letters[pos[g.images[p]]] = letter
        out.append((part.class_of[image_pts[0]], tuple(letters)))
    return frozenset(out)


def _iso_elements(group: PermGroup, x: PStringFamily, y: PStringFamily,
                  tick: Optional[Callable[[], None]] = None) -> Iterator[Permutation]:
    """The g in ``group`` with x^g = y, in ``group.elements()`` order.

    The search state holds, for every member of y, its letters at the images
    of the points fixed so far.  Where a prefix fixes new points of a class
    c, the members of x in c, read at the fixed points of c, must form the
    same multiset of signatures as the members of y in the image class, read
    at the images.  The x side depends only on the depth, so it is computed
    once per depth.  ``tick`` is called on every accepted prefix.
    """
    part = x.partition
    class_of, positions = part.class_of, part.positions
    x_letters: list[list[tuple]] = [[] for _ in range(part.num_classes)]
    y_letters: list[list[tuple]] = [[] for _ in range(part.num_classes)]
    for m in x.members:
        x_letters[m.class_id].append(m.letters)
    for m in y.members:
        y_letters[m.class_id].append(m.letters)
    x_sigs = [[()] * len(ms) for ms in x_letters]
    # checks[k]: (class, its points fixed at the k-th step, sorted x
    # signatures of the class); every node at one depth fixes the same
    # points, so the first node to arrive there fills the entry
    checks: list[list[tuple]] = []

    def x_side(final: list[int]) -> list[tuple]:
        by_class: dict[int, list[int]] = {}
        for p in final:
            by_class.setdefault(class_of[p], []).append(p)
        out = []
        for c, pts in by_class.items():
            spots = [positions[p] for p in pts]
            x_sigs[c] = [s + tuple(l[j] for j in spots)
                         for s, l in zip(x_sigs[c], x_letters[c])]
            out.append((c, pts, sorted(x_sigs[c])))
        return out

    def step(state, final, images):
        k, y_sigs = state
        if k == len(checks):
            checks.append(x_side(final))
        new = list(y_sigs)
        for c, pts, want in checks[k]:
            image_class = class_of[images[pts[0]]]
            spots = [positions[images[p]] for p in pts]
            sigs = [s + tuple(l[j] for j in spots)
                    for s, l in zip(y_sigs[image_class], y_letters[image_class])]
            if sorted(sigs) != want:
                return None
            new[image_class] = sigs
        if tick is not None:
            tick()
        return k + 1, new

    start = (0, [[()] * len(ms) for ms in y_letters])
    y_key = y.key()
    for g in group.search(range(group.degree), start, step):
        if family_image_key(x, g) == y_key:
            yield g


def _pull_back(group: PermGroup, hom: GroupHom, coset: IsoCoset) -> IsoCoset:
    """{g in group : hom(g) in coset}; the coset must lie in hom's image."""
    if coset.is_empty:
        return coset
    rep = hom.preimage(coset.rep)
    if rep is None:
        return IsoCoset.empty()
    gens = list(hom.kernel().generators)
    for c in coset.group.generators:
        pre = hom.preimage(c)
        if pre is None:
            raise ValueError("coset does not lie in the image of the homomorphism")
        gens.append(pre)
    return IsoCoset(PermGroup(gens, group.degree), rep)


class _Ctx:
    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.budget = Budget(cfg.budget)


# -- BalanceOrbits --------------------------------------------------------------

def _orbit_unbalanced(fam: PStringFamily, orbit: Sequence[int]) -> bool:
    sub = fam.restrict(orbit)
    return not sub.is_balanced()


def _occupancy_counts(fam: PStringFamily, window: Sequence[int],
                      class_ids: Sequence[int]) -> list[int]:
    """m_{fam[window]}(P ∩ window) for the given original class ids."""
    wset = set(window)
    out = []
    for c in class_ids:
        pts = fam.partition.members(c)
        kept = [i for i, p in enumerate(pts) if p in wset]
        seen = set()
        for m in fam.members:
            if m.class_id == c:
                seen.add(tuple(m.letters[i] for i in kept))
        out.append(len(seen))
    return out


def balance_orbits(group: PermGroup, partition: PPartition,
                   x: PStringFamily, y: PStringFamily,
                   ctx: Optional[_Ctx] = None) -> IsoCoset:
    """A coset (Delta, delta) containing Iso(x, y) with x[A] balanced on
    every Delta-orbit A; empty when the occupancy profiles rule isomorphism
    out.  The output is isomorphism-invariant: processing order is fixed and
    the result is the maximal subcoset respecting all occupancy counts."""
    ctx = ctx or _Ctx(SolverConfig())
    current = IsoCoset.full(group)
    while True:
        sub, shift = current.group, current.rep
        bad = None
        for orb in sub.orbits():
            if len(orb) > 1 and _orbit_unbalanced(x, orb):
                bad = orb
                break
        if bad is None:
            return current
        class_ids = sorted({x.partition.class_of[p] for p in bad},
                           key=lambda c: x.partition.members(c)[0])
        xs = _occupancy_counts(x, bad, class_ids)
        image_orbit = sorted(shift.images[p] for p in bad)
        # pull the y-side counts back through the shift
        ys = []
        for c in class_ids:
            p0 = x.partition.members(c)[0]
            target_class = y.partition.class_of[shift.images[p0]]
            ys.append(_occupancy_counts(y, image_orbit, [target_class])[0])
        blocks = [frozenset(set(x.partition.members(c)) & set(bad)) for c in class_ids]
        hom = sub.block_action(blocks)
        res = string_iso(StringQuery(hom.image(), ColoredString(tuple(xs)),
                                     ColoredString(tuple(ys)),
                                     budget=ctx.budget))
        if res.is_empty:
            return IsoCoset.empty()
        refined = _pull_back(sub, hom, res)
        new = IsoCoset(refined.group, refined.rep * shift)
        if new.group.order() >= sub.order():
            # all of Delta*delta respects the counts yet x[A] is unbalanced:
            # impossible for a transitive orbit, so this flags a logic error
            raise RuntimeError("balance made no progress on an unbalanced orbit")
        current = new


# -- CombineWindows ---------------------------------------------------------------

def _member_piece(partition: PPartition, member: PString, window: set):
    pts = partition.members(member.class_id)
    kept = tuple(l for p, l in zip(pts, member.letters) if p in window)
    if not any(p in window for p in pts):
        return None
    return (member.class_id, kept)


def _piece_image(partition: PPartition, piece, window_pts: set, g: Permutation):
    c, letters = piece
    pts = [p for p in partition.members(c) if p in window_pts]
    image = sorted((g.images[p] for p in pts))
    pos = {p: i for i, p in enumerate(image)}
    new_letters = [0] * len(pts)
    for p, letter in zip(pts, letters):
        new_letters[pos[g.images[p]]] = letter
    new_class = partition.class_of[image[0]]
    return (new_class, tuple(new_letters))


def _check_window_automorphic(group: PermGroup, fam: PStringFamily,
                              window: Sequence[int]) -> bool:
    if not window:
        return True
    sub = fam.restrict(window)
    key = sub.key()
    return all(sub.apply(restrict_perm(g, window)).key() == key
               for g in group.generators)


def combine_windows(coset: IsoCoset, partition: PPartition,
                    x: PStringFamily, y: PStringFamily,
                    w1: Sequence[int], w2: Sequence[int],
                    ctx: Optional[_Ctx] = None) -> IsoCoset:
    """{gamma in coset : gamma[W1 ∪ W2] in Iso(x[W1 ∪ W2], y[W1 ∪ W2])}.

    Requires both windows invariant and automorphic for the group part; the
    preconditions are re-checked.  Cross-window consistency is decided by a
    graph isomorphism between the two bipartite co-membership graphs on
    x[W1] ⊎ x[W2].
    """
    ctx = ctx or _Ctx(SolverConfig())
    if coset.is_empty:
        return coset
    group, shift = coset.group, coset.rep
    for w in (w1, w2):
        wset = frozenset(w)
        for g in group.generators:
            if g.apply_set(wset) != wset:
                raise ValueError("window is not invariant under the group part")
    y_aligned = y.apply(shift.inverse()) if not shift.is_identity() else y
    for w in (w1, w2):
        if w and not _check_window_automorphic(group, x, w):
            raise ValueError("group does not respect x on a window")
    inner = _combine_group(group, partition, x, y_aligned, sorted(w1), sorted(w2), ctx)
    return inner.shifted(shift) if not inner.is_empty else inner


def _combine_group(group: PermGroup, partition: PPartition,
                   x: PStringFamily, y: PStringFamily,
                   w1: list[int], w2: list[int], ctx: _Ctx) -> IsoCoset:
    if not w1 and not w2:
        return IsoCoset.full(group)
    for w in (w1, w2):
        if w and x.restrict(w).key() != y.restrict(w).key():
            return IsoCoset.empty()
    if not w1 or not w2:
        return IsoCoset.full(group)
    w = sorted(set(w1) | set(w2))
    if len(x.restrict(w).members) != len(y.restrict(w).members):
        return IsoCoset.empty()

    s1, s2 = set(w1), set(w2)
    v1 = sorted({_member_piece(partition, m, s1) for m in x.members} - {None})
    v2 = sorted({_member_piece(partition, m, s2) for m in x.members} - {None})
    index = {piece: i for i, piece in enumerate(v1)}
    index.update({piece: len(v1) + i for i, piece in enumerate(v2)})

    def edges_of(fam: PStringFamily):
        out = set()
        for m in fam.members:
            p1 = _member_piece(partition, m, s1)
            p2 = _member_piece(partition, m, s2)
            if p1 is not None and p2 is not None:
                if p1 not in index or p2 not in index:
                    return None
                out.add((index[p1], index[p2]))
        return out

    ex = edges_of(x)
    ey = edges_of(y)
    if ey is None:
        return IsoCoset.empty()
    nv = len(v1) + len(v2)
    colors = [0] * len(v1) + [1] * len(v2)
    gx = ColoredGraph.plain(nv, sorted(ex), colors)
    gy = ColoredGraph.plain(nv, sorted(ey), colors)

    images = []
    for g in group.generators:
        img = [0] * nv
        for piece, i in index.items():
            wpts = s1 if i < len(v1) else s2
            img[i] = index[_piece_image(partition, piece, wpts, g)]
        images.append(Permutation(img))
    hom = GroupHom(group, nv, images)
    res = graph_iso_under_group(gx, gy, hom.image(), budget=ctx.budget)
    return _pull_back(group, hom, res)


# -- the dispatcher ---------------------------------------------------------------

def _quick_mismatch(x: PStringFamily, y: PStringFamily) -> bool:
    if len(x.members) != len(y.members):
        return True
    part_x, part_y = x.partition, y.partition

    def profile(fam, part):
        out = []
        for c, pts in enumerate(part.classes()):
            letters = sorted(m.letters for m in fam.members if m.class_id == c)
            out.append((len(pts), tuple(sorted(tuple(sorted(l)) for l in letters))))
        return sorted(out)

    return profile(x, part_x) != profile(y, part_y)


def _gsi_group(group: PermGroup, partition: PPartition,
               x: PStringFamily, y: PStringFamily, ctx: _Ctx) -> IsoCoset:
    ctx.budget.tick()
    if _quick_mismatch(x, y):
        return IsoCoset.empty()
    n = group.degree
    if group.order() <= ctx.cfg.direct_cutoff:
        found = list(_iso_elements(group, x, y))
        if not found:
            return IsoCoset.empty()
        rep = found[0]
        rep_inv = rep.inverse()
        return IsoCoset(PermGroup([g * rep_inv for g in found], n), rep)

    orbits = group.orbits()
    if len(orbits) > 1:
        current = IsoCoset.full(group)
        for orb in orbits:
            current = _enforce_window(current, partition, x, y, orb, ctx)
            if current.is_empty:
                return current
        window = list(orbits[0])
        for orb in orbits[1:]:
            y_aligned = (y.apply(current.rep.inverse())
                         if not current.rep.is_identity() else y)
            inner = _combine_group(current.group, partition, x, y_aligned,
                                   window, list(orb), ctx)
            if inner.is_empty:
                return inner
            current = inner.shifted(current.rep)
            window = sorted(set(window) | set(orb))
        return current

    # transitive: balance, then standard Luks reduction
    bal = balance_orbits(group, partition, x, y, ctx)
    if bal.is_empty:
        return IsoCoset.empty()
    if bal.group.order() < group.order():
        return _gsi_coset(bal, partition, x, y, ctx)

    # in both loops below, a union that reaches the group's order holds
    # every later piece
    order = group.order()
    blocks, primitive = group.minimal_block_system(range(n))
    if primitive:
        union = CosetUnion(n)
        trivial = PermGroup([], n)
        for delta in _iso_elements(group, x, y, ctx.budget.tick):
            if union.add(IsoCoset(trivial, delta)) and union.order() == order:
                break
        return union.result()
    hom = group.block_action(blocks)
    kernel = hom.kernel()
    union = CosetUnion(n)
    for delta in transversal_cosets(group, hom):
        ctx.budget.tick()
        if (union.add(_gsi_coset(IsoCoset(kernel, delta), partition, x, y, ctx))
                and union.order() == order):
            break
    return union.result()


def _gsi_coset(coset: IsoCoset, partition: PPartition,
               x: PStringFamily, y: PStringFamily, ctx: _Ctx) -> IsoCoset:
    if coset.is_empty:
        return coset
    if coset.rep.is_identity():
        return _gsi_group(coset.group, partition, x, y, ctx)
    inner = _gsi_group(coset.group, partition, x, y.apply(coset.rep.inverse()), ctx)
    return inner.shifted(coset.rep)


def _enforce_window(coset: IsoCoset, partition: PPartition,
                    x: PStringFamily, y: PStringFamily,
                    window: Sequence[int], ctx: _Ctx) -> IsoCoset:
    """{gamma in coset : gamma[W] in Iso(x[W], y[W])} via a restricted call."""
    group, shift = coset.group, coset.rep
    y_aligned = y.apply(shift.inverse()) if not shift.is_identity() else y
    sub, hom = group.restrict(window)
    x_w = x.restrict(window)
    y_w = y_aligned.restrict(window)
    if x_w.partition != y_w.partition:
        return IsoCoset.empty()
    res = _gsi_group(sub, x_w.partition, x_w, y_w, ctx)
    pulled = _pull_back(group, hom, res)
    if pulled.is_empty:
        return pulled
    return IsoCoset(pulled.group, pulled.rep * shift)


def generalized_string_iso(inst: GsiInstance,
                           cfg: Optional[SolverConfig] = None) -> IsoCoset:
    """Exactly Iso_Gamma(x, y) for a generalized string instance."""
    cfg = cfg or SolverConfig()
    ctx = _Ctx(cfg)
    return _gsi_group(inst.group, inst.partition, inst.x, inst.y, ctx)


def set_of_strings_iso(group: PermGroup, xs: Sequence[ColoredString],
                       ys: Sequence[ColoredString],
                       cfg: Optional[SolverConfig] = None) -> IsoCoset:
    """Set-of-strings isomorphism: the trivial-partition special case."""
    n = group.degree
    part = PPartition.trivial(n)
    from .pstrings import make_family
    fx = make_family(part, [PString(0, s) for s in sorted({s.letters for s in xs})])
    fy = make_family(part, [PString(0, s) for s in sorted({s.letters for s in ys})])
    return generalized_string_iso(GsiInstance(group, part, fx, fy), cfg)


def normalize_instance(inst: GsiInstance, d: int):
    """Normalized copy of an instance, plus the translation record.

    The returned instance carries the almost d'-ary chain through its class
    partition; isomorphism answers correspond elementwise through the
    record's monomorphism.
    """
    from .normalize import normalize_families
    norm = normalize_families(inst.group, inst.partition, [inst.x, inst.y], d)
    nx, ny = norm.families
    new_inst = GsiInstance(norm.group, norm.partition, nx, ny, chain=norm.chain)
    return new_inst, norm
