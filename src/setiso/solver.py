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
order, and the answers do not change.  The query's one ``Budget`` (see
``strings``) is the only state the recursion carries; the nested string and
graph queries tick it too.

P-strings are moved and cut only through ``PPartition.image`` and
``PPartition.cut`` (see ``pstrings``); ``family_image_key``, built on the
former, is the leaf check of the search.  The group work is ``perm``'s:
answers on an orbit window, an occupancy string or a co-membership graph
come back through ``GroupHom.pull_back`` of the restriction or induced
action, and the isomorphisms a search lists become a coset through
``IsoCoset.from_elements``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graphs import ColoredGraph
from .perm import CosetUnion, GroupHom, IsoCoset, PermGroup, Permutation, transversal_cosets
from .pstrings import PPartition, PString, PStringFamily, harmonize_sentinels, make_family
from .strings import (
    DIRECT_ENUM_CUTOFF,
    Budget,
    BudgetArg,
    ColoredString,
    SolverConfig,
    StringQuery,
    graph_iso_under_group,
    string_iso,
)
from .structure import PartitionChain


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


def family_image_key(fam: PStringFamily, g: Permutation) -> frozenset:
    """Canonical key of fam^g without building the family object."""
    part = fam.partition
    return frozenset(part.image(part.members(m.class_id), m.letters, g)
                     for m in fam.members)


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


# -- BalanceOrbits --------------------------------------------------------------

def _orbit_unbalanced(fam: PStringFamily, orbit: Sequence[int]) -> bool:
    sub = fam.restrict(orbit)
    return not sub.is_balanced()


def _occupancy_count(fam: PStringFamily, window: frozenset, class_id: int) -> int:
    """m_{fam[window]}(P ∩ window) for one original class P."""
    part = fam.partition
    return len({part.cut(class_id, m.letters, window)
                for m in fam.members if m.class_id == class_id})


def balance_orbits(group: PermGroup, partition: PPartition,
                   x: PStringFamily, y: PStringFamily,
                   budget: BudgetArg = None) -> IsoCoset:
    """A coset (Delta, delta) containing Iso(x, y) with x[A] balanced on
    every Delta-orbit A; empty when the occupancy profiles rule isomorphism
    out.  The output is isomorphism-invariant: processing order is fixed and
    the result is the maximal subcoset respecting all occupancy counts."""
    budget = Budget.of(budget)
    current = IsoCoset.full(group)
    while True:
        sub, shift = current.group, current.rep
        bad = None
        for orb in sub.orbits():
            if len(orb) > 1 and _orbit_unbalanced(x, orb):
                bad = frozenset(orb)
                break
        if bad is None:
            return current
        class_ids = sorted({x.partition.class_of[p] for p in bad},
                           key=lambda c: x.partition.members(c)[0])
        xs = [_occupancy_count(x, bad, c) for c in class_ids]
        image_orbit = shift.apply_set(bad)
        # pull the y-side counts back through the shift
        ys = [_occupancy_count(y, image_orbit, x.partition.image_class(c, shift))
              for c in class_ids]
        blocks = [frozenset(x.partition.members(c)) & bad for c in class_ids]
        hom = sub.block_action(blocks)
        res = string_iso(StringQuery(hom.image(), ColoredString(tuple(xs)),
                                     ColoredString(tuple(ys)),
                                     budget=budget))
        if res.is_empty:
            return IsoCoset.empty()
        refined = hom.pull_back(res)
        new = IsoCoset(refined.group, refined.rep * shift)
        if new.group.order() >= sub.order():
            # all of Delta*delta respects the counts yet x[A] is unbalanced:
            # impossible for a transitive orbit, so this flags a logic error
            raise RuntimeError("balance made no progress on an unbalanced orbit")
        current = new


# -- CombineWindows ---------------------------------------------------------------

def _check_window_automorphic(group: PermGroup, fam: PStringFamily,
                              window: Sequence[int]) -> bool:
    if not window:
        return True
    sub = fam.restrict(window)
    key = sub.key()
    return all(sub.apply(g.restrict(window)).key() == key
               for g in group.generators)


def combine_windows(coset: IsoCoset, partition: PPartition,
                    x: PStringFamily, y: PStringFamily,
                    w1: Sequence[int], w2: Sequence[int],
                    budget: BudgetArg = None) -> IsoCoset:
    """{gamma in coset : gamma[W1 ∪ W2] in Iso(x[W1 ∪ W2], y[W1 ∪ W2])}.

    Requires both windows invariant and automorphic for the group part; the
    preconditions are re-checked.  Cross-window consistency is decided by a
    graph isomorphism between the two bipartite co-membership graphs on
    x[W1] ⊎ x[W2].
    """
    budget = Budget.of(budget)
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
    inner = _combine_group(group, partition, x, y_aligned, sorted(w1), sorted(w2), budget)
    return inner.shifted(shift) if not inner.is_empty else inner


def _combine_group(group: PermGroup, partition: PPartition,
                   x: PStringFamily, y: PStringFamily,
                   w1: list[int], w2: list[int], budget: Budget) -> IsoCoset:
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

    windows = (set(w1), set(w2))
    # the points of each class inside each window
    inside = [[partition.cut(c, pts, w) for c, pts in enumerate(partition.classes())]
              for w in windows]

    def pieces(fam: PStringFamily, side: int) -> list:
        """Each member cut to a window and tagged with it; None where its
        class misses the window.  The tag keeps equal cuts on the two
        windows apart."""
        return [(side, m.class_id, partition.cut(m.class_id, m.letters, windows[side]))
                if inside[side][m.class_id] else None for m in fam.members]

    v1 = sorted(set(pieces(x, 0)) - {None})
    v2 = sorted(set(pieces(x, 1)) - {None})
    index = {piece: i for i, piece in enumerate(v1 + v2)}

    def edges_of(fam: PStringFamily):
        out = set()
        for p1, p2 in zip(pieces(fam, 0), pieces(fam, 1)):
            if p1 is not None and p2 is not None:
                if p1 not in index or p2 not in index:
                    return None
                out.add((index[p1], index[p2]))
        return out

    ex = edges_of(x)
    ey = edges_of(y)
    if ey is None:
        return IsoCoset.empty()
    nv = len(index)
    colors = [0] * len(v1) + [1] * len(v2)
    gx = ColoredGraph.plain(nv, sorted(ex), colors)
    gy = ColoredGraph.plain(nv, sorted(ey), colors)

    images = []
    for g in group.generators:
        img = [0] * nv
        for (side, c, letters), i in index.items():
            img[i] = index[(side, *partition.image(inside[side][c], letters, g))]
        images.append(Permutation(img))
    hom = GroupHom(group, nv, images)
    res = graph_iso_under_group(gx, gy, hom.image(), budget=budget)
    return hom.pull_back(res)


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
               x: PStringFamily, y: PStringFamily, budget: Budget) -> IsoCoset:
    budget.tick()
    if _quick_mismatch(x, y):
        return IsoCoset.empty()
    n = group.degree
    if group.order() <= DIRECT_ENUM_CUTOFF:
        return IsoCoset.from_elements(list(_iso_elements(group, x, y)), n)

    orbits = group.orbits()
    if len(orbits) > 1:
        current = IsoCoset.full(group)
        for orb in orbits:
            current = _enforce_window(current, partition, x, y, orb, budget)
            if current.is_empty:
                return current
        window = list(orbits[0])
        for orb in orbits[1:]:
            y_aligned = (y.apply(current.rep.inverse())
                         if not current.rep.is_identity() else y)
            inner = _combine_group(current.group, partition, x, y_aligned,
                                   window, list(orb), budget)
            if inner.is_empty:
                return inner
            current = inner.shifted(current.rep)
            window = sorted(set(window) | set(orb))
        return current

    # transitive: balance, then standard Luks reduction
    bal = balance_orbits(group, partition, x, y, budget)
    if bal.is_empty:
        return IsoCoset.empty()
    if bal.group.order() < group.order():
        return _gsi_coset(bal, partition, x, y, budget)

    # in both loops below, a union that reaches the group's order holds
    # every later piece
    order = group.order()
    blocks, primitive = group.minimal_block_system(range(n))
    if primitive:
        union = CosetUnion(n)
        trivial = PermGroup([], n)
        for delta in _iso_elements(group, x, y, budget.tick):
            if union.add(IsoCoset(trivial, delta)) and union.order() == order:
                break
        return union.result()
    hom = group.block_action(blocks)
    kernel = hom.kernel()
    union = CosetUnion(n)
    for delta in transversal_cosets(group, hom):
        budget.tick()
        if (union.add(_gsi_coset(IsoCoset(kernel, delta), partition, x, y, budget))
                and union.order() == order):
            break
    return union.result()


def _gsi_coset(coset: IsoCoset, partition: PPartition,
               x: PStringFamily, y: PStringFamily, budget: Budget) -> IsoCoset:
    if coset.is_empty:
        return coset
    if coset.rep.is_identity():
        return _gsi_group(coset.group, partition, x, y, budget)
    inner = _gsi_group(coset.group, partition, x, y.apply(coset.rep.inverse()), budget)
    return inner.shifted(coset.rep)


def _enforce_window(coset: IsoCoset, partition: PPartition,
                    x: PStringFamily, y: PStringFamily,
                    window: Sequence[int], budget: Budget) -> IsoCoset:
    """{gamma in coset : gamma[W] in Iso(x[W], y[W])} via a restricted call."""
    group, shift = coset.group, coset.rep
    y_aligned = y.apply(shift.inverse()) if not shift.is_identity() else y
    sub, hom = group.restrict(window)
    x_w = x.restrict(window)
    y_w = y_aligned.restrict(window)
    if x_w.partition != y_w.partition:
        return IsoCoset.empty()
    res = _gsi_group(sub, x_w.partition, x_w, y_w, budget)
    pulled = hom.pull_back(res)
    if pulled.is_empty:
        return pulled
    return IsoCoset(pulled.group, pulled.rep * shift)


def generalized_string_iso(inst: GsiInstance, budget: BudgetArg = None) -> IsoCoset:
    """Exactly Iso_Gamma(x, y) for a generalized string instance."""
    return _gsi_group(inst.group, inst.partition, inst.x, inst.y, Budget.of(budget))


def set_of_strings_iso(group: PermGroup, xs: Sequence[ColoredString],
                       ys: Sequence[ColoredString],
                       budget: BudgetArg = None) -> IsoCoset:
    """Set-of-strings isomorphism: the trivial-partition special case."""
    part = PPartition.trivial(group.degree)
    fx = make_family(part, [PString(0, s) for s in {s.letters for s in xs}])
    fy = make_family(part, [PString(0, s) for s in {s.letters for s in ys}])
    return generalized_string_iso(GsiInstance(group, part, fx, fy), budget)


def normalize_instance(inst: GsiInstance):
    """Normalized copy of an instance, plus the translation record.

    The returned instance carries the almost d'-ary chain through its class
    partition; isomorphism answers correspond elementwise through the
    record's monomorphism.
    """
    from .normalize import normalize_families
    norm = normalize_families(inst.group, inst.partition, [inst.x, inst.y])
    nx, ny = norm.families
    new_inst = GsiInstance(norm.group, norm.partition, nx, ny, chain=norm.chain)
    return new_inst, norm
