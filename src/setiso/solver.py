"""The generalized string isomorphism solver: the one Luks recursion of the
package.  ``strings.string_iso`` sends a string here as a one-member family,
and ``strings.graph_iso_under_group`` sends a graph as a family on its
vertices.  ``_string_family`` is the one encoder of strings as a family on
the trivial partition: it serves those front ends, the nested queries below
and the t-CR replay of ``refine``.

Dispatch: an intransitive group is processed orbit by orbit (each orbit
window enforced by a recursive call on the restricted instance) and the
per-orbit answers are merged pairwise with the window-combination step.
That step writes the co-membership of the two windows' pieces as a
one-member string on the product V1 × V2 of the two piece sets (letter 1
where a member has both pieces) and answers it under the group's product
action.  A transitive group is first balanced, then decomposed over the
transversal of the block stabilizer of a minimal block system (standard Luks
reduction; no giant-representation shortcut, which keeps answers exact at
the cost of the quasipolynomial speedup).  The transversal lists only the
shifts that carry every block onto a block with the same member cuts: each
block's key is the sorted list, over the members, of the sorted letters of
the member inside the block.  An isomorphism sends members to members, so a
shift whose keys differ has an empty piece, and the filter is exact.  A
shift whose block image already lies in the block image of the union of the
pieces found so far is skipped before its piece is asked: the union's group
holds the piece of the kernel K, K ∩ Aut(x), so a union element u in
K * delta brings the whole piece (K ∩ Aut(x)) * u with it.  The skipped
pieces would add nothing, so the answer is the one without the skip.

The recursion terminates: a family query spawns family queries of smaller
degree or order (orbit windows, the balanced coset, block-kernel pieces)
plus one-member string queries (occupancy strings and window products).  A
one-member string is balanced on every orbit, and its windows combine on a
1 × 1 product, a string under the trivial group; so its own recursion
spawns only one-member queries of smaller degree or order.

Where the group's order is at most ``DIRECT_ENUM_CUTOFF`` (10^5; the
constant's comment holds the measurements that chose it), or the group is
primitive, or the kernel of the block action is trivial (each shift's piece
is then one element), ``PermGroup.search_coset`` lists the isomorphisms by
a search pruned by letters (``_iso_search``, the first refiner of Leon's
partition backtrack): it walks the stabilizer chain in the order of
``PermGroup.elements`` and drops a prefix as soon as, for some class whose
points it has fixed, the letters of x at those points and of y at their
images differ as multisets of member signatures.  The search
fixes every point, and once it has, the test says exactly that g maps every
member of x onto a member of y; so the search yields exactly the elements a
full scan would accept, in the same order, with no check at the leaves.
``search_coset`` skips the prefixes its answer already covers (the
covered-prefix rule of the ``perm`` docstring), so the answer is the one a
full listing gives.  It ticks the query's one ``Budget`` on every accepted
prefix; a covered prefix ticks nothing.

``Budget`` is the one work bound of a query: every public query converts
its budget argument once, with ``Budget.of``, and hands that object to
every nested call, so all its recursion nodes count against one limit.  The
budget is the only state the recursion carries.  Nested queries enter
``_gsi_group`` directly, not through a public front end: the occupancy
strings and window products are written by ``_string_family`` and answered
under the block or product action, so they tick the same budget and check
nothing again.

P-strings are moved and cut only through ``PPartition.image`` and
``PPartition.cut`` (see ``pstrings``); ``family_image_key``, built on the
former, is the reference test of x^g = y.  The group work is ``perm``'s:
answers on an orbit window, an occupancy string or a window product come
back through ``GroupHom.pull_back`` of the restriction or induced action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .perm import (CosetUnion, GroupHom, IsoCoset, PermGroup, Permutation, induced_action,
                   transversal_cosets)
from .pstrings import PPartition, PString, PStringFamily, harmonize_sentinels, make_family

# Up to this order the solver lists the isomorphisms, with covered prefixes
# skipped, instead of running the recursion.  Seed-1 perfbench runs of 10 s,
# two per bound (Python 3.11, 2 vCPUs of a shared Xeon host), read these
# queries/s on luks_strings / gsi_families / excluded_minor:
#   120:  155-160 / 205-206 / 539-560
#   10^4: 201-203 / 304 / 532-536
#   10^5: 255-267 / 408-436 / 563-577
#   10^6: 262-265 / 408-429 / 534-552
# 10^5 is the smallest bound on the plateau.  Small groups must list: a
# cutoff of 1 read 45-48 against 197-199 on gsi_families.  Large ones must
# not: listing every group blows up on S3 wr S10 and S8 wr S3, which the
# recursion answers in a fraction of a second.
DIRECT_ENUM_CUTOFF = 10 ** 5


class BudgetExceeded(RuntimeError):
    """The recursion explored more nodes than the configured cap."""


@dataclass
class SolverConfig:
    """The node cap of a query, in the form older callers pass it."""

    budget: Optional[int] = None


class Budget:
    """Mutable recursion-node counter shared by one query."""

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 0:
            raise ValueError("budget must be a non-negative node count")
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded("recursion budget of %d nodes exceeded" % self.limit)

    @classmethod
    def of(cls, arg: "BudgetArg") -> "Budget":
        """The budget of a query: a ``Budget`` goes on with the count of the
        query that holds it; a node cap, a ``SolverConfig`` or None (no cap)
        starts a count of its own."""
        if isinstance(arg, Budget):
            return arg
        if isinstance(arg, SolverConfig):
            arg = arg.budget
        return cls(arg)


BudgetArg = Union[int, SolverConfig, Budget, None]


@dataclass
class GsiInstance:
    """One generalized string isomorphism query.

    The partition must be invariant under the group; the two families are
    re-padded with a common sentinel on construction.
    """

    group: PermGroup
    partition: PPartition
    x: PStringFamily
    y: PStringFamily

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


def family_image_key(fam: PStringFamily, g: Permutation) -> frozenset:
    """Canonical key of fam^g without building the family object."""
    part = fam.partition
    return frozenset(part.image(part.members(m.class_id), m.letters, g)
                     for m in fam.members)


def _string_family(n: int, strings: Iterable[tuple]) -> PStringFamily:
    """The distinct strings on n points as the members of one family on the
    trivial partition; with no points there is no class, and no member."""
    return make_family(PPartition.trivial(n), [PString(0, s) for s in set(strings) if n])


def _iso_search(x: PStringFamily, y: PStringFamily,
                tick: Optional[Callable[[], None]] = None) -> tuple[object, Callable]:
    """The start state and ``step`` of a ``PermGroup.search`` over all points
    that yields the g with x^g = y, in ``group.elements()`` order.

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

    return (0, [[()] * len(ms) for ms in y_letters]), step


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
        xs = tuple(_occupancy_count(x, bad, c) for c in class_ids)
        image_orbit = shift.apply_set(bad)
        # pull the y-side counts back through the shift
        ys = tuple(_occupancy_count(y, image_orbit, x.partition.image_class(c, shift))
                   for c in class_ids)
        blocks = [frozenset(x.partition.members(c)) & bad for c in class_ids]
        hom = sub.block_action(blocks)
        fx, fy = (_string_family(len(class_ids), [s]) for s in (xs, ys))
        res = _gsi_group(hom.image(), fx.partition, fx, fy, budget)
        if res.is_empty:
            return IsoCoset.empty()
        new = hom.pull_back(res).shifted(shift)
        if new.group.order() >= sub.order():
            # all of Delta*delta respects the counts yet x[A] is unbalanced:
            # impossible for a transitive orbit, so this flags a logic error
            raise RuntimeError("balance made no progress on an unbalanced orbit")
        current = new


# -- CombineWindows ---------------------------------------------------------------

def check_window_automorphic(group: PermGroup, fam: PStringFamily,
                             window: Sequence[int]) -> bool:
    """Whether every generator of ``group`` maps fam[W] onto itself."""
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
    string isomorphism between the co-membership strings on the product of
    the pieces of x[W1] and of x[W2].
    """
    budget = Budget.of(budget)
    if coset.is_empty:
        return coset
    for w in (w1, w2):
        wset = frozenset(w)
        for g in coset.group.generators:
            if g.apply_set(wset) != wset:
                raise ValueError("window is not invariant under the group part")
    for w in (w1, w2):
        if w and not check_window_automorphic(coset.group, x, w):
            raise ValueError("group does not respect x on a window")
    w1, w2 = sorted(w1), sorted(w2)
    return _aligned(coset, y, lambda g, y_al: _combine_group(g, partition, x, y_al, w1, w2, budget))


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
        """Each member cut to a window, as (class, letters); None where its
        class misses the window."""
        return [(m.class_id, partition.cut(m.class_id, m.letters, windows[side]))
                if inside[side][m.class_id] else None for m in fam.members]

    v1 = sorted(set(pieces(x, 0)) - {None})
    v2 = sorted(set(pieces(x, 1)) - {None})
    index = [{piece: i for i, piece in enumerate(v)} for v in (v1, v2)]
    size = len(v1) * len(v2)

    def product_string(fam: PStringFamily) -> Optional[tuple]:
        """Letter 1 at (i, j) of V1 × V2 where a member has pieces i and j."""
        letters = [0] * size
        for p1, p2 in zip(pieces(fam, 0), pieces(fam, 1)):
            if p1 is not None and p2 is not None:
                if p1 not in index[0] or p2 not in index[1]:
                    return None
                letters[index[0][p1] * len(v2) + index[1][p2]] = 1
        return tuple(letters)

    sx, sy = product_string(x), product_string(y)
    if sy is None:
        return IsoCoset.empty()

    # one action per side, |V1| + |V2| piece images per generator, composed
    # into the action on V1 × V2
    acts = [induced_action(v, lambda cl, g, ins=ins: partition.image(ins[cl[0]], cl[1], g),
                           group.generators) for v, ins in zip((v1, v2), inside)]
    images = [Permutation([i * len(v2) + j for i in a1.images for j in a2.images])
              for a1, a2 in zip(*acts)]
    # the product of two induced actions is an action of the group
    hom = GroupHom(group, size, images, induced=True)
    fx, fy = (_string_family(size, [s]) for s in (sx, sy))
    return hom.pull_back(_gsi_group(hom.image(), fx.partition, fx, fy, budget))


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
        return group.search_coset(range(n), *_iso_search(x, y, budget.tick))

    orbits = group.orbits()
    if len(orbits) > 1:
        current = IsoCoset.full(group)
        for orb in orbits:
            current = enforce_window(current, partition, x, y, orb, budget)
            if current.is_empty:
                return current
        window = list(orbits[0])
        for orb in orbits[1:]:
            current = _aligned(current, y, lambda g, y_al: _combine_group(
                g, partition, x, y_al, window, list(orb), budget))
            if current.is_empty:
                return current
            window = sorted(set(window) | set(orb))
        return current

    # transitive: balance, then standard Luks reduction
    bal = balance_orbits(group, partition, x, y, budget)
    if bal.is_empty:
        return IsoCoset.empty()
    if bal.group.order() < group.order():
        return _gsi_coset(bal, partition, x, y, budget)

    blocks, primitive = group.minimal_block_system(range(n))
    if not primitive:
        hom = group.block_action(blocks)
        kernel = hom.kernel()
    if primitive or kernel.is_trivial():
        return group.search_coset(range(n), *_iso_search(x, y, budget.tick))
    # the exact shift filter of the module docstring
    block_of = {p: i for i, blk in enumerate(blocks) for p in blk}

    def cut_keys(fam: PStringFamily) -> list[list[tuple]]:
        return [sorted(tuple(sorted(partition.cut(m.class_id, m.letters, blk)))
                       for m in fam.members) for blk in blocks]

    x_keys, y_keys = cut_keys(x), cut_keys(y)

    def same_cuts(a: int, b: int) -> bool:
        return x_keys[block_of[a]] == y_keys[block_of[b]]

    mins = [min(blk) for blk in blocks]

    def on_blocks(g: Permutation) -> Permutation:
        return Permutation([block_of[g.images[p]] for p in mins])

    # the covered-shift skip of the module docstring: ``covered`` is the
    # union's block image, rebuilt when the union grows; a union that
    # reaches the group's order covers every later shift
    order = group.order()
    union = CosetUnion(n)
    covered = IsoCoset.empty()
    for delta in transversal_cosets(group, hom, mins, same_cuts):
        if covered.contains(on_blocks(delta)):
            continue
        budget.tick()
        if union.add(_gsi_coset(IsoCoset(kernel, delta), partition, x, y, budget)):
            if union.order() == order:
                break
            found = union.result()
            covered = IsoCoset(PermGroup([on_blocks(g) for g in found.group.generators],
                                         len(blocks)), on_blocks(found.rep))
    return union.result()


def _aligned(coset: IsoCoset, y: PStringFamily,
             solve: Callable[[PermGroup, PStringFamily], IsoCoset]) -> IsoCoset:
    """The answer in ``coset`` = group * rep from ``solve(group, y')`` on y'
    = y moved back by rep^-1, shifted by rep: x^(g * rep) = y exactly when
    x^g = y'.  A nonempty ``coset`` is assumed."""
    rep = coset.rep
    if rep.is_identity():
        return solve(coset.group, y)
    return solve(coset.group, y.apply(rep.inverse())).shifted(rep)


def _gsi_coset(coset: IsoCoset, partition: PPartition,
               x: PStringFamily, y: PStringFamily, budget: Budget) -> IsoCoset:
    if coset.is_empty:
        return coset
    return _aligned(coset, y, lambda g, y_al: _gsi_group(g, partition, x, y_al, budget))


def enforce_window(coset: IsoCoset, partition: PPartition,
                   x: PStringFamily, y: PStringFamily,
                   window: Sequence[int], budget: Budget) -> IsoCoset:
    """{gamma in coset : gamma[W] in Iso(x[W], y[W])} via a restricted call;
    the coset itself when it is empty or W is."""
    if coset.is_empty or not window:
        return coset

    def solve(group: PermGroup, y_al: PStringFamily) -> IsoCoset:
        sub, hom = group.restrict(window)
        x_w, y_w = x.restrict(window), y_al.restrict(window)
        if x_w.partition != y_w.partition:
            return IsoCoset.empty()
        return hom.pull_back(_gsi_group(sub, x_w.partition, x_w, y_w, budget))
    return _aligned(coset, y, solve)


def generalized_string_iso(inst: GsiInstance, budget: BudgetArg = None) -> IsoCoset:
    """Exactly Iso_Gamma(x, y) for a generalized string instance."""
    return _gsi_group(inst.group, inst.partition, inst.x, inst.y, Budget.of(budget))
