"""Desk-scale local certificates.

Giant representations are discovered from minimal block actions only; the
certificate loop is a single-pair rendition of the windowed growth process:
compute the affected points, enforce the isomorphism condition there, combine
with the window accumulated so far, simplify to restore window-simplicity,
and stop either when the group's image on the test set stops being a giant
(non-fullness) or when all affected points lie inside the window (fullness).

Fullness certificates verify their giant-image claim explicitly instead of
relying on the unaffected-stabilizer theorem, whose hypothesis k > max(8,
2 + log2 d) is out of reach for desk-scale test sets.

The loop exits with ``(kind, state, iterations, group)``: ``group`` is the
window fixer when a one-side run ends 'full', None when the pair is
'distinguished', and otherwise the final group's projection on T.
``local_certificate_pair`` carries it back to the original domain and test
set in one place.  One test finds the affected points, for
``affected_points`` and inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .perm import GroupHom, IsoCoset, PermGroup, Permutation, is_giant
from .pstrings import PPartition, PStringFamily
from .simplify import simplify_on_window
from .solver import Budget, BudgetArg, balance_orbits, combine_windows, enforce_window
from .structure import PartitionChain


class LocalCertificateError(RuntimeError):
    pass


@dataclass(frozen=True)
class GiantRep:
    """A homomorphism onto Sym(k) whose image contains Alt(k)."""

    hom: GroupHom
    flavor: str  # 'sym' or 'alt'
    k: int

    def apply(self, g: Permutation) -> Permutation:
        return self.hom.apply(g)


def find_giant_rep(group: PermGroup) -> Optional[GiantRep]:
    """The minimal-block-action giant representation, if one exists.

    Only block actions are inspected (the general construction needs
    classification-grade machinery); for a primitive group the natural action
    itself is the candidate.  Requires at least 5 block-action points.
    """
    n = group.degree
    if not group.is_transitive_on(range(n)):
        raise ValueError("giant representations are searched for transitive groups")
    if n < 5:
        return None
    blocks, primitive = group.minimal_block_system(range(n))
    hom = group.block_action(blocks)
    k = len(blocks)
    if k < 5:
        return None
    flavor = is_giant(hom.image(), range(k))
    if flavor is None:
        return None
    return GiantRep(hom, flavor, k)


def _giant(group: PermGroup) -> bool:
    return is_giant(group, range(group.degree)) is not None


def _image(group: PermGroup, phi, k: int) -> PermGroup:
    """The group on k points generated by phi of ``group``'s generators."""
    return PermGroup([phi(g) for g in group.generators], k)


def _affected(group: PermGroup, phi, k: int) -> list[int]:
    """The points whose stabilizer's image under phi is no giant on k points."""
    return [alpha for alpha in range(group.degree)
            if not _giant(_image(group.pointwise_stabilizer([alpha]), phi, k))]


def affected_points(delta: PermGroup, rep: GiantRep) -> list[int]:
    """{alpha : (delta_alpha)^phi does not contain Alt(k)}."""
    return _affected(delta, rep.apply, rep.k)


@dataclass(frozen=True)
class Certificate:
    """Full(group on Omega) or NonFull(non-giant group on T, plus a T1->T2 map)."""

    kind: str  # 'full' | 'nonfull'
    group: PermGroup
    mapping: Optional[tuple[int, ...]] = None  # images of sorted(T1) in T2


@dataclass
class LocalCertResult:
    cert_x: Certificate
    cert_y: Certificate
    compare_group: PermGroup          # on relabeled T1 points
    compare_map: Optional[tuple[int, ...]]  # sorted(T1) -> T2, None if empty
    compare_empty: bool
    iterations: int


def _set_mover(rep: GiantRep, t1: Sequence[int], t2: Sequence[int]) -> Optional[Permutation]:
    """A source-group element whose image maps T1 onto T2 setwise."""
    k = rep.k
    t1, t2 = sorted(t1), sorted(t2)
    c1 = sorted(set(range(k)) - set(t1))
    c2 = sorted(set(range(k)) - set(t2))
    images = [0] * k
    for a, b in zip(t1, t2):
        images[a] = b
    for a, b in zip(c1, c2):
        images[a] = b
    sigma = Permutation(images)
    pre = rep.hom.preimage(sigma)
    if pre is not None:
        return pre
    # fix the parity inside T2 or its complement and retry
    fix = c2 if len(c2) >= 2 else t2
    if len(fix) < 2:
        return None
    swap = Permutation.from_cycles(k, [fix[0], fix[1]])
    return rep.hom.preimage(sigma * swap)


class _LoopState:
    """Everything the growth loop tracks for one (aligned) pair."""

    def __init__(self, group: PermGroup, partition: PPartition,
                 x: PStringFamily, y: PStringFamily, chain: PartitionChain,
                 tau: GroupHom, rho1: Permutation, rho2: Permutation, d: int):
        self.group = group
        self.partition = partition
        self.x = x
        self.y = y
        self.chain = chain
        self.tau = tau          # current domain -> original Gamma
        self.rho1 = rho1        # alignment of x back to the original
        self.rho2 = rho2
        self.window: list[int] = []
        self.d = d


def _grow(state: _LoopState, grow: list[int], self_pair: bool, budget: Budget):
    """Enforce the pair on the grown window and simplify there: the class
    that holds both families, or None when the pair is distinguished."""
    window = set(state.window)
    new_window = [p for p in grow if p not in window]
    part, x, y = state.partition, state.x, state.y
    coset = None
    for step in (lambda c: balance_orbits(state.group, part, x, y, budget),
                 lambda c: enforce_window(c, part, x, y, new_window, budget),
                 lambda c: combine_windows(c, part, x, y, state.window, new_window,
                                           budget)):
        coset = step(coset)
        if self_pair:
            coset = coset.normalized()
        if coset.is_empty:
            return None
    delta = coset.rep
    if not delta.is_identity():
        state.y = state.y.apply(delta.inverse())
        state.rho2 = state.tau.apply(delta) * state.rho2
    state.group = coset.group
    state.window = grow
    fams = [state.x] if self_pair else [state.x, state.y]
    classes = simplify_on_window(fams, state.group, state.partition,
                                 state.window, state.chain, state.d, budget)
    if self_pair:
        return classes[0]
    return next((c for c in classes if set(c.indices) == {0, 1}), None)


def _run_loop(group_t: PermGroup, rep: GiantRep, tset: list[int],
              partition: PPartition, x: PStringFamily, y: PStringFamily,
              chain: PartitionChain, rho2_init: Permutation, d: int,
              self_pair: bool, budget: Budget):
    """The growth loop on the sorted test set; returns ``(kind, state,
    iterations, group)``.

    Exit kinds: 'full' (affected points inside the window, giant image
    verified), 'nonfull' (image on T stopped being a giant), 'distinguished'
    (the pair cannot be isomorphic; exact emptiness).  ``group`` is the
    window fixer for 'full' on a self pair, None for 'distinguished', and
    the final group's projection on T otherwise.
    """
    n0, k = group_t.degree, len(tset)
    state = _LoopState(group_t, partition, x, y, chain,
                       GroupHom(group_t, n0, list(group_t.generators)),
                       Permutation.identity(n0), rho2_init, d)

    def psi(g: Permutation) -> Permutation:
        return rep.apply(state.tau.apply(g)).restrict(tset)

    for iteration in range(n0 + 1):
        image = _image(state.group, psi, k)
        if not _giant(image):
            return "nonfull", state, iteration, image
        window = set(state.window)
        affected = _affected(state.group, psi, k)
        if set(affected) <= window:
            fixer = state.group.pointwise_stabilizer(
                set(range(state.group.degree)) - window)
            if not _giant(_image(fixer, psi, k)):
                raise LocalCertificateError(
                    "window stabilizer lost the giant image; the unaffected-"
                    "stabilizer guarantee needs a larger test set than %d" % k)
            return "full", state, iteration, fixer if self_pair else image

        holder = _grow(state, sorted(window | set(affected)), self_pair, budget)
        if holder is None:
            return "distinguished", state, iteration, None
        lam = dict(zip(holder.indices, holder.shifts))
        old_tau = state.tau
        state.rho1 = old_tau.apply(lam[0]) * state.rho1
        if not self_pair:
            state.rho2 = old_tau.apply(lam[1]) * state.rho2
        images = [old_tau.apply(holder.phi.apply(g))
                  for g in holder.norm.group.generators]
        state.tau = GroupHom(holder.norm.group, n0, images)
        state.group = holder.norm.group
        state.partition = holder.norm.partition
        state.chain = holder.norm.chain
        state.d = holder.norm.certified_d
        state.x = holder.families[0]
        state.y = holder.families[0] if self_pair else holder.families[1]
        state.window = holder.window
    raise LocalCertificateError("iteration cap %d exceeded" % n0)


def local_certificate_pair(x: PStringFamily, y: PStringFamily,
                           group: PermGroup, rep: GiantRep,
                           t1: Sequence[int], t2: Sequence[int],
                           partition: PPartition, chain: PartitionChain,
                           d: int = 2, budget: BudgetArg = None) -> LocalCertResult:
    """Certificates for both sides plus the comparison coset on T1.

    The test sets are sets: repeated points count once.  Contracts: a Full
    certificate consists of automorphisms whose image induces at least Alt
    on the test set; a NonFull comparison coset contains every projection
    of an isomorphism aligning the test sets.  One budget bounds the three
    growth loops and the test-set stabilizer searches.
    """
    budget = Budget.of(budget)
    if partition.n != group.degree:
        raise ValueError("partition domain does not match the group degree")
    if x.partition != partition or y.partition != partition:
        raise ValueError("family partitions must equal the given partition")
    if rep.k < 5:
        raise ValueError("giant representation needs at least 5 points")
    t1s, t2s = sorted(set(t1)), sorted(set(t2))
    if len(t1s) != len(t2s):
        raise ValueError("test sets must have equal size")
    if not t1s:
        raise ValueError("test sets must hold at least one point")
    for tset in (t1s, t2s):
        if tset[0] < 0 or tset[-1] >= rep.k:
            raise ValueError("test sets must lie in 0..%d" % (rep.k - 1))
    n = group.degree

    def t_stab(tset: list[int]) -> PermGroup:
        # {g : g^phi maps T onto itself}
        image_stab = rep.hom.image().setwise_stabilizer(tset, budget.tick)
        return rep.hom.pull_back(IsoCoset.full(image_stab)).group

    def run(fx, fy, tset, stab, rho2, self_pair):
        # the loop's group carried back to the original domain and test set
        kind, state, iterations, found = _run_loop(
            stab, rep, tset, partition, fx, fy, chain, rho2, d, self_pair, budget)
        if kind == "full" and self_pair:
            found = PermGroup([state.rho1.inverse() * state.tau.apply(g) * state.rho1
                               for g in found.generators], n)
        elif found is not None:
            found = found.conjugate(rep.apply(state.rho1).restrict(tset))
        return kind, state, iterations, found

    def side(fam: PStringFamily, tset: list[int], stab: PermGroup):
        kind, _, iterations, found = run(fam, fam, tset, stab,
                                         Permutation.identity(n), True)
        return Certificate(kind, found, None if kind == "full" else tuple(tset)), iterations

    stab1 = t_stab(t1s)
    cert_x, it_x = side(x, t1s, stab1)
    cert_y, it_y = side(y, t2s, t_stab(t2s))

    # comparison run on the aligned pair
    mover = _set_mover(rep, t1s, t2s)
    kind, iterations = "distinguished", max(it_x, it_y)
    if mover is not None:
        kind, state, iterations, found = run(x, y.apply(mover.inverse()), t1s,
                                             stab1, mover, False)
    if kind == "distinguished":
        return LocalCertResult(cert_x, cert_y, PermGroup([], len(t1s)), None,
                               True, iterations)
    lam = rep.apply(state.rho1.inverse() * state.rho2)
    return LocalCertResult(cert_x, cert_y, found, tuple(lam.images[p] for p in t1s),
                           False, iterations)
