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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .perm import GroupHom, IsoCoset, PermGroup, Permutation, is_giant
from .pstrings import PPartition, PStringFamily
from .simplify import simplify_on_window
from .solver import _enforce_window, balance_orbits, combine_windows
from .strings import Budget, BudgetArg
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
    blocks, primitive = group.minimal_block_system(range(n))
    hom = group.block_action(blocks)
    k = len(blocks)
    if k < 5:
        return None
    flavor = is_giant(hom.image(), range(k))
    if flavor is None:
        return None
    return GiantRep(hom, flavor, k)


def affected_points(delta: PermGroup, rep: GiantRep) -> list[int]:
    """{alpha : (delta_alpha)^phi does not contain Alt(k)}."""
    out = []
    for alpha in range(delta.degree):
        stab = delta.pointwise_stabilizer([alpha])
        image = PermGroup([rep.apply(g) for g in stab.generators], rep.k)
        if is_giant(image, range(rep.k)) is None:
            out.append(alpha)
    return out


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
    c1 = [p for p in range(k) if p not in set(t1)]
    c2 = [p for p in range(k) if p not in set(t2)]
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


def _run_loop(group_t: PermGroup, rep: GiantRep, t1: Sequence[int],
              partition: PPartition, x: PStringFamily, y: PStringFamily,
              chain: PartitionChain, rho2_init: Permutation, d: int,
              self_pair: bool, budget: Budget):
    """The growth loop; returns (exit_kind, state, extras).

    exit kinds: 'full' (affected points inside the window, giant image
    verified), 'nonfull' (image on T stopped being a giant), 'distinguished'
    (the pair cannot be isomorphic; exact emptiness).
    """
    n0 = group_t.degree
    t_sorted = sorted(t1)
    ident = Permutation.identity(n0)
    state = _LoopState(group_t, partition, x, y, chain,
                       GroupHom(group_t, n0, list(group_t.generators)),
                       ident, rho2_init, d)

    def psi(g: Permutation) -> Permutation:
        return rep.apply(state.tau.apply(g)).restrict(t_sorted)

    def psi_group(g: PermGroup) -> PermGroup:
        return PermGroup([psi(h) for h in g.generators], len(t_sorted))

    for iteration in range(n0 + 1):
        image_t = psi_group(state.group)
        if is_giant(image_t, range(len(t_sorted))) is None:
            return "nonfull", state, {"iterations": iteration, "psi": psi}
        affected = []
        for alpha in range(state.group.degree):
            stab = state.group.pointwise_stabilizer([alpha])
            if is_giant(psi_group(stab), range(len(t_sorted))) is None:
                affected.append(alpha)
        if set(affected) <= set(state.window):
            inert = sorted(set(range(state.group.degree)) - set(state.window))
            fixer = state.group.pointwise_stabilizer(inert) if inert else state.group
            if is_giant(psi_group(fixer), range(len(t_sorted))) is None:
                raise LocalCertificateError(
                    "window stabilizer lost the giant image; the unaffected-"
                    "stabilizer guarantee needs a larger test set than %d"
                    % len(t_sorted))
            return "full", state, {"iterations": iteration, "fixer": fixer, "psi": psi}

        grow = sorted(set(affected) | set(state.window))
        new_window = [p for p in grow if p not in set(state.window)]

        coset = balance_orbits(state.group, state.partition, state.x, state.y, budget)
        if self_pair:
            coset = coset.normalized()
        if not coset.is_empty:
            coset = _enforce_window(coset, state.partition, state.x, state.y,
                                    new_window, budget)
            if self_pair:
                coset = coset.normalized()
        if not coset.is_empty:
            coset = combine_windows(coset, state.partition, state.x, state.y,
                                    state.window, new_window, budget)
            if self_pair:
                coset = coset.normalized()
        if coset.is_empty:
            return "distinguished", state, {"iterations": iteration, "psi": psi}

        delta = coset.rep
        if not delta.is_identity():
            state.y = state.y.apply(delta.inverse())
            state.rho2 = state.tau.apply(delta) * state.rho2
        state.group = coset.group
        state.window = grow

        fams = [state.x] if self_pair else [state.x, state.y]
        classes = simplify_on_window(fams, state.group, state.partition,
                                     state.window, state.chain, state.d, budget)
        if not self_pair:
            holder = next((c for c in classes if set(c.indices) == {0, 1}), None)
            if holder is None:
                return "distinguished", state, {"iterations": iteration, "psi": psi}
        else:
            holder = classes[0]

        lam = {idx: holder.shifts[k] for k, idx in enumerate(holder.indices)}
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

    Contracts: a Full certificate consists of automorphisms whose image
    induces at least Alt on the test set; a NonFull comparison coset contains
    every projection of an isomorphism aligning the test sets.  One budget
    bounds the three growth loops.
    """
    budget = Budget.of(budget)
    if rep.k < 5:
        raise ValueError("giant representation needs at least 5 points")
    if len(set(t1)) != len(set(t2)):
        raise ValueError("test sets must have equal size")
    if not t1:
        raise ValueError("test sets must hold at least one point")
    t1s, t2s = sorted(t1), sorted(t2)
    for tset in (t1s, t2s):
        if tset and (tset[0] < 0 or tset[-1] >= rep.k):
            raise ValueError("test sets must lie in 0..%d" % (rep.k - 1))
    n = group.degree

    def t_stab(tset: list[int]) -> PermGroup:
        # {g : g^phi maps T onto itself}
        image_stab = rep.hom.image().setwise_stabilizer(tset)
        return rep.hom.pull_back(IsoCoset.full(image_stab)).group

    def run_side(fam: PStringFamily, tset: list[int], stab: PermGroup):
        kind, state, extras = _run_loop(
            stab, rep, tset, partition, fam, fam, chain,
            Permutation.identity(n), d, True, budget)
        if kind == "full":
            fixer = extras["fixer"]
            gens = [state.rho1.inverse() * state.tau.apply(g) * state.rho1
                    for g in fixer.generators]
            return Certificate("full", PermGroup(gens, n)), extras["iterations"]
        psi = extras["psi"]
        proj = PermGroup([psi(g) for g in state.group.generators], len(tset))
        a1 = rep.apply(state.rho1).restrict(tset)
        conj = proj.conjugate(a1)
        return Certificate("nonfull", conj,
                           mapping=tuple(tset)), extras["iterations"]

    stab1 = t_stab(t1s)
    cert_x, it_x = run_side(x, t1s, stab1)
    cert_y, it_y = run_side(y, t2s, t_stab(t2s))

    # comparison run on the aligned pair
    mover = _set_mover(rep, t1s, t2s)
    if mover is None:
        return LocalCertResult(cert_x, cert_y, PermGroup([], len(t1s)), None,
                               True, max(it_x, it_y))
    y_aligned = y.apply(mover.inverse())
    kind, state, extras = _run_loop(
        stab1, rep, t1s, partition, x, y_aligned, chain, mover, d, False, budget)
    psi = extras["psi"]
    if kind == "distinguished":
        return LocalCertResult(cert_x, cert_y, PermGroup([], len(t1s)), None,
                               True, extras["iterations"])
    proj = PermGroup([psi(g) for g in state.group.generators], len(t1s))
    a1 = rep.apply(state.rho1).restrict(t1s)
    lam_full = rep.apply(state.rho1.inverse() * state.rho2)
    compare_map = tuple(lam_full.images[p] for p in t1s)
    compare_group = proj.conjugate(a1)
    return LocalCertResult(cert_x, cert_y, compare_group, compare_map, False,
                           extras["iterations"])
