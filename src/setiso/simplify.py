"""Simplify-on-window: split every class by window-equivalence of its
strings, so the restriction of each family to the window becomes simple, then
renormalize the action to repair the partition chain.

Families whose occupancy statistics are non-isomorphic are separated into
different equivalence classes; within a class all families are aligned to the
representative so later steps can compare them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .normalize import NormalizedInstance, renormalize_families
from .perm import GroupHom, PermGroup, Permutation
from .pstrings import PPartition, PString, PStringFamily
from .solver import _check_window_automorphic
from .strings import Budget, BudgetArg, ColoredString, StringQuery, string_iso
from .structure import PartitionChain, is_almost_d_ary


@dataclass
class SimplifyClass:
    """One equivalence class of the simplification.

    ``shifts[k]`` is the alignment element for ``indices[k]`` on the original
    domain; isomorphisms translate per property (D):

        Iso(X_i, X_j) = shifts_i^-1 * phi(Iso(X_i*, X_j*)) * shifts_j
    """

    indices: list[int]
    norm: NormalizedInstance
    shifts: list[Permutation]
    phi: GroupHom  # from the renormalized group back into the original one
    window: list[int]

    @property
    def families(self) -> list[PStringFamily]:
        return self.norm.families


def _window_parts(fam: PStringFamily, window: set) -> dict[int, list[tuple]]:
    """Per class: the sorted list of distinct window restrictions."""
    part = fam.partition
    out: dict[int, set] = {c: set() for c in range(part.num_classes)}
    for m in fam.members:
        out[m.class_id].add(part.cut(m.class_id, m.letters, window))
    return {c: sorted(v) for c, v in out.items()}


def _occupancy_classes(acting_group: PermGroup, partition: PPartition,
                       families: Sequence[PStringFamily], window_pts,
                       budget: Budget):
    """Group families by isomorphism of their per-class occupancy strings.

    Each class record is ``(member_indices, refined_group, shifts)`` with
    shifts aligning every member to the first one.  The refined group
    stabilizes the occupancy string of the representative, so counts are
    respected class-by-class afterwards.
    """
    n = acting_group.degree
    off_set = set(range(n)) - set(window_pts)

    def occupancy_string(fam: PStringFamily) -> tuple:
        vals = []
        for c, pts in enumerate(fam.partition.classes()):
            inside = fam.occupancy(c)
            if any(p in off_set for p in pts):
                seen = {fam.partition.cut(c, m.letters, off_set)
                        for m in fam.members if m.class_id == c}
                off = len(seen)
            else:
                off = 0
            vals.append((inside, off))
        return tuple(vals)

    occ = [occupancy_string(f) for f in families]
    value_ids = {v: i for i, v in enumerate(sorted({x for o in occ for x in o}))}
    occ_strings = [ColoredString(tuple(value_ids[v] for v in o)) for o in occ]
    blocks = [frozenset(pts) for pts in partition.classes()]
    class_hom = acting_group.block_action(blocks)
    class_image = class_hom.image()

    reps: list[int] = []
    assigned: dict[int, tuple[int, Permutation]] = {}
    aut_groups: dict[int, PermGroup] = {}
    for i in range(len(families)):
        placed = False
        for r in reps:
            if occ[i] == occ[r] and families[i].key() == families[r].key():
                assigned[i] = (r, Permutation.identity(n))
                placed = True
                break
            res = string_iso(StringQuery(class_image, occ_strings[r],
                                         occ_strings[i], budget=budget))
            if res.is_empty:
                continue
            pulled = class_hom.pull_back(res)
            assigned[i] = (r, pulled.rep)
            aut_groups[r] = pulled.group
            placed = True
            break
        if not placed:
            reps.append(i)
            assigned[i] = (i, Permutation.identity(n))

    out = []
    for r in reps:
        if r not in aut_groups:
            res = string_iso(StringQuery(class_image, occ_strings[r],
                                         occ_strings[r], budget=budget))
            aut_groups[r] = class_hom.pull_back(res).group
        members = [i for i in range(len(families)) if assigned[i][0] == r]
        shifts = [assigned[i][1] for i in members]
        out.append((members, aut_groups[r], shifts))
    return out


def simplify_on_window(families: Sequence[PStringFamily], group: PermGroup,
                       partition: PPartition, window: Sequence[int],
                       chain: PartitionChain, d: int,
                       budget: BudgetArg = None) -> list[SimplifyClass]:
    """Split classes by window equivalence and renormalize.

    Preconditions (re-checked): all families agree on the window, the group
    respects each family there, the chain is almost d-ary and contains the
    partition.  Output classes coarsen isomorphism; within each class the
    families are window-simple and satisfy the coset identity (D).
    """
    budget = Budget.of(budget)
    wset = set(window)
    win_sorted = sorted(wset)
    n = group.degree

    if wset:
        ref = families[0].restrict(win_sorted).key()
        for fam in families[1:]:
            if fam.restrict(win_sorted).key() != ref:
                raise ValueError("families do not agree on the window")
        for fam in families:
            if not _check_window_automorphic(group, fam, win_sorted):
                raise ValueError("group does not respect a family on the window")
    j = chain.level_index_of(frozenset(pts) for pts in partition.classes())
    ok, _ = is_almost_d_ary(chain, group, d)
    if not ok:
        raise ValueError("chain is not almost %d-ary" % d)

    if not wset or families[0].restrict(win_sorted).is_simple():
        # nothing to split: group the families by occupancy, keep the domain
        return _simple_window_classes(families, group, partition, chain,
                                      win_sorted, d, budget)

    # step 1: split classes by window equivalence
    parts = _window_parts(families[0], wset)
    new_points = []
    for c, pts in enumerate(partition.classes()):
        for p in pts:
            for z in parts[c]:
                new_points.append((p, c, z))
    new_points.sort(key=lambda t: (t[0], t[2]))
    point_index = {pt: i for i, pt in enumerate(new_points)}
    n2 = len(new_points)

    inside = [partition.cut(c, pts, wset) for c, pts in enumerate(partition.classes())]

    def lift_perm(g: Permutation) -> Permutation:
        img = [0] * n2
        for i, (p, c, z) in enumerate(new_points):
            c2, z2 = (partition.image(inside[c], z, g) if inside[c]
                      else (partition.image_class(c, g), ()))
            img[i] = point_index[(g.images[p], c2, z2)]
        return Permutation(img)

    psi = GroupHom(group, n2, [lift_perm(g) for g in group.generators])
    lifted_group = psi.image()

    split_classes: dict[tuple, list[int]] = {}
    for i, (p, c, z) in enumerate(new_points):
        split_classes.setdefault((c, z), []).append(i)
    class_keys = sorted(split_classes, key=lambda k: min(split_classes[k]))
    split_partition = PPartition.from_classes(n2, [split_classes[k] for k in class_keys])
    class_of_key = {k: split_partition.class_of[min(split_classes[k])] for k in class_keys}

    def lift_family(fam: PStringFamily) -> PStringFamily:
        members = []
        for m in fam.members:
            pts = partition.members(m.class_id)
            z = partition.cut(m.class_id, m.letters, wset)
            target = class_of_key[(m.class_id, z)]
            tgt_pts = split_partition.members(target)
            letter_of = dict(zip(pts, m.letters))
            members.append(PString(target, tuple(
                letter_of[new_points[q][0]] for q in tgt_pts)))
        return PStringFamily(split_partition, members, sentinel=fam.sentinel)

    lifted_families = [lift_family(fam) for fam in families]
    lifted_window = [i for i, (p, c, z) in enumerate(new_points) if p in wset]

    # the split chain: preimages above the class level, per-part copies below
    chain_parts: list[list[frozenset]] = []
    for lvl in range(j + 1):
        chain_parts.append([
            frozenset(i for i, (p, _, _) in enumerate(new_points) if p in blk)
            for blk in chain.levels[lvl]
        ])
    chain_parts.append([frozenset(v) for v in split_classes.values()])
    for lvl in range(j + 1, len(chain.levels)):
        level_blocks = []
        for blk in chain.levels[lvl]:
            c = partition.class_of[min(blk)]
            for z in parts[c]:
                level_blocks.append(frozenset(
                    point_index[(p, c, z)] for p in blk))
        chain_parts.append(level_blocks)
    split_chain = PartitionChain.from_partitions(range(n2), chain_parts)

    groups_out: list[SimplifyClass] = []
    for members, refined, lifted_shifts in _occupancy_classes(
            lifted_group, split_partition, lifted_families, lifted_window, budget):
        aligned = []
        shifts = []
        for i, lam in zip(members, lifted_shifts):
            if lam.is_identity():
                aligned.append(lifted_families[i])
            else:
                aligned.append(lifted_families[i].apply(lam.inverse()))
            shifts.append(psi.preimage(lam))
        norm = renormalize_families(refined, split_partition, aligned,
                                    split_chain, j + 1, d)
        phi_images = []
        for g in norm.group.generators:
            lifted = norm.phi.preimage(g)
            back = psi.preimage(lifted)
            if back is None:
                raise RuntimeError("renormalized generator has no preimage")
            phi_images.append(back)
        phi = GroupHom(norm.group, n, phi_images)
        groups_out.append(SimplifyClass(
            indices=members,
            norm=norm,
            shifts=shifts,
            phi=phi,
            window=norm.pull_window(lifted_window),
        ))
    return groups_out


def _simple_window_classes(families, group, partition, chain, window, d,
                           budget) -> list[SimplifyClass]:
    n = group.degree
    chain_index = chain.level_index_of(
        frozenset(pts) for pts in partition.classes())
    out = []
    for members, refined, shifts in _occupancy_classes(
            group, partition, families, window, budget):
        aligned = [families[i] if s.is_identity() else families[i].apply(s.inverse())
                   for i, s in zip(members, shifts)]
        ident_hom = GroupHom(refined, n, list(refined.generators))
        norm = NormalizedInstance(
            group=refined,
            phi=ident_hom,
            partition=partition,
            chain=chain,
            chain_index=chain_index,
            point_map=tuple(range(n)),
            class_map=tuple(range(partition.num_classes)),
            families=aligned,
            certified_d=d,
            graph=None,
        )
        out.append(SimplifyClass(
            indices=members,
            norm=norm,
            shifts=shifts,
            phi=ident_hom,
            window=list(window),
        ))
    return out
