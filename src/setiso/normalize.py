"""Instance (re)normalization: rebuild the group action over tree branches so
that an almost d-ary partition chain through the class partition exists.

Both entry points share one assembler, which only puts layers together; the
trees themselves are built, moved and read by ``structure``.  A structure
tree has three layers: a prefix tree over the coarse chain levels, a middle
tree per block built from iterated minimal block systems of the induced
action on the classes inside the block, and one bottom tree per class.
Middle and bottom pieces are built once per orbit representative and
transported along breadth-first movers (``PermGroup.orbit_transversal``),
which keeps the whole graph closed under the group action (validated, not
assumed).  Class vertices are padded to a common depth so the translated
class partition is a single level of the resulting chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .perm import GroupHom, PermGroup, Permutation
from .pstrings import PPartition, PString, PStringFamily
from .structure import (
    PartitionChain,
    StructureGraph,
    block_token,
    branch_leaf,
    certified_arity,
    certify_chain,
    chain_of_branches,
    invariant_chain,
    map_token,
    orbit_trees,
    relabel_arcs,
    tree_from_chain,
    unfold_and_act,
)


def _cls_token(points) -> tuple:
    return block_token(("cls",), points)


@dataclass
class NormalizedInstance:
    """The translated instance together with its back-maps.

    ``point_map`` is f: Omega* -> Omega (branch to leaf), ``class_map`` is
    f': class ids of the new partition to class ids of the old one.
    """

    group: PermGroup
    phi: GroupHom
    partition: PPartition
    chain: PartitionChain
    chain_index: int
    point_map: tuple[int, ...]
    class_map: tuple[int, ...]
    families: list[PStringFamily]
    certified_d: int
    graph: StructureGraph

    @property
    def domain_size(self) -> int:
        return len(self.point_map)

    def pull_window(self, window) -> list[int]:
        wset = set(window)
        return [i for i, p in enumerate(self.point_map) if p in wset]


def _assemble(group: PermGroup, partition: PPartition,
              prefix_levels: Sequence[Sequence[frozenset]],
              bottom_builder: Callable[[tuple], list[tuple]],
              ) -> tuple[StructureGraph, dict[int, tuple]]:
    """Build the layered structure tree; returns it with the class vertices."""
    n = group.degree
    classes = partition.classes()
    class_tokens = {c: _cls_token(pts) for c, pts in enumerate(classes)}

    arcs: list[tuple] = []

    def prefix_tok(level: int, blk: frozenset) -> tuple:
        return block_token(("lvl", level), blk)

    for i in range(1, len(prefix_levels)):
        for child in prefix_levels[i]:
            parent = next(b for b in prefix_levels[i - 1] if child <= b)
            arcs.append((prefix_tok(i - 1, parent), prefix_tok(i, child)))

    last = len(prefix_levels) - 1
    coarse = sorted(prefix_levels[last], key=min)

    if len(coarse) > 1:
        block_hom = group.block_action(coarse)
        block_acts = list(block_hom.gen_images)
    else:
        block_acts = [Permutation.identity(1) for _ in group.generators]

    seen_blocks: set[int] = set()
    for b_idx in range(len(coarse)):
        if b_idx in seen_blocks:
            continue
        movers = group.orbit_transversal(b_idx, block_acts)
        seen_blocks.update(movers)
        b0 = coarse[b_idx]
        if len(coarse) > 1:
            stab = group.block_stabilizer(coarse, b_idx)
        else:
            stab = group
        cls_ids = sorted((c for c, pts in enumerate(classes) if set(pts) <= b0),
                         key=lambda c: classes[c][0])
        index_acts = []
        for g in stab.generators:
            img = [0] * len(cls_ids)
            for qi, c in enumerate(cls_ids):
                img[qi] = cls_ids.index(partition.image_class(c, g))
            index_acts.append(Permutation(img))
        index_group = PermGroup(index_acts, max(len(cls_ids), 1))

        sub_arcs: list[tuple] = []
        seen_idx: set[int] = set()
        for q0 in range(len(cls_ids)):
            if q0 in seen_idx:
                continue
            deltas = stab.orbit_transversal(q0, index_acts)
            seen_idx.update(deltas)
            orbit_idx = sorted(deltas)

            # middle tree over the class indices of this orbit
            mid_levels = invariant_chain(index_group, orbit_idx)
            mid_root, mid_arcs = tree_from_chain(orbit_idx, mid_levels, tag="mid")

            def mid_vertex(tok):
                return map_token(tok, lambda q: class_tokens[cls_ids[q]],
                                 lambda t: ("mid",) + t)

            sub_arcs.append((prefix_tok(last, b0), mid_vertex(mid_root)))
            sub_arcs.extend((mid_vertex(u), mid_vertex(v)) for u, v in mid_arcs)

            # bottom tree for the representative class, transported in-orbit
            p0 = cls_ids[q0]
            pieces0 = bottom_builder(classes[p0])
            cls_arcs = [(class_tokens[p0], r) for r, _ in pieces0]
            cls_arcs += [a for _, piece in pieces0 for a in piece]
            for delta in deltas.values():
                sub_arcs.extend(relabel_arcs(cls_arcs, delta))

        # transport the whole block subgraph across the block orbit
        for mover in movers.values():
            arcs.extend(relabel_arcs(sub_arcs, mover))

    # pad every class vertex to a common depth
    arcs = _pad_class_vertices(arcs, set(class_tokens.values()),
                               prefix_tok(0, frozenset(range(n))))
    root = prefix_tok(0, frozenset(range(n))) if n else ("tag", ("empty",))
    sg = StructureGraph(group, root, arcs)
    return sg, class_tokens


def _pad_class_vertices(arcs: list[tuple], cls_tokens: set, root) -> list[tuple]:
    children: dict = {}
    for u, v in arcs:
        children.setdefault(u, []).append(v)
    depth = {root: 0}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in children.get(v, []):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    target = max((depth[c] for c in cls_tokens), default=0)
    out = []
    for u, v in arcs:
        if v in cls_tokens and depth[v] < target:
            gap = target - depth[v]
            prev = u
            for k in range(gap, 0, -1):
                pad = ("pad", k, v)
                out.append((prev, pad))
                prev = pad
            out.append((prev, v))
        else:
            out.append((u, v))
    return out


def _finish(group: PermGroup, partition: PPartition,
            families: Sequence[PStringFamily], sg: StructureGraph,
            class_tokens: dict[int, tuple]) -> NormalizedInstance:
    tree, psi, branches = unfold_and_act(sg)
    new_n = len(branches)
    point_map = tuple(branch_leaf(b) for b in branches)
    chain = chain_of_branches(branches)

    token_of = {v: c for c, v in class_tokens.items()}
    star_class_of = [0] * new_n
    star_classes: dict[tuple, list[int]] = {}
    for i, b in enumerate(branches):
        hit = next(k for k, v in enumerate(b) if v in token_of)
        star_classes.setdefault(b[: hit + 1], []).append(i)
    keys = sorted(star_classes, key=lambda k: min(star_classes[k]))
    class_map = []
    for new_c, key in enumerate(keys):
        for i in star_classes[key]:
            star_class_of[i] = new_c
        class_map.append(token_of[key[-1]])
    new_partition = PPartition(new_n, tuple(star_class_of))

    chain_index = chain.level_index_of(
        frozenset(pts) for pts in new_partition.classes())

    new_families = []
    for fam in families:
        members = []
        for m in fam.members:
            old_pts = fam.partition.members(m.class_id)
            letter_of = dict(zip(old_pts, m.letters))
            for new_c, old_c in enumerate(class_map):
                if old_c != m.class_id:
                    continue
                pts = new_partition.members(new_c)
                members.append(PString(new_c, tuple(letter_of[point_map[p]] for p in pts)))
        new_families.append(PStringFamily(new_partition, members, sentinel=fam.sentinel))

    new_group = psi.image()
    return NormalizedInstance(
        group=new_group,
        phi=psi,
        partition=new_partition,
        chain=chain,
        chain_index=chain_index,
        point_map=point_map,
        class_map=tuple(class_map),
        families=new_families,
        certified_d=certified_arity(chain, new_group),
        graph=sg,
    )


def normalize_families(group: PermGroup, partition: PPartition,
                       families: Sequence[PStringFamily]) -> NormalizedInstance:
    """Normalize a generalized string instance from scratch.

    Bottom trees come from iterated minimal block systems of each class
    stabilizer, a best-effort replacement for the general construction: no
    target arity is taken, and ``certified_d`` reports the arity reached.
    """
    for g in group.generators:
        if not partition.is_invariant_under(g):
            raise ValueError("partition is not invariant under the group")
    classes = sorted((frozenset(pts) for pts in partition.classes()), key=min)

    def bottom_builder(points: tuple) -> list[tuple]:
        # per-orbit minimal-block-system trees of the class stabilizer
        if len(classes) == 1:
            return orbit_trees(group, points, "blk")
        stab = group.block_stabilizer(classes, classes.index(frozenset(points)))
        return orbit_trees(stab, points, "blk")

    sg, class_tokens = _assemble(group, partition, [[frozenset(range(group.degree))]],
                                 bottom_builder)
    return _finish(group, partition, families, sg, class_tokens)


def renormalize_families(group: PermGroup, partition: PPartition,
                         families: Sequence[PStringFamily],
                         chain: PartitionChain, bad_level: int, d: int
                         ) -> NormalizedInstance:
    """Rebuild the chain around one offending level.

    Every level other than ``bad_level`` must already satisfy the almost
    d-ary condition; the level ``bad_level`` must equal the class partition.
    The prefix above and the suffix below are kept, the offending step is
    replaced by fresh middle trees over the classes within each block.
    """
    j = bad_level
    if not 1 <= j <= chain.length:
        raise ValueError("bad level index out of range")
    want = {frozenset(pts) for pts in partition.classes()}
    if set(chain.levels[j]) != want:
        raise ValueError("chain level %d does not equal the class partition" % j)
    if not chain.is_invariant_under(group):
        raise ValueError("chain is not invariant under the group")
    for w in certify_chain(chain, group):
        if w.level != j and not w.passes(d):
            raise ValueError(
                "hypothesis violated: level %d block %r has fan-out %d without "
                "semi-regular action" % (w.level, sorted(w.block), w.fanout))

    def bottom_builder(points: tuple) -> list[tuple]:
        return [tree_from_chain(points, chain.restrict(points, start=j).levels, tag="sub")]

    sg, class_tokens = _assemble(group, partition, chain.levels[:j], bottom_builder)
    return _finish(group, partition, families, sg, class_tokens)
