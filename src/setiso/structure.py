"""Structure trees and graphs, tree unfolding, and almost d-ary chains.

This module is the one place that builds, transports and reads structure
trees: ``orbit_trees`` and ``tree_from_chain`` build them from invariant
partition chains, ``map_token``/``relabel_arcs`` move pieces between blocks
and under group elements, and ``chain_of_branches`` reads a partition chain
off the maximal branches.  Vertices are canonical tokens built from the
points they sit above, so the group action on a structure graph is ordinary
relabeling and equivariance of constructed graphs can be validated instead of
trusted.  Token kinds:

    ('leaf', p)            a domain point
    ('grp', tag, fs)       a vertex above the frozenset ``fs`` of tokens
    ('pad', k, tok)        k-th padding vertex inserted above ``tok``
    ('tag', name)          an action-inert vertex (roots of joins)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .perm import GroupHom, PermGroup, Permutation


class BranchCapExceeded(RuntimeError):
    """A structure graph has more branches than the configured cap."""


class InvalidStructureGraph(ValueError):
    pass


DEFAULT_BRANCH_CAP = 10 ** 6


def map_token(tok, leaf, retag=None):
    """Rebuild a token bottom-up: ``leaf(p)`` replaces each ``('leaf', p)``,
    and ``retag``, when given, maps the tags of 'grp' and 'tag' vertices."""
    kind = tok[0]
    if kind == "leaf":
        return leaf(tok[1])
    if kind == "grp":
        return ("grp", retag(tok[1]) if retag else tok[1],
                frozenset(map_token(t, leaf, retag) for t in tok[2]))
    if kind == "pad":
        return ("pad", tok[1], map_token(tok[2], leaf, retag))
    if kind == "tag":
        return ("tag", retag(tok[1])) if retag else tok
    raise ValueError("unknown token kind %r" % (kind,))


def relabel_token(tok, g: Permutation):
    return map_token(tok, lambda p: ("leaf", g.images[p]))


def relabel_arcs(arcs: Iterable[tuple], g: Permutation) -> list[tuple]:
    """The image of a piece's arcs under a group element."""
    return [(relabel_token(u, g), relabel_token(v, g)) for u, v in arcs]


def token_key(tok):
    kind = tok[0]
    if kind == "leaf":
        return (0, tok[1])
    if kind == "tag":
        return (1, repr(tok[1]))
    if kind == "pad":
        return (2, tok[1], token_key(tok[2]))
    if kind == "grp":
        return (3, repr(tok[1]), tuple(sorted(token_key(t) for t in tok[2])))
    raise ValueError("unknown token kind %r" % (kind,))


def block_token(tag, points: Iterable[int]):
    return ("grp", tag, frozenset(("leaf", p) for p in points))


class StructureGraph:
    """Rooted simple acyclic digraph with leaf set Omega and a group action.

    ``action_maps`` gives one vertex map per group generator; when omitted the
    action is derived by token relabeling (only possible for canonical-token
    graphs).
    """

    def __init__(self, group: PermGroup, root, arcs: Iterable[tuple],
                 action_maps: Optional[Sequence[dict]] = None):
        self.group = group
        self.root = root
        self.arcs = frozenset(arcs)
        self.vertices = {root} | {u for u, _ in self.arcs} | {v for _, v in self.arcs}
        self._children: dict = {v: [] for v in self.vertices}
        self._parents: dict = {v: [] for v in self.vertices}
        for u, v in sorted(self.arcs, key=lambda a: (token_key(a[0]), token_key(a[1]))):
            self._children[u].append(v)
            self._parents[v].append(u)
        self.leaf_points = list(range(group.degree))
        if action_maps is not None:
            action_maps = [dict(m) for m in action_maps]
            if len(action_maps) != len(group.generators):
                raise InvalidStructureGraph("need one action map per generator")
        self.action_maps = action_maps
        self._depth = self._layering()
        self.validate()

    # -- shape -------------------------------------------------------------

    def children(self, v) -> list:
        return self._children[v]

    def depth(self, v) -> int:
        return self._depth[v]

    def _layering(self) -> dict:
        # undirected BFS distance from the root
        dist = {self.root: 0}
        queue = [self.root]
        while queue:
            v = queue.pop(0)
            for w in self._children[v] + self._parents[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def validate(self) -> None:
        if len(self._depth) != len(self.vertices):
            raise InvalidStructureGraph("graph is not connected")
        for u, v in self.arcs:
            if self._depth[u] + 1 != self._depth[v]:
                raise InvalidStructureGraph("arc (%r, %r) violates the layering" % (u, v))
        found_leaves = {v for v in self.vertices if not self._children[v]}
        expected = {("leaf", p) for p in self.leaf_points}
        if found_leaves != expected:
            raise InvalidStructureGraph("leaf set does not equal the expected domain")
        for g, amap in zip(self.group.generators, self._generator_maps()):
            if set(amap) != self.vertices or set(amap.values()) != self.vertices:
                raise InvalidStructureGraph("action is not a vertex permutation")
            for p in self.leaf_points:
                if amap[("leaf", p)] != ("leaf", g.images[p]):
                    raise InvalidStructureGraph("action does not extend the generator on leaves")
            if {(amap[u], amap[v]) for u, v in self.arcs} != self.arcs:
                raise InvalidStructureGraph("action does not map arcs to arcs")

    def _generator_maps(self) -> list[dict]:
        if self.action_maps is not None:
            return self.action_maps
        return [{v: relabel_token(v, g) for v in self.vertices} for g in self.group.generators]

    # -- branches ----------------------------------------------------------

    def count_maximal_branches(self) -> int:
        order = sorted(self.vertices, key=lambda v: self._depth[v])
        cnt = {v: 0 for v in self.vertices}
        cnt[self.root] = 1
        for v in order:
            for w in self._children[v]:
                cnt[w] += cnt[v]
        return sum(cnt[v] for v in self.vertices if not self._children[v])

    def maximal_branches(self, cap: int = DEFAULT_BRANCH_CAP) -> list[tuple]:
        """Root-to-leaf paths in lexicographic token order."""
        total = self.count_maximal_branches()
        if total > cap:
            raise BranchCapExceeded("structure graph has %d branches, cap is %d" % (total, cap))
        out: list[tuple] = []
        stack = [self.root]

        def dfs(v):
            if not self._children[v]:
                out.append(tuple(stack))
                return
            for w in self._children[v]:
                stack.append(w)
                dfs(w)
                stack.pop()

        dfs(self.root)
        return out

    def leaves_below(self, v) -> frozenset:
        """L(G, v): leaf points reachable from v."""
        seen = set()
        queue = [v]
        pts = set()
        while queue:
            u = queue.pop()
            if u in seen:
                continue
            seen.add(u)
            if not self._children[u]:
                pts.add(u[1])
            queue.extend(self._children[u])
        return frozenset(pts)


def branch_leaf(branch: tuple) -> int:
    """L(branch): the point of the leaf a maximal branch ends in."""
    return branch[-1][1]


def unfold_and_act(sg: StructureGraph) -> tuple[StructureGraph, GroupHom, list[tuple]]:
    """Tree unfolding plus the standard action on maximal branches.

    Returns ``(tree, psi, branches)``: the unfolded structure tree for the
    image group, the homomorphism psi onto Sym(branches), and the maximal
    branches in their canonical order.  L commutes: the leaf of a mapped
    branch is the image of the branch's leaf.
    """
    branches = sg.maximal_branches()
    index = {b: i for i, b in enumerate(branches)}
    gen_images = []
    for amap in sg._generator_maps():
        images = [0] * len(branches)
        for b, i in index.items():
            mapped = tuple(amap[v] for v in b)
            images[i] = index[mapped]
        gen_images.append(Permutation(images))
    psi = GroupHom(sg.group, len(branches), gen_images)

    prefixes: dict[tuple, int] = {}
    for b in branches:
        for k in range(1, len(b) + 1):
            prefixes.setdefault(b[:k], len(prefixes))

    def node(prefix: tuple):
        if prefix in index:
            return ("leaf", index[prefix])
        return ("tag", ("br", prefixes[prefix]))

    arcs = set()
    for b in branches:
        for k in range(1, len(b)):
            arcs.add((node(b[:k]), node(b[: k + 1])))
    image_group = psi.image()
    maps = []
    for amap, img in zip(sg._generator_maps(), gen_images):
        m = {}
        for prefix in prefixes:
            mapped = tuple(amap[v] for v in prefix)
            m[node(prefix)] = node(mapped)
        maps.append(m)
    tree = StructureGraph(image_group, node(branches[0][:1]), arcs, action_maps=maps)
    return tree, psi, branches


# -- partition chains ----------------------------------------------------------

@dataclass(frozen=True)
class PartitionChain:
    """A strictly refining sequence of partitions from {domain} to singletons."""

    domain: tuple[int, ...]
    levels: tuple[tuple[frozenset, ...], ...]

    def __post_init__(self):
        dom = frozenset(self.domain)
        if not self.levels:
            raise ValueError("chain needs at least one level")
        if set(self.levels[0]) != {dom}:
            raise ValueError("level 0 must be the whole domain")
        if {frozenset({p}) for p in dom} != set(self.levels[-1]):
            raise ValueError("last level must be the singletons")
        for prev, cur in zip(self.levels, self.levels[1:]):
            if set(prev) == set(cur):
                raise ValueError("levels must strictly refine")
            for b in cur:
                if not any(b <= a for a in prev):
                    raise ValueError("levels must refine the previous level")

    @classmethod
    def from_partitions(cls, domain: Iterable[int], partitions: Iterable[Iterable[frozenset]]
                        ) -> "PartitionChain":
        """Normalize a refining sequence: sort blocks, drop repeated levels."""
        levels = []
        for part in partitions:
            level = tuple(sorted((frozenset(b) for b in part), key=min))
            if not levels or set(levels[-1]) != set(level):
                levels.append(level)
        return cls(tuple(sorted(domain)), tuple(levels))

    @property
    def length(self) -> int:
        return len(self.levels) - 1

    def level_index_of(self, partition: Iterable[frozenset]) -> int:
        want = set(frozenset(b) for b in partition)
        for i, level in enumerate(self.levels):
            if set(level) == want:
                return i
        raise ValueError("partition is not a level of this chain")

    def restrict(self, points: Iterable[int], start: int = 0) -> "PartitionChain":
        pts = frozenset(points)
        parts = []
        for level in self.levels[start:]:
            parts.append([b & pts for b in level if b & pts])
        return PartitionChain.from_partitions(pts, parts)

    def is_invariant_under(self, group: PermGroup) -> bool:
        for level in self.levels:
            blocks = set(level)
            for g in group.generators:
                if {g.apply_set(b) for b in blocks} != blocks:
                    return False
        return True


def _is_semiregular(action: PermGroup) -> bool:
    # every point stabilizer is trivial iff every orbit is as long as the group
    order = action.order()
    return all(len(orb) == order for orb in action.orbits())


@dataclass(frozen=True)
class LevelWitness:
    level: int
    block: frozenset
    fanout: int
    semiregular: bool

    def passes(self, d: int) -> bool:
        return self.fanout <= d or self.semiregular


def certify_chain(chain: PartitionChain, group: PermGroup) -> list[LevelWitness]:
    """Per-(level, block) fan-out and semi-regularity records."""
    if not chain.is_invariant_under(group):
        raise ValueError("chain is not invariant under the group")
    out = []
    for i in range(1, len(chain.levels)):
        coarse = sorted(chain.levels[i - 1], key=min)
        fine = chain.levels[i]
        for idx, block in enumerate(coarse):
            children = sorted((b for b in fine if b <= block), key=min)
            fanout = len(children)
            if fanout == 1:
                out.append(LevelWitness(i, block, 1, True))
                continue
            stab = group.block_stabilizer(coarse, idx)
            child_hom = stab.block_action(children)
            semi = _is_semiregular(child_hom.image())
            out.append(LevelWitness(i, block, fanout, semi))
    return out


def is_almost_d_ary(chain: PartitionChain, group: PermGroup, d: int
                    ) -> tuple[bool, list[LevelWitness]]:
    """True iff every (level, block) has fan-out <= d or a semi-regular action."""
    witnesses = certify_chain(chain, group)
    return all(w.passes(d) for w in witnesses), witnesses


def certified_arity(chain: PartitionChain, group: PermGroup) -> int:
    """Smallest d for which the chain is almost d-ary (at least 2)."""
    witnesses = certify_chain(chain, group)
    return max([2] + [w.fanout for w in witnesses if not w.semiregular])


# -- chain construction --------------------------------------------------------

def invariant_chain(group: PermGroup, domain: Sequence[int]) -> list[list[frozenset]]:
    """Chain of iterated minimal block systems on one transitive orbit.

    Every level is a group-invariant equipartition of the orbit; each step
    refines by one minimal block system of the block stabilizer, so the
    induced per-block actions are primitive.
    """
    dom = sorted(domain)
    levels = [[frozenset(dom)]]
    while True:
        current = sorted(levels[-1], key=min)
        big = [b for b in current if len(b) > 1]
        if not big:
            return levels
        b0_idx = current.index(min(big, key=min))
        b0 = current[b0_idx]
        if len(current) == 1:
            stab = group
        else:
            stab = group.block_stabilizer(current, b0_idx)
        sub_blocks, _ = stab.minimal_block_system(sorted(b0))
        seed = min(sub_blocks, key=min)
        orbit = {seed}
        queue = [seed]
        while queue:
            blk = queue.pop(0)
            for g in group.generators:
                img = g.apply_set(blk)
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        levels.append(sorted(orbit, key=min))


def tree_from_chain(points: Sequence[int], partitions: Sequence[Sequence[frozenset]],
                    tag) -> tuple:
    """Arcs of the structure tree of a refining partition sequence.

    Vertices are ``('grp', (tag, level), block)`` tokens, except the last
    level which maps to leaf tokens.  Blocks that become singletons early are
    carried down by unary arcs until the final level.  Returns
    ``(root, arcs)``; a one-point chain gives the bare leaf and no arcs.
    """
    pts = sorted(points)

    def tok(level: int, block: frozenset):
        if level == len(partitions) - 1:
            if len(block) != 1:
                raise InvalidStructureGraph("last level must be singletons")
            (p,) = block
            return ("leaf", p)
        return ("grp", (tag, level), frozenset(("leaf", p) for p in block))

    arcs = []
    for i in range(1, len(partitions)):
        for child in partitions[i]:
            parent = next(b for b in partitions[i - 1] if child <= b)
            arcs.append((tok(i - 1, parent), tok(i, child)))
    return tok(0, frozenset(pts)), arcs


def orbit_trees(group: PermGroup, points: Iterable[int], tag) -> list[tuple]:
    """One structure tree ``(root, arcs)`` per orbit of ``group`` on the
    invariant set ``points``, from ``invariant_chain``; a fixed point is a
    bare leaf.  Orbits come in order of their least point."""
    pieces = []
    seen: set[int] = set()
    for p in sorted(points):
        if p not in seen:
            orb = group.orbit(p)
            seen.update(orb)
            pieces.append(tree_from_chain(orb, invariant_chain(group, orb), tag))
    return pieces


def chain_of_branches(branches: Sequence[tuple], label=None) -> PartitionChain:
    """The partition chain of maximal branches, levels indexed by depth: two
    branches share a block at depth k iff their first k+1 vertices agree.

    Points are branch indices, or ``label(branch)`` when given.
    """
    points = [label(b) for b in branches] if label else list(range(len(branches)))
    parts = []
    for k in range(max(len(b) for b in branches)):
        groups: dict[tuple, list[int]] = {}
        for p, b in zip(points, branches):
            groups.setdefault(b[: k + 1], []).append(p)
        parts.append([frozenset(v) for v in groups.values()])
    return PartitionChain.from_partitions(points, parts)


def build_structure_graph(group: PermGroup) -> tuple[StructureGraph, int, PartitionChain]:
    """Best-effort almost d-ary structure tree for an arbitrary group.

    Builds the chain of iterated minimal block systems per orbit and joins the
    orbit trees under a fresh root.  Always succeeds; the returned arity is
    the smallest d' for which the result is certifiably almost d'-ary.
    """
    pieces = orbit_trees(group, range(group.degree), "lvl")
    if len(pieces) == 1:
        root, arcs = pieces[0]
    else:
        root = ("tag", ("join",))
        arcs = [(root, r) for r, _ in pieces] + [a for _, piece in pieces for a in piece]
    sg = StructureGraph(group, root, arcs)
    chain = chain_of_tree(sg)
    return sg, certified_arity(chain, group), chain


def chain_of_tree(sg: StructureGraph) -> PartitionChain:
    """Partition chain of a structure TREE over its own leaf points."""
    branches = sg.maximal_branches()
    if len(branches) != len(sg.leaf_points):
        raise InvalidStructureGraph("graph is not a tree: branch and leaf counts differ")
    return chain_of_branches(branches, label=branch_leaf)


def combine_along_blocks(group: PermGroup, blocks: Sequence[frozenset],
                         top: StructureGraph,
                         bottoms) -> StructureGraph:
    """Structure graph for the whole group from a top graph over a block
    system and per-block bottom graphs.

    ``top`` is a structure graph for the induced block action (its leaf
    points are block indices, blocks sorted by minimum element).  ``bottoms``
    maps each block index to a structure graph piece given as ``(root, arcs)``
    whose leaves are the block's points; alternatively a single piece for
    block 0 is transported to the other blocks along the breadth-first
    movers of the block action.  The result exposes, for every block B, a
    node v_B with L(G, v_B) = B; validation raises if the pieces are not
    equivariant.
    """
    if isinstance(bottoms, dict):
        pieces = dict(bottoms)
    else:
        movers = group.orbit_transversal(0, group.block_action(blocks).gen_images)
        if len(movers) < len(blocks):
            raise InvalidStructureGraph("block action is not transitive; pass explicit bottoms")
        root0, arcs0 = bottoms
        pieces = {idx: (relabel_token(root0, g), relabel_arcs(arcs0, g))
                  for idx, g in movers.items()}

    def lift(tok):
        return map_token(tok, lambda idx: pieces[idx][0], lambda t: ("top", t))

    arcs = [(lift(u), lift(v)) for u, v in top.arcs]
    for _, piece_arcs in pieces.values():
        arcs.extend(piece_arcs)
    return StructureGraph(group, lift(top.root), arcs)
