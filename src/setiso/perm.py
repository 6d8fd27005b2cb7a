"""Exact permutation-group arithmetic.

Permutations act on the right: ``alpha ** g`` is the image of the point
``alpha`` and ``g * h`` means "apply g, then h".  Groups carry a base and
strong generating set built by a deterministic Schreier-Sims procedure, so
orders are exact arbitrary-precision integers and every derived object
(orbits, block systems, transversals, element enumeration) comes out in a
reproducible order.

Answers depend on that order: a query's representative and its automorphism
generators are the first elements the enumeration of ``elements()`` or
``transversal_cosets`` finds, so any change to the chain's shape (base,
generators placed at each level, tree shape) or to the enumeration order
changes output bytes.  Work is saved only where it leaves the chain and the
order as they are.  Two caches serve that:

- each chain level keeps the inverse of every transversal element next to
  the element, and the tree edges whose Schreier generators are trivial;
- ``GroupHom`` keeps its two chains over the combined source and target
  action.  The target-first chain serves ``preimage`` and also ``kernel``,
  whose generators it already holds; the source-first chain is built on the
  first ``apply``.

Every enumeration runs through one loop, ``_products``: a depth-first walk
over products of transversal elements that calls ``step(state,
final_points, images)`` at each depth where some watched points get their
final images, drops the prefix when ``step`` returns None and otherwise
hands its return value to the next depth.  ``elements``, ``elements_where``,
``search``, ``setwise_stabilizer`` and ``transversal_cosets`` are thin
adapters over it, so pruning never changes the order in which the survivors
come out.

The constructions the reductions need live here too, so no other module
builds them by hand: ``GroupHom.pull_back`` ({g : hom(g) in a coset}, from
the kernel's generators and preimages of the coset's),
``PermGroup.block_stabilizer`` (a pull-back through the block action),
``PermGroup.orbit_transversal`` (breadth-first movers along an orbit, also
over an induced action on blocks or classes) and ``IsoCoset.from_elements``
(the coset spanned by listed isomorphisms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence


class DegreeMismatch(ValueError):
    """Raised when permutations of different degrees are combined."""


class NotInvariant(ValueError):
    """Raised when a set that must be invariant under a group is not."""


class SearchCapExceeded(RuntimeError):
    """Raised when a backtrack or enumeration exceeds its node cap."""


class Permutation:
    """A bijection on {0..n-1} stored as an image table."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if not 0 <= i < n or seen[i]:
                raise ValueError("image table is not a bijection on 0..%d" % (n - 1))
            seen[i] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        # internal: the caller guarantees a bijection (compositions, inverses)
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._raw(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Sequence[int]) -> "Permutation":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot compose degree %d with degree %d" % (self.degree, other.degree))
        return Permutation._raw(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def apply_set(self, points: Iterable[int]) -> frozenset:
        return frozenset(self.images[p] for p in points)

    def restrict(self, points: Iterable[int]) -> "Permutation":
        """The action on an invariant set, relabeled to 0..|A|-1 in point order."""
        pts = sorted(set(points))
        pos = {p: i for i, p in enumerate(pts)}
        try:
            # an injective map of a finite set into itself is a bijection
            return Permutation._raw(tuple(pos[self.images[p]] for p in pts))
        except KeyError:
            raise NotInvariant("set is not invariant under the permutation") from None

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        s = 1
        for cyc in self.cycles():
            if len(cyc) % 2 == 0:
                s = -s
        return s

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "Permutation.identity(%d)" % self.degree
        body = "".join("(%s)" % " ".join(map(str, c)) for c in cycs)
        return "Perm[%d]%s" % (self.degree, body)


class _Level:
    """One level of a stabilizer chain: a base point with its Schreier tree.

    ``inverses[beta]`` is the inverse of ``transversal[beta]``.  ``edges``
    holds the pairs (beta, k) whose tree generator k discovered a new point
    from beta; their Schreier generators are the identity.
    """

    __slots__ = ("point", "gens", "transversal", "inverses", "edges")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self.inverses: dict[int, Permutation] = {}
        self.edges: set[tuple[int, int]] = set()

    def rebuild(self, degree: int, tree_gens: Sequence[Permutation]) -> None:
        """Breadth-first Schreier tree; generator order fixes the shape."""
        ident = Permutation.identity(degree)
        gen_invs = [g.inverse() for g in tree_gens]
        self.transversal = {self.point: ident}
        self.inverses = {self.point: ident}
        self.edges = set()
        queue = [self.point]
        for beta in queue:
            u = self.transversal[beta]
            u_inv = self.inverses[beta]
            for k, g in enumerate(tree_gens):
                gamma = g.images[beta]
                if gamma not in self.transversal:
                    self.transversal[gamma] = u * g
                    self.inverses[gamma] = gen_invs[k] * u_inv
                    self.edges.add((beta, k))
                    queue.append(gamma)


class PermGroup:
    """Permutation group with base, strong generating set and exact order."""

    def __init__(self, generators: Iterable[Permutation], degree: int,
                 base_prefix: Sequence[int] = ()):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree %d does not match %d" % (g.degree, degree))
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self._levels: list[_Level] = []
        self._build(base_prefix)

    # -- construction -----------------------------------------------------

    def _tree_gens(self, i: int) -> list[Permutation]:
        """Generators for the stabilizer at level i: those placed at levels >= i."""
        out = []
        for lvl in self._levels[i:]:
            out.extend(lvl.gens)
        return out

    def _rebuild_from(self, j: int) -> None:
        # a new generator at level j can enlarge every tree at levels <= j
        for k in range(min(j, len(self._levels) - 1), -1, -1):
            self._levels[k].rebuild(self.degree, self._tree_gens(k))

    def _build(self, base_prefix: Sequence[int]) -> None:
        for b in base_prefix:
            if not 0 <= b < self.degree:
                raise ValueError("points must lie in 0..%d" % (self.degree - 1))
            self._levels.append(_Level(b))
        for g in self.generators:
            self._ensure_base_covers(g)
        for lvl, g in self._initial_placements():
            self._levels[lvl].gens.append(g)
        self._rebuild_from(len(self._levels) - 1)
        i = len(self._levels) - 1
        while i >= 0:
            residue_info = self._first_bad_schreier(i)
            if residue_info is None:
                i -= 1
                continue
            residue, j = residue_info
            self._ensure_base_covers(residue)
            j = min(j, len(self._levels) - 1)
            self._levels[j].gens.append(residue)
            # the deeper levels (index > j) keep their trees and passed
            # this check already, so resume at level j
            self._rebuild_from(j)
            i = j

    def _ensure_base_covers(self, g: Permutation) -> None:
        if g.is_identity():
            return
        for lvl in self._levels:
            if g.images[lvl.point] != lvl.point:
                return
        for p in range(self.degree):
            if g.images[p] != p:
                self._levels.append(_Level(p))
                return

    def _initial_placements(self) -> list[tuple[int, Permutation]]:
        out = []
        for g in self.generators:
            for i, lvl in enumerate(self._levels):
                if g.images[lvl.point] != lvl.point:
                    out.append((i, g))
                    break
        return out

    def _first_bad_schreier(self, i: int) -> Optional[tuple[Permutation, int]]:
        """Sift the Schreier generators of level i through the chain below."""
        lvl = self._levels[i]
        tree_gens = self._tree_gens(i)
        ident = tuple(range(self.degree))
        for beta in sorted(lvl.transversal):
            u = lvl.transversal[beta].images
            for k, g in enumerate(tree_gens):
                if (beta, k) in lvl.edges:
                    continue
                t_inv = lvl.inverses[g.images[beta]].images
                schreier = tuple(map(t_inv.__getitem__, map(g.images.__getitem__, u)))
                residue, j = self._sift(schreier, i + 1)
                if residue != ident:
                    return Permutation._raw(residue), j
        return None

    def _sift(self, r: tuple, start: int) -> tuple[tuple, int]:
        """Sift an image table; return (residue table, level where it stopped)."""
        levels = self._levels
        for j in range(start, len(levels)):
            lvl = levels[j]
            beta = r[lvl.point]
            if beta == lvl.point:
                continue
            inv = lvl.inverses.get(beta)
            if inv is None:
                return r, j
            r = tuple(map(inv.images.__getitem__, r))
        return r, len(levels)

    # -- queries -----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._levels)

    def order(self) -> int:
        n = 1
        for lvl in self._levels:
            n *= max(1, len(lvl.transversal))
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self._sift(g.images, 0)
        return residue == tuple(range(self.degree))

    def is_trivial(self) -> bool:
        return self.order() == 1

    def elements(self) -> Iterator[Permutation]:
        """Every group element; order fixed by the transversal enumeration.

        Elements decompose uniquely as u_m * ... * u_0 with u_i a level-i
        transversal representative (deeper factors applied first).
        """
        yield from _products(self._tables(), Permutation.identity(self.degree))

    def elements_where(self, points: Iterable[int],
                       ok: Callable[[int, int], bool]) -> Iterator[Permutation]:
        """The elements g with ``ok(p, g(p))`` for every p in ``points``.

        Yields them in the order of :meth:`elements`.
        """
        yield from _products(self._tables(), Permutation.identity(self.degree),
                             points, True, _pointwise(ok))

    def search(self, points: Iterable[int], state: object,
               step: Callable[[object, list[int], tuple], object]) -> Iterator[Permutation]:
        """The elements every prefix of which ``step`` accepts, in the order
        of :meth:`elements`; see :func:`_products` for the contract."""
        yield from _products(self._tables(), Permutation.identity(self.degree),
                             points, state, step)

    def _tables(self) -> list[list[Permutation]]:
        return [[lvl.transversal[beta] for beta in sorted(lvl.transversal)]
                for lvl in self._levels if len(lvl.transversal) > 1]

    def orbit(self, point: int) -> list[int]:
        seen = {point}
        queue = [point]
        while queue:
            a = queue.pop(0)
            for g in self.generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return sorted(seen)

    def orbit_transversal(self, point: int,
                          actions: Optional[Sequence[Permutation]] = None
                          ) -> dict[int, Permutation]:
        """For each point of the orbit of ``point``, a group element moving
        ``point`` there: a product of generators, found breadth-first in
        generator order.

        ``actions[k]``, when given, is the action of generator k on another
        domain (block or class indices); the orbit is then taken there.
        """
        actions = self.generators if actions is None else actions
        out = {point: Permutation.identity(self.degree)}
        queue = [point]
        for q in queue:
            for act, g in zip(actions, self.generators):
                r = act.images[q]
                if r not in out:
                    out[r] = out[q] * g
                    queue.append(r)
        return out

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbit partition of the full domain, sorted by minimum element."""
        out = []
        seen = set()
        for p in range(self.degree):
            if p not in seen:
                orb = self.orbit(p)
                seen.update(orb)
                out.append(tuple(orb))
        return out

    def is_transitive_on(self, points: Sequence[int]) -> bool:
        pts = set(points)
        if not pts:
            return True
        return set(self.orbit(min(pts))) == pts

    def conjugate(self, s: Permutation) -> "PermGroup":
        s_inv = s.inverse()
        return PermGroup([s_inv * g * s for g in self.generators], self.degree)

    # -- block systems -----------------------------------------------------

    def min_block_containing(self, a: int, b: int, domain: Sequence[int]) -> list[frozenset]:
        """Finest block system (on ``domain``) whose blocks merge a with b.

        Atkinson's union-find algorithm; the group must be transitive on
        ``domain``.
        """
        parent: dict[int, int] = {p: p for p in domain}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> Optional[tuple[int, int]]:
            rx, ry = find(x), find(y)
            if rx == ry:
                return None
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            return rx, ry

        queue = []
        merged = union(a, b)
        if merged:
            queue.append(merged)
        while queue:
            x, y = queue.pop(0)
            for g in self.generators:
                m = union(g.images[x], g.images[y])
                if m:
                    queue.append(m)
        blocks: dict[int, list[int]] = {}
        for p in domain:
            blocks.setdefault(find(p), []).append(p)
        return [frozenset(v) for _, v in sorted(blocks.items())]

    def _has_nontrivial_blocks(self, domain: Sequence[int]) -> Optional[list[frozenset]]:
        dom = sorted(domain)
        a = dom[0]
        for b in dom[1:]:
            blocks = self.min_block_containing(a, b, dom)
            if 1 < len(blocks) < len(dom):
                return blocks
        return None

    def minimal_block_system(self, domain: Sequence[int]) -> tuple[list[frozenset], bool]:
        """A coarsest nontrivial block system on ``domain`` (a transitive orbit).

        Returns ``(blocks, primitive)``.  For a primitive action the blocks are
        the singletons and the flag is True; otherwise the induced action on
        the returned blocks is primitive.  Blocks are listed by minimum
        element.
        """
        dom = sorted(domain)
        if len(dom) == 1:
            return [frozenset(dom)], True
        blocks = self._has_nontrivial_blocks(dom)
        if blocks is None:
            return [frozenset([p]) for p in dom], True
        while True:
            blocks.sort(key=min)
            index = {}
            for i, blk in enumerate(blocks):
                for p in blk:
                    index[p] = i
            action = PermGroup(
                [Permutation([index[g.images[min(blocks[i])]] for i in range(len(blocks))])
                 for g in self.generators],
                len(blocks))
            coarser = action._has_nontrivial_blocks(range(len(blocks)))
            if coarser is None:
                return blocks, False
            blocks = [frozenset().union(*(blocks[i] for i in blk)) for blk in coarser]

    def block_action(self, blocks: Sequence[frozenset]) -> "GroupHom":
        """Homomorphism onto the induced action on an invariant block list."""
        blocks = sorted((frozenset(b) for b in blocks), key=min)
        index = {}
        for i, blk in enumerate(blocks):
            for p in blk:
                index[p] = i
        images = []
        for g in self.generators:
            img = [0] * len(blocks)
            for i, blk in enumerate(blocks):
                j = index.get(g.images[min(blk)])
                if j is None or blocks[j] != frozenset(g.images[p] for p in blk):
                    raise NotInvariant("block list is not invariant under the group")
                img[i] = j
            images.append(Permutation(img))
        return GroupHom(self, len(blocks), images)

    def block_stabilizer(self, blocks: Sequence[frozenset], idx: int) -> "PermGroup":
        """Setwise stabilizer of block ``idx`` (blocks sorted by minimum) of
        an invariant block list, pulled back through the block action."""
        hom = self.block_action(blocks)
        return hom.pull_back(IsoCoset.full(hom.image().stabilizer(idx))).group

    # -- stabilizers ---------------------------------------------------------

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        pts = sorted(set(points))
        if not pts:
            return self
        rebuilt = PermGroup(self.generators, self.degree, base_prefix=pts)
        gens = []
        for lvl in rebuilt._levels[len(pts):]:
            for g in lvl.gens:
                if g not in gens:
                    gens.append(g)
        gens = [g for g in gens if all(g.images[p] == p for p in pts)]
        return PermGroup(gens, self.degree)

    def setwise_stabilizer(self, points: Sequence[int], node_cap: int = 4_000_000) -> "PermGroup":
        """{g : points^g = points}, by a search over a chain based on the points.

        A prefix survives while every point it makes final stays inside or
        outside the set, as it was; the elements the search yields that the
        group found so far lacks become its generators.  Exponential in the
        worst case; intended for desk-scale sets.  Raises SearchCapExceeded
        once more than ``node_cap`` prefixes have been seen.
        """
        target = frozenset(points)
        if not target:
            return self
        chain = PermGroup(self.generators, self.degree, base_prefix=sorted(target))
        nodes = 0

        def step(state, final, images):
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                raise SearchCapExceeded("setwise stabilizer search exceeded %d nodes" % node_cap)
            for p in final:
                if (p in target) != (images[p] in target):
                    return None
            return state

        found: list[Permutation] = []
        known = PermGroup([], self.degree)
        for g in chain.search(range(self.degree), True, step):
            if not known.contains(g):
                found.append(g)
                known = PermGroup(found, self.degree)
        return known

    def stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer([point])

    # -- induced actions -----------------------------------------------------

    def restrict(self, points: Sequence[int]) -> tuple["PermGroup", "GroupHom"]:
        """Induced action on an invariant set, relabeled to 0..|A|-1.

        Points keep their relative order.  Returns the restricted group and
        the projection homomorphism.
        """
        pts = sorted(set(points))
        hom = GroupHom(self, len(pts), [g.restrict(pts) for g in self.generators])
        return hom.image(), hom


def is_giant(group: PermGroup, points: Sequence[int]) -> Optional[str]:
    """Classify the induced action on an invariant set: 'sym', 'alt' or None."""
    pts = sorted(set(points))
    k = len(pts)
    restricted = PermGroup([g.restrict(pts) for g in group.generators], k)
    if not restricted.is_transitive_on(range(k)) and k > 1:
        return None
    order = restricted.order()
    if order == math.factorial(k):
        return "sym"
    if order == max(1, math.factorial(k) // 2):
        return "alt"
    return None


class GroupHom:
    """A homomorphism given by images of the source group's generators.

    Evaluation, kernel and preimage all run over a combined action on the
    disjoint union of source and target domains, so everything stays exact
    and deterministic.
    """

    def __init__(self, source: PermGroup, target_degree: int,
                 images: Sequence[Permutation]):
        if len(images) != len(source.generators):
            raise ValueError("need one image per source generator")
        for im in images:
            if im.degree != target_degree:
                raise DegreeMismatch("image degree %d does not match target %d" % (im.degree, target_degree))
        self.source = source
        self.target_degree = target_degree
        self.gen_images = tuple(images)
        n, k = source.degree, target_degree
        self._combined = [
            Permutation(tuple(g.images) + tuple(n + j for j in im.images))
            for g, im in zip(source.generators, images)
        ]
        self._tgt_first = PermGroup(self._combined, n + k,
                                    base_prefix=self._moved(self._combined, n, n + k))
        if self._tgt_first.order() != source.order():
            raise ValueError("generator images do not define a homomorphism")

    @functools.cached_property
    def _src_first(self) -> PermGroup:
        # only apply() reads this chain, so it is built on first use
        n = self.source.degree
        return PermGroup(self._combined, n + self.target_degree,
                         base_prefix=self._moved(self._combined, 0, n))

    @staticmethod
    def _moved(perms: Sequence[Permutation], lo: int, hi: int) -> list[int]:
        return [p for p in range(lo, hi) if any(g.images[p] != p for g in perms)]

    def _walk(self, chain: PermGroup, want: dict[int, int]) -> Optional[Permutation]:
        """Find a combined element whose images agree with ``want`` on its keys."""
        acc = Permutation.identity(chain.degree)
        acc_inv = acc
        for lvl in chain._levels:
            if lvl.point not in want:
                break
            needed = acc_inv.images[want[lvl.point]]
            if needed not in lvl.transversal:
                return None
            acc = lvl.transversal[needed] * acc
            acc_inv = acc_inv * lvl.inverses[needed]
        for p, q in want.items():
            if acc.images[p] != q:
                return None
        return acc

    def apply(self, g: Permutation) -> Permutation:
        n = self.source.degree
        want = {p: g.images[p] for p in range(n)}
        combined = self._walk(self._src_first, want)
        if combined is None:
            raise ValueError("element is not in the source group")
        return Permutation([combined.images[n + j] - n for j in range(self.target_degree)])

    def image(self) -> PermGroup:
        return PermGroup(self.gen_images, self.target_degree)

    def kernel(self) -> PermGroup:
        # The target-first chain starts with the moved target points; the
        # strong generators placed after that prefix fix every target point
        # and generate the kernel.  They are the generators a pointwise
        # stabilizer of the prefix would return, so no chain is rebuilt.
        n = self.source.degree
        chain = self._tgt_first
        prefix = sum(1 for lvl in chain._levels if lvl.point >= n)
        if prefix == 0:
            gens = chain.generators
        else:
            gens = [g for lvl in chain._levels[prefix:] for g in lvl.gens]
        return PermGroup([Permutation._raw(g.images[:n]) for g in gens], n)

    def preimage(self, h: Permutation) -> Optional[Permutation]:
        """Some source element mapping to ``h``, or None."""
        if h.degree != self.target_degree:
            raise DegreeMismatch("preimage target has degree %d, expected %d" % (h.degree, self.target_degree))
        n = self.source.degree
        want = {n + j: n + h.images[j] for j in range(self.target_degree)}
        combined = self._walk(self._tgt_first, want)
        if combined is None:
            return None
        return Permutation(combined.images[:n])

    def pull_back(self, coset: "IsoCoset") -> "IsoCoset":
        """{g in source : hom(g) in coset} for a coset whose group lies in
        the image.

        Generated by the kernel's generators followed by one preimage of
        each generator of the coset's group; empty when the representative
        has no preimage.  Raises ValueError when a generator has none.
        """
        if coset.is_empty:
            return coset
        rep = self.preimage(coset.rep)
        if rep is None:
            return IsoCoset.empty()
        gens = list(self.kernel().generators)
        for c in coset.group.generators:
            pre = self.preimage(c)
            if pre is None:
                raise ValueError("coset does not lie in the image of the homomorphism")
            gens.append(pre)
        return IsoCoset(PermGroup(gens, self.source.degree), rep)


@dataclass(frozen=True)
class IsoCoset:
    """Either empty, or the coset ``group * rep`` inside Sym(n).

    The universal return type of every isomorphism query: when nonempty,
    ``group`` is the automorphism group of the first object and ``rep`` one
    isomorphism onto the second.
    """

    group: Optional[PermGroup]
    rep: Optional[Permutation]

    @classmethod
    def empty(cls) -> "IsoCoset":
        return cls(None, None)

    @classmethod
    def full(cls, group: PermGroup, rep: Optional[Permutation] = None) -> "IsoCoset":
        return cls(group, rep if rep is not None else Permutation.identity(group.degree))

    @classmethod
    def from_elements(cls, found: Sequence[Permutation], degree: int) -> "IsoCoset":
        """The coset spanned by listed isomorphisms, empty for an empty list.

        The first one is the representative; g * rep^-1 over the list
        generate the group.
        """
        if not found:
            return cls.empty()
        rep_inv = found[0].inverse()
        return cls(PermGroup([g * rep_inv for g in found], degree), found[0])

    @property
    def is_empty(self) -> bool:
        return self.group is None

    def order(self) -> int:
        return 0 if self.is_empty else self.group.order()

    def contains(self, g: Permutation) -> bool:
        if self.is_empty or g.degree != self.rep.degree:
            return False
        return self.group.contains(g * self.rep.inverse())

    def elements(self) -> Iterator[Permutation]:
        if self.is_empty:
            return
        for h in self.group.elements():
            yield h * self.rep

    def shifted(self, s: Permutation) -> "IsoCoset":
        """The coset ``group * (rep * s)``."""
        if self.is_empty:
            return self
        return IsoCoset(self.group, self.rep * s)

    def normalized(self) -> "IsoCoset":
        """Use the identity representative whenever the coset is a group."""
        if self.is_empty:
            return self
        if self.group.contains(self.rep):
            return IsoCoset(self.group, Permutation.identity(self.group.degree))
        return self

    def element_set(self) -> frozenset:
        return frozenset(g.images for g in self.elements())


class CosetUnion:
    """Accumulate a union of cosets that is known to be one coset in the end.

    Used by the Luks recursion: the union of ``Iso`` pieces over a transversal
    is a coset of the full automorphism group.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self._rep: Optional[Permutation] = None
        self._rep_inv: Optional[Permutation] = None
        self._gens: list[Permutation] = []
        self._group: Optional[PermGroup] = None

    def add(self, piece: IsoCoset) -> bool:
        """Merge one piece; True if the union grew."""
        if piece.is_empty:
            return False
        if self._rep is None:
            self._rep = piece.rep
            self._rep_inv = piece.rep.inverse()
            self._group = piece.group
            self._gens = list(piece.group.generators)
            return True
        grew = False
        for g in list(piece.group.generators) + [Permutation.identity(self.degree)]:
            cand = g * piece.rep * self._rep_inv
            if not self._group.contains(cand):
                self._gens.append(cand)
                self._group = PermGroup(self._gens, self.degree)
                grew = True
        return grew

    def order(self) -> int:
        return 0 if self._rep is None else self._group.order()

    def result(self) -> IsoCoset:
        if self._rep is None:
            return IsoCoset.empty()
        return IsoCoset(self._group, self._rep)


def transversal_cosets(group: PermGroup, hom: GroupHom, points: Iterable[int] = (),
                       ok: Optional[Callable[[int, int], bool]] = None) -> Iterator[Permutation]:
    """Coset representatives of ker(hom) in ``group``, one per image element.

    Mirrors the image group's element enumeration: transversal representatives
    of the image chain are pulled back once, and products of pulled-back
    representatives are preimages of the corresponding image elements.  Only
    the representatives t with ``ok(p, t(p))`` for every p in ``points`` are
    listed.
    """
    image = hom.image()
    levels = [lvl for lvl in image._levels if len(lvl.transversal) > 1]
    pre: list[dict[int, Permutation]] = []
    for lvl in levels:
        table = {}
        for beta in sorted(lvl.transversal):
            t = hom.preimage(lvl.transversal[beta])
            if t is None:
                raise ValueError("image element without preimage; inconsistent homomorphism")
            table[beta] = t
        pre.append(table)

    tables = [[table[beta] for beta in sorted(table)] for table in pre]
    yield from _products(tables, Permutation.identity(group.degree),
                         points, True, _pointwise(ok))


def _pointwise(ok: Callable[[int, int], bool]):
    """The ``step`` that accepts a prefix when ``ok(p, image)`` holds for
    each point it makes final; its state is a constant."""
    def step(state, final, images):
        for p in final:
            if not ok(p, images[p]):
                return None
        return state
    return step


def _products(tables: Sequence[Sequence[Permutation]], ident: Permutation,
              points: Iterable[int] = (), state: object = None,
              step: Optional[Callable[[object, list[int], tuple], object]] = None
              ) -> Iterator[Permutation]:
    """The products g = t_m * ... * t_0, t_i from ``tables[i]``, that pass
    ``step`` at every depth.  This is the one enumeration loop of the module.

    Lexicographic in the choices (level 0 outermost), so the deeper factor is
    applied first.  A point of ``points`` becomes final at the first depth
    after which every factor left to choose fixes it.  At each depth where
    some points become final (depth 0 included, before any choice),
    ``step(state, final_points, images)`` is called with those points and
    the prefix's image table, in which their images are now g's.  It returns
    None to drop the prefix with all its completions, or the state for the
    next depth.  Elsewhere the state passes on unchanged.  Every node at one
    depth gets the same ``final_points`` list.
    """
    depth = len(tables)
    # finals[i]: the points whose image is final once i factors are chosen
    finals: list[list[int]] = [[] for _ in range(depth + 1)]
    for p in sorted(set(points)):
        d = depth
        while d > 0 and all(t.images[p] == p for t in tables[d - 1]):
            d -= 1
        finals[d].append(p)
    if finals[0]:
        state = step(state, finals[0], ident.images)
        if state is None:
            return
    if depth == 0:
        yield ident
        return
    finals = finals[1:]
    accs = [ident.images]
    states = [state]
    iters = [iter(tables[0])]
    while iters:
        i = len(iters) - 1
        t = next(iters[i], None)
        if t is None:
            iters.pop()
            accs.pop()
            states.pop()
            continue
        images = tuple(map(accs[i].__getitem__, t.images))
        state = states[i]
        if finals[i]:
            state = step(state, finals[i], images)
            if state is None:
                continue
        if i + 1 == depth:
            yield Permutation._raw(images)
        else:
            accs.append(images)
            states.append(state)
            iters.append(iter(tables[i + 1]))

