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
order as they are, so Schreier-Sims does each step once:

- a chain is built on its first read (``order``, ``contains``, ``base``,
  ``elements``, ...), not by the constructor, which only checks the
  generators and the base prefix;
- each chain level keeps the inverse of every transversal element next to
  the element, the inverse of every generator placed there, and, during the
  build, the tree edge that reached each point, whose Schreier generator is
  the identity;
- a build remembers, per level, the Schreier generators that sifted to the
  identity and never sifts them again.  Generators are only appended, so the
  group below a level only grows and a proven member stays one; the first
  non-member, and so the chain, is the one a full check finds;
- a tree rebuild walks breadth-first in generator order as a fresh build
  does, so the tree's shape is the same, but a point gamma keeps its old
  element and inverse when it is reached from the same point beta, by the
  same generator object g, as last time, and beta's own element was kept.
  The old element is u_beta * g for this very u_beta and g, so it is the
  table a fresh build computes;
- each transversal element carries a serial from a counter of the build; a
  kept element keeps its serial.  A proven Schreier generator is also
  filed under (serial of u_beta, generator, serial of u_(beta^g)), and a
  generator under a filed key is skipped before it is formed: the same
  three factors give the same product, a proven member.  The generator set
  above still catches equal generators formed from new factors.  Both rules
  skip only members and reuse only equal tables, so the first non-member,
  and so the chain, stays the same;
- a level whose orbit is its point alone (a base-prefix point the group
  fixes) passes its check with no sift: no generator is placed there, so its
  tree generators were all placed deeper and fix the point, and each of its
  Schreier generators is one of them, a member of the chain below, which has
  passed its checks;
- the constructions here whose order follows exactly from data they hold
  (kernel and image, pull-back, a rebased or conjugated copy, a pointwise
  stabilizer) state it.  The product of the orbit lengths of a partial chain
  is at most the group order, with equality exactly when the chain is
  complete, so the build stops there with the chain a full check would end
  with, and ``order`` needs no chain at all;
- ``GroupHom`` keeps its two chains over the combined source and target
  action, each built on first use.  The target-first chain serves
  ``preimage`` (the sift of (1, h) through its target prefix), ``image``
  and also ``kernel``, whose generators it already holds; the source-first
  chain serves ``apply`` (the sift of (g, 1)).  The combined group is
  the graph {(g, hom(g))} when the images define a homomorphism, and the
  projection onto the source is then an isomorphism, so its order is
  exactly |source|.  By default the constructor builds the target-first
  chain with no stated order and compares its order with the source's:
  that is the homomorphism check.  The induced actions built here and in
  the reductions (``block_action``, ``restrict``, the solver's
  window-product action, the branch action of a structure graph, whose
  vertex maps are checked to be an action when the graph is built, and the
  simplify point lift) pass ``induced=True`` with the images of the
  source's own action on an invariant list, so g -> action(g) is a
  homomorphism by construction (the action of g * h is the action of g
  followed by that of h); their target-first chain states |source| and
  stops as soon as it is complete, with the chain the check would build;
- every walk down a chain goes through one primitive, ``PermGroup._sift``:
  membership, Schreier generators, covered prefixes, and ``GroupHom``'s
  ``apply`` and ``preimage``;
- every composition, in products, Schreier generators, sifts and the
  element walk, goes through one primitive, ``_compose``: the same table
  as the point-by-point composition, with the loop run in C.  The identity
  table of each degree is made once.

Every enumeration runs through one loop, ``_products``: a depth-first walk
over products of transversal elements that calls ``step(state,
final_points, images)`` at each depth where some watched points get their
final images, drops the prefix when ``step`` returns None and otherwise
hands its return value to the next depth.  ``elements``, ``search``,
``search_coset``, ``setwise_stabilizer`` and ``transversal_cosets`` are thin
adapters over it, so pruning never changes the order in which the survivors
come out.  The setwise search is ``search_coset`` on a chain based on the
set; it has no cap of its own: it ticks its caller's budget on every
accepted prefix, a covered prefix ticks nothing, and an invariant set
returns the group itself without a search.

``search_coset`` merges what the search finds into a ``CosetUnion`` on the
chain's base and skips every prefix the union already covers, before
``step`` runs (the orbit prune of McKay and Piperno 2014, done as a
base-image test on a stabilizer chain: Sims 1971, Leon 1991).  The search
fixes the points b_0, b_1, ... in this order, depth first, drops only
prefixes below which no isomorphism lies, and at each leaf adds to the union
every isomorphism that maps the b_i as the leaf does.  A prefix q that has
fixed b_0 ... b_(k-1) is covered when some element u of the union maps them
as q does; ``CosetUnion.covers`` answers that by sifting q * r^-1, r the
union's representative, through the first k levels of a chain of the union's
group that has the b_i as base prefix.  The skip is exact.  Let Stab_k be
the automorphisms of x (in the searched group) that fix b_0 ... b_(k-1); the
isomorphisms below q are Stab_k * u.  The union is not empty, so some leaf T
was added before q was reached, outside q's subtree, and the subtree of T's
own prefix of depth k is finished: by induction on the order of the skips,
every isomorphism below it, Stab_k * tau for one of them, is in the union.
The union is a coset H * r, so H contains Stab_k, and H only grows.  So
Stab_k * u lies in the union already: ``add`` would find every element below
q a member and leave the generators and the representative as they are.  A
union that is the whole group covers every prefix, so a listing needs no
stop at the group order.

The constructions the reductions need live here too, so no other module
builds them by hand: ``induced_action`` (the action of a group's generators,
or of any movers, on a derived list of names such as blocks, classes,
window pieces or branches; an image missing from the list raises
NotInvariant), ``GroupHom.pull_back`` ({g : hom(g) in a coset}, from
the kernel's generators and preimages of the coset's),
``PermGroup.block_stabilizer`` (a pull-back through the block action) and
``PermGroup.orbit_transversal`` (breadth-first movers along an orbit, also
over an induced action on blocks or classes).  ``CosetUnion`` merges listed
isomorphisms and Luks pieces into one coset.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence


class DegreeMismatch(ValueError):
    """Raised when permutations of different degrees are combined."""


class NotInvariant(ValueError):
    """Raised when a set that must be invariant under a group is not."""


@functools.cache
def _identity_table(n: int) -> tuple:
    return tuple(range(n))


def _compose(a: tuple, b: tuple) -> tuple:
    """The table of "apply a, then b": entry i is b[a[i]]."""
    if len(a) < 2:
        # itemgetter returns a scalar for one index and refuses none
        return tuple(b[i] for i in a)
    return operator.itemgetter(*a)(b)


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
        return cls._raw(_identity_table(n))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Sequence[int]) -> "Permutation":
        """Raises ValueError when a point lies outside 0..n-1."""
        images = list(range(n))
        for cycle in cycles:
            _checked_points(cycle, n)
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
        return Permutation._raw(_compose(self.images, other.images))

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
        return self.images == _identity_table(len(self.images))

    def apply_set(self, points: Iterable[int]) -> frozenset:
        return frozenset(self.images[p] for p in points)

    def restrict(self, points: Iterable[int]) -> "Permutation":
        """The action on an invariant set, relabeled to 0..|A|-1 in point order.

        Raises ValueError when a point lies outside 0..n-1."""
        pts = _checked_points(points, self.degree)
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

    ``gen_invs[k]`` is the inverse of ``gens[k]``, and ``inverses[beta]``
    that of ``transversal[beta]``.  Three fields serve the build only and
    are dropped when it ends: ``tree`` is the pair (tree generators, their
    inverses) of the last rebuild, the generators placed at this level or
    deeper; ``parents[gamma]`` is the pair (beta, id(g)) of the tree edge
    that reached gamma, whose Schreier generator is the identity; and
    ``serials[beta]`` numbers ``transversal[beta]``: a rebuild that keeps an
    element keeps its serial, and a new element gets the next number of the
    build's counter.  The root's element, the identity, is number 0.
    Generators are keyed by ``id``: every generator placed during a build
    stays in ``gens`` until it ends, so no id is reused.
    """

    __slots__ = ("point", "gens", "gen_invs", "tree", "transversal", "inverses",
                 "parents", "serials")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.gen_invs: list[Permutation] = []
        self.tree: Optional[tuple[list[Permutation], list[Permutation]]] = None
        self.transversal: dict[int, Permutation] = {}
        self.inverses: dict[int, Permutation] = {}
        self.parents: dict[int, tuple[int, int]] = {}
        self.serials: dict[int, int] = {}

    def place(self, g: Permutation) -> None:
        self.gens.append(g)
        self.gen_invs.append(g.inverse())

    def rebuild(self, degree: int, below: tuple[list[Permutation], list[Permutation]],
                serials: Iterator[int]) -> None:
        """Breadth-first Schreier tree over this level's generators followed
        by ``below``, the next level's ``tree``; generator order fixes the
        shape.

        A point reached from a kept point by the edge that reached it last
        time keeps its element, inverse and serial; other points take the
        next numbers of ``serials``.
        """
        old_trans, old_invs = self.transversal, self.inverses
        old_parents, old_serials = self.parents, self.serials
        self.tree = tree_gens, gen_invs = self.gens + below[0], self.gen_invs + below[1]
        ident = Permutation.identity(degree)
        self.transversal = {self.point: ident}
        self.inverses = {self.point: ident}
        self.parents = {}
        self.serials = {self.point: 0}
        queue = [self.point]
        for beta in queue:
            u = self.transversal[beta]
            u_inv = self.inverses[beta]
            kept = old_serials.get(beta) == self.serials[beta]
            for k, g in enumerate(tree_gens):
                gamma = g.images[beta]
                if gamma in self.transversal:
                    continue
                edge = (beta, id(g))
                if kept and old_parents.get(gamma) == edge:
                    # the old element is u * g for this very u and g
                    self.transversal[gamma] = old_trans[gamma]
                    self.inverses[gamma] = old_invs[gamma]
                    self.serials[gamma] = old_serials[gamma]
                else:
                    self.transversal[gamma] = Permutation._raw(_compose(u.images, g.images))
                    self.inverses[gamma] = Permutation._raw(
                        _compose(gen_invs[k].images, u_inv.images))
                    self.serials[gamma] = next(serials)
                self.parents[gamma] = edge
                queue.append(gamma)


def _chain_order(levels: Iterable[_Level]) -> int:
    """The product of the levels' orbit lengths."""
    return math.prod(len(lvl.transversal) for lvl in levels)


class PermGroup:
    """Permutation group with base, strong generating set and exact order.

    The chain is built on its first read.  ``_order``, when given, is the
    group's order, known in advance: the build stops as soon as its orbit
    lengths multiply to it, and ``order()`` answers without a chain.  A
    build that ends without reaching the stated order raises RuntimeError,
    which catches every order stated too large; one stated too small can
    stop the build at an incomplete chain and cannot be detected, so only
    this module's own constructions state one, each from data that fixes
    the order exactly.  A base prefix lists distinct points of 0..degree-1
    (ValueError otherwise).
    """

    def __init__(self, generators: Iterable[Permutation], degree: int,
                 base_prefix: Sequence[int] = (), _order: Optional[int] = None):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree %d does not match %d" % (g.degree, degree))
            if not g.is_identity() and g not in gens:
                gens.append(g)
        base_prefix = tuple(base_prefix)
        if len(_checked_points(base_prefix, degree)) != len(base_prefix):
            raise ValueError("base prefix repeats a point")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self._base_prefix = base_prefix
        self._order = _order

    # -- construction -----------------------------------------------------

    @functools.cached_property
    def _levels(self) -> list[_Level]:
        # _build reads the chain it grows through this attribute
        levels = self.__dict__["_levels"] = [_Level(b) for b in self._base_prefix]
        self._build()
        for lvl in levels:
            lvl.tree = lvl.parents = lvl.serials = None   # read by the build only
        return levels

    def _rebuild_from(self, j: int, serials: Iterator[int]) -> None:
        # a new generator at level j can enlarge every tree at levels <= j;
        # the deeper levels keep their trees and tree generators
        levels = self._levels
        j = min(j, len(levels) - 1)
        below = levels[j + 1].tree if j + 1 < len(levels) else ([], [])
        for k in range(j, -1, -1):
            levels[k].rebuild(self.degree, below, serials)
            below = levels[k].tree

    def _build(self) -> None:
        """Deterministic Schreier-Sims on the base-prefix levels.

        ``proven[i]`` holds the Schreier generators of level i that sifted
        to the identity, and ``keys[i]`` their factors as (serial of u_beta,
        id of g, serial of u_beta^g); ``serials`` numbers the transversal
        elements.  The module docstring says why skipping them, and stopping
        at a stated order, leave the chain unchanged.
        """
        levels = self._levels
        for g in self.generators:
            self._ensure_base_covers(g)
        for lvl, g in self._initial_placements():
            levels[lvl].place(g)
        serials = itertools.count(1)
        self._rebuild_from(len(levels) - 1, serials)
        proven: dict[int, set[tuple]] = collections.defaultdict(set)
        keys: dict[int, set[tuple]] = collections.defaultdict(set)
        i = len(levels) - 1
        while i >= 0:
            # the orbit lengths multiply to at most the order, with
            # equality only on a complete chain: every check left passes
            if self._order is not None and _chain_order(levels) == self._order:
                return
            residue_info = self._first_bad_schreier(i, proven[i], keys[i])
            if residue_info is None:
                i -= 1
                continue
            residue, j = residue_info
            self._ensure_base_covers(residue)
            j = min(j, len(levels) - 1)
            levels[j].place(residue)
            # the deeper levels (index > j) keep their trees and passed
            # this check already, so resume at level j
            self._rebuild_from(j, serials)
            i = j
        if self._order is not None and _chain_order(levels) != self._order:
            del self.__dict__["_levels"]
            raise RuntimeError("stated order %d is not the group order %d"
                               % (self._order, _chain_order(levels)))

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

    def _first_bad_schreier(self, i: int, proven: set[tuple], keys: set[tuple]
                            ) -> Optional[tuple[Permutation, int]]:
        """Sift the Schreier generators of level i through the chain below,
        skipping and extending ``proven`` and ``keys``."""
        lvl = self._levels[i]
        if len(lvl.transversal) == 1:
            return None   # see the module docstring: a fixed base-prefix point
        tree_gens = lvl.tree[0]
        ident = _identity_table(self.degree)
        for beta in sorted(lvl.transversal):
            u = lvl.transversal[beta].images
            serial = lvl.serials[beta]
            for g in tree_gens:
                gamma = g.images[beta]
                if lvl.parents.get(gamma) == (beta, id(g)):
                    continue   # a tree edge: the identity
                key = (serial, id(g), lvl.serials[gamma])
                if key in keys:
                    continue
                t_inv = lvl.inverses[gamma].images
                schreier = _compose(_compose(u, g.images), t_inv)
                if schreier not in proven:
                    residue, j = self._sift(schreier, i + 1)
                    if residue != ident:
                        return Permutation._raw(residue), j
                    proven.add(schreier)
                keys.add(key)
        return None

    def _sift(self, r: tuple, start: int = 0, stop: Optional[int] = None) -> tuple[tuple, int]:
        """Sift an image table through levels ``start`` .. ``stop - 1`` (to
        the end by default); return (residue table, level where it stopped).
        The module's one walk down a chain."""
        levels = self._levels
        stop = len(levels) if stop is None else stop
        for j in range(start, stop):
            lvl = levels[j]
            beta = r[lvl.point]
            if beta == lvl.point:
                continue
            inv = lvl.inverses.get(beta)
            if inv is None:
                return r, j
            r = _compose(r, inv.images)
        return r, stop

    def _below(self, k: int) -> tuple[Sequence[Permutation], int]:
        """The strong generators placed at level k or deeper (the group's
        own generators when k = 0) and the order of the group they
        generate, the product of those levels' orbit lengths."""
        levels = self._levels
        gens = self.generators if k == 0 else [g for lvl in levels[k:] for g in lvl.gens]
        return gens, _chain_order(levels[k:])

    # -- queries -----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._levels)

    def order(self) -> int:
        if self._order is None:
            self._order = _chain_order(self._levels)
        return self._order

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self._sift(g.images)
        return residue == _identity_table(self.degree)

    def is_trivial(self) -> bool:
        return self.order() == 1

    def elements(self) -> Iterator[Permutation]:
        """Every group element; order fixed by the transversal enumeration.

        Elements decompose uniquely as u_m * ... * u_0 with u_i a level-i
        transversal representative (deeper factors applied first).
        """
        yield from _products(self._tables(), Permutation.identity(self.degree))

    def search(self, points: Iterable[int], state: object,
               step: Callable[[object, list[int], tuple], object]) -> Iterator[Permutation]:
        """The elements every prefix of which ``step`` accepts, in the order
        of :meth:`elements`; see :func:`_products` for the contract."""
        yield from _products(self._tables(), Permutation.identity(self.degree),
                             points, state, step)

    def search_coset(self, points: Iterable[int], state: object,
                     step: Callable[[object, list[int], tuple], object]) -> "IsoCoset":
        """The coset of the elements :meth:`search` yields, which must form
        one coset or none (as the isomorphisms x -> y do).

        Each element found goes into a ``CosetUnion`` on :attr:`base`, and a
        prefix the union covers is skipped before ``step`` runs (the
        covered-prefix rule of the module docstring)."""
        base = self.base
        trivial = PermGroup([], self.degree, base)
        union = CosetUnion(self.degree, base)
        for g in _products(self._tables(), Permutation.identity(self.degree),
                           points, state, step, union):
            union.add(IsoCoset(trivial, g))
        return union.result()

    def _tables(self) -> list[list[Permutation]]:
        # one table per level, so that depth i has fixed base[:i]; a level
        # of orbit length 1 contributes the identity alone
        return [[lvl.transversal[beta] for beta in sorted(lvl.transversal)]
                for lvl in self._levels]

    def orbit(self, point: int) -> list[int]:
        """Raises ValueError when ``point`` lies outside 0..degree-1."""
        _check_point(point, self.degree)
        seen = {point}
        queue = [point]
        for a in queue:
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
        domain (block or class indices); the orbit is then taken there.  A
        point outside the domain, or ``actions`` not one per generator,
        raises ValueError.
        """
        actions = self.generators if actions is None else actions
        if len(actions) != len(self.generators):
            raise ValueError("need one action per generator")
        _check_point(point, actions[0].degree if actions else self.degree)
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
        """Raises ValueError when a point lies outside 0..degree-1."""
        pts = _checked_points(points, self.degree)
        return not pts or self.orbit(pts[0]) == pts

    def conjugate(self, s: Permutation) -> "PermGroup":
        s_inv = s.inverse()
        return PermGroup([s_inv * g * s for g in self.generators], self.degree,
                         _order=self.order())

    # -- block systems -----------------------------------------------------

    def minimal_block_system(self, domain: Sequence[int]) -> tuple[list[frozenset], bool]:
        """A coarsest nontrivial block system on ``domain``, which must be one
        orbit (ValueError otherwise).

        Returns ``(blocks, primitive)``.  For a primitive action the blocks are
        the singletons and the flag is True; otherwise the induced action on
        the returned blocks is primitive.  Blocks are listed by minimum
        element.
        """
        dom = sorted(set(domain))
        if not dom or self.orbit(dom[0]) != dom:
            raise ValueError("block system domain is not one orbit")
        if len(dom) == 1:
            return [frozenset(dom)], True
        blocks = _nontrivial_blocks(self.generators, dom)
        if blocks is None:
            return [frozenset([p]) for p in dom], True
        while True:
            blocks.sort(key=min)
            # the block action's generators; blocks need no group built on them
            action = induced_action(blocks, lambda blk, g: g.apply_set(blk), self.generators)
            coarser = _nontrivial_blocks(action, range(len(blocks)))
            if coarser is None:
                return blocks, False
            blocks = [frozenset().union(*(blocks[i] for i in blk)) for blk in coarser]

    def block_action(self, blocks: Sequence[frozenset]) -> "GroupHom":
        """Homomorphism onto the induced action on an invariant block list."""
        blocks = sorted((frozenset(b) for b in blocks), key=min)
        # looking up each image block is the invariance check
        images = induced_action(blocks, lambda blk, g: g.apply_set(blk), self.generators)
        return GroupHom(self, len(blocks), images, induced=True)

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
        rebuilt = PermGroup(self.generators, self.degree, base_prefix=pts,
                            _order=self.order())
        # a generator placed at level j fixes base[:j], and the constructor
        # drops repeats in first-seen order
        gens, order = rebuilt._below(len(pts))
        return PermGroup(gens, self.degree, _order=order)

    def setwise_stabilizer(self, points: Sequence[int],
                           tick: Optional[Callable[[], None]] = None) -> "PermGroup":
        """{g : points^g = points}, by ``search_coset`` over a chain based on
        the points.

        A set every generator maps onto itself gives the group itself.
        Otherwise a prefix survives while every point it makes final stays
        inside or outside the set, as it was, so only prefixes with no
        stabilizing completion are dropped.  Exponential in the worst case;
        intended for desk-scale sets.  ``tick``, the caller's budget, is
        called on every accepted prefix; a covered prefix is skipped without
        one.  The chain's base is checked first, so a point past the degree
        raises ValueError.
        """
        target = frozenset(points)
        if not target:
            return self
        chain = PermGroup(self.generators, self.degree, base_prefix=sorted(target),
                          _order=self.order())
        if all(g.apply_set(target) == target for g in self.generators):
            return self
        step = _pointwise(lambda p, q: (p in target) == (q in target), tick)
        return chain.search_coset(range(self.degree), True, step).group

    def stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer([point])

    # -- induced actions -----------------------------------------------------

    def restrict(self, points: Sequence[int]) -> tuple["PermGroup", "GroupHom"]:
        """Induced action on an invariant set, relabeled to 0..|A|-1.

        Points keep their relative order.  Returns the restricted group and
        the projection homomorphism.  Raises ValueError when a point lies
        outside 0..n-1.
        """
        pts = _checked_points(points, self.degree)
        hom = GroupHom(self, len(pts), [g.restrict(pts) for g in self.generators],
                       induced=True)
        return hom.image(), hom


def _check_point(point: int, degree: int) -> None:
    if not 0 <= point < degree:
        raise ValueError("points must lie in 0..%d" % (degree - 1))


def _checked_points(points: Iterable[int], degree: int) -> list[int]:
    """The distinct points in increasing order; ValueError outside 0..degree-1."""
    pts = sorted(set(points))
    if pts:
        _check_point(pts[0], degree)
        _check_point(pts[-1], degree)
    return pts


def induced_action(names: Sequence, act: Callable[[object, object], object],
                   movers: Iterable, targets: Optional[Sequence] = None
                   ) -> list[Permutation]:
    """The action of each mover on a list of names: position i goes to the
    position of ``act(names[i], mover)`` in ``targets`` (``names`` when not
    given).

    Raises NotInvariant when an image is not listed; an error raised by
    ``act`` propagates unchanged.
    """
    index = {name: i for i, name in enumerate(names if targets is None else targets)}
    out = []
    for m in movers:
        img = []
        for name in names:
            j = index.get(act(name, m))
            if j is None:
                raise NotInvariant("the list is not invariant under the action")
            img.append(j)
        out.append(Permutation(img))
    return out


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
    and deterministic.  The constructor checks that the images define a
    homomorphism (ValueError otherwise) by building the target-first chain.
    ``induced`` says that the images are the source's own action on an
    invariant list, a homomorphism by construction: the check is skipped,
    and the target-first chain states the source's order and is built on
    first use (see the module docstring).
    """

    def __init__(self, source: PermGroup, target_degree: int,
                 images: Sequence[Permutation], induced: bool = False):
        if len(images) != len(source.generators):
            raise ValueError("need one image per source generator")
        for im in images:
            if im.degree != target_degree:
                raise DegreeMismatch("image degree %d does not match target %d" % (im.degree, target_degree))
        self.source = source
        self.target_degree = target_degree
        self.gen_images = tuple(images)
        self._induced = induced
        n = source.degree
        self._combined = [
            Permutation(tuple(g.images) + tuple(n + j for j in im.images))
            for g, im in zip(source.generators, images)
        ]
        if not induced and self._tgt_first.order() != source.order():
            raise ValueError("generator images do not define a homomorphism")

    @functools.cached_property
    def _tgt_first(self) -> PermGroup:
        n, k = self.source.degree, self.target_degree
        return PermGroup(self._combined, n + k,
                         base_prefix=self._moved(self._combined, n, n + k),
                         _order=self.source.order() if self._induced else None)

    @functools.cached_property
    def _src_first(self) -> PermGroup:
        # only apply() reads this chain
        n = self.source.degree
        return PermGroup(self._combined, n + self.target_degree,
                         base_prefix=self._moved(self._combined, 0, n),
                         _order=self.source.order())

    @staticmethod
    def _moved(perms: Sequence[Permutation], lo: int, hi: int) -> list[int]:
        return [p for p in range(lo, hi) if any(g.images[p] != p for g in perms)]

    def apply(self, g: Permutation) -> Permutation:
        """hom(g): the sift of (g, 1) down the source-first chain leaves
        (1, hom(g)^-1) exactly when g lies in the source."""
        n = self.source.degree
        if g.degree != n:
            raise DegreeMismatch("element has degree %d, expected %d" % (g.degree, n))
        residue, _ = self._src_first._sift(g.images + tuple(range(n, n + self.target_degree)))
        if residue[:n] != _identity_table(n):
            raise ValueError("element is not in the source group")
        return Permutation._raw(tuple(q - n for q in residue[n:])).inverse()

    @functools.cached_property
    def _target_prefix(self) -> int:
        # The target-first chain starts with the moved target points; the
        # levels after that prefix form a chain of the kernel, so the
        # prefix's orbit lengths multiply to the image's order.
        n = self.source.degree
        return sum(1 for lvl in self._tgt_first._levels if lvl.point >= n)

    def image(self) -> PermGroup:
        levels = self._tgt_first._levels[:self._target_prefix]
        return PermGroup(self.gen_images, self.target_degree, _order=_chain_order(levels))

    def kernel(self) -> PermGroup:
        # The strong generators placed after the target prefix fix every
        # target point and generate the kernel.  They are the generators a
        # pointwise stabilizer of the prefix would return, so no chain is
        # rebuilt.
        gens, order = self._tgt_first._below(self._target_prefix)
        n = self.source.degree
        return PermGroup([Permutation._raw(g.images[:n]) for g in gens], n, _order=order)

    def preimage(self, h: Permutation) -> Optional[Permutation]:
        """Some source element mapping to ``h``, or None.

        The sift of (1, h) down the target prefix of the target-first chain
        leaves (g^-1, 1) exactly when h lies in the image, and then hom(g) =
        h."""
        k = self.target_degree
        if h.degree != k:
            raise DegreeMismatch("preimage target has degree %d, expected %d" % (h.degree, k))
        n = self.source.degree
        residue, _ = self._tgt_first._sift(
            _identity_table(n) + tuple(n + q for q in h.images), 0, self._target_prefix)
        if residue[n:] != tuple(range(n, n + k)):
            return None
        return Permutation._raw(residue[:n]).inverse()

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
        kernel = self.kernel()
        gens = list(kernel.generators)
        for c in coset.group.generators:
            pre = self.preimage(c)
            if pre is None:
                raise ValueError("coset does not lie in the image of the homomorphism")
            gens.append(pre)
        # every generator has a preimage, so the coset's group lies in the image
        return IsoCoset(PermGroup(gens, self.source.degree,
                                  _order=kernel.order() * coset.group.order()), rep)


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
    is a coset of the full automorphism group.  A union given a ``base``
    keeps its group's chain on that base prefix, so that :meth:`covers` can
    test search prefixes (the covered-prefix rule of the module docstring).
    """

    def __init__(self, degree: int, base: Sequence[int] = ()):
        self.degree = degree
        self.base = tuple(base)
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
            if piece.group._base_prefix[:len(self.base)] != self.base:
                self._group = PermGroup(self._gens, self.degree, self.base, _order=piece.group.order())
            return True
        grew = False
        for g in list(piece.group.generators) + [Permutation.identity(self.degree)]:
            cand = g * piece.rep * self._rep_inv
            if not self._group.contains(cand):
                self._gens.append(cand)
                self._group = PermGroup(self._gens, self.degree, self.base)
                grew = True
        return grew

    def covers(self, images: Sequence[int], depth: int) -> bool:
        """Whether some element of the union maps ``base[:depth]`` as the
        image table ``images`` does, which may end after those points: the
        sift of ``images * rep^-1`` through the first ``depth`` levels of
        the union's chain reaches level ``depth``."""
        if self._rep is None:
            return False
        r = _compose(images, self._rep_inv.images)
        return self._group._sift(r, 0, depth)[1] == depth

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
    listed; without ``ok``, every representative is.
    """
    tables = [[hom.preimage(t) for t in table] for table in hom.image()._tables()]
    if any(t is None for table in tables for t in table):
        raise ValueError("image element without preimage; inconsistent homomorphism")
    yield from _products(tables, Permutation.identity(group.degree),
                         points if ok else (), True, _pointwise(ok))


def _pointwise(ok: Callable[[int, int], bool],
               tick: Optional[Callable[[], None]] = None):
    """The ``step`` that accepts a prefix when ``ok(p, image)`` holds for
    each point it makes final, calling ``tick`` on each prefix it accepts;
    its state is a constant."""
    def step(state, final, images):
        for p in final:
            if not ok(p, images[p]):
                return None
        if tick is not None:
            tick()
        return state
    return step


def _min_block_containing(gens: Sequence[Permutation], a: int, b: int,
                          domain: Sequence[int]) -> list[frozenset]:
    """Finest block system (on ``domain``) of <gens> whose blocks merge a
    with b; the order and repeats of ``gens`` do not matter.

    Atkinson's union-find algorithm; <gens> must be transitive on ``domain``.
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
    for x, y in queue:
        for g in gens:
            m = union(g.images[x], g.images[y])
            if m:
                queue.append(m)
    blocks: dict[int, list[int]] = {}
    for p in domain:
        blocks.setdefault(find(p), []).append(p)
    return [frozenset(v) for _, v in sorted(blocks.items())]


def _nontrivial_blocks(gens: Sequence[Permutation],
                       domain: Sequence[int]) -> Optional[list[frozenset]]:
    dom = sorted(domain)
    a = dom[0]
    for b in dom[1:]:
        blocks = _min_block_containing(gens, a, b, dom)
        if 1 < len(blocks) < len(dom):
            return blocks
    return None


def _products(tables: Sequence[Sequence[Permutation]], ident: Permutation,
              points: Iterable[int] = (), state: object = None,
              step: Optional[Callable[[object, list[int], tuple], object]] = None,
              union: Optional[CosetUnion] = None) -> Iterator[Permutation]:
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
    depth gets the same ``final_points`` list.  With a ``union``, a prefix of
    d factors is dropped first, before ``step`` sees it, when
    ``union.covers(images, d)``.
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
        images = _compose(t.images, accs[i])
        if union is not None and union.covers(images, i + 1):
            continue
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

