"""The data model of the generalized string isomorphism problem.

A partitioned domain carries families of per-class strings.  Occupancy
statistics and the virtual size (the recursion progress measure, robust to
renormalization) live here, together with the hypergraph encoding.

The action on P-strings is written once, as two ``PPartition`` methods:
``image`` moves a string on the points of a class (or of a class inside an
invariant window) and relists its letters in the order of the image
points, and ``cut`` keeps the letters of a string at the points inside a
window.  The family action, restriction, the solver's leaf check and window
pieces, and simplify-on-window all use them; only the brute-force oracle
keeps an independent copy.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence

from .perm import Permutation


def funcnorm(d: int) -> int:
    """Normalization-cost exponent; any fixed monotone O(log d) choice works."""
    return max(1, math.ceil(math.log2(max(d, 2))))


@dataclass(frozen=True)
class PPartition:
    """A partition of {0..n-1} with dense class ids.

    ``positions[p]`` is the index of p in ``members(class_of[p])``.  The
    class tables are computed once, on construction, and take no part in
    equality or hashing.
    """

    n: int
    class_of: tuple[int, ...]
    _members: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.class_of) != self.n:
            raise ValueError("class_of must assign a class to every point")
        ids = set(self.class_of)
        if self.n and ids != set(range(len(ids))):
            raise ValueError("class ids must be dense from 0")
        members: list[list[int]] = [[] for _ in ids]
        positions = []
        for p, c in enumerate(self.class_of):
            positions.append(len(members[c]))
            members[c].append(p)
        object.__setattr__(self, "_members", tuple(tuple(m) for m in members))
        object.__setattr__(self, "positions", tuple(positions))

    @classmethod
    def trivial(cls, n: int) -> "PPartition":
        return cls(n, (0,) * n) if n else cls(0, ())

    @classmethod
    def discrete(cls, n: int) -> "PPartition":
        return cls(n, tuple(range(n)))

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "PPartition":
        """Classes renumbered by minimum element."""
        classes = sorted((sorted(c) for c in classes), key=lambda c: c[0])
        table = [-1] * n
        for i, c in enumerate(classes):
            for p in c:
                if table[p] != -1:
                    raise ValueError("classes overlap at point %d" % p)
                table[p] = i
        if any(t == -1 for t in table):
            raise ValueError("classes do not cover the domain")
        return cls(n, tuple(table))

    @property
    def num_classes(self) -> int:
        return len(self._members)

    def members(self, class_id: int) -> tuple[int, ...]:
        """The points of a class in increasing order; () for an unknown id."""
        if 0 <= class_id < len(self._members):
            return self._members[class_id]
        return ()

    def classes(self) -> list[tuple[int, ...]]:
        return list(self._members)

    def is_invariant_under(self, g: Permutation) -> bool:
        mapped = {}
        for p in range(self.n):
            c = self.class_of[p]
            ci = self.class_of[g.images[p]]
            if mapped.setdefault(c, ci) != ci:
                return False
        return True

    def image_class(self, class_id: int, g: Permutation) -> int:
        return self.class_of[g.images[self.members(class_id)[0]]]

    def image(self, points: Sequence[int], letters: Sequence[int],
              g: Permutation) -> tuple[int, tuple[int, ...]]:
        """(class, letters) of the image under g of a string on ``points``.

        ``points`` are the increasing points of one class, or of one class
        inside a window that g and the partition leave invariant, and carry
        ``letters`` in that order; the image letters are listed in the order
        of the image points.  ``points`` must not be empty.
        """
        moved = sorted(zip(map(g.images.__getitem__, points), letters))
        return self.class_of[moved[0][0]], tuple(letter for _, letter in moved)

    def cut(self, class_id: int, letters: Sequence, window: Container[int]) -> tuple:
        """The letters of a string on a class at the class's points inside
        ``window``, in point order.  Cutting ``members(class_id)`` itself
        gives those points."""
        return tuple(l for p, l in zip(self._members[class_id], letters) if p in window)


@dataclass(frozen=True)
class PString:
    """A pair (class id, string on the members of that class).

    Letters are listed in increasing point order of the class members.
    """

    class_id: int
    letters: tuple[int, ...]


class PStringFamily:
    """A duplicate-free set of P-strings over one partition.

    Every member names a class of the partition.  A ``sentinel`` marks the
    padding of ``make_family``: a member holding it must be all sentinel and
    the only member of its class (ValueError otherwise), so that
    ``harmonize_sentinels`` drops exactly the padding.
    """

    __slots__ = ("partition", "members", "sentinel")

    def __init__(self, partition: PPartition, members: Iterable[PString],
                 sentinel: Optional[int] = None):
        seen = set()
        ordered = []
        for m in members:
            if not 0 <= m.class_id < partition.num_classes:
                raise ValueError("class id %r names no class of the partition" % (m.class_id,))
            size = len(partition.members(m.class_id))
            if len(m.letters) != size:
                raise ValueError(
                    "string support of class %d has %d letters, class has %d points"
                    % (m.class_id, len(m.letters), size))
            key = (m.class_id, m.letters)
            if key in seen:
                raise ValueError("duplicate member (%d, %r)" % (m.class_id, m.letters))
            seen.add(key)
            ordered.append(m)
        padded = [m for m in ordered if sentinel is not None and sentinel in m.letters]
        if padded:
            counts = collections.Counter(m.class_id for m in ordered)
            if any(counts[m.class_id] > 1 or set(m.letters) != {sentinel} for m in padded):
                raise ValueError("sentinel %r is a letter of a member" % (sentinel,))
        self.partition = partition
        self.members = tuple(sorted(ordered, key=lambda m: (m.class_id, m.letters)))
        self.sentinel = sentinel

    # -- basic views -------------------------------------------------------

    def occupancy(self, class_id: int) -> int:
        return sum(1 for m in self.members if m.class_id == class_id)

    def occupancy_profile(self) -> tuple[int, ...]:
        counts = [0] * self.partition.num_classes
        for m in self.members:
            counts[m.class_id] += 1
        return tuple(counts)

    def is_completely_occupied(self) -> bool:
        return all(c >= 1 for c in self.occupancy_profile())

    def is_simple(self) -> bool:
        return all(c <= 1 for c in self.occupancy_profile())

    def is_balanced(self) -> bool:
        profile = self.occupancy_profile()
        return len(set(profile)) <= 1

    def max_color(self) -> int:
        return max((max(m.letters) for m in self.members if m.letters), default=-1)

    def key(self) -> frozenset:
        return frozenset((m.class_id, m.letters) for m in self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PStringFamily)
                and self.partition == other.partition
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.partition, self.members))

    def __repr__(self) -> str:
        return "PStringFamily(%d classes, %d members)" % (
            self.partition.num_classes, len(self.members))

    # -- group action and restriction ---------------------------------------

    def apply(self, g: Permutation) -> "PStringFamily":
        part = self.partition
        out = [PString(*part.image(part.members(m.class_id), m.letters, g))
               for m in self.members]
        return PStringFamily(part, out, sentinel=self.sentinel)

    def restrict(self, points: Sequence[int]) -> "PStringFamily":
        """Induced family on the partition cut down to ``points``.

        Duplicates arising from the restriction are collapsed.
        """
        pts = sorted(set(points))
        if not pts:
            raise ValueError("cannot restrict to an empty point set")
        part = self.partition
        # the kept classes, renumbered by their least kept point
        remap: dict[int, int] = {}
        new_part = PPartition(len(pts), tuple(
            remap.setdefault(part.class_of[p], len(remap)) for p in pts))
        window = set(pts)
        keys = {(remap[m.class_id], part.cut(m.class_id, m.letters, window))
                for m in self.members if m.class_id in remap}
        return PStringFamily(new_part, [PString(*key) for key in keys],
                             sentinel=self.sentinel)

    def virtual_size(self, d: int) -> int:
        e = funcnorm(d) + 1
        total = 0
        for class_id, pts in enumerate(self.partition.classes()):
            total += len(pts) * self.occupancy(class_id) ** e
        return total


def make_family(partition: PPartition, strings: Iterable[PString],
                sentinel: Optional[int] = None) -> PStringFamily:
    """Validated family, padded so every class is occupied.

    Empty classes receive one sentinel string of a reserved color (the
    maximum used color id plus one unless given), recorded on the family.
    A given sentinel must not be a letter of the strings (ValueError), or
    the padding could not be told from them.
    """
    base = PStringFamily(partition, strings)
    if sentinel is not None and any(sentinel in m.letters for m in base.members):
        raise ValueError("sentinel %r is a letter of a string" % (sentinel,))
    profile = base.occupancy_profile()
    if all(c >= 1 for c in profile):
        return PStringFamily(partition, base.members, sentinel=sentinel)
    if sentinel is None:
        sentinel = base.max_color() + 1
    padded = list(base.members)
    for class_id, count in enumerate(profile):
        if count == 0:
            size = len(partition.members(class_id))
            padded.append(PString(class_id, (sentinel,) * size))
    return PStringFamily(partition, padded, sentinel=sentinel)


def harmonize_sentinels(x: PStringFamily, y: PStringFamily) -> tuple[PStringFamily, PStringFamily]:
    """Re-pad a pair with one shared sentinel so padded strings compare equal."""
    if x.sentinel == y.sentinel:
        return x, y

    def live(fam: PStringFamily) -> list[PString]:
        if fam.sentinel is None:
            return list(fam.members)
        # padding uses a color unused by real strings, so all-sentinel
        # strings are exactly the padding
        return [m for m in fam.members if any(l != fam.sentinel for l in m.letters)]

    lx, ly = live(x), live(y)
    joint = max((l for m in lx + ly for l in m.letters), default=-1) + 1
    return (make_family(x.partition, lx, sentinel=joint),
            make_family(y.partition, ly, sentinel=joint))


# -- hypergraphs ---------------------------------------------------------------

@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: frozenset  # frozenset of frozenset of vertices

    def __post_init__(self):
        for e in self.edges:
            for v in e:
                if not 0 <= v < self.n:
                    raise ValueError("hyperedge vertex %r out of range" % (v,))

    def apply(self, g: Permutation) -> "Hypergraph":
        return Hypergraph(self.n, frozenset(frozenset(g.images[v] for v in e) for e in self.edges))


def hypergraph_to_family(h: Hypergraph) -> PStringFamily:
    """Each edge becomes its 0/1 characteristic string on the trivial partition."""
    part = PPartition.trivial(h.n)
    strings = [
        PString(0, tuple(1 if v in e else 0 for v in range(h.n)))
        for e in sorted(h.edges, key=sorted)
    ]
    return make_family(part, strings)


def family_to_hypergraph(fam: PStringFamily) -> Hypergraph:
    """Set-of-strings to hypergraph over Omega x Sigma, one edge per string."""
    if fam.partition.num_classes != 1:
        raise ValueError("only trivial-partition families encode hypergraphs")
    n = fam.partition.n
    alphabet = sorted({l for m in fam.members for l in m.letters})
    index = {(a, s): a * len(alphabet) + i for a in range(n) for i, s in enumerate(alphabet)}
    edges = frozenset(
        frozenset(index[(a, m.letters[a])] for a in range(n)) for m in fam.members
    )
    return Hypergraph(n * len(alphabet), edges)
