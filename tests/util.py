"""Shared helpers: seeded random test objects, a CLI runner and the golden
certify case."""

import os
import random
import subprocess
import sys

from setiso import fileio
from setiso.certificates import find_giant_rep
from setiso.perm import Permutation, PermGroup
from setiso.pstrings import PPartition, PString, make_family
from setiso.structure import PartitionChain


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run_cli(args):
    """(exit code, stdout, stderr) of ``python -m setiso.cli`` on this tree."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "setiso.cli"] + list(args),
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def rand_perm(rng: random.Random, n: int) -> Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def rand_group(rng: random.Random, n: int, max_gens: int = 2,
               order_cap: int = 10080) -> PermGroup:
    """Group from up to ``max_gens`` random permutations, resampled until the
    order fits under ``order_cap`` (keeps brute-force oracles feasible)."""
    while True:
        k = rng.randint(0, max_gens)
        gens = [rand_perm(rng, n) for _ in range(k)]
        g = PermGroup(gens, n)
        if g.order() <= order_cap:
            return g
        # retry with smaller support: derange only a few points
        pts = rng.sample(range(n), rng.randint(2, max(2, n // 2)))
        images = list(range(n))
        shuffled = pts[:]
        rng.shuffle(shuffled)
        for a, b in zip(pts, shuffled):
            images[a] = b
        try:
            g = PermGroup([Permutation(images)], n)
        except ValueError:
            continue
        if g.order() <= order_cap:
            return g


def closure(gens, n, cap=2_000_000):
    """Plain BFS closure; independent of the stabilizer-chain machinery."""
    ident = tuple(range(n))
    seen = {ident}
    queue = [ident]
    tables = [g.images for g in gens]
    while queue:
        cur = queue.pop()
        for t in tables:
            nxt = tuple(t[i] for i in cur)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("closure cap exceeded")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def rand_invariant_partition(rng, group):
    n = group.degree
    choice = rng.randint(0, 2)
    if choice == 0:
        return PPartition.trivial(n)
    if choice == 1:
        return PPartition.from_classes(n, [set(o) for o in group.orbits()])
    classes = []
    for orb in group.orbits():
        if len(orb) > 2 and rng.random() < 0.6:
            blocks, primitive = group.minimal_block_system(orb)
            if not primitive:
                classes.extend(set(b) for b in blocks)
                continue
        classes.append(set(orb))
    return PPartition.from_classes(n, classes)


def rand_family_on(rng, partition, max_members=8, colors=2):
    members = set()
    for _ in range(rng.randint(1, max_members)):
        c = rng.randrange(partition.num_classes)
        members.add((c, tuple(rng.randrange(colors) for _ in partition.members(c))))
    return make_family(partition, [PString(c, l) for c, l in sorted(members)])


def golden_certify_case():
    """The arguments of ``local_certificate_pair`` that the golden ``certify``
    case passes: S2 wr S5, the families f3 and f4, and test sets 0..4."""
    group = fileio.read_group(os.path.join(GOLDEN, "w10.grp"))
    fx = fileio.read_family(os.path.join(GOLDEN, "f3.psf"))
    fy = fileio.read_family(os.path.join(GOLDEN, "f4.psf"))
    part = fx.partition
    chain = PartitionChain.from_partitions(range(part.n), [
        [frozenset(range(part.n))],
        [frozenset(c) for c in part.classes()],
        [frozenset({p}) for p in range(part.n)],
    ])
    t = list(range(5))
    return fx, fy, group, find_giant_rep(group), t, t, part, chain
