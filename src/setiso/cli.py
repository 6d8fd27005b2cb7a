"""Command-line front door.

``iso-<kind>`` decides isomorphism of two objects and prints a human summary
or, under ``--machine``, a machine block: ``ISO`` followed by the
representative image table, the automorphism generator tables and the exact
order, or ``NONISO``.  Exit codes: 0 isomorphic, 1 not isomorphic, 2 error.
``KINDS`` gives each object kind its reader, size test and query, and
``oracle --kind`` reads it too, so both rule out a size mismatch alike.

``--machine`` goes to the ``iso-*`` subcommands only and ``--d``, the
composition-width promise, to ``certify`` only: no other subcommand reads
them.  ``--budget`` caps the recursion nodes of the whole query, nested
calls included; the subcommands that run no recursion (``refine``,
``normalize``, ``oracle``) do not take it.  Output is byte-identical from
run to run.
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple

from . import fileio
from .hfs import iso_hfs
from .minorfree import genus_to_h, iso_excluded_minor, k3h_genus_table
from .normalize import normalize_families
from .oracle import brute_force_iso
from .perm import IsoCoset, PermGroup, Permutation
from .pstrings import PPartition, hypergraph_to_family
from .refine import color_refinement
from .certificates import find_giant_rep, local_certificate_pair
from .solver import GsiInstance, generalized_string_iso
from .strings import StringQuery, graph_iso_under_group, string_iso
from .structure import PartitionChain, structure_graph_dump


def _group_for(path, n) -> PermGroup:
    if path is None:
        if n <= 1:
            return PermGroup([], n)
        return PermGroup([Permutation.from_cycles(n, [0, 1]),
                          Permutation.from_cycles(n, list(range(n)))], n)
    group = fileio.read_group(path)
    if group.degree != n:
        raise ValueError("group degree %d does not match object size %d" % (group.degree, n))
    return group


def _emit(result: IsoCoset, machine: bool) -> int:
    out = sys.stdout
    if result.is_empty:
        out.write("NONISO\n")
        return 1
    out.write("ISO\n")
    if machine:
        out.write("rep %s\n" % " ".join(map(str, result.rep.images)))
        gens = result.group.generators
        out.write("aut-generators %d\n" % len(gens))
        for g in gens:
            out.write("%s\n" % " ".join(map(str, g.images)))
        out.write("aut-order %d\n" % result.group.order())
    else:
        out.write("representative: %r\n" % (result.rep,))
        out.write("automorphism group order: %d\n" % result.group.order())
    return 0


class _Kind(NamedTuple):
    """How ``iso-<kind>`` and ``oracle --kind`` read and answer one kind."""
    help: str
    read: Callable       # path -> object
    points: Callable     # object -> degree of the group
    size: Callable       # object -> what every isomorphic pair shares
    query: Callable      # (group, x, y, budget) -> IsoCoset
    oracle: str          # the kind name of brute_force_iso
    encode: Callable     # object -> the encoding brute_force_iso takes


def _gsi(group, partition, f1, f2, budget):
    return generalized_string_iso(GsiInstance(group, partition, f1, f2), budget)


_N = attrgetter("n")

KINDS = {
    "string": _Kind(
        "string isomorphism", fileio.read_string, _N, _N,
        lambda group, x, y, budget: string_iso(StringQuery(group, x, y, budget=budget)),
        "string", lambda x: x.letters),
    "hyper": _Kind(
        "hypergraph isomorphism", fileio.read_hypergraph, _N,
        lambda h: (h.n, len(h.edges)),
        lambda group, x, y, budget: _gsi(group, PPartition.trivial(x.n),
                                         hypergraph_to_family(x), hypergraph_to_family(y),
                                         budget),
        "hypergraph", lambda h: h.edges),
    "graph": _Kind(
        "colored graph isomorphism under a group", fileio.read_colored_graph, _N, _N,
        lambda group, x, y, budget: graph_iso_under_group(x, y, group, budget=budget),
        "graph", lambda g: g),
    "psf": _Kind(
        "generalized string isomorphism", fileio.read_family,
        lambda f: f.partition.n, lambda f: f.partition,
        lambda group, x, y, budget: _gsi(group, x.partition, x, y, budget),
        "family",
        lambda f: (f.partition.class_of, {(m.class_id, m.letters) for m in f.members})),
    # read_hfs returns (point count, term)
    "hfs": _Kind(
        "hereditarily finite set isomorphism", fileio.read_hfs,
        itemgetter(0), itemgetter(0),
        lambda group, x, y, budget: iso_hfs(x[1], y[1], group, budget),
        "hfs", itemgetter(1)),
}


def _read_pair(args):
    """The kind, both objects and the group; the group is None, and not read,
    when the objects' sizes already rule isomorphism out."""
    kind = KINDS[args.kind]
    x, y = (kind.read(path) for path in args.objects)
    if kind.size(x) != kind.size(y):
        return kind, x, y, None
    return kind, x, y, _group_for(args.group, kind.points(x))


def _cmd_iso(args) -> int:
    kind, x, y, group = _read_pair(args)
    if group is None:
        print("NONISO")
        return 1
    return _emit(kind.query(group, x, y, args.budget), args.machine)


def _cmd_iso_excluded_minor(args) -> int:
    g1, g2 = (fileio.read_colored_graph(path) for path in args.objects)
    h = genus_to_h(args.g) if args.command == "iso-genus" else args.h
    return _emit(iso_excluded_minor(g1, g2, h, args.budget), args.machine)


def _cmd_refine(args) -> int:
    graph = fileio.read_colored_graph(args.objects[0])
    coloring = color_refinement(graph)
    classes = coloring.classes()
    print("classes %d" % len(classes))
    for cls in classes:
        print(" ".join(map(str, cls)))
    return 0


def _cmd_normalize(args) -> int:
    fam = fileio.read_family(args.objects[0])
    group = _group_for(args.group, fam.partition.n)
    norm = normalize_families(group, fam.partition, [fam])
    print("domain %d" % norm.domain_size)
    print("certified-d %d" % norm.certified_d)
    print("chain-levels %d" % len(norm.chain.levels))
    print("point-map %s" % " ".join(map(str, norm.point_map)))
    sys.stdout.write(structure_graph_dump(norm.graph))
    return 0


def _cmd_certify(args) -> int:
    f1, f2 = (fileio.read_family(path) for path in args.objects)
    group = _group_for(args.group, f1.partition.n)
    rep = find_giant_rep(group)
    if rep is None:
        print("no giant representation from the minimal block action")
        return 0
    t = args.t if args.t is not None else rep.k
    t1 = list(range(t))
    t2 = list(range(t))
    part = f1.partition
    levels = [[frozenset(range(part.n))]]
    if part.num_classes > 1:
        levels.append([frozenset(c) for c in part.classes()])
    levels.append([frozenset({p}) for p in range(part.n)])
    chain = PartitionChain.from_partitions(range(part.n), levels)
    res = local_certificate_pair(f1, f2, group, rep, t1, t2, part, chain,
                                 args.d, args.budget)
    print("giant-representation k=%d flavor=%s" % (rep.k, rep.flavor))
    for name, cert in (("first", res.cert_x), ("second", res.cert_y)):
        print("%s: %s order=%d" % (name, cert.kind, cert.group.order()))
    if res.compare_empty:
        print("comparison: empty")
    else:
        print("comparison: order=%d map=%s" % (
            res.compare_group.order(), " ".join(map(str, res.compare_map))))
    return 0


def _cmd_oracle(args) -> int:
    kind, x, y, group = _read_pair(args)
    if group is None:
        print("count 0")
        return 1
    found = brute_force_iso(list(group.generators), group.degree, kind.oracle,
                            kind.encode(x), kind.encode(y))
    print("count %d" % len(found))
    for g in found:
        print(" ".join(map(str, g)))
    return 0 if found else 1


def _cmd_genus_table(args) -> int:
    h_max = genus_to_h(args.g)
    print("h %d" % h_max)
    for h, genus in k3h_genus_table(h_max).items():
        print("K_{3,%d} genus %d" % (h, genus))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setiso",
        description="isomorphism of strings, hypergraphs, colored graphs and "
                    "hereditarily finite sets under a permutation group")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, objects=2, group=True, budget=True):
        p.add_argument("objects", nargs=objects)
        if group:
            p.add_argument("--group", help="a .grp file; defaults to the full symmetric group")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="recursion node cap of the whole query")
        return p

    def iso(name, help, group=True):
        p = common(sub.add_parser(name, help=help), group=group)
        p.add_argument("--machine", action="store_true",
                       help="line-oriented machine output")
        return p

    for name, kind in KINDS.items():
        iso("iso-" + name, kind.help).set_defaults(fn=_cmd_iso, kind=name)

    # iso-genus asks iso-excluded-minor's question with h = genus_to_h(g)
    for name, flag, help in (
            ("iso-excluded-minor", "--h", "3-connected graphs promised to exclude K_{3,h}"),
            ("iso-genus", "--g", "3-connected graphs of bounded Euler genus")):
        p = iso(name, help, group=False)
        p.add_argument(flag, type=int, required=True)
        p.set_defaults(fn=_cmd_iso_excluded_minor)

    common(sub.add_parser("refine", help="print the stable coloring"),
           objects=1, group=False, budget=False).set_defaults(fn=_cmd_refine)
    common(sub.add_parser("normalize", help="normalize a generalized string instance"),
           objects=1, budget=False).set_defaults(fn=_cmd_normalize)

    p = common(sub.add_parser("certify", help="local certificate diagnostics"))
    p.add_argument("--d", type=int, default=2,
                   help="composition-width promise for the virtual size")
    p.add_argument("--t", type=int, default=None, help="test set size")
    p.set_defaults(fn=_cmd_certify)

    p = common(sub.add_parser("oracle", help="brute-force oracle"), budget=False)
    p.add_argument("--kind", required=True, choices=list(KINDS))
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("genus-table", help="K_{3,h} genus values up to 4g+3")
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(fn=_cmd_genus_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        # ParseError is a ValueError; OSError covers missing, unreadable
        # and directory paths
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
