"""Command-line front door.

Subcommands decide isomorphism of the supported object kinds and print either
a human summary or a machine block: ``ISO`` followed by the representative
image table, the automorphism generator tables and the exact order, or
``NONISO``.  Exit codes: 0 isomorphic, 1 not isomorphic, 2 error.

``--d``, the composition-width promise, is an option of ``certify`` only, the
one subcommand that reads it.  ``--budget`` caps the recursion nodes of the
whole query, nested calls included; the subcommands that run no recursion
(``refine``, ``normalize``, ``oracle``) do not take it.  Output is
byte-identical from run to run.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .hfs import iso_hfs
from .minorfree import genus_to_h, iso_excluded_minor, iso_genus, k3h_genus_table
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
    if machine:
        out.write("ISO\n")
        out.write("rep %s\n" % " ".join(map(str, result.rep.images)))
        gens = result.group.generators
        out.write("aut-generators %d\n" % len(gens))
        for g in gens:
            out.write("%s\n" % " ".join(map(str, g.images)))
        out.write("aut-order %d\n" % result.group.order())
    else:
        out.write("ISO\n")
        out.write("representative: %r\n" % (result.rep,))
        out.write("automorphism group order: %d\n" % result.group.order())
    return 0


def _cmd_iso_string(args) -> int:
    x = fileio.read_string(args.objects[0])
    y = fileio.read_string(args.objects[1])
    if x.n != y.n:
        print("NONISO")
        return 1
    group = _group_for(args.group, x.n)
    res = string_iso(StringQuery(group, x, y, budget=args.budget))
    return _emit(res, args.machine)


def _cmd_iso_hyper(args) -> int:
    h1 = fileio.read_hypergraph(args.objects[0])
    h2 = fileio.read_hypergraph(args.objects[1])
    if h1.n != h2.n or len(h1.edges) != len(h2.edges):
        print("NONISO")
        return 1
    group = _group_for(args.group, h1.n)
    f1, f2 = hypergraph_to_family(h1), hypergraph_to_family(h2)
    inst = GsiInstance(group, PPartition.trivial(h1.n), f1, f2)
    res = generalized_string_iso(inst, args.budget)
    return _emit(res, args.machine)


def _cmd_iso_graph(args) -> int:
    g1 = fileio.read_colored_graph(args.objects[0])
    g2 = fileio.read_colored_graph(args.objects[1])
    if g1.n != g2.n:
        print("NONISO")
        return 1
    group = _group_for(args.group, g1.n)
    res = graph_iso_under_group(g1, g2, group, budget=args.budget)
    return _emit(res, args.machine)


def _cmd_iso_psf(args) -> int:
    f1 = fileio.read_family(args.objects[0])
    f2 = fileio.read_family(args.objects[1])
    if f1.partition != f2.partition:
        print("NONISO")
        return 1
    group = _group_for(args.group, f1.partition.n)
    inst = GsiInstance(group, f1.partition, f1, f2)
    res = generalized_string_iso(inst, args.budget)
    return _emit(res, args.machine)


def _cmd_iso_hfs(args) -> int:
    n1, t1 = fileio.read_hfs(args.objects[0])
    n2, t2 = fileio.read_hfs(args.objects[1])
    if n1 != n2:
        print("NONISO")
        return 1
    group = _group_for(args.group, n1)
    res = iso_hfs(t1, t2, group, args.budget)
    return _emit(res, args.machine)


def _cmd_iso_excluded_minor(args) -> int:
    g1 = fileio.read_colored_graph(args.objects[0])
    g2 = fileio.read_colored_graph(args.objects[1])
    res = iso_excluded_minor(g1, g2, args.h, args.budget)
    return _emit(res, args.machine)


def _cmd_iso_genus(args) -> int:
    g1 = fileio.read_colored_graph(args.objects[0])
    g2 = fileio.read_colored_graph(args.objects[1])
    res = iso_genus(g1, g2, args.g, args.budget)
    return _emit(res, args.machine)


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
    f1 = fileio.read_family(args.objects[0])
    f2 = fileio.read_family(args.objects[1])
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
    kind = args.kind
    if kind == "string":
        x = fileio.read_string(args.objects[0])
        y = fileio.read_string(args.objects[1])
        n = x.n
        group = _group_for(args.group, n)
        found = brute_force_iso(list(group.generators), n, "string",
                                x.letters, y.letters)
    elif kind == "hyper":
        h1 = fileio.read_hypergraph(args.objects[0])
        h2 = fileio.read_hypergraph(args.objects[1])
        n = h1.n
        group = _group_for(args.group, n)
        found = brute_force_iso(list(group.generators), n, "hypergraph",
                                h1.edges, h2.edges)
    elif kind == "graph":
        g1 = fileio.read_colored_graph(args.objects[0])
        g2 = fileio.read_colored_graph(args.objects[1])
        n = g1.n
        group = _group_for(args.group, n)
        found = brute_force_iso(list(group.generators), n, "graph", g1, g2)
    elif kind == "psf":
        f1 = fileio.read_family(args.objects[0])
        f2 = fileio.read_family(args.objects[1])
        if f1.partition != f2.partition:
            print("count 0")
            return 1
        n = f1.partition.n
        group = _group_for(args.group, n)
        found = brute_force_iso(
            list(group.generators), n, "family",
            (f1.partition.class_of, {(m.class_id, m.letters) for m in f1.members}),
            (f2.partition.class_of, {(m.class_id, m.letters) for m in f2.members}))
    elif kind == "hfs":
        n1, t1 = fileio.read_hfs(args.objects[0])
        n2, t2 = fileio.read_hfs(args.objects[1])
        if n1 != n2:
            print("count 0")
            return 1
        group = _group_for(args.group, n1)
        found = brute_force_iso(list(group.generators), n1, "hfs", t1, t2)
    else:
        raise ValueError("unknown oracle kind %r" % kind)
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
        p.add_argument("--machine", action="store_true",
                       help="line-oriented machine output")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="recursion node cap of the whole query")
        return p

    common(sub.add_parser("iso-string", help="string isomorphism")).set_defaults(fn=_cmd_iso_string)
    common(sub.add_parser("iso-hyper", help="hypergraph isomorphism")).set_defaults(fn=_cmd_iso_hyper)
    common(sub.add_parser("iso-graph", help="colored graph isomorphism under a group")).set_defaults(fn=_cmd_iso_graph)
    common(sub.add_parser("iso-psf", help="generalized string isomorphism")).set_defaults(fn=_cmd_iso_psf)
    common(sub.add_parser("iso-hfs", help="hereditarily finite set isomorphism")).set_defaults(fn=_cmd_iso_hfs)

    p = common(sub.add_parser("iso-excluded-minor",
                              help="3-connected graphs promised to exclude K_{3,h}"),
               group=False)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(fn=_cmd_iso_excluded_minor)

    p = common(sub.add_parser("iso-genus", help="3-connected graphs of bounded Euler genus"),
               group=False)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(fn=_cmd_iso_genus)

    p = common(sub.add_parser("refine", help="print the stable coloring"),
               objects=1, group=False, budget=False)
    p.set_defaults(fn=_cmd_refine)

    p = common(sub.add_parser("normalize", help="normalize a generalized string instance"),
               objects=1, budget=False)
    p.set_defaults(fn=_cmd_normalize)

    p = common(sub.add_parser("certify", help="local certificate diagnostics"))
    p.add_argument("--d", type=int, default=2,
                   help="composition-width promise for the virtual size")
    p.add_argument("--t", type=int, default=None, help="test set size")
    p.set_defaults(fn=_cmd_certify)

    p = common(sub.add_parser("oracle", help="brute-force oracle"), budget=False)
    p.add_argument("--kind", required=True,
                   choices=["string", "hyper", "graph", "psf", "hfs"])
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
