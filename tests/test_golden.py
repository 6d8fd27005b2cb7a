"""Golden CLI output, golden element orders and golden stabilizer generators.

Answers depend on the order in which ``PermGroup.elements()`` and
``transversal_cosets`` list elements, and ``--machine`` prints the
generators that order produces; the generators of setwise and block
stabilizers depend on it the same way.  These tests pin all of them byte
for byte against the files under ``tests/golden/``.  The inputs there are
generated by ``write_inputs`` below.  A change that alters any pinned byte must be
deliberate; regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say why in the change log.
"""

import contextlib
import hashlib
import io
import os
import random
import sys

import pytest

from setiso import cli, fileio
from setiso.graphs import ColoredGraph
from setiso.hfs import HfsTerm
from setiso.perm import PermGroup, Permutation, transversal_cosets
from setiso.pstrings import Hypergraph, PPartition, PString, make_family
from setiso.strings import ColoredString

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _sym(n):
    return PermGroup([Permutation.from_cycles(n, [0, 1]),
                      Permutation.from_cycles(n, list(range(n)))], n)


def _wreath(k, m):
    """S_k wr S_m on k*m points, blocks {i*k .. i*k+k-1}."""
    n = k * m
    gens = [Permutation.from_cycles(n, [0, 1])]
    if k > 2:
        gens.append(Permutation.from_cycles(n, list(range(k))))
    gens.append(Permutation.from_cycles(n, *[[j, k + j] for j in range(k)]))
    if m > 2:
        gens.append(Permutation.from_cycles(
            n, *[[i * k + j for i in range(m)] for j in range(k)]))
    return PermGroup(gens, n)


def _on_points_and_pairs(g):
    """g on its n points and, after them, on the ordered pairs (u, v), u != v,
    pair (u, v) at n + u(n - 1) + v, less one where v > u."""
    n = g.degree

    def pair(u, v):
        return n + u * (n - 1) + (v if v < u else v - 1)

    images = list(g.images) + [0] * (n * (n - 1))
    for u in range(n):
        for v in range(n):
            if u != v:
                images[pair(u, v)] = pair(g.images[u], g.images[v])
    return Permutation(images)


def _relabel(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def write_inputs(d):
    """Deterministic input files for the CLI cases."""
    rng = random.Random(2020)
    w = _wreath(3, 3)
    fileio.write_group(os.path.join(d, "s3wrs3.grp"), w)
    x = ColoredString((0, 0, 1, 1, 2, 0, 2, 1, 0))
    shift = list(w.elements())[1234]
    fileio.write_string(os.path.join(d, "w1.str"), x)
    fileio.write_string(os.path.join(d, "w2.str"), x.apply(shift))
    # same letter counts, other per-block letter multisets
    fileio.write_string(os.path.join(d, "w3.str"), ColoredString((0, 0, 0, 1, 1, 2, 2, 1, 0)))

    c8 = ColoredGraph.plain(8, [(i, (i + 1) % 8) for i in range(8)])
    fileio.write_colored_graph(os.path.join(d, "c8.cg"), c8)
    fileio.write_colored_graph(os.path.join(d, "c8b.cg"), c8.apply(_relabel(rng, 8)))
    c4c4 = ColoredGraph.plain(8, [(i, (i + 1) % 4) for i in range(4)]
                              + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
    fileio.write_colored_graph(os.path.join(d, "c4c4.cg"), c4c4.apply(_relabel(rng, 8)))

    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 0), (0, 2, 4)]
    hg = Hypergraph(6, frozenset(frozenset(e) for e in edges))
    fileio.write_hypergraph(os.path.join(d, "h1.hg"), hg)
    fileio.write_hypergraph(os.path.join(d, "h2.hg"), hg.apply(_relabel(rng, 6)))

    w24 = _wreath(2, 4)
    fileio.write_group(os.path.join(d, "s2wrs4.grp"), w24)
    part = PPartition.from_classes(8, [[2 * i, 2 * i + 1] for i in range(4)])
    fam = make_family(part, [PString(0, (1, 2)), PString(1, (0, 0)),
                             PString(2, (2, 1)), PString(3, (0, 1))])
    fileio.write_family(os.path.join(d, "f1.psf"), fam)
    fileio.write_family(os.path.join(d, "f2.psf"), fam.apply(list(w24.elements())[300]))

    a = HfsTerm.make_atom
    t1 = HfsTerm.make_set([
        HfsTerm.make_tuple([a(0), a(1)]),
        HfsTerm.make_set([a(1), a(2), a(3)]),
        HfsTerm.make_tuple([HfsTerm.make_set([a(3), a(4)]), a(0)]),
    ])
    fileio.write_hfs(os.path.join(d, "t1.hfs"), 5, t1)
    fileio.write_hfs(os.path.join(d, "t2.hfs"), 5, t1.apply(_relabel(rng, 5)))

    prism = ColoredGraph.plain(10, [(i, (i + 1) % 5) for i in range(5)]
                               + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                               + [(i, i + 5) for i in range(5)])
    fileio.write_colored_graph(os.path.join(d, "prism5.cg"), prism)
    fileio.write_colored_graph(os.path.join(d, "prism5b.cg"), prism.apply(_relabel(rng, 10)))

    # S2 wr S5: its block action on the five pairs is a giant, so certify runs
    w10 = _w10()
    fileio.write_group(os.path.join(d, "w10.grp"), w10)
    part10 = PPartition.from_classes(10, [[2 * i, 2 * i + 1] for i in range(5)])
    fam10 = make_family(part10, [PString(c, l) for c, l in
                                 enumerate([(0, 1), (0, 0), (1, 0), (1, 1), (0, 1)])])
    fileio.write_family(os.path.join(d, "f3.psf"), fam10)
    elements10 = list(w10.elements())
    fileio.write_family(os.path.join(d, "f4.psf"),
                        fam10.apply(elements10[rng.randrange(len(elements10))]))


def _w10():
    return PermGroup([Permutation.from_cycles(10, [0, 1]),
                      Permutation.from_cycles(10, [0, 2], [1, 3]),
                      Permutation.from_cycles(10, [0, 2, 4, 6, 8], [1, 3, 5, 7, 9])], 10)


CASES = {
    "iso_string_wreath": ["iso-string", "--machine", "--group", "s3wrs3.grp", "w1.str", "w2.str"],
    "iso_string_wreath_noniso": ["iso-string", "--machine", "--group", "s3wrs3.grp",
                                 "w1.str", "w3.str"],
    "iso_string_sym": ["iso-string", "--machine", "w1.str", "w3.str"],
    "iso_graph_c8": ["iso-graph", "--machine", "c8.cg", "c8b.cg"],
    "iso_graph_c8_noniso": ["iso-graph", "--machine", "c8.cg", "c4c4.cg"],
    "iso_hyper": ["iso-hyper", "--machine", "h1.hg", "h2.hg"],
    "iso_psf": ["iso-psf", "--machine", "--group", "s2wrs4.grp", "f1.psf", "f2.psf"],
    "iso_hfs": ["iso-hfs", "--machine", "t1.hfs", "t2.hfs"],
    "iso_excluded_minor": ["iso-excluded-minor", "--h", "3", "--machine",
                           "prism5.cg", "prism5b.cg"],
    "iso_genus": ["iso-genus", "--g", "0", "--machine", "prism5.cg", "prism5b.cg"],
    "oracle_hyper": ["oracle", "--kind", "hyper", "h1.hg", "h2.hg"],
    "normalize": ["normalize", "--group", "s2wrs4.grp", "f1.psf"],
    "certify": ["certify", "--d", "5", "--group", "w10.grp", "f3.psf", "f4.psf"],
}


def run_case(name, extra=()):
    """Exit code and stdout of one CLI case, run from the golden directory."""
    argv = [a if not a.endswith((".grp", ".str", ".cg", ".hg", ".psf", ".hfs"))
            else os.path.join(GOLDEN, a) for a in CASES[name]] + list(extra)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return "exit %d\n%s" % (code, buf.getvalue())


def _digest(perms):
    h = hashlib.sha256()
    for g in perms:
        h.update((" ".join(map(str, g.images)) + "\n").encode())
    return h.hexdigest()


def order_digests():
    """Digest of the element order of a few groups, one line each."""
    s4 = _sym(4)
    w24 = _wreath(2, 4)
    hom = w24.block_action([frozenset({2 * i, 2 * i + 1}) for i in range(4)])
    lines = [
        ("elements S5", list(_sym(5).elements())),
        ("elements S2wrS4", list(w24.elements())),
        ("elements S4-on-pairs",
         list(PermGroup([_on_points_and_pairs(g) for g in s4.generators], 16).elements())),
        ("elements S3wrS3", list(_wreath(3, 3).elements())),
        ("transversal S2wrS4-blocks", list(transversal_cosets(w24, hom))),
        ("setwise-gens S6-{0,2,3}", _sym(6).setwise_stabilizer([0, 2, 3]).generators),
        ("setwise-gens S2wrS4-{0,1,4}", w24.setwise_stabilizer([0, 1, 4]).generators),
        ("block-stab-gens S6-singletons-2",
         _sym(6).block_stabilizer([frozenset({p}) for p in range(6)], 2).generators),
        ("block-stab-gens S2wrS4-pairs-1",
         w24.block_stabilizer([frozenset({2 * i, 2 * i + 1}) for i in range(4)], 1).generators),
    ]
    return "".join("%s %d %s\n" % (name, len(perms), _digest(perms)) for name, perms in lines)


def _read(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_machine_output(name):
    assert run_case(name) == _read(name + ".out")


@pytest.mark.parametrize("name, total", [("iso_excluded_minor", 12), ("certify", 81)])
def test_budget_bounds_the_whole_query(name, total, capsys):
    # the query ticks `total` nodes across all its nested calls: one node
    # less stops it, exactly that many prints the golden bytes
    assert run_case(name, ["--budget", str(total - 1)]) == "exit 2\n"
    assert "recursion budget of %d nodes exceeded" % (total - 1) in capsys.readouterr().err
    assert run_case(name, ["--budget", str(total)]) == _read(name + ".out")


def test_element_order_digests():
    assert order_digests() == _read("orders.txt")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    write_inputs(GOLDEN)
    for case in sorted(CASES):
        with open(os.path.join(GOLDEN, case + ".out"), "w", encoding="utf-8") as fh:
            fh.write(run_case(case))
        print("wrote", case, file=sys.stderr)
    with open(os.path.join(GOLDEN, "orders.txt"), "w", encoding="utf-8") as fh:
        fh.write(order_digests())
