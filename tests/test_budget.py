"""One work bound per query: every public query makes exactly one ``Budget``,
and every nested call of the query ticks it.  ``test_golden.py`` checks that
``--budget`` stops a whole golden CLI query at its total."""

import os

import pytest

import setiso.strings
from setiso import fileio
from setiso.certificates import local_certificate_pair
from setiso.hfs import iso_hfs
from setiso.minorfree import iso_excluded_minor
from setiso.perm import PermGroup, Permutation
from setiso.pstrings import PPartition, PString, hypergraph_to_family, make_family
from setiso.simplify import simplify_on_window
from setiso.solver import GsiInstance, generalized_string_iso
from setiso.strings import StringQuery, graph_iso_under_group, string_iso
from setiso.structure import PartitionChain

from util import GOLDEN, golden_certify_case


def _sym(n):
    return PermGroup([Permutation.from_cycles(n, [0, 1]),
                      Permutation.from_cycles(n, list(range(n)))], n)


def _read(reader, *names):
    return [reader(os.path.join(GOLDEN, name)) for name in names]


def _string():
    group = fileio.read_group(os.path.join(GOLDEN, "s3wrs3.grp"))
    x, y = _read(fileio.read_string, "w1.str", "w2.str")
    return string_iso(StringQuery(group, x, y))


def _graph():
    g1, g2 = _read(fileio.read_colored_graph, "c8.cg", "c8b.cg")
    return graph_iso_under_group(g1, g2, _sym(8))


def _hypergraph():
    h1, h2 = _read(fileio.read_hypergraph, "h1.hg", "h2.hg")
    inst = GsiInstance(_sym(h1.n), PPartition.trivial(h1.n),
                       hypergraph_to_family(h1), hypergraph_to_family(h2))
    return generalized_string_iso(inst)


def _excluded_minor():
    g1, g2 = _read(fileio.read_colored_graph, "prism5.cg", "prism5b.cg")
    return iso_excluded_minor(g1, g2, 3)


def _hfs():
    (n, t1), (_, t2) = _read(fileio.read_hfs, "t1.hfs", "t2.hfs")
    return iso_hfs(t1, t2, _sym(n))


def _simplify():
    # two families whose occupancy strings are not isomorphic: each becomes
    # a class of its own after one string query per pair and per class
    part = PPartition.from_classes(4, [[0, 1], [2, 3]])
    fx = make_family(part, [PString(0, (0, 0)), PString(0, (0, 1)), PString(1, (1, 0))])
    fy = make_family(part, [PString(0, (0, 0)), PString(1, (1, 0)), PString(1, (1, 1))])
    chain = PartitionChain.from_partitions(range(4), [
        [frozenset(range(4))], [frozenset(c) for c in part.classes()],
        [frozenset({p}) for p in range(4)]])
    return simplify_on_window([fx, fy], PermGroup([], 4), part, [0, 2], chain, 2)


def _certify():
    return local_certificate_pair(*golden_certify_case(), d=5)


@pytest.fixture
def budgets(monkeypatch):
    made = []
    init = setiso.strings.Budget.__init__

    def recording_init(self, limit=None):
        made.append(self)
        init(self, limit)

    monkeypatch.setattr(setiso.strings.Budget, "__init__", recording_init)
    return made


@pytest.mark.parametrize("query", [
    _string, _graph, _hypergraph, _excluded_minor, _hfs, _simplify, _certify,
], ids=["string_iso", "graph_iso_under_group", "generalized_string_iso",
        "iso_excluded_minor", "iso_hfs", "simplify_on_window",
        "local_certificate_pair"])
def test_each_public_query_makes_one_budget(budgets, query):
    query()
    assert len(budgets) == 1
    assert budgets[0].used >= 1

