"""One work bound per query: every public query makes exactly one ``Budget``,
and every nested call of the query ticks it.  ``test_golden.py`` checks that
``--budget`` stops a whole golden CLI query at its total."""

import math
import os
import random

import pytest

import setiso.solver
from setiso import fileio
from setiso.certificates import local_certificate_pair
from setiso.graphs import ColoredGraph
from setiso.hfs import iso_hfs
from setiso.minorfree import iso_excluded_minor
from setiso.perm import PermGroup, Permutation
from setiso.pstrings import Hypergraph, PPartition, PString, hypergraph_to_family, make_family
from setiso.simplify import simplify_on_window
from setiso.solver import (DIRECT_ENUM_CUTOFF, Budget, BudgetExceeded, GsiInstance,
                           generalized_string_iso)
from setiso.strings import ColoredString, StringQuery, graph_iso_under_group, string_iso
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
    init = setiso.solver.Budget.__init__

    def recording_init(self, limit=None):
        made.append(self)
        init(self, limit)

    monkeypatch.setattr(setiso.solver.Budget, "__init__", recording_init)
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


def test_a_negative_node_cap_is_rejected():
    x = ColoredString((0, 1))
    for cap in (-1, setiso.solver.SolverConfig(budget=-1)):
        with pytest.raises(ValueError, match="budget must be a non-negative node count"):
            string_iso(StringQuery(_sym(2), x, x, budget=cap))
    with pytest.raises(ValueError, match="non-negative"):
        Budget(-5)
    assert Budget(0).limit == 0


def test_the_listing_below_the_cutoff_ticks_every_accepted_prefix():
    # a constant string under Sym(5), a group the solver lists directly:
    # one tick for the query and one per accepted search prefix.  Listing
    # all 120 isomorphisms would tick at least once per element; a prefix
    # that the union of the isomorphisms found so far covers is skipped
    # before it is tested and ticks nothing, so 14 prefixes are accepted.
    group, x = _sym(5), ColoredString((0,) * 5)
    assert group.order() <= DIRECT_ENUM_CUTOFF
    budget = Budget()
    assert string_iso(StringQuery(group, x, x, budget=budget)).order() == 120
    assert budget.used == 15
    with pytest.raises(BudgetExceeded):
        string_iso(StringQuery(group, x, x, budget=14))


def _blowup_row(kind, relabel):
    """A 16-point object, its relabeled copy, the query under Sym(16) and
    the closed-form order of its automorphism group."""
    n = 16
    if kind == "string":
        x = ColoredString(tuple(random.Random(1).randrange(3) for _ in range(n)))
        order = math.prod(math.factorial(x.letters.count(c)) for c in set(x.letters))
        return x, x.apply(relabel), lambda y, budget: string_iso(
            StringQuery(_sym(n), x, y, budget=budget)), order
    matching = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    order = 2 ** (n // 2) * math.factorial(n // 2)
    if kind == "graph":
        x = ColoredGraph.plain(n, matching)
        return x, x.apply(relabel), lambda y, budget: graph_iso_under_group(
            x, y, _sym(n), budget=budget), order
    x = Hypergraph(n, frozenset(frozenset(e) for e in matching))
    return x, x.apply(relabel), lambda y, budget: generalized_string_iso(
        GsiInstance(_sym(n), PPartition.trivial(n), hypergraph_to_family(x),
                    hypergraph_to_family(y)), budget), order


@pytest.mark.parametrize("kind", ["string", "hypergraph", "graph"])
def test_the_blowup_rows_answer_within_a_thousand_ticks(kind):
    # a 16-letter string and the 16-point matching under Sym(16).  Listing
    # every isomorphism ticks once per accepted prefix, so its work grows
    # with |Aut|: 82,976 ticks for a 12-letter string and 196,945 for the
    # 12-point matching.  Skipping covered prefixes leaves 128 to 131 here.
    images = list(range(16))
    random.Random(2).shuffle(images)
    relabel = Permutation(images)
    x, y, query, order = _blowup_row(kind, relabel)
    budget = Budget(1000)
    res = query(y, budget)
    assert res.order() == order
    assert x.apply(res.rep) == y
    assert budget.used < 200
