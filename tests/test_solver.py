import random

import pytest

import setiso.strings
from setiso.perm import IsoCoset, PermGroup, Permutation
from setiso.pstrings import Hypergraph, PPartition, PString, hypergraph_to_family, make_family
from setiso.solver import (
    GsiInstance,
    SolverConfig,
    balance_orbits,
    combine_windows,
    family_image_key,
    generalized_string_iso,
    set_of_strings_iso,
)
from setiso.strings import DIRECT_ENUM_CUTOFF, BudgetExceeded, ColoredString

from util import rand_family_on, rand_group, rand_invariant_partition, rand_perm


def sym(n):
    return PermGroup([Permutation.from_cycles(n, [0, 1]),
                      Permutation.from_cycles(n, list(range(n)))], n)


def brute_gsi(group, x, y):
    y_key = y.key()
    return frozenset(g.images for g in group.elements() if family_image_key(x, g) == y_key)


def solver_set(group, part, x, y):
    res = generalized_string_iso(GsiInstance(group, part, x, y))
    return res.element_set()


class TestGsiBasics:
    def test_equal_families_have_identity(self):
        rng = random.Random(1)
        for _ in range(15):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            part = rand_invariant_partition(rng, g)
            fam = rand_family_on(rng, part)
            res = generalized_string_iso(GsiInstance(g, part, fam, fam))
            assert not res.is_empty
            assert res.contains(Permutation.identity(n))

    def test_four_cycle_hypergraph_vs_relabeled(self):
        edges = frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)])
        h1 = Hypergraph(4, edges)
        s = Permutation([2, 0, 3, 1])
        h2 = h1.apply(s)
        f1, f2 = hypergraph_to_family(h1), hypergraph_to_family(h2)
        part = PPartition.trivial(4)
        res = generalized_string_iso(GsiInstance(sym(4), part, f1, f2))
        assert not res.is_empty
        assert res.order() == 8  # dihedral symmetry of the 4-cycle
        assert res.element_set() == brute_gsi(sym(4), f1, f2)

    def test_four_cycle_vs_path_empty(self):
        cyc = Hypergraph(4, frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)]))
        path = Hypergraph(4, frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]))
        # same edge count; make path a real path
        path = Hypergraph(4, frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 2)]))
        f1, f2 = hypergraph_to_family(cyc), hypergraph_to_family(path)
        part = PPartition.trivial(4)
        res = generalized_string_iso(GsiInstance(sym(4), part, f1, f2))
        assert res.element_set() == brute_gsi(sym(4), f1, f2) == frozenset()

    def test_oracle_equivalence_random(self):
        rng = random.Random(90125)
        for _ in range(120):
            n = rng.randint(2, 7)
            g = rand_group(rng, n, order_cap=5040)
            part = rand_invariant_partition(rng, g)
            fx = rand_family_on(rng, part)
            fy = rand_family_on(rng, part)
            if rng.random() < 0.4:
                s = None
                for _ in range(5):
                    cand = rand_perm(rng, n)
                    if part.is_invariant_under(cand):
                        s = cand
                        break
                if s is not None:
                    fy = fx.apply(s)
            assert solver_set(g, part, fx, fy) == brute_gsi(g, fx, fy)

    def test_set_of_strings_against_brute_force(self):
        rng = random.Random(4711)
        nonempty = 0
        for _ in range(80):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            # duplicates allowed: the query compares the sets of strings
            xs = [ColoredString(tuple(rng.randrange(3) for _ in range(n)))
                  for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                elements = list(g.elements())
                h = elements[rng.randrange(len(elements))]
                ys = [s.apply(h) for s in reversed(xs)]
            else:
                ys = [ColoredString(tuple(rng.randrange(3) for _ in range(n)))
                      for _ in range(len(xs))]
            want = {s.letters for s in ys}
            brute = frozenset(e.images for e in g.elements()
                              if {s.apply(e).letters for s in xs} == want)
            assert set_of_strings_iso(g, xs, ys).element_set() == brute
            nonempty += bool(brute)
        assert nonempty >= 30


class TestBalanceOrbits:
    def test_already_balanced_returns_group(self):
        g = PermGroup([Permutation([1, 0, 2, 3])], 4)
        part = PPartition.trivial(4)
        fam = make_family(part, [PString(0, (0, 0, 1, 1))])
        res = balance_orbits(g, part, fam, fam)
        assert res.group.order() == g.order()
        assert res.rep.is_identity()

    def test_refines_on_unbalanced_classes(self):
        # group swaps classes {0,1} and {2,3}; occupancy differs
        g = PermGroup([Permutation([2, 3, 0, 1]), Permutation([1, 0, 3, 2])], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fx = make_family(part, [PString(0, (0, 1)), PString(0, (1, 0)), PString(1, (0, 0))])
        fy = fx
        res = balance_orbits(g, part, fx, fy)
        brute = [e for e in g.elements()
                 if all((fx.occupancy(part.class_of[e.images[part.members(c)[0]]])
                         == fx.occupancy(c)) for c in range(2))]
        assert not res.is_empty
        assert {e.images for e in res.elements()} == {e.images for e in brute}

    def test_swapped_profile_matched_by_coset(self):
        # occupancy (2,1) vs (1,2): only the class swap can match them
        g = PermGroup([Permutation([2, 3, 0, 1])], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fx = make_family(part, [PString(0, (0, 1)), PString(0, (1, 0)), PString(1, (0, 0))])
        fy = make_family(part, [PString(0, (0, 1)), PString(1, (1, 0)), PString(1, (0, 0))])
        res = balance_orbits(g, part, fx, fy)
        assert not res.is_empty
        assert res.order() == 1
        assert res.rep == Permutation([2, 3, 0, 1])

    def test_global_count_mismatch_empty(self):
        # occupancy (2,1) vs (1,1): no permutation of classes matches counts
        g = PermGroup([Permutation([2, 3, 0, 1])], 4)
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fx = make_family(part, [PString(0, (0, 1)), PString(0, (1, 0)), PString(1, (0, 0))])
        fy = make_family(part, [PString(0, (0, 1)), PString(1, (0, 0))])
        res = balance_orbits(g, part, fx, fy)
        assert res.is_empty

    def test_isomorphism_invariance(self):
        rng = random.Random(7777)
        for _ in range(20):
            n = rng.randint(2, 6)
            g = rand_group(rng, n)
            part = rand_invariant_partition(rng, g)
            fx = rand_family_on(rng, part)
            fy = rand_family_on(rng, part)
            s1 = next((p for p in (rand_perm(rng, n) for _ in range(8))
                       if part.is_invariant_under(p) and g.contains(p)), None)
            if s1 is None:
                continue
            fx2 = fx.apply(s1)
            a = balance_orbits(g, part, fx, fy)
            b = balance_orbits(g, part, fx2, fy)
            # gamma1 in Iso(fx, fx2) conjugates the output coset
            if a.is_empty or b.is_empty:
                continue
            lhs = {(s1.inverse() * e).images for e in a.elements()}
            rhs = {e.images for e in b.elements()}
            assert lhs == rhs


class TestStructuredGroups:
    """Towers and dihedral groups: shapes random generators rarely produce."""

    @staticmethod
    def groups():
        tower = PermGroup([
            Permutation.from_cycles(8, [0, 1]),
            Permutation.from_cycles(8, [2, 3]),
            Permutation.from_cycles(8, [4, 5]),
            Permutation.from_cycles(8, [6, 7]),
            Permutation.from_cycles(8, [0, 2], [1, 3]),
            Permutation.from_cycles(8, [4, 6], [5, 7]),
            Permutation.from_cycles(8, [0, 4], [1, 5], [2, 6], [3, 7]),
        ], 8)
        s3_wr_s2 = PermGroup([
            Permutation.from_cycles(6, [0, 1]),
            Permutation.from_cycles(6, [0, 1, 2]),
            Permutation.from_cycles(6, [3, 4]),
            Permutation.from_cycles(6, [3, 4, 5]),
            Permutation.from_cycles(6, [0, 3], [1, 4], [2, 5]),
        ], 6)

        def dihedral(n):
            return PermGroup([
                Permutation.from_cycles(n, list(range(n))),
                Permutation([(n - i) % n for i in range(n)]),
            ], n)

        return [tower, s3_wr_s2, dihedral(8), dihedral(7)]

    def test_exact_on_structured_groups(self):
        rng = random.Random(8282)
        for group in self.groups():
            n = group.degree
            elements = list(group.elements())
            for _ in range(25):
                part = PPartition.trivial(n)
                if n % 2 == 0 and rng.random() < 0.5:
                    cand = PPartition.from_classes(
                        n, [[2 * i, 2 * i + 1] for i in range(n // 2)])
                    if all(cand.is_invariant_under(g) for g in group.generators):
                        part = cand
                members = set()
                for _ in range(rng.randint(1, 6)):
                    c = rng.randrange(part.num_classes)
                    members.add((c, tuple(rng.randint(0, 1)
                                          for _ in part.members(c))))
                fx = make_family(part, [PString(c, l) for c, l in sorted(members)])
                if rng.random() < 0.5:
                    fy = fx.apply(elements[rng.randrange(len(elements))])
                else:
                    members2 = set()
                    for _ in range(rng.randint(1, 6)):
                        c = rng.randrange(part.num_classes)
                        members2.add((c, tuple(rng.randint(0, 1)
                                               for _ in part.members(c))))
                    fy = make_family(part, [PString(c, l) for c, l in sorted(members2)])
                got = solver_set(group, part, fx, fy)
                assert got == brute_gsi(group, fx, fy)


class TestNormalizeInstanceWrapper:
    def test_answer_preserved_through_normalization(self):
        from setiso.solver import normalize_instance
        rng = random.Random(64)
        for _ in range(10):
            n = rng.randint(2, 6)
            g = rand_group(rng, n, order_cap=720)
            part = rand_invariant_partition(rng, g)
            fx = rand_family_on(rng, part)
            fy = rand_family_on(rng, part)
            inst = GsiInstance(g, part, fx, fy)
            new_inst, record = normalize_instance(inst)
            assert new_inst.chain is not None
            before = generalized_string_iso(inst)
            after = generalized_string_iso(new_inst)
            assert before.is_empty == after.is_empty
            if not before.is_empty:
                assert before.order() == after.order()
                mapped = {record.phi.apply(e).images for e in before.elements()}
                assert mapped == after.element_set()


class TestCombineWindows:
    def test_precondition_recheck(self):
        # the group part must respect x on both windows
        g = PermGroup([Permutation([1, 0, 2, 3])], 4)
        part = PPartition.trivial(4)
        fx = make_family(part, [PString(0, (0, 1, 0, 0))])
        with pytest.raises(ValueError):
            combine_windows(IsoCoset.full(g), part, fx, fx, [0, 1], [2, 3])
        # and the windows must be invariant
        with pytest.raises(ValueError):
            combine_windows(IsoCoset.full(g), part, fx, fx, [0], [2, 3])

    def test_degenerate_empty_window(self):
        g = PermGroup([Permutation([1, 0, 2, 3])], 4)
        part = PPartition.trivial(4)
        fam = make_family(part, [PString(0, (0, 0, 1, 1))])
        res = combine_windows(IsoCoset.full(g), part, fam, fam, [0, 1], [])
        assert not res.is_empty
        assert res.group.order() == g.order()

    def test_guard_on_mismatched_window(self):
        g = PermGroup([], 4)
        part = PPartition.trivial(4)
        fx = make_family(part, [PString(0, (0, 0, 1, 1))])
        fy = make_family(part, [PString(0, (0, 1, 1, 1))])
        res = combine_windows(IsoCoset.full(g), part, fx, fy, [0, 1], [2, 3])
        assert res.is_empty

    def test_cross_window_consistency_brute(self):
        rng = random.Random(31415)
        for _ in range(40):
            # intransitive group with two orbits as the windows
            k = rng.randint(1, 3)
            m = rng.randint(1, 3)
            n = k + m
            gens = []
            if k > 1:
                gens.append(Permutation.from_cycles(n, list(range(k))))
            if m > 1:
                gens.append(Permutation.from_cycles(n, list(range(k, n))))
            if not gens:
                gens = []
            g = rand_group(rng, n) if not gens else PermGroup(gens, n)
            w1 = [p for p in range(k)]
            w2 = [p for p in range(k, n)]
            orbs = {frozenset(o) for o in g.orbits()}
            if not (any(set(w1) <= o for o in orbs) or not w1):
                continue
            part = PPartition.trivial(n)
            fx = rand_family_on(rng, part, max_members=4)
            fy = rand_family_on(rng, part, max_members=4)
            ok_windows = True
            for w in (w1, w2):
                if not w:
                    continue
                if not all(gg.apply_set(set(w)) == frozenset(w) for gg in g.generators):
                    ok_windows = False
            if not ok_windows:
                continue
            # build y matching x on both windows separately, then combine
            try:
                res = combine_windows(IsoCoset.full(g), part, fx, fy, w1, w2)
            except ValueError:
                continue  # preconditions not met for this sample
            w = sorted(set(w1) | set(w2))
            brute = set()
            for e in g.elements():
                fxw = fx.restrict(w).apply(_restrict(e, w)) if w else None
                if fx.restrict(w).apply(_restrict(e, w)).key() == fy.restrict(w).key():
                    brute.add(e.images)
            assert res.element_set() == frozenset(brute)


    def test_equal_cuts_on_both_windows_stay_apart(self):
        # the one class meets both orbits, and {0, 4} cuts to the same
        # letters on each: the two cuts are two vertices of the co-membership
        # graph, not one
        n = 8
        g = PermGroup([Permutation.from_cycles(n, [0, 1]), Permutation.from_cycles(n, [0, 1, 2, 3]),
                       Permutation.from_cycles(n, [4, 5]), Permutation.from_cycles(n, [4, 5, 6, 7])], n)
        h1 = Hypergraph(n, frozenset({frozenset({0, 4}), frozenset({1, 2, 5})}))
        h2 = h1.apply(Permutation([1, 2, 3, 0, 6, 4, 5, 7]))
        x, y = hypergraph_to_family(h1), hypergraph_to_family(h2)
        expected = brute_gsi(g, x, y)
        assert len(expected) == 4
        assert solver_set(g, PPartition.trivial(n), x, y) == expected


class TestBudget:
    def test_search_budget_counts_search_nodes(self):
        # Aut has order 48 in Sym(8): listing the elements of Sym(8) one by
        # one would need far more than 2000 nodes
        n = 8
        h1 = Hypergraph(n, frozenset(frozenset({i, (i + 1) % n, (i + 3) % n})
                                     for i in range(n)))
        h2 = h1.apply(Permutation([3, 6, 0, 7, 2, 5, 1, 4]))
        inst = GsiInstance(sym(n), PPartition.trivial(n),
                           hypergraph_to_family(h1), hypergraph_to_family(h2))
        res = generalized_string_iso(inst, SolverConfig(budget=2000))
        assert res.order() == 48
        assert h1.apply(res.rep) == h2

    def test_nested_queries_share_the_query_budget(self, monkeypatch):
        budgets = []
        init = setiso.strings.Budget.__init__

        def recording_init(self, limit=None):
            budgets.append(self)
            init(self, limit)

        monkeypatch.setattr(setiso.strings.Budget, "__init__", recording_init)
        # S2 wr S4 (order 384, past the direct cutoff) with the blocks as
        # classes; the occupancies (2, 1, 1, 2) make balance_orbits ask a
        # nested string query
        g = PermGroup([Permutation.from_cycles(8, [0, 1]),
                       Permutation.from_cycles(8, [0, 2], [1, 3]),
                       Permutation.from_cycles(8, [0, 2, 4, 6], [1, 3, 5, 7])], 8)
        part = PPartition.from_classes(8, [[2 * i, 2 * i + 1] for i in range(4)])
        fx = make_family(part, [PString(0, (0, 1)), PString(0, (1, 0)), PString(1, (0, 0)),
                                PString(2, (1, 1)), PString(3, (0, 1)), PString(3, (1, 1))])
        inst = GsiInstance(g, part, fx, fx.apply(Permutation([3, 2, 6, 7, 1, 0, 4, 5])))
        assert g.order() > DIRECT_ENUM_CUTOFF
        assert generalized_string_iso(inst).order() == 8
        assert len(budgets) == 1
        total = budgets[0].used
        with pytest.raises(BudgetExceeded):
            generalized_string_iso(inst, SolverConfig(budget=total - 1))
        assert generalized_string_iso(inst, SolverConfig(budget=total)).order() == 8


def _restrict(g, points):
    pts = sorted(points)
    pos = {p: i for i, p in enumerate(pts)}
    return Permutation([pos[g.images[p]] for p in pts])
