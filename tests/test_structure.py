import random

import pytest

from setiso.perm import PermGroup, Permutation
from setiso.structure import (
    BranchCapExceeded,
    PartitionChain,
    StructureGraph,
    block_token,
    build_structure_graph,
    certified_arity,
    chain_of_tree,
    combine_along_blocks,
    invariant_chain,
    is_almost_d_ary,
    orbit_trees,
    relabel_token,
    branch_leaf,
    tree_from_chain,
    unfold_and_act,
    _is_semiregular,
)

from util import rand_group


def c4():
    return PermGroup([Permutation([1, 2, 3, 0])], 4)


def s4():
    return PermGroup([Permutation.from_cycles(4, [0, 1]),
                      Permutation.from_cycles(4, [0, 1, 2, 3])], 4)


def wreath_c2_c2():
    # blocks {0,1}, {2,3}
    return PermGroup([
        Permutation.from_cycles(4, [0, 1]),
        Permutation.from_cycles(4, [2, 3]),
        Permutation.from_cycles(4, [0, 2], [1, 3]),
    ], 4)


def s2_wr_sk(k):
    # blocks {0,1}, {2,3}, ...; the top group is Sym(k)
    n = 2 * k
    gens = [Permutation.from_cycles(n, [0, 1]),
            Permutation.from_cycles(n, [0, 2], [1, 3])]
    if k > 2:
        gens.append(Permutation.from_cycles(n, list(range(0, n, 2)), list(range(1, n, 2))))
    return PermGroup(gens, n)


class TestStructureGraphBasics:
    def test_tree_of_chain_unfolds_to_itself(self):
        g = c4()
        levels = invariant_chain(g, range(4))
        root, arcs = tree_from_chain(range(4), levels, tag="lvl")
        sg = StructureGraph(g, root, arcs)
        tree, psi, branches = unfold_and_act(sg)
        assert len(branches) == 4
        assert sg.count_maximal_branches() == 4

    def test_diamond_dag_two_branches_per_leaf_path(self):
        # root -> a, b; a, b -> leaf 0 (trivial group on 1 point)
        g = PermGroup([], 1)
        root, a, b = ("tag", ("r",)), ("tag", ("a",)), ("tag", ("b",))
        arcs = [(root, a), (root, b), (a, ("leaf", 0)), (b, ("leaf", 0))]
        sg = StructureGraph(g, root, arcs)
        assert sg.count_maximal_branches() == 2
        tree, psi, branches = unfold_and_act(sg)
        assert len(branches) == 2
        assert all(branch_leaf(br) == 0 for br in branches)

    def test_layering_enforced(self):
        g = PermGroup([], 2)
        root = ("tag", ("r",))
        with pytest.raises(ValueError):
            StructureGraph(g, root, [(root, ("leaf", 0)), (("leaf", 0), ("leaf", 1))])

    def test_action_must_extend_generators(self):
        g = PermGroup([Permutation([1, 0])], 2)
        root = ("tag", ("r",))
        # explicit action that fixes the leaves is invalid
        maps = [{root: root, ("leaf", 0): ("leaf", 0), ("leaf", 1): ("leaf", 1)}]
        with pytest.raises(ValueError):
            StructureGraph(g, root, [(root, ("leaf", 0)), (root, ("leaf", 1))],
                           action_maps=maps)

    def test_branch_cap(self):
        g = PermGroup([], 1)
        root, a, b = ("tag", ("r",)), ("tag", ("a",)), ("tag", ("b",))
        arcs = [(root, a), (root, b), (a, ("leaf", 0)), (b, ("leaf", 0))]
        sg = StructureGraph(g, root, arcs)
        with pytest.raises(BranchCapExceeded):
            sg.maximal_branches(cap=1)


class TestLCommutation:
    def test_l_commutation_on_random_groups(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = rand_group(rng, n)
            sg, _, _ = build_structure_graph(g)
            tree, psi, branches = unfold_and_act(sg)
            for gen in g.generators:
                img = psi.apply(gen)
                for i, br in enumerate(branches):
                    assert branch_leaf(branches[img.images[i]]) == gen.images[branch_leaf(br)]

    def test_unfolded_leaf_count(self):
        rng = random.Random(55)
        for _ in range(20):
            n = rng.randint(1, 6)
            g = rand_group(rng, n)
            sg, _, _ = build_structure_graph(g)
            tree, psi, branches = unfold_and_act(sg)
            assert len(tree.leaf_points) == len(branches) == sg.count_maximal_branches()


class TestBuildStructureGraph:
    def test_s4_primitive_one_level(self):
        sg, dprime, chain = build_structure_graph(s4())
        assert dprime == 4
        assert len(chain.levels) == 2

    def test_c4_certified_two(self):
        sg, dprime, chain = build_structure_graph(c4())
        assert dprime == 2
        # chain {0..3} > {{0,2},{1,3}} > singletons
        assert chain.levels[1] == (frozenset({0, 2}), frozenset({1, 3}))

    def test_orbit_trees_one_piece_per_orbit(self):
        # orbits {0,1,2}, {3,4} and the fixed point 5
        g = PermGroup([Permutation.from_cycles(6, [0, 1, 2]),
                       Permutation.from_cycles(6, [3, 4])], 6)
        pieces = orbit_trees(g, range(6), "t")
        assert len(pieces) == 3
        leaves = [{v[1] for _, v in arcs if v[0] == "leaf"} for _, arcs in pieces]
        assert leaves[:2] == [{0, 1, 2}, {3, 4}]
        assert pieces[2] == (("leaf", 5), [])
        assert [root for root, _ in orbit_trees(g, [3, 4, 5], "t")] == \
            [block_token(("t", 0), [3, 4]), ("leaf", 5)]

    def test_intransitive_root_join(self):
        g = PermGroup([Permutation.from_cycles(3, [0, 1])], 3)
        sg, dprime, chain = build_structure_graph(g)
        assert dprime == 2
        assert sg.count_maximal_branches() == 3

    def test_certified_arity_verified_by_is_almost_d_ary(self):
        rng = random.Random(202)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = rand_group(rng, n)
            sg, dprime, chain = build_structure_graph(g)
            ok, _ = is_almost_d_ary(chain, g, dprime)
            assert ok
            if dprime > 2:
                ok_small, _ = is_almost_d_ary(chain, g, dprime - 1)
                assert not ok_small


class TestAlmostDary:
    def test_small_fanout_everywhere(self):
        g = wreath_c2_c2()
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        ok, _ = is_almost_d_ary(chain, g, 2)
        assert ok

    def test_semiregular_clause(self):
        # C4 with the one-step chain: fanout 4 > d, but the action is regular
        g = c4()
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))],
            [frozenset({i}) for i in range(4)],
        ])
        ok, witnesses = is_almost_d_ary(chain, g, 2)
        assert ok
        assert witnesses[0].semiregular

    def test_s4_one_step_fails_for_small_d(self):
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))],
            [frozenset({i}) for i in range(4)],
        ])
        ok, _ = is_almost_d_ary(chain, s4(), 3)
        assert not ok
        ok4, _ = is_almost_d_ary(chain, s4(), 4)
        assert ok4

    def test_semiregular_against_point_stabilizers(self):
        rng = random.Random(312)
        groups = [c4(), s4(), wreath_c2_c2(), PermGroup([], 3),
                  PermGroup([Permutation.from_cycles(6, [0, 1, 2], [3, 4, 5])], 6)]
        groups += [rand_group(rng, rng.randint(1, 7)) for _ in range(60)]
        seen = set()
        for g in groups:
            expect = all(g.stabilizer(p).order() == 1 for p in range(g.degree))
            assert _is_semiregular(g) == expect
            seen.add(expect)
        assert seen == {True, False}

    def test_invariance_required(self):
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        with pytest.raises(ValueError):
            is_almost_d_ary(chain, c4(), 2)


class TestCombine:
    def test_trivial_block_system_reroots(self):
        g = wreath_c2_c2()
        blocks = [frozenset({0, 1}), frozenset({2, 3})]
        hom = g.block_action(blocks)
        top, _, _ = build_structure_graph(hom.image())
        bottom_root, bottom_arcs = (
            block_token(("cls",), [0, 1]),
            [(block_token(("cls",), [0, 1]), ("leaf", 0)),
             (block_token(("cls",), [0, 1]), ("leaf", 1))],
        )
        combined = combine_along_blocks(g, blocks, top, (bottom_root, bottom_arcs))
        assert combined.count_maximal_branches() == 4
        # the v_B nodes expose the blocks
        assert combined.leaves_below(bottom_root) == frozenset({0, 1})

    def test_explicit_bottoms(self):
        g = wreath_c2_c2()
        blocks = [frozenset({0, 1}), frozenset({2, 3})]
        hom = g.block_action(blocks)
        top, _, _ = build_structure_graph(hom.image())
        bottoms = {}
        for i, blk in enumerate(blocks):
            tok = block_token(("cls",), blk)
            bottoms[i] = (tok, [(tok, ("leaf", p)) for p in sorted(blk)])
        combined = combine_along_blocks(g, blocks, top, bottoms)
        assert combined.count_maximal_branches() == 4
        chain = chain_of_tree(combined)
        assert certified_arity(chain, g) == 2

    @pytest.mark.parametrize("k", [2, 3], ids=["S2wrS2", "S2wrS3"])
    def test_transported_bottom_equals_explicit_bottoms(self, k):
        g = s2_wr_sk(k)
        blocks = [frozenset({2 * i, 2 * i + 1}) for i in range(k)]
        top, _, _ = build_structure_graph(g.block_action(blocks).image())

        def piece(blk):
            tok = block_token(("cls",), blk)
            return tok, [(tok, ("leaf", p)) for p in sorted(blk)]

        one = combine_along_blocks(g, blocks, top, piece(blocks[0]))
        each = combine_along_blocks(g, blocks, top, {i: piece(b) for i, b in enumerate(blocks)})
        assert one.root == each.root
        assert one.arcs == each.arcs
        assert one.count_maximal_branches() == 2 * k


class TestChainOps:
    def test_restrict_drops_duplicates(self):
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        sub = chain.restrict([0, 1])
        assert len(sub.levels) == 2
        assert sub.levels[0] == (frozenset({0, 1}),)

    def test_level_index_of(self):
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))],
            [frozenset({0, 1}), frozenset({2, 3})],
            [frozenset({i}) for i in range(4)],
        ])
        assert chain.level_index_of([frozenset({0, 1}), frozenset({2, 3})]) == 1
