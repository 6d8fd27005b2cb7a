"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All expected values come from the independent brute-force oracle or
are pinned constants; tolerances are exact throughout.
"""

import itertools
import random
import time

import pytest

from setiso.certificates import find_giant_rep, local_certificate_pair
from setiso.graphs import ColoredGraph
from setiso.hfs import HfsTerm, hfs_to_graph, iso_hfs
from setiso.minorfree import bipartite_genus, genus_to_h
from setiso.normalize import normalize_families, renormalize_families
from setiso.oracle import brute_force_iso
from setiso.perm import PermGroup, Permutation, is_giant
from setiso.pstrings import (
    Hypergraph,
    PPartition,
    PString,
    VirtualSizeConfig,
    hypergraph_to_family,
    make_family,
)
from setiso.refine import color_refinement, tcr_sequence
from setiso.simplify import simplify_on_window
from setiso.solver import GsiInstance, family_image_key, generalized_string_iso
from setiso.strings import ColoredString, StringQuery, graph_iso_under_group, string_iso
from setiso.structure import (
    PartitionChain,
    StructureGraph,
    branch_leaf,
    build_structure_graph,
    is_almost_d_ary,
    unfold_and_act,
)

from util import rand_perm, run_cli

from test_minorfree import cube_graph, dodecahedron, truncated_prism
from test_simplify import build_simplify_instance, trivial_chain_for


def report(num, name, ok, detail=""):
    line = "ACCEPTANCE %d %s: %s%s" % (num, name, "PASS" if ok else "FAIL",
                                       " (%s)" % detail if detail else "")
    print(line)
    assert ok, line


def rand_gens(rng, n, max_gens=2):
    return [rand_perm(rng, n) for _ in range(rng.randint(0, max_gens))]


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


def check_coset(result, oracle_images, apply_check):
    """Criterion 2 on one answer: generators fix, rep maps, order matches."""
    if result.is_empty:
        return len(oracle_images) == 0
    if result.order() != len(oracle_images):
        return False
    if not apply_check(result.rep):
        return False
    for g in result.group.generators:
        if not apply_check(g * result.rep):
            return False
    return result.element_set() == frozenset(oracle_images)


class TestCriterion1and2:
    def test_oracle_equivalence_and_coset_soundness(self):
        rng = random.Random(0xC0FFEE)
        t0 = time.time()
        checked = {"string": 0, "hypergraph": 0, "family": 0, "graph": 0}
        sound = True

        for _ in range(500):  # strings
            n = rng.randint(1, 7)
            gens = rand_gens(rng, n)
            group = PermGroup(gens, n)
            x = ColoredString(tuple(rng.randint(0, 2) for _ in range(n)))
            if rng.random() < 0.4:
                y = x.apply(rand_perm(rng, n))
            else:
                y = ColoredString(tuple(rng.randint(0, 2) for _ in range(n)))
            res = string_iso(StringQuery(group, x, y))
            want = brute_force_iso(gens, n, "string", x.letters, y.letters)
            assert res.element_set() == frozenset(want)
            sound &= check_coset(res, want,
                                 lambda g: x.apply(g) == y)
            checked["string"] += 1

        for _ in range(500):  # set-of-strings / hypergraphs
            n = rng.randint(2, 7)
            gens = rand_gens(rng, n)
            group = PermGroup(gens, n)
            edges = frozenset(frozenset(rng.sample(range(n), rng.randint(1, n)))
                              for _ in range(rng.randint(1, 8)))
            h1 = Hypergraph(n, edges)
            if rng.random() < 0.4:
                h2 = h1.apply(rand_perm(rng, n))
            else:
                h2 = Hypergraph(n, frozenset(
                    frozenset(rng.sample(range(n), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 8))))
            f1, f2 = hypergraph_to_family(h1), hypergraph_to_family(h2)
            res = generalized_string_iso(
                GsiInstance(group, PPartition.trivial(n), f1, f2))
            want = brute_force_iso(gens, n, "hypergraph", h1.edges, h2.edges)
            assert res.element_set() == frozenset(want)
            sound &= check_coset(res, want,
                                 lambda g: h1.apply(g) == h2)
            checked["hypergraph"] += 1

        for _ in range(500):  # P-string families
            n = rng.randint(2, 7)
            gens = rand_gens(rng, n)
            group = PermGroup(gens, n)
            part = rand_invariant_partition(rng, group)
            members = set()
            for _ in range(rng.randint(1, 8)):
                c = rng.randrange(part.num_classes)
                members.add((c, tuple(rng.randint(0, 2)
                                      for _ in part.members(c))))
            fx = make_family(part, [PString(c, l) for c, l in sorted(members)])
            if rng.random() < 0.4:
                cand = rand_perm(rng, n)
                fy = fx.apply(cand) if part.is_invariant_under(cand) else fx
            else:
                members2 = set()
                for _ in range(rng.randint(1, 8)):
                    c = rng.randrange(part.num_classes)
                    members2.add((c, tuple(rng.randint(0, 2)
                                           for _ in part.members(c))))
                fy = make_family(part, [PString(c, l) for c, l in sorted(members2)])
            res = generalized_string_iso(GsiInstance(group, part, fx, fy))
            want = brute_force_iso(
                gens, n, "family",
                (part.class_of, {(m.class_id, m.letters) for m in fx.members}),
                (part.class_of, {(m.class_id, m.letters) for m in fy.members}))
            assert res.element_set() == frozenset(want)
            sound &= check_coset(
                res, want, lambda g: family_image_key(fx, g) == fy.key())
            checked["family"] += 1

        for _ in range(500):  # colored graphs
            n = rng.randint(2, 7)
            gens = rand_gens(rng, n)
            group = PermGroup(gens, n)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g1 = ColoredGraph.plain(n, edges,
                                    [rng.randint(0, 1) for _ in range(n)])
            if rng.random() < 0.4:
                g2 = g1.apply(rand_perm(rng, n))
            else:
                edges2 = [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4]
                g2 = ColoredGraph.plain(n, edges2,
                                        [rng.randint(0, 1) for _ in range(n)])
            res = graph_iso_under_group(g1, g2, group)
            want = brute_force_iso(gens, n, "graph", g1, g2)
            assert res.element_set() == frozenset(want)
            sound &= check_coset(res, want, lambda g: g1.apply(g) == g2)
            checked["graph"] += 1

        elapsed = time.time() - t0
        total = sum(checked.values())
        report(1, "oracle-equivalence",
               total == 2000 and elapsed < 120,
               "%d instances in %.1fs" % (total, elapsed))
        report(2, "coset-soundness", sound, "verified on every answer")


class TestCriterion3:
    def test_virtual_size_lemmas(self):
        rng = random.Random(33)
        t0 = time.time()
        cfg = VirtualSizeConfig(d=2)
        ok = True
        for _ in range(1000):
            n = rng.randint(2, 8)
            ids = [rng.randint(0, max(0, n // 2)) for _ in range(n)]
            dense = {}
            table = [dense.setdefault(i, len(dense)) for i in ids]
            part = PPartition(n, tuple(table))
            members = set()
            for _ in range(rng.randint(1, 8)):
                c = rng.randrange(part.num_classes)
                members.add((c, tuple(rng.randint(0, 2) for _ in part.members(c))))
            fam = make_family(part, [PString(c, l) for c, l in sorted(members)])
            s = fam.virtual_size(cfg)
            pts = list(range(n))
            rng.shuffle(pts)
            k = rng.randint(1, n - 1)
            w1, w2 = sorted(pts[:k]), sorted(pts[k:])
            ok &= (fam.restrict(w1).virtual_size(cfg)
                   + fam.restrict(w2).virtual_size(cfg) <= s)
            small = sorted(pts[:k])
            larger = sorted(pts[:k + 1])
            ok &= (fam.restrict(small).virtual_size(cfg)
                   < fam.restrict(larger).virtual_size(cfg))
            # balanced bound on a balanced variant
            m0 = rng.randint(1, 3)
            bal_members = []
            for c in range(part.num_classes):
                size = len(part.members(c))
                pool = set()
                while len(pool) < m0:
                    pool.add(tuple(rng.randint(0, 5) for _ in range(size)))
                bal_members += [PString(c, l) for l in sorted(pool)]
            bal = make_family(part, bal_members)
            sb = bal.virtual_size(cfg)
            w = sorted(rng.sample(range(n), rng.randint(1, n)))
            ok &= bal.restrict(w).virtual_size(cfg) * n <= len(w) * sb
        elapsed = time.time() - t0
        report(3, "virtual-size-lemmas", ok and elapsed < 10,
               "1000 families in %.1fs" % elapsed)


class TestCriterion4:
    def test_simplify_on_window(self):
        rng = random.Random(44)
        t0 = time.time()
        ok = True
        instances = 0
        d_checked = 0
        for trial in range(200):
            small = trial % 3 == 0
            group, part, families, window, chain, d = build_simplify_instance(
                rng, n_max=8 if small else 12,
                group_cap=240 if small else 2000)
            vcfg = VirtualSizeConfig(d)
            out = simplify_on_window(families, group, part, window, chain, d)
            instances += 1
            for cls in out:
                for k, idx in enumerate(cls.indices):
                    fam = cls.families[k]
                    if cls.window:
                        ok &= fam.restrict(cls.window).is_simple()       # E
                    ok &= fam.virtual_size(vcfg) <= families[idx].virtual_size(vcfg)  # F
                    off_old = sorted(set(range(part.n)) - set(window))
                    off_new = sorted(set(range(fam.partition.n)) - set(cls.window))
                    if off_old and off_new:                               # G
                        ok &= (fam.restrict(off_new).virtual_size(vcfg)
                               <= families[idx].restrict(off_old).virtual_size(vcfg))
            if small and group.order() <= 240 and len(families) >= 2:
                for cls in out:                                           # D
                    for ka, ia in enumerate(cls.indices):
                        for kb, ib in enumerate(cls.indices):
                            lhs = {e.images for e in group.elements()
                                   if family_image_key(families[ia], e)
                                   == families[ib].key()}
                            star = cls.norm.group
                            fa, fb = cls.families[ka], cls.families[kb]
                            la_inv = cls.shifts[ka].inverse()
                            lb = cls.shifts[kb]
                            rhs = {(la_inv * cls.phi.apply(e) * lb).images
                                   for e in star.elements()
                                   if family_image_key(fa, e) == fb.key()}
                            ok &= lhs == rhs
                            d_checked += 1
        elapsed = time.time() - t0
        report(4, "simplify-on-window", ok and instances == 200 and elapsed < 60,
               "%d instances, %d coset identities, %.1fs"
               % (instances, d_checked, elapsed))


def _random_structure_graph(rng):
    """A chain tree of a random group, sometimes with a duplicated level to
    force a genuine DAG."""
    n = rng.randint(2, 7)
    gens = rand_gens(rng, n)
    group = PermGroup(gens, n)
    sg, dprime, chain = build_structure_graph(group)
    if rng.random() < 0.4 and len(chain.levels) >= 3:
        level = 1
        dup_arcs = set(sg.arcs)
        originals = [v for v in sg.vertices
                     if v[0] == "grp" and v[1][1] == level - 1 + 0]
        # duplicate the depth-1 vertices: same parents, same children
        for v in list(sg.vertices):
            if sg.depth(v) == 1 and v[0] == "grp":
                dup = ("grp", ("dup",) + v[1], v[2])
                for u, w in sg.arcs:
                    if w == v:
                        dup_arcs.add((u, dup))
                    if u == v:
                        dup_arcs.add((dup, w))
        try:
            return StructureGraph(group, sg.root, dup_arcs), group
        except ValueError:
            return sg, group
    return sg, group


class TestCriterion5:
    def test_normalization(self):
        rng = random.Random(55)
        t0 = time.time()
        ok = True
        graphs = 0
        while graphs < 100:
            sg, group = _random_structure_graph(rng)
            if sg.count_maximal_branches() > 10 ** 4:
                continue
            graphs += 1
            tree, psi, branches = unfold_and_act(sg)
            for gen in group.generators:                     # L-commutation
                img = psi.apply(gen)
                for i, br in enumerate(branches):
                    ok &= (branch_leaf(branches[img.images[i]])
                           == gen.images[branch_leaf(br)])
            ok &= len(tree.leaf_points) == len(branches)

        for _ in range(20):  # iso preservation at n <= 6
            n = rng.randint(2, 6)
            gens = rand_gens(rng, n)
            group = PermGroup(gens, n)
            part = rand_invariant_partition(rng, group)
            def rand_fam():
                members = set()
                for _ in range(rng.randint(1, 6)):
                    c = rng.randrange(part.num_classes)
                    members.add((c, tuple(rng.randint(0, 1)
                                          for _ in part.members(c))))
                return make_family(part, [PString(c, l) for c, l in sorted(members)])
            fx, fy = rand_fam(), rand_fam()
            norm = normalize_families(group, part, [fx, fy])
            nx, ny = norm.families
            for e in group.elements():
                before = family_image_key(fx, e) == fy.key()
                after = (family_image_key(nx, norm.phi.apply(e)) == ny.key())
                ok &= before == after

        # renormalize properties I-V on a wreath case
        wreath = PermGroup([
            Permutation.from_cycles(4, [0, 1]),
            Permutation.from_cycles(4, [2, 3]),
            Permutation.from_cycles(4, [0, 2], [1, 3]),
        ], 4)
        part = PPartition.discrete(4)
        chain = PartitionChain.from_partitions(range(4), [
            [frozenset(range(4))], [frozenset({i}) for i in range(4)]])
        fam = make_family(part, [PString(i, (i % 2,)) for i in range(4)])
        res = renormalize_families(wreath, part, [fam], chain, 1, 2)
        ok_chain, _ = is_almost_d_ary(res.chain, res.group, 2)
        ok &= ok_chain                                           # I
        for e in wreath.elements():                              # II
            img = res.phi.apply(e)
            for i, p in enumerate(res.point_map):
                ok &= res.point_map[img.images[i]] == e.images[p]
        for new_c, old_c in enumerate(res.class_map):            # III, V
            new_pts = {res.point_map[p] for p in res.partition.members(new_c)}
            ok &= new_pts == set(part.members(old_c))
            ok &= len(res.partition.members(new_c)) == len(part.members(old_c))
        counts = {}
        for old_c in res.class_map:                              # IV
            counts[old_c] = counts.get(old_c, 0) + 1
        ok &= all(v == 1 for v in counts.values())

        elapsed = time.time() - t0
        report(5, "normalization", ok and elapsed < 60,
               "%d structure graphs, %.1fs" % (graphs, elapsed))


class TestCriterion6:
    def test_local_certificates(self):
        rng = random.Random(66)
        t0 = time.time()
        ok = True
        group = PermGroup([
            Permutation.from_cycles(10, [0, 1]),
            Permutation.from_cycles(10, [0, 2], [1, 3]),
            Permutation.from_cycles(10, [0, 2, 4, 6, 8], [1, 3, 5, 7, 9]),
        ], 10)
        part = PPartition.from_classes(10, [[2 * i, 2 * i + 1] for i in range(5)])
        chain = PartitionChain.from_partitions(range(10), [
            [frozenset(range(10))],
            [frozenset({2 * i, 2 * i + 1}) for i in range(5)],
            [frozenset({i}) for i in range(10)],
        ])
        rep = find_giant_rep(group)
        ok &= rep is not None and rep.k == 5

        aff = set()
        from setiso.certificates import affected_points
        aff_list = affected_points(group, rep)
        for orb in group.orbits():                      # affected orbit union
            ok &= set(orb) <= set(aff_list) or not (set(orb) & set(aff_list))
        kernel = rep.hom.kernel()
        for orb in kernel.orbits():                     # kernel orbit bound
            ok &= len(orb) <= len(aff_list) // rep.k

        elements = list(group.elements())
        t_set = [0, 1, 2, 3, 4]
        pairs = 0
        for trial in range(5):
            members = set()
            for c in range(5):
                for _ in range(rng.randint(1, 2)):
                    members.add((c, (rng.randint(0, 1), rng.randint(0, 1))))
            fx = make_family(part, [PString(c, l) for c, l in sorted(members)])
            if trial % 2 == 0:
                mover = elements[rng.randrange(len(elements))]
                fy = fx.apply(mover)
            else:
                members2 = {(c, (rng.randint(0, 2), rng.randint(0, 2)))
                            for c in range(5)}
                fy = make_family(part, [PString(c, l) for c, l in sorted(members2)])
            res = local_certificate_pair(fx, fy, group, rep, t_set, t_set,
                                         part, chain, d=5)
            pairs += 1
            auts = {g.images for g in elements
                    if family_image_key(fx, g) == fx.key()}
            if res.cert_x.kind == "full":
                for g in res.cert_x.group.elements():
                    ok &= g.images in auts
                image = PermGroup([rep.apply(g)
                                   for g in res.cert_x.group.generators], 5)
                ok &= is_giant(image, range(5)) is not None
            fy_key = fy.key()
            want = set()
            for g in elements:
                if family_image_key(fx, g) != fy_key:
                    continue
                img = rep.apply(g)
                if img.apply_set(t_set) != frozenset(t_set):
                    continue
                want.add(tuple(img.images[p] for p in t_set))
            if res.compare_empty:
                ok &= not want
            else:
                allowed = {tuple(res.compare_map[h.images[i]] for i in range(5))
                           for h in res.compare_group.elements()}
                ok &= want <= allowed
        elapsed = time.time() - t0
        report(6, "local-certificates", ok and elapsed < 60,
               "%d pairs on the 10-point wreath, %.1fs" % (pairs, elapsed))


class TestCriterion7:
    def test_color_refinement_and_minor_pipeline(self, tmp_path):
        rng = random.Random(77)
        t0 = time.time()
        ok = True
        for _ in range(500):                      # stable colorings equitable
            n = rng.randint(2, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = ColoredGraph.plain(n, edges, [rng.randint(0, 1) for _ in range(n)])
            col = color_refinement(g)
            neighbors = g.neighbor_table()
            for cls in col.classes():
                for other in col.classes():
                    sigs = {tuple(sorted(
                        (col.ids[w], g.arc_colors[(u, w)], g.arc_colors[(w, u)])
                        for w in neighbors[u] if w in set(other)))
                        for u in cls}
                    ok &= len(sigs) == 1

        k4 = ColoredGraph.plain(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        _, discrete, _ = tcr_sequence(k4, [0, 1, 2], 2)
        ok &= discrete                            # 2-CR-bounded with a triple

        from setiso import fileio
        dodec = dodecahedron()
        pi = rand_perm(rng, 20)
        fileio.write_colored_graph(str(tmp_path / "d1.cg"), dodec)
        fileio.write_colored_graph(str(tmp_path / "d2.cg"), dodec.apply(pi))
        code, out, err = run_cli(["iso-excluded-minor", "--h", "3", "--machine",
                                  str(tmp_path / "d1.cg"), str(tmp_path / "d2.cg")])
        ok &= code == 0 and out.splitlines()[0] == "ISO"
        ok &= "aut-order 120" in out

        fileio.write_colored_graph(str(tmp_path / "cube.cg"), cube_graph())
        fileio.write_colored_graph(str(tmp_path / "prism.cg"), truncated_prism())
        oracle_count = sum(
            1 for images in itertools.permutations(range(8))
            if cube_graph().apply(Permutation(images)) == truncated_prism())
        ok &= oracle_count == 0
        code, out, _ = run_cli(["iso-excluded-minor", "--h", "3", "--machine",
                                str(tmp_path / "cube.cg"), str(tmp_path / "prism.cg")])
        ok &= code == 1 and out.strip() == "NONISO"

        ok &= [genus_to_h(g) for g in (0, 1, 2)] == [3, 7, 11]
        ok &= bipartite_genus(3, 3) == 1
        ok &= bipartite_genus(3, 7) == 2

        elapsed = time.time() - t0
        report(7, "color-refinement-minor-pipeline", ok and elapsed < 120,
               "%.1fs" % elapsed)


class TestCriterion8:
    def test_hfs(self):
        rng = random.Random(88)
        t0 = time.time()
        ok = True
        a = [HfsTerm.make_atom(i) for i in range(5)]
        figure = HfsTerm.make_tuple([
            HfsTerm.make_set(a),
            HfsTerm.make_set([HfsTerm.make_tuple([a[0], a[1]]),
                              HfsTerm.make_tuple([a[2], a[3]]),
                              HfsTerm.make_tuple([a[3], a[4]])]),
            HfsTerm.make_set([HfsTerm.make_tuple([a[2], a[0]]),
                              HfsTerm.make_tuple([a[2], a[3]]),
                              HfsTerm.make_set([a[0], a[1]])]),
        ])
        g, _ = hfs_to_graph(figure, 5)
        counts = {}
        for c in g.vertex_colors:
            counts[c] = counts.get(c, 0) + 1
        ok &= g.n == 14 and counts == {0: 5, 1: 4, 2: 5}

        def rand_term(universe, depth=3):
            if depth == 0 or rng.random() < 0.35:
                return HfsTerm.make_atom(rng.randrange(universe))
            children = [rand_term(universe, depth - 1)
                        for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                return HfsTerm.make_set(children)
            return HfsTerm.make_tuple(children)

        pairs = 0
        for _ in range(500):
            n = rng.randint(2, 6)
            gens = rand_gens(rng, n)
            group = PermGroup(gens, n)
            t1 = rand_term(n)
            if rng.random() < 0.5:
                t2 = t1.apply(rand_perm(rng, n))
            else:
                t2 = rand_term(n)
            res = iso_hfs(t1, t2, group)
            want = brute_force_iso(gens, n, "hfs", t1, t2)
            ok &= res.element_set() == frozenset(want)
            pairs += 1

        swap = iso_hfs(HfsTerm.make_tuple([a[0], a[1]]),
                       HfsTerm.make_tuple([a[1], a[0]]),
                       PermGroup([], 5))
        ok &= swap.is_empty

        elapsed = time.time() - t0
        report(8, "hereditarily-finite-sets", ok and pairs == 500 and elapsed < 60,
               "%d pairs, %.1fs" % (pairs, elapsed))


class TestCriterion9:
    def test_cli_determinism(self, tmp_path):
        rng = random.Random(99)
        from setiso import fileio
        from setiso.strings import ColoredString as CS

        fileio.write_group(str(tmp_path / "s4.grp"), PermGroup(
            [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])], 4))
        fileio.write_group(str(tmp_path / "w4.grp"), PermGroup(
            [Permutation([1, 0, 2, 3]), Permutation([2, 3, 0, 1])], 4))
        fileio.write_string(str(tmp_path / "a.str"), CS((0, 0, 1, 1)))
        fileio.write_string(str(tmp_path / "b.str"), CS((1, 0, 1, 0)))
        cyc = Hypergraph(4, frozenset(frozenset(e) for e in
                                      [(0, 1), (1, 2), (2, 3), (3, 0)]))
        fileio.write_hypergraph(str(tmp_path / "c1.hg"), cyc)
        fileio.write_hypergraph(str(tmp_path / "c2.hg"),
                                cyc.apply(Permutation([2, 0, 3, 1])))
        k4 = ColoredGraph.plain(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        fileio.write_colored_graph(str(tmp_path / "k4.cg"), k4)
        fileio.write_colored_graph(str(tmp_path / "k4b.cg"), k4.apply(rand_perm(rng, 4)))
        fileio.write_colored_graph(str(tmp_path / "p3.cg"),
                                   ColoredGraph.plain(3, [(0, 1), (1, 2)]))
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fam = make_family(part, [PString(0, (1, 2)), PString(1, (0, 0))])
        fileio.write_family(str(tmp_path / "fx.psf"), fam)
        fileio.write_family(str(tmp_path / "fy.psf"),
                            fam.apply(Permutation([1, 0, 3, 2])))
        term = HfsTerm.make_set([HfsTerm.make_atom(0), HfsTerm.make_atom(1)])
        fileio.write_hfs(str(tmp_path / "t1.hfs"), 3, term)
        fileio.write_hfs(str(tmp_path / "t2.hfs"), 3, HfsTerm.make_set(
            [HfsTerm.make_atom(1), HfsTerm.make_atom(2)]))
        wgens = [
            Permutation.from_cycles(10, [0, 1]),
            Permutation.from_cycles(10, [0, 2], [1, 3]),
            Permutation.from_cycles(10, [0, 2, 4, 6, 8], [1, 3, 5, 7, 9]),
        ]
        fileio.write_group(str(tmp_path / "w10.grp"), PermGroup(wgens, 10))
        wpart = PPartition.from_classes(10, [[2 * i, 2 * i + 1] for i in range(5)])
        wfam = make_family(wpart, [PString(c, (0, 0)) for c in range(5)])
        fileio.write_family(str(tmp_path / "w.psf"), wfam)

        commands = [
            ["iso-string", "--machine", "--group", str(tmp_path / "s4.grp"),
             str(tmp_path / "a.str"), str(tmp_path / "b.str")],
            ["iso-hyper", "--machine", "--group", str(tmp_path / "s4.grp"),
             str(tmp_path / "c1.hg"), str(tmp_path / "c2.hg")],
            ["iso-graph", "--machine", str(tmp_path / "k4.cg"), str(tmp_path / "k4b.cg")],
            ["iso-psf", "--machine", "--group", str(tmp_path / "w4.grp"),
             str(tmp_path / "fx.psf"), str(tmp_path / "fy.psf")],
            ["iso-hfs", "--machine", str(tmp_path / "t1.hfs"), str(tmp_path / "t2.hfs")],
            ["iso-excluded-minor", "--h", "3", "--machine",
             str(tmp_path / "k4.cg"), str(tmp_path / "k4b.cg")],
            ["iso-genus", "--g", "0", "--machine",
             str(tmp_path / "k4.cg"), str(tmp_path / "k4b.cg")],
            ["refine", str(tmp_path / "p3.cg")],
            ["normalize", "--group", str(tmp_path / "w4.grp"),
             str(tmp_path / "fx.psf")],
            ["certify", "--d", "5", "--group", str(tmp_path / "w10.grp"),
             str(tmp_path / "w.psf"), str(tmp_path / "w.psf")],
            ["oracle", "--kind", "hyper", "--group", str(tmp_path / "s4.grp"),
             str(tmp_path / "c1.hg"), str(tmp_path / "c2.hg")],
            ["genus-table", "--g", "1"],
        ]
        ok = True
        for cmd in commands:
            seen = set()
            for _ in range(2):
                code, out, _ = run_cli(cmd)
                seen.add((code, out))
            ok &= len(seen) == 1
        report(9, "cli-determinism", ok, "%d subcommands" % len(commands))
