import os
import random

import pytest

from setiso import cli, fileio
from setiso.graphs import ColoredGraph
from setiso.hfs import HfsTerm
from setiso.perm import PermGroup, Permutation
from setiso.pstrings import Hypergraph, PPartition, PString, make_family
from setiso.strings import ColoredString

from util import GOLDEN, rand_perm, run_cli


class TestRoundTrips:
    def test_group(self, tmp_path):
        path = str(tmp_path / "g.grp")
        group = PermGroup([Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])], 4)
        fileio.write_group(path, group)
        back = fileio.read_group(path)
        assert back.order() == group.order()
        assert back.generators == group.generators

    def test_string(self, tmp_path):
        path = str(tmp_path / "x.str")
        s = ColoredString((0, 2, 1, 1))
        fileio.write_string(path, s)
        assert fileio.read_string(path) == s

    def test_hypergraph(self, tmp_path):
        path = str(tmp_path / "h.hg")
        h = Hypergraph(4, frozenset({frozenset({0, 1}), frozenset({1, 2, 3})}))
        fileio.write_hypergraph(path, h)
        assert fileio.read_hypergraph(path) == h

    def test_family(self, tmp_path):
        path = str(tmp_path / "f.psf")
        part = PPartition.from_classes(4, [[0, 1], [2, 3]])
        fam = make_family(part, [PString(0, (1, 2)), PString(1, (0, 0))])
        fileio.write_family(path, fam)
        back = fileio.read_family(path)
        assert back.key() == fam.key()

    def test_colored_graph(self, tmp_path):
        path = str(tmp_path / "g.cg")
        arcs = {(0, 1): 3, (1, 0): 4, (1, 2): 0, (2, 1): 0}
        g = ColoredGraph.build(3, arcs, [5, 6, 7])
        fileio.write_colored_graph(path, g)
        assert fileio.read_colored_graph(path) == g

    def test_hfs(self, tmp_path):
        path = str(tmp_path / "t.hfs")
        term = HfsTerm.make_tuple([
            HfsTerm.make_set([HfsTerm.make_atom(0), HfsTerm.make_atom(1)]),
            HfsTerm.make_atom(2),
        ])
        fileio.write_hfs(path, 3, term)
        n, back = fileio.read_hfs(path)
        assert n == 3
        assert back == term

    def test_parse_error_carries_line(self, tmp_path):
        path = str(tmp_path / "bad.hg")
        path_obj = tmp_path / "bad.hg"
        path_obj.write_text("2 1\n2 0 7\n")
        with pytest.raises(fileio.ParseError) as err:
            fileio.read_hypergraph(path)
        assert err.value.line == 2

    def test_colored_graph_rejects_a_repeated_vertex(self, tmp_path):
        # vertex 0 is listed twice and vertex 1 never: 1 must not keep color 0
        path = tmp_path / "rep.cg"
        path.write_text("4 3\n0 1\n0 2\n2 0\n3 0\n0 1 0 0\n1 2 0 0\n0 1 5 5\n")
        with pytest.raises(fileio.ParseError) as err:
            fileio.read_colored_graph(str(path))
        assert err.value.line == 3
        assert "vertex 0 is listed twice" in str(err.value)


@pytest.fixture
def fixture_dir(tmp_path):
    rng = random.Random(11)
    # group file: S4
    fileio.write_group(str(tmp_path / "s4.grp"),
                       PermGroup([Permutation([1, 0, 2, 3]),
                                  Permutation([1, 2, 3, 0])], 4))
    # strings
    fileio.write_string(str(tmp_path / "a.str"), ColoredString((0, 0, 1, 1)))
    fileio.write_string(str(tmp_path / "b.str"), ColoredString((1, 0, 1, 0)))
    fileio.write_string(str(tmp_path / "c.str"), ColoredString((0, 0, 0, 1)))
    # hypergraphs: 4-cycle and a relabeling
    cyc = Hypergraph(4, frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)]))
    fileio.write_hypergraph(str(tmp_path / "cyc.hg"), cyc)
    fileio.write_hypergraph(str(tmp_path / "cyc2.hg"), cyc.apply(Permutation([2, 0, 3, 1])))
    # colored graphs
    p3 = ColoredGraph.plain(4, [(0, 1), (1, 2), (2, 3)])
    fileio.write_colored_graph(str(tmp_path / "p3.cg"),
                               ColoredGraph.plain(3, [(0, 1), (1, 2)]))
    fileio.write_colored_graph(str(tmp_path / "path.cg"), p3)
    fileio.write_colored_graph(str(tmp_path / "path2.cg"), p3.apply(rand_perm(rng, 4)))
    k4 = ColoredGraph.plain(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    fileio.write_colored_graph(str(tmp_path / "k4.cg"), k4)
    fileio.write_colored_graph(str(tmp_path / "k4b.cg"), k4.apply(rand_perm(rng, 4)))
    # families
    part = PPartition.from_classes(4, [[0, 1], [2, 3]])
    fx = make_family(part, [PString(0, (1, 2)), PString(1, (0, 0))])
    fileio.write_family(str(tmp_path / "fx.psf"), fx)
    fileio.write_family(str(tmp_path / "fy.psf"), fx.apply(Permutation([1, 0, 3, 2])))
    # hfs
    term = HfsTerm.make_set([HfsTerm.make_atom(0), HfsTerm.make_atom(1)])
    fileio.write_hfs(str(tmp_path / "t1.hfs"), 3, term)
    fileio.write_hfs(str(tmp_path / "t2.hfs"), 3,
                     HfsTerm.make_set([HfsTerm.make_atom(1), HfsTerm.make_atom(2)]))
    return tmp_path


class TestCli:
    def test_iso_string(self, fixture_dir):
        code, out, _ = run_cli(["iso-string", "--machine",
                                str(fixture_dir / "a.str"), str(fixture_dir / "b.str")])
        assert code == 0
        assert out.splitlines()[0] == "ISO"

    def test_iso_string_group_restricted(self, fixture_dir):
        # under the trivial group, different strings cannot match
        fileio.write_group(str(fixture_dir / "triv.grp"), PermGroup([], 4))
        code, out, _ = run_cli(["iso-string", "--machine",
                                "--group", str(fixture_dir / "triv.grp"),
                                str(fixture_dir / "a.str"), str(fixture_dir / "b.str")])
        assert code == 1
        assert out.strip() == "NONISO"

    def test_iso_hyper_exit_codes(self, fixture_dir):
        code, out, _ = run_cli(["iso-hyper", "--machine",
                                "--group", str(fixture_dir / "s4.grp"),
                                str(fixture_dir / "cyc.hg"), str(fixture_dir / "cyc2.hg")])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ISO"
        assert lines[1].startswith("rep ")
        assert any(l.startswith("aut-order ") for l in lines)

    def test_iso_graph(self, fixture_dir):
        code, out, _ = run_cli(["iso-graph", "--machine",
                                str(fixture_dir / "path.cg"), str(fixture_dir / "path2.cg")])
        assert code == 0

    def test_iso_graph_noniso(self, fixture_dir):
        code, out, _ = run_cli(["iso-graph", "--machine",
                                str(fixture_dir / "path.cg"), str(fixture_dir / "k4.cg")])
        assert code == 1

    def test_iso_psf(self, fixture_dir):
        # the default full symmetric group does not respect the partition
        code, _, err = run_cli(["iso-psf", "--machine",
                                str(fixture_dir / "fx.psf"), str(fixture_dir / "fy.psf")])
        assert code == 2
        assert "invariant" in err
        fileio.write_group(str(fixture_dir / "pairs.grp"), PermGroup([
            Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2]),
            Permutation([2, 3, 0, 1])], 4))
        code, out, _ = run_cli(["iso-psf", "--machine",
                                "--group", str(fixture_dir / "pairs.grp"),
                                str(fixture_dir / "fx.psf"), str(fixture_dir / "fy.psf")])
        assert code == 0

    def test_iso_hfs(self, fixture_dir):
        code, out, _ = run_cli(["iso-hfs", "--machine",
                                str(fixture_dir / "t1.hfs"), str(fixture_dir / "t2.hfs")])
        assert code == 0

    @pytest.mark.parametrize("cmd, write", [
        ("iso-string", lambda p: fileio.write_string(p, ColoredString(()))),
        ("iso-hyper", lambda p: fileio.write_hypergraph(p, Hypergraph(0, frozenset()))),
        ("iso-graph", lambda p: fileio.write_colored_graph(p, ColoredGraph.plain(0, []))),
        ("iso-hfs", lambda p: fileio.write_hfs(p, 0, HfsTerm.make_set([]))),
    ], ids=["string", "hyper", "graph", "hfs"])
    def test_zero_point_objects_without_a_group(self, tmp_path, cmd, write):
        # the default group of a 0-point object acts on 0 points, as the
        # library's answer and `oracle` (count 1) do
        path = str(tmp_path / "empty")
        write(path)
        code, out, err = run_cli([cmd, "--machine", path, path])
        assert (code, err) == (0, "")
        assert out == "ISO\nrep \naut-generators 0\naut-order 1\n"

    def test_iso_excluded_minor(self, fixture_dir):
        code, out, _ = run_cli(["iso-excluded-minor", "--h", "3", "--machine",
                                str(fixture_dir / "k4.cg"), str(fixture_dir / "k4b.cg")])
        assert code == 0
        assert "aut-order 24" in out

    def test_iso_genus(self, fixture_dir):
        code, out, _ = run_cli(["iso-genus", "--g", "0", "--machine",
                                str(fixture_dir / "k4.cg"), str(fixture_dir / "k4b.cg")])
        assert code == 0

    def test_refine_p3(self, fixture_dir):
        code, out, _ = run_cli(["refine", str(fixture_dir / "p3.cg")])
        assert code == 0
        assert out.splitlines()[0] == "classes 2"

    def test_normalize(self, fixture_dir):
        code, out, err = run_cli(["normalize",
                                  "--group", str(fixture_dir / "s4.grp"),
                                  str(fixture_dir / "fx.psf")])
        # S4 does not leave the pair partition invariant: expect an error
        assert code == 2
        assert "partition is not invariant under the group" in err

    def test_normalize_refuses_d(self, fixture_dir):
        # normalize reads no arity, so it takes no --d
        code, out, err = run_cli(["normalize", "--d", "2",
                                  "--group", str(fixture_dir / "s4.grp"),
                                  str(fixture_dir / "fx.psf")])
        assert code == 2
        assert "unrecognized arguments: --d" in err

    def test_normalize_valid_group(self, fixture_dir):
        fileio.write_group(str(fixture_dir / "w.grp"), PermGroup([
            Permutation([1, 0, 2, 3]), Permutation([2, 3, 0, 1])], 4))
        code, out, _ = run_cli(["normalize",
                                "--group", str(fixture_dir / "w.grp"),
                                str(fixture_dir / "fx.psf")])
        assert code == 0
        assert out.splitlines()[0] == "domain 4"

    @staticmethod
    def _certify_inputs(tmp_path):
        """A wreath group on 10 points and a simple family, as file names."""
        gens = [
            Permutation.from_cycles(10, [0, 1]),
            Permutation.from_cycles(10, [0, 2], [1, 3]),
            Permutation.from_cycles(10, [0, 2, 4, 6, 8], [1, 3, 5, 7, 9]),
        ]
        fileio.write_group(str(tmp_path / "w10.grp"), PermGroup(gens, 10))
        part = PPartition.from_classes(10, [[2 * i, 2 * i + 1] for i in range(5)])
        fam = make_family(part, [PString(c, (0, 0)) for c in range(5)])
        fileio.write_family(str(tmp_path / "w.psf"), fam)
        return ["--group", str(tmp_path / "w10.grp"),
                str(tmp_path / "w.psf"), str(tmp_path / "w.psf")]

    def test_certify(self, fixture_dir, tmp_path):
        code, out, _ = run_cli(["certify", "--d", "5"] + self._certify_inputs(tmp_path))
        assert code == 0
        assert "giant-representation k=5" in out
        assert "first: full" in out

    def test_certify_rejects_a_test_set_beyond_k(self, tmp_path):
        code, _, err = run_cli(["certify", "--d", "5", "--t", "7"]
                               + self._certify_inputs(tmp_path))
        assert code == 2
        assert "test sets must lie in 0..4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("second", ["golden", "shifted"])
    def test_certify_rejects_families_over_different_partitions(self, tmp_path, second):
        inputs = self._certify_inputs(tmp_path)
        if second == "golden":
            # 8 points against the 10 of the group and the first family
            other = os.path.join(GOLDEN, "f1.psf")
        else:
            part = PPartition.from_classes(10, [[0, 9]] + [[i, i + 1] for i in range(1, 9, 2)])
            other = str(tmp_path / "v.psf")
            fileio.write_family(other, make_family(part, [PString(c, (0, 0)) for c in range(5)]))
        code, out, err = run_cli(["certify", "--d", "5"] + inputs[:-1] + [other])
        assert code == 2
        assert "family partitions must equal the given partition" in err
        assert "Traceback" not in err
        assert "comparison" not in out

    @pytest.mark.parametrize("t", ["-1", "0"])
    def test_certify_rejects_a_test_set_below_one(self, tmp_path, t):
        code, out, err = run_cli(["certify", "--d", "5", "--t", t]
                                 + self._certify_inputs(tmp_path))
        assert code == 2
        assert "test sets must hold at least one point" in err
        assert "comparison" not in out

    @pytest.mark.parametrize("argv", [
        ["refine", "p3.cg"],
        ["normalize", "--group", "s4.grp", "fx.psf"],
        ["oracle", "--kind", "string", "a.str", "b.str"],
    ], ids=["refine", "normalize", "oracle"])
    def test_budget_is_refused_where_no_recursion_runs(self, fixture_dir, argv):
        argv = [str(fixture_dir / a) if "." in a else a for a in argv]
        code, _, err = run_cli(argv + ["--budget", "1"])
        assert code == 2
        assert "unrecognized arguments: --budget" in err

    @pytest.mark.parametrize("argv", [
        ["refine", "p3.cg"],
        ["normalize", "--group", "s4.grp", "fx.psf"],
        ["certify", "--group", "s4.grp", "fx.psf", "fy.psf"],
        ["oracle", "--kind", "string", "a.str", "b.str"],
    ], ids=["refine", "normalize", "certify", "oracle"])
    def test_machine_is_refused_where_no_machine_block_is_printed(self, fixture_dir, argv):
        argv = [str(fixture_dir / a) if "." in a else a for a in argv]
        code, _, err = run_cli(argv + ["--machine"])
        assert code == 2
        assert "unrecognized arguments: --machine" in err

    def test_a_negative_budget_is_rejected(self, fixture_dir):
        a = str(fixture_dir / "a.str")
        code, out, err = run_cli(["iso-string", "--budget", "-1", a, a])
        assert code == 2
        assert "budget must be a non-negative node count" in err
        assert "recursion budget" not in err
        assert out == ""

    def test_oracle(self, fixture_dir):
        code, out, _ = run_cli(["oracle", "--kind", "hyper",
                                "--group", str(fixture_dir / "s4.grp"),
                                str(fixture_dir / "cyc.hg"), str(fixture_dir / "cyc2.hg")])
        assert code == 0
        assert out.splitlines()[0] == "count 8"

    def test_oracle_psf_on_different_partitions(self, fixture_dir):
        # as iso-psf and the hfs oracle on a size mismatch: no isomorphism
        fileio.write_family(str(fixture_dir / "ft.psf"), make_family(
            PPartition.trivial(4), [PString(0, (1, 2, 0, 0))]))
        code, out, err = run_cli(["oracle", "--kind", "psf",
                                  str(fixture_dir / "fx.psf"), str(fixture_dir / "ft.psf")])
        assert (code, out, err) == (1, "count 0\n", "")

    def test_refine_rejects_a_repeated_edge(self, fixture_dir):
        # the last line repeats edge {0, 1}: its colors must not overwrite the first
        bad = fixture_dir / "rep.cg"
        bad.write_text("4 3\n0 1\n1 2\n2 0\n3 0\n0 1 0 0\n1 2 0 0\n1 0 5 5\n")
        code, out, err = run_cli(["refine", str(bad)])
        assert code == 2
        assert "rep.cg:8: edge 1 0 is listed twice" in err
        assert out == ""

    def test_parse_error_exit_2(self, fixture_dir):
        bad = fixture_dir / "bad.hg"
        bad.write_text("2 1\n2 0 7\n")
        code, out, err = run_cli(["iso-hyper", str(bad), str(bad)])
        assert code == 2
        assert "bad.hg:2" in err

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_an_unreadable_path_exits_2(self, tmp_path, kind):
        path = tmp_path if kind == "directory" else tmp_path / "none.str"
        code, out, err = run_cli(["iso-string", str(path), str(path)])
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert out == ""

    def test_genus_table(self):
        code, out, _ = run_cli(["genus-table", "--g", "1"])
        assert code == 0
        assert "h 7" in out
        assert "K_{3,3} genus 1" in out
        assert "K_{3,7} genus 2" in out

    def test_determinism_across_runs(self, fixture_dir):
        cmds = [
            ["iso-hyper", "--machine", "--group", str(fixture_dir / "s4.grp"),
             str(fixture_dir / "cyc.hg"), str(fixture_dir / "cyc2.hg")],
            ["iso-excluded-minor", "--h", "3", "--machine",
             str(fixture_dir / "k4.cg"), str(fixture_dir / "k4b.cg")],
        ]
        for cmd in cmds:
            outs = set()
            for _ in range(2):
                code, out, _ = run_cli(cmd)
                outs.add((code, out))
            assert len(outs) == 1


def _c4():
    return Hypergraph(4, frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 0)]))


def _family(n, *letters):
    return make_family(PPartition.trivial(n), [PString(0, l) for l in letters])


_A = HfsTerm.make_atom

# kind -> (writer, {case: (x, y)}) on at most 6 points, under the default group
DIFFERENTIAL = {
    "string": (fileio.write_string, {
        "iso": (ColoredString((0, 0, 1, 2, 1)), ColoredString((1, 2, 0, 1, 0))),
        "noniso": (ColoredString((0, 0, 1, 1)), ColoredString((0, 0, 0, 1))),
        "mismatch": (ColoredString((0, 1)), ColoredString((0, 1, 1))),
    }),
    "hyper": (fileio.write_hypergraph, {
        "iso": (_c4(), _c4().apply(Permutation([2, 0, 3, 1]))),
        # the 4-cycle against a triangle with a pendant edge
        "noniso": (_c4(), Hypergraph(4, frozenset(
            frozenset(e) for e in [(0, 1), (1, 2), (2, 0), (2, 3)]))),
        "mismatch": (Hypergraph(3, frozenset({frozenset({0, 1})})),
                     Hypergraph(4, frozenset({frozenset({0, 1})}))),
    }),
    "graph": (fileio.write_colored_graph, {
        "iso": (ColoredGraph.plain(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
                ColoredGraph.plain(5, [(4, 3), (3, 2), (2, 4), (2, 1), (1, 0)])),
        # the path on four vertices against the star
        "noniso": (ColoredGraph.plain(4, [(0, 1), (1, 2), (2, 3)]),
                   ColoredGraph.plain(4, [(0, 1), (0, 2), (0, 3)])),
        "mismatch": (ColoredGraph.plain(3, [(0, 1), (1, 2)]),
                     ColoredGraph.plain(4, [(0, 1), (1, 2)])),
    }),
    "psf": (fileio.write_family, {
        "iso": (_family(4, (0, 1, 1, 2), (2, 1, 0, 0)),
                _family(4, (0, 1, 1, 2), (2, 1, 0, 0)).apply(Permutation([1, 2, 3, 0]))),
        "noniso": (_family(4, (0, 0, 1, 1)), _family(4, (0, 0, 0, 1))),
        "mismatch": (_family(3, (0, 1, 1)), _family(4, (0, 1, 1, 0))),
    }),
    "hfs": (lambda path, t: fileio.write_hfs(path, *t), {
        "iso": ((3, HfsTerm.make_set([_A(0), _A(1)])), (3, HfsTerm.make_set([_A(1), _A(2)]))),
        "noniso": ((3, HfsTerm.make_set([_A(0), _A(1)])),
                   (3, HfsTerm.make_set([_A(0), HfsTerm.make_set([_A(1)])]))),
        "mismatch": ((3, HfsTerm.make_set([_A(0), _A(1)])),
                     (4, HfsTerm.make_set([_A(0), _A(1)]))),
    }),
}


def _main(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", ["iso", "noniso", "mismatch"])
@pytest.mark.parametrize("kind", list(DIFFERENTIAL))
def test_iso_and_oracle_agree(tmp_path, capsys, kind, case):
    # the solver's entry and the brute-force oracle's entry answer alike: the
    # automorphism order is the isomorphism count, and a pair that no
    # permutation matches, sizes differing included, is no isomorphism in
    # either argument order
    write, pairs = DIFFERENTIAL[kind]
    paths = [str(tmp_path / name) for name in ("x", "y")]
    for path, obj in zip(paths, pairs[case]):
        write(path, obj)
    for argv in (paths, paths[::-1]):
        code, out, err = _main(["iso-" + kind, "--machine"] + argv, capsys)
        ocode, oout, oerr = _main(["oracle", "--kind", kind] + argv, capsys)
        assert (err, oerr) == ("", "")
        count = oout.splitlines()[0]
        if case == "iso":
            assert (code, ocode) == (0, 0)
            assert out.splitlines()[-1] == "aut-order %s" % count.split()[1]
        else:
            assert (code, out, ocode, count) == (1, "NONISO\n", 1, "count 0")
