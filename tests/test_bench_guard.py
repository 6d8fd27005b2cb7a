"""The benchmark's per-layer report stays complete and well formed.

``perfbench/tracer.py`` wraps the library's public functions by name and
leaves a metric out when a function it needs is gone, and a report value
that is negative or not finite makes the run's result line unusable.  This
test traces one small query per workload kind (a wreath ``string_iso``, a
hypergraph ``generalized_string_iso`` and ``iso_excluded_minor`` on the
cube) and checks the report against the metric names in ``BENCHMARK.json``.
"""

import importlib.util
import json
import math
import os
import time

import setiso
from setiso import Hypergraph, Permutation, PPartition

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wreath_string_query():
    # S2 wr S3 on blocks {0,1}, {2,3}, {4,5}
    gens = [Permutation.from_cycles(6, [0, 1]),
            Permutation.from_cycles(6, [0, 2], [1, 3]),
            Permutation.from_cycles(6, [0, 2, 4], [1, 3, 5])]
    x = setiso.ColoredString((0, 1, 1, 1, 0, 0))
    y = setiso.ColoredString((1, 1, 0, 0, 1, 0))
    return lambda: setiso.string_iso(setiso.StringQuery(setiso.PermGroup(gens, 6), x, y))


def _hypergraph_query():
    n = 6
    gens = [Permutation.from_cycles(n, [0, 1]), Permutation.from_cycles(n, list(range(n)))]
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 0), (5, 0, 1)]
    h1 = Hypergraph(n, frozenset(frozenset(e) for e in edges))
    h2 = h1.apply(Permutation((3, 0, 4, 1, 5, 2)))

    def run():
        inst = setiso.GsiInstance(setiso.PermGroup(gens, n), PPartition.trivial(n),
                                  setiso.hypergraph_to_family(h1),
                                  setiso.hypergraph_to_family(h2))
        return setiso.generalized_string_iso(inst)
    return run


def _cube_query():
    edges = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
    cube = setiso.ColoredGraph.plain(8, edges)
    other = cube.apply(Permutation((5, 2, 7, 0, 3, 6, 1, 4)))
    return lambda: setiso.iso_excluded_minor(cube, other, 3)


def test_traced_queries_report_every_benchmark_metric():
    tracer_module = _load_tracer()
    queries = [_wreath_string_query(), _hypergraph_query(), _cube_query()]
    untraced_s = traced_s = 0.0
    tracer = tracer_module.Tracer()
    for i, run in enumerate(queries):
        t0 = time.perf_counter()
        expected = run()
        untraced_s += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            answer = tracer.run_query(i, run)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        assert not answer.is_empty
        assert answer.order() == expected.order()
    metrics, absent = tracer_module.per_layer_metrics(tracer, untraced_s, traced_s,
                                                      len(queries))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert absent == []
    assert sorted(set(declared) - set(metrics)) == []
    for name in declared:
        value, unit = metrics[name]
        assert math.isfinite(value), name
        if unit == "count":
            assert value >= 0, name
    assert metrics["minorfree.triples_examined"][0] > 0
    assert metrics["refine.tcr_pair_calls"][0] > 0
    json.dumps({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
               allow_nan=False)
