#!/usr/bin/env python3
"""Benchmark of setiso's isomorphism queries.

    python3 perfbench/run.py --workload luks_strings --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports ``setiso`` from its
``src`` directory.  One process, one thread, sequential queries (a closed
loop).  Workloads, metrics and the layer split are described in README.md.

The pool holds COPIES relabeled copies of the workload.  Queries of the
last copy warm the process up for WARMUP_S seconds; their answers are
checked but not timed into any metric.  ``--trace 0`` measures the
end-to-end metrics: one pass per remaining copy, cycling through them, each
pass in a seeded order, until the next pass would end after ``--seconds``
(and at least MIN_QUERIES queries have run).  A fixed reference loop runs
just before and just after every measured query, and the query metrics are
taken over times scaled to the speed at which that loop takes REF_MS; the
text lines give them as measured too.  ``--trace 1`` runs every query
of the first copy twice in a row, untraced and then traced, and reports the
per-layer metrics of the traced calls; its spans go to
``.perfbench_out/<workload>.spans.tsv.gz``.

Every answer is checked against the inputs outside the timed region.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

SETUP_REPEATS = 7
WARMUP_S = 3.0          # in some runs the first pass of a cold process ran 10-30% slower

# The machine's speed drifts by up to 40% within minutes, and setiso slows
# down with it.  So each measured query is bracketed by a fixed pure-Python
# loop like setiso's inner ones (composing permutations stored as tuples,
# using no setiso code), and its time is scaled by REF_MS over the loop's
# mean time before and after it: the metrics read as times at the speed at
# which the loop takes REF_MS, about the usual speed of the machine the
# benchmark was written on (2 vCPUs of a shared Xeon host).
REF_PERMS = [tuple(random.Random(i).sample(range(24), 24)) for i in range(8)]
REF_ROUNDS = 1500
REF_MS = 3.0
MIN_QUERIES = 100       # so that at least ten samples lie beyond p90
WALL_CAP_S = 20.0       # per query; the slowest query at the parent takes ~3 s


class QueryTimeout(BaseException):
    """Raised by the wall-cap alarm; a BaseException so no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def fresh_import():
    for name in [m for m in sys.modules if m == "setiso" or m.startswith("setiso.")]:
        del sys.modules[name]
    return importlib.import_module("setiso")


def setup(workload: str, seed: int):
    """Import setiso and build the copies, SETUP_REPEATS times; the median
    time is the set-up time, and the last import serves the run."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        S = fresh_import()
        copies = workloads.build(workload, seed, S)
        times.append(time.perf_counter() - t0)
    return copies, statistics.median(times)


def reference_s() -> float:
    t0 = time.perf_counter()
    acc = REF_PERMS[0]
    for i in range(REF_ROUNDS):
        p = REF_PERMS[i % 8]
        acc = tuple(p[x] for x in acc)
    return time.perf_counter() - t0


def timed(query, call):
    """(seconds, error or None) of one query under the wall cap; the
    answer is checked after the clock stops."""
    gc.collect()
    error = result = None
    signal.setitimer(signal.ITIMER_REAL, WALL_CAP_S)
    t0 = time.perf_counter()
    try:
        result = call()
    except QueryTimeout:
        error = "exceeded the %g s wall cap" % WALL_CAP_S
    except Exception as exc:  # a failed query is counted, the run goes on
        error = "raised %r" % (exc,)
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        error = check.check_answer(query, result)
    return elapsed, error


class Log:
    def __init__(self):
        # (seconds, isomorphic, ok, seconds of the reference loop around it)
        self.samples: list[tuple[float, bool, bool, float]] = []
        self.failures: list[str] = []
        self.warmups = 0

    def add(self, query, elapsed, error, reference=None, measured=True):
        if measured:
            self.samples.append((elapsed, query.iso, error is None, reference))
        else:
            self.warmups += 1
        if error is not None:
            self.failures.append("%s: %s" % (query.label, error))

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.warmups


def warm_up(copy, rng, log):
    order = copy[:]
    rng.shuffle(order)
    start = time.perf_counter()
    for q in order:
        log.add(q, *timed(q, q.run), measured=False)
        if time.perf_counter() - start > WARMUP_S:
            break


def one_pass(order, log):
    t0 = time.perf_counter()
    for q in order:
        gc.collect()
        before = reference_s()
        elapsed, error = timed(q, q.run)
        log.add(q, elapsed, error, (before + reference_s()) / 2)
    return time.perf_counter() - t0


def end_to_end(copies, seconds, rng, log, setup_s):
    """name -> (value at the reference speed, unit, value as measured)"""
    start = time.perf_counter()
    for i in itertools.count():
        order = copies[i % len(copies)][:]
        rng.shuffle(order)
        pass_s = one_pass(order, log)
        if (len(log.samples) >= MIN_QUERIES
                and time.perf_counter() - start + pass_s > seconds):
            break
    scaled = query_metrics([(s / r * REF_MS, iso, ok) for s, iso, ok, r in log.samples])
    measured = query_metrics([(1000.0 * s, iso, ok) for s, iso, ok, _ in log.samples])
    metrics = {name: (value, unit, measured[name][0]) for name, (value, unit) in scaled.items()}
    for name, value, unit in [
            ("fail_frac", len(log.failures) / log.attempted, "ratio"),
            ("setup_s", setup_s, "s"),   # mostly imports; it did not drift with the loop
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")]:
        metrics[name] = (value, unit, value)
    return metrics


def query_metrics(samples):
    """The four query metrics over (milliseconds, isomorphic, ok) samples."""
    ms = [t for t, _, _ in samples]
    noniso = [t for t, iso, _ in samples if not iso]
    completed = sum(ok for _, _, ok in samples)
    return {
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "noniso_p50_ms": (statistics.median(noniso), "ms"),
        "queries_per_s": (completed / (sum(ms) / 1000.0), "1/s"),
    }


def traced(copies, rng, log, workload):
    """Per-layer metrics; each query runs untraced and then traced right
    after, so the overhead is measured at the same machine speed."""
    order = copies[0][:]
    rng.shuffle(order)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i, q in enumerate(order):
        elapsed, error = timed(q, q.run)
        log.add(q, elapsed, error)
        untraced_s += elapsed
        tracer.install()
        elapsed, error = timed(q, lambda: tracer.run_query(i, q.run))
        tracer.uninstall()
        log.add(q, elapsed, error)
        traced_s += elapsed
    metrics, absent = per_layer_metrics(tracer, untraced_s, traced_s, len(order))
    for name in absent:
        print("absent: %s" % name, file=sys.stderr)
    out_dir = os.path.join(CHECKOUT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, "%s.spans.tsv.gz" % workload))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "setiso", "__init__.py")):
        print("error: no setiso sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)

    copies, setup_s = setup(args.workload, args.seed)
    imported = sys.modules["setiso"].__file__
    if os.path.dirname(os.path.dirname(os.path.abspath(imported))) != SRC:
        print("error: setiso was imported from %s, not from %s" % (imported, SRC), file=sys.stderr)
        return 2
    rng = random.Random("order:%s:%d" % (args.workload, args.seed))
    log = Log()
    warm_up(copies[-1], rng, log)
    copies = copies[:-1]
    if args.trace:
        metrics = traced(copies, rng, log, args.workload)
    else:
        measured = end_to_end(copies, args.seconds, rng, log, setup_s)
        print("workload %s, seed %d, %d queries, %d per pass"
              % (args.workload, args.seed, len(log.samples), len(copies[0])))
        print("reference loop: %.4f ms (median); query times at its %.1f ms,"
              " as measured in brackets"
              % (1000.0 * statistics.median(r for *_, r in log.samples), REF_MS))
        for name, (value, unit, raw) in measured.items():
            print("  %-16s %14.6f %-5s [%.6f]" % (name, value, unit, raw))
        metrics = {name: (value, unit) for name, (value, unit, _) in measured.items()}
        # fail_frac is the result line's failed/attempted; it is printed
        # above but left out of the metrics object, where a metric is never 0
        del metrics["fail_frac"]
    for failure in log.failures[:20]:
        print("FAILED %s" % failure, file=sys.stderr)
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
