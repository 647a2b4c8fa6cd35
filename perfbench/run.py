"""End-to-end benchmark of the durable DC-tree warehouse.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` runs whole passes over the workload's :data:`ROUNDS`
rounds until ``--seconds`` have passed, then prints the end-to-end
metrics; every pass repeats the same inputs.  ``--trace 1`` runs round 0
three times — traced, with the program's own observability on, and
plain — checks that all three agree bit for bit, and prints the
per-layer table.  The last line of standard output is always one JSON
object; see README.md.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
# The program is built from source in the checkout: its package lives in
# src/, next to this directory.  Without it the import fails and the run
# exits non-zero before printing a result.
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Rounds per pass.  Round r's inputs depend only on the seed and r, so
#: every pass, and every program version, sees the same inputs.  Three
#: rounds make a run about a minute long: the host's CPU speed switches
#: between modes about a third apart every few seconds to tens of
#: seconds, and a run must span many such switches for its figures to
#: agree with the next run's.
ROUNDS = 3
#: Most passes a run makes, whatever ``--seconds`` says.
MAX_PASSES = 3


def percentile(samples, q):
    """Smoothed percentile and the number of samples beyond it.

    The value is the mean of the order statistics within one binomial
    standard deviation, sqrt(n q (1 - q)) ranks, of the nearest rank.
    Rounds repeat the same operations, so a bare order statistic is the
    latency of one or two particular operations, and where the
    distribution has a knee (splits among plain batches, cache misses
    among hits) it jumps between them from run to run; the local mean
    moves smoothly instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    half = max(1, round(math.sqrt(n * q * (1.0 - q))))
    window = ordered[max(0, rank - 1 - half):min(n, rank + half)]
    return statistics.fmean(window), n - rank


def _ops_s(r):
    return sum(r.batch_s) + sum(r.query_s) + sum(r.groupby_s) + r.checkpoint_s


def end_to_end(rounds):
    """The end-to-end metrics of a run, plus percentile support notes."""
    pooled = {
        "insert_batch": [s for r in rounds for s in r.batch_s],
        "query": [s for r in rounds for s in r.query_s],
        "groupby": [s for r in rounds for s in r.groupby_s],
    }
    notes = []
    metrics = {}
    for name, q in (("insert_batch", 0.50), ("insert_batch", 0.95),
                    ("query", 0.50), ("query", 0.99), ("groupby", 0.50),
                    ("groupby", 0.95)):
        value, beyond = percentile(pooled[name], q)
        key = "%s_ms_p%d" % (name, round(q * 100))
        metrics[key] = (value * 1e3, "ms")
        if beyond < 10:
            notes.append("%s: only %d of %d samples beyond"
                         % (key, beyond, len(pooled[name])))
    stats = functools.reduce(workloads.add_stats, (r.stats for r in rounds))
    n_ops = sum(r.n_ops for r in rounds)
    records = sum(r.records for r in rounds)
    metrics.update({
        "setup_s": (statistics.median(s for r in rounds for s in r.setup_s),
                    "s"),
        "insert_rps": (records / sum(sum(r.batch_s) for r in rounds),
                       "records/s"),
        "ops_per_s": (n_ops / sum(_ops_s(r) for r in rounds), "ops/s"),
        "checkpoint_s": (statistics.median(r.checkpoint_s for r in rounds),
                         "s"),
        "recover_s": (statistics.fmean(s for r in rounds
                                       for s in r.recover_s), "s"),
        "sim_s_per_op": (stats.simulated_seconds() / n_ops, "s/op"),
        "page_writes_per_record": (stats.page_writes / max(1, records),
                                   "pages/record"),
        "checkpoint_bytes_per_record": (
            sum(r.checkpoint_bytes for r in rounds)
            / max(1, sum(r.live_records for r in rounds)), "B/record"),
    })
    return metrics, notes


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(plain, traced, obs, tracer):
    """Per-layer metrics of one traced round; counts come from ``plain``,
    which is also the base of the overhead ratios."""
    t = tracer
    counts = t.counts
    s = plain.stats
    ops = plain.n_ops
    seconds = {
        "persist.durable.insert_many_s": ("persist.durable.insert_many",),
        "persist.durable.checkpoint_s": ("persist.durable.checkpoint",),
        "persist.durable.open_s": ("persist.durable.open",),
        "warehouse.query_s": ("warehouse.query",),
        "warehouse.execute_s": ("warehouse.execute",),
        "warehouse.group_by_s": ("warehouse.group_by",),
        "query.sql.execute_s": ("query.sql.execute",),
        "query.sql.parse_s": ("query.sql.parse",),
        "workload.queries.label_resolve_s": (
            "workload.queries.label_resolve",),
        "cube.schema.record_s": ("cube.schema.record",),
        "core.tree.insert_batch_self_s": ("core.tree.insert_batch",),
        "core.tree.range_query_self_s": ("core.tree.range_query",),
        "core.tree.group_by_self_s": ("core.tree.group_by",),
        "core.tree.check_invariants_s": ("core.tree.check_invariants",),
        "core.split.plan_node_split_s": ("core.split.plan_node_split",),
        "core.split.choose_seeds_s": ("core.split.choose_seeds",),
        "core.mds.covers_record_s": ("core.mds.covers_record",),
        "core.mds.classify_s": ("core.mds.classify",),
        "core.mds.adapted_set_s": ("core.mds.adapted_set",),
        "core.mds.operation_cost_s": ("core.mds.operation_cost",),
        "core.result_cache.lookup_s": ("core.result_cache.lookup",),
        "core.result_cache.store_s": ("core.result_cache.store",),
        "storage.charge_s": ("storage.access_node", "storage.write_node",
                             "storage.cpu"),
        "persist.wal.append_s": ("persist.wal.append",),
        "persist.wal.encode_s": ("persist.wal.encode",),
        "persist.wal.sync_s": ("persist.wal.sync",),
        "persist.io.checkpoint_encode_s": ("persist.io.warehouse_to_dict",),
        "persist.io.checkpoint_write_s": ("persist.io.save_warehouse",),
        "persist.io.checkpoint_decode_s": ("persist.io.read_warehouse_file",
                                           "persist.io.warehouse_from_dict"),
        "persist.recovery.wal_read_s": ("persist.recovery.wal_read",),
        "persist.recovery.replay_s": ("persist.recovery.replay",),
        "persist.recovery.audit_s": ("persist.recovery.audit",),
    }
    metrics = {name: (t.self_s(*spans), "s")
               for name, spans in seconds.items()}
    splits = t.calls("core.split.plan_node_split")
    covers = t.calls("core.mds.covers_record")
    classifies = t.calls("core.mds.classify")
    metrics.update({
        "core.split.plan_node_split_calls": (splits, "count"),
        "core.split.split_success_ratio": (
            _ratio(counts["plan_node_split.planned"], splits), "ratio"),
        "core.mds.covers_record_calls": (covers, "count"),
        "core.mds.covers_match_ratio": (
            _ratio(counts["covers_record.true"], covers), "ratio"),
        "core.mds.classify_calls": (classifies, "count"),
        "core.mds.contained_share": (
            _ratio(counts["classify.contained"], classifies), "ratio"),
        "core.result_cache.hit_rate": (
            _ratio(plain.cache[0], plain.cache[1]), "ratio"),
        "core.result_cache.invalidations": (plain.cache[2], "count"),
        "storage.node_accesses_per_op": (s.node_accesses / ops, "nodes/op"),
        "storage.page_ios_per_op": (s.page_ios / ops, "pages/op"),
        "storage.cpu_units_per_op": (s.cpu_units / ops, "units/op"),
        "storage.buffer_hit_rate": (
            _ratio(s.buffer_hits, s.buffer_hits + s.buffer_misses), "ratio"),
        "persist.wal.syncs": (t.calls("persist.wal.sync"), "count"),
        "persist.wal.bytes_per_record": (
            _ratio(counts["wal.bytes"], counts["wal.records"]), "B/record"),
        "obs.wall_overhead_ratio": (obs.window_s / plain.window_s, "ratio"),
        "trace.overhead_ratio": (traced.window_s / plain.window_s, "ratio"),
        "trace.residual_share": (
            (traced.window_s - t.total_self_s()) / traced.window_s, "ratio"),
        "trace.instrument_share": (t.instrument_s / traced.window_s,
                                   "ratio"),
        "counters.node_accesses": (s.node_accesses, "count"),
        "counters.buffer_hits": (s.buffer_hits, "count"),
        "counters.buffer_misses": (s.buffer_misses, "count"),
        "counters.page_writes": (s.page_writes, "count"),
        "counters.cpu_units": (s.cpu_units, "count"),
    })
    return metrics


def _fingerprint():
    """Hash of the program and benchmark sources: exact records are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for folder, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


def check_repeatable(workload, seed, rounds):
    """Compare the rounds' exact records with earlier runs of this seed.

    ``rounds[r]`` is round r.  The first run of a seed stores them;
    returns the differences found.
    """
    fingerprint = _fingerprint()
    problems = []
    for index, result in enumerate(rounds):
        exact = result.exact()
        path = os.path.join(OUT, "exact-%s-%d-r%d-%s.json"
                            % (workload, seed, index, fingerprint))
        if not os.path.exists(path):
            with open(path, "w") as handle:
                json.dump(exact, handle)
            continue
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier != exact:
            problems.append("round %d differs from an earlier run of seed "
                            "%d: %r vs %r" % (index, seed, exact, earlier))
    return problems


def check_passes(rounds):
    """Later passes must repeat the first one bit for bit."""
    return ["pass %d round %d differs from the first pass"
            % (i // ROUNDS + 2, i % ROUNDS)
            for i, result in enumerate(rounds[ROUNDS:])
            if result.exact() != rounds[i % ROUNDS].exact()]


def _print_layers(tracer, traced, metrics):
    total = traced.window_s
    print("per-layer self time of the traced round (%.3f s of timed calls)"
          % total)
    rows = sorted(tracer.totals.items(), key=lambda item: -item[1][2])
    for name, (calls, _total, own) in rows:
        print("  %-36s %10d calls %9.4f s %6.1f%%"
              % (name, calls, own, 100.0 * own / total))
    print("  %-36s %16s %9.4f s %6.1f%%"
          % ("trace.instrument", "", tracer.instrument_s,
             100.0 * tracer.instrument_s / total))
    print("  residual (timed calls outside every root span): %.2f%%"
          % (100.0 * metrics["trace.residual_share"][0]))


def timed_rounds(spec, seed, seconds, workdir):
    """Untraced passes over rounds 0 .. ROUNDS - 1 until ``seconds`` have
    passed: at least one pass, at most :data:`MAX_PASSES`."""
    rounds = []
    started = time.perf_counter()
    while not rounds or (len(rounds) < MAX_PASSES * ROUNDS
                         and time.perf_counter() - started < seconds):
        rounds += [workloads.run_round(spec, seed, r, workdir)
                   for r in range(ROUNDS)]
    return rounds


def traced_rounds(spec, seed, workdir, size="full"):
    """Round 0 traced, with observability on, then plain.

    The plain round runs last and warm, so it is both the reference the
    other two must match bit for bit and the base of the overhead
    ratios.  Returns the three results, the tracer and the list of
    disagreements.
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_round(spec, seed, 0, workdir, size,
                                     tracer=tracer)
    finally:
        tracer.remove()
    obs = workloads.run_round(spec, seed, 0, workdir, size,
                              observability=True)
    plain = workloads.run_round(spec, seed, 0, workdir, size)
    failures = [
        "%s round differs from the plain round: %r vs %r"
        % (label, other.exact(), plain.exact())
        for label, other in (("traced", traced), ("observability", obs))
        if other.exact() != plain.exact()
    ]
    return (traced, obs, plain), tracer, failures


def report(rounds, failures, metrics):
    """The result object printed as the last line of standard output."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(failures)
    for error in [e for r in rounds for e in r.errors] + failures:
        print("FAILED: %s" % error, file=sys.stderr)
    print("failed_op_share %.6f (%d of %d)"
          % (failed / attempted, failed, attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _timed_run(spec, args, workdir):
    started = time.perf_counter()
    rounds = timed_rounds(spec, args.seed, args.seconds, workdir)
    metrics, notes = end_to_end(rounds)
    failures = (check_repeatable(spec.name, args.seed, rounds[:ROUNDS])
                + check_passes(rounds))
    print("%s seed %d: %d passes of %d rounds, %.1f s; structure digest %s"
          % (spec.name, args.seed, len(rounds) // ROUNDS, ROUNDS,
             time.perf_counter() - started, rounds[0].digest))
    print("round 0 counters: %r" % (rounds[0].stats,))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-28s %14.6g %s" % (name, value, unit))
    for note in notes:
        print("  note: percentile %s" % note)
    return report(rounds, failures, metrics)


def _traced_run(spec, args, workdir):
    rounds, tracer, failures = traced_rounds(spec, args.seed, workdir)
    traced, obs, plain = rounds
    failures += check_repeatable(spec.name, args.seed, [plain])
    metrics = per_layer(plain, traced, obs, tracer)
    spans = os.path.join(OUT, "trace-%s-%d.jsonl" % (spec.name, args.seed))
    tracer.write_spans(spans)
    _print_layers(tracer, traced, metrics)
    print("spans written to %s" % os.path.relpath(spans, ROOT))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-36s %14.6g %s" % (name, value, unit))
    return report(rounds, failures, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = _traced_run(spec, args, workdir)
        else:
            result = _timed_run(spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
