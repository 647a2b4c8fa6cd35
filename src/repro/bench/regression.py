"""Performance-regression benchmark: ``python -m repro.bench regression``.

Runs one fixed-seed insert / range-query / group-by / repeated-query
workload over the TPC-D cube with the default configuration and records
per-phase wall times, ops/sec and the deterministic tracker counters
(node accesses, page I/Os, CPU units) in ``BENCH_core.json``.

The *repeat* phase prices the result cache: queries already asked once
are re-asked with Zipfian popularity (a hot head of favourite reports, a
long tail — the canonical repeated OLAP workload).  Re-asks are answered
from memory while the recorded tracker charges are replayed, so the
deterministic counters match a recomputation exactly and only
wall-clock improves; ``--min-repeat-speedup`` gates re-ask ops/sec
against the first-ask (query + group-by) ops/sec of the same pass.

An *insert-heavy* phase prices batched mutation: the same record stream
goes into two fresh trees serially and through chunked ``insert_batch``
calls, recording the page-write reduction (``--min-batch-speedup`` gates
it) and proving, per run, that batching leaves the read counters and the
structure digest bit-identical to serial insertion.

Regression checking compares the *deterministic* counters against the
committed baseline with a configurable tolerance, so CI catches
algorithmic regressions without depending on machine speed; wall-clock
comparison is opt-in (``--strict-wall``).  The query/group-by answers
must match the baseline's result digest.

Profiles:

* ``full``  — 30 000 records, 100 mixed-selectivity queries (1/5/25 %)
  plus the standard group-by battery and 400 Zipfian re-asks; the
  headline numbers.
* ``smoke`` (``--smoke``) — 4 000 records, 30 queries, 120 re-asks;
  finishes in well under a minute and is meant as a CI gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time

from ..config import DCTreeConfig
from ..core.debug import structure_digest
from ..core.tree import DCTree
from ..obs.metrics import observe_dctree
from ..persist.durable import WalSink
from ..persist.wal import WriteAheadLog
from ..tpcd.generator import TPCDGenerator
from ..tpcd.schema import make_tpcd_schema
from ..workload.queries import QueryGenerator

#: Selectivities mixed into the query batch (the paper's Fig. 12 set).
SELECTIVITIES = (0.01, 0.05, 0.25)

#: Skew of the repeated-query phase (weight of rank r is 1 / r**s).
ZIPF_EXPONENT = 1.2

PROFILES = {
    "full": {"records": 30000, "queries": 100, "repeats": 400},
    "smoke": {"records": 4000, "queries": 30, "repeats": 120},
}

#: Chunk size of the insert-heavy batched phase (one page of records at
#: the default leaf capacity).
BATCH_SIZE = 64

#: Counters whose growth beyond the tolerance fails the run.
_CHECKED_COUNTERS = ("node_accesses", "page_ios", "cpu_units")


def _phase_stats(tracker, before, wall_seconds, n_ops):
    stats = tracker.snapshot() - before
    return {
        "wall_seconds": wall_seconds,
        "ops": n_ops,
        "ops_per_second": (n_ops / wall_seconds) if wall_seconds > 0 else 0.0,
        "node_accesses": stats.node_accesses,
        "page_ios": stats.page_ios,
        "cpu_units": stats.cpu_units,
    }


def _build_queries(schema, n_queries, seed):
    """The fixed mixed-selectivity query batch (round-robin)."""
    generators = [
        QueryGenerator(schema, selectivity, seed=seed + index)
        for index, selectivity in enumerate(SELECTIVITIES)
    ]
    return [
        generators[index % len(generators)].query()
        for index in range(n_queries)
    ]


def _group_by_battery(schema, seed):
    """Group-by workload: (dim, level, range_mds-or-None) triples.

    Every non-leaf functional level is rolled up once unrestricted, plus
    three range-restricted roll-ups per selectivity (the interactive
    "slice then roll up" OLAP shape, which exercises entry classification
    the same way range queries do).
    """
    battery = []
    for dim in range(schema.n_dimensions):
        hierarchy = schema.dimensions[dim].hierarchy
        for level in range(1, hierarchy.top_level):
            battery.append((dim, level, None))
    index = 0
    for offset, selectivity in enumerate(SELECTIVITIES):
        generator = QueryGenerator(schema, selectivity, seed=seed + offset)
        for _ in range(3):
            dim = index % schema.n_dimensions
            hierarchy = schema.dimensions[dim].hierarchy
            level = min(1, hierarchy.top_level - 1)
            battery.append((dim, level, generator.query().mds))
            index += 1
    return battery


def _repeat_workload(queries, battery, n_repeats, seed):
    """Zipfian re-ask stream over the already-asked queries/roll-ups.

    The pool mixes every range query with every group-by; rank r is
    re-asked with weight 1/r**ZIPF_EXPONENT (a hot head of favourite
    reports, a long tail of occasional ones).  Fixed seed → every pass
    replays the identical stream.
    """
    pool = [("range", query.mds) for query in queries]
    pool.extend(
        ("groupby", (dim, level, range_mds))
        for dim, level, range_mds in battery
    )
    rng = random.Random(seed)
    weights = [
        1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(pool) + 1)
    ]
    return rng.choices(pool, weights=weights, k=n_repeats)


def run_workload(n_records, n_queries, n_repeats=0, seed=0,
                 observability=False):
    """One full benchmark pass; returns (phase-report dict, results digest,
    metrics snapshot).

    The schema/generator are rebuilt per pass with the same seed, so two
    passes index the identical record stream and answer the identical
    queries.

    ``observability`` runs the pass with the telemetry layer attached
    (spans + metrics registry); the returned snapshot is the registry
    contents after the workload (``None`` otherwise).  The flag is passed
    through to :class:`DCTreeConfig` explicitly in both directions, so
    the comparison passes stay deterministic even when
    ``REPRO_OBSERVABILITY`` is set in the environment.
    """
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=n_records)
    records = generator.generate(n_records)
    tree = DCTree(schema, config=DCTreeConfig(observability=observability))

    report = {}
    digest = hashlib.sha256()

    before = tree.tracker.snapshot()
    start = time.perf_counter()
    for record in records:
        tree.insert(record)
    report["insert"] = _phase_stats(
        tree.tracker, before, time.perf_counter() - start, n_records
    )

    queries = _build_queries(schema, n_queries, seed=seed + 1000)
    before = tree.tracker.snapshot()
    start = time.perf_counter()
    for query in queries:
        result = tree.range_query(query.mds)
        digest.update(repr(result).encode())
    report["query"] = _phase_stats(
        tree.tracker, before, time.perf_counter() - start, len(queries)
    )

    battery = _group_by_battery(schema, seed=seed + 2000)
    before = tree.tracker.snapshot()
    start = time.perf_counter()
    for dim, level, range_mds in battery:
        groups = tree.group_by(dim, level, range_mds=range_mds)
        digest.update(repr(sorted(groups.items())).encode())
    report["groupby"] = _phase_stats(
        tree.tracker, before, time.perf_counter() - start, len(battery)
    )

    repeats = _repeat_workload(queries, battery, n_repeats, seed=seed + 3000)
    before = tree.tracker.snapshot()
    start = time.perf_counter()
    for kind, payload in repeats:
        if kind == "range":
            result = tree.range_query(payload)
            digest.update(repr(result).encode())
        else:
            dim, level, range_mds = payload
            groups = tree.group_by(dim, level, range_mds=range_mds)
            digest.update(repr(sorted(groups.items())).encode())
    report["repeat"] = _phase_stats(
        tree.tracker, before, time.perf_counter() - start, len(repeats)
    )

    report["total_wall_seconds"] = sum(
        report[phase]["wall_seconds"]
        for phase in ("insert", "query", "groupby", "repeat")
    )
    metrics = None
    if observability:
        registry = tree.observability.registry
        observe_dctree(registry, tree)
        metrics = registry.snapshot()
    return report, digest.hexdigest(), metrics


def _phase_counters(report):
    """The deterministic counters of one pass, phase by phase."""
    return {
        phase: {
            counter: report[phase][counter]
            for counter in _CHECKED_COUNTERS
        }
        for phase in ("insert", "query", "groupby", "repeat")
    }


def run_benchmark(profile="full", seed=0, emit_metrics=False):
    """Run one profile; returns the BENCH entry dict.

    ``emit_metrics`` adds a second, observability-enabled pass and embeds
    its metrics-registry snapshot under ``entry["observability"]``,
    together with the invariance verdicts: the observed pass must produce
    the same result digest and identical deterministic counters as the
    plain pass (telemetry must be invisible to the simulated cost model).
    """
    params = PROFILES[profile]
    workload = (params["records"], params["queries"], params["repeats"], seed)
    report, digest, _ = run_workload(*workload)
    entry = {
        "profile": profile,
        "seed": seed,
        "records": params["records"],
        "queries": params["queries"],
        "repeats": params["repeats"],
        "selectivities": list(SELECTIVITIES),
        "zipf_exponent": ZIPF_EXPONENT,
        "digest": digest,
        "batch_insert": measure_batch_amortization(
            params["records"], seed=seed
        ),
        "modes": {"cached": report},
    }
    if emit_metrics:
        observed, observed_digest, metrics = run_workload(
            *workload, observability=True
        )
        entry["observability"] = {
            "digest_identical": observed_digest == digest,
            "counters_identical": (
                _phase_counters(observed) == _phase_counters(report)
            ),
            "metrics": metrics,
        }
    return entry


def repeat_speedup(report):
    """Re-ask ops/sec over first-ask (query + group-by) ops/sec."""
    first = report["query"], report["groupby"]
    first_rate = _ratio(
        sum(phase["ops"] for phase in first),
        sum(phase["wall_seconds"] for phase in first),
    )
    return _ratio(report["repeat"]["ops_per_second"], first_rate)


def _ratio(numerator, denominator):
    return (numerator / denominator) if denominator > 0 else 0.0


def _counter_key(stats):
    return (stats.node_accesses, stats.buffer_hits, stats.buffer_misses,
            stats.page_writes, stats.cpu_units)


def measure_wal_overhead(n_records, seed=0, fsync_interval=64):
    """Price the durability layer: insert pass with vs. without a WAL.

    Runs the same fixed-seed insert stream into two fresh trees — one
    bare, one with a :class:`WalSink` logging every insert to a real
    temp-dir WAL — and reports the wall-clock overhead ratio plus the
    log size.  The deterministic tracker counters of both passes must be
    bit-identical (``counters_identical``): the WAL does real file I/O
    but never touches the simulated cost model, and this measurement is
    the bench-level proof.
    """
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=n_records)
    records = generator.generate(n_records)

    def insert_pass(wal):
        tree = DCTree(schema, config=DCTreeConfig(
            wal_fsync_interval=fsync_interval,
        ))
        if wal is not None:
            tree.set_mutation_sink(WalSink(wal, schema))
        start = time.perf_counter()
        for record in records:
            tree.insert(record)
        wall = time.perf_counter() - start
        return wall, _counter_key(tree.tracker.snapshot())

    plain_wall, plain_counters = insert_pass(None)
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as tmp:
        wal = WriteAheadLog(os.path.join(tmp, "wal.log"),
                            fsync_interval=fsync_interval)
        try:
            logged_wall, logged_counters = insert_pass(wal)
            wal.sync()
            wal_bytes = os.path.getsize(wal.path)
        finally:
            wal.close()
    return {
        "records": n_records,
        "seed": seed,
        "fsync_interval": fsync_interval,
        "plain_wall_seconds": plain_wall,
        "wal_wall_seconds": logged_wall,
        "overhead_ratio": _ratio(logged_wall, plain_wall),
        "wal_bytes": wal_bytes,
        "counters_identical": plain_counters == logged_counters,
    }


def measure_batch_amortization(n_records, seed=0, batch_size=BATCH_SIZE):
    """The insert-heavy phase: serial ``insert`` vs chunked ``insert_batch``.

    Runs the same fixed-seed record stream into two fresh trees — one
    record at a time, and in batches of ``batch_size`` — and reports the
    amortization: page writes per pass, their reduction ratio, simulated
    I/O+CPU seconds and wall clock.  Two invariants ride along as
    bench-level proofs of the batch path's contract: the *read* counters
    (node accesses, buffer hits/misses) must be bit-identical, and the
    resulting trees must have equal structure digests — batching may
    only ever remove write charges, never change the tree or what gets
    read.
    """
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=n_records)
    records = generator.generate(n_records)

    def insert_pass(use_batch):
        tree = DCTree(schema, config=DCTreeConfig())
        start = time.perf_counter()
        if use_batch:
            for begin in range(0, len(records), batch_size):
                tree.insert_batch(records[begin:begin + batch_size])
        else:
            for record in records:
                tree.insert(record)
        wall = time.perf_counter() - start
        return wall, tree.tracker.snapshot(), structure_digest(tree)

    serial_wall, serial_stats, serial_digest = insert_pass(False)
    batched_wall, batched_stats, batched_digest = insert_pass(True)
    reads_identical = (
        serial_stats.node_accesses == batched_stats.node_accesses
        and serial_stats.buffer_hits == batched_stats.buffer_hits
        and serial_stats.buffer_misses == batched_stats.buffer_misses
    )
    return {
        "records": n_records,
        "seed": seed,
        "batch_size": batch_size,
        "serial_wall_seconds": serial_wall,
        "batched_wall_seconds": batched_wall,
        "serial_page_writes": serial_stats.page_writes,
        "batched_page_writes": batched_stats.page_writes,
        "page_write_reduction": _ratio(
            serial_stats.page_writes, batched_stats.page_writes
        ),
        "serial_simulated_seconds": serial_stats.simulated_seconds(),
        "batched_simulated_seconds": batched_stats.simulated_seconds(),
        "simulated_speedup": _ratio(
            serial_stats.simulated_seconds(),
            batched_stats.simulated_seconds(),
        ),
        "reads_identical": reads_identical,
        "cpu_not_worse": batched_stats.cpu_units <= serial_stats.cpu_units,
        "structure_identical": serial_digest == batched_digest,
    }


def compare_to_baseline(current, baseline, tolerance, strict_wall=False):
    """Regressions of ``current`` vs ``baseline``; returns a problem list.

    Deterministic counters may not grow beyond ``baseline * (1 +
    tolerance)``; ops/sec may not drop below ``baseline / (1 + tolerance)``
    when ``strict_wall`` is set.  A workload-parameter mismatch makes the
    comparison meaningless and is reported as a problem itself.
    """
    problems = []
    for key in ("records", "queries", "repeats", "seed"):
        if current.get(key) != baseline.get(key):
            problems.append(
                "workload mismatch: %s is %r, baseline has %r"
                % (key, current.get(key), baseline.get(key))
            )
    if problems:
        return problems
    if baseline.get("digest") and current["digest"] != baseline["digest"]:
        problems.append(
            "result digest changed: %s -> %s (query answers differ from "
            "the baseline run)" % (baseline["digest"], current["digest"])
        )
    base_cached = baseline["modes"]["cached"]
    cur_cached = current["modes"]["cached"]
    for phase in ("insert", "query", "groupby", "repeat"):
        # Entries predating the repeat phase lack it; the "repeats"
        # workload-parameter check above already catches real mismatches.
        if phase not in base_cached or phase not in cur_cached:
            continue
        for counter in _CHECKED_COUNTERS:
            base_value = base_cached[phase][counter]
            cur_value = cur_cached[phase][counter]
            if cur_value > base_value * (1.0 + tolerance):
                problems.append(
                    "%s %s regressed: %d -> %d (>%d%% tolerance)"
                    % (phase, counter, base_value, cur_value,
                       round(tolerance * 100))
                )
        if strict_wall:
            base_rate = base_cached[phase]["ops_per_second"]
            cur_rate = cur_cached[phase]["ops_per_second"]
            if base_rate > 0 and cur_rate < base_rate / (1.0 + tolerance):
                problems.append(
                    "%s ops/sec regressed: %.1f -> %.1f (>%d%% tolerance)"
                    % (phase, base_rate, cur_rate, round(tolerance * 100))
                )
    base_batch = baseline.get("batch_insert")
    cur_batch = current.get("batch_insert")
    # Entries predating the insert-heavy batch phase lack it.
    if base_batch and cur_batch \
            and base_batch.get("batch_size") == cur_batch.get("batch_size"):
        base_writes = base_batch["batched_page_writes"]
        cur_writes = cur_batch["batched_page_writes"]
        if cur_writes > base_writes * (1.0 + tolerance):
            problems.append(
                "batched insert page writes regressed: %d -> %d (>%d%% "
                "tolerance)"
                % (base_writes, cur_writes, round(tolerance * 100))
            )
    return problems


def _format_summary(entry):
    lines = [
        "# bench regression — profile %s (%d records, %d queries, "
        "%d re-asks, seed %d)"
        % (entry["profile"], entry["records"], entry["queries"],
           entry["repeats"], entry["seed"]),
        "phase      wall(s)    ops/s   node-acc   page-io   cpu-units",
    ]
    report = entry["modes"]["cached"]
    for phase in ("insert", "query", "groupby", "repeat"):
        stats = report[phase]
        lines.append(
            "%-8s %8.3f %8.1f %10d %9d %11d"
            % (phase, stats["wall_seconds"], stats["ops_per_second"],
               stats["node_accesses"], stats["page_ios"],
               stats["cpu_units"])
        )
    lines.append(
        "re-asks vs first asks (result cache): %.2fx ops/s"
        % repeat_speedup(report)
    )
    batch = entry.get("batch_insert")
    if batch:
        lines.append(
            "batched inserts (size %d): page writes %d -> %d (%.2fx "
            "reduction), simulated %.2fx faster, reads identical: %s, "
            "structure identical: %s"
            % (batch["batch_size"], batch["serial_page_writes"],
               batch["batched_page_writes"], batch["page_write_reduction"],
               batch["simulated_speedup"], batch["reads_identical"],
               batch["structure_identical"])
        )
    return "\n".join(lines)


def load_bench_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench regression",
        description="Core benchmark with baseline regression checking.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small fast profile (<60 s, CI gate)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--strict-wall", action="store_true",
                        help="also fail on wall-clock ops/sec regressions")
    parser.add_argument("--min-repeat-speedup", type=float, default=None,
                        help="fail when re-ask ops/sec (result-cache hits) "
                             "drop below this factor times the first-ask "
                             "query + group-by ops/sec")
    parser.add_argument("--min-batch-speedup", type=float, default=None,
                        help="fail when the insert-heavy phase's batched "
                             "page-write reduction drops below this factor "
                             "(also fails when batching perturbs reads or "
                             "tree structure)")
    parser.add_argument("--max-wal-overhead", type=float, default=None,
                        metavar="RATIO",
                        help="also measure the WAL insert-path overhead "
                             "and fail when wal/plain wall exceeds RATIO "
                             "(or when counters differ with the WAL on)")
    parser.add_argument("--wal-fsync-interval", type=int, default=64,
                        help="fsync batching for the WAL-overhead "
                             "measurement (default 64)")
    parser.add_argument("--emit-metrics", action="store_true",
                        help="run an extra observability-enabled pass, "
                             "embed its metrics snapshot in the "
                             "report and fail when tracing perturbs the "
                             "deterministic counters or results")
    parser.add_argument("--output", default="BENCH_core.json",
                        help="benchmark file to compare against and update")
    parser.add_argument("--no-write", action="store_true",
                        help="compare only; leave the benchmark file alone")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="always dump the freshly measured entry to "
                             "PATH as JSON (CI artifact), pass or fail")
    args = parser.parse_args(argv)

    profile = "smoke" if args.smoke else "full"
    entry = run_benchmark(profile=profile, seed=args.seed,
                          emit_metrics=args.emit_metrics)
    print(_format_summary(entry))

    document = load_bench_file(args.output) or {"profiles": {}}
    baseline = document.get("profiles", {}).get(profile)
    failed = False
    if baseline is None:
        print("no committed baseline for profile %r yet — recording one"
              % profile)
    else:
        problems = compare_to_baseline(
            entry, baseline, args.tolerance, strict_wall=args.strict_wall
        )
        if problems:
            failed = True
            for problem in problems:
                print("REGRESSION: %s" % problem)
        else:
            print("no regression vs. committed baseline (tolerance %d%%)"
                  % round(args.tolerance * 100))
    if args.min_repeat_speedup is not None:
        achieved = repeat_speedup(entry["modes"]["cached"])
        if achieved < args.min_repeat_speedup:
            failed = True
            print("REGRESSION: repeated-query speedup %.2fx below required "
                  "%.2fx" % (achieved, args.min_repeat_speedup))
    if args.min_batch_speedup is not None:
        batch = entry["batch_insert"]
        if not batch["reads_identical"]:
            failed = True
            print("REGRESSION: batched inserts changed the read counters "
                  "(batching may only coalesce writes)")
        if not batch["structure_identical"]:
            failed = True
            print("REGRESSION: batched inserts built a different tree "
                  "(must be structurally identical to serial insertion)")
        if batch["page_write_reduction"] < args.min_batch_speedup:
            failed = True
            print("REGRESSION: batched page-write reduction %.2fx below "
                  "required %.2fx"
                  % (batch["page_write_reduction"], args.min_batch_speedup))
    if args.max_wal_overhead is not None:
        durability = measure_wal_overhead(
            PROFILES[profile]["records"], seed=args.seed,
            fsync_interval=args.wal_fsync_interval,
        )
        entry["durability"] = durability
        print(
            "wal overhead: %.2fx wall (plain %.3fs, logged %.3fs, "
            "%d bytes logged, fsync every %d), counters identical: %s"
            % (durability["overhead_ratio"],
               durability["plain_wall_seconds"],
               durability["wal_wall_seconds"], durability["wal_bytes"],
               durability["fsync_interval"],
               durability["counters_identical"])
        )
        if not durability["counters_identical"]:
            failed = True
            print("REGRESSION: WAL perturbed the deterministic counters "
                  "(the durability layer must be invisible to the cost "
                  "model)")
        if durability["overhead_ratio"] > args.max_wal_overhead:
            failed = True
            print("REGRESSION: WAL wall overhead %.2fx above allowed %.2fx"
                  % (durability["overhead_ratio"], args.max_wal_overhead))
    if args.emit_metrics:
        observability = entry["observability"]
        span_family = observability["metrics"].get(
            "repro_spans_total", {"samples": []}
        )
        spans = sum(
            sample["value"] for sample in span_family["samples"]
        )
        print(
            "observability: %d span(s) recorded; digest identical: %s, "
            "deterministic counters identical: %s"
            % (spans, observability["digest_identical"],
               observability["counters_identical"])
        )
        if not observability["digest_identical"]:
            failed = True
            print("REGRESSION: tracing changed the query results (the "
                  "telemetry layer must be strictly observational)")
        if not observability["counters_identical"]:
            failed = True
            print("REGRESSION: tracing perturbed the deterministic "
                  "counters (node accesses / page I/Os / CPU units must "
                  "be bit-identical with observability on)")

    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote measurement report to %s" % args.report)

    if not args.no_write and not failed:
        document.setdefault("profiles", {})[profile] = entry
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.output)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
