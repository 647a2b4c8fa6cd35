"""Performance-regression benchmark: ``python -m repro.bench regression``.

Runs one fixed-seed insert / range-query / group-by / repeated-query /
delete workload over the TPC-D cube with the default configuration and
gates the paper's deterministic costs (node accesses, page I/Os, CPU
units) exactly against the committed ``BENCH_core.json``.  Every run applies
every gate; there are no gate knobs.

One dataset is generated per run and feeds four passes:

* the *serial* pass (:func:`run_workload`) inserts record by record,
  asks the query batch and the group-by battery, re-asks both with
  Zipfian popularity, then deletes a fixed sample of
  ``1 / DELETE_FRACTION`` of the records and asks the query batch
  again.  Its phase counters, answer digest and delete digest (the
  structure after the deletes plus the answers asked after them) must
  equal the baseline, and the state after its insert phase is the
  reference for the next two passes;
* the *batched* pass inserts the same records through chunked
  ``insert_batch`` calls.  Reads, CPU and the tree structure must match
  the serial pass, page writes must drop at least
  ``MIN_BATCH_REDUCTION``-fold and must equal the baseline;
* the *WAL* pass logs every insert to a real write-ahead log (fsync every
  ``WAL_FSYNC_INTERVAL`` appends).  Its counters must equal the serial
  pass's.  Plain and logged insert phases run back to back in
  ``WAL_PAIRS`` pairs, alternating which goes first, and the median
  logged/plain ratio may be at most ``MAX_WAL_OVERHEAD``;
* the *observed* pass repeats the serial workload with the metrics
  registry on.  Answers and counters must not move.

The re-asks price the result cache: hits replay the recorded tracker
charges, so the counters match a recomputation exactly and only
wall-clock improves.  Re-asks must run at least ``MIN_REPEAT_SPEEDUP``
times the first asks' ops/s of the same pass.  Wall time is never
compared with the baseline; ``perfbench/`` tracks it.

A run only compares.  ``--rebaseline`` writes the measured entry to the
benchmark file once the run's own gates pass; a changed counter, digest
or page-write count needs one, plus a CHANGES.md line.

Profiles:

* ``full``  — 30 000 records, 100 mixed-selectivity queries (1/5/25 %)
  plus the standard group-by battery and 400 Zipfian re-asks; the
  headline numbers.
* ``smoke`` (``--smoke``) — 4 000 records, 30 queries, 120 re-asks;
  a few seconds, and the CI gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import statistics
import sys
import tempfile
import time
from collections import namedtuple

from ..config import DCTreeConfig
from ..core.debug import structure_digest
from ..core.tree import DCTree
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

#: Chunk size of the batched pass (one page of records at the default
#: leaf capacity).
BATCH_SIZE = 64

#: Re-ask ops/s must reach this multiple of the first-ask ops/s.
MIN_REPEAT_SPEEDUP = 1.2
#: Serial page writes over batched page writes must reach this factor.
MIN_BATCH_REDUCTION = 2.0
#: The median logged/plain insert wall-time ratio may not exceed this.
MAX_WAL_OVERHEAD = 2.0
#: Back-to-back plain/logged insert pairs the WAL overhead is the median of.
WAL_PAIRS = 3
#: Fsync batching of the WAL pass.
WAL_FSYNC_INTERVAL = 64
#: The delete phase removes one record in this many.
DELETE_FRACTION = 16

PHASES = ("insert", "query", "groupby", "repeat", "delete")

#: Per-phase counters that must equal the baseline.
_CHECKED_COUNTERS = ("node_accesses", "page_ios", "cpu_units")

#: Entry fields that must match for a baseline comparison to mean anything.
_WORKLOAD_KEYS = ("records", "queries", "repeats", "seed")

#: Yes/no verdicts of a run: (block, key, problem when False).
_VERDICTS = (
    ("batch_insert", "reads_identical",
     "batched inserts changed the read counters (batching may only "
     "coalesce writes)"),
    ("batch_insert", "cpu_not_worse",
     "batched inserts spent more CPU units than serial insertion"),
    ("batch_insert", "structure_identical",
     "batched inserts built a different tree than serial insertion"),
    ("durability", "counters_identical",
     "the WAL moved the deterministic counters (the durability layer "
     "must be invisible to the cost model)"),
    ("observability", "digest_identical",
     "telemetry changed the query answers"),
    ("observability", "counters_identical",
     "telemetry moved the deterministic counters"),
)

#: One :func:`run_workload` pass: per-phase stats, answer digest, the
#: tracker snapshot and structure digest right after the insert phase,
#: the delete digest and the metrics snapshot (observed passes only).
WorkloadPass = namedtuple(
    "WorkloadPass", "phases digest inserted structure delete_digest metrics"
)


def make_dataset(n_records, seed=0):
    """The run's schema and fixed-seed record stream."""
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=seed, scale_records=n_records)
    return schema, generator.generate(n_records)


def _phase_stats(tracker, before, wall_seconds, n_ops):
    stats = tracker.snapshot() - before
    return {
        "wall_seconds": wall_seconds,
        "ops": n_ops,
        "ops_per_second": _ratio(n_ops, wall_seconds),
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
        ("range", generators[index % len(generators)].query().mds)
        for index in range(n_queries)
    ]


def _group_by_battery(schema, seed):
    """Group-by workload: ("groupby", (dim, level, range_mds-or-None)).

    Every non-leaf functional level is rolled up once unrestricted, plus
    three range-restricted roll-ups per selectivity (the interactive
    "slice then roll up" OLAP shape, which exercises entry classification
    the same way range queries do).
    """
    battery = []
    for dim in range(schema.n_dimensions):
        hierarchy = schema.dimensions[dim].hierarchy
        for level in range(1, hierarchy.top_level):
            battery.append(("groupby", (dim, level, None)))
    index = 0
    for offset, selectivity in enumerate(SELECTIVITIES):
        generator = QueryGenerator(schema, selectivity, seed=seed + offset)
        for _ in range(3):
            dim = index % schema.n_dimensions
            hierarchy = schema.dimensions[dim].hierarchy
            level = min(1, hierarchy.top_level - 1)
            battery.append(("groupby", (dim, level, generator.query().mds)))
            index += 1
    return battery


def _repeat_workload(pool, n_repeats, seed):
    """Zipfian re-ask stream over the already-asked queries/roll-ups.

    Rank r of ``pool`` is re-asked with weight 1/r**ZIPF_EXPONENT (a hot
    head of favourite reports, a long tail of occasional ones).  Fixed
    seed → every pass replays the identical stream.
    """
    rng = random.Random(seed)
    weights = [
        1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(pool) + 1)
    ]
    return rng.choices(pool, weights=weights, k=n_repeats)


def run_workload(schema, records, n_queries, n_repeats=0, seed=0,
                 observability=False):
    """One full pass over ``records``; returns a :class:`WorkloadPass`.

    ``observability`` is passed to :class:`DCTreeConfig` explicitly in
    both directions, so two passes stay comparable even when
    ``REPRO_OBSERVABILITY`` is set in the environment; an observed pass
    also returns the metrics-registry snapshot.
    """
    tree = DCTree(schema, config=DCTreeConfig(observability=observability))
    digest = hashlib.sha256()

    def answer(op):
        kind, payload = op
        if kind == "range":
            return repr(tree.range_query(payload)).encode()
        dim, level, range_mds = payload
        groups = tree.group_by(dim, level, range_mds=range_mds)
        return repr(sorted(groups.items())).encode()

    def ask(op):
        digest.update(answer(op))

    def phase(ops, run_one):
        before = tree.tracker.snapshot()
        start = time.perf_counter()
        for op in ops:
            run_one(op)
        return _phase_stats(
            tree.tracker, before, time.perf_counter() - start, len(ops)
        )

    phases = {"insert": phase(records, tree.insert)}
    inserted = tree.tracker.snapshot()
    structure = structure_digest(tree)
    queries = _build_queries(schema, n_queries, seed=seed + 1000)
    phases["query"] = phase(queries, ask)
    battery = _group_by_battery(schema, seed=seed + 2000)
    phases["groupby"] = phase(battery, ask)
    repeats = _repeat_workload(queries + battery, n_repeats, seed=seed + 3000)
    phases["repeat"] = phase(repeats, ask)
    doomed = random.Random(seed + 4000).sample(
        records, len(records) // DELETE_FRACTION
    )
    phases["delete"] = phase(doomed, tree.delete)
    delete_digest = hashlib.sha256(structure_digest(tree).encode())
    for op in queries:
        delete_digest.update(answer(op))

    metrics = tree.observability.snapshot() if observability else None
    return WorkloadPass(phases, digest.hexdigest(), inserted, structure,
                        delete_digest.hexdigest(), metrics)


def measure_batch_amortization(schema, records, serial):
    """The batched pass: chunked ``insert_batch`` vs the serial pass.

    Reports the amortization (page writes, their reduction, simulated
    I/O+CPU seconds, wall clock) and three verdicts on the batch path's
    contract: the read counters are bit-identical, CPU is not higher and
    the tree's structure digest is equal.  Batching may only ever remove
    write charges, never change the tree or what gets read.
    """
    tree = DCTree(schema, config=DCTreeConfig(observability=False))
    start = time.perf_counter()
    for begin in range(0, len(records), BATCH_SIZE):
        tree.insert_batch(records[begin:begin + BATCH_SIZE])
    batched_wall = time.perf_counter() - start
    batched = tree.tracker.snapshot()
    plain = serial.inserted
    return {
        "batch_size": BATCH_SIZE,
        "serial_wall_seconds": serial.phases["insert"]["wall_seconds"],
        "batched_wall_seconds": batched_wall,
        "serial_page_writes": plain.page_writes,
        "batched_page_writes": batched.page_writes,
        "page_write_reduction": _ratio(
            plain.page_writes, batched.page_writes
        ),
        "serial_simulated_seconds": plain.simulated_seconds(),
        "batched_simulated_seconds": batched.simulated_seconds(),
        "simulated_speedup": _ratio(
            plain.simulated_seconds(), batched.simulated_seconds()
        ),
        "reads_identical": (
            _counter_key(plain)[:3] == _counter_key(batched)[:3]
        ),
        "cpu_not_worse": batched.cpu_units <= plain.cpu_units,
        "structure_identical": structure_digest(tree) == serial.structure,
    }


def measure_wal_overhead(schema, records, serial):
    """The WAL pass: plain and logged insert phases, back to back.

    Runs ``WAL_PAIRS`` pairs of fresh-tree insert phases, one plain and
    one logged to a real WAL, alternating which goes first, and reports
    the median logged/plain wall-time ratio: both halves of a ratio see
    the same host speed.  The WAL does real file I/O but never touches
    the simulated cost model, so every logged phase's five tracker
    counters must equal the serial pass's (``counters_identical``).
    """
    walls = {False: [], True: []}
    logged_counters = set()
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as tmp:
        for pair in range(WAL_PAIRS):
            for logged in (pair % 2 == 1, pair % 2 == 0):
                tree = DCTree(schema, config=DCTreeConfig(observability=False))
                path = os.path.join(tmp, "wal-%d.log" % pair)
                wal = (WriteAheadLog(path, fsync_interval=WAL_FSYNC_INTERVAL)
                       if logged else contextlib.nullcontext())
                with wal:
                    if logged:
                        tree.set_mutation_sink(WalSink(wal, schema))
                    start = time.perf_counter()
                    for record in records:
                        tree.insert(record)
                    walls[logged].append(time.perf_counter() - start)
                if logged:
                    logged_counters.add(_counter_key(tree.tracker.snapshot()))
                    wal_bytes = os.path.getsize(path)
    ratios = [_ratio(logged, plain)
              for logged, plain in zip(walls[True], walls[False])]
    return {
        "fsync_interval": WAL_FSYNC_INTERVAL,
        "plain_wall_seconds": statistics.median(walls[False]),
        "wal_wall_seconds": statistics.median(walls[True]),
        "pair_ratios": ratios,
        "overhead_ratio": statistics.median(ratios),
        "wal_bytes": wal_bytes,
        "counters_identical": (
            logged_counters == {_counter_key(serial.inserted)}
        ),
    }


def _phase_counters(phases):
    """The deterministic counters of one pass, phase by phase."""
    return {
        phase: {counter: phases[phase][counter]
                for counter in _CHECKED_COUNTERS}
        for phase in PHASES
    }


def run_benchmark(profile="full", seed=0):
    """Run one profile; returns (BENCH entry, observed-pass metrics).

    The metrics-registry snapshot is kept out of the entry (and so out of
    the committed baseline); ``--report`` writes it alongside.
    """
    params = PROFILES[profile]
    schema, records = make_dataset(params["records"], seed=seed)
    workload = (schema, records, params["queries"], params["repeats"], seed)
    serial = run_workload(*workload, observability=False)
    entry = {
        "profile": profile,
        "seed": seed,
        "records": params["records"],
        "queries": params["queries"],
        "repeats": params["repeats"],
        "selectivities": list(SELECTIVITIES),
        "zipf_exponent": ZIPF_EXPONENT,
        "digest": serial.digest,
        "delete_digest": serial.delete_digest,
        "phases": serial.phases,
        "batch_insert": measure_batch_amortization(schema, records, serial),
        "durability": measure_wal_overhead(schema, records, serial),
    }
    observed = run_workload(*workload, observability=True)
    inserts = observed.metrics["dctree_inserts_total"]["samples"][0]
    entry["observability"] = {
        "digest_identical": (
            (observed.digest, observed.delete_digest)
            == (serial.digest, serial.delete_digest)
        ),
        "counters_identical": (
            _phase_counters(observed.phases)
            == _phase_counters(serial.phases)
        ),
        "inserts": inserts["value"],
    }
    return entry, observed.metrics


def repeat_speedup(phases):
    """Re-ask ops/sec over first-ask (query + group-by) ops/sec."""
    first = phases["query"], phases["groupby"]
    first_rate = _ratio(
        sum(phase["ops"] for phase in first),
        sum(phase["wall_seconds"] for phase in first),
    )
    return _ratio(phases["repeat"]["ops_per_second"], first_rate)


def _ratio(numerator, denominator):
    return (numerator / denominator) if denominator > 0 else 0.0


def _counter_key(stats):
    """All five tracker counters, reads first."""
    return (stats.node_accesses, stats.buffer_hits, stats.buffer_misses,
            stats.page_writes, stats.cpu_units)


def check_gates(entry):
    """The run's own gates, which need no baseline; returns a problem list."""
    problems = [
        problem
        for block, key, problem in _VERDICTS
        if not entry[block][key]
    ]
    speedup = repeat_speedup(entry["phases"])
    if speedup < MIN_REPEAT_SPEEDUP:
        problems.append("re-ask speedup %.2fx below required %.2fx"
                        % (speedup, MIN_REPEAT_SPEEDUP))
    reduction = entry["batch_insert"]["page_write_reduction"]
    if reduction < MIN_BATCH_REDUCTION:
        problems.append("batched page-write reduction %.2fx below required "
                        "%.2fx" % (reduction, MIN_BATCH_REDUCTION))
    overhead = entry["durability"]["overhead_ratio"]
    if overhead > MAX_WAL_OVERHEAD:
        problems.append("WAL wall overhead %.2fx above allowed %.2fx"
                        % (overhead, MAX_WAL_OVERHEAD))
    return problems


def _exact_fields(entry):
    """The values a run must reproduce exactly, by name (None: absent)."""
    phases = entry.get("phases", {})
    batch = entry.get("batch_insert", {})
    fields = {
        "result digest": entry.get("digest"),
        "delete digest": entry.get("delete_digest"),
    }
    for phase in PHASES:
        for counter in _CHECKED_COUNTERS:
            fields["%s %s" % (phase, counter)] = \
                phases.get(phase, {}).get(counter)
    fields["batch size"] = batch.get("batch_size")
    fields["batched page writes"] = batch.get("batched_page_writes")
    return fields


def compare_to_baseline(current, baseline):
    """Differences of ``current`` from ``baseline``; returns a problem list.

    Exact in both directions: every checked counter, the answer and
    delete digests and the batched page writes must equal the baseline,
    so a counter that drops fails as surely as one that grows.  A
    baseline field that is missing is a problem too, and so is a
    workload-parameter mismatch, which makes the rest of the comparison
    meaningless.
    """
    problems = [
        "workload mismatch: %s is %r, baseline has %r"
        % (key, current.get(key), baseline.get(key))
        for key in _WORKLOAD_KEYS
        if current.get(key) != baseline.get(key)
    ]
    if problems:
        return problems
    measured = _exact_fields(current)
    for name, expected in _exact_fields(baseline).items():
        if expected is None:
            problems.append("baseline lacks the %s" % name)
        elif measured[name] != expected:
            problems.append("%s changed: %s -> %s"
                            % (name, expected, measured[name]))
    return problems


def _format_summary(entry):
    lines = [
        "# bench regression — profile %s (%d records, %d queries, "
        "%d re-asks, seed %d)"
        % (entry["profile"], entry["records"], entry["queries"],
           entry["repeats"], entry["seed"]),
        "phase      wall(s)    ops/s   node-acc   page-io   cpu-units",
    ]
    phases = entry["phases"]
    for phase in PHASES:
        stats = phases[phase]
        lines.append(
            "%-8s %8.3f %8.1f %10d %9d %11d"
            % (phase, stats["wall_seconds"], stats["ops_per_second"],
               stats["node_accesses"], stats["page_ios"],
               stats["cpu_units"])
        )
    lines.append(
        "re-asks vs first asks (result cache): %.2fx ops/s"
        % repeat_speedup(phases)
    )
    batch = entry["batch_insert"]
    lines.append(
        "batched inserts (size %d): page writes %d -> %d (%.2fx "
        "reduction), simulated %.2fx faster, reads identical: %s, "
        "CPU not worse: %s, structure identical: %s"
        % (batch["batch_size"], batch["serial_page_writes"],
           batch["batched_page_writes"], batch["page_write_reduction"],
           batch["simulated_speedup"], batch["reads_identical"],
           batch["cpu_not_worse"], batch["structure_identical"])
    )
    durability = entry["durability"]
    lines.append(
        "wal overhead: %.2fx wall (median of %d pairs; plain %.3fs, "
        "logged %.3fs, %d bytes logged, fsync every %d), counters "
        "identical: %s"
        % (durability["overhead_ratio"], WAL_PAIRS,
           durability["plain_wall_seconds"],
           durability["wal_wall_seconds"], durability["wal_bytes"],
           durability["fsync_interval"], durability["counters_identical"])
    )
    observability = entry["observability"]
    lines.append(
        "observability: %d insert(s) counted; digest identical: %s, "
        "deterministic counters identical: %s"
        % (observability["inserts"], observability["digest_identical"],
           observability["counters_identical"])
    )
    return "\n".join(lines)


def load_bench_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def _write_json(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench regression",
        description="Core benchmark; every run gates its counters exactly "
                    "against the committed baseline.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small fast profile (a few seconds, CI gate)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="write the measured entry to --output once "
                             "the run's own gates pass (for an intended "
                             "counter, digest or page-write change)")
    parser.add_argument("--output", default="BENCH_core.json",
                        help="benchmark file to compare against "
                             "(default BENCH_core.json)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="always dump the measured entry and the "
                             "metrics snapshot to PATH as JSON, pass or "
                             "fail")
    args = parser.parse_args(argv)

    profile = "smoke" if args.smoke else "full"
    entry, metrics = run_benchmark(profile=profile)
    print(_format_summary(entry))

    if args.report is not None:
        observability = dict(entry["observability"], metrics=metrics)
        _write_json(args.report, dict(entry, observability=observability))
        print("wrote measurement report to %s" % args.report)

    document = load_bench_file(args.output) or {}
    profiles = document.setdefault("profiles", {})
    baseline = profiles.get(profile)
    if baseline is None:
        changes = ["no %r baseline in %s" % (profile, args.output)]
    else:
        changes = compare_to_baseline(entry, baseline)
    problems = check_gates(entry)
    for problem in problems:
        print("REGRESSION: %s" % problem)
    label = "CHANGED" if args.rebaseline else "REGRESSION"
    for change in changes:
        print("%s: %s" % (label, change))
    if not changes:
        print("counters, digests and batched page writes equal the baseline")

    if problems:
        return 1
    if args.rebaseline:
        profiles[profile] = entry
        _write_json(args.output, document)
        print("wrote %s" % args.output)
        return 0
    if changes:
        print("an intended change needs --rebaseline and a CHANGES.md line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
