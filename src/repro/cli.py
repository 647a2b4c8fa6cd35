"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate   write a TPC-D-style flat insert file
load       bulk-load a warehouse from a flat file and save it
query      run one aggregate query against a saved warehouse
groupby    run one roll-up report against a saved warehouse
sql        run a SQL-ish query (SELECT agg(measure) WHERE ... GROUP BY ...)
explain    profile one query: per-level cost attribution (EXPLAIN)
inspect    print schema, size, tree statistics and checkpoint bytes per
           section of a saved warehouse
recover    replay checkpoint + WAL after a crash and report what survived
bench      shortcut for ``python -m repro.bench ...``

Read commands accept either a plain warehouse file or a
durable session *directory* (``checkpoint.json`` + ``wal.log``); the
latter is recovered — checkpoint, WAL replay, validation — before the
command runs.

The CLI is a thin veneer over the public API — every command body reads
like the quickstart so it doubles as living documentation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core.bulkload import bulk_load
from .core.stats import collect_stats
from .errors import ReproError
from .obs.metrics import describe_result_cache
from .persist.durable import DurableWarehouse, recover_directory
from .persist.format import CHECKPOINT_MAGIC, FRAME_PREFIX, SECTIONS, scan_frames
from .persist.io import load_warehouse, save_warehouse
from .persist.recovery import recover_warehouse
from .query.sql import execute as execute_sql
from .tpcd.flatfile import read_flatfile, write_flatfile
from .tpcd.generator import TPCDGenerator
from .tpcd.schema import make_tpcd_schema
from .warehouse import Warehouse


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early - not an error.
        return 0


def positive_int(text):
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


#: The positional of every read command: ``_open_warehouse`` recovers a
#: durable session directory before the command runs.
_WAREHOUSE_HELP = "warehouse file or durable session directory"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DC-tree data warehouse toolkit (ICDE 2000 reproduction)",
    )
    commands = parser.add_subparsers(dest="command")

    generate = commands.add_parser(
        "generate", help="write a TPC-D-style flat insert file"
    )
    generate.add_argument("path", help="output .tbl path")
    generate.add_argument("--records", type=positive_int, default=10000)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    load = commands.add_parser(
        "load", help="bulk-load a warehouse from a flat file and save it"
    )
    load.add_argument("flatfile", help="input .tbl path")
    load.add_argument("warehouse", help="output warehouse file path")
    load.add_argument(
        "--batch-size", type=positive_int, default=None, metavar="N",
        help="load through insert_batch in chunks of N records instead "
        "of the offline bulk loader — the dynamic-update path with "
        "amortized page writes",
    )
    load.set_defaults(handler=_cmd_load)

    query = commands.add_parser(
        "query", help="one aggregate query against a saved warehouse"
    )
    query.add_argument("warehouse", help=_WAREHOUSE_HELP)
    query.add_argument("--op", default="sum",
                       choices=("sum", "count", "avg", "min", "max"))
    query.add_argument(
        "--where", action="append", default=[], metavar="DIM.LEVEL=A,B",
        help="constraint, repeatable (e.g. Customer.Region=EUROPE,ASIA)",
    )
    query.set_defaults(handler=_cmd_query)

    groupby = commands.add_parser(
        "groupby", help="roll-up report against a saved warehouse"
    )
    groupby.add_argument("warehouse", help=_WAREHOUSE_HELP)
    groupby.add_argument("by", metavar="DIM.LEVEL",
                         help="e.g. Customer.Region")
    groupby.add_argument("--op", default="sum",
                         choices=("sum", "count", "avg", "min", "max"))
    groupby.add_argument(
        "--where", action="append", default=[], metavar="DIM.LEVEL=A,B"
    )
    groupby.set_defaults(handler=_cmd_groupby)

    inspect = commands.add_parser(
        "inspect",
        help="schema, sizes, tree statistics and checkpoint bytes of a "
             "warehouse",
    )
    inspect.add_argument("warehouse", help=_WAREHOUSE_HELP)
    inspect.set_defaults(handler=_cmd_inspect)

    sql = commands.add_parser(
        "sql", help="run a SQL-ish query against a saved warehouse"
    )
    sql.add_argument("warehouse", help=_WAREHOUSE_HELP)
    sql.add_argument(
        "query",
        help="e.g. \"SELECT SUM(ExtendedPrice) WHERE "
             "Customer.Region = 'EUROPE' GROUP BY Time.Year\"",
    )
    sql.set_defaults(handler=_cmd_sql)

    explain = commands.add_parser(
        "explain",
        help="profile one query: per-level page/CPU attribution, entry "
             "classifications, aggregate pruning, cache outcome",
    )
    explain.add_argument("warehouse", help=_WAREHOUSE_HELP)
    explain.add_argument("--op", default="sum",
                         choices=("sum", "count", "avg", "min", "max"))
    explain.add_argument(
        "--where", action="append", default=[], metavar="DIM.LEVEL=A,B"
    )
    explain.add_argument(
        "--by", default=None, metavar="DIM.LEVEL",
        help="profile a roll-up over this dimension instead",
    )
    explain.add_argument(
        "--sql", default=None, metavar="QUERY",
        help="profile this SQL-ish query instead of --op/--where/--by",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the profile (and result) as JSON",
    )
    explain.set_defaults(handler=_cmd_explain)

    recover = commands.add_parser(
        "recover",
        help="replay checkpoint + WAL after a crash and report what "
             "survived",
    )
    recover.add_argument(
        "warehouse",
        help="durable session directory, or a checkpoint file path",
    )
    recover.add_argument(
        "--wal", default=None, metavar="PATH",
        help="WAL path (default: wal.log next to the checkpoint)",
    )
    recover.add_argument(
        "--output", default=None, metavar="PATH",
        help="save the recovered warehouse as a fresh checkpoint here",
    )
    recover.add_argument(
        "--metrics", action="store_true",
        help="also print the recovery audit as Prometheus text exposition",
    )
    recover.set_defaults(handler=_cmd_recover)

    bench = commands.add_parser(
        "bench",
        help="regenerate the paper's experiments "
             "(delegates to `python -m repro.bench`)",
    )
    bench.add_argument("bench_args", nargs=argparse.REMAINDER,
                       help="arguments for repro.bench (e.g. fig12b --quick)")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _cmd_generate(args):
    schema = make_tpcd_schema()
    generator = TPCDGenerator(schema, seed=args.seed,
                              scale_records=args.records)
    count = write_flatfile(
        args.path, schema, generator.records(args.records)
    )
    print("wrote %d records to %s" % (count, args.path))
    return 0


def _cmd_load(args):
    schema, records = read_flatfile(args.flatfile)
    if args.batch_size is not None:
        warehouse = Warehouse(schema)
        for start in range(0, len(records), args.batch_size):
            warehouse.insert_records(records[start:start + args.batch_size])
        via = "dc-tree (batched inserts of %d)" % args.batch_size
    else:
        warehouse = Warehouse.wrap(bulk_load(schema, records))
        via = "dc-tree"
    save_warehouse(warehouse, args.warehouse)
    print(
        "loaded %d records into a %s and saved it to %s"
        % (len(warehouse), via, args.warehouse)
    )
    return 0


def _parse_where(clauses):
    where = {}
    for clause in clauses:
        head, _, labels = clause.partition("=")
        dim, _, level = head.partition(".")
        if not (dim and level and labels):
            raise SystemExit(
                "bad --where %r (expected DIM.LEVEL=A,B)" % clause
            )
        if dim in where:
            raise SystemExit(
                "--where constrains dimension %r twice (combine the labels "
                "into one DIM.LEVEL=A,B clause)" % dim
            )
        where[dim] = (level, [label for label in labels.split(",") if label])
    return where


def _open_warehouse(path):
    """Open a warehouse for reading: plain warehouse file or durable
    session directory.  Returns ``(warehouse, report_or_None)``."""
    if os.path.isdir(path):
        return recover_directory(path)
    return load_warehouse(path), None


def _print_result(value):
    if isinstance(value, dict):
        for label in sorted(value):
            print("%s\t%g" % (label, value[label]))
    else:
        print(value)


def _cmd_query(args):
    warehouse, _ = _open_warehouse(args.warehouse)
    _print_result(warehouse.query(args.op, where=_parse_where(args.where)))
    return 0


def _group_by(warehouse, args):
    dim, _, level = args.by.partition(".")
    if not (dim and level):
        raise SystemExit("bad group-by %r (expected DIM.LEVEL)" % args.by)
    return warehouse.group_by(
        dim, level, op=args.op, where=_parse_where(args.where)
    )


def _cmd_groupby(args):
    warehouse, _ = _open_warehouse(args.warehouse)
    _print_result(_group_by(warehouse, args))
    return 0


def _cmd_sql(args):
    warehouse, _ = _open_warehouse(args.warehouse)
    _print_result(execute_sql(warehouse, args.query))
    return 0


def _cmd_explain(args):
    warehouse, _ = _open_warehouse(args.warehouse)
    with warehouse.explain() as profiles:
        if args.sql:
            value = execute_sql(warehouse, args.sql)
        elif args.by:
            value = _group_by(warehouse, args)
        else:
            value = warehouse.query(args.op, where=_parse_where(args.where))
    [profile] = profiles
    if args.json:
        import json

        payload = profile.to_dict()
        payload["result"] = (
            {str(label): v for label, v in sorted(value.items())}
            if isinstance(value, dict) else value
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_result(value)
        print(profile.render())
    return 0


def _cmd_bench(args):
    from .bench.__main__ import main as bench_main

    return bench_main(args.bench_args or ["all", "--quick"])


def _cmd_recover(args):
    path = args.warehouse
    if os.path.isdir(path):
        checkpoint = DurableWarehouse.checkpoint_path(path)
        wal = args.wal or DurableWarehouse.wal_path(path)
    else:
        checkpoint = path
        wal = args.wal or os.path.join(
            os.path.dirname(path) or ".", DurableWarehouse.WAL_NAME
        )
        if not os.path.exists(wal):
            wal = None
    warehouse, report = recover_warehouse(checkpoint, wal)
    print(report.describe())
    if args.metrics:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
        report.publish_metrics(registry)
        print(registry.render_prometheus())
    if warehouse is None or not report.ok:
        return 1
    if args.output:
        save_warehouse(
            warehouse, args.output, extra_meta={"wal_lsn": report.last_lsn}
        )
        print("saved recovered warehouse to %s" % args.output)
    return 0


def _print_checkpoint_bytes(path, n_records):
    """Frame size of each section of the checkpoint at ``path``, and the
    file's bytes per record."""
    with open(path, "rb") as handle:
        raw = handle.read()
    frames = scan_frames(raw, len(CHECKPOINT_MAGIC))
    for name, (_offset, payload) in zip(SECTIONS, frames):
        print("section %-12s %9d B" % (name, FRAME_PREFIX.size + len(payload)))
    per_record = "%.1f" % (len(raw) / n_records) if n_records else "-"
    print("file:     %d B, %s B/record" % (len(raw), per_record))


def _cmd_inspect(args):
    warehouse, report = _open_warehouse(args.warehouse)
    if report is not None:
        print(report.describe())
    print("backend:  %s" % warehouse.backend)
    print("records:  %d" % len(warehouse))
    print("size:     %.1f KiB" % (warehouse.byte_size() / 1024))
    if report is None:
        _print_checkpoint_bytes(args.warehouse, len(warehouse))
    else:
        _print_checkpoint_bytes(report.checkpoint_path,
                                report.records_at_checkpoint)
    for dimension in warehouse.schema.dimensions:
        hierarchy = dimension.hierarchy
        sizes = "/".join(
            str(hierarchy.n_values_at_level(level))
            for level in reversed(range(hierarchy.top_level))
        )
        print(
            "dim %-10s %s (%s values)"
            % (dimension.name, " > ".join(reversed(dimension.level_names)),
               sizes)
        )
    for measure in warehouse.schema.measures:
        print("measure:  %s" % measure.name)
    stats = collect_stats(warehouse.index)
    print("height:   %d" % stats.height)
    print("nodes:    %d (%d supernodes)" % (stats.n_nodes,
                                            stats.n_supernodes))
    for level in stats.levels:
        print(
            "  depth %d: %4d nodes, %6.1f entries avg"
            % (level.depth, level.n_nodes, level.avg_entries)
        )
    print(describe_result_cache(warehouse.index))
    from .obs import warehouse_registry

    print("metrics:")
    print(warehouse_registry(warehouse).snapshot_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
