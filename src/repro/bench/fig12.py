"""Figure 12: average time per range query.

(a)-(c): DC-tree vs X-tree at selectivities 1 %, 5 % and 25 % (the paper
reports a speed-up of about 4.5×, with 5 % the cheapest selectivity for
the DC-tree); (d): DC-tree vs sequential scan at 25 % — the DC-tree's
worst case — where the paper reports a 12.5× speed-up.

The primary shape metric is the simulated time (buffer misses × t_io +
CPU units × t_cpu), which abstracts from Python's constant factors; the
wall-clock column is reported alongside.
"""

from __future__ import annotations

from .harness import cached_sweep
from .reporting import format_chart, format_speedup, format_table, speedup

#: Figure panel -> (selectivity, competitor backend).
PANELS = {
    "a": (0.01, "x-tree"),
    "b": (0.05, "x-tree"),
    "c": (0.25, "x-tree"),
    "d": (0.25, "scan"),
}


def fig12_rows(sweep, selectivity, competitor):
    """Rows: records, DC vs competitor per-query costs, speed-ups."""
    rows = []
    for point in sweep.checkpoints:
        dc = point.queries[("dc-tree", selectivity)]
        other = point.queries[(competitor, selectivity)]
        rows.append(
            (
                point.n_records,
                dc.simulated_seconds,
                other.simulated_seconds,
                format_speedup(
                    speedup(other.simulated_seconds, dc.simulated_seconds)
                ),
                dc.wall_seconds,
                other.wall_seconds,
                format_speedup(speedup(other.wall_seconds, dc.wall_seconds)),
            )
        )
    return rows


def report_fig12(panel, **sweep_kwargs):
    """Formatted table for panel 'a', 'b', 'c' or 'd'."""
    selectivity, competitor = PANELS[panel]
    sweep = cached_sweep(**sweep_kwargs)
    label = "sequential scan" if competitor == "scan" else "X-tree"
    rows = fig12_rows(sweep, selectivity, competitor)
    table = format_table(
        (
            "records",
            "DC sim [s]",
            "%s sim [s]" % label,
            "sim speedup",
            "DC wall [s]",
            "%s wall [s]" % label,
            "wall speedup",
        ),
        rows,
        title=(
            "Figure 12(%s): avg time per query, selectivity %.0f%%, "
            "DC-tree vs %s" % (panel, selectivity * 100, label)
        ),
    )
    chart = format_chart(
        [row[0] for row in rows],
        {"DC-tree sim": [row[1] for row in rows],
         "%s sim" % label: [row[2] for row in rows]},
    )
    return table + "\n\n" + chart

