"""Streaming updates: the scenario that motivates the DC-tree.

The paper's introduction: bulk-updated warehouses are stale between
nightly loads and unavailable during them, which is unacceptable for
"very dynamic applications such as stock markets or the WWW".  This
example plays a trading day against the warehouse: ticks stream in as
single-record inserts and an analyst's standing query is re-evaluated
continuously - the answer is up to date after *every* tick, and insert
latency stays flat (Fig. 11b's claim).

Run with:  python examples/streaming_updates.py [n_ticks]
"""

import sys
import time

from repro import CubeSchema, Dimension, Measure, Warehouse


def make_market_schema():
    """A stock-market cube: Instrument x Venue x Time, measure = volume."""
    return CubeSchema(
        dimensions=[
            Dimension("Instrument", ("Symbol", "Industry", "Sector")),
            Dimension("Venue", ("Exchange", "Country")),
            Dimension("Time", ("Minute", "Hour")),
        ],
        measures=[Measure("Volume")],
    )


INSTRUMENTS = [
    ("Tech", "Software", "SFTW%d" % i) for i in range(8)
] + [
    ("Tech", "Hardware", "HRDW%d" % i) for i in range(6)
] + [
    ("Finance", "Banks", "BANK%d" % i) for i in range(8)
] + [
    ("Energy", "Oil", "OIL%d" % i) for i in range(6)
]

VENUES = [
    ("US", "NYSE"), ("US", "NASDAQ"), ("DE", "XETRA"), ("JP", "TSE"),
]


def main(n_ticks=5000):
    import random

    rng = random.Random(7)
    warehouse = Warehouse(make_market_schema())

    standing_query = {"Instrument": ("Sector", ["Tech"])}
    latencies = []
    checkpoints = []

    print("streaming %d ticks ..." % n_ticks)
    for tick in range(n_ticks):
        sector, industry, symbol = rng.choice(INSTRUMENTS)
        country, exchange = rng.choice(VENUES)
        hour = "%02d" % rng.randint(9, 17)
        minute = "%s:%02d" % (hour, rng.randint(0, 59))
        volume = float(rng.randint(100, 10000))

        start = time.perf_counter()
        warehouse.insert(
            ((sector, industry, symbol), (country, exchange),
             (hour, minute)),
            (volume,),
        )
        latencies.append(time.perf_counter() - start)

        if (tick + 1) % (n_ticks // 5) == 0:
            # The standing query sees every tick immediately.
            tech_volume = warehouse.query("sum", where=standing_query)
            checkpoints.append((tick + 1, tech_volume))

    print("\n%10s %18s" % ("ticks", "tech volume (live)"))
    for count, volume in checkpoints:
        print("%10d %18.0f" % (count, volume))

    latencies.sort()
    n = len(latencies)
    print(
        "\ninsert latency: p50=%.3f ms  p95=%.3f ms  p99=%.3f ms  max=%.3f ms"
        % (
            latencies[n // 2] * 1e3,
            latencies[int(n * 0.95)] * 1e3,
            latencies[int(n * 0.99)] * 1e3,
            latencies[-1] * 1e3,
        )
    )
    first_half = sum(latencies[: n // 2]) / (n // 2)
    print(
        "mean latency stays flat as the index grows "
        "(the warehouse never needs a bulk-update window)"
    )

    # Slice the live cube a few ways.
    print("\nlive OLAP on the streaming cube:")
    for label, where in [
        ("volume on US venues", {"Venue": ("Country", ["US"])}),
        ("banking volume", {"Instrument": ("Industry", ["Banks"])}),
        ("tech volume on NASDAQ",
         {"Instrument": ("Sector", ["Tech"]),
          "Venue": ("Exchange", ["NASDAQ"])}),
    ]:
        print("  %-28s %14.0f" % (label, warehouse.query("sum", where=where)))
    return 0


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    sys.exit(main(n))
