"""Command-line entry point: ``python -m repro.bench <experiment ...>``.

Experiments: fig11a fig11b fig12a fig12b fig12c fig12d fig13 verdict all

Options:
  --quick         small sizes/query counts (seconds instead of minutes)
  --sizes A,B,C   checkpoint record counts (default 10000,20000,30000)
  --queries N     queries per measurement (default 100)
  --seed N        RNG seed (default 0)

``python -m repro.bench regression [--smoke ...]`` is the hot-path
performance-regression benchmark; it has its own options (see
``repro.bench.regression``).
"""

from __future__ import annotations

import argparse
import sys

from ..cli import positive_int
from . import fig11, fig12, fig13, verdict

_QUICK_SIZES = (1000, 2000, 4000)
_QUICK_QUERIES = 20

EXPERIMENTS = (
    "fig11a", "fig11b", "fig12a", "fig12b", "fig12c", "fig12d", "fig13",
    "verdict",
)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "regression":
        from . import regression
        return regression.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS + ("all",),
        help="experiment ids (or 'all')",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a fast sanity run")
    parser.add_argument("--sizes", type=_parse_sizes, default=None,
                        help="comma-separated checkpoint sizes")
    parser.add_argument("--queries", type=positive_int, default=None,
                        help="queries per measurement")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    experiments = list(args.experiments)
    if "all" in experiments:
        experiments = list(EXPERIMENTS)

    sweep_kwargs = {"seed": args.seed}
    if args.quick:
        sweep_kwargs["sizes"] = _QUICK_SIZES
        sweep_kwargs["n_queries"] = _QUICK_QUERIES
    if args.sizes is not None:
        sweep_kwargs["sizes"] = args.sizes
    if args.queries is not None:
        sweep_kwargs["n_queries"] = args.queries
    def _progress(message):
        print("... %s" % message, file=sys.stderr)

    sweep_kwargs["progress"] = _progress

    for experiment in experiments:
        print(_run(experiment, sweep_kwargs))
        print()
    return 0


def _run(experiment, sweep_kwargs):
    if experiment == "fig11a":
        return fig11.report_fig11a(**sweep_kwargs)
    if experiment == "fig11b":
        return fig11.report_fig11b(**sweep_kwargs)
    if experiment.startswith("fig12"):
        return fig12.report_fig12(experiment[-1], **sweep_kwargs)
    if experiment == "fig13":
        return fig13.report_fig13(**sweep_kwargs)
    if experiment == "verdict":
        return verdict.report_verdict(**sweep_kwargs)
    raise ValueError("unknown experiment %r" % experiment)


def _parse_sizes(text):
    sizes = tuple(positive_int(part) for part in text.split(",") if part)
    if not sizes:
        raise argparse.ArgumentTypeError("needs at least one size")
    return sizes


if __name__ == "__main__":
    sys.exit(main())
