"""Self-test of the benchmark on tiny rounds of every workload.

Run from the repository root::

    python3 perfbench/selftest.py

Checks, per workload, that every metric named in BENCHMARK.json is
emitted with its unit, that round 0 repeats bit for bit, that the
traced layers reconcile with the traced wall time, and that a
deliberately wrong oracle answer is counted as a failure.  Exits 1 and
lists the problems when any check fails.
"""

import json
import os
import shutil
import sys

import run
import workloads

#: Largest share of the traced calls' wall time allowed outside every
#: root span (client bookkeeping between the timer and the root wrapper).
RESIDUAL = 0.02
SEED = 7


def _units(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench[section]}


def _emitted(metrics, expected, label, problems):
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != expected:
        problems.append("%s: emitted %r, BENCHMARK.json names %r"
                        % (label, sorted(set(got) ^ set(expected)),
                           sorted(expected)))


def _skew(expected):
    """A wrong oracle answer: every value moved by one."""
    if isinstance(expected, dict):
        return {key: _skew(value) for key, value in expected.items()}
    return 1.0 if expected is None else expected + 1.0


def check(name, spec, workdir, problems):
    label = "%s/tiny" % name
    first = workloads.run_round(spec, SEED, 0, workdir, "tiny")
    metrics, _notes = run.end_to_end([first])
    _emitted(metrics, _units("end_to_end"), label + " end_to_end", problems)
    if first.failed:
        problems.append("%s: %d failures: %s"
                        % (label, first.failed, first.errors))
    again = workloads.run_round(spec, SEED, 0, workdir, "tiny")
    if again.exact() != first.exact():
        problems.append("%s: round 0 does not repeat" % label)

    (traced, obs, plain), tracer, failures = run.traced_rounds(
        spec, SEED, workdir, "tiny")
    problems.extend("%s: %s" % (label, failure) for failure in failures)
    layers = run.per_layer(plain, traced, obs, tracer)
    _emitted(layers, _units("per_layer"), label + " per_layer", problems)
    roots = sum(end - start for _id, _name, start, end, parent, _op
                in tracer.spans if parent is None)
    if abs(roots - tracer.total_self_s()) > 1e-6 * max(1.0, roots):
        problems.append("%s: self times sum to %.6f s, root spans to %.6f s"
                        % (label, tracer.total_self_s(), roots))
    residual = layers["trace.residual_share"][0]
    if not 0.0 <= residual <= RESIDUAL:
        problems.append("%s: trace residual %.4f outside [0, %.2f]"
                        % (label, residual, RESIDUAL))

    original = workloads._same_answer
    workloads._same_answer = lambda got, expected: original(
        got, _skew(expected))
    try:
        wrong = workloads.run_round(spec, SEED, 0, workdir, "tiny")
    finally:
        workloads._same_answer = original
    if wrong.failed == 0:
        problems.append("%s: a wrong oracle answer went unnoticed" % label)


def main():
    workdir = os.path.join(run.OUT, "selftest-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        for name, spec in sorted(workloads.WORKLOADS.items()):
            check(name, spec, workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("PROBLEM: %s" % problem)
    print("selftest %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
