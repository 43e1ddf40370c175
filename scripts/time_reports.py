#!/usr/bin/env python3
"""Print raw median in-process times of the ``small-corpus`` oracle
cross-check per law size and of a model build per model shape, each a
process's first call apart from later ones; then of ``full_report`` per
law size, and of a model round trip per model shape.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_reports.py

First, before anything else runs, on the ``small-corpus`` laws: one line
per (N, d) for the workload's oracle cross-check of a law (its Markov,
reciprocal, CM_L and CM_F sweeps and one CM sweep per interval entry of
the law's report), and one line per model shape for its build alone.  The
oracle sweeps and the builds keep a plan per shape, so a process's first
call of a shape makes it and later calls reuse it; a line gives the first
call's time, that of a one-shot command, apart from the median of the
later ones.  An oracle line's first call is the process's first
cross-check of a law of that size; a build line's first calls are the
first build of each size, and their median is given.  The benchmark's
per-layer metrics do not see the oracle.

Then two groups of laws, made as the benchmark (``bench/workloads.py``)
makes them for seed 1.  ``large-laws``: every class at each of its (N, d) sizes,
each report followed by the benchmark's own ``interval_problems`` check,
as its ``large-laws`` workload runs them.  ``small-corpus``: every class
at N 3-6 and d 1-2, the workload's five laws per class and size.  Each
group is timed over repeated passes, each report alone, after one untimed
warm-up pass; a line gives one (N, d): the median report time over every
class and pass, in microseconds, and the number of reports it is taken
over.  Then, on the ``small-corpus`` laws, one line per model shape of
that workload: the median time of its round trip as the workload times
it (build, both parameter checks, assembly, model covariance and two
pattern detections on the assembled precision), over every law and pass.
The benchmark's end-to-end numbers are corrected for the host's speed and
pool every size; these are neither, so compare two trees by running this
script on each, alternating, on the same host.
"""

import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from cmseq import ConditioningSide, IndexInterval, classify, models, oracle, patterns  # noqa: E402
from workloads import MODEL_SHAPES, TOL, LargeLaws, SmallCorpus, interval_problems  # noqa: E402

SEED = 1
FIRST_CALL_PASSES = 10
LARGE_PASSES = 40
SMALL_PASSES = 100
ROUND_TRIP_PASSES = 20


def oracle_crosscheck(law, report):
    """The ``small-corpus`` workload's oracle cross-check of one law."""
    full = IndexInterval(0, law.n_last)
    oracle.oracle_markov(law, TOL)
    oracle.oracle_reciprocal(law, TOL)
    oracle.oracle_cm_interval(law, full, ConditioningSide.LAST, tol=TOL)
    oracle.oracle_cm_interval(law, full, ConditioningSide.FIRST, tol=TOL)
    for e in report.interval_cm:
        oracle.oracle_cm_interval(law, e.interval, e.side, tol=TOL)


def build(law, direction, c, bc):
    """One model build of the ``small-corpus`` workload."""
    (models.build_forward if direction == "forward" else models.build_backward)(law, c, bc)


def first_and_later(laws, passes):
    """Microseconds of each oracle cross-check per (N, d) and of each build
    per (shape, (N, d)), over ``passes`` passes of ``laws``, in call order;
    a process's first calls are the first of each list."""
    reports = [classify.full_report(law, TOL) for law in laws]
    crosschecks, builds = defaultdict(list), defaultdict(list)
    for _ in range(passes):
        for law, report in zip(laws, reports):
            size = law.n_last, law.dim
            start = perf_counter()
            oracle_crosscheck(law, report)
            crosschecks[size].append((perf_counter() - start) * 1e6)
            for shape in MODEL_SHAPES:
                start = perf_counter()
                build(law, *shape)
                builds[shape, size].append((perf_counter() - start) * 1e6)
    return crosschecks, builds


def timed_reports(laws, passes, check):
    """Median microseconds of ``full_report`` per (N, d) over ``passes``
    passes of ``laws``, after one untimed one; ``check(report, law)``
    runs after each report, outside the timed region."""
    times = defaultdict(list)
    for index in range(passes + 1):
        for law in laws:
            start = perf_counter()
            report = classify.full_report(law, TOL)
            elapsed = perf_counter() - start
            check(report, law)
            if index:
                times[law.n_last, law.dim].append(elapsed * 1e6)
    return {size: (statistics.median(ts), len(ts)) for size, ts in times.items()}


def round_trip(law, direction, c, bc):
    """One model round trip of the ``small-corpus`` workload."""
    build = models.build_forward if direction == "forward" else models.build_backward
    model = build(law, c, bc)
    models.check_reciprocity_forward(model, TOL)
    models.check_markov_forward(model, TOL)
    assembled = models.assemble_precision(model)
    models.model_covariance(model)
    n = model.n_last
    patterns.detect(assembled, patterns.PatternSpec.cyclic_tridiagonal(n), TOL)
    patterns.detect(assembled, patterns.PatternSpec.tridiagonal(n), TOL)


def timed_round_trips(laws, passes):
    """Median microseconds of a round trip per model shape over ``passes``
    passes of ``laws``, after one untimed one."""
    times = defaultdict(list)
    for index in range(passes + 1):
        for law in laws:
            for shape in MODEL_SHAPES:
                start = perf_counter()
                round_trip(law, *shape)
                if index:
                    times[shape].append((perf_counter() - start) * 1e6)
    return {shape: (statistics.median(ts), len(ts)) for shape, ts in times.items()}


def main():
    large = LargeLaws(SEED)
    large.setup()
    small = SmallCorpus(SEED)
    small.setup()
    small_laws = [law for laws in small.passes for _, law in laws]
    crosschecks, builds = first_and_later(small_laws, FIRST_CALL_PASSES)
    for (n, d), ts in sorted(crosschecks.items(), key=lambda item: (item[0][1], item[0][0])):
        later = statistics.median(ts[1:])
        print(f"oracle        N={n:<3} d={d}  first {ts[0]:9.1f} us  later {later:9.1f} us  ({len(ts) - 1} later)")
    for shape in MODEL_SHAPES:
        lists = [ts for (s, _), ts in builds.items() if s == shape]
        first = statistics.median(ts[0] for ts in lists)
        later = [t for ts in lists for t in ts[1:]]
        name = f"{shape[0]} c={shape[1].value} {shape[2].value}"
        print(
            f"build         {name:22}  first {first:9.1f} us  later {statistics.median(later):9.1f} us"
            f"  ({len(lists)} sizes, {len(later)} later)"
        )
    groups = [
        ("large-laws", [law for _, law in large.laws], LARGE_PASSES, interval_problems),
        ("small-corpus", small_laws, SMALL_PASSES, lambda r, l: None),
    ]
    for name, laws, passes, check in groups:
        medians = timed_reports(laws, passes, check)
        for (n, d), (median, count) in sorted(medians.items(), key=lambda item: (item[0][1], item[0][0])):
            print(f"{name:12}  N={n:<3} d={d}  {median:9.1f} us  ({count} reports)")
    round_trips = timed_round_trips(small_laws, ROUND_TRIP_PASSES)
    for (direction, c, bc), (median, count) in round_trips.items():
        shape = f"{direction} c={c.value} {bc.value}"
        print(f"round trip    {shape:22}  {median:9.1f} us  ({count} round trips)")


if __name__ == "__main__":
    main()
