#!/usr/bin/env python3
"""Print raw median in-process times of ``full_report`` per law size, and
of a model round trip per model shape.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_reports.py

Two groups of laws, made as the benchmark (``bench/workloads.py``) makes
them for seed 1.  ``large-laws``: every class at each of its (N, d) sizes,
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

from cmseq import classify, models, patterns  # noqa: E402
from workloads import MODEL_SHAPES, TOL, LargeLaws, SmallCorpus, interval_problems  # noqa: E402

SEED = 1
LARGE_PASSES = 40
SMALL_PASSES = 100
ROUND_TRIP_PASSES = 20


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
