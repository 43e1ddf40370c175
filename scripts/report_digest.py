#!/usr/bin/env python3
"""Print one sha256 over every field of ``full_report`` on a fixed corpus,
and one over every ``classify_cm_interval`` witness of its smaller laws.

Run from the repository root:

    PYTHONPATH=src python3 scripts/report_digest.py

The corpus is ``random_law`` of every class, N in {3, 4, 5, 6, 10, 20, 40},
d in {1, 2, 3, 4} and seeds 0-3.  Each report feeds its ``repr`` and the
``float.hex()`` of every ``worst_ratio`` in it to the first hash.  For each
law with N <= 10, ``classify_cm_interval`` of every boundary-anchored
interval and side, in report order, feeds its witness's ``repr`` and
``worst_ratio.hex()`` to the second hash.  Two trees that print the same
digests give the same witnesses bit for bit.  Run it on both sides of a
change that claims to keep them.
"""

import hashlib
from itertools import product

from cmseq import (
    ConditioningSide,
    IndexInterval,
    LawClass,
    classify_cm_interval,
    full_report,
    random_law,
)

NS = (3, 4, 5, 6, 10, 20, 40)
DIMS = (1, 2, 3, 4)
SEEDS = range(4)
INTERVAL_N_MAX = 10


def witnesses(report):
    """Every witness of a report: the four whole-law ones, then the intervals'."""
    yield from (report.markov, report.reciprocal, report.cm_l, report.cm_f)
    yield from (entry.witness for entry in report.interval_cm)


def boundary_intervals(n_last):
    """Every ``(interval, side)`` of ``classify_cm_interval``, in report order."""
    prefixes = [IndexInterval(0, k) for k in range(1, n_last)]
    suffixes = [IndexInterval(k, n_last) for k in range(1, n_last)]
    return product(prefixes + suffixes, ConditioningSide)


def main():
    reports, intervals = hashlib.sha256(), hashlib.sha256()
    count = interval_count = 0
    for law_class, n, d, seed in product(LawClass, NS, DIMS, SEEDS):
        law = random_law(law_class, n, d, seed)
        report = full_report(law)
        reports.update(repr(report).encode())
        for witness in witnesses(report):
            reports.update(witness.worst_ratio.hex().encode())
        count += 1
        if n <= INTERVAL_N_MAX:
            for interval, side in boundary_intervals(n):
                witness = classify_cm_interval(law, interval, side)
                intervals.update(repr(witness).encode())
                intervals.update(witness.worst_ratio.hex().encode())
                interval_count += 1
    print(f"{reports.hexdigest()}  {count} reports")
    print(f"{intervals.hexdigest()}  {interval_count} classify_cm_interval witnesses")


if __name__ == "__main__":
    main()
