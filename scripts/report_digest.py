#!/usr/bin/env python3
"""Print one sha256 over every field of ``full_report`` on a fixed corpus.

Run from the repository root:

    PYTHONPATH=src python3 scripts/report_digest.py

The corpus is ``random_law`` of every class, N in {3, 4, 5, 6, 10, 20, 40},
d in {1, 2, 3, 4} and seeds 0-3.  Each report feeds its ``repr`` and the
``float.hex()`` of every ``worst_ratio`` in it to the hash, so two trees
that print the same digest give the same reports bit for bit.  Run it on
both sides of a change that claims to keep them.
"""

import hashlib
from itertools import product

from cmseq import LawClass, full_report, random_law

NS = (3, 4, 5, 6, 10, 20, 40)
DIMS = (1, 2, 3, 4)
SEEDS = range(4)


def witnesses(report):
    """Every witness of a report: the four whole-law ones, then the intervals'."""
    yield from (report.markov, report.reciprocal, report.cm_l, report.cm_f)
    yield from (entry.witness for entry in report.interval_cm)


def main():
    digest = hashlib.sha256()
    count = 0
    for law_class, n, d, seed in product(LawClass, NS, DIMS, SEEDS):
        report = full_report(random_law(law_class, n, d, seed))
        digest.update(repr(report).encode())
        for witness in witnesses(report):
            digest.update(witness.worst_ratio.hex().encode())
        count += 1
    print(f"{digest.hexdigest()}  {count} reports")


if __name__ == "__main__":
    main()
