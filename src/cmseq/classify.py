"""Sequence-class verdicts from precision structure and Schur complements.

The class lattice for zero-mean nonsingular Gaussian sequences is

    Markov  =>  reciprocal  =>  (CM_L and CM_F),

with reciprocity *equivalent* to the conjunction of the two conditional-Markov
properties.  Each class is decided by pattern detection on the precision,
which a law derives once from its Cholesky factor and caches.
Interval-restricted conditional-Markov properties reduce to pattern detection
on the marginal precision of the times inside the interval, a Schur
complement of the precision.  Every suffix marginal ``[k, N]`` is read off one
Cholesky factor of the precision, and every prefix marginal ``[0, k]`` off one
factor of the time-reversed precision: O(N^3 d^3) in all.  ``full_report``
detects the four whole-law patterns on the precision and reads the
witnesses of each marginal straight off the elimination steps of
:mod:`~cmseq.blocks`, both directions as one stack: one batched update, one
norm pass, one ratio grid and one band mask per step for its prefix and
suffix marginal, with no block matrix, pattern or detection per interval.
The two sweeps share one SPD check of the precision.  Each marginal is read
as soon as it is produced and then dropped, and the sweep checks the pivots
of both directions together when they end.  Reciprocity is always computed
through two independent routes (cyclic-tridiagonal pattern vs the conjunction
of CM_L and CM_F) whose agreement is part of the contract.  The two
interval-composition routes are read, by one rule, from the interval
witnesses the report lists.  ``classify_cm_interval`` and
``verify_composition`` are readings of that one sweep, not further
computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import ConditioningSide, IndexInterval, SequenceLaw, Tolerance, _member
from .patterns import PatternSpec, PatternWitness, _support_grid, _witness, detect

__all__ = [
    "UnsupportedIntervalError",
    "ReciprocalWitness",
    "IntervalClassEntry",
    "ClassificationReport",
    "classify_cmc",
    "classify_cm_interval",
    "classify_reciprocal",
    "classify_markov",
    "verify_composition",
    "full_report",
]


class UnsupportedIntervalError(ValueError):
    """Raised for intervals not anchored at a boundary of [0, N]."""


@dataclass(frozen=True)
class ReciprocalWitness:
    """Cyclic-pattern verdict plus the cross-route agreement bit.

    ``routes_agree`` records whether the cyclic-tridiagonal detection matched
    the independent CM_L-and-CM_F conjunction; disagreement signals a
    tolerance or implementation problem, not a property of the law.
    """

    conforms: bool
    worst_block: tuple[int, int] | None
    worst_ratio: float
    routes_agree: bool


@dataclass(frozen=True)
class IntervalClassEntry:
    interval: IndexInterval
    side: ConditioningSide
    witness: PatternWitness


@dataclass(frozen=True)
class ClassificationReport:
    """All class flags for one law, with numeric witnesses.

    ``consistency`` is true when the redundant routes agree everywhere:
    reciprocal == (cm_l and cm_f), and both interval-composition routes match
    the reciprocity verdict.
    """

    markov: PatternWitness
    reciprocal: ReciprocalWitness
    cm_l: PatternWitness
    cm_f: PatternWitness
    interval_cm: tuple[IntervalClassEntry, ...]
    consistency: bool


def _cm_pattern(side: ConditioningSide, n_last: int) -> PatternSpec:
    if _member(side, ConditioningSide) is ConditioningSide.LAST:
        return PatternSpec.cm_l(n_last)
    return PatternSpec.cm_f(n_last)


def classify_cmc(law: SequenceLaw, c: ConditioningSide, tol: Tolerance = Tolerance()) -> PatternWitness:
    """Is the law conditionally Markov over all of [0, N] given endpoint ``c``?

    Holds iff the precision matrix conforms to the corresponding pattern
    (full last block column for ``c=LAST``, full first block row for
    ``c=FIRST``, on top of the tridiagonal band).
    """
    return detect(law.precision(), _cm_pattern(c, law.n_last), tol)


def classify_cm_interval(
    law: SequenceLaw,
    interval: IndexInterval,
    c: ConditioningSide,
    tol: Tolerance = Tolerance(),
) -> PatternWitness:
    """Is the law conditionally Markov on a boundary-anchored interval?

    This classifier covers the intervals ``[0, k2]`` and ``[k1, N]`` with
    the interior endpoint in ``[1, N-1]``: those the elimination sweeps of
    :func:`full_report` reach.  Its witness is the report's entry for the
    interval and side, read off one run of those sweeps.  Other intervals
    raise :class:`UnsupportedIntervalError`; for an interval touching
    neither boundary, :func:`~cmseq.oracle.oracle_cm_interval` decides the
    property from the covariance.
    """
    _member(c, ConditioningSide)
    n_last = law.n_last
    if interval.hi > n_last:
        raise UnsupportedIntervalError(f"interval {interval} exceeds n_last={n_last}")
    if interval.lo == 0 and interval.hi == n_last:
        raise UnsupportedIntervalError(
            "interval covers all times; use the full-sequence classifiers"
        )
    if interval.lo != 0 and interval.hi != n_last:
        raise UnsupportedIntervalError(
            f"interval {interval} touches neither boundary; this classifier covers "
            "only [0,k2] and [k1,N] intervals, and oracle_cm_interval decides any interval"
        )
    entries = _interval_entries(law.precision(), tol)
    return {(e.interval, e.side): e.witness for e in entries}[interval, c]


def classify_markov(law: SequenceLaw, tol: Tolerance = Tolerance()) -> PatternWitness:
    """Is the law Markov?  Holds iff the precision is block tridiagonal."""
    return detect(law.precision(), PatternSpec.tridiagonal(law.n_last), tol)


def classify_reciprocal(law: SequenceLaw, tol: Tolerance = Tolerance()) -> ReciprocalWitness:
    """Is the law reciprocal?  Holds iff the precision is cyclic tridiagonal.

    The independent conjunction route (CM_L and CM_F) is always evaluated as
    well; ``routes_agree`` reports the comparison.
    """
    a = law.precision()
    n_last = law.n_last
    return _reciprocal_witness(
        detect(a, PatternSpec.cyclic_tridiagonal(n_last), tol),
        detect(a, PatternSpec.cm_l(n_last), tol),
        detect(a, PatternSpec.cm_f(n_last), tol),
    )


def _reciprocal_witness(
    cyc: PatternWitness, cm_l: PatternWitness, cm_f: PatternWitness
) -> ReciprocalWitness:
    via_cm = cm_l.conforms and cm_f.conforms
    return ReciprocalWitness(
        cyc.conforms, cyc.worst_block, cyc.worst_ratio, cyc.conforms == via_cm
    )


def _composition_agrees(
    reciprocal: bool,
    cm_l: PatternWitness,
    cm_f: PatternWitness,
    interval_cm: tuple[IntervalClassEntry, ...],
) -> bool:
    """Do both interval-composition routes match the reciprocity verdict?

    Route (i) is CM on every ``[k1, N]`` given the first endpoint, route (ii)
    CM on every ``[0, k2]`` given the last endpoint; each also needs CM_L and
    CM_F over the whole range.
    """
    cm_both = cm_l.conforms and cm_f.conforms
    route_i = cm_both and all(
        e.witness.conforms
        for e in interval_cm
        if e.interval.lo > 0 and e.side is ConditioningSide.FIRST
    )
    route_ii = cm_both and all(
        e.witness.conforms
        for e in interval_cm
        if e.interval.lo == 0 and e.side is ConditioningSide.LAST
    )
    return reciprocal == route_i == route_ii


def verify_composition(law: SequenceLaw, tol: Tolerance = Tolerance()) -> bool:
    """Cross-check reciprocity against both interval-composition routes.

    Returns true iff the cyclic-pattern verdict, the "CM on every [k1, N]
    from the first endpoint plus CM_F plus CM_L" route, and the mirrored
    "[0, k2] from the last endpoint" route all agree.  It reads the routes
    off :func:`full_report`, so it costs one report.
    """
    report = full_report(law, tol)
    return _composition_agrees(
        report.reciprocal.conforms, report.cm_l, report.cm_f, report.interval_cm
    )


def full_report(law: SequenceLaw, tol: Tolerance = Tolerance()) -> ClassificationReport:
    """Evaluate every class flag, interval flags, and the consistency bit.

    The interval entries list the prefixes ``[0, 1] .. [0, N-1]``, then the
    suffixes ``[1, N] .. [N-1, N]``, each given the first endpoint and then
    the last.  Both interval-composition routes are read from them.
    """
    n_last = law.n_last
    a = law.precision()
    markov = detect(a, PatternSpec.tridiagonal(n_last), tol)
    cm_l = detect(a, PatternSpec.cm_l(n_last), tol)
    cm_f = detect(a, PatternSpec.cm_f(n_last), tol)
    reciprocal = _reciprocal_witness(
        detect(a, PatternSpec.cyclic_tridiagonal(n_last), tol), cm_l, cm_f
    )
    entries = _interval_entries(a, tol)
    return ClassificationReport(
        markov=markov,
        reciprocal=reciprocal,
        cm_l=cm_l,
        cm_f=cm_f,
        interval_cm=entries,
        consistency=reciprocal.routes_agree
        and _composition_agrees(reciprocal.conforms, cm_l, cm_f, entries),
    )


def _interval_entries(a, tol):
    """The entries of every boundary-anchored interval of ``a``, in report
    order: the prefixes ``[0, 1] .. [0, N-1]``, then the suffixes ``[1, N]
    .. [N-1, N]``, each given the first endpoint and then the last.

    Step ``k`` of :func:`~cmseq.blocks._marginal_sweep` makes the marginals
    of ``[0, N-k]`` and ``[k, N]`` together, and they get one norm pass,
    one ratio grid and one band mask.  Each marginal's two witnesses come
    from its grid, CM_F's without its first block row and column and CM_L's
    without its last.  The grid is symmetric, so its first row-major
    maximum is an upper entry, which dropping a leading or trailing row and
    column keeps first: each witness is the one
    :func:`~cmseq.patterns.detect` gives on the marginal itself.  The band
    reads the same in either time direction, so the reversed marginal's
    grid is masked first and then flipped back as a view.
    """
    d, n_last = a.block_dim, a.n_blocks - 1
    if n_last < 2:
        return ()
    steps = n_last - 1
    band = _support_grid(PatternSpec.tridiagonal(n_last))
    entries = [None] * (4 * steps)
    for k, kept in enumerate(blocks._marginal_sweep(a), 1):
        size = n_last + 1 - k
        ratios = blocks._ratios(blocks._block_norms(kept, d))
        np.copyto(ratios, 0.0, where=band[:size, :size])
        prefix, suffix = 2 * (steps - k), 2 * (steps + k - 1)
        entries[prefix : prefix + 2] = _side_entries(
            IndexInterval(0, n_last - k), ratios[0, ::-1, ::-1], tol
        )
        entries[suffix : suffix + 2] = _side_entries(IndexInterval(k, n_last), ratios[1], tol)
    return tuple(entries)


def _side_entries(interval, ratios, tol):
    """The entries of ``interval`` given its first endpoint and then its
    last, from its band-masked ratio grid."""
    return (
        IntervalClassEntry(interval, ConditioningSide.FIRST, _witness(ratios[1:, 1:], tol, 1)),
        IntervalClassEntry(interval, ConditioningSide.LAST, _witness(ratios[:-1, :-1], tol)),
    )
