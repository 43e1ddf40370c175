"""Sequence-class verdicts from precision structure and Schur complements.

The class lattice for zero-mean nonsingular Gaussian sequences is

    Markov  =>  reciprocal  =>  (CM_L and CM_F),

with reciprocity *equivalent* to the conjunction of the two
conditional-Markov properties.  Each class is a zero-block pattern of the
precision, which a law keeps if given it and else derives once and caches; CM
on an interval is the same pattern on the interval's marginal precision, a
Schur complement.  Each matrix gets one ratio grid
(:func:`~cmseq.blocks._ratio_grid`) with the tridiagonal band masked out, and
every witness is read off it by one rule: CM_F without its first block row
and column, CM_L without its last, Markov on the whole grid, and the cyclic
pattern with its corners zeroed.  Every suffix marginal ``[k, N]`` is read
off one Cholesky factor of the precision, and every prefix marginal
``[0, k]`` off one factor of the time-reversed precision: O(N^3 d^3) in all.
``full_report`` reads the marginals straight off the elimination steps of
:mod:`~cmseq.blocks`, both directions as one stack: one batched update per
step for its prefix and suffix marginal, and one norm pass, one ratio grid
and one band mask per chunk of consecutive steps, with no block matrix,
pattern or detection per interval.
The precision and its time reversal are factorized, and every pivot of both
checked, as one stack before the first step, so the sweep accepts a law
exactly when it accepts the law's time reversal.  Each chunk is read as soon
as it is produced and then dropped.  Reciprocity is always computed
through two independent routes (cyclic-tridiagonal pattern vs the conjunction
of CM_L and CM_F) whose agreement is part of the contract.  The two
interval-composition routes are read, by one rule, from the interval
witnesses the report lists.  ``classify_cm_interval`` and
``verify_composition`` are readings of that one sweep, not further
computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import blocks
from .blocks import ConditioningSide, IndexInterval, SequenceLaw, Tolerance, _member
from .patterns import PatternSpec, PatternWitness, _support_grid, _witness

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

    def __post_init__(self):
        _member(self.side, ConditioningSide)


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


def classify_cmc(law: SequenceLaw, c: ConditioningSide, tol: Tolerance = Tolerance()) -> PatternWitness:
    """Is the law conditionally Markov over all of [0, N] given endpoint ``c``?

    Holds iff the precision matrix conforms to the corresponding pattern
    (full last block column for ``c=LAST``, full first block row for
    ``c=FIRST``, on top of the tridiagonal band).
    """
    side = _member(c, ConditioningSide)
    cm_l, cm_f = _law_witnesses(law.precision(), tol)[2:]
    return cm_l if side is ConditioningSide.LAST else cm_f


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
    return _law_witnesses(law.precision(), tol)[0]


def classify_reciprocal(law: SequenceLaw, tol: Tolerance = Tolerance()) -> ReciprocalWitness:
    """Is the law reciprocal?  Holds iff the precision is cyclic tridiagonal.

    The independent conjunction route (CM_L and CM_F) is always evaluated as
    well; ``routes_agree`` reports the comparison.
    """
    return _law_witnesses(law.precision(), tol)[1]


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
    a = law.precision()
    markov, reciprocal, cm_l, cm_f = _law_witnesses(a, tol)
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


def _law_witnesses(a, tol):
    """The Markov, reciprocal, CM_L and CM_F witnesses of the precision
    ``a``, off one band-masked ratio grid, the cyclic one with the grid's
    corners zeroed (in place: neither CM slice holds a corner).  The grid
    is symmetric, so its first row-major maximum is an upper entry, which
    dropping a leading or trailing row and column, or zeroing the corners,
    keeps first: each is the witness :func:`~cmseq.patterns.detect` gives."""
    ratios = blocks._ratio_grid(a)
    np.copyto(ratios, 0.0, where=_support_grid(PatternSpec.tridiagonal(a.n_blocks - 1)))
    markov = _witness(ratios, tol)
    cm_f, cm_l = _cm_witnesses(ratios, tol)
    ratios[0, -1] = ratios[-1, 0] = 0.0
    cyc = _witness(ratios, tol)
    routes_agree = cyc.conforms == (cm_l.conforms and cm_f.conforms)
    reciprocal = ReciprocalWitness(cyc.conforms, cyc.worst_block, cyc.worst_ratio, routes_agree)
    return markov, reciprocal, cm_l, cm_f


def _cm_witnesses(ratios, tol):
    """The CM_F and CM_L witnesses of a band-masked ratio grid: off the grid
    without its first block row and column, and without its last."""
    return _witness(ratios[1:, 1:], tol, 1), _witness(ratios[:-1, :-1], tol)


def _interval_entries(a, tol):
    """The entries of every boundary-anchored interval of ``a``, in report
    order: the prefixes ``[0, 1] .. [0, N-1]``, then the suffixes ``[1, N]
    .. [N-1, N]``, each given the first endpoint and then the last.

    Step ``k`` of :func:`~cmseq.blocks._marginal_sweep` makes the marginals
    of ``[0, N-k]``, time-reversed, and ``[k, N]``, and each chunk of steps
    gets one norm pass, one ratio grid and one band mask: the band reads
    the same in either time direction.  Slot ``b`` of a chunk holds its
    step's pair top left, so each marginal's grid is the slot's live
    region, a view, and a prefix's is flipped back to time order.  Its two
    witnesses are read off that view by :func:`_cm_witnesses`, the rule of
    the whole law, so each is the one :func:`~cmseq.patterns.detect` gives
    on the marginal itself.  The sweep makes the prefixes longest first.
    The records are built after the sweep, each witness paired with its
    interval from :func:`_anchored_intervals`.
    """
    n_last = a.n_blocks - 1
    if n_last < 2:
        return ()
    d = a.block_dim
    band = _support_grid(PatternSpec.tridiagonal(n_last))
    prefixes, suffixes = [], []
    for chunk in blocks._marginal_sweep(a):
        size = chunk.shape[-1] // d
        ratios = blocks._ratio_grid(chunk, d)
        np.copyto(ratios, 0.0, where=band[:size, :size])
        for b in range(chunk.shape[1]):
            live = size - b  # the blocks of slot b's two marginals
            prefix, suffix = ratios[:, b, :live, :live]
            prefixes.append(_cm_witnesses(prefix[::-1, ::-1], tol))
            suffixes.append(_cm_witnesses(suffix, tol))
    sides = (ConditioningSide.FIRST, ConditioningSide.LAST)
    return tuple(
        IntervalClassEntry(interval, side, witness)
        for interval, pair in zip(_anchored_intervals(n_last), [*prefixes[::-1], *suffixes])
        for side, witness in zip(sides, pair)
    )


@lru_cache(maxsize=1024)
def _anchored_intervals(n_last):
    """The boundary-anchored intervals of times ``0..n_last`` in report
    order, ``[0, 1] .. [0, N-1]`` then ``[1, N] .. [N-1, N]``; at most 1024
    sizes are cached."""
    return (
        *(IndexInterval(0, hi) for hi in range(1, n_last)),
        *(IndexInterval(lo, n_last) for lo in range(1, n_last)),
    )
