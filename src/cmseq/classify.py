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
factor of the time-reversed precision
(:func:`~cmseq.blocks.marginal_precisions`): O(N^3 d^3) in all.
``full_report``, ``verify_composition`` and ``classify_cm_interval`` all read
their marginals from these sweeps, so they share one SPD check.  Each marginal
is checked as soon as it is produced and then dropped.  Reciprocity is always
computed through two independent routes (cyclic-tridiagonal pattern vs the
conjunction of CM_L and CM_F) whose agreement is part of the contract, and the
two interval-composition routes are read from the same interval witnesses the
report lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import (
    BlockMatrix,
    ConditioningSide,
    IndexInterval,
    Keep,
    SequenceLaw,
    Tolerance,
    marginal_precisions,
)
from .patterns import PatternSpec, PatternWitness, detect

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
    if side is ConditioningSide.LAST:
        return PatternSpec.cm_l(n_last)
    return PatternSpec.cm_f(n_last)


def classify_cmc(law: SequenceLaw, c: ConditioningSide, tol: Tolerance = Tolerance()) -> PatternWitness:
    """Is the law conditionally Markov over all of [0, N] given endpoint ``c``?

    Holds iff the precision matrix conforms to the corresponding pattern
    (full last block column for ``c=LAST``, full first block row for
    ``c=FIRST``, on top of the tridiagonal band).
    """
    return detect(law.precision(), _cm_pattern(c, law.n_last), tol)


def _interval_precision(a: BlockMatrix, interval: IndexInterval) -> BlockMatrix:
    """Marginal precision of the times in a boundary-anchored interval."""
    n_last = a.n_blocks - 1
    if interval.hi > n_last:
        raise UnsupportedIntervalError(
            f"interval {interval} exceeds n_last={n_last}"
        )
    if interval.lo == 0 and interval.hi == n_last:
        raise UnsupportedIntervalError(
            "interval covers all times; use the full-sequence classifiers"
        )
    if interval.lo == 0:
        keep = Keep.LEADING
    elif interval.hi == n_last:
        keep = Keep.TRAILING
    else:
        raise UnsupportedIntervalError(
            f"interval {interval} touches neither boundary; only [0,k2] and [k1,N] "
            "intervals have a marginal-precision characterization"
        )
    return next(delta for iv, delta in marginal_precisions(a, keep) if iv == interval)


def classify_cm_interval(
    law: SequenceLaw,
    interval: IndexInterval,
    c: ConditioningSide,
    tol: Tolerance = Tolerance(),
) -> PatternWitness:
    """Is the law conditionally Markov on a boundary-anchored interval?

    Supported intervals are ``[0, k2]`` and ``[k1, N]`` with the interior
    endpoint in ``[1, N-1]``; the marginal precision of the interval is read
    off the elimination sweep toward it, and the verdict is its pattern
    detection.  Other intervals raise
    :class:`UnsupportedIntervalError`.
    """
    delta = _interval_precision(law.precision(), interval)
    return detect(delta, _cm_pattern(c, interval.hi - interval.lo), tol)


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


def _boundary_intervals(n_last: int):
    """All boundary-anchored intervals with an interior endpoint."""
    prefixes = [IndexInterval(0, k2) for k2 in range(1, n_last)]
    suffixes = [IndexInterval(k1, n_last) for k1 in range(1, n_last)]
    return prefixes, suffixes


def _interval_witness(
    delta: BlockMatrix, interval: IndexInterval, side: ConditioningSide, tol: Tolerance
) -> PatternWitness:
    return detect(delta, _cm_pattern(side, interval.hi - interval.lo), tol)


def verify_composition(law: SequenceLaw, tol: Tolerance = Tolerance()) -> bool:
    """Cross-check reciprocity against both interval-composition routes.

    Returns true iff the cyclic-pattern verdict, the "CM on every [k1, N]
    from the first endpoint plus CM_F plus CM_L" route, and the mirrored
    "[0, k2] from the last endpoint" route all agree.  Each route stops its
    sweep at the first interval that fails.
    """
    a = law.precision()
    n_last = law.n_last
    recip = detect(a, PatternSpec.cyclic_tridiagonal(n_last), tol).conforms
    cm_both = (
        detect(a, PatternSpec.cm_l(n_last), tol).conforms
        and detect(a, PatternSpec.cm_f(n_last), tol).conforms
    )
    route_first = cm_both and all(
        _interval_witness(delta, iv, ConditioningSide.FIRST, tol).conforms
        for iv, delta in marginal_precisions(a, Keep.TRAILING)
    )
    route_last = cm_both and all(
        _interval_witness(delta, iv, ConditioningSide.LAST, tol).conforms
        for iv, delta in marginal_precisions(a, Keep.LEADING)
    )
    return recip == route_first and recip == route_last


def full_report(law: SequenceLaw, tol: Tolerance = Tolerance()) -> ClassificationReport:
    """Evaluate every class flag, interval flags, and the consistency bit.

    Route (i) of the interval composition is CM on every [k1, N] given the
    first endpoint, together with CM_F and CM_L over the whole range; route
    (ii) is its time mirror on every [0, k2] given the last endpoint.  Both
    are read from the interval entries of the report.
    """
    n_last = law.n_last
    a = law.precision()
    markov = detect(a, PatternSpec.tridiagonal(n_last), tol)
    cm_l = detect(a, PatternSpec.cm_l(n_last), tol)
    cm_f = detect(a, PatternSpec.cm_f(n_last), tol)
    reciprocal = _reciprocal_witness(
        detect(a, PatternSpec.cyclic_tridiagonal(n_last), tol), cm_l, cm_f
    )
    sides = (ConditioningSide.FIRST, ConditioningSide.LAST)
    witnesses = {}
    for keep in (Keep.LEADING, Keep.TRAILING):
        for iv, delta in marginal_precisions(a, keep):
            for side in sides:
                witnesses[iv, side] = _interval_witness(delta, iv, side, tol)
    prefixes, suffixes = _boundary_intervals(n_last)
    entries = tuple(
        IntervalClassEntry(iv, side, witnesses[iv, side])
        for iv in prefixes + suffixes
        for side in sides
    )
    cm_both = cm_l.conforms and cm_f.conforms
    route_first = cm_both and all(
        witnesses[iv, ConditioningSide.FIRST].conforms for iv in suffixes
    )
    route_last = cm_both and all(
        witnesses[iv, ConditioningSide.LAST].conforms for iv in prefixes
    )
    consistency = (
        reciprocal.routes_agree
        and reciprocal.conforms == route_first
        and reciprocal.conforms == route_last
    )
    return ClassificationReport(
        markov=markov,
        reciprocal=reciprocal,
        cm_l=cm_l,
        cm_f=cm_f,
        interval_cm=entries,
        consistency=consistency,
    )
