"""Brute-force conditional-independence oracle for Gaussian sequence laws.

For zero-mean Gaussians, every Markov-type property reduces to statements of
the form "x_a and x_b are independent given x_s", which hold exactly when the
partial covariance ``Cov(x_a, x_b | x_s) = C_ab - C_as C_ss^-1 C_sb``
vanishes.  The sweeps below enumerate all such statements implied by the
Markov / reciprocal / conditionally-Markov definitions and report the worst
residual, giving definition-level ground truth that is completely independent
of any precision-matrix pattern reasoning.  Every statement is evaluated
by :func:`~cmseq.blocks._condition`, the package's one Gaussian-conditioning
routine, which the models' regressions share: statements of one shape are
one stack, each with the bits it would get alone.

A sweep's statements depend only on its shape, not on the law: the Markov
and reciprocal sweeps' on N, the CM sweep's on the interval, its
conditioning time and its direction.  So each sweep's query table, a tuple
of :class:`CiQuery` records with the triples the conditioning routine
takes, is built and checked once per shape and kept, as the routine keeps
its plan per triples, ``d`` and size; a sweep of a law of a shape seen
before runs only its gathers, LAPACK calls and norms.

Sweeps are exact enumerations, never subsampled; they refuse inputs larger
than ``(N+1) * d > 16`` scalars rather than approximate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import (
    BlockMatrix,
    ConditioningSide,
    IndexInterval,
    SequenceLaw,
    Tolerance,
    _condition,
    _frobenius_norms,
)

__all__ = [
    "OracleSizeError",
    "CiQuery",
    "OracleVerdict",
    "partial_covariance",
    "oracle_cm_interval",
    "oracle_reciprocal",
    "oracle_markov",
]

_MAX_SCALARS = 16
# query tables kept per sweep kind: N is at most 15 under the size cap, and
# the intervals, conditioning times and directions of N <= 15 number 480
_TABLES = 512


class OracleSizeError(ValueError):
    """Raised when a law is too large for exhaustive enumeration."""


def _index(t):
    """``t`` as an int; a TypeError names a time index that is not one."""
    try:
        return operator.index(t)
    except TypeError:
        raise TypeError(f"time index {t!r} is not an integer") from None


@dataclass(frozen=True)
class CiQuery:
    """One conditional-independence statement: x_target vs x_dropped given x_retained.

    Its times are non-negative integers, each at most once over the three
    fields.  They are kept as Python ints, the two sets as tuples in their
    given order, so a query hashes and serializes whatever it was given.
    """

    target: int
    retained: tuple[int, ...]
    dropped: tuple[int, ...]

    def __post_init__(self):
        target = _index(self.target)
        retained, dropped = (tuple(map(_index, ts)) for ts in (self.retained, self.dropped))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "retained", retained)
        object.__setattr__(self, "dropped", dropped)
        times = [target, *retained, *dropped]
        if min(times) < 0:
            raise ValueError(f"query time indices must be non-negative: {self}")
        if len(set(times)) < len(times):
            raise ValueError(f"query index sets must be disjoint, without repeats: {self}")


@dataclass(frozen=True)
class OracleVerdict:
    """Sweep outcome: verdict plus the largest normalized residual and its query."""

    holds: bool
    worst_ratio: float
    worst_query: CiQuery | None


def partial_covariance(cov: BlockMatrix, a, b, s):
    """Conditional cross-covariance ``Cov(x_a, x_b | x_s)`` under a Gaussian law.

    Parameters
    ----------
    cov : BlockMatrix
        Covariance of the stacked sequence, block dimension d.
    a, b, s : iterable of int
        Pairwise disjoint sets of time indices.  ``s`` may be empty, in which
        case the plain cross-covariance block is returned.

    Returns
    -------
    ndarray
        ``|a|d x |b|d`` matrix; exactly zero iff x_a and x_b are independent
        given x_s.
    """
    a, b, s = (tuple(sorted({_index(t) for t in times})) for times in (a, b, s))
    if (set(a) & set(b)) or (set(a) & set(s)) or (set(b) & set(s)):
        raise ValueError("index sets a, b, s must be pairwise disjoint")
    n = cov.n_blocks
    for t in a + b + s:
        if not 0 <= t < n:
            raise IndexError(f"time index {t} out of range [0, {n - 1}]")
    [(_, _, partial)] = _condition(cov, [(a, b, s)])
    return partial[0]


def _check_size(law: SequenceLaw):
    scalars = (law.n_last + 1) * law.dim
    if scalars > _MAX_SCALARS:
        raise OracleSizeError(
            f"exhaustive sweep refused: (N+1)*d = {scalars} exceeds {_MAX_SCALARS}"
        )


def _triples(queries):
    """The ``(a, b, s)`` triple of each query, ``(target, dropped,
    retained)`` with both sets sorted: the form the sweep conditions on."""
    return tuple(
        ((q.target,), tuple(sorted(q.dropped)), tuple(sorted(q.retained))) for q in queries
    )


class _QueryTable(tuple):
    """A sweep's queries, built and checked once, and their
    :func:`_triples`."""

    def __new__(cls, queries):
        table = super().__new__(cls, queries)
        table.triples = _triples(table)
        return table


def _sweep(cov: BlockMatrix, queries, residual_tol):
    """Evaluate queries, normalizing residuals by the largest block norm of C.

    ``queries`` is any sequence of :class:`CiQuery`; a kept query table
    brings its triples along.  The worst query is the first with the
    largest ratio.  A covariance whose largest block norm overflows to inf
    is refused: every ratio would be NaN or 0.
    """
    scale = cov.max_block_norm()
    if np.isinf(scale):
        raise ValueError(f"exhaustive sweep refused: the largest block norm of C is {scale}")
    ratios = np.zeros(len(queries))
    triples = queries.triples if isinstance(queries, _QueryTable) else _triples(queries)
    for positions, _, partial in _condition(cov, triples):
        norms = _frobenius_norms(partial)
        ratios[positions] = norms / scale if scale > 0 else 0.0
    worst_ratio, worst_query = 0.0, None
    if queries:
        i = int(np.argmax(ratios))
        if ratios[i] > 0:
            worst_ratio, worst_query = float(ratios[i]), queries[i]
    return OracleVerdict(worst_ratio <= residual_tol, worst_ratio, worst_query)


def oracle_cm_interval(
    law: SequenceLaw,
    interval: IndexInterval,
    c: ConditioningSide,
    tol: Tolerance = Tolerance(),
    use_future: bool = False,
) -> OracleVerdict:
    """Exhaustively test the conditionally-Markov property on an interval.

    The sequence is conditionally Markov on ``[k1, k2]`` given the endpoint
    ``c`` when, conditioned on x_c, knowing the history up to j adds nothing
    about x_k beyond x_j — i.e. ``Cov(x_k, x_{[k1, j)} | x_j, x_c) = 0`` for
    all k1 <= j < k <= k2.  ``use_future=True`` runs the time-mirrored but
    equivalent form, conditioning away the future segment instead.

    Parameters
    ----------
    law : SequenceLaw
    interval : IndexInterval
        Any ``[k1, k2]`` within ``[0, N]``.
    c : ConditioningSide
        Which endpoint of the interval is conditioned on.
    tol : Tolerance
        ``residual_tol`` bounds the largest normalized partial covariance.
    use_future : bool
        Sweep direction; both directions characterize the same property.
        Anything but a bool (numpy bools count) raises TypeError.

    Returns
    -------
    OracleVerdict
    """
    if not isinstance(use_future, (bool, np.bool_)):
        raise TypeError(f"expected a bool for use_future, got {use_future!r}")
    _check_size(law)
    if interval.hi > law.n_last:
        raise IndexError(f"interval {interval} exceeds n_last={law.n_last}")
    table = _interval_table(interval.lo, interval.hi, interval.endpoint(c), bool(use_future))
    return _sweep(law.covariance, table, tol.residual_tol)


@lru_cache(maxsize=_TABLES)
def _interval_table(k1, k2, c_idx, use_future):
    """The CM sweep's queries on ``[k1, k2]`` given ``x_{c_idx}``, in sweep
    order, as a kept :class:`_QueryTable`."""
    queries = []
    for k in range(k1, k2 + 1):
        if k == c_idx:
            continue
        if not use_future:
            j_range = range(k1, k)
        else:
            j_range = range(k + 1, k2 + 1)
        for j in j_range:
            if j == c_idx:
                continue
            if not use_future:
                dropped = [i for i in range(k1, j) if i != c_idx]
            else:
                dropped = [i for i in range(j + 1, k2 + 1) if i != c_idx]
            if not dropped:
                continue
            queries.append(CiQuery(k, (min(j, c_idx), max(j, c_idx)), tuple(dropped)))
    return _QueryTable(queries)


def oracle_reciprocal(law: SequenceLaw, tol: Tolerance = Tolerance()) -> OracleVerdict:
    """Exhaustively test reciprocity: inside is independent of outside given endpoints.

    For every triple j < k < l, checks
    ``Cov(x_k, x_{outside [j, l]} | x_j, x_l) = 0``.
    """
    _check_size(law)
    return _sweep(law.covariance, _reciprocal_table(law.n_last), tol.residual_tol)


@lru_cache(maxsize=_TABLES)
def _reciprocal_table(n):
    """The reciprocal sweep's queries over times ``0..n``, in sweep order,
    as a kept :class:`_QueryTable`."""
    queries = []
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                dropped = list(range(0, j)) + list(range(l + 1, n + 1))
                if not dropped:
                    continue
                queries.append(CiQuery(k, (j, l), tuple(dropped)))
    return _QueryTable(queries)


def oracle_markov(law: SequenceLaw, tol: Tolerance = Tolerance()) -> OracleVerdict:
    """Exhaustively test the Markov property: past beyond x_j is uninformative.

    For every pair j < k, checks ``Cov(x_k, x_{[0, j)} | x_j) = 0``.
    """
    _check_size(law)
    return _sweep(law.covariance, _markov_table(law.n_last), tol.residual_tol)


@lru_cache(maxsize=_TABLES)
def _markov_table(n):
    """The Markov sweep's queries over times ``0..n``, in sweep order, as a
    kept :class:`_QueryTable`."""
    queries = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            queries.append(CiQuery(k, (j,), tuple(range(0, j))))
    return _QueryTable(queries)
