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

Sweeps are exact enumerations, never subsampled; they refuse inputs larger
than ``(N+1) * d > 16`` scalars rather than approximate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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
    fields.
    """

    target: int
    retained: tuple[int, ...]
    dropped: tuple[int, ...]

    def __post_init__(self):
        times = [_index(t) for t in (self.target, *self.retained, *self.dropped)]
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


def _sweep(cov: BlockMatrix, queries, residual_tol):
    """Evaluate queries, normalizing residuals by the largest block norm of C.

    The worst query is the first with the largest ratio.  A covariance whose
    largest block norm overflows to inf is refused: every ratio would be
    NaN or 0.
    """
    scale = cov.max_block_norm()
    if np.isinf(scale):
        raise ValueError(f"exhaustive sweep refused: the largest block norm of C is {scale}")
    ratios = np.zeros(len(queries))
    triples = [((q.target,), tuple(sorted(q.dropped)), tuple(sorted(q.retained))) for q in queries]
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
    k1, k2 = interval.lo, interval.hi
    c_idx = interval.endpoint(c)
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
    return _sweep(law.covariance, queries, tol.residual_tol)


def oracle_reciprocal(law: SequenceLaw, tol: Tolerance = Tolerance()) -> OracleVerdict:
    """Exhaustively test reciprocity: inside is independent of outside given endpoints.

    For every triple j < k < l, checks
    ``Cov(x_k, x_{outside [j, l]} | x_j, x_l) = 0``.
    """
    _check_size(law)
    n = law.n_last
    queries = []
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                dropped = list(range(0, j)) + list(range(l + 1, n + 1))
                if not dropped:
                    continue
                queries.append(CiQuery(k, (j, l), tuple(dropped)))
    return _sweep(law.covariance, queries, tol.residual_tol)


def oracle_markov(law: SequenceLaw, tol: Tolerance = Tolerance()) -> OracleVerdict:
    """Exhaustively test the Markov property: past beyond x_j is uninformative.

    For every pair j < k, checks ``Cov(x_k, x_{[0, j)} | x_j) = 0``.
    """
    _check_size(law)
    n = law.n_last
    queries = []
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            queries.append(CiQuery(k, (j,), tuple(range(0, j))))
    return _sweep(law.covariance, queries, tol.residual_tol)
