"""Block-partitioned matrices, SPD linear algebra, and Gaussian sequence laws.

A zero-mean nonsingular Gaussian law over times ``0..N`` with ``d``-dimensional
components is fully described by its ``(N+1)d x (N+1)d`` covariance matrix,
viewed as an ``(N+1) x (N+1)`` grid of ``d x d`` blocks.  Everything downstream
(pattern detection, classification, dynamic models) works on that block grid,
so the primitives here are deliberately small: a read-only block view, one
pivot-reporting Cholesky routine over a stack of matrices (a single matrix
is a stack of one), an SPD inverse, one Gaussian-conditioning routine, one
stacked Frobenius-norm pass, and the elimination steps that give the
boundary-anchored marginal precisions, all on numpy alone.  Every pivot
passes one rule: above ``1e-12`` times its own diagonal entry.  A failing
stack raises for its first failing matrix, and the error carries that
matrix's ``position`` in the stack.  The conditioning routine computes
``C_ss^-1 C_sb`` and ``C_ab - C_as C_ss^-1 C_sb`` for stacks of time
triples ``(a, b, s)``: the models' regressions and the oracle's partial
covariances are both read off it.  A :class:`SequenceLaw` keeps the
covariance or precision it was given and derives the other from its one
factorization on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

__all__ = [
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "ConditioningSide",
    "Tolerance",
    "IndexInterval",
    "BlockMatrix",
    "SequenceLaw",
    "symmetrize",
    "cholesky_spd",
    "invert_spd",
]

_SYM_RTOL = 1e-12
_PIVOT_RTOL = 1e-12
# the bytes a chunk of elimination steps may take: of 32, 64, 96 and 128 KB,
# only 64 KB read faster than one step at a time at every size the
# benchmark classifies
_CHUNK_BYTES = 1 << 16


class NotSymmetricError(ValueError):
    """Raised when a matrix required to be symmetric is not (beyond rounding)."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot fails, with the offending index attached.

    Attributes
    ----------
    pivot_index : int
        Zero-based row/column at which the factorization broke down.
    position : int
        Raised for a matrix of a stack: that matrix's place in the stack.
    """

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        super().__init__(
            f"matrix is not positive definite: pivot {self.pivot_value:.3e} "
            f"at index {self.pivot_index}"
        )


class ConditioningSide(Enum):
    """Which interval endpoint a conditionally-Markov property conditions on."""

    FIRST = "first"
    LAST = "last"


def _member(value, enum):
    """``value``, which must be a member of the Enum class ``enum``: every
    public function taking such an argument reads it here, and any other
    value, its string value included, raises TypeError."""
    if not isinstance(value, enum):
        raise TypeError(f"expected a {enum.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout.

    ``zero_tol`` decides when an off-pattern block of a precision matrix
    counts as zero (relative to the largest block norm); ``residual_tol``
    bounds relative residuals in round trips, oracle sweeps and parameter
    checks.
    """

    zero_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not (self.zero_tol > 0 and self.residual_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IndexInterval:
    """Closed time interval ``[lo, hi]`` with at least two points."""

    lo: int
    hi: int

    def __post_init__(self):
        lo, hi = operator.index(self.lo), operator.index(self.hi)  # TypeError for a non-integer
        if lo < 0 or hi <= lo:
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    def endpoint(self, side: ConditioningSide) -> int:
        return self.lo if _member(side, ConditioningSide) is ConditioningSide.FIRST else self.hi


def _square(m):
    """``m`` as a float ndarray, which must be a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _symmetric_part(m):
    """``(m + m') / 2`` of ``m``, or of each matrix of a stack;
    ``m/2 + m'/2`` where the sum overflows."""
    mt = m.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite m is its caller's to refuse
        part = (m + mt) / 2.0
        over = np.isinf(part)
        if over.any():
            part[over] = (m / 2.0 + mt / 2.0)[over]
    return part


def symmetrize(m):
    """Return the symmetric part of ``m``, rejecting genuinely asymmetric input.

    Parameters
    ----------
    m : ndarray
        Square matrix.

    Returns
    -------
    ndarray
        ``(m + m') / 2``, or ``m/2 + m'/2`` where the sum overflows.

    Raises
    ------
    NotSymmetricError
        If ``m`` has a NaN or infinite entry, or if the asymmetry
        ``||m - m'||`` exceeds ``1e-12 * max(||m||, 1)``; where ``||m||``
        overflows, of ``m`` divided by its largest absolute entry.
    """
    m = _square(m)
    _check_symmetric(m)
    return _symmetric_part(m)


def _check_symmetric(m):
    """Raise as :func:`symmetrize` does for the square ``m``."""
    if not np.isfinite(m).all():
        raise NotSymmetricError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        scale, gap = np.linalg.norm(m), np.linalg.norm(m - m.T)
    if np.isinf(scale):
        unit = m / np.abs(m).max()
        scale, gap = np.linalg.norm(unit), np.linalg.norm(unit - unit.T)
    if not gap <= _SYM_RTOL * max(scale, 1.0):
        raise NotSymmetricError(
            f"matrix is not symmetric: ||m - m'|| = {gap:.3e} vs ||m|| = {scale:.3e}"
        )


def cholesky_spd(m):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Unlike ``np.linalg.cholesky`` this reports *where* the factorization
    failed: the first pivot, in column order, that is not above ``1e-12``
    times its own diagonal entry ``m[j, j]`` (a NaN pivot included) raises
    :class:`NotPositiveDefiniteError` carrying the pivot index.  numpy
    accepts any positive pivot, so the threshold is checked on the factor's
    diagonal afterwards.  So for a diagonal ``D`` of powers of two,
    ``D m D`` raises exactly where ``m`` does, and otherwise has the factor
    ``D L`` bit for bit.
    """
    return _cholesky_stack(_square(m)[None])[0]


def _cholesky_stack(stack, symmetric=False, rows=None):
    """:func:`cholesky_spd` of each matrix of a ``(K, n, n)`` stack: every SPD
    factorization of the package runs here.

    A finite, exactly symmetric stack (``symmetric`` skips both tests, for
    marked input) gets one LAPACK call and one pivot compare.  Any other
    stack, or one LAPACK fails, is factorized a matrix at a time, nearly
    symmetric ones symmetrized.  The first failing matrix raises, its error
    carrying its ``position``; a :class:`NotPositiveDefiniteError` names
    its column, or that column's entry of ``rows`` (shaped ``(K, n)``).
    """
    stack = np.asarray(stack, dtype=float)
    if symmetric or (np.isfinite(stack).all() and np.array_equal(stack, stack.swapaxes(1, 2))):
        try:
            lower = np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:  # some matrix fails: the loop finds which
            pass
        else:
            _check_pivots(lower.diagonal(0, 1, 2) ** 2, stack.diagonal(0, 1, 2), rows)
            return lower
    lowers = []
    for position, m in enumerate(stack):
        m_rows = None if rows is None else rows[position]
        try:
            a = m if symmetric else symmetrize(m)
            lowers.append(_factor(a, m_rows))
            _check_pivots(np.diag(lowers[-1]) ** 2, np.diag(a), m_rows)
        except (NotSymmetricError, NotPositiveDefiniteError) as err:
            err.position = position
            raise
    return np.stack(lowers)


def _check_pivots(pivots, diag, rows=None):
    """Raise for the first pivot of one matrix, or of a stack of them (one
    per row of the last axis, in row-major order), not above ``1e-12``
    times its matrix's diagonal entry in its row (``diag``, shaped as
    ``pivots``), naming its column, or its entry of ``rows`` (shaped as
    ``pivots``), and its matrix's position: the package's one pivot rule."""
    passed = pivots > _PIVOT_RTOL * diag
    if passed.all():
        return
    first = np.flatnonzero(~passed)[0]
    position, col = divmod(int(first), pivots.shape[-1])
    err = NotPositiveDefiniteError(col if rows is None else rows.flat[first], pivots.flat[first])
    err.position = position
    raise err


def _factor(a, rows=None):
    """``np.linalg.cholesky`` of the symmetric ``a``.  Where numpy fails,
    bisection over leading blocks finds the pivot, and
    :class:`NotPositiveDefiniteError` names its row, or ``rows[row]``."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    lo, hi = 0, a.shape[0]  # a[:lo, :lo] factorizes, a[:hi, :hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(a[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    lower = np.linalg.cholesky(a[:lo, :lo])
    _check_pivots(np.diag(lower) ** 2, np.diag(a)[:lo], rows)
    row = np.linalg.solve(lower, a[:lo, lo])
    raise NotPositiveDefiniteError(lo if rows is None else rows[lo], a[lo, lo] - row @ row)


def _cho_solve(lower, b):
    """Solve ``(L L') x = b`` from the lower Cholesky factor ``L``, or from a
    stack of them, one right-hand side (stack) per factor.

    For a stack, ``b`` must have the stack's own number of dimensions: numpy
    1.x reads one dimension fewer as a stack of vectors, numpy 2 as a matrix.
    """
    return np.linalg.solve(lower.swapaxes(-1, -2), np.linalg.solve(lower, b))


def _inverse_from_factor(lower):
    """Exactly symmetric inverse of ``L L'`` from its lower Cholesky factor,
    or the inverses of a stack of them, each as it would be alone."""
    inv = _cho_solve(lower, np.broadcast_to(np.eye(lower.shape[-1]), lower.shape))
    return _symmetric_part(inv)


def invert_spd(m):
    """Exactly symmetric inverse of a symmetric positive definite matrix,
    from its :func:`cholesky_spd` factor, raising as that does."""
    return _inverse_from_factor(_cholesky_stack(_square(m)[None])[0])


def _condition(cov, triples):
    """Gaussian conditioning on ``x_s`` for each ``(a, b, s)`` in
    ``triples``, the package's one such routine: it gives the models their
    regressions and the oracle its partial covariances.

    Each triple holds tuples of times of the covariance ``cov``, each
    gathered in its given order, ``s`` disjoint from ``a`` and ``b``.
    Triples of one shape ``(|a|, |b|, |s|)`` share one gather of their
    rows and columns ``a + b + s``, one :func:`cholesky_spd` stack of their
    ``C_ss`` and one pair of stacked solves.  Returns ``[(positions, solved, partial)]``, one entry
    per shape: for ``triples[positions[i]]``, ``solved[i]`` is
    ``C_ss^-1 C_sb`` and ``partial[i]`` is ``Cov(x_a, x_b | x_s) = C_ab -
    C_as C_ss^-1 C_sb``, each with the bits a stack of that one triple
    gives it.  If some ``C_ss`` is not SPD, the first such triple in the
    given order raises what :func:`cholesky_spd` raises for it, and a
    :class:`NotPositiveDefiniteError` names the covariance's own scalar
    row.
    """
    groups = {}
    for i, (a, b, s) in enumerate(triples):
        positions, times = groups.setdefault((len(a), len(b), len(s)), ([], []))
        positions.append(i)
        times.append(a + b + s)
    mat, d = cov.data, cov.block_dim
    out, failures = [], []
    for (na, nb, ns), (positions, times) in groups.items():
        times = np.array(times, dtype=np.intp)
        rows = (times[:, :, None] * d + np.arange(d)).reshape(len(positions), -1)
        a, b, s = slice(0, na * d), slice(na * d, (na + nb) * d), slice((na + nb) * d, None)
        block = mat[rows[:, :, None], rows[:, None, :]]
        if not ns:
            out.append((positions, block[:, s, b], block[:, a, b]))
            continue
        try:
            lower = _cholesky_stack(block[:, s, s], cov._symmetric, rows[:, s])
        except (NotPositiveDefiniteError, NotSymmetricError) as err:
            failures.append((positions[err.position], err))
            continue
        solved = _cho_solve(lower, block[:, s, b])
        out.append((positions, solved, block[:, a, b] - block[:, a, s] @ solved))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return out


class BlockMatrix:
    """Read-only square matrix addressed as a grid of ``d x d`` blocks.

    Parameters
    ----------
    data : ndarray
        Square matrix whose size is a multiple of ``block_dim``.  The data is
        copied and frozen; blocks are returned by value.
    block_dim : int
        Component dimension ``d``.

    Matrices the package forms (a law's covariance and precision, a model's
    precision, a sample covariance) are wrapped by
    :meth:`BlockMatrix._formed`, and a finite one carries a private mark, so
    that no symmetry or finiteness check runs on it again.  A matrix from
    this constructor never does.
    """

    def __init__(self, data, block_dim):
        data = _square(np.array(data, dtype=float))
        block_dim = operator.index(block_dim)  # TypeError for a non-integer
        if block_dim < 1:
            raise ValueError("block_dim must be >= 1")
        if data.shape[0] % block_dim != 0:
            raise ValueError(
                f"matrix size {data.shape[0]} is not a multiple of block_dim {block_dim}"
            )
        self._adopt(data, block_dim, symmetric=False)

    @classmethod
    def _formed(cls, data, block_dim):
        """The one maker of marked matrices: the symmetric part of ``data``
        (its size a multiple of ``block_dim``), wrapped and frozen, marked
        only if it is finite, so that unmarked its first check raises."""
        part = _symmetric_part(data)
        bm = cls.__new__(cls)
        bm._adopt(part, block_dim, symmetric=bool(np.isfinite(part).all()))
        return bm

    def _adopt(self, data, block_dim, symmetric):
        data.setflags(write=False)
        self._data = data
        self._d = block_dim
        self._symmetric = symmetric
        self._norms = None

    @property
    def data(self):
        """The underlying (read-only) ndarray."""
        return self._data

    @property
    def block_dim(self):
        return self._d

    @property
    def n_blocks(self):
        """Number of block rows (= block columns)."""
        return self._data.shape[0] // self._d

    @property
    def shape(self):
        return self._data.shape

    def block(self, i, j):
        """Copy of block ``(i, j)`` as a ``d x d`` ndarray."""
        n = self.n_blocks
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"block ({i}, {j}) out of range for {n} blocks")
        d = self._d
        return self._data[i * d : (i + 1) * d, j * d : (j + 1) * d].copy()

    def block_norms(self):
        """Frobenius norms of all blocks as a read-only ``n_blocks x n_blocks``
        array, computed once per matrix."""
        if self._norms is None:
            self._norms = _block_norms(self._data, self._d)
        return self._norms

    def max_block_norm(self):
        """Largest block Frobenius norm over the whole grid."""
        return float(self.block_norms().max())

    @classmethod
    def from_blocks(cls, blocks):
        """Assemble from a nested sequence ``blocks[i][j]`` of d x d arrays."""
        rows = [np.hstack([np.asarray(b, dtype=float) for b in row]) for row in blocks]
        return cls(np.vstack(rows), np.asarray(blocks[0][0]).shape[0])

    def __repr__(self):
        return f"BlockMatrix(n_blocks={self.n_blocks}, block_dim={self._d})"


def _block_norms(data, d):
    """Read-only grid of the Frobenius norms of the ``d x d`` blocks of
    ``data``, or one grid per matrix of a stack.

    Each block's sum of squares is one written-down add chain, a few
    elementwise passes over every block at once: every entry is squared
    once; within each block row the even and the odd columns are summed
    apart, each in column order, and the two sums added; the block rows'
    sums are then added in row order.  On a grid of two or more blocks this
    is the order of numpy's ``einsum("iajb,iajb->ij")`` up to ``d = 7``, so
    those norms keep its bits; at ``d >= 8`` einsum unrolls its loop, and a
    ratio's last bits may differ from the einsum pass.
    """
    n = data.shape[-1] // d
    sq = data.reshape(data.shape[:-2] + (n, d, n, d))
    with np.errstate(over="ignore"):  # inf, silently, as einsum gives it
        sq = sq * sq
        rows = reduce(np.add, (sq[..., col] for col in range(0, d, 2)))
        if d > 1:
            rows = rows + reduce(np.add, (sq[..., col] for col in range(1, d, 2)))
        norms = np.sqrt(reduce(np.add, (rows[..., row, :] for row in range(d))))
    norms.setflags(write=False)
    return norms


def _frobenius_norms(stack):
    """The Frobenius norm of each matrix of a ``(K, m, n)`` stack, with the
    bits of ``np.linalg.norm``: one dot product per matrix, as it takes its
    square, all in one stacked product."""
    flat = stack.reshape(len(stack), 1, stack.shape[1] * stack.shape[2])
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _ratios(norms):
    """``max(norms, norms') / max(norms)`` of a grid of block norms (all zero
    for a zero grid), or of each grid of a stack.

    A block and its transpose get the same ratio, so pattern detection
    reports the upper one of an asymmetric pair first.
    """
    norms = np.maximum(norms, norms.swapaxes(-1, -2))
    scale = norms.max(axis=(-2, -1), keepdims=True)
    if scale.min() > 0:  # false if some grid is all zero or has a NaN
        norms /= scale
        return norms
    return np.divide(norms, scale, out=np.zeros_like(norms), where=scale > 0)


def _ratio_grid(m, block_dim=None):
    """A fresh :func:`_ratios` grid, the one every pattern witness is read
    off: of a :class:`BlockMatrix` from its cached block norms (an unmarked
    one first passes :func:`symmetrize`'s check), or of each matrix of a
    stack with blocks of size ``block_dim``."""
    if not isinstance(m, BlockMatrix):
        return _ratios(_block_norms(m, block_dim))
    if not m._symmetric:
        _check_symmetric(m.data)
    return _ratios(m.block_norms())


class SequenceLaw:
    """Zero-mean nonsingular Gaussian sequence law on times ``0..N``.

    A law keeps the matrix it was given, its covariance or (from
    :meth:`SequenceLaw.from_precision`) its precision: a marked
    :class:`BlockMatrix` itself, any other as its :func:`symmetrize` part.
    One Cholesky factorization checks either kind; its factor is kept until
    the other matrix is first asked for, which is then derived from it and
    cached (unmarked if it is not finite), and the factor dropped.

    Parameters
    ----------
    covariance : BlockMatrix or ndarray
        Full covariance of the stacked vector ``(x_0, ..., x_N)``.
    block_dim : int, optional
        Required when ``covariance`` is a plain ndarray.
    """

    def __init__(self, covariance, block_dim=None):
        self._keep(covariance, block_dim, 0)

    @classmethod
    def from_precision(cls, precision, block_dim=None):
        """Build a law from its precision (inverse covariance) matrix, which it keeps."""
        law = cls.__new__(cls)
        law._keep(precision, block_dim, 1)
        return law

    def _keep(self, m, block_dim, kind):
        """Keep ``m`` as the covariance (``kind`` 0) or the precision (1),
        marked, and the factor of the :func:`_cholesky_stack` call checking it."""
        if not isinstance(m, BlockMatrix):
            if block_dim is None:
                raise ValueError("block_dim is required for ndarray input")
            m = BlockMatrix(m, block_dim)
        if m.n_blocks < 2:
            raise ValueError("a sequence law needs at least two times (N >= 1)")
        if not m._symmetric:
            _check_symmetric(m.data)
            m = BlockMatrix._formed(m.data, m.block_dim)
        self._factor = _cholesky_stack(m.data[None], True)[0]
        self._given, self._matrices = m, [None, m] if kind else [m, None]

    def _matrix(self, kind):
        if self._matrices[kind] is None:
            # _formed takes the symmetric part, the one this inverse gets
            inverse = _cho_solve(self._factor, np.eye(len(self._factor)))
            self._matrices[kind], self._factor = BlockMatrix._formed(inverse, self.dim), None
        return self._matrices[kind]

    @property
    def covariance(self) -> BlockMatrix:
        return self._matrix(0)

    @property
    def n_last(self):
        """Final time index N (times run 0..N)."""
        return self._given.n_blocks - 1

    @property
    def dim(self):
        """Component dimension d."""
        return self._given.block_dim

    def precision(self) -> BlockMatrix:
        """Inverse covariance as a read-only BlockMatrix, computed at most once."""
        return self._matrix(1)

    def __repr__(self):
        return f"SequenceLaw(n_last={self.n_last}, dim={self.dim})"


def _reverse_time(mat, d):
    """``mat`` with its d x d time blocks in reverse order (an exact copy)."""
    n_blocks = mat.shape[0] // d
    return mat.reshape(n_blocks, d, n_blocks, d)[::-1, :, ::-1].reshape(mat.shape)


def _marginal_sweep(a):
    """Yield the marginal precisions of ``a`` and of its time reversal,
    elimination step by step, in chunks of consecutive steps.

    ``a`` (symmetrized unless marked, so that an asymmetric or non-finite
    one raises :class:`NotSymmetricError`) and its time reversal are
    factorized as one :func:`_cholesky_stack` stack, which checks every
    pivot of both: an error names a row of ``a``, and its ``position`` is 0
    for the reversal and 1 for ``a``.  If ``mat = L L'``, blocks ``k..N``
    have the marginal precision ``L[k:, k:] L[k:, k:]'`` (Golub & Van Loan,
    *Matrix Computations*, 4.2), reached from the step before by a rank-d
    update with column block ``k-1`` of ``L``: step ``k = 1, ..., N-1``
    makes the marginals of times ``[0, N-k]`` of ``a``, reversed, and
    ``[k, N]``.  Each step is one batched update of the pair, and each
    matrix's update has the bits it has alone.

    A chunk is a ``(2, nb, n, n)`` stack, ``n`` the size of its first
    step's marginals: slot ``b`` holds step ``k+b``'s reversed and forward
    marginal, top left, zeros after them.  A chunk holds as many steps as
    fit ``_CHUNK_BYTES``, and at least one, each update written straight
    into its slot.
    """
    d = a.block_dim
    mat = a.data if a._symmetric else symmetrize(a.data)
    rows = np.arange(mat.shape[0]).reshape(-1, d)
    work = np.array([_reverse_time(mat, d), mat])
    lowers = _cholesky_stack(work, True, np.array([rows[::-1].ravel(), rows.ravel()]))
    k, n_last = 1, a.n_blocks - 1
    while k < n_last:
        n = work.shape[-1] - d
        slots = min(_CHUNK_BYTES // (16 * n * n), n_last - k)
        # only a chunk of two or more steps has padding to zero
        chunk = np.zeros((2, slots, n, n)) if slots > 1 else np.empty((2, 1, n, n))
        for b in range(chunk.shape[1]):
            col = lowers[:, k * d :, (k - 1) * d : k * d]
            live = chunk[:, b, : n - b * d, : n - b * d]
            work = np.subtract(work[:, d:, d:], col @ col.swapaxes(1, 2), out=live)
            k += 1
        yield chunk
