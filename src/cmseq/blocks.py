"""Block-partitioned matrices, SPD linear algebra, and Gaussian sequence laws.

A zero-mean nonsingular Gaussian law over times ``0..N`` with ``d``-dimensional
components is fully described by its ``(N+1)d x (N+1)d`` covariance matrix,
viewed as an ``(N+1) x (N+1)`` grid of ``d x d`` blocks.  Everything downstream
(pattern detection, classification, dynamic models) works on that block grid,
so the primitives here are deliberately small: a read-only block view, a
pivot-reporting Cholesky (also over a stack of matrices in one LAPACK
call), an SPD inverse, and the sweep of boundary-anchored marginal
precisions, all on numpy alone.  A :class:`SequenceLaw` factorizes
its covariance once, at construction, and derives its precision from that
factor on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "ConditioningSide",
    "Keep",
    "Tolerance",
    "IndexInterval",
    "BlockMatrix",
    "SequenceLaw",
    "symmetrize",
    "cholesky_spd",
    "invert_spd",
    "marginal_precisions",
]

_SYM_RTOL = 1e-12
_PIVOT_RTOL = 1e-12


class NotSymmetricError(ValueError):
    """Raised when a matrix required to be symmetric is not (beyond rounding)."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot fails, with the offending index attached.

    Attributes
    ----------
    pivot_index : int
        Zero-based row/column at which the factorization broke down.
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


class Keep(Enum):
    """Which block range a Schur complement retains."""

    LEADING = "leading"
    TRAILING = "trailing"


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
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    def endpoint(self, side: ConditioningSide) -> int:
        return self.lo if side is ConditioningSide.FIRST else self.hi


def symmetrize(m):
    """Return the symmetric part of ``m``, rejecting genuinely asymmetric input.

    Parameters
    ----------
    m : ndarray
        Square matrix.

    Returns
    -------
    ndarray
        ``(m + m') / 2``.

    Raises
    ------
    NotSymmetricError
        If ``m`` has a NaN or infinite entry, or if the asymmetry
        ``||m - m'||`` exceeds ``1e-12 * max(||m||, 1)``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotSymmetricError("matrix has non-finite entries")
    scale = np.linalg.norm(m)
    gap = np.linalg.norm(m - m.T)
    if not gap <= _SYM_RTOL * max(scale, 1.0):
        raise NotSymmetricError(
            f"matrix is not symmetric: ||m - m'|| = {gap:.3e} vs ||m|| = {scale:.3e}"
        )
    return (m + m.T) / 2.0


def cholesky_spd(m):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Unlike ``np.linalg.cholesky`` this reports *where* the factorization
    failed: the first pivot, in column order, that is not above
    ``1e-12 * max(diag)`` (a NaN pivot included) raises
    :class:`NotPositiveDefiniteError` carrying the pivot index.  numpy
    accepts any positive pivot, so the threshold is checked on the factor's
    diagonal afterwards.
    """
    return _cholesky(symmetrize(m))


def _cholesky(a):
    """:func:`cholesky_spd` of an exactly symmetric ndarray, which it does not
    check for symmetry."""
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    lower = _factor(a)
    _check_pivots(np.diag(lower) ** 2, np.diag(a))
    return lower


def _check_pivots(pivots, diag):
    """Raise for the first pivot not above ``1e-12 * max(diag)``."""
    passed = pivots > _PIVOT_RTOL * max(float(np.max(diag)), 0.0)
    if passed.all():
        return
    small = np.flatnonzero(~passed)
    raise NotPositiveDefiniteError(small[0], pivots[small[0]])


def _cholesky_stack(stack):
    """:func:`cholesky_spd` of each matrix of a ``(K, n, n)`` stack, as one
    ``(K, n, n)`` array of lower factors.

    A finite, exactly symmetric stack whose pivots all pass is factorized by
    one stacked LAPACK call, which gives each matrix the factor
    :func:`cholesky_spd` gives it alone.  Any other stack is factorized one
    matrix at a time, in stack order, so the first matrix that fails raises
    what :func:`cholesky_spd` raises for it, and a nearly symmetric one is
    factorized symmetrized.
    """
    stack = np.asarray(stack, dtype=float)
    if np.isfinite(stack).all():
        # a sum that overflows leaves sym unequal to stack; the loop reports it
        with np.errstate(over="ignore"):
            sym = (stack + stack.swapaxes(1, 2)) / 2.0
        if np.array_equal(sym, stack):
            try:
                lower = np.linalg.cholesky(sym)
            except np.linalg.LinAlgError:  # some matrix fails: the loop finds which
                pass
            else:
                pivots = np.diagonal(lower, axis1=1, axis2=2) ** 2
                diag_max = np.diagonal(sym, axis1=1, axis2=2).max(axis=1)
                if (pivots > _PIVOT_RTOL * np.maximum(diag_max, 0.0)[:, None]).all():
                    return lower
    return np.stack([cholesky_spd(m) for m in stack])


def _factor(a):
    """``np.linalg.cholesky`` of the symmetric ``a``.  Where numpy fails,
    bisection over leading blocks finds the pivot, so
    :class:`NotPositiveDefiniteError` is raised in place of ``LinAlgError``."""
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
    _check_pivots(np.diag(lower) ** 2, np.diag(a))
    row = np.linalg.solve(lower, a[:lo, lo])
    raise NotPositiveDefiniteError(lo, a[lo, lo] - row @ row)


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
    return (inv + inv.swapaxes(-1, -2)) / 2.0


def invert_spd(m):
    """Inverse of a symmetric positive definite matrix via Cholesky.

    Returns an exactly symmetric ndarray; raises
    :class:`NotPositiveDefiniteError` / :class:`NotSymmetricError` as
    appropriate.
    """
    return _inverse_from_factor(cholesky_spd(m))


class BlockMatrix:
    """Read-only square matrix addressed as a grid of ``d x d`` blocks.

    Parameters
    ----------
    data : ndarray
        Square matrix whose size is a multiple of ``block_dim``.  The data is
        copied and frozen; blocks are returned by value.
    block_dim : int
        Component dimension ``d``.

    Matrices that the package builds exactly symmetric (a law's covariance
    and precision, and the marginal precisions of
    :func:`marginal_precisions`) are wrapped without a copy and carry a
    private mark, so that no symmetry check runs on them again.  A matrix
    from this constructor never carries it.
    """

    def __init__(self, data, block_dim):
        data = np.array(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {data.shape}")
        block_dim = int(block_dim)
        if block_dim < 1:
            raise ValueError("block_dim must be >= 1")
        if data.shape[0] % block_dim != 0:
            raise ValueError(
                f"matrix size {data.shape[0]} is not a multiple of block_dim {block_dim}"
            )
        self._adopt(data, block_dim, symmetric=False)

    @classmethod
    def _wrap_symmetric(cls, data, block_dim):
        """Mark and wrap, without a copy, a fresh float ndarray that is exactly
        symmetric by construction and whose size is a multiple of
        ``block_dim``; the array is frozen."""
        bm = cls.__new__(cls)
        bm._adopt(data, block_dim, symmetric=True)
        return bm

    def _adopt(self, data, block_dim, symmetric):
        data.setflags(write=False)
        self._data = data
        self._d = block_dim
        self._symmetric = symmetric
        self._norms = None
        self._ratios = None
        self._lower = None

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

    def block_norm(self, i, j):
        """Frobenius norm of block ``(i, j)``."""
        d = self._d
        return float(
            np.linalg.norm(self._data[i * d : (i + 1) * d, j * d : (j + 1) * d])
        )

    def block_norms(self):
        """Frobenius norms of all blocks as a read-only ``n_blocks x n_blocks``
        array, computed once per matrix."""
        if self._norms is None:
            self._norms = _block_norms(self._data, self._d)
        return self._norms

    def _ratio_grid(self):
        """Read-only grid of ``max(norms, norms') / max(norms)`` over the block
        norms (all zero for the zero matrix), computed once per matrix.

        A block and its transpose get the same ratio, so pattern detection
        reports the upper one of an asymmetric pair first.
        """
        if self._ratios is None:
            norms = self.block_norms()
            norms = np.maximum(norms, norms.T)
            scale = norms.max()
            ratios = norms / scale if scale > 0 else np.zeros_like(norms)
            ratios.setflags(write=False)
            self._ratios = ratios
        return self._ratios

    def _spd_factor(self, keep=True):
        """Lower factor from :func:`cholesky_spd` of the whole matrix (with no
        symmetry check for a marked one), computed once per matrix unless
        ``keep`` is false; raises :class:`NotPositiveDefiniteError` on every
        call while it fails."""
        if self._lower is not None:
            return self._lower
        lower = _cholesky(self._data) if self._symmetric else cholesky_spd(self._data)
        if keep:
            self._lower = lower
        return lower

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
    """Read-only grid of the Frobenius norms of the ``d x d`` blocks of ``data``."""
    n = data.shape[0] // d
    b = data.reshape(n, d, n, d)
    norms = np.sqrt(np.einsum("iajb,iajb->ij", b, b))
    norms.setflags(write=False)
    return norms


class SequenceLaw:
    """Zero-mean nonsingular Gaussian sequence law on times ``0..N``.

    Wraps the covariance matrix as a :class:`BlockMatrix` and checks symmetry
    and positive definiteness on construction.  The Cholesky factor from that
    check is kept until :meth:`precision` first needs it; the precision is
    then cached and the factor dropped, so a law holds one of the two.

    Parameters
    ----------
    covariance : BlockMatrix or ndarray
        Full covariance of the stacked vector ``(x_0, ..., x_N)``.
    block_dim : int, optional
        Required when ``covariance`` is a plain ndarray.
    """

    def __init__(self, covariance, block_dim=None):
        if isinstance(covariance, BlockMatrix):
            bm = covariance
        else:
            if block_dim is None:
                raise ValueError("block_dim is required for ndarray input")
            bm = BlockMatrix(covariance, block_dim)
        sym = symmetrize(bm.data)  # raises NotSymmetricError
        self._factor = _cholesky(sym)  # raises NotPositiveDefiniteError
        self._precision = None
        self._cov = BlockMatrix._wrap_symmetric(sym, bm.block_dim)
        if self._cov.n_blocks < 2:
            raise ValueError("a sequence law needs at least two times (N >= 1)")

    @property
    def covariance(self) -> BlockMatrix:
        return self._cov

    @property
    def n_last(self):
        """Final time index N (times run 0..N)."""
        return self._cov.n_blocks - 1

    @property
    def dim(self):
        """Component dimension d."""
        return self._cov.block_dim

    def precision(self) -> BlockMatrix:
        """Inverse covariance as a read-only BlockMatrix, computed once."""
        if self._precision is None:
            self._precision = BlockMatrix._wrap_symmetric(
                _inverse_from_factor(self._factor), self._cov.block_dim
            )
            self._factor = None
        return self._precision

    @classmethod
    def from_precision(cls, precision, block_dim=None):
        """Build a law from its precision (inverse covariance) matrix."""
        if isinstance(precision, BlockMatrix):
            mat, d = precision.data, precision.block_dim
        else:
            if block_dim is None:
                raise ValueError("block_dim is required for ndarray input")
            mat, d = np.asarray(precision, dtype=float), block_dim
        return cls(invert_spd(mat), d)

    def __repr__(self):
        return f"SequenceLaw(n_last={self.n_last}, dim={self.dim})"


def _reverse_time(mat, d):
    """``mat`` with its d x d time blocks in reverse order (an exact copy)."""
    n_blocks = mat.shape[0] // d
    return mat.reshape(n_blocks, d, n_blocks, d)[::-1, :, ::-1].reshape(mat.shape)


def marginal_precisions(a: BlockMatrix, keep: Keep):
    """Marginal precisions of every boundary-anchored interval, one sweep.

    Eliminates one time at a time from the SPD matrix ``a`` (N+1 block
    rows): times ``0, 1, ...`` for ``keep=Keep.TRAILING``.  ``a`` first gets
    the :func:`cholesky_spd` check on the whole matrix, once per matrix
    however many sweeps read it, and every step is read off the factor of
    that check.  Neither the check nor the sweep symmetrizes a matrix that
    the package built exactly symmetric, such as a law's precision.
    ``keep=Keep.LEADING`` eliminates times ``N, N-1, ...``: it is the
    trailing sweep of the time-reversed matrix, which it factorizes once,
    with each yield reversed back.  Each step also checks its own ``d x d``
    pivot, so either check raises
    :class:`NotPositiveDefiniteError`.  The sweep costs O(N^3 d^3), against
    O(N^4 d^3) for one direct block Schur complement per interval (kept as
    the reference in ``tests/test_blocks.py``).

    Yields
    ------
    (IndexInterval, BlockMatrix)
        ``[0, k]`` for ``k = N-1, ..., 1`` (leading) or ``[k, N]`` for
        ``k = 1, ..., N-1`` (trailing).  Each matrix wraps, without a
        copy, an array the sweep has just computed and no longer writes: it
        owns that array, is exactly symmetric, and carries the mark that
        lets :func:`~cmseq.patterns.detect` skip its symmetry check.
    """
    d = a.block_dim
    n_last = a.n_blocks - 1
    if n_last < 2:
        return
    lower = a._spd_factor()
    mat = a.data if a._symmetric else (a.data + a.data.T) / 2.0
    wrap = BlockMatrix._wrap_symmetric
    if keep is Keep.TRAILING:
        for k, kept in _trailing_sweep(mat, lower, d):
            yield IndexInterval(k, n_last), wrap(kept, d)
    else:
        mirror = _reverse_time(mat, d)
        for k, kept in _trailing_sweep(mirror, _factor(mirror), d):
            yield IndexInterval(0, n_last - k), wrap(_reverse_time(kept, d), d)


def _trailing_sweep(mat, lower, d):
    """``(k, marginal precision of blocks k..N)`` for ``k = 1, ..., N-1``.

    If ``mat = L L'``, blocks ``k..N`` have the marginal precision
    ``L[k:, k:] L[k:, k:]'`` (Golub & Van Loan, *Matrix Computations*, 4.2),
    reached from the step before by a rank-d update with the next column
    block of ``L``.  Its pivots ``diag(L_kk)^2`` get the threshold set by
    the diagonal of the step's own pivot block.
    """
    work = mat
    for k in range(1, mat.shape[0] // d - 1):
        done = slice((k - 1) * d, k * d)
        _check_pivots(lower.diagonal()[done] ** 2, work.diagonal()[:d])
        col = lower[k * d :, done]
        work = work[d:, d:] - col @ col.T
        yield k, work
