"""Block-partitioned matrices, SPD linear algebra, and Gaussian sequence laws.

A zero-mean nonsingular Gaussian law over times ``0..N`` with ``d``-dimensional
components is fully described by its ``(N+1)d x (N+1)d`` covariance matrix,
viewed as an ``(N+1) x (N+1)`` grid of ``d x d`` blocks.  Everything downstream
(pattern detection, classification, dynamic models) works on that block grid,
so the primitives here are deliberately small: a read-only block view, a
pivot-reporting Cholesky (LAPACK ``dpotrf``), an SPD inverse, and block Schur
complements.  A :class:`SequenceLaw` factorizes its covariance once, at
construction, and derives its precision from that factor on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve, lapack

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
    "schur_complement",
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
        If the asymmetry ``||m - m'||`` exceeds ``1e-12 * max(||m||, 1)``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    gap = np.linalg.norm(m - m.T)
    if gap > _SYM_RTOL * max(scale, 1.0):
        raise NotSymmetricError(
            f"matrix is not symmetric: ||m - m'|| = {gap:.3e} vs ||m|| = {scale:.3e}"
        )
    return (m + m.T) / 2.0


def cholesky_spd(m):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Unlike ``np.linalg.cholesky`` this reports *where* the factorization
    failed: a pivot at or below ``1e-12 * max(diag)`` raises
    :class:`NotPositiveDefiniteError` carrying the pivot index.  LAPACK
    accepts any positive pivot, so the threshold is checked on the factor's
    diagonal afterwards; the first failing pivot in column order is reported.
    """
    a = symmetrize(m)
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    threshold = _PIVOT_RTOL * max(float(np.max(np.diag(a))), 0.0)
    lower, info = lapack.dpotrf(a, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    factored = n if info == 0 else info - 1
    pivots = np.diag(lower)[:factored] ** 2
    small = np.flatnonzero(pivots <= threshold)
    if small.size:
        raise NotPositiveDefiniteError(small[0], pivots[small[0]])
    if info > 0:
        row = lower[factored, :factored]
        raise NotPositiveDefiniteError(factored, a[factored, factored] - row @ row)
    return lower


def _inverse_from_factor(lower):
    """Exactly symmetric inverse of ``L L'`` from its lower Cholesky factor."""
    inv = cho_solve((lower, True), np.eye(lower.shape[0]))
    return (inv + inv.T) / 2.0


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
        data.setflags(write=False)
        self._data = data
        self._d = block_dim
        self._norms = None
        self._spd_checked = False

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
            n, d = self.n_blocks, self._d
            b = self._data.reshape(n, d, n, d)
            norms = np.sqrt(np.einsum("iajb,iajb->ij", b, b))
            norms.setflags(write=False)
            self._norms = norms
        return self._norms

    def _require_spd(self):
        """Run the :func:`cholesky_spd` check on the whole matrix, once per
        matrix; raises :class:`NotPositiveDefiniteError` on every call while
        it fails."""
        if not self._spd_checked:
            cholesky_spd(self._data)
            self._spd_checked = True

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
        self._factor = cholesky_spd(sym)  # raises NotPositiveDefiniteError
        self._precision = None
        self._cov = BlockMatrix(sym, bm.block_dim)
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
            self._precision = BlockMatrix(
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


def schur_complement(a: BlockMatrix, split: int, keep: Keep) -> BlockMatrix:
    """Block Schur complement of an SPD matrix, i.e. a marginal precision.

    For a symmetric positive definite ``a`` partitioned at block index
    ``split``, returns the Schur complement that retains the leading blocks
    ``0..split`` (``keep=Keep.LEADING``) or the trailing blocks ``split..N``
    (``keep=Keep.TRAILING``).  When ``a`` is the precision matrix of a
    Gaussian law, the result is exactly the precision of the marginal law on
    the retained times.

    Parameters
    ----------
    a : BlockMatrix
        Symmetric positive definite, with N+1 block rows.
    split : int
        Partition index, ``1 <= split <= N``.  ``Keep.LEADING`` with
        ``split == N`` degenerately returns ``a`` itself.
    keep : Keep
        Which side survives.

    Returns
    -------
    BlockMatrix
        The (symmetric positive definite) complement on the retained blocks.
    """
    n_last = a.n_blocks - 1
    if not 1 <= split <= n_last:
        raise ValueError(f"split must be in [1, {n_last}], got {split}")
    d = a.block_dim
    mat = symmetrize(a.data)
    cholesky_spd(mat)  # full SPD check up front, with pivot location
    if keep is Keep.LEADING:
        cut = (split + 1) * d
        kept, dropped = slice(0, cut), slice(cut, mat.shape[0])
    else:
        cut = split * d
        kept, dropped = slice(cut, mat.shape[0]), slice(0, cut)
    a_kk = mat[kept, kept]
    a_kd = mat[kept, dropped]
    if a_kd.shape[1] == 0:
        return BlockMatrix(a_kk, d)
    lower = cholesky_spd(mat[dropped, dropped])
    comp = a_kk - a_kd @ cho_solve((lower, True), a_kd.T)
    return BlockMatrix((comp + comp.T) / 2.0, d)


def marginal_precisions(a: BlockMatrix, keep: Keep):
    """Marginal precisions of every boundary-anchored interval, one sweep.

    Eliminates one time at a time from the SPD matrix ``a`` (N+1 block
    rows): times ``N, N-1, ...`` for ``keep=Keep.LEADING``, times
    ``0, 1, ...`` for ``keep=Keep.TRAILING``.  ``a`` first gets the same
    whole-matrix SPD check as in :func:`schur_complement`, run once per
    matrix however many sweeps read it.  Each elimination is then a rank-d
    Schur update whose ``d x d`` pivot is factorized by :func:`cholesky_spd`,
    so either check raises :class:`NotPositiveDefiniteError`.  The whole
    sweep costs O(N^3 d^3), against O(N^4 d^3) for one
    :func:`schur_complement` per interval.

    Yields
    ------
    (IndexInterval, BlockMatrix)
        ``[0, k]`` for ``k = N-1, ..., 1`` (leading) or ``[k, N]`` for
        ``k = 1, ..., N-1`` (trailing), with ``schur_complement(a, k, keep)``
        up to rounding.  Each matrix is a fresh copy; only one working
        matrix the size of ``a`` is held while the sweep runs.
    """
    d = a.block_dim
    n_last = a.n_blocks - 1
    if n_last < 2:
        return
    a._require_spd()
    work = np.array(a.data)
    for step in range(n_last - 1):
        if keep is Keep.LEADING:
            t = n_last - step
            rest, interval = slice(0, t * d), IndexInterval(0, t - 1)
        else:
            t = step
            rest, interval = slice((t + 1) * d, None), IndexInterval(t + 1, n_last)
        pivot = slice(t * d, (t + 1) * d)
        lower = cholesky_spd(work[pivot, pivot])
        y, _ = lapack.dtrtrs(lower, work[pivot, rest], lower=1)
        kept = work[rest, rest]
        kept -= y.T @ y
        kept[...] = (kept + kept.T) / 2.0
        yield interval, BlockMatrix(kept, d)
