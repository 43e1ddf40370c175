"""Sparsity patterns of precision matrices and their detection.

Membership of a Gaussian law in the Markov / reciprocal / conditionally-Markov
families is equivalent to its precision matrix vanishing outside a specific
block-sparsity pattern:

* ``TRIDIAGONAL`` — block band ``|i - j| <= 1`` (Markov),
* ``CYCLIC_TRIDIAGONAL`` — band plus the two corner blocks ``(0, N)``,
  ``(N, 0)`` (reciprocal),
* ``CM_L`` — band plus a full last block column/row (conditioning on the last
  time),
* ``CM_F`` — band plus a full first block row/column starting at column 2
  (conditioning on the first time).

``detect`` measures how well a matrix conforms to a pattern: every block
outside the allowed support must be zero up to ``zero_tol`` relative to the
largest block norm of the matrix itself.  That normalization makes the
verdict invariant to a common rescaling of the matrix (not to a per-time
change of coordinates).  A matrix's block norms are one cached vectorized
pass, and each detection makes its ratio grid from them with
:func:`~cmseq.blocks._ratio_grid`, as the classifiers do.  The worst
off-support block is found with ``argmax`` over the ratios outside the
pattern's support grid; ties go to the first block in row-major order, and
a block ties with its transpose.  That read-only boolean grid is the one
place each pattern is written: ``_support_grid`` builds it by index
arithmetic, and :func:`allowed_support` and :func:`~cmseq.models.random_law`
read it too.  At most 1024 grids are cached, which bounds their memory; a
miss costs microseconds.  ``detect`` is the definition-level reference:
:mod:`~cmseq.classify` reads all four patterns off one grid and gives its
witnesses field for field.

``detect`` rejects an asymmetric or non-finite matrix with
:class:`~cmseq.blocks.NotSymmetricError`, on every call, but checks no
matrix the package builds exactly symmetric, such as a law's precision.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .blocks import BlockMatrix, Tolerance, _member, _ratio_grid

__all__ = [
    "PatternKind",
    "PatternSpec",
    "PatternWitness",
    "allowed_support",
    "detect",
]


class PatternKind(Enum):
    TRIDIAGONAL = "tridiagonal"
    CYCLIC_TRIDIAGONAL = "cyclic_tridiagonal"
    CM_L = "cm_l"
    CM_F = "cm_f"


@dataclass(frozen=True)
class PatternSpec:
    """A pattern kind instantiated for block indices ``0..n_last``."""

    kind: PatternKind
    n_last: int

    def __post_init__(self):
        _member(self.kind, PatternKind)
        if operator.index(self.n_last) < 1:  # TypeError for a non-integer
            raise ValueError("n_last must be >= 1")

    @classmethod
    def tridiagonal(cls, n_last):
        return cls(PatternKind.TRIDIAGONAL, n_last)

    @classmethod
    def cyclic_tridiagonal(cls, n_last):
        return cls(PatternKind.CYCLIC_TRIDIAGONAL, n_last)

    @classmethod
    def cm_l(cls, n_last):
        return cls(PatternKind.CM_L, n_last)

    @classmethod
    def cm_f(cls, n_last):
        return cls(PatternKind.CM_F, n_last)


@dataclass(frozen=True)
class PatternWitness:
    """Outcome of a pattern check.

    ``conforms`` is the verdict; ``worst_block`` and ``worst_ratio`` identify
    the largest off-pattern block (by Frobenius norm relative to the largest
    block in the matrix; the first in row-major order among equals), or
    ``(None, 0.0)`` when every off-pattern block is zero or the pattern has no
    off-pattern positions at this size.
    """

    conforms: bool
    worst_block: tuple[int, int] | None
    worst_ratio: float


def allowed_support(spec: PatternSpec) -> frozenset[tuple[int, int]]:
    """The set of block positions ``(i, j)`` a pattern allows to be nonzero."""
    return frozenset(map(tuple, np.argwhere(_support_grid(spec)).tolist()))


def detect(m: BlockMatrix, spec: PatternSpec, tol: Tolerance = Tolerance()) -> PatternWitness:
    """Check whether a symmetric block matrix conforms to a sparsity pattern.

    Parameters
    ----------
    m : BlockMatrix
        Symmetric matrix (typically a precision or a Schur complement of one).
    spec : PatternSpec
        Pattern sized to the same block range (``spec.n_last ==
        m.n_blocks - 1``).
    tol : Tolerance
        ``zero_tol`` bounds the allowed relative Frobenius norm of
        off-pattern blocks.

    Returns
    -------
    PatternWitness
    """
    n_last = m.n_blocks - 1
    if spec.n_last != n_last:
        raise ValueError(
            f"pattern sized for n_last={spec.n_last} but matrix has n_last={n_last}"
        )
    return _witness(np.where(_support_grid(spec), 0.0, _ratio_grid(m)), tol)


def _witness(ratios, tol, offset=0):
    """The witness of a grid of ratios, zero where the pattern allows a
    block: its first maximum in row-major order, at block ``(i + offset,
    j + offset)`` for grid entry ``(i, j)``."""
    flat = ratios.argmax()
    worst_ratio = ratios.item(flat)
    i, j = divmod(flat.item(), ratios.shape[1])
    worst_block = (i + offset, j + offset) if worst_ratio > 0 else None
    return PatternWitness(worst_ratio <= tol.zero_tol, worst_block, worst_ratio)


@lru_cache(maxsize=1024)
def _support_grid(spec: PatternSpec):
    """Read-only boolean grid, true where the pattern allows a nonzero block."""
    grid = np.eye(spec.n_last + 1, dtype=bool)
    i = np.arange(spec.n_last)
    grid[i, i + 1] = grid[i + 1, i] = True  # the band |i - j| <= 1
    if spec.kind is PatternKind.CYCLIC_TRIDIAGONAL:
        grid[0, -1] = grid[-1, 0] = True
    elif spec.kind is PatternKind.CM_L:
        grid[-1] = grid[:, -1] = True
    elif spec.kind is PatternKind.CM_F:
        grid[0] = grid[:, 0] = True
    grid.setflags(write=False)
    return grid
