"""Core block linear algebra: Cholesky, SPD inverse, Schur complements."""

import dataclasses
import json
import random
import subprocess
import sys
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmseq import (
    BlockMatrix,
    ConditioningSide,
    IndexInterval,
    LawClass,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SequenceLaw,
    Tolerance,
    cholesky_spd,
    invert_spd,
    random_law,
    symmetrize,
)
from cmseq import blocks, classify
from cmseq.blocks import _block_norms, _cholesky_stack, _inverse_from_factor
from cmseq.fixtures import ar1_covariance, ar1_law, cyclic_example_law


LEADING, TRAILING = "leading", "trailing"  # which block range a complement keeps


def schur_complement(a: BlockMatrix, split: int, keep: str) -> BlockMatrix:
    """Reference block Schur complement, formed directly for one split.

    Returns the marginal precision of blocks ``0..split``
    (``keep=LEADING``) or ``split..N`` (``keep=TRAILING``) of the SPD
    ``a``, after the whole-matrix :func:`cholesky_spd` check.  The
    elimination sweep must match it on every interval.
    """
    n_last = a.n_blocks - 1
    if not 1 <= split <= n_last:
        raise ValueError(f"split must be in [1, {n_last}], got {split}")
    d = a.block_dim
    mat = symmetrize(a.data)
    cholesky_spd(mat)
    if keep == LEADING:
        cut = (split + 1) * d
        kept, dropped = slice(0, cut), slice(cut, mat.shape[0])
    else:
        cut = split * d
        kept, dropped = slice(cut, mat.shape[0]), slice(0, cut)
    a_kd = mat[kept, dropped]
    if a_kd.shape[1] == 0:
        return BlockMatrix(mat[kept, kept], d)
    comp = mat[kept, kept] - a_kd @ np.linalg.solve(mat[dropped, dropped], a_kd.T)
    return BlockMatrix((comp + comp.T) / 2.0, d)


def unblocked_first_failing_pivot(m):
    """Index of the first pivot of an unblocked, scalar, left-looking
    Cholesky of ``m`` that is not above ``1e-12 * m[j][j]``, or None."""
    n = len(m)
    lower = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = m[j][j] - sum(lower[j][k] ** 2 for k in range(j))
        if not pivot > 1e-12 * m[j][j]:
            return j
        lower[j][j] = pivot**0.5
        for i in range(j + 1, n):
            dot = sum(lower[i][k] * lower[j][k] for k in range(j))
            lower[i][j] = (m[i][j] - dot) / lower[j][j]
    return None


def test_ar1_precision_has_known_tridiagonal_entries():
    # inverse of (a^|i-j|)_{ij} is tridiagonal: 1/(1-a^2) at the corners,
    # (1+a^2)/(1-a^2) inside, -a/(1-a^2) on the off-diagonal
    a = 0.5
    s = 1.0 - a * a
    law = ar1_law(3, a)
    expected = np.array(
        [
            [1.0 / s, -a / s, 0.0, 0.0],
            [-a / s, (1 + a * a) / s, -a / s, 0.0],
            [0.0, -a / s, (1 + a * a) / s, -a / s],
            [0.0, 0.0, -a / s, 1.0 / s],
        ]
    )
    np.testing.assert_allclose(law.precision().data, expected, atol=1e-13)


def test_cholesky_matches_numpy_on_spd_input():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    spd = m @ m.T + 6.0 * np.eye(6)
    np.testing.assert_allclose(cholesky_spd(spd), np.linalg.cholesky(spd), atol=1e-12)


def test_cholesky_reports_failing_pivot_index():
    bad = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_spd(bad)
    assert exc.value.pivot_index == 1
    assert exc.value.pivot_value < 0

    # indefinite only once the earlier pivots have been eliminated
    sneaky = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_spd(sneaky)
    assert exc.value.pivot_index == 1


def test_cholesky_rejects_pivot_below_relative_threshold():
    """LAPACK factorizes this matrix (its second pivot is 1e-14 > 0), but the
    pivot is below 1e-12 times its own diagonal entry and must be reported."""
    tiny = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    np.linalg.cholesky(tiny)  # accepted by LAPACK
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_spd(tiny)
    assert exc.value.pivot_index == 1
    assert exc.value.pivot_value > 0


@settings(max_examples=60, deadline=None)
@given(
    pivots=st.lists(st.sampled_from([1.0, 0.5, 2.0, 0.0, -0.5, -1.0]), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_cholesky_reports_first_failing_pivot_of_indefinite_input(pivots, seed):
    """A = U D U' with U unit lower triangular has Cholesky pivots D, so the
    first pivot that is zero or negative is known exactly.  numpy either
    fails there (LinAlgError) or accepts a rounding-level pivot; either way
    cholesky_spd raises NotPositiveDefiniteError at that index."""
    assume(min(pivots) <= 0.0)
    n = len(pivots)
    rng = np.random.default_rng(seed)
    u = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1) + np.eye(n)
    m = u @ np.diag(pivots) @ u.T
    expected = next(j for j, p in enumerate(pivots) if p <= 0.0)
    assert unblocked_first_failing_pivot(m) == expected
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_spd(m)
    assert exc.value.pivot_index == expected
    assert exc.value.pivot_value <= 1e-12 * m[expected, expected]


def nearly_singular(n, seed, collinear):
    """``b b'`` for a standard normal ``n x n`` matrix ``b`` whose row p is
    row q plus ``10**collinear`` times itself, for two random rows: at the
    later of the two, the pivot is about ``10**(2 * collinear)`` of its own
    diagonal entry."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    p, q = rng.choice(n, 2, replace=False)
    b[p] = b[q] + 10.0**collinear * b[p]
    m = b @ b.T
    return (m + m.T) / 2.0


def factor_or_failing_index(m):
    try:
        return cholesky_spd(m)
    except NotPositiveDefiniteError as err:
        return err.pivot_index


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    collinear=st.floats(min_value=-9.0, max_value=-4.0),
    exponents=st.lists(st.integers(min_value=-30, max_value=30), min_size=8, max_size=8),
)
def test_a_power_of_two_rescaling_changes_no_verdict_and_no_bit_of_the_factor(
    n, seed, collinear, exponents
):
    """For a diagonal ``D`` of powers of two, ``D m D`` raises exactly where
    ``m`` does, at the same pivot, and otherwise has the factor ``D L`` bit
    for bit: each pivot is judged against its own diagonal entry, which ``D``
    scales exactly as it scales the pivot.  ``m`` is nearly singular, so its
    pivots fall on both sides of the threshold."""
    m = nearly_singular(n, seed, collinear)
    scale = np.ldexp(1.0, exponents[:n])
    want = factor_or_failing_index(m)
    got = factor_or_failing_index(scale[:, None] * m * scale)
    if isinstance(want, int):
        assert got == want
    else:
        assert not isinstance(got, int)
        assert got.tobytes() == (scale[:, None] * want).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_fails_the_spd_and_symmetry_checks(bad):
    m = np.array([[bad, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check computes nothing non-finite
        with pytest.raises(NotSymmetricError, match="^matrix has non-finite entries$"):
            symmetrize(m)
    with pytest.raises((NotSymmetricError, NotPositiveDefiniteError)):
        SequenceLaw(m, 1)
    with pytest.raises((NotSymmetricError, NotPositiveDefiniteError)):
        invert_spd(m)


def test_import_loads_no_scipy():
    """The kernel is numpy only: the CLI's start-up loads no scipy module."""
    code = "import sys, cmseq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cholesky_rejects_asymmetric_input():
    with pytest.raises(NotSymmetricError):
        cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_symmetrize_judges_a_matrix_whose_norm_overflows_by_the_same_rule():
    """||m|| and ||m - m'|| both overflow here, and inf <= 1e-12 * inf
    would accept any such matrix."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetricError, match="not symmetric"):
            symmetrize([[1e160, 0.0], [5e159, 1e160]])
        with pytest.raises(NotSymmetricError):
            SequenceLaw(np.array([[1e160, 0.0], [5e159, 1e160]]), 1)
        big = 1e160 * cyclic_example_law().covariance.data
        assert np.array_equal(symmetrize(big), big)
        SequenceLaw(big, cyclic_example_law().dim)


def test_symmetrize_accepts_roundoff_asymmetry():
    m = np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]])
    out = symmetrize(m)
    np.testing.assert_allclose(out, out.T)


def test_the_symmetric_part_does_not_overflow():
    """Past about 9e307, m + m' overflows: those entries sum the halves
    instead, and every other entry keeps the bits of (m + m') / 2."""
    diag = np.diag([1e308, 1e308])
    near = np.array([[1e308, 1e300], [1e300 * (1 + 1e-15), 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(symmetrize(diag), diag)
        assert np.array_equal(SequenceLaw(diag, 1).covariance.data, diag)
        off = (near[0, 1] + near[1, 0]) / 2
        assert np.array_equal(symmetrize(near), [[1e308, off], [off, 1e308]])
        law = SequenceLaw(near, 1)  # SPD: it must not read an inf pivot
        assert np.array_equal(law.covariance.data, [[1e308, off], [off, 1e308]])
        assert np.isfinite(law.precision().data).all()
        big = BlockMatrix(np.diag([1e308] * 4), 1)  # unmarked
        for iv, delta in sweep_marginals(big):
            assert np.array_equal(delta, np.diag([1e308] * (iv.hi - iv.lo + 1)))


def test_an_inverse_past_the_largest_finite_sum_does_not_overflow():
    """The inverse of diag(1e-308, 1e-308) holds 1e308 on its diagonal,
    where inv + inv' overflows: the symmetric part sums the halves there."""
    huge = np.diag([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(invert_spd(np.diag([1e-308, 1e-308])), huge)
        assert np.array_equal(SequenceLaw(np.diag([1e-308, 1e-308]), 1).precision().data, huge)


def test_invert_spd_is_exact_inverse_and_symmetric():
    m = ar1_covariance(4)
    inv = invert_spd(m)
    np.testing.assert_allclose(inv @ m, np.eye(5), atol=1e-12)
    assert np.array_equal(inv, inv.T)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_invert_spd_double_inversion_property(n, seed):
    """inv(inv(A)) == A for diagonally dominant symmetric A."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, np.abs(m).sum(axis=1) + 1.0)
    np.testing.assert_allclose(invert_spd(invert_spd(m)), m, rtol=1e-9, atol=1e-9)


def random_spd_stack(k, n, seed):
    """``k`` exactly symmetric, well conditioned ``n x n`` SPD matrices."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, n, n))
    m = b @ b.swapaxes(1, 2) + n * np.eye(n)
    return (m + m.swapaxes(1, 2)) / 2.0


def check_threshold(pivots, diag):
    passed = pivots > 1e-12 * diag
    if not passed.all():
        small = np.flatnonzero(~passed)[0]
        raise NotPositiveDefiniteError(small, pivots[small])


def reference_cholesky(m):
    """The per-matrix reference, one matrix alone: symmetrize, LAPACK, where
    LAPACK fails a bisection over leading blocks for the failing pivot, and
    the threshold of ``1e-12`` times each pivot's own diagonal entry."""
    a = symmetrize(m)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        lo, hi = 0, len(a)  # a[:lo, :lo] factorizes, a[:hi, :hi] does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                np.linalg.cholesky(a[:mid, :mid])
                lo = mid
            except np.linalg.LinAlgError:
                hi = mid
        lower = np.linalg.cholesky(a[:lo, :lo])
        check_threshold(np.diag(lower) ** 2, np.diag(a)[:lo])
        row = np.linalg.solve(lower, a[:lo, lo])
        raise NotPositiveDefiniteError(lo, a[lo, lo] - row @ row) from None
    check_threshold(np.diag(lower) ** 2, np.diag(a))
    return lower


def stacked_results(stack):
    lower = _cholesky_stack(stack)
    return lower, _inverse_from_factor(lower)


def per_matrix_results(stack):
    """The reference on each matrix in order, and each inverse from its
    factor by two triangular solves."""
    lowers = [reference_cholesky(m) for m in stack]
    invs = [np.linalg.solve(low.T, np.linalg.solve(low, np.eye(len(low)))) for low in lowers]
    return np.stack(lowers), np.stack([(inv + inv.T) / 2.0 for inv in invs])


def raised(fn, *args):
    with pytest.raises((NotPositiveDefiniteError, NotSymmetricError)) as err:
        fn(*args)
    e = err.value
    return type(e), str(e), getattr(e, "pivot_index", None), getattr(e, "pivot_value", None)


@contextmanager
def lapack_calls():
    """The shapes of the ``np.linalg.cholesky`` calls made inside it."""
    calls = []
    cholesky = np.linalg.cholesky
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", lambda a: calls.append(np.shape(a)) or cholesky(a))
        yield calls


STACK_SIZES = dict(
    k=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@settings(max_examples=80, deadline=None)
@given(**STACK_SIZES)
def test_stacked_factors_and_inverses_match_the_per_matrix_calls(k, n, seed):
    """Bit for bit, from exactly one (stacked) LAPACK call."""
    stack = random_spd_stack(k, n, seed)
    with lapack_calls() as calls:
        lower, inv = stacked_results(stack)
    assert calls == [(k, n, n)]
    want_lower, want_inv = per_matrix_results(stack)
    assert lower.tobytes() == want_lower.tobytes()
    assert inv.tobytes() == want_inv.tobytes()


@pytest.mark.parametrize("spd", [cholesky_spd, invert_spd])
def test_a_single_matrix_is_a_stack_of_one(spd):
    m = random_spd_stack(1, 4, seed=3)[0]
    with lapack_calls() as calls:
        got = spd(m)
    assert calls == [(1, 4, 4)]
    lower, inv = per_matrix_results(m[None])
    assert got.tobytes() == (lower if spd is cholesky_spd else inv)[0].tobytes()


def failing_stack(k, n, seed, where, kind, later):
    """A stack whose matrix ``where % k`` fails as ``kind``, and, where
    there is room after it, whose last matrix fails as ``later``."""
    stack = random_spd_stack(k, n, seed)
    j, p = where % k, seed % n
    if kind == "indefinite":
        stack[j, p, p] = -1.0  # leading pivots pass, pivot p fails
    elif kind == "nan":
        stack[j, p, p] = np.nan
    elif kind == "tiny":
        # x_p becomes x_q + 2e-7 x_p, q = p - 1 (mod n): at the later of
        # the two, LAPACK accepts a pivot of 5e-15 to 3e-13 of its diagonal
        # entry, and the threshold does not
        mix = np.eye(n)
        mix[p, (p - 1) % n], mix[p, p] = 1.0, 2e-7
        m = mix @ stack[j] @ mix.T
        stack[j] = (m + m.T) / 2.0
    else:
        stack[j, 0, n - 1] += 1.0
    if later == "indefinite" and j + 1 < k:
        stack[k - 1, 0, 0] = -2.0
    elif later == "asymmetric" and j + 1 < k:
        stack[k - 1, n - 1, 0] += 1.0
    return stack, j


@settings(max_examples=100, deadline=None)
@given(
    **STACK_SIZES,
    where=st.integers(min_value=0, max_value=8),
    kind=st.sampled_from(["indefinite", "nan", "tiny", "asymmetric"]),
    later=st.sampled_from([None, "indefinite", "asymmetric"]),
)
def test_a_failing_member_raises_what_the_per_matrix_loop_raises(k, n, seed, where, kind, later):
    """Same type, message and pivot, from the first failing matrix, which
    the error names by its position; with ``later`` a second, different
    failure follows it in the stack (an indefinite matrix raises before a
    later asymmetric one)."""
    assume(n >= 2 or (kind in ("indefinite", "nan") and later != "asymmetric"))
    stack, j = failing_stack(k, n, seed, where, kind, later)
    assert raised(stacked_results, stack) == raised(per_matrix_results, stack)
    with pytest.raises((NotPositiveDefiniteError, NotSymmetricError)) as err:
        _cholesky_stack(stack)
    assert err.value.position == j


@pytest.mark.parametrize("kind", ["indefinite", "nan", "tiny", "asymmetric"])
@pytest.mark.parametrize("k,n", [(1, 3), (3, 3), (4, 2)])
def test_a_failing_member_raises_the_same_under_numpy_1_solve(k, n, kind, request):
    """The failure path's bisection solves one vector right-hand side."""
    stack, _ = failing_stack(k, n, seed=k + n, where=k - 1, kind=kind, later=None)
    want = raised(per_matrix_results, stack)
    request.getfixturevalue("numpy1_solve")
    assert raised(stacked_results, stack) == want


@settings(max_examples=60, deadline=None)
@given(**STACK_SIZES, where=st.integers(min_value=0, max_value=8))
def test_a_nearly_symmetric_stack_gives_the_symmetrized_results(k, n, seed, where):
    """One entry off by an ulp: symmetrize accepts the gap, and the stack
    gets what the reference gives each matrix symmetrized."""
    assume(n >= 2)
    stack = random_spd_stack(k, n, seed)
    m = stack[where % k]
    m[0, n - 1] = np.nextafter(m[0, n - 1], np.inf)
    assert 0 < np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)
    lower, inv = stacked_results(stack)
    want_lower, want_inv = per_matrix_results(stack)
    assert lower.tobytes() == want_lower.tobytes()
    assert inv.tobytes() == want_inv.tobytes()


@pytest.mark.parametrize("k,n", [(1, 1), (3, 3), (4, 2), (2, 5)])
def test_stacked_results_are_the_same_under_numpy_1_solve(k, n, numpy1_solve):
    """Also where the stack holds as many matrices as each has rows, which
    numpy 1.x would read without error but wrongly."""
    stack = random_spd_stack(k, n, seed=k * n)
    lower, inv = stacked_results(stack)
    want_lower, want_inv = per_matrix_results(stack)
    assert lower.tobytes() == want_lower.tobytes()
    assert inv.tobytes() == want_inv.tobytes()


def test_block_matrix_addressing_and_immutability():
    data = np.arange(16, dtype=float).reshape(4, 4)
    data = data + data.T  # symmetric, not required but tidy
    bm = BlockMatrix(data, 2)
    assert bm.n_blocks == 2
    assert bm.shape == (4, 4)
    np.testing.assert_array_equal(bm.block(0, 1), data[0:2, 2:4])
    assert bm.block_norms()[1, 0] == pytest.approx(np.linalg.norm(data[2:4, 0:2]))
    assert bm.max_block_norm() == pytest.approx(
        max(np.linalg.norm(data[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]) for i in (0, 1) for j in (0, 1))
    )
    with pytest.raises(ValueError):
        bm.data[0, 0] = 99.0  # the backing array is frozen
    blk = bm.block(0, 0)
    blk[0, 0] = -1.0  # returned blocks are copies
    assert bm.data[0, 0] != -1.0
    with pytest.raises(IndexError):
        bm.block(2, 0)


def einsum_block_norms(data, d):
    """The reference norm pass: numpy's einsum over each matrix's blocks."""
    if data.ndim == 3:
        return np.stack([einsum_block_norms(m, d) for m in data])
    n = data.shape[0] // d
    b = data.reshape(n, d, n, d)
    return np.sqrt(np.einsum("iajb,iajb->ij", b, b))


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=7),
    n=st.integers(min_value=2, max_value=9),
    stack=st.sampled_from([None, 1, 2, 3]),
    spread=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_the_norm_chain_has_the_bits_of_the_einsum_pass(d, n, stack, spread, seed):
    """Up to d = 7 the add chain sums each block in einsum's order: the same
    bits on one matrix and on each matrix of a stack, for entries from
    1e-150 to 1e150, one scale per matrix or one per entry.  (A grid of one
    block is left out: einsum sums its block as one flat run.)"""
    rng = np.random.default_rng(seed)
    shape = (n * d, n * d) if stack is None else (stack, n * d, n * d)
    scale = 10.0 ** rng.uniform(-150, 150, shape if spread else shape[:-2] + (1, 1))
    data = rng.standard_normal(shape) * scale
    norms = _block_norms(data, d)
    assert not norms.flags.writeable
    assert norms.tobytes() == einsum_block_norms(data, d).tobytes()


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("big", [1e155, 1e200, 1e-170, 1e-200])
def test_the_norm_chain_overflows_and_underflows_as_the_einsum_pass(d, big):
    """Entries whose squares overflow give inf, and entries whose squares
    underflow give 0 (or the same subnormal sum), as the einsum pass does."""
    rng = np.random.default_rng(d)
    data = rng.standard_normal((2, 3 * d, 3 * d)) * big
    data[0, :d, :d] = 0.0  # a zero block next to the out-of-range ones
    norms = _block_norms(data, d)
    want = einsum_block_norms(data, d)
    assert norms.tobytes() == want.tobytes()
    assert norms[0, 0, 0] == 0.0
    if big > 1:
        assert np.isinf(norms[0, 1:, 1:]).all()
    else:
        assert (norms < 1e-150).all()


@pytest.mark.parametrize("d", [8, 9])
def test_the_norm_chain_is_each_blocks_norm_past_einsums_order(d):
    """At d >= 8 einsum unrolls its loop and the bits may part; every norm is
    still each block's Frobenius norm to rounding."""
    rng = np.random.default_rng(d)
    n = 4
    data = rng.standard_normal((2, n * d, n * d)) * 10.0 ** rng.uniform(-100, 100, (2, 1, 1))
    norms = _block_norms(data, d)
    each = data.reshape(2, n, d, n, d).transpose(0, 1, 3, 2, 4)
    rtol = d * d * np.finfo(float).eps  # bounds any order of summing d*d squares
    np.testing.assert_allclose(norms, np.linalg.norm(each, axis=(-2, -1)), rtol=rtol, atol=0)
    np.testing.assert_allclose(norms, einsum_block_norms(data, d), rtol=rtol, atol=0)
    assert not np.array_equal(norms, einsum_block_norms(data, d))  # the orders do part here


def one_grid_ratios(norms):
    """The reference ratio rule, on one grid of block norms."""
    norms = np.maximum(norms, norms.T)
    scale = norms.max()
    return norms / scale if scale > 0 else np.zeros_like(norms)


@pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
def test_the_ratios_of_a_stack_are_each_grids_own(fill):
    """A stack's ratio grids are those of each grid alone, bit for bit, also
    next to an all-zero grid (all zero ratios), a NaN grid (all zero, as
    its scale is not above 0) or an inf one (NaN, as inf / inf)."""
    norms = np.random.default_rng(0).random((3, 5, 5))
    norms[1] = fill
    with np.errstate(invalid="ignore"):
        got = blocks._ratios(norms)
        want = np.stack([one_grid_ratios(grid) for grid in norms])
    assert got.tobytes() == want.tobytes()


def test_block_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BlockMatrix(np.zeros((3, 4)), 1)
    with pytest.raises(ValueError):
        BlockMatrix(np.zeros((4, 4)), 3)
    with pytest.raises(ValueError):
        BlockMatrix(np.zeros((4, 4)), 0)


def test_block_matrix_from_blocks_round_trip():
    blocks = [[np.full((2, 2), i * 10 + j) for j in range(3)] for i in range(3)]
    bm = BlockMatrix.from_blocks(blocks)
    assert bm.n_blocks == 3 and bm.block_dim == 2
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(bm.block(i, j), blocks[i][j])


def test_sequence_law_validation():
    with pytest.raises(NotSymmetricError):
        SequenceLaw(np.array([[1.0, 0.3], [0.0, 1.0]]), 1)
    with pytest.raises(NotPositiveDefiniteError):
        SequenceLaw(np.diag([1.0, -2.0]), 1)
    with pytest.raises(ValueError):
        SequenceLaw(np.eye(2), 2)  # a single time is not a sequence
    law = SequenceLaw(ar1_covariance(2), 1)
    assert law.n_last == 2 and law.dim == 1


def test_sequence_law_precision_round_trip():
    law = ar1_law(4)
    again = SequenceLaw.from_precision(law.precision())
    np.testing.assert_allclose(again.covariance.data, law.covariance.data, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n_last=st.integers(1, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    given_as=st.sampled_from(["ndarray", "unmarked", "marked"]),
)
def test_a_law_keeps_the_matrix_it_was_given(n_last, d, seed, given_as):
    """A law made from a precision holds that precision's bits, the very
    object if it is a marked BlockMatrix, and derives the covariance that
    invert_spd gives; a law made from a covariance derives the precision
    that invert_spd gives."""
    b = np.random.default_rng(seed).standard_normal(((n_last + 1) * d,) * 2)
    m = b @ b.T + np.eye(len(b))
    m = (m + m.T) / 2.0  # exactly symmetric
    arg = {
        "ndarray": m,
        "unmarked": BlockMatrix(m, d),
        "marked": BlockMatrix._formed(m, d),
    }[given_as]
    law = SequenceLaw.from_precision(arg, d)
    assert law.precision().data.tobytes() == m.tobytes()
    assert (law.precision() is arg) == (given_as == "marked")
    assert law.covariance.data.tobytes() == invert_spd(m).tobytes()
    assert law.covariance is law.covariance and law._factor is None
    assert (law.n_last, law.dim) == (n_last, d)
    law = SequenceLaw(arg, d)
    assert law.precision().data.tobytes() == invert_spd(m).tobytes()
    assert law.precision() is law.precision() and law._factor is None
    assert law.covariance.data.tobytes() == m.tobytes()
    assert (law.covariance is arg) == (given_as == "marked")


@pytest.mark.parametrize("given_as", ["ndarray", "unmarked", "marked"])
@pytest.mark.parametrize("make", [SequenceLaw, SequenceLaw.from_precision], ids=["covariance", "precision"])
def test_a_law_forms_each_symmetric_part_once(monkeypatch, make, given_as):
    """A law takes the symmetric part of an unmarked given matrix once, at
    construction, and of its derived matrix once, when first asked for: a
    marked matrix is already its own part, and so is each part formed."""
    m = random_law(LawClass.GENERIC, 5, 2, 0).covariance.data
    arg = {"ndarray": m, "unmarked": BlockMatrix(m, 2), "marked": BlockMatrix._formed(m, 2)}[given_as]
    calls = []
    part = blocks._symmetric_part
    monkeypatch.setattr(blocks, "_symmetric_part", lambda x: calls.append(x.shape) or part(x))
    law = make(arg, 2)
    formed = [] if given_as == "marked" else [m.shape]
    assert calls == formed
    for _ in range(2):
        law.covariance, law.precision()
        assert calls == formed + [m.shape]


def test_a_single_time_is_refused_before_any_factorization(monkeypatch):
    calls = []
    monkeypatch.setattr(blocks, "_cholesky_stack", lambda *args: calls.append(args))
    for make in (SequenceLaw, SequenceLaw.from_precision):
        with pytest.raises(ValueError, match="at least two times"):
            make(np.eye(2), 2)
        with pytest.raises(ValueError, match="at least two times"):
            make(np.diag([1.0, -2.0]), 2)
    assert calls == []


def test_schur_complement_hand_example():
    a = BlockMatrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]), 1)
    lead = schur_complement(a, 1, LEADING)
    np.testing.assert_allclose(lead.data, [[2.0, 1.0], [1.0, 2.75]], atol=1e-14)
    trail = schur_complement(a, 1, TRAILING)
    np.testing.assert_allclose(trail.data, [[2.5, 1.0], [1.0, 4.0]], atol=1e-14)


def test_schur_complement_degenerate_keep_all():
    a = BlockMatrix(ar1_covariance(2), 1)
    out = schur_complement(a, 2, LEADING)
    np.testing.assert_array_equal(out.data, a.data)


def test_schur_complement_split_range():
    a = BlockMatrix(ar1_covariance(2), 1)
    with pytest.raises(ValueError):
        schur_complement(a, 0, LEADING)
    with pytest.raises(ValueError):
        schur_complement(a, 3, TRAILING)


@pytest.mark.parametrize("keep,split", [(LEADING, 2), (TRAILING, 2)])
def test_schur_complement_is_marginal_precision(keep, split):
    """Schur complement of the precision == precision of the marginal law.

    This duality is what makes interval classification work, so it gets its
    own direct check against a brute-force submatrix inverse.
    """
    law = ar1_law(4, a=0.37)
    prec = law.precision()
    comp = schur_complement(prec, split, keep)
    if keep == LEADING:
        kept = slice(0, split + 1)
    else:
        kept = slice(split, 5)
    sub_cov = law.covariance.data[kept, kept]
    np.testing.assert_allclose(comp.data, np.linalg.inv(sub_cov), atol=1e-11)


def random_spd_blocks(n_last, d, seed):
    rng = np.random.default_rng(seed)
    size = (n_last + 1) * d
    m = rng.standard_normal((size, size))
    return BlockMatrix(m @ m.T + size * np.eye(size), d)


def sweep_steps(a):
    """The ``(2, n, n)`` pair of each elimination step of ``a``, read off
    the chunks of the stacked sweep: each slot's pair, top left, with
    nothing but zeros after it."""
    d = a.block_dim
    for chunk in blocks._marginal_sweep(a):
        for b in range(chunk.shape[1]):
            live = chunk.shape[-1] - b * d
            pair = chunk[:, b]
            assert not pair[:, live:].any() and not pair[:, :, live:].any()
            yield pair[:, :live, :live]


def sweep_marginals(a):
    """``(interval, marginal precision)`` at every step of the stacked
    elimination sweep of ``a``, prefix then suffix, the prefix reversed
    back to time order."""
    d, n_last = a.block_dim, a.n_blocks - 1
    for k, kept in enumerate(sweep_steps(a), 1):
        yield IndexInterval(0, n_last - k), blocks._reverse_time(kept[0], d)
        yield IndexInterval(k, n_last), kept[1]


@settings(max_examples=40, deadline=None)
@given(
    n_last=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_marginal_sweep_matches_schur_complement(n_last, d, seed):
    """Every marginal of the one-time-at-a-time elimination sweep equals the
    direct block Schur complement of the same interval.  The input is off
    symmetric by one ulp, which the sweep averages away."""
    data = random_spd_blocks(n_last, d, seed).data.copy()
    data[-1, d] = np.nextafter(data[-1, d], np.inf)
    a = BlockMatrix(data, d)
    seen = []
    for interval, delta in sweep_marginals(a):
        seen.append(interval)
        if interval.lo == 0:
            ref = schur_complement(a, interval.hi, LEADING).data
        else:
            ref = schur_complement(a, interval.lo, TRAILING).data
        assert delta.shape == ref.shape
        assert np.array_equal(delta, delta.T)
        err = np.linalg.norm(delta - ref) / np.linalg.norm(ref)
        assert err <= 1e-10, (interval, err)
    assert seen == [
        iv
        for k in range(1, n_last)
        for iv in (IndexInterval(0, n_last - k), IndexInterval(k, n_last))
    ]


def test_a_pivot_above_its_own_diagonals_threshold_passes_every_route():
    """The last pivot is 1e-7 of its own diagonal entry, though 1e-13 of the
    largest one: the whole-matrix check, the sweep of both time directions
    and the reference Schur complements all accept the matrix."""
    r = np.sqrt(1.0 - 1e-7)
    a = BlockMatrix([[1e6, 0.0, 0.0], [0.0, 1.0, r], [0.0, r, 1.0]], 1)
    assert cholesky_spd(a.data)[2, 2] ** 2 == pytest.approx(1e-7, rel=1e-6)
    assert len(classify._interval_entries(a, Tolerance())) == 4
    for keep in (LEADING, TRAILING):
        schur_complement(a, 1, keep)


def test_leading_sweep_checks_each_pivot_against_its_own_diagonal():
    """The whole matrix passes its check in time order (its smallest pivot is
    1e-10 of its diagonal entry), but given x_3 the two components of x_2
    are nearly collinear: a pivot of 1e-14 against a diagonal of 1.  The
    error names the time reversal, position 0 of the sweep's stack; the
    trailing sweep never conditions x_2 on x_3."""
    eps, delta = 1e-5, 1e-2
    rows = np.eye(8)
    rows[5] = rows[4] + eps * (rows[6] + delta * rows[5])
    a = BlockMatrix(rows @ rows.T, 2)
    cholesky_spd(a.data)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        classify._interval_entries(a, Tolerance())
    assert exc.value.pivot_index == 5  # the row of a: time 2, component 1
    assert 0 < exc.value.pivot_value < 1e-12
    assert exc.value.position == 0


def test_leading_sweep_names_a_row_of_a_where_lapack_fails_the_reversed_matrix():
    """As above, with x_2's two components collinear given x_3 to 1e-22:
    LAPACK fails the time-reversed matrix, and the bisection's pivot is
    reported at the row of ``a``, not of its reversal."""
    rows = np.eye(8)
    rows[5] = rows[4] + 1e-5 * (rows[6] + 1e-6 * rows[5])
    a = BlockMatrix(rows @ rows.T, 2)
    cholesky_spd(a.data)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        classify._interval_entries(a, Tolerance())
    assert exc.value.pivot_index == 5
    assert exc.value.position == 0


def one_matrix_sweep(mat, lower, d):
    """The reference elimination steps of one matrix, with 2-D products."""
    work = mat
    for k in range(1, mat.shape[0] // d - 1):
        col = lower[k * d :, (k - 1) * d : k * d]
        work = work[d:, d:] - col @ col.T
        yield work


@settings(max_examples=60, deadline=None)
@given(
    n_last=st.integers(min_value=2, max_value=14),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_the_stacked_sweep_gives_each_matrix_the_bits_of_its_own_sweep(n_last, d, seed):
    """Both directions eliminated as one stack: every step's marginal, for
    each matrix, has the bits of that matrix's sweep alone."""
    a = random_law(LawClass.GENERIC, n_last, d, seed).precision()
    mats = [blocks._reverse_time(a.data, d), a.data]
    alone = [list(one_matrix_sweep(m, np.linalg.cholesky(m), d)) for m in mats]
    for budget in (blocks._CHUNK_BYTES, 0, 1 << 62):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocks, "_CHUNK_BYTES", budget)
            stacked = list(sweep_steps(a))
        assert len(stacked) == n_last - 1
        for step, work in enumerate(stacked):
            assert work.shape == (2, (n_last - step) * d, (n_last - step) * d)
            for i in range(2):
                assert work[i].tobytes() == alone[i][step].tobytes()


@pytest.mark.parametrize("budget", [None, 0, 1 << 62], ids=["shipped", "one-step", "one-chunk"])
@pytest.mark.parametrize("n_last, d", [(2, 1), (6, 2), (20, 2), (40, 2), (20, 4), (12, 8)])
def test_the_sweep_fills_each_chunk_with_the_steps_its_byte_budget_holds(n_last, d, budget):
    """A chunk of ``nb`` steps whose first marginals are ``n x n`` takes
    ``16 nb n^2`` bytes.  The sweep fills each chunk with as many steps as
    ``_CHUNK_BYTES`` holds, or what is left, and at least one.  So no
    budget, one step a chunk; an unbounded one, every step in one chunk."""
    a = random_law(LawClass.GENERIC, n_last, d, 0).precision()
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(blocks, "_CHUNK_BYTES", budget)
        budget = blocks._CHUNK_BYTES
        chunks = list(blocks._marginal_sweep(a))
    left, size = n_last - 1, n_last * d
    for chunk in chunks:
        slots = chunk.shape[1]
        assert chunk.shape == (2, slots, size, size)
        assert slots == max(1, min(budget // (16 * size * size), left))
        left, size = left - slots, size - slots * d
    assert left == 0
    if budget == 0:
        assert len(chunks) == n_last - 1
    if budget == 1 << 62:
        assert len(chunks) == 1


def test_sequence_law_caches_read_only_precision():
    law = ar1_law(3)
    prec = law.precision()
    assert law.precision() is prec
    with pytest.raises(ValueError):
        prec.data[0, 0] = 1.0


def test_index_interval_validation_and_endpoints():
    iv = IndexInterval(1, 4)
    assert iv.endpoint(ConditioningSide.FIRST) == 1
    assert iv.endpoint(ConditioningSide.LAST) == 4
    with pytest.raises(ValueError):
        IndexInterval(2, 2)
    with pytest.raises(ValueError):
        IndexInterval(-1, 3)


@pytest.mark.parametrize("lo,hi", [(1.5, 5), (0, 4.5), (0.0, 4), (np.float64(1), 3)])
def test_index_interval_rejects_a_non_integer_endpoint(lo, hi):
    with pytest.raises(TypeError):
        IndexInterval(lo, hi)


def test_index_interval_accepts_numpy_integers():
    iv = IndexInterval(np.int64(1), np.int32(4))
    assert iv == IndexInterval(1, 4)
    with pytest.raises(ValueError):
        IndexInterval(np.int64(3), np.int64(3))


def test_an_interval_of_numpy_integers_keeps_python_ints():
    """numpy integer endpoints were once kept as given, so
    ``json.dumps(dataclasses.asdict(...))`` raised "Object of type int64 is
    not JSON serializable"."""
    iv = IndexInterval(np.int64(0), np.int64(3))
    assert type(iv.lo) is int and type(iv.hi) is int
    assert json.dumps(dataclasses.asdict(iv)) == '{"lo": 0, "hi": 3}'
    assert hash(iv) == hash(IndexInterval(0, 3))


@pytest.mark.parametrize("block_dim", [2.5, 2.0, "2", np.float64(2)])
def test_a_block_dim_that_is_not_an_integer_is_rejected(block_dim):
    """A float or string block dimension is not truncated or parsed to a size."""
    with pytest.raises(TypeError):
        BlockMatrix(np.eye(4), block_dim)
    with pytest.raises(TypeError):
        SequenceLaw(np.eye(4), block_dim)


def test_numpy_integer_block_dims_are_integers():
    bm = BlockMatrix(np.eye(4), np.int64(2))
    assert bm.block_dim == 2 and type(bm.block_dim) is int
    assert SequenceLaw(np.eye(4), np.int32(2)).dim == 2


def test_a_block_dim_that_disagrees_with_a_block_matrix_is_refused():
    """A law of a BlockMatrix takes its block size from the matrix: a
    block_dim given with it must match, and names both sizes if not."""
    given = BlockMatrix(np.eye(4), 2)
    for make in (SequenceLaw, SequenceLaw.from_precision):
        with pytest.raises(ValueError, match="block_dim 1 != the BlockMatrix's block_dim 2"):
            make(given, 1)
        assert make(given, np.int64(2)).dim == make(given).dim == 2


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        Tolerance(zero_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_tol=-1e-9)


# --- conditioning plans --------------------------------------------------------


def random_triples(n_times, rng, count):
    """``count`` triples ``(a, b, s)`` of disjoint times in random order, of
    mixed shapes, ``s`` empty in some."""
    triples = []
    for _ in range(count):
        times = rng.sample(range(n_times), rng.randint(2, n_times))
        cut = rng.randint(2, len(times))
        triples.append((tuple(times[:1]), tuple(times[1:cut]), tuple(times[cut:])))
    return triples


def conditioned(cov, triples):
    """``_condition``'s result as bytes, or what it raised."""
    try:
        out = blocks._condition(cov, triples)
    except (NotPositiveDefiniteError, NotSymmetricError) as err:
        return type(err), str(err), getattr(err, "pivot_index", None)
    return [(list(positions), x.tobytes(), y.tobytes()) for positions, x, y in out]


@settings(max_examples=40, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(3, 7),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    broken=st.booleans(),
)
def test_a_kept_conditioning_plan_gives_the_bits_of_a_cold_one(law_class, n_last, d, seed, broken):
    """With the plans cleared, a cold call and a warm one give the same
    bits, or raise the same error, message and pivot row; each triple has
    the bits it has alone, and the warm call makes no plan."""
    rng = random.Random(seed)
    mat = random_law(law_class, n_last, d, seed).covariance.data.copy()
    if broken:
        row = rng.randrange(len(mat))
        mat[row, row] = -1.0
    cov = BlockMatrix(mat, d)
    triples = random_triples(n_last + 1, rng, 12)
    blocks._conditioning_plan.cache_clear()
    cold = conditioned(cov, triples)
    misses = blocks._conditioning_plan.cache_info().misses
    assert conditioned(cov, triples) == cold
    assert blocks._conditioning_plan.cache_info().misses == misses
    if isinstance(cold, list):
        alone = [conditioned(cov, [t])[0][1:] for t in triples]
        for positions, solved, partial in blocks._condition(cov, triples):
            for i, x, y in zip(positions, solved, partial):
                assert (x.tobytes(), y.tobytes()) == alone[i]


def test_a_kept_conditioning_plan_refuses_writes():
    triples = ((0,), (1, 2), (3,)), ((1,), (2,), (3,)), ((2,), (0,), ())
    factors, groups = blocks._conditioning_plan(triples, 2, 8)
    arrays = [x for entry in factors + groups for x in entry if isinstance(x, np.ndarray)]
    assert len(arrays) == 11 and not any(x.flags.writeable for x in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][...] = 0
