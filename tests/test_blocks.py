"""Core block linear algebra: Cholesky, SPD inverse, Schur complements."""

import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmseq import (
    BlockMatrix,
    ConditioningSide,
    IndexInterval,
    Keep,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SequenceLaw,
    Tolerance,
    cholesky_spd,
    invert_spd,
    symmetrize,
)
from cmseq import blocks
from cmseq.blocks import _cholesky_stack, _inverse_from_factor, marginal_precisions
from cmseq.fixtures import ar1_covariance, ar1_law


def schur_complement(a: BlockMatrix, split: int, keep: Keep) -> BlockMatrix:
    """Reference block Schur complement, formed directly for one split.

    Returns the marginal precision of blocks ``0..split``
    (``keep=Keep.LEADING``) or ``split..N`` (``keep=Keep.TRAILING``) of the
    SPD ``a``, after the whole-matrix :func:`cholesky_spd` check.
    ``marginal_precisions`` must match it on every interval.
    """
    n_last = a.n_blocks - 1
    if not 1 <= split <= n_last:
        raise ValueError(f"split must be in [1, {n_last}], got {split}")
    d = a.block_dim
    mat = symmetrize(a.data)
    cholesky_spd(mat)
    if keep is Keep.LEADING:
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
    Cholesky of ``m`` that is not above ``1e-12 * max(diag)``, or None."""
    n = len(m)
    threshold = 1e-12 * max(max(m[i][i] for i in range(n)), 0.0)
    lower = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = m[j][j] - sum(lower[j][k] ** 2 for k in range(j))
        if not pivot > threshold:
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
    pivot is below 1e-12 * max(diag) and must be reported."""
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
    assert exc.value.pivot_value <= 1e-12 * np.max(np.diag(m))


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


def test_symmetrize_accepts_roundoff_asymmetry():
    m = np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]])
    out = symmetrize(m)
    np.testing.assert_allclose(out, out.T)


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


def stacked_results(stack):
    lower = _cholesky_stack(stack)
    return lower, _inverse_from_factor(lower)


def per_matrix_results(stack):
    """The reference: cholesky_spd, then invert_spd, on each matrix in order."""
    lowers = [cholesky_spd(m) for m in stack]
    return np.stack(lowers), np.stack([invert_spd(m) for m in stack])


def raised(fn, *args):
    with pytest.raises((NotPositiveDefiniteError, NotSymmetricError)) as err:
        fn(*args)
    e = err.value
    return type(e), str(e), getattr(e, "pivot_index", None)


STACK_SIZES = dict(
    k=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@settings(max_examples=80, deadline=None)
@given(**STACK_SIZES)
def test_stacked_factors_and_inverses_match_the_per_matrix_calls(k, n, seed):
    """Bit for bit, from one stacked LAPACK call and no per-matrix one."""
    stack = random_spd_stack(k, n, seed)
    with mock.patch.object(blocks, "cholesky_spd", wraps=blocks.cholesky_spd) as loop:
        lower, inv = stacked_results(stack)
    assert loop.call_count == 0
    want_lower, want_inv = per_matrix_results(stack)
    assert lower.tobytes() == want_lower.tobytes()
    assert inv.tobytes() == want_inv.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    **STACK_SIZES,
    where=st.integers(min_value=0, max_value=8),
    kind=st.sampled_from(["indefinite", "nan", "asymmetric"]),
    later=st.booleans(),
)
def test_a_failing_member_raises_what_the_per_matrix_loop_raises(k, n, seed, where, kind, later):
    """Same type, message and pivot index, from the first failing matrix;
    with ``later`` a second, different failure follows it in the stack."""
    assume(kind != "asymmetric" or n >= 2)
    stack = random_spd_stack(k, n, seed)
    j, p = where % k, seed % n
    if kind == "indefinite":
        stack[j, p, p] = -1.0  # leading pivots pass, pivot p fails
    elif kind == "nan":
        stack[j, p, p] = np.nan
    else:
        stack[j, 0, n - 1] += 1.0
    if later and j + 1 < k:
        stack[k - 1, 0, 0] = -2.0
    assert raised(stacked_results, stack) == raised(per_matrix_results, stack)


@settings(max_examples=60, deadline=None)
@given(**STACK_SIZES, where=st.integers(min_value=0, max_value=8))
def test_a_nearly_symmetric_stack_gives_the_symmetrized_results(k, n, seed, where):
    """One entry off by an ulp: symmetrize accepts the gap, and the stack
    gets what each matrix gets from cholesky_spd and invert_spd."""
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
    assert bm.block_norm(1, 0) == pytest.approx(np.linalg.norm(data[2:4, 0:2]))
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


def test_schur_complement_hand_example():
    a = BlockMatrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]), 1)
    lead = schur_complement(a, 1, Keep.LEADING)
    np.testing.assert_allclose(lead.data, [[2.0, 1.0], [1.0, 2.75]], atol=1e-14)
    trail = schur_complement(a, 1, Keep.TRAILING)
    np.testing.assert_allclose(trail.data, [[2.5, 1.0], [1.0, 4.0]], atol=1e-14)


def test_schur_complement_degenerate_keep_all():
    a = BlockMatrix(ar1_covariance(2), 1)
    out = schur_complement(a, 2, Keep.LEADING)
    np.testing.assert_array_equal(out.data, a.data)


def test_schur_complement_split_range():
    a = BlockMatrix(ar1_covariance(2), 1)
    with pytest.raises(ValueError):
        schur_complement(a, 0, Keep.LEADING)
    with pytest.raises(ValueError):
        schur_complement(a, 3, Keep.TRAILING)


@pytest.mark.parametrize("keep,split", [(Keep.LEADING, 2), (Keep.TRAILING, 2)])
def test_schur_complement_is_marginal_precision(keep, split):
    """Schur complement of the precision == precision of the marginal law.

    This duality is what makes interval classification work, so it gets its
    own direct check against a brute-force submatrix inverse.
    """
    law = ar1_law(4, a=0.37)
    prec = law.precision()
    comp = schur_complement(prec, split, keep)
    if keep is Keep.LEADING:
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
    expected = {
        Keep.LEADING: [IndexInterval(0, k) for k in range(n_last - 1, 0, -1)],
        Keep.TRAILING: [IndexInterval(k, n_last) for k in range(1, n_last)],
    }
    for keep, intervals in expected.items():
        seen = []
        for interval, delta in marginal_precisions(a, keep):
            seen.append(interval)
            k = interval.hi if keep is Keep.LEADING else interval.lo
            ref = schur_complement(a, k, keep).data
            assert delta.block_dim == d
            assert np.array_equal(delta.data, delta.data.T)
            err = np.linalg.norm(delta.data - ref) / np.linalg.norm(ref)
            assert err <= 1e-10, (keep, k, err)
        assert seen == intervals


def test_marginal_sweep_keeps_whole_matrix_spd_check():
    # every pivot the sweeps factorize passes its own threshold, but the whole
    # matrix has a pivot below 1e-12 * max(diag), as schur_complement reports
    r = np.sqrt(1.0 - 1e-7)
    a = BlockMatrix([[1e6, 0.0, 0.0], [0.0, 1.0, r], [0.0, r, 1.0]], 1)
    for keep in Keep:
        with pytest.raises(NotPositiveDefiniteError) as exc:
            list(marginal_precisions(a, keep))
        assert exc.value.pivot_index == 2
        with pytest.raises(NotPositiveDefiniteError):
            schur_complement(a, 1, keep)


def test_leading_sweep_checks_each_pivot_against_its_own_diagonal():
    """The whole matrix passes its check in time order (its smallest pivot is
    1e-10 of the diagonal), but given x_3 the two components of x_2 are
    nearly collinear: a pivot of 1e-14 against a diagonal of 1.  The leading
    sweep raises at that step, after one yield; the trailing sweep never
    conditions x_2 on x_3 and passes."""
    eps, delta = 1e-5, 1e-2
    rows = np.eye(8)
    rows[5] = rows[4] + eps * (rows[6] + delta * rows[5])
    a = BlockMatrix(rows @ rows.T, 2)
    cholesky_spd(a.data)
    assert len(list(marginal_precisions(a, Keep.TRAILING))) == 2
    sweep = marginal_precisions(a, Keep.LEADING)
    assert next(sweep)[0] == IndexInterval(0, 2)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        next(sweep)
    assert exc.value.pivot_index == 1
    assert 0 < exc.value.pivot_value < 1e-12


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


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        Tolerance(zero_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_tol=-1e-9)
