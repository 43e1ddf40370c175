"""Block-sparsity patterns of precision matrices and their detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmseq import (
    BlockMatrix,
    LawClass,
    NotSymmetricError,
    PatternKind,
    PatternSpec,
    SequenceLaw,
    Tolerance,
    allowed_support,
    detect,
    random_law,
)
from cmseq.patterns import _support_grid


def band(n):
    return {(i, j) for i in range(n + 1) for j in range(n + 1) if abs(i - j) <= 1}


def full(n):
    return {(i, j) for i in range(n + 1) for j in range(n + 1)}


def test_support_sets_small_cases():
    assert allowed_support(PatternSpec.tridiagonal(2)) == band(2)
    assert allowed_support(PatternSpec.cyclic_tridiagonal(3)) == band(3) | {(0, 3), (3, 0)}
    assert allowed_support(PatternSpec.cm_l(4)) == band(4) | {
        (0, 4), (4, 0), (1, 4), (4, 1), (2, 4), (4, 2),
    }
    assert allowed_support(PatternSpec.cm_f(4)) == band(4) | {
        (0, 2), (2, 0), (0, 3), (3, 0), (0, 4), (4, 0),
    }


def test_every_pattern_fills_up_at_two_steps():
    # with three times there is no room to distinguish the classes beyond
    # Markov: one extra corner block already completes the matrix
    for spec in (
        PatternSpec.cyclic_tridiagonal(2),
        PatternSpec.cm_l(2),
        PatternSpec.cm_f(2),
    ):
        assert allowed_support(spec) == full(2)
    assert allowed_support(PatternSpec.tridiagonal(2)) != full(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conditioning_pattern_intersection_is_cyclic(n):
    """The overlap of the two one-sided conditioning patterns is exactly the
    cyclic band — the support-level face of the class identity
    reciprocal == (conditionally Markov from the last) and (from the first)."""
    cm_l = allowed_support(PatternSpec.cm_l(n))
    cm_f = allowed_support(PatternSpec.cm_f(n))
    cyc = allowed_support(PatternSpec.cyclic_tridiagonal(n))
    assert cm_l & cm_f == cyc
    tri = allowed_support(PatternSpec.tridiagonal(n))
    assert tri < cyc < cm_l
    assert cyc < cm_f


def test_pattern_spec_validation():
    with pytest.raises(ValueError):
        PatternSpec.tridiagonal(0)


@pytest.mark.parametrize("n_last", [2.5, 3.0, "3", None])
def test_pattern_spec_rejects_a_non_integer_size(n_last):
    """``np.arange(3.5)`` has four entries: a float size would build a
    4 x 4 grid for a pattern that matches no matrix."""
    with pytest.raises(TypeError):
        PatternSpec(PatternKind.CM_L, n_last)


def test_pattern_spec_accepts_numpy_integers():
    spec = PatternSpec(PatternKind.CM_F, np.int64(4))
    assert spec == PatternSpec.cm_f(4)
    assert allowed_support(spec) == allowed_support(PatternSpec.cm_f(4))


def reference_support(spec):
    """Set-built support, one comprehension per index rule."""
    n = spec.n_last
    band = {(i, j) for i in range(n + 1) for j in range(n + 1) if abs(i - j) <= 1}
    if spec.kind is PatternKind.TRIDIAGONAL:
        extra = set()
    elif spec.kind is PatternKind.CYCLIC_TRIDIAGONAL:
        extra = {(0, n), (n, 0)}
    elif spec.kind is PatternKind.CM_L:
        extra = {(k, n) for k in range(n - 1)} | {(n, k) for k in range(n - 1)}
    else:  # CM_F
        extra = {(0, j) for j in range(2, n + 1)} | {(j, 0) for j in range(2, n + 1)}
    return frozenset(band | extra)


@pytest.mark.parametrize("kind", list(PatternKind))
def test_support_grid_matches_the_set_built_reference(kind):
    """Every size up to 200: the same positions, as a frozenset of tuples
    of Python ints."""
    for n_last in range(1, 201):
        spec = PatternSpec(kind, n_last)
        support = allowed_support(spec)
        assert type(support) is frozenset
        assert support == reference_support(spec), n_last
        assert all(type(p) is tuple and [type(i) for i in p] == [int, int] for p in support)


@pytest.mark.parametrize("kind", list(PatternKind))
def test_support_grid_is_read_only_and_cached(kind):
    grid = _support_grid(PatternSpec(kind, 6))
    assert grid.dtype == bool and grid.shape == (7, 7)
    with pytest.raises(ValueError):
        grid[0, 6] = not grid[0, 6]
    assert _support_grid(PatternSpec(kind, 6)) is grid


def matrix_with_support(n, support, coupling=-0.31):
    m = np.zeros((n + 1, n + 1))
    for i, j in support:
        if i != j:
            m[i, j] = coupling
    np.fill_diagonal(m, np.abs(m).sum(axis=1) + 1.0)
    return BlockMatrix(m, 1)


@pytest.mark.parametrize(
    "spec",
    [
        PatternSpec.tridiagonal(5),
        PatternSpec.cyclic_tridiagonal(5),
        PatternSpec.cm_l(5),
        PatternSpec.cm_f(5),
    ],
)
def test_detect_accepts_exact_support_and_flags_violations(spec):
    m = matrix_with_support(5, allowed_support(spec))
    assert detect(m, spec).conforms

    # an off-pattern block well above zero_tol must be caught and located
    off = sorted(set((i, j) for i in range(6) for j in range(6)) - allowed_support(spec))
    i, j = off[len(off) // 2]
    data = m.data.copy()
    data[i, j] = data[j, i] = 1e-5
    w = detect(BlockMatrix(data, 1), spec)
    assert not w.conforms
    assert w.worst_block in ((i, j), (j, i))
    assert w.worst_ratio > 1e-9


def test_detect_ratio_is_relative_to_largest_block():
    spec = PatternSpec.tridiagonal(3)
    m = matrix_with_support(3, allowed_support(spec)).data.copy()
    m[0, 2] = m[2, 0] = 1e-5
    w_small = detect(BlockMatrix(m, 1), spec)
    w_big = detect(BlockMatrix(1000.0 * m, 1), spec)
    assert w_small.worst_ratio == pytest.approx(w_big.worst_ratio, rel=1e-12)
    assert not w_small.conforms

    # same matrix, looser threshold: the verdict flips but the witness stays
    loose = detect(BlockMatrix(m, 1), spec, Tolerance(zero_tol=1e-2))
    assert loose.conforms
    assert loose.worst_block == w_small.worst_block


def test_detect_validates_input():
    spec = PatternSpec.tridiagonal(3)
    with pytest.raises(ValueError):
        detect(BlockMatrix(np.eye(3), 1), spec)  # 3 blocks, spec wants 4
    asym = np.eye(4)
    asym[0, 3] = 0.5
    with pytest.raises(NotSymmetricError):
        detect(BlockMatrix(asym, 1), spec)


def test_detect_block_granularity():
    """With d=2 the unit of sparsity is the 2x2 block: one stray scalar in an
    off-pattern block is a violation of the whole block."""
    spec = PatternSpec.tridiagonal(2)
    m = np.zeros((6, 6))
    np.fill_diagonal(m, 2.0)
    m[0, 5] = m[5, 0] = 0.7  # scalar inside block (0, 2)
    w = detect(BlockMatrix(m, 2), spec)
    assert not w.conforms
    assert w.worst_block in ((0, 2), (2, 0))


def reference_detect(m, spec, tol=Tolerance()):
    """Per-block loop: the worst off-pattern block, first in row-major order
    among equals, with a block and its transpose counting as equal."""
    n = m.n_blocks
    support = reference_support(spec)
    norms = np.array([[np.linalg.norm(m.block(i, j)) for j in range(n)] for i in range(n)])
    norms = np.maximum(norms, norms.T)
    scale = norms.max()
    worst_block, worst_ratio = None, 0.0
    for i in range(n):
        for j in range(n):
            if (i, j) in support:
                continue
            ratio = norms[i, j] / scale if scale > 0 else 0.0
            if ratio > worst_ratio:
                worst_block, worst_ratio = (i, j), ratio
    return worst_ratio <= tol.zero_tol, worst_block, worst_ratio


@settings(max_examples=60, deadline=None)
@given(
    n_last=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(list(PatternKind)),
    off_scale=st.sampled_from([0.0, 1e-17, 1e-10, 1e-9, 1e-8, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_vectorized_detect_matches_reference_loop(n_last, d, kind, off_scale, seed):
    """Vectorized detection agrees with a per-block loop on random symmetric
    block matrices whose off-pattern blocks range from zero to order one."""
    spec = PatternSpec(kind, n_last)
    rng = np.random.default_rng(seed)
    size = (n_last + 1) * d
    m = rng.standard_normal((size, size))
    off = np.kron(~np.array([[(i, j) in allowed_support(spec) for j in range(n_last + 1)]
                             for i in range(n_last + 1)]), np.ones((d, d), dtype=bool))
    m = np.where(off, off_scale * m, m)
    m = BlockMatrix((m + m.T) / 2.0, d)

    w = detect(m, spec)
    conforms, worst_block, worst_ratio = reference_detect(m, spec)
    assert w.conforms == conforms
    assert w.worst_block == worst_block
    assert w.worst_ratio == pytest.approx(worst_ratio, rel=1e-12, abs=0.0)
    if off_scale == 0.0:
        assert (w.worst_block, w.worst_ratio) == (None, 0.0)


def marked_matrices(law):
    """A law's covariance and precision: matrices built exactly symmetric."""
    yield law.covariance
    yield law.precision()


def _dense_spd(size, seed):
    m = np.random.default_rng(seed).standard_normal((size, size))
    return m @ m.T + size * np.eye(size)


law_strategy = st.builds(
    lambda law_class, n_last, d, seed, dense: (
        SequenceLaw(_dense_spd((n_last + 1) * d, seed), d)
        if dense
        else random_law(law_class, n_last, d, seed)
    ),
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(min_value=3, max_value=9),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dense=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(law=law_strategy)
def test_marked_matrices_are_symmetric_and_detect_like_unmarked_copies(law):
    """Skipping the symmetry check changes no witness: every marked matrix
    is exactly symmetric, and detection on it equals detection on an
    unmarked copy, for every pattern."""
    for m in marked_matrices(law):
        assert m._symmetric
        assert np.array_equal(m.data, m.data.T)
        copy = BlockMatrix(m.data, m.block_dim)
        assert not copy._symmetric
        for kind in PatternKind:
            spec = PatternSpec(kind, m.n_blocks - 1)
            assert detect(m, spec) == detect(copy, spec)


@settings(max_examples=20, deadline=None)
@given(law=law_strategy, nan=st.booleans())
def test_detect_rejects_asymmetric_or_nan_unmarked_copies(law, nan):
    """The public constructor never marks a matrix, so a copy of a marked
    matrix with one entry broken is still rejected."""
    spec = PatternSpec.tridiagonal(law.n_last)
    data = law.precision().data.copy()
    data[0, -1] = np.nan if nan else data[0, -1] + 1e-6 * np.abs(data).max()
    with pytest.raises(NotSymmetricError):
        detect(BlockMatrix(data, law.dim), spec)
