"""Brute-force conditional-independence oracle over explicit covariances.

Everything here works directly on Cov(x_a, x_b | x_s) computed from the full
covariance matrix, with no reference to precision sparsity — which is exactly
why the classifier can be cross-validated against it.
"""

import random
import traceback
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmseq import (
    BlockMatrix,
    CiQuery,
    ConditioningSide,
    IndexInterval,
    LawClass,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OracleSizeError,
    OracleVerdict,
    SequenceLaw,
    Tolerance,
    cholesky_spd,
    oracle_cm_interval,
    oracle_markov,
    oracle_reciprocal,
    partial_covariance,
    random_law,
)
from cmseq import oracle
from cmseq.fixtures import ar1_covariance, ar1_law, cyclic_example_law, identity_law

FIRST = ConditioningSide.FIRST
LAST = ConditioningSide.LAST


def _scalars(times, d):
    return np.array([t * d + i for t in times for i in range(d)], dtype=int)


def reference_partial_covariance(cov, a, b, s):
    """Reference ``Cov(x_a, x_b | x_s)``, one query at a time: ``np.ix_``
    gathers and a Cholesky of ``C_ss`` alone.  A failing pivot is reported
    at the covariance's own scalar row.  The oracle's stacked evaluator
    must match it bit for bit."""
    a, b, s = sorted(set(a)), sorted(set(b)), sorted(set(s))
    d, mat = cov.block_dim, cov.data
    ia, ib = _scalars(a, d), _scalars(b, d)
    c_ab = mat[np.ix_(ia, ib)]
    if not s:
        return c_ab.copy()
    js = _scalars(s, d)
    try:
        lower = cholesky_spd(mat[np.ix_(js, js)])
    except NotPositiveDefiniteError as err:
        raise NotPositiveDefiniteError(js[err.pivot_index], err.pivot_value) from None
    x = np.linalg.solve(lower.T, np.linalg.solve(lower, mat[np.ix_(js, ib)]))
    return c_ab - mat[np.ix_(ia, js)] @ x


def reference_sweep(cov, queries, residual_tol):
    """Reference sweep: the queries in order, keeping the first largest ratio."""
    scale = cov.max_block_norm()
    worst_ratio = 0.0
    worst_query = None
    for q in queries:
        pc = reference_partial_covariance(cov, [q.target], q.dropped, q.retained)
        ratio = float(np.linalg.norm(pc)) / scale if scale > 0 else 0.0
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_query = q
    return OracleVerdict(worst_ratio <= residual_tol, worst_ratio, worst_query)


def every_sweep(law):
    """Verdicts of the Markov and reciprocal sweeps and of the CM sweep on
    every interval, both sides, both directions."""
    n = law.n_last
    verdicts = [oracle_markov(law), oracle_reciprocal(law)]
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            for side in (FIRST, LAST):
                for use_future in (False, True):
                    iv = IndexInterval(lo, hi)
                    verdicts.append(oracle_cm_interval(law, iv, side, use_future=use_future))
    return verdicts


def same_verdicts(got, want):
    """Equal field for field, with the ratios compared by their bits."""
    return got == want and [v.worst_ratio.hex() for v in got] == [
        v.worst_ratio.hex() for v in want
    ]


@st.composite
def oracle_sized_laws(draw):
    """A random law of any class with d in {1, 2, 4} and (N+1)d <= 16."""
    law_class = draw(st.sampled_from(list(LawClass)))
    d = draw(st.sampled_from((1, 2, 4)))
    lo = 3 if law_class in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY) else 2
    n = draw(st.integers(min_value=lo, max_value=16 // d - 1))
    return random_law(law_class, n, d, seed=draw(st.integers(0, 2**16)))


def random_queries(n_times, rng, count):
    """``count`` valid queries over ``n_times`` times, of mixed shapes, with
    the retained and dropped times in random order."""
    queries = []
    for _ in range(count):
        times = rng.sample(range(n_times), rng.randint(3, n_times))
        cut = rng.randint(2, len(times) - 1)
        queries.append(CiQuery(times[0], tuple(times[1:cut]), tuple(times[cut:])))
    return queries


def test_partial_covariance_unconditional_is_plain_block():
    law = ar1_law(2)
    pc = partial_covariance(law.covariance, [0], [2], [])
    np.testing.assert_allclose(pc, [[0.25]], atol=1e-15)


def test_partial_covariance_screens_off_markov_chain():
    law = ar1_law(2)
    pc = partial_covariance(law.covariance, [0], [2], [1])
    np.testing.assert_allclose(pc, [[0.0]], atol=1e-15)


def test_partial_covariance_known_value_on_cyclic_law():
    # conditioning (x_0, x_3) on the interior of the 4-point cyclic law:
    # the conditional covariance is the inverse of the precision submatrix
    # [[2, -0.3], [-0.3, 2]], so the cross term is 0.3/3.91
    law = cyclic_example_law()
    pc = partial_covariance(law.covariance, [0], [3], [1, 2])
    np.testing.assert_allclose(pc, [[0.3 / 3.91]], atol=1e-14)


def test_partial_covariance_rejects_overlapping_sets():
    law = ar1_law(2)
    with pytest.raises(ValueError):
        partial_covariance(law.covariance, [0], [1], [1])
    with pytest.raises(ValueError):
        partial_covariance(law.covariance, [0], [0], [])


def test_partial_covariance_block_shape_multidim():
    law = identity_law(3, dim=2)
    pc = partial_covariance(law.covariance, [0], [2, 3], [1])
    assert pc.shape == (2, 4)
    np.testing.assert_allclose(pc, 0.0, atol=1e-15)


def test_ci_query_validates_disjointness():
    with pytest.raises(ValueError):
        CiQuery(2, (1, 2), (0,))
    with pytest.raises(ValueError):
        CiQuery(3, (1, 4), (0, 1))


def test_markov_oracle_on_fixtures():
    assert oracle_markov(ar1_law(4)).holds
    v = oracle_markov(cyclic_example_law())
    assert not v.holds
    assert v.worst_ratio > 1e-3
    assert v.worst_query is not None and 0 in v.worst_query.dropped


def test_reciprocal_oracle_on_fixtures():
    assert oracle_reciprocal(ar1_law(4)).holds  # Markov implies reciprocal
    assert oracle_reciprocal(cyclic_example_law()).holds
    # breaking the (1, 3) conditional independence breaks reciprocity
    bad = ar1_law(3).covariance.data.copy()
    bad[1, 3] = bad[3, 1] = 0.9
    assert not oracle_reciprocal(SequenceLaw(bad, 1)).holds


def test_cm_interval_oracle_full_range_matches_one_sided_classes(cml_law):
    full = IndexInterval(0, cml_law.n_last)
    assert oracle_cm_interval(cml_law, full, LAST).holds
    assert not oracle_cm_interval(cml_law, full, FIRST).holds


def test_cm_interval_oracle_both_sweep_directions_agree(cml_law, cyclic_law):
    for law in (cml_law, cyclic_law):
        for side in (FIRST, LAST):
            iv = IndexInterval(0, law.n_last)
            past = oracle_cm_interval(law, iv, side, use_future=False)
            future = oracle_cm_interval(law, iv, side, use_future=True)
            assert past.holds == future.holds


def test_cm_interval_oracle_on_proper_interval():
    """A single band-plus-(1,4) precision is conditionally Markov on [1, 4]
    given x_1 but not on the whole range given x_0."""
    a = np.diag([2.0] * 5)
    for i in range(4):
        a[i, i + 1] = a[i + 1, i] = -0.5
    a[1, 4] = a[4, 1] = -0.25
    law = SequenceLaw.from_precision(a, 1)
    assert oracle_cm_interval(law, IndexInterval(1, 4), FIRST).holds
    assert not oracle_cm_interval(law, IndexInterval(0, 4), FIRST).holds
    assert oracle_cm_interval(law, IndexInterval(0, 4), LAST).holds


def test_oracle_is_scale_invariant():
    law = cyclic_example_law()
    scaled = SequenceLaw(73.0 * law.covariance.data, 1)
    v1 = oracle_markov(law)
    v2 = oracle_markov(scaled)
    assert v1.holds == v2.holds
    assert v1.worst_ratio == pytest.approx(v2.worst_ratio, rel=1e-9)


def test_oracle_size_cap():
    big = identity_law(16)  # 17 scalars
    with pytest.raises(OracleSizeError):
        oracle_markov(big)
    with pytest.raises(OracleSizeError):
        oracle_reciprocal(identity_law(8, dim=2))
    # at the cap is still fine
    assert oracle_markov(identity_law(15)).holds


def test_oracle_interval_bounds_checked():
    law = ar1_law(3)
    with pytest.raises(IndexError):
        oracle_cm_interval(law, IndexInterval(0, 4), LAST)


def test_verdict_carries_tolerance_effect():
    law = cyclic_example_law()
    strict = oracle_markov(law)
    loose = oracle_markov(law, Tolerance(residual_tol=10.0))
    assert not strict.holds and loose.holds
    assert strict.worst_ratio == loose.worst_ratio


@settings(max_examples=30, deadline=None)
@given(law=oracle_sized_laws())
def test_every_sweep_matches_the_per_query_reference(law):
    got = every_sweep(law)
    with mock.patch.object(oracle, "_sweep", reference_sweep):
        want = every_sweep(law)
    assert same_verdicts(got, want)


@settings(max_examples=40, deadline=None)
@given(law=oracle_sized_laws(), seed=st.integers(0, 2**16), where=st.integers(0, 2**16))
def test_partial_covariance_one_ulp_off_symmetric_matches_the_reference(law, seed, where):
    """An unmarked matrix one ulp off symmetric: the conditioning blocks that
    contain the asymmetric pair are factorized symmetrized, as alone."""
    mat = law.covariance.data.copy()
    size = len(mat)
    i, j = where % size, (where // size) % size
    if i == j:
        j = (i + 1) % size
    mat[i, j] = np.nextafter(mat[i, j], np.inf)
    cov = BlockMatrix(mat, law.dim)
    rng = random.Random(seed)
    queries = random_queries(law.n_last + 1, rng, 12)
    for q in queries:
        got = partial_covariance(cov, [q.target], q.dropped, q.retained)
        want = reference_partial_covariance(cov, [q.target], q.dropped, q.retained)
        assert got.tobytes() == want.tobytes()
    got = oracle._sweep(cov, queries, 1e-8)
    assert same_verdicts([got], [reference_sweep(cov, queries, 1e-8)])


def _raised(call):
    try:
        call()
    except (NotPositiveDefiniteError, NotSymmetricError) as err:
        return type(err), str(err), getattr(err, "pivot_index", None)
    return None


@settings(max_examples=60, deadline=None)
@given(
    law=oracle_sized_laws(),
    kind=st.sampled_from(["negative", "duplicate", "nan", "asymmetric"]),
    seed=st.integers(0, 2**16),
)
def test_a_failing_conditioning_block_raises_as_the_reference(law, kind, seed):
    """The first failing query in query order raises, whichever of the
    stacks it is in, with the same type, message and pivot row."""
    rng = random.Random(seed)
    mat = law.covariance.data.copy()
    d, n_times = law.dim, law.n_last + 1
    t, u = rng.sample(range(n_times), 2)
    row, other = t * d + rng.randrange(d), u * d + rng.randrange(d)
    if kind == "negative":
        mat[row, row] = -1.0
    elif kind == "duplicate":  # x_t's row repeats a row of x_u: singular together
        mat[row, :] = mat[other, :]
        mat[:, row] = mat[:, other]
        mat[row, row] = mat[other, other]
    elif kind == "nan":
        mat[row, other] = mat[other, row] = np.nan
    else:
        mat[row, other] += 1e-3 * abs(mat[row, other]) + 1e-3
    cov = BlockMatrix(mat, d)
    queries = random_queries(n_times, rng, 16)
    want = _raised(lambda: reference_sweep(cov, queries, 1e-8))
    assert _raised(lambda: oracle._sweep(cov, queries, 1e-8)) == want
    for q in queries:
        args = (cov, [q.target], q.dropped, q.retained)
        assert _raised(lambda: partial_covariance(*args)) == _raised(
            lambda: reference_partial_covariance(*args)
        )


def test_a_failing_pivot_names_the_covariance_row():
    bad = ar1_covariance(3)
    bad[2, 2] = -1.0  # C_ss for s = {1, 2} fails at its second row
    cov = BlockMatrix(bad, 1)
    with pytest.raises(NotPositiveDefiniteError, match="at index 2") as sweep_err:
        oracle._sweep(cov, [CiQuery(0, (1, 2), (3,))], 1e-9)
    with pytest.raises(NotPositiveDefiniteError, match="at index 2") as call_err:
        partial_covariance(cov, [0], [3], [1, 2])
    assert sweep_err.value.pivot_index == call_err.value.pivot_index == 2


def test_the_first_failing_query_raises_when_a_later_stack_fails_too():
    bad = ar1_covariance(4)
    bad[1, 1] = -1.0
    bad[4, 4] = -2.0
    queries = [
        CiQuery(0, (2, 3), (4,)),  # stack (2, 1): passes
        CiQuery(2, (4,), (0,)),  # stack (1, 1): fails at row 4 first
        CiQuery(0, (1, 3), (2,)),  # stack (2, 1): fails at row 1 later
    ]
    with pytest.raises(NotPositiveDefiniteError) as err:
        oracle._sweep(BlockMatrix(bad, 1), queries, 1e-9)
    assert err.value.pivot_index == 4 and err.value.pivot_value == -2.0


def test_the_oracle_reaches_cholesky_only_through_the_conditioning_routine(monkeypatch):
    law = random_law(LawClass.GENERIC, 3, 2, seed=1)
    callers = []
    cholesky = np.linalg.cholesky

    def traced(*args, **kwargs):
        callers.append({frame.name for frame in traceback.extract_stack()})
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", traced)
    every_sweep(law)
    partial_covariance(law.covariance, [0], [3], [1, 2])
    assert callers and all("_condition" in names for names in callers)


def test_a_covariance_whose_block_norm_overflows_is_refused(cyclic_law):
    """Every ratio would be inf / inf or 0 / inf, so the sweep refuses
    rather than report that the property holds."""
    assert not oracle_markov(cyclic_law).holds
    big = SequenceLaw(1e160 * cyclic_law.covariance.data, cyclic_law.dim)
    for sweep in (oracle_markov, oracle_reciprocal):
        with pytest.raises(ValueError, match="largest block norm of C is inf"):
            sweep(big)
    with pytest.raises(ValueError, match="largest block norm"):
        oracle_cm_interval(big, IndexInterval(0, big.n_last), FIRST)


def test_queries_and_indices_are_validated():
    with pytest.raises(ValueError, match="non-negative"):
        CiQuery(-1, (0,), (1,))
    with pytest.raises(ValueError, match="repeats"):
        CiQuery(0, (1, 1), (2,))
    with pytest.raises(TypeError, match="time index 0.5 is not an integer"):
        CiQuery(0.5, (1,), (2,))
    cov = ar1_law(2).covariance
    with pytest.raises(TypeError, match="time index 1.5 is not an integer"):
        partial_covariance(cov, [0], [2], [1.5])
    with pytest.raises(IndexError, match="time index -1 out of range"):
        partial_covariance(cov, [-1], [2], [1])
    with pytest.raises(IndexError, match="time index 3 out of range"):
        partial_covariance(cov, [0], [3], [1])
    # numpy integers are integers
    pc = partial_covariance(cov, [np.int64(0)], [2], [np.int32(1)])
    assert pc.tobytes() == partial_covariance(cov, [0], [2], [1]).tobytes()


@pytest.mark.parametrize("wrong", ["False", "no", 0, None])
def test_use_future_must_be_a_bool(wrong):
    """A truthy string once ran the future sweep, and 0 or None the past one."""
    law = random_law(LawClass.CM_L_ONLY, 4, 1, 0)
    interval = IndexInterval(0, 3)
    with pytest.raises(TypeError, match=f"expected a bool for use_future, got {wrong!r}"):
        oracle_cm_interval(law, interval, LAST, use_future=wrong)
    for flag in (False, True):
        want = oracle_cm_interval(law, interval, LAST, use_future=flag)
        assert oracle_cm_interval(law, interval, LAST, use_future=np.bool_(flag)) == want


def test_sweeps_and_partial_covariance_are_the_same_under_numpy_1_solve(request):
    laws = [random_law(c, 3, 2, seed=5) for c in LawClass] + [random_law(LawClass.GENERIC, 3, 4, 2)]
    want = [every_sweep(law) for law in laws]
    queries = random_queries(4, random.Random(3), 12)
    pcs = [
        partial_covariance(law.covariance, [q.target], q.dropped, q.retained).tobytes()
        for law in laws
        for q in queries
    ]
    request.getfixturevalue("numpy1_solve")
    assert all(same_verdicts(every_sweep(law), v) for law, v in zip(laws, want))
    assert pcs == [
        partial_covariance(law.covariance, [q.target], q.dropped, q.retained).tobytes()
        for law in laws
        for q in queries
    ]
