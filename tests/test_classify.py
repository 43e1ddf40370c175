"""Pattern-based classification and its agreement with the CI oracle."""

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmseq import (
    BlockMatrix,
    ConditioningSide,
    IndexInterval,
    IntervalClassEntry,
    LawClass,
    NotPositiveDefiniteError,
    NotSymmetricError,
    PatternSpec,
    SequenceLaw,
    Tolerance,
    UnsupportedIntervalError,
    classify_cm_interval,
    classify_cmc,
    classify_markov,
    classify_reciprocal,
    detect,
    full_report,
    oracle_cm_interval,
    oracle_markov,
    oracle_reciprocal,
    random_law,
    symmetrize,
    verify_composition,
)
from cmseq import blocks, classify, patterns
from cmseq.fixtures import ar1_law, identity_law
from test_blocks import nearly_singular, one_matrix_sweep

FIRST = ConditioningSide.FIRST
LAST = ConditioningSide.LAST


def law_from_precision(a):
    return SequenceLaw.from_precision(np.asarray(a, dtype=float), 1)


def banded_precision(n, extra=()):
    a = np.zeros((n + 1, n + 1))
    for i in range(n):
        a[i, i + 1] = a[i + 1, i] = -0.5
    for i, j, v in extra:
        a[i, j] = a[j, i] = v
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    return a


def test_white_noise_is_everything(white_n3):
    rep = full_report(white_n3)
    assert rep.markov.conforms
    assert rep.reciprocal.conforms
    assert rep.cm_l.conforms and rep.cm_f.conforms
    assert all(e.witness.conforms for e in rep.interval_cm)
    assert rep.consistency


def test_ar1_is_markov_and_everything_above(ar1_n3):
    rep = full_report(ar1_n3)
    assert rep.markov.conforms
    assert rep.reciprocal.conforms and rep.reciprocal.routes_agree
    assert rep.cm_l.conforms and rep.cm_f.conforms
    assert all(e.witness.conforms for e in rep.interval_cm)
    assert rep.consistency


def test_cyclic_fixture_is_reciprocal_not_markov(cyclic_law):
    rep = full_report(cyclic_law)
    assert not rep.markov.conforms
    assert rep.markov.worst_block in ((0, 3), (3, 0))
    assert rep.reciprocal.conforms
    assert rep.cm_l.conforms and rep.cm_f.conforms
    assert rep.consistency


def test_cml_fixture_is_one_sided(cml_law):
    rep = full_report(cml_law)
    assert rep.cm_l.conforms
    assert not rep.cm_f.conforms
    assert not rep.reciprocal.conforms
    assert not rep.markov.conforms
    assert rep.consistency


@pytest.mark.parametrize(
    "law_fixture", ["white_n3", "ar1_n3", "cyclic_law", "cml_law"]
)
def test_class_flags_match_oracle_on_fixtures(law_fixture, request):
    """Pattern detection on the precision must agree with the brute-force
    conditional-independence sweeps on the covariance."""
    law = request.getfixturevalue(law_fixture)
    rep = full_report(law)
    full = IndexInterval(0, law.n_last)
    assert rep.markov.conforms == oracle_markov(law).holds
    assert rep.reciprocal.conforms == oracle_reciprocal(law).holds
    assert rep.cm_l.conforms == oracle_cm_interval(law, full, LAST).holds
    assert rep.cm_f.conforms == oracle_cm_interval(law, full, FIRST).holds
    for entry in rep.interval_cm:
        assert (
            entry.witness.conforms
            == oracle_cm_interval(law, entry.interval, entry.side).holds
        ), (entry.interval, entry.side)


def test_interval_report_covers_all_boundary_intervals(ar1_n3):
    rep = full_report(ar1_n3)
    seen = {(e.interval.lo, e.interval.hi, e.side) for e in rep.interval_cm}
    expected = set()
    for k in (1, 2):
        for side in (FIRST, LAST):
            expected.add((0, k, side))
            expected.add((k, 3, side))
    assert seen == expected


@pytest.mark.parametrize("d", [1, 2])
def test_a_law_of_two_times_is_every_class_and_has_no_interval(d):
    """At N = 1 every pattern is the whole grid and no interval is
    boundary-anchored with an interior endpoint: the report lists none,
    and both composition routes hold."""
    rng = np.random.default_rng(d)
    m = rng.standard_normal((2 * d, 2 * d))
    law = SequenceLaw(m @ m.T + 2 * d * np.eye(2 * d), d)
    rep = full_report(law)
    assert rep.interval_cm == ()
    assert all(w.conforms for w in (rep.markov, rep.reciprocal, rep.cm_l, rep.cm_f))
    assert rep.consistency
    assert verify_composition(law)


def test_interval_classification_on_tail_law():
    # band + (1, 4): conditionally Markov on [1, 4] from its first time,
    # but not over the whole range
    law = law_from_precision(banded_precision(4, extra=[(1, 4, -0.25)]))
    assert classify_cm_interval(law, IndexInterval(1, 4), FIRST).conforms
    assert not classify_cmc(law, FIRST).conforms
    assert classify_cmc(law, LAST).conforms
    # and the oracle sees it the same way
    assert oracle_cm_interval(law, IndexInterval(1, 4), FIRST).holds
    assert not oracle_cm_interval(law, IndexInterval(0, 4), FIRST).holds


def test_unsupported_intervals_are_rejected(ar1_n3):
    with pytest.raises(UnsupportedIntervalError):
        classify_cm_interval(ar1_n3, IndexInterval(0, 3), LAST)  # full range
    with pytest.raises(
        UnsupportedIntervalError, match=r"covers only \[0,k2\] and \[k1,N\].*oracle_cm_interval"
    ):
        classify_cm_interval(ar1_n3, IndexInterval(1, 2), FIRST)  # interior
    with pytest.raises(UnsupportedIntervalError):
        classify_cm_interval(ar1_n3, IndexInterval(1, 9), FIRST)  # out of range


@pytest.mark.parametrize("lo,hi", [(1.5, 5), (0, 4.5)])
@pytest.mark.parametrize("check", [classify_cm_interval, oracle_cm_interval])
def test_a_non_integer_interval_endpoint_raises_type_error(lo, hi, check):
    """The interval itself rejects the endpoint: the classifier no longer
    leaks a bare StopIteration from its sweep, nor the oracle a TypeError
    from deep inside its index arithmetic."""
    law = random_law(LawClass.RECIPROCAL, 5, 1, 0)
    with pytest.raises(TypeError, match="integer"):
        check(law, IndexInterval(lo, hi), FIRST)


def test_single_interval_classifier_matches_report_entries(cyclic_law, cml_law):
    laws = [cyclic_law, cml_law, random_law(LawClass.CM_F_ONLY, 6, 2, seed=3)]
    for law in laws:
        for entry in full_report(law).interval_cm:
            assert classify_cm_interval(law, entry.interval, entry.side) == entry.witness


def test_class_lattice_on_handcrafted_laws():
    """Markov implies reciprocal implies both one-sided classes; the
    reciprocal flag is exactly their conjunction."""
    laws = [
        law_from_precision(banded_precision(4)),
        law_from_precision(banded_precision(4, extra=[(0, 4, -0.3)])),
        law_from_precision(banded_precision(4, extra=[(1, 4, -0.3)])),
        law_from_precision(banded_precision(4, extra=[(0, 2, -0.3)])),
        law_from_precision(banded_precision(4, extra=[(0, 2, -0.3), (1, 4, -0.3)])),
    ]
    for law in laws:
        rep = full_report(law)
        if rep.markov.conforms:
            assert rep.reciprocal.conforms
        if rep.reciprocal.conforms:
            assert rep.cm_l.conforms and rep.cm_f.conforms
        assert rep.reciprocal.conforms == (rep.cm_l.conforms and rep.cm_f.conforms)
        assert rep.reciprocal.routes_agree
        assert verify_composition(law)


def test_composition_routes_on_fixtures(ar1_n3, cyclic_law, cml_law, white_n3):
    for law in (ar1_n3, cyclic_law, cml_law, white_n3):
        assert verify_composition(law)


def two_route_composition(law, tol):
    """Reference interval-composition cross-check, computed directly.

    Runs its own detections on the precision and on the marginals of the
    reference sweeps, and stops each route at its first failing interval.
    Route (i) is CM on every ``[k1, N]`` given the first endpoint, route
    (ii) CM on every ``[0, k2]`` given the last; both also need CM_L and
    CM_F over the whole range.
    """
    a = law.precision()
    n_last = law.n_last
    recip = detect(a, PatternSpec.cyclic_tridiagonal(n_last), tol).conforms
    cm_both = (
        detect(a, PatternSpec.cm_l(n_last), tol).conforms
        and detect(a, PatternSpec.cm_f(n_last), tol).conforms
    )
    marginals = list(reference_marginals(a))
    route_first = cm_both and all(
        detect(delta, PatternSpec.cm_f(iv.hi - iv.lo), tol).conforms
        for iv, delta in marginals
        if iv.lo > 0
    )
    route_last = cm_both and all(
        detect(delta, PatternSpec.cm_l(iv.hi - iv.lo), tol).conforms
        for iv, delta in marginals
        if iv.lo == 0
    )
    return recip == route_first and recip == route_last


def test_verify_composition_matches_the_two_route_reference():
    verdicts = []
    grid = product(LawClass, (3, 4, 6, 10), (1, 2), range(8))
    for law_class, n, d, seed in grid:
        law = random_law(law_class, n, d, seed)
        for zero_tol in (1e-14, 1e-9, 1e-3, 0.2):
            tol = Tolerance(zero_tol=zero_tol)
            got = verify_composition(law, tol)
            assert got == two_route_composition(law, tol), (law_class, n, d, seed, zero_tol)
            verdicts.append(got)
    assert False in verdicts  # the grid holds a law whose routes disagree


def test_one_sided_interval_family_alone_does_not_imply_reciprocity():
    """Exploratory: a law that is conditionally Markov from the first time on
    [0, N] *and* on every trailing interval, yet is not reciprocal.

    A single (0, 2) precision coupling does it: marginalizing away leading
    times folds the coupling into the band, so every trailing interval looks
    Markov from its first time — but the law fails the last-time conditioning
    test, and reciprocity genuinely needs both sides."""
    law = law_from_precision(banded_precision(4, extra=[(0, 2, -0.3)]))
    assert classify_cmc(law, FIRST).conforms
    for k1 in (1, 2, 3):
        iv = IndexInterval(k1, 4)
        assert classify_cm_interval(law, iv, FIRST).conforms
        assert oracle_cm_interval(law, iv, FIRST).holds
    assert not classify_cmc(law, LAST).conforms
    assert not classify_reciprocal(law).conforms
    assert not oracle_reciprocal(law).holds
    # the full conjunction (with the last-time test) stays internally consistent
    assert verify_composition(law)


def test_consistency_bit_summarizes_routes(cyclic_law):
    rep = full_report(cyclic_law, Tolerance())
    assert rep.consistency
    assert rep.reciprocal.routes_agree


def test_classify_markov_agrees_with_precision_band(ar1_n3):
    w = classify_markov(ar1_n3)
    assert w.conforms
    assert w.worst_ratio < 1e-12


def test_multidimensional_components():
    law = identity_law(4, dim=2)
    rep = full_report(law)
    assert rep.markov.conforms and rep.consistency
    assert oracle_markov(law).holds


@settings(max_examples=60, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(min_value=2, max_value=8),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_time_reversal_swaps_cm_l_and_cm_f(law_class, n_last, d, seed):
    """y_j = x_{N-j} keeps Markov, reciprocal and consistency, and swaps
    CM_L with CM_F."""
    assume(n_last >= 3 or law_class not in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY))
    law = random_law(law_class, n_last, d, seed)
    p = (np.arange(n_last + 1)[::-1, None] * d + np.arange(d)).ravel()
    rev = full_report(SequenceLaw(law.covariance.data[np.ix_(p, p)], d))
    rep = full_report(law)
    assert rev.markov.conforms == rep.markov.conforms
    assert rev.reciprocal.conforms == rep.reciprocal.conforms
    assert rev.consistency == rep.consistency
    assert rev.cm_l.conforms == rep.cm_f.conforms
    assert rev.cm_f.conforms == rep.cm_l.conforms


def test_full_report_checks_no_symmetry_and_takes_one_norm_pass_per_matrix(monkeypatch):
    """A cost regression shows without timing: on the precision and its
    2(N-1) marginals, which are all built exactly symmetric, full_report
    runs no symmetry check and computes each matrix's block norms once: one
    pass for the precision, then one stacked pass per chunk of elimination
    steps for the chunk's marginals.  At N = 20, d = 2 the 19 steps make 5
    chunks: 2, 3, 4, 8 and 2 steps."""
    n_last = 20
    law = random_law(LawClass.RECIPROCAL, n_last, 2, 0)
    chunks = [chunk.shape[1] for chunk in blocks._marginal_sweep(law.precision())]
    assert chunks == [2, 3, 4, 8, 2]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(blocks, "symmetrize", counted("symmetrize", blocks.symmetrize))
    monkeypatch.setattr(blocks, "_block_norms", counted("block_norms", blocks._block_norms))
    full_report(law)
    assert calls == {"block_norms": 1 + len(chunks)}


def reference_marginals(a):
    """``(interval, marginal)`` for every boundary-anchored interval of
    ``a``, by the 2-D reference sweep of ``a`` and of its time reversal,
    each marginal wrapped as a block matrix, the prefixes reversed back."""
    d, n_last = a.block_dim, a.n_blocks - 1
    mat = symmetrize(a.data)
    mirror = blocks._reverse_time(mat, d)
    sweeps = [one_matrix_sweep(m, np.linalg.cholesky(m), d) for m in (mirror, mat)]
    for k, (prefix, suffix) in enumerate(zip(*sweeps), 1):
        yield IndexInterval(0, n_last - k), BlockMatrix(blocks._reverse_time(prefix, d), d)
        yield IndexInterval(k, n_last), BlockMatrix(suffix, d)


def reference_entries(a, tol=Tolerance()):
    """The interval entries of ``a`` in report order by the per-marginal
    route: ``detect`` on each wrapped reference marginal, per side."""
    entries = [
        IntervalClassEntry(iv, side, detect(delta, pattern(iv.hi - iv.lo), tol))
        for iv, delta in reference_marginals(a)
        for side, pattern in ((FIRST, PatternSpec.cm_f), (LAST, PatternSpec.cm_l))
    ]
    # a stable sort keeps each interval's FIRST entry before its LAST one
    return tuple(sorted(entries, key=lambda e: (e.interval.lo, e.interval.hi)))


def reference_interval_cm(law, tol=Tolerance()):
    """``full_report``'s interval entries by the per-marginal route."""
    return reference_entries(law.precision(), tol)


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.interval, g.side) == (w.interval, w.side)
        assert g.witness.conforms == w.witness.conforms
        assert g.witness.worst_block == w.witness.worst_block
        assert g.witness.worst_ratio.hex() == w.witness.worst_ratio.hex()
        assert repr(g) == repr(w)


def rescale_coordinates(law, seed):
    """The law of ``(s_0 Q_0 x_0, ..., s_N Q_N x_N)``, ``Q_k`` random rotations
    and ``s_k`` log-uniform over [1e-2, 1e2]: no exact zero survives."""
    rng = np.random.default_rng(seed)
    d = law.dim
    t = np.zeros(law.covariance.shape)
    for k in range(law.n_last + 1):
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        t[k * d : (k + 1) * d, k * d : (k + 1) * d] = 10.0 ** rng.uniform(-2, 2) * q
    cov = t @ law.covariance.data @ t.T
    return SequenceLaw((cov + cov.T) / 2.0, d)


@settings(max_examples=80, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rescaled=st.booleans(),
    zero_tol=st.sampled_from([1e-14, 1e-9, 1e-3, 0.2]),
)
def test_interval_witnesses_are_those_of_the_per_marginal_detection(
    law_class, n_last, d, seed, rescaled, zero_tol
):
    """Read off the elimination steps, every interval witness is the one
    detect gives on the wrapped marginal: same verdict, block and ratio bits."""
    assume(n_last >= 3 or law_class not in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY))
    law = random_law(law_class, n_last, d, seed)
    if rescaled:
        law = rescale_coordinates(law, seed)
    tol = Tolerance(zero_tol=zero_tol)
    assert_same_entries(full_report(law, tol).interval_cm, reference_interval_cm(law, tol))


# the sweep's chunk budget: as shipped, one step a chunk, every step in one chunk
BUDGETS = {"shipped": None, "one-step": 0, "one-chunk": 1 << 62}


@pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS)
@settings(max_examples=60, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.sampled_from([1.0, 1e165, 1e-155]),
)
def test_the_chunked_sweep_gives_the_witnesses_of_the_per_step_sweep(
    budget, law_class, n_last, d, seed, scale
):
    """However the steps are chunked, every interval entry is the one
    detect gives on that marginal of the per-step reference sweep: same
    verdict, block and ratio bits.  Also where the block norms leave float
    range (covariance times 1e165 or 1e-155, see
    test_the_whole_law_witnesses_are_those_of_detect)."""
    assume(n_last >= 3 or law_class not in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY))
    law = random_law(law_class, n_last, d, seed)
    if scale != 1.0:
        law = SequenceLaw(law.covariance.data * scale, d)
    with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
        if budget is not None:
            patch.setattr(blocks, "_CHUNK_BYTES", budget)
        got = full_report(law).interval_cm
        want = reference_interval_cm(law)
    assert_same_entries(got, want)


def collinear_given_x3(delta, x1_scale=1.0):
    """The pivot-failure matrices of the leading-sweep tests in
    ``tests/test_blocks.py``: given x_3, x_2's components are collinear to
    1e-5 * ``delta``; x_1 is on the scale ``x1_scale``."""
    rows = np.eye(8)
    rows[5] = rows[4] + 1e-5 * (rows[6] + delta * rows[5])
    rows[2:4] *= x1_scale
    return BlockMatrix(rows @ rows.T, 2)


def outcome(run):
    """``run()``'s entries as a list, or the fields of its error as a tuple."""
    try:
        return list(run())
    except NotPositiveDefiniteError as err:
        return type(err), str(err), err.pivot_index, err.pivot_value.hex()


@pytest.mark.parametrize(
    "a,want",
    [
        # a step pivot fails its own diagonal
        (collinear_given_x3(1e-2), ("9.992e-15", 5, "0x1.6800000000001p-47")),
        # as above, where the trailing step's diagonal would pass it
        (collinear_given_x3(1e-2, x1_scale=1e-3), ("9.992e-15", 5, "0x1.6800000000001p-47")),
        # LAPACK fails the time-reversed matrix
        (collinear_given_x3(1e-6), ("0.000e+00", 5, "0x0.0p+0")),
        # a pivot of 1e-13 of the largest diagonal entry, 1e-7 of its own
        (BlockMatrix([[1e6, 0, 0], [0, 1, np.sqrt(1 - 1e-7)], [0, np.sqrt(1 - 1e-7), 1]], 1), None),
    ],
    ids=["step-pivot", "step-pivot-small-x1", "mirror-lapack", "whole-matrix"],
)
def test_the_witness_sweep_has_its_pinned_outcome(a, want):
    """The witness sweep factorizes both directions as one stack and checks
    every pivot of both against its own diagonal entry before its first
    step, the time reversal's first: the error, its message, row and pivot
    bits are pinned, or the matrix passes and gets its four entries."""
    got = outcome(lambda: classify._interval_entries(a, Tolerance()))
    if want is None:
        assert [(e.interval, e.side) for e in got] == [
            (IndexInterval(0, 1), FIRST), (IndexInterval(0, 1), LAST),
            (IndexInterval(1, 2), FIRST), (IndexInterval(1, 2), LAST),
        ]
        return
    pivot, index, bits = want
    message = f"matrix is not positive definite: pivot {pivot} at index {index}"
    assert got == (NotPositiveDefiniteError, message, index, bits)


def test_full_report_calls_no_detect_and_wraps_no_marginal(monkeypatch):
    """No pattern goes through detect: the four whole-law patterns are read
    off one ratio grid of the precision, and the marginals off one grid per
    chunk of steps (at N = 12, d = 2: 7 and 4 steps) with no block
    matrix and no time-reversed copy; both directions are factorized, and
    their pivots checked, in one call."""
    law = random_law(LawClass.CM_F_ONLY, 12, 2, 0)
    chunks = [chunk.shape[1] for chunk in blocks._marginal_sweep(law.precision())]
    assert chunks == [7, 4]
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [
        (patterns, "detect"),
        (blocks, "_ratio_grid"),
        (blocks, "_reverse_time"),
        (blocks, "_cholesky_stack"),
        (blocks, "_check_pivots"),
        (BlockMatrix, "_adopt"),  # every BlockMatrix, wrapped or constructed
    ]:
        counted(owner, name)
    full_report(law)
    assert calls == {
        "_ratio_grid": 1 + len(chunks), "_reverse_time": 1, "_cholesky_stack": 1, "_check_pivots": 1
    }


def assert_same_witness(got, want):
    assert got.conforms == want.conforms
    assert got.worst_block == want.worst_block
    assert got.worst_ratio.hex() == want.worst_ratio.hex()


@settings(max_examples=100, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.sampled_from([1.0, 1e165, 1e-155]),
    zero_tol=st.sampled_from([1e-14, 1e-9, 0.2]),
)
def test_the_whole_law_witnesses_are_those_of_detect(law_class, n_last, d, seed, scale, zero_tol):
    """Every whole-law witness of the classifiers and of full_report, read
    off one band-masked grid, is the one detect gives on the precision with
    the matching pattern: same verdict, block and ratio bits.  Also where
    the block norms leave float range (covariance times 1e165: every norm
    underflows to 0; times 1e-155: every norm overflows, and every ratio is
    NaN, which numpy warns of)."""
    assume(n_last >= 3 or law_class not in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY))
    law = random_law(law_class, n_last, d, seed)
    if scale != 1.0:
        law = SequenceLaw(law.covariance.data * scale, d)
    a, tol = law.precision(), Tolerance(zero_tol=zero_tol)
    with np.errstate(invalid="ignore"):
        markov, cyclic, cm_l, cm_f = (
            detect(a, spec(n_last), tol)
            for spec in (
                PatternSpec.tridiagonal,
                PatternSpec.cyclic_tridiagonal,
                PatternSpec.cm_l,
                PatternSpec.cm_f,
            )
        )
        report = full_report(law, tol)
        for got, want in [
            (classify_cmc(law, LAST, tol), cm_l),
            (classify_cmc(law, FIRST, tol), cm_f),
            (classify_markov(law, tol), markov),
            (classify_reciprocal(law, tol), cyclic),
            (report.markov, markov),
            (report.reciprocal, cyclic),
            (report.cm_l, cm_l),
            (report.cm_f, cm_f),
        ]:
            assert_same_witness(got, want)
        routes_agree = cyclic.conforms == (cm_l.conforms and cm_f.conforms)
        assert classify_reciprocal(law, tol).routes_agree == routes_agree
        assert report.reciprocal.routes_agree == routes_agree


@settings(max_examples=100, deadline=None)
@given(
    n_last=st.integers(min_value=2, max_value=5),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    collinear=st.floats(min_value=-8.0, max_value=-4.0),
)
def test_the_witness_sweep_raises_exactly_when_it_raises_on_the_time_reversal(
    n_last, d, seed, collinear
):
    """SPD acceptance does not depend on the direction of time: the sweep
    checks every pivot of a precision and of its time reversal, each against
    its own diagonal entry, so reversing time changes no verdict."""
    m = nearly_singular((n_last + 1) * d, seed, collinear)
    raised = [
        isinstance(outcome(lambda: classify._interval_entries(BlockMatrix(x, d), Tolerance())), tuple)
        for x in (m, blocks._reverse_time(m, d))
    ]
    assert raised[0] == raised[1]


@pytest.mark.parametrize("bad", ["asymmetric", "nan"])
def test_the_witness_sweep_rejects_an_unmarked_matrix_that_is_not_symmetric(bad):
    """An unmarked matrix passes the symmetry check before the sweep: its
    symmetric part is not silently taken, and a NaN is not reported as a
    failing pivot."""
    m = random_law(LawClass.GENERIC, 4, 2, 0).precision().data.copy()
    if bad == "asymmetric":
        m[0, 5] += 0.1
    else:
        m[3, 3] = np.nan
    with pytest.raises(NotSymmetricError):
        classify._interval_entries(BlockMatrix(m, 2), Tolerance())


@pytest.mark.parametrize("classifier", [full_report, classify_markov, classify_reciprocal])
def test_a_law_whose_derived_precision_overflows_is_refused_by_every_classifier(classifier):
    """LAPACK factors this covariance, but its precision overflows to inf
    and NaN.  The derived precision was once marked trusted: the whole-law
    classifiers called it Markov and reciprocal off it, while the sweep of
    full_report failed a pivot of inf.  It is now left unmarked, and every
    classifier refuses it at its first check."""
    law = SequenceLaw(np.diag([1e-309] * 3), 1)
    with pytest.raises(NotSymmetricError, match="^matrix has non-finite entries$"):
        classifier(law)


@pytest.mark.parametrize("side", ["first", "LAST", None, 0])
def test_an_interval_entry_takes_only_a_conditioning_side(side):
    witness = full_report(ar1_law(3)).interval_cm[0].witness
    with pytest.raises(TypeError):
        IntervalClassEntry(IndexInterval(0, 2), side, witness)
    assert IntervalClassEntry(IndexInterval(0, 2), FIRST, witness).side is FIRST
