"""Seeded trajectory sampling and Monte Carlo validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmseq import (
    BoundaryCondition,
    ConditioningSide,
    InsufficientSamplesError,
    LawClass,
    SampleBatch,
    build_backward,
    build_forward,
    mc_validate,
    model_covariance,
    random_law,
    sample_backward,
    sample_covariance,
    sample_forward,
)
from cmseq import simulate
from cmseq.blocks import cholesky_spd
from cmseq.fixtures import ar1_law, identity_law
from cmseq.simulate import _BLOCK, _seed_words_type, _substream_seed_words

FIRST = ConditioningSide.FIRST
LAST = ConditioningSide.LAST
BC1 = BoundaryCondition.BC1
BC2 = BoundaryCondition.BC2

AR1_MODEL = build_forward(ar1_law(4), LAST, BC1)


def test_sampling_is_deterministic():
    a = sample_forward(AR1_MODEL, 50, seed=123)
    b = sample_forward(AR1_MODEL, 50, seed=123)
    assert a.data.tobytes() == b.data.tobytes()
    c = sample_forward(AR1_MODEL, 50, seed=124)
    assert a.data.tobytes() != c.data.tobytes()


def test_replicates_are_independent_substreams():
    """Replicate r depends only on (seed, r), so growing the batch extends
    it without disturbing what was already drawn."""
    small = sample_forward(AR1_MODEL, 10, seed=9)
    big = sample_forward(AR1_MODEL, 25, seed=9)
    np.testing.assert_array_equal(big.data[:10], small.data)


def test_batch_shape_and_immutability():
    batch = sample_forward(AR1_MODEL, 7, seed=1)
    assert batch.data.shape == (7, 5, 1)
    assert batch.n_replicates == 7 and batch.n_last == 4 and batch.dim == 1
    with pytest.raises(ValueError):
        batch.data[0, 0, 0] = 0.0


def test_sample_batch_validates_shape():
    with pytest.raises(ValueError):
        SampleBatch(3, 2, 1, np.zeros((3, 2, 1)), 0)  # needs n_last+1 = 3 times


def test_sample_covariance_trivial_batches():
    zeros = SampleBatch(4, 2, 1, np.zeros((4, 3, 1)), 0)
    np.testing.assert_array_equal(sample_covariance(zeros).data, np.zeros((3, 3)))

    x = np.array([1.0, -2.0, 0.5])
    dup = SampleBatch(5, 2, 1, np.tile(x[None, :, None], (5, 1, 1)), 0)
    np.testing.assert_allclose(sample_covariance(dup).data, np.outer(x, x), atol=1e-14)


def test_sample_covariance_matches_direct_formula():
    batch = sample_forward(AR1_MODEL, 11, seed=5)
    flat = batch.data.reshape(11, -1)
    np.testing.assert_allclose(
        sample_covariance(batch).data, flat.T @ flat / 11.0, atol=1e-14
    )


def test_sample_covariance_needs_two_replicates():
    lone = sample_forward(AR1_MODEL, 1, seed=3)
    with pytest.raises(InsufficientSamplesError):
        sample_covariance(lone)


def test_reconstructed_noise_is_white():
    """Driving residuals recovered from the trajectories should be mutually
    uncorrelated across time — they are the model's independent noises."""
    m = AR1_MODEL
    batch = sample_forward(m, 20000, seed=77)
    x = batch.data[:, :, 0]
    resid = np.empty((20000, 3))
    for i, k in enumerate((1, 2, 3)):
        resid[:, i] = (
            x[:, k]
            - x[:, k - 1] * m.g_trans[k][0, 0]
            - x[:, 4] * m.g_cond[k][0, 0]
        )
    cross = resid.T @ resid / 20000.0
    np.testing.assert_allclose(cross, np.diag(np.diag(cross)), atol=0.05)
    # and the variances are the model's noise covariances
    for i, k in enumerate((1, 2, 3)):
        assert cross[i, i] == pytest.approx(m.g_noise[k][0, 0], abs=0.05)


def test_forward_and_backward_sampling_agree_in_law():
    law = ar1_law(3)
    f = sample_covariance(sample_forward(build_forward(law, LAST, BC1), 40000, seed=2))
    b = sample_covariance(sample_backward(build_backward(law, FIRST, BC1), 40000, seed=2))
    assert np.max(np.abs(f.data - b.data)) < 0.04


def test_mc_validate_passes_on_matched_model():
    report = mc_validate(AR1_MODEL, 20000, seed=6, tol_abs=0.05)
    assert report.passed
    assert report.worst_abs_dev < 0.05
    assert report.n_replicates == 20000 and report.seed == 6


def test_mc_validate_catches_wrong_reference():
    report = mc_validate(AR1_MODEL, 20000, seed=6, tol_abs=0.05, reference=identity_law(4))
    assert not report.passed
    i, j = report.worst_entry
    assert i != j  # the AR(1) cross-correlations are what the white law lacks


@pytest.mark.parametrize(
    "reference",
    [identity_law(1, dim=2), identity_law(2), identity_law(3, dim=2)],
    ids=["same-size-other-blocks", "fewer-times", "other-dim"],
)
def test_mc_validate_rejects_a_reference_of_another_shape(reference):
    """An N=1, d=2 law has the 4 x 4 covariance of an N=3, d=1 model, but
    another block layout; a reference of another size cannot be compared."""
    model = build_forward(ar1_law(3), LAST, BC1)
    message = r"reference law has N=\d, d=\d, but the model has N=3, d=1"
    with pytest.raises(ValueError, match=message):
        mc_validate(model, 20000, seed=6, tol_abs=0.05, reference=reference)


@pytest.mark.parametrize("reference", [ar1_law(3).covariance, ar1_law(3).covariance.data])
def test_mc_validate_refuses_a_reference_that_is_not_a_law(reference):
    """A covariance matrix is not a law: it is refused by type, as
    model_covariance refuses what is not a model."""
    model = build_forward(ar1_law(3), LAST, BC1)
    with pytest.raises(TypeError, match="expected a SequenceLaw reference"):
        mc_validate(model, 1000, 1, 1.0, reference=reference)


def test_mc_validate_rejects_hopeless_tolerance():
    with pytest.raises(ValueError):
        mc_validate(AR1_MODEL, 100, seed=0, tol_abs=0.02)
    with pytest.raises(ValueError, match="statistical floor"):
        mc_validate(AR1_MODEL, 100, seed=0, tol_abs=float("nan"))


def test_backward_models_sample_their_own_law():
    law = random_law(LawClass.RECIPROCAL, 3, 2, seed=21)
    model = build_backward(law, FIRST, BC2)
    report = mc_validate(model, 20000, seed=14, tol_abs=0.1)
    assert report.passed


def test_conditioning_on_first_time_samples_correctly():
    # the equal-split convention must not double-count the x_0 weight
    law = ar1_law(3)
    model = build_forward(law, FIRST, BC1)
    report = mc_validate(model, 20000, seed=31, tol_abs=0.05)
    assert report.passed


def test_sampling_type_checks():
    law = ar1_law(2)
    fwd = build_forward(law, LAST, BC1)
    bwd = build_backward(law, FIRST, BC1)
    with pytest.raises(TypeError):
        sample_forward(bwd, 3, 0)
    with pytest.raises(TypeError):
        sample_backward(fwd, 3, 0)


def _reference_sample(model, n_replicates, seed):
    """The sampler with one SeedSequence/PCG64/Generator per replicate: the
    definition of the stream that the vectorized substream setup replays."""
    n, d = model.n_last, model.dim
    plan = model._generation_plan
    factors = {k: cholesky_spd(model.g_noise[k]) for k in model.g_noise}
    z = np.empty((n_replicates, len(plan), d))
    for r in range(n_replicates):
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=(r,)))
        )
        z[r] = gen.standard_normal((len(plan), d))
    data = np.zeros((n_replicates, n + 1, d))
    for pos, (t, terms) in enumerate(plan):
        x = z[:, pos, :] @ factors[t].T
        for gain, src in terms:
            x = x + data[:, src, :] @ gain.T
        data[:, t, :] = x
    return data


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize(
    "direction, c, bc",
    [("forward", LAST, BC1), ("forward", LAST, BC2), ("forward", FIRST, BC1),
     ("backward", FIRST, BC1), ("backward", FIRST, BC2), ("backward", LAST, BC1)],
)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sampler_matches_per_replicate_substreams(seed, direction, c, bc, dim):
    law = random_law(LawClass.RECIPROCAL, 3, dim, seed=dim)
    m = _BLOCK + 3  # crosses a block boundary
    if direction == "forward":
        model = build_forward(law, c, bc)
        batch = sample_forward(model, m, seed)
    else:
        model = build_backward(law, c, bc)
        batch = sample_backward(model, m, seed)
    assert batch.data.tobytes() == _reference_sample(model, m, seed).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bits_do_not_depend_on_the_block_size(dim, monkeypatch):
    """Every block size gives the bits of one block, a lone last row and a
    batch of one replicate too: a one-row block runs as two rows, so it
    never takes numpy's one-row (gemv) path."""
    model = build_forward(random_law(LawClass.RECIPROCAL, 3, dim, seed=dim), LAST, BC1)
    whole = sample_forward(model, 12, seed=7).data
    for block in (3, 4, 5, 11):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        for m in range(1, 13):
            assert sample_forward(model, m, seed=7).data.tobytes() == whole[:m].tobytes()
    one = sample_forward(model, 1, seed=7).data
    assert one.tobytes() == _reference_sample(model, 2, 7)[:1].tobytes()


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_sampler_memory_beyond_the_batch_does_not_grow_with_it(
    direction, processes, traced_peak, workers
):
    """From 4 to 16 blocks of replicates, the peak memory beyond the batch
    grows by less than a quarter of one block of the batch.  With worker
    processes the batch lives in a shared memory map, which tracemalloc
    does not see, so all that this process traces counts."""
    workers(processes)
    if direction == "forward":
        model, sample = build_forward(ar1_law(4), LAST, BC1), sample_forward
    else:
        model, sample = build_backward(ar1_law(4), FIRST, BC1), sample_backward
    sample(model, 4 * _BLOCK, seed=0)  # warm-up
    beyond = []
    for m in (4 * _BLOCK, 16 * _BLOCK):
        batch, peak = traced_peak(lambda: sample(model, m, seed=0))
        beyond.append(peak - (batch.data.nbytes if processes == 1 else 0))
    block_bytes = batch.data[:_BLOCK].nbytes
    assert beyond[1] - beyond[0] < block_bytes / 4, (beyond, block_bytes)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
    keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
)
def test_substream_seed_words_match_seed_sequence(seed, keys):
    got = _substream_seed_words(seed, np.array(keys))
    want = [
        np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(4, np.uint64)
        for r in keys
    ]
    np.testing.assert_array_equal(got, np.array(want))


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 1, 2**128 + 5])
def test_a_pcg64_seeded_from_the_words_is_the_replicates_substream(seed):
    keys = [0, 1023, 1024, 2**32 - 1]
    for r, words in zip(keys, _substream_seed_words(seed, np.array(keys))):
        got = np.random.PCG64(_seed_words_type()(words))
        want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r,)))
        assert got.state == want.state
        normals = [np.random.Generator(g).standard_normal(8) for g in (got, want)]
        assert normals[0].tobytes() == normals[1].tobytes()


@pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (4, np.uint32)])
def test_the_seed_words_refuse_any_other_request(n_words, dtype):
    words = _seed_words_type()(_substream_seed_words(0, np.array([0]))[0])
    with pytest.raises(ValueError, match="need 4 uint64 words"):
        words.generate_state(n_words, dtype)


@pytest.mark.parametrize("m, seed", [(3, -1), (0, -1), (-1, 0), (2**32 + 1, 0)])
def test_bad_seed_or_count_is_rejected(m, seed):
    with pytest.raises(ValueError):
        sample_forward(AR1_MODEL, m, seed)


@pytest.mark.parametrize("m", [0, 1])
def test_mc_validate_needs_two_replicates(m):
    with pytest.raises(InsufficientSamplesError):
        mc_validate(AR1_MODEL, m, seed=0, tol_abs=0.05)


@pytest.mark.parametrize("m, seed", [(2.9, 1), (2, 1.7), (2.0, 1), ("2", 1), (2, "1")])
def test_a_count_or_seed_that_is_not_an_integer_is_rejected(m, seed):
    """A float count or seed is not truncated to another batch."""
    with pytest.raises(TypeError):
        sample_forward(AR1_MODEL, m, seed)
    with pytest.raises(TypeError):
        sample_backward(build_backward(ar1_law(4), FIRST, BC1), m, seed)


def test_mc_validate_rejects_a_count_that_is_not_an_integer():
    """The statistical floor is not computed from one count and the batch
    drawn with another."""
    with pytest.raises(TypeError):
        mc_validate(AR1_MODEL, 1000.9, seed=0, tol_abs=1.0)


def test_numpy_integer_counts_and_seeds_are_integers():
    want = sample_forward(AR1_MODEL, 5, 3)
    got = sample_forward(AR1_MODEL, np.int64(5), np.uint8(3))
    assert (got.n_replicates, got.seed) == (5, 3)
    assert type(got.n_replicates) is int and type(got.seed) is int
    assert got.data.tobytes() == want.data.tobytes()
