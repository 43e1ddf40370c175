"""Seeded trajectory sampling from dynamic models and Monte Carlo validation.

Each replicate owns an independent, deterministically derived random
substream (PCG64 seeded from ``SeedSequence(entropy=seed, spawn_key=(r,))``),
so batches are bit-identical regardless of evaluation order, parallelism, or
how many replicates surround a given one (a batch of one replicate aside,
see below).  Within a replicate, one standard normal vector is consumed per
time step in the model's generation order (boundary recursion first, then
the chain).  That order is the generation plan of :mod:`cmseq.models`, the
same steps SG is assembled from.

Replicates are drawn a block of ``_BLOCK`` at a time.  Each block's
standard normals fill one reused block array, one replicate's substream
after another; the block then runs through the generation plan at once and
fills its rows of the batch.  The only array that grows with the number of
replicates is the batch itself: the memory beyond it is one block's draws,
substream states and propagation temporaries.  The bits do not depend on
the block size.  numpy multiplies a one-row block by BLAS's vector routine
(gemv), whose last bits at d >= 2 can differ from those of the matrix
routine (gemm) that longer blocks take, so a one-row block runs as two
rows and keeps the first: a batch of one replicate is row 0 of any longer
batch.

A large batch is sampled on every usable CPU.  The blocks are split into
contiguous ranges of whole blocks, one per worker (see ``_split``): this
process samples the first range and a forked child each other one, all
into one shared anonymous memory map that becomes the batch's ``data``.
Each replicate keeps its own substream, so the bits are those of the
serial loop, which is the same code run as one range.  The batch writers
of :mod:`cmseq.serialize` split their chunks over workers the same way.

No replicate builds its own ``SeedSequence``.  The spawn key is the last
word ``SeedSequence`` mixes into its pool, so the pool of
``SeedSequence(seed)`` is mixed with every replicate index of a block at
once in ``uint32`` arithmetic, replaying numpy's ``generate_state``, and
numpy seeds each replicate's ``PCG64`` from its four words.  The draws are
the bits of the per-replicate construction.
"""

from __future__ import annotations

import functools
import mmap
import operator
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix, SequenceLaw
from .models import BackwardCmcModel, ForwardCmcModel, model_covariance

__all__ = [
    "InsufficientSamplesError",
    "SampleBatch",
    "McValidationReport",
    "sample_forward",
    "sample_backward",
    "sample_covariance",
    "mc_validate",
]


# numpy's SeedSequence hash constants, part of its documented, stable seeding
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _MASK32 = 16, (1 << 32) - 1
# replicates sampled together; the memory beyond the batch grows with it,
# not with the batch
_BLOCK = 1024
# blocks (or writer chunks) each worker process must get for a fork to pay:
# set by measurement, see _split
_FORK_MIN_BLOCKS = 8


class InsufficientSamplesError(ValueError):
    """Raised when an estimate is requested from too few replicates."""


@dataclass(frozen=True)
class SampleBatch:
    """A batch of independent trajectories drawn from one model.

    ``data`` has shape (n_replicates, n_last + 1, dim); regeneration from the
    same (model, n_replicates, seed) triple is bit-identical.
    """

    n_replicates: int
    n_last: int
    dim: int
    data: np.ndarray
    seed: int

    def __post_init__(self):
        expected = (self.n_replicates, self.n_last + 1, self.dim)
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != expected {expected}")


@dataclass(frozen=True)
class McValidationReport:
    """Entrywise comparison of a sample covariance against the model's law."""

    passed: bool
    worst_abs_dev: float
    worst_entry: tuple[int, int]
    tol_abs: float
    n_replicates: int
    seed: int


def _substream_seed_words(seed, r):
    """``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for every index ``i`` in ``r``, as an array of shape (len(r), 4).

    ``SeedSequence`` pads the seed's entropy words to its 4-word pool and
    appends the spawn key, so the key is mixed in last: the pool and hash
    constant before it depend on the seed alone.  Every index in ``r`` must
    be below 2**32, so that its spawn key is one word.
    """
    seed = int(seed)
    base = np.random.SeedSequence(seed)  # raises ValueError for a negative seed
    n_words = max(1, -(-seed.bit_length() // 32))
    # hashmix calls before the key: 4 to load the pool, 12 to mix it, 4 per
    # entropy word beyond the pool
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, n_words - 4), 1 << 32) & _MASK32
    r = np.asarray(r, dtype=np.uint32)
    pool = []
    for word in base.pool.tolist():
        key = r ^ np.uint32(hash_const)  # hashmix(r, hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        key *= np.uint32(hash_const)
        key ^= key >> _XSHIFT
        # mix(word, key)
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - key * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> _XSHIFT
        pool.append(mixed)
    hash_const = _INIT_B
    out = np.empty((len(r), 8), dtype=np.uint32)
    for i in range(8):  # generate_state: 8 uint32 words cycling over the pool
        word = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word *= np.uint32(hash_const)
        word ^= word >> _XSHIFT
        out[:, i] = word
    return out.view("<u8").astype(np.uint64)  # native, as PCG64 reads it


@functools.lru_cache(maxsize=1)
def _seed_words_type():
    """``PCG64``'s seed sequence of one replicate's 4 seed words, a native
    contiguous ``uint64`` array that ``PCG64`` reads from memory.  Made on
    first sampling, as importing ``numpy.random`` costs about 10 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"need 4 uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.words

    return SeedWords


def _usable_cpus():
    """The number of CPUs this process may run on (asked only on Linux)."""
    return len(os.sched_getaffinity(0))


def _fork_is_safe():
    """Whether workers may be forked here, and without a warning.

    Only on Linux: elsewhere a forked child may not use system libraries
    that the parent has used (on macOS CPython's own ``multiprocessing``
    stopped forking for that reason).  From CPython 3.12 on, ``os.fork``
    warns that a process with more than one thread may deadlock the child,
    counting the threads by the 20th field of ``/proc/self/stat``; those
    versions fork only a process with one thread.
    """
    if not sys.platform.startswith("linux"):
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[17]) == 1
    except (OSError, ValueError, IndexError):
        return False


def _split(n_blocks):
    """Contiguous ranges ``(lo, hi)`` of whole blocks, one per worker process:
    one per usable CPU, each with at least ``_FORK_MIN_BLOCKS`` blocks, so
    that a fork's fixed cost (copying the page tables, then the pages either
    side writes) stays small beside its share of the work.  One range, the
    serial loop, where forking is not safe (see ``_fork_is_safe``)."""
    w = 1
    if n_blocks >= 2 * _FORK_MIN_BLOCKS and _fork_is_safe():
        w = min(_usable_cpus(), n_blocks // _FORK_MIN_BLOCKS)
    return [(n_blocks * i // w, n_blocks * (i + 1) // w) for i in range(w)]


def _run_split(ranges, work):
    """Run ``work(i, lo, hi)`` on every range ``i``, all at once.

    This process runs range 0 and a forked child each other range, so a
    child's results must go to memory or files shared with this process,
    and ``work`` must redo a range from its start: a child reports only
    its exit status, and once every child is reaped this process runs each
    failed range again, in range order.  A range whose fork fails, as on
    EAGAIN, counts as failed.  So a failure this process meets too is
    raised as on the serial path (the first failing range's), and one of a
    child alone, such as a kill by a signal, changes nothing.  An
    exception here, such as an interrupt, kills the children first; a
    signal that kills this process outright ends them within 0.1 s.
    """
    pending = {}  # pid -> the child's range, until the child is reaped
    failed = []
    parent = os.getpid()
    try:
        for i, (lo, hi) in enumerate(ranges[1:], 1):
            try:
                pid = os.fork()
            except OSError:
                failed.append(i)
                continue
            if pid == 0:  # the child runs its range and never returns
                status = 1
                try:
                    _end_with(parent)
                    work(i, lo, hi)
                    status = 0
                finally:
                    os._exit(status)
            pending[pid] = i
        work(0, *ranges[0])
        for pid, i in list(pending.items()):
            if os.waitpid(pid, 0)[1]:
                failed.append(i)
            del pending[pid]
        for i in sorted(failed):
            work(i, *ranges[i])
    finally:
        for pid in pending:
            os.kill(pid, signal.SIGKILL)
        for pid in pending:
            os.waitpid(pid, 0)


def _end_with(parent):
    """End this forked worker as soon as ``parent`` has ended, as when a
    signal killed it before it could kill its workers."""

    def watch():
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _sample(model, n_replicates, seed):
    n, d = model.n_last, model.dim
    m = operator.index(n_replicates)  # TypeError for a non-integer
    if m < 0:
        raise ValueError("n_replicates must be >= 0")
    if m > 1 << 32:
        raise ValueError("n_replicates must be <= 2**32")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seed_words = _seed_words_type()
    plan = model._generation_plan
    factors = model._noise_lower  # one per noise covariance, kept by the model
    starts = range(0, m, _BLOCK)
    ranges = _split(len(starts))
    shape = (m, n + 1, d)
    if len(ranges) == 1:
        data = np.zeros(shape)
    else:  # shared with the forked workers
        size = m * (n + 1) * d * np.dtype(float).itemsize
        data = np.frombuffer(mmap.mmap(-1, size), dtype=float).reshape(shape)

    def work(_, lo, hi):
        # a block's draws, reused; a one-row block runs as two rows, since
        # numpy sends one row to gemv (see the module docstring)
        z = np.zeros((max(2, min(m, _BLOCK)), len(plan), d))
        for r0 in starts[lo:hi]:
            r1 = min(r0 + _BLOCK, m)
            zb = z[:max(2, r1 - r0)]
            rows = data[r0:r1] if r1 - r0 > 1 else np.zeros((2, n + 1, d))
            # per-replicate substreams produce the block's standard normal draws
            for zr, words in zip(zb, _substream_seed_words(seed, np.arange(r0, r1))):
                np.random.Generator(np.random.PCG64(seed_words(words))).standard_normal(out=zr)
            # then the block runs through the recursions at once
            for pos, (t, terms) in enumerate(plan):
                x = zb[:, pos, :] @ factors[t].T
                for gain, src in terms:
                    x = x + rows[:, src, :] @ gain.T
                rows[:, t, :] = x
            if r1 - r0 == 1:
                data[r0] = rows[0]

    _run_split(ranges, work)
    data.setflags(write=False)
    return SampleBatch(m, n, d, data, seed)


def sample_forward(model: ForwardCmcModel, n_replicates: int, seed: int) -> SampleBatch:
    """Draw i.i.d. trajectories from a forward model.

    Generation follows the boundary order: for c=LAST, BC1 draws x_0 then
    x_N then the interior chain, BC2 draws x_N first; for c=FIRST the chain
    runs x_0, x_1, ..., x_N.

    Parameters
    ----------
    model : ForwardCmcModel
    n_replicates : int
        Number of independent trajectories.
    seed : int
        Batch seed; replicate r uses the substream spawned at key (r,).

    Returns
    -------
    SampleBatch
    """
    if not isinstance(model, ForwardCmcModel):
        raise TypeError("sample_forward needs a ForwardCmcModel")
    return _sample(model, n_replicates, seed)


def sample_backward(model: BackwardCmcModel, n_replicates: int, seed: int) -> SampleBatch:
    """Draw i.i.d. trajectories from a backward model.

    The draw order is the forward one of its mirror, the forward model of
    the reversed sequence: each time t of that order becomes N-t.
    """
    if not isinstance(model, BackwardCmcModel):
        raise TypeError("sample_backward needs a BackwardCmcModel")
    return _sample(model, n_replicates, seed)


def sample_covariance(batch: SampleBatch) -> BlockMatrix:
    """Zero-mean sample covariance (1/M) sum x x' of a batch, as its
    symmetric part, marked as the package's own matrices are when finite.

    No mean subtraction: the laws here are zero-mean by construction.
    """
    if batch.n_replicates < 2:
        raise InsufficientSamplesError(
            f"need at least 2 replicates, got {batch.n_replicates}"
        )
    flat = batch.data.reshape(batch.n_replicates, -1)
    return BlockMatrix._formed(flat.T @ flat / batch.n_replicates, batch.dim)


def mc_validate(
    model,
    n_replicates: int,
    seed: int,
    tol_abs: float,
    reference: SequenceLaw | None = None,
) -> McValidationReport:
    """Sample the model and compare the sample covariance to its law entrywise.

    ``tol_abs`` must leave statistical headroom: at least
    ``4 * sqrt(2 / n_replicates) * max diagonal entry`` of the reference
    covariance (roughly four standard errors of a variance estimate).  Pass
    ``reference`` to compare against a different law than the model's own —
    e.g. to demonstrate that a perturbed model no longer matches the
    original.  The reference must have the model's ``(n_last, dim)``.
    """
    n_replicates = operator.index(n_replicates)  # TypeError for a non-integer
    if n_replicates < 2:
        raise InsufficientSamplesError(f"need at least 2 replicates, got {n_replicates}")
    if reference is None:
        reference = model_covariance(model)
    elif (reference.n_last, reference.dim) != (model.n_last, model.dim):
        raise ValueError(
            f"reference law has N={reference.n_last}, d={reference.dim}, "
            f"but the model has N={model.n_last}, d={model.dim}"
        )
    ref = reference.covariance.data
    floor = 4.0 * np.sqrt(2.0 / n_replicates) * float(np.max(np.diag(ref)))
    if not tol_abs >= floor:  # also rejects NaN
        raise ValueError(
            f"tol_abs = {tol_abs} is not at or above the statistical floor {floor:.3e} "
            f"for n_replicates = {n_replicates}"
        )
    # both samplers run _sample; calling the public one keeps it visible to tracing
    sample = sample_forward if isinstance(model, ForwardCmcModel) else sample_backward
    dev = np.abs(sample_covariance(sample(model, n_replicates, seed)).data - ref)
    worst_flat = int(np.argmax(dev))
    worst_entry = np.unravel_index(worst_flat, dev.shape)
    worst = float(dev[worst_entry])
    return McValidationReport(
        passed=worst <= tol_abs,
        worst_abs_dev=worst,
        worst_entry=(int(worst_entry[0]), int(worst_entry[1])),
        tol_abs=float(tol_abs),
        n_replicates=n_replicates,
        seed=int(seed),
    )
