"""Sampling and batch writing over forked worker processes: the same bits
and bytes as the serial loop, and no process left behind on failure."""

import errno
import io
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from cmseq import (
    BoundaryCondition,
    ConditioningSide,
    LawClass,
    build_backward,
    build_forward,
    random_law,
    sample_backward,
    sample_forward,
    serialize,
    simulate,
)
from cmseq.cli import main
from cmseq.fixtures import ar1_law
from cmseq.serialize import save_batch_csv, save_batch_json, save_model
from cmseq.simulate import _BLOCK

FIRST, LAST = ConditioningSide
BC1 = BoundaryCondition.BC1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _batch(direction, dim, m):
    law = random_law(LawClass.RECIPROCAL, 3, dim, seed=dim)
    if direction == "forward":
        return sample_forward(build_forward(law, LAST, BC1), m, seed=11)
    return sample_backward(build_backward(law, FIRST, BC1), m, seed=11)


# M = 2049 and 5121 leave a one-row last block (M % 1024 == 1); with three
# workers, 2049 gives each worker one block and 4099 splits 5 blocks 1/2/2
@pytest.mark.parametrize("m", [2 * _BLOCK + 1, 4 * _BLOCK + 3, 5 * _BLOCK + 1])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_worker_batches_equal_the_serial_batch(direction, dim, m, workers):
    workers(1)
    serial = _batch(direction, dim, m).data
    workers(3)
    forked = _batch(direction, dim, m).data
    assert forked.tobytes() == serial.tobytes()
    assert not forked.flags.writeable
    assert_no_child_left()


@pytest.mark.parametrize("m", [0, 1, 2 * _BLOCK + 1, 4 * _BLOCK + 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("save", [save_batch_csv, save_batch_json])
def test_worker_files_equal_the_serial_files(tmp_path, save, dim, m, workers):
    """Chunks hold about 4096 values, so these batches take 1 to 10 chunks."""
    workers(1)
    batch = _batch("forward", dim, m)
    save(tmp_path / "serial", batch)
    workers(3)
    save(tmp_path / "forked", batch)
    assert (tmp_path / "forked").read_bytes() == (tmp_path / "serial").read_bytes()
    assert_no_child_left()


def test_the_first_failing_range_raises_its_own_exception(workers):
    """Ranges 1 and 2 fail in their workers and again when redone here."""
    workers(3)

    def work(i, lo, hi):
        if i == 1:
            raise KeyError(f"range {lo}..{hi}")
        if i == 2:
            raise ValueError("range 2")

    with pytest.raises(KeyError, match="range 1..2"):
        simulate._run_split([(0, 1), (1, 2), (2, 3)], work)
    assert_no_child_left()


def test_an_exception_while_waiting_kills_and_reaps_every_child(workers):
    """An interrupt (here an alarm) while this process waits for its
    workers kills them; it does not wait for them to finish."""
    workers(3)

    def work(i, lo, hi):
        if i:
            time.sleep(60)

    def alarm(signum, frame):
        raise TimeoutError("alarm")

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            simulate._run_split([(0, 1), (1, 2), (2, 3)], work)
        assert time.monotonic() - start < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


def test_an_exception_in_this_process_kills_and_reaps_every_child(workers):
    workers(2)

    def work(i, lo, hi):
        if i:
            time.sleep(60)
        else:
            raise ArithmeticError("range 0")

    start = time.monotonic()
    with pytest.raises(ArithmeticError):
        simulate._run_split([(0, 1), (1, 2)], work)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, build_forward(ar1_law(3), LAST, BC1))
    return str(path)


def _raise(exc):
    raise exc


def _raise_unpicklable():
    class Local(Exception):  # a local class does not pickle
        pass

    raise Local()


# faults a worker may meet: a full disk, a failed allocation, the OOM
# killer, an exception that could not be sent anywhere
FAULTS = {
    "ENOSPC": lambda: _raise(OSError(errno.ENOSPC, "No space left on device")),
    "MemoryError": lambda: _raise(MemoryError("worker")),
    "SIGKILL": lambda: os.kill(os.getpid(), signal.SIGKILL),
    "unpicklable": _raise_unpicklable,
}
# a step of sampling and one of writing, each run for every block or chunk
STEPS = {"sample": (simulate, "_substream_seed_words"), "write": (serialize, "_items")}


def _before(monkeypatch, module, name, check):
    """Call ``check()`` before every call of ``module.name``."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: check() or original(*args))


def _before_chunks(monkeypatch, check):
    """Call ``check(c, n_chunks)`` before a batch writer spells chunk ``c``."""
    write_chunks = serialize._write_chunks

    def hooked(fh, n_chunks, chunk_text):
        def text(c):
            check(c, n_chunks)
            return chunk_text(c)

        write_chunks(fh, n_chunks, text)

    monkeypatch.setattr(serialize, "_write_chunks", hooked)


def _simulate(model_file, out, fmt="csv"):
    """``cmseq simulate`` of 3 blocks (3 writer chunks): two ranges of work
    under ``workers(2)``, the second run by a forked child."""
    return main(["simulate", model_file, "--samples", str(3 * _BLOCK), "--seed", "1",
                 "--format", fmt, "--out", str(out)])


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_only_in_workers_leaves_the_serial_bytes(
    tmp_path, model_file, fault, step, fmt, monkeypatch, capfd, workers
):
    """A worker that fails or is killed has its range redone by the
    command's own process: exit 0, nothing printed, the serial bytes."""
    workers(1)
    assert _simulate(model_file, tmp_path / "serial", fmt) == 0
    workers(2)
    parent, hit = os.getpid(), tmp_path / "hit"

    def check():
        if os.getpid() != parent:
            hit.touch()
            FAULTS[fault]()

    _before(monkeypatch, *STEPS[step], check)
    assert _simulate(model_file, tmp_path / "forked", fmt) == 0
    assert hit.exists()
    assert (tmp_path / "forked").read_bytes() == (tmp_path / "serial").read_bytes()
    assert capfd.readouterr().err == ""
    assert_no_child_left()


@pytest.mark.parametrize("first", [0, 1], ids=["every-range", "after-range-0"])
@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_a_write_fault_this_process_meets_too_fails_simulate(
    tmp_path, model_file, fmt, first, monkeypatch, capfd, workers
):
    """ENOSPC on chunks ``first`` on, in every process: the serial path's
    error, exit 2, and no --out file; from chunk 1 on it is the redone
    range that raises it."""
    workers(2)
    _before_chunks(monkeypatch, lambda c, n: c >= first and FAULTS["ENOSPC"]())
    out = tmp_path / "batch"
    assert _simulate(model_file, out, fmt) == 2
    assert capfd.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("first", [0, 1], ids=["every-range", "after-range-0"])
def test_a_sampling_fault_this_process_meets_too_propagates(
    tmp_path, model_file, first, monkeypatch, workers
):
    workers(2)
    words = simulate._substream_seed_words

    def failing(seed, r):
        if r[0] >= first * _BLOCK:
            raise MemoryError("sampling")
        return words(seed, r)

    monkeypatch.setattr(simulate, "_substream_seed_words", failing)
    out = tmp_path / "batch.csv"
    with pytest.raises(MemoryError, match="sampling"):
        _simulate(model_file, out)
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("save", [save_batch_csv, save_batch_json])
def test_a_worker_that_dies_mid_range_leaves_the_serial_bytes(tmp_path, save, monkeypatch, workers):
    """The worker writes chunk 1 of its range 1..3 to its temporary file,
    then is killed; the redone range replaces that chunk, not follows it."""
    workers(1)
    batch = _batch("forward", 1, 3 * _BLOCK)  # 3 chunks of 1,024 replicates
    save(tmp_path / "serial", batch)
    # a chunk outgrows a file buffer, so chunk 1 reaches the file before the kill
    assert (tmp_path / "serial").stat().st_size > 3 * io.DEFAULT_BUFFER_SIZE
    workers(2)
    parent = os.getpid()

    def check(c, n_chunks):
        if c == n_chunks - 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _before_chunks(monkeypatch, check)
    save(tmp_path / "forked", batch)
    assert (tmp_path / "forked").read_bytes() == (tmp_path / "serial").read_bytes()
    assert_no_child_left()


def test_a_failed_fork_leaves_the_serial_bytes(tmp_path, monkeypatch, workers):
    """The second fork of each run fails with EAGAIN: this process runs
    that range itself after reaping the other worker, and the batch and
    both batch files keep the serial path's bytes."""
    workers(1)
    serial = _batch("forward", 2, 3 * _BLOCK)
    for save in (save_batch_csv, save_batch_json):
        save(tmp_path / f"serial-{save.__name__}", serial)
    workers(3)
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(len(forks))
        if len(forks) % 2 == 0:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    batch = _batch("forward", 2, 3 * _BLOCK)
    assert batch.data.tobytes() == serial.data.tobytes()
    for save in (save_batch_csv, save_batch_json):
        save(tmp_path / save.__name__, batch)
        want = (tmp_path / f"serial-{save.__name__}").read_bytes()
        assert (tmp_path / save.__name__).read_bytes() == want
    assert len(forks) == 6
    assert_no_child_left()


def _not_asked():
    raise AssertionError("asked")


def test_small_batches_and_one_cpu_take_the_serial_path(monkeypatch):
    k = simulate._FORK_MIN_BLOCKS
    # below 2 * k blocks neither the CPUs nor the fork rule is asked
    monkeypatch.setattr(simulate, "_usable_cpus", _not_asked)
    monkeypatch.setattr(simulate, "_fork_is_safe", _not_asked)
    assert simulate._split(0) == [(0, 0)]
    assert simulate._split(2 * k - 1) == [(0, 2 * k - 1)]
    monkeypatch.undo()
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
    safe = simulate._fork_is_safe()
    assert len(simulate._split(2 * k)) == (2 if safe else 1)
    assert len(simulate._split(100 * k)) == (4 if safe else 1)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    assert simulate._split(100 * k) == [(0, 100 * k)]


def test_ranges_are_contiguous_whole_blocks(workers):
    workers(3)
    assert simulate._split(7) == [(0, 2), (2, 4), (4, 7)]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux /proc")
def test_from_cpython_3_12_a_process_with_threads_does_not_fork(monkeypatch):
    """CPython 3.12 and later warn at ``os.fork`` when the process has more
    than one thread; the sampler and writers then stay serial."""
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    alone = len(os.listdir("/proc/self/task")) == 1
    assert simulate._fork_is_safe() == alone
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert not simulate._fork_is_safe()
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(sys, "version_info", (3, 11, 0))
    assert simulate._fork_is_safe()


def test_only_linux_forks(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert not simulate._fork_is_safe()
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
    n = 100 * simulate._FORK_MIN_BLOCKS
    assert simulate._split(n) == [(0, n)]


def test_workers_end_when_their_parent_is_killed(tmp_path, workers):
    """A command killed outright (SIGKILL, or SIGTERM without a handler)
    cannot kill its workers; they notice and end by themselves."""
    workers(2)  # skipped where the package does not fork
    pids = tmp_path / "pids"
    script = (
        "import os, sys, time\n"
        "from cmseq import simulate\n"
        "def work(i, lo, hi):\n"
        "    with open(sys.argv[1], 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(60)\n"
        "simulate._run_split([(0, 1), (1, 2), (2, 3)], work)\n"
    )
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", script, str(pids)], env=env)
    try:
        deadline = time.monotonic() + 60
        while len(pids.read_text().split()) < 3 if pids.exists() else True:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    children = [int(p) for p in pids.read_text().split() if int(p) != proc.pid]
    assert len(children) == 2
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in children):
        assert time.monotonic() < deadline, "a worker outlived its parent by 10 s"
        time.sleep(0.05)


def _alive(pid):
    """Whether ``pid`` runs (a zombie, ended but not yet reaped, does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
