"""Sampling and batch writing over forked worker processes: the same bits
and bytes as the serial loop, and no process left behind on failure."""

import errno
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


def _in_a_worker(exc, parent):
    """A function that raises ``exc`` in every process but this one."""

    def check(*args):
        if os.getpid() != parent:
            raise exc

    return check


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_a_worker_that_fails_to_write_fails_simulate(
    tmp_path, model_file, fmt, monkeypatch, capsys, workers
):
    """A worker's error is the command's error: exit 2, no --out file."""
    workers(2)
    items = serialize._items
    full = _in_a_worker(OSError(errno.ENOSPC, "No space left on device"), os.getpid())
    monkeypatch.setattr(serialize, "_items", lambda text: full() or items(text))
    out = tmp_path / "batch"
    argv = ["simulate", model_file, "--samples", str(3 * _BLOCK), "--seed", "1",
            "--format", fmt, "--out", str(out)]
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


def test_a_worker_that_fails_to_sample_fails_simulate(tmp_path, model_file, monkeypatch, workers):
    workers(2)
    states = simulate._substream_states
    fail = _in_a_worker(MemoryError("worker"), os.getpid())
    monkeypatch.setattr(
        simulate, "_substream_states", lambda seed, r: fail() or states(seed, r)
    )
    out = tmp_path / "batch.csv"
    with pytest.raises(MemoryError, match="worker"):
        main(["simulate", model_file, "--samples", str(3 * _BLOCK), "--seed", "1",
              "--out", str(out)])
    assert not out.exists()
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_reported(workers):
    workers(2)

    def work(i, lo, hi):
        if i:
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=f"ended with signal {int(signal.SIGKILL)}"):
        simulate._run_split([(0, 1), (1, 2)], work)
    assert_no_child_left()


def test_a_worker_exception_that_cannot_be_sent_is_reported(workers):
    workers(2)

    class Local(Exception):  # a local class does not pickle
        pass

    def work(i, lo, hi):
        if i:
            raise Local()

    with pytest.raises(RuntimeError, match="ended with status 1"):
        simulate._run_split([(0, 1), (1, 2)], work)
    assert_no_child_left()


def test_small_batches_and_one_cpu_take_the_serial_path(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
    k = simulate._FORK_MIN_BLOCKS
    assert simulate._workers(0) == 1
    assert simulate._workers(2 * k - 1) == 1
    safe = simulate._fork_is_safe()
    assert simulate._workers(2 * k) == (2 if safe else 1)
    assert simulate._workers(100 * k) == (4 if safe else 1)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    assert simulate._workers(100 * k) == 1
    assert simulate._split(10) == [(0, 10)]


def test_ranges_are_contiguous_whole_blocks(monkeypatch):
    monkeypatch.setattr(simulate, "_workers", lambda n_blocks: 3)
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
    assert simulate._workers(100 * simulate._FORK_MIN_BLOCKS) == 1


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
