#!/usr/bin/env python3
"""Print one sha256 over every field of ``full_report`` on a fixed corpus,
one over every ``classify_cm_interval`` witness of its smaller laws, one
over its models and oracle verdicts, one over sample batches and their
files, one over the whole-law classifiers' witnesses, three over the same
readings of the laws rebuilt from their covariances, and one over the
command line's output and files.

Run from the repository root:

    PYTHONPATH=src python3 scripts/report_digest.py

The corpus is ``random_law`` of every class, N in {3, 4, 5, 6, 10, 20, 40},
d in {1, 2, 3, 4} and seeds 0-3.  Each report feeds its ``repr`` and the
``float.hex()`` of every ``worst_ratio`` in it to the first hash.  For each
law with N <= 10, ``classify_cm_interval`` of every boundary-anchored
interval and side, in report order, feeds its witness's ``repr`` and
``worst_ratio.hex()`` to the second hash.  Each law of the corpus is built
into a model of each of the six shapes (direction, side, boundary
recursion); every field of the model, the ``repr`` and
``worst_ratio.hex()`` of both parameter checks and the bytes of the model
covariance feed the third hash.  Each law small enough for the oracle
(``(N+1)d <= 16``) feeds it the ``repr`` and ``worst_ratio.hex()`` of the
Markov and reciprocal sweeps and of the CM sweep on every interval, side
and ``use_future``.  Every class at N = 4, d in {1, 2, 3}, seed 0 is built
into each of the six model shapes and sampled with M in {1, 1027} (1027
crosses the 1024-replicate block of the sampler) and two seeds, one of them
>= 2**64; the bytes of each batch's data, of its CSV file and of its
structured JSON file feed the fourth hash.  So do those of one batch large
enough for worker processes (N = 4, d = 2, M = 8 * 1024 + 1: nine sampler
blocks, the last of one row), built once with the workers forced on and
once with them off; the script stops unless both give the same bytes.
For each law of the corpus, ``classify_cmc`` given the first and then the
last endpoint, ``classify_markov`` and ``classify_reciprocal`` feed their
witness's ``repr`` and ``worst_ratio.hex()`` to the fifth hash.  Each
corpus law keeps the precision it was built from; the sixth, seventh and
eighth hashes read, as the first, second and fifth do, the same law
rebuilt from its covariance, ``SequenceLaw(law.covariance)``, which is
classified on the precision derived from that covariance.  The ninth
hash reads the command line, ``cmseq.cli.main`` run in a temporary working
directory so that every path it prints is the same: for every class,
N in {3, 4, 5, 6}, d in {1, 2, 3} and seeds 0-1, ``gen`` writes the law
file, ``classify --out`` reads it, and for each of the six model shapes
``convert --out`` writes a model file that ``verify --out`` reads.  Each
command feeds its arguments, exit code, stdout, stderr and the bytes of its
``--out`` file to the hash.  Two trees that print the same digests give
the same witnesses, models, verdicts, samples, batch files and command
output bit for bit.  Run it on both sides of a change that claims to keep
them, under the same BLAS thread count: the first, third and sixth digests
change with it (for example ``OPENBLAS_NUM_THREADS=1`` against the
default).
"""

import hashlib
import io
import os
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np

from cmseq import (
    BoundaryCondition,
    ConditioningSide,
    IndexInterval,
    LawClass,
    SequenceLaw,
    build_backward,
    build_forward,
    check_markov_forward,
    check_reciprocity_forward,
    classify_cm_interval,
    classify_cmc,
    classify_markov,
    classify_reciprocal,
    full_report,
    model_covariance,
    oracle_cm_interval,
    oracle_markov,
    oracle_reciprocal,
    random_law,
    sample_backward,
    sample_forward,
    simulate,
)
from cmseq import cli
from cmseq.serialize import save_batch_csv, save_batch_json

NS = (3, 4, 5, 6, 10, 20, 40)
DIMS = (1, 2, 3, 4)
SEEDS = range(4)
INTERVAL_N_MAX = 10
ORACLE_SCALARS_MAX = 16
FIRST, LAST = ConditioningSide
BC1, BC2 = BoundaryCondition
BATCH_N, BATCH_DIMS = 4, (1, 2, 3)
BATCH_SIZES = (1, 1027)
BATCH_SEEDS = (7, 2**64 + 5)
# a batch of 9 sampler blocks, the last of one row, and of 21 writer chunks
WORKER_BATCH = dict(n_last=4, dim=2, n_replicates=8 * 1024 + 1)
MODEL_SHAPES = (
    (build_forward, LAST, BC1),
    (build_forward, LAST, BC2),
    (build_forward, FIRST, BC1),
    (build_backward, FIRST, BC1),
    (build_backward, FIRST, BC2),
    (build_backward, LAST, BC1),
)
CLI_NS, CLI_DIMS, CLI_SEEDS = (3, 4, 5, 6), (1, 2, 3), range(2)


def witnesses(report):
    """Every witness of a report: the four whole-law ones, then the intervals'."""
    yield from (report.markov, report.reciprocal, report.cm_l, report.cm_f)
    yield from (entry.witness for entry in report.interval_cm)


def boundary_intervals(n_last):
    """Every ``(interval, side)`` of ``classify_cm_interval``, in report order."""
    prefixes = [IndexInterval(0, k) for k in range(1, n_last)]
    suffixes = [IndexInterval(k, n_last) for k in range(1, n_last)]
    return product(prefixes + suffixes, ConditioningSide)


def model_bytes(model):
    """Every field of a model, its two parameter checks and the bytes of its
    model covariance, as one byte string; each grid in time order."""
    parts = [repr(model).encode()]
    for grid in (model.g_trans, model.g_cond, model.g_noise):
        for k in sorted(grid):
            parts += [str(k).encode(), np.ascontiguousarray(grid[k]).tobytes()]
    gain = model.boundary_gain
    parts.append(b"None" if gain is None else np.ascontiguousarray(gain).tobytes())
    for check in (check_reciprocity_forward(model), check_markov_forward(model)):
        parts += [repr(check).encode(), check.worst_ratio.hex().encode()]
    parts.append(model_covariance(model).covariance.data.tobytes())
    return b"".join(parts)


def classifier_witnesses(law):
    """The witnesses of ``classify_cmc`` given each endpoint, of
    ``classify_markov`` and of ``classify_reciprocal``."""
    yield from (classify_cmc(law, side) for side in ConditioningSide)
    yield classify_markov(law)
    yield classify_reciprocal(law)


def oracle_verdicts(law):
    """The Markov and reciprocal verdicts, then the CM verdict of every
    interval, side and ``use_future``."""
    yield oracle_markov(law)
    yield oracle_reciprocal(law)
    n_last = law.n_last
    for lo, hi in product(range(n_last + 1), repeat=2):
        if lo < hi:
            for side, use_future in product(ConditioningSide, (False, True)):
                yield oracle_cm_interval(law, IndexInterval(lo, hi), side, use_future=use_future)


def batch_bytes(directory):
    """The data, CSV file and structured JSON file of every batch of the
    batch corpus, one byte string per batch."""
    csv_path, json_path = Path(directory, "batch.csv"), Path(directory, "batch.json")
    for law_class, d in product(LawClass, BATCH_DIMS):
        law = random_law(law_class, BATCH_N, d, 0)
        for build, c, bc in MODEL_SHAPES:
            model = build(law, c, bc)
            sample = sample_forward if build is build_forward else sample_backward
            for m, seed in product(BATCH_SIZES, BATCH_SEEDS):
                batch = sample(model, m, seed)
                save_batch_csv(csv_path, batch)
                save_batch_json(json_path, batch)
                yield batch.data.tobytes() + csv_path.read_bytes() + json_path.read_bytes()


@contextmanager
def workers(cpus):
    """Sample and write as on ``cpus`` CPUs, with every loop of two blocks
    or more split over them (one: the serial path)."""
    saved = simulate._usable_cpus, simulate._FORK_MIN_BLOCKS
    simulate._usable_cpus, simulate._FORK_MIN_BLOCKS = (lambda: cpus), 1
    try:
        yield
    finally:
        simulate._usable_cpus, simulate._FORK_MIN_BLOCKS = saved


def worker_batch_bytes(directory):
    """The data, CSV file and structured JSON file of ``WORKER_BATCH``, one
    byte string, the same with worker processes as without."""
    csv_path, json_path = Path(directory, "batch.csv"), Path(directory, "batch.json")
    law = random_law(LawClass.RECIPROCAL, WORKER_BATCH["n_last"], WORKER_BATCH["dim"], 0)
    model = build_forward(law, LAST, BC1)
    blobs = []
    for cpus in (1, 3):
        with workers(cpus):
            batch = sample_forward(model, WORKER_BATCH["n_replicates"], BATCH_SEEDS[0])
            save_batch_csv(csv_path, batch)
            save_batch_json(json_path, batch)
        blobs.append(batch.data.tobytes() + csv_path.read_bytes() + json_path.read_bytes())
    if blobs[0] != blobs[1]:
        raise SystemExit("worker processes changed the bytes of a batch or its files")
    return blobs[0]


def cli_commands():
    """The argument lists of the command-line corpus, in order: per law,
    ``gen``, ``classify`` and a ``convert`` and ``verify`` per model shape."""
    for law_class, n, d, seed in product(LawClass, CLI_NS, CLI_DIMS, CLI_SEEDS):
        gen = ["gen", "--class", law_class.value, "--N", str(n), "--d", str(d), "--seed", str(seed)]
        yield gen + ["--out", "law.json"]
        yield ["classify", "law.json", "--out", "report.json"]
        for build, c, bc in MODEL_SHAPES:
            direction = "forward" if build is build_forward else "backward"
            yield ["convert", "law.json", "--direction", direction, "--c", c.value,
                   "--bc", bc.value, "--out", "model.json"]
            yield ["verify", "model.json", "--out", "verify.json"]


def cli_bytes(directory):
    """The arguments, exit code, stdout, stderr and ``--out`` file of every
    command of the command-line corpus, run in ``directory``, one byte
    string per command; a command's ``--out`` file is removed before it runs."""
    home = os.getcwd()
    os.chdir(directory)
    try:
        for argv in cli_commands():
            out = Path(argv[argv.index("--out") + 1])
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            fields = [" ".join(argv), str(code), stdout.getvalue(), stderr.getvalue()]
            written = out.read_bytes() if out.exists() else b"(no file)"
            yield b"\0".join([*(f.encode() for f in fields), written])
    finally:
        os.chdir(home)


def witness_bytes(witness):
    return [repr(witness).encode(), witness.worst_ratio.hex().encode()]


def law_readings(law):
    """What the first, second and fifth hashes read of a law, as three
    lists of byte strings: its report and its witnesses' ``worst_ratio``,
    every ``classify_cm_interval`` witness (N <= 10) and every whole-law
    classifier witness; then the number of reports and witnesses in each."""
    report = full_report(law)
    intervals = boundary_intervals(law.n_last) if law.n_last <= INTERVAL_N_MAX else ()
    interval_witnesses = [classify_cm_interval(law, *each) for each in intervals]
    classifiers = list(classifier_witnesses(law))
    parts = (
        [repr(report).encode()] + [w.worst_ratio.hex().encode() for w in witnesses(report)],
        [part for w in interval_witnesses for part in witness_bytes(w)],
        [part for w in classifiers for part in witness_bytes(w)],
    )
    return parts, (1, len(interval_witnesses), len(classifiers))


def main():
    readings = [hashlib.sha256() for _ in range(3)]  # reports, intervals, classifiers
    rebuilt = [hashlib.sha256() for _ in range(3)]  # the same, of SequenceLaw(law.covariance)
    counts = [0, 0, 0]
    models = hashlib.sha256()
    model_count = verdict_count = 0
    for law_class, n, d, seed in product(LawClass, NS, DIMS, SEEDS):
        law = random_law(law_class, n, d, seed)
        for digests, each in ((readings, law), (rebuilt, SequenceLaw(law.covariance))):
            parts, found = law_readings(each)
            for digest, group in zip(digests, parts):
                for part in group:
                    digest.update(part)
        counts = [total + more for total, more in zip(counts, found)]
        for build, c, bc in MODEL_SHAPES:
            models.update(model_bytes(build(law, c, bc)))
            model_count += 1
        if (n + 1) * d <= ORACLE_SCALARS_MAX:
            for verdict in oracle_verdicts(law):
                models.update(repr(verdict).encode())
                models.update(verdict.worst_ratio.hex().encode())
                verdict_count += 1
    batches, batch_count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as directory:
        for blob in batch_bytes(directory):
            batches.update(blob)
            batch_count += 1
        batches.update(worker_batch_bytes(directory))
        batch_count += 1
    commands, command_count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as directory:
        for blob in cli_bytes(directory):
            commands.update(blob)
            command_count += 1
    count, interval_count, classifier_count = counts
    print(f"{readings[0].hexdigest()}  {count} reports")
    print(f"{readings[1].hexdigest()}  {interval_count} classify_cm_interval witnesses")
    print(f"{models.hexdigest()}  {model_count} models, {verdict_count} oracle verdicts")
    print(f"{batches.hexdigest()}  {batch_count} sample batches with their CSV and JSON files")
    print(f"{readings[2].hexdigest()}  {classifier_count} whole-law classifier witnesses")
    rebuilt_from = "of the laws rebuilt from their covariances"
    print(f"{rebuilt[0].hexdigest()}  {count} reports {rebuilt_from}")
    print(f"{rebuilt[1].hexdigest()}  {interval_count} classify_cm_interval witnesses {rebuilt_from}")
    print(f"{rebuilt[2].hexdigest()}  {classifier_count} whole-law classifier witnesses {rebuilt_from}")
    print(f"{commands.hexdigest()}  {command_count} commands with their output and files")


if __name__ == "__main__":
    main()
