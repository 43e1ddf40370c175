"""Self-test of the benchmark: its checks catch wrong outputs, a failed
operation is counted without stopping the run, and the smoke mode of every
workload prints a well-formed result.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads  # noqa: E402
from cmseq.models import LawClass, build_forward, random_law  # noqa: E402
from cmseq.serialize import save_batch_csv, save_batch_json  # noqa: E402
from cmseq.simulate import sample_forward  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from worker import Phase  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_wrong_expected_verdict_is_a_failed_operation():
    rec = SpanRecorder()
    law = random_law(LawClass.MARKOV, 4, 1, seed=0)
    phase = Phase()
    for i, expect in enumerate((LawClass.GENERIC, LawClass.MARKOV)):
        op = workloads.guarded(
            "classify", lambda: workloads.LargeLaws.classify_law(law, LawClass.MARKOV, rec, expect=expect)
        )
        phase.laws.append(workloads.LawRecord(i, [op]))
    summary = phase.summary()
    assert summary["ops"] == 2 and summary["ops_failed"] == 1
    assert summary["distinct_laws_ok"] == 1
    assert any("markov: got True, expected False" in f for f in summary["failures"])


def test_small_corpus_keeps_checking_after_a_wrong_verdict():
    law = random_law(LawClass.RECIPROCAL, 4, 2, seed=1)
    runner = workloads.Runner(SpanRecorder())
    record = workloads.SmallCorpus.crosscheck(0, law, LawClass.RECIPROCAL, runner, expect=LawClass.CM_L_ONLY)
    assert [op.kind for op in record.ops] == ["classify", "oracle", "models"]
    assert [op.ok for op in record.ops] == [False, True, True]
    assert not record.ok


def test_an_exception_is_a_failed_operation():
    def boom():
        raise ValueError("broken input")

    op = workloads.guarded("gen", boom)
    assert not op.ok and "ValueError: broken input" in op.problems[0]


@pytest.fixture()
def batches(tmp_path):
    law = random_law(LawClass.RECIPROCAL, 3, 2, seed=2)
    model = build_forward(law, workloads.LAST, workloads.BC1)
    csv_path, json_path = tmp_path / "big.csv", tmp_path / "small.json"
    save_batch_csv(csv_path, sample_forward(model, 40, 7))
    save_batch_json(json_path, sample_forward(model, 10, 7))
    return csv_path, json.loads(json_path.read_text())


def test_replicate_prefix_check_accepts_a_true_prefix(batches):
    csv_path, small = batches
    assert workloads.prefix_problems(small, csv_path, 10, 3, 2) == []
    assert workloads.csv_tail_problems(csv_path, 40, 3) == []


def test_corrupted_prefix_is_a_failed_operation(batches):
    csv_path, small = batches
    lines = csv_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-15) or 1e-300)  # one ulp-scale change
    lines[5] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    op = workloads.guarded("simulate_json", lambda: (0.1, workloads.prefix_problems(small, csv_path, 10, 3, 2)))
    assert not op.ok
    assert "bit-exact prefix" in op.problems[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail(list(range(40))) == (29, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _run_bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "large-laws", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
