"""One workload in one fresh process; started by ``bench/run.py``.

Usage: ``python bench/worker.py --workload NAME --seed N --seconds S
--trace 0|1 --result FILE --work DIR [--smoke] [--setup-only]``

The process imports ``cmseq`` first and times it, builds the workload's
inputs from the seed (set-up), notes the moment set-up ended, then runs
timed passes for ``--seconds``.  With ``--trace 1`` it then wraps every
public cmseq function in a span and runs as many whole passes again as the
untraced phase completed; the gap between the two phases' per-input times
is the tracing overhead.  Everything measured goes to ``--result`` as JSON.
"""

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Instrumentation, SpanFold, SpanRecorder, dump_spans, span_dicts  # noqa: E402

RAW_SPAN_CAP = 50_000  # spans kept for the JSON dump; the fold sees all of them
# Reference speed: about the calibration kernel's time on the 2-core x86_64
# host this benchmark was built on when no other tenant loaded it (Python
# 3.11, numpy 2.4, OpenBLAS on one thread).  Only the scale of the reported
# times depends on it.
CALIBRATION_REF_S = 4.5e-3


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t0 = perf_counter()
    import cmseq.cli  # noqa: F401  (first heavy import of the process; timed)

    import_s = perf_counter() - t0
    root = Path(__file__).resolve().parent.parent
    src = (root / "src").resolve()
    if not Path(sys.modules["cmseq"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cmseq was imported from {sys.modules['cmseq'].__file__}, not {src}")

    import workloads

    rec = SpanRecorder()
    inst = Instrumentation(rec)
    if args.trace:
        inst.install()
        rec.enabled = True
    workload = _make_workload(workloads, args, root)
    with rec.span("bench.setup"):
        workload.setup()
    setup_fold = SpanFold()
    setup_fold.add(rec.take())
    rec.enabled = False
    setup_done = perf_counter()
    setup_speed = CALIBRATION_REF_S / statistics.median(workloads.calibration_kernel() for _ in range(3))
    if args.setup_only:
        _write(args.result, {"setup_done": setup_done, "speed_factor": setup_speed})
        return 0

    if args.trace:
        inst.uninstall()
    untraced = run_phase(workload, rec, seconds=args.seconds)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "setup_done": setup_done,
        "speed_factor": setup_speed,
        "import_s": import_s,
        "calibration_ref_s": CALIBRATION_REF_S,
        "env": environment(),
        "untraced": untraced.summary(),
    }
    if args.trace:
        inst.install()
        if hasattr(workload, "traced"):
            workload.traced = True
        traced = run_phase(workload, rec, passes=untraced.passes, trace=True)
        inst.uninstall()
        result["traced"] = traced.summary()
        result["trace_overhead"] = result["traced"]["laws_s"] / result["untraced"]["laws_s"] - 1.0
        result["layers"] = layer_metrics(traced, setup_fold, import_s)
        if args.spans_out:
            dump_spans(
                args.spans_out,
                traced.raw_spans,
                {"workload": args.workload, "seed": args.seed, "passes": traced.passes},
            )
    if hasattr(workload, "run_probe"):
        result["probe"] = workload.run_probe()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["span_overhead_ns"] = span_overhead_ns()
    _write(args.result, result)
    return 0


def _make_workload(workloads, args, root):
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliPipeline:
        return cls(args.seed, smoke=args.smoke, work=args.work, root=root)
    return cls(args.seed, smoke=args.smoke)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


class Phase:
    """Laws processed in one phase, with wall time and (if traced) spans."""

    def __init__(self):
        self.laws = []
        self.passes = 0
        self.wall_s = 0.0
        self.fold = SpanFold()
        self.raw_spans = []
        self.calibration = []

    def summary(self):
        """Totals, plus each input's typical time at reference speed.

        The host's speed drifts by tens of percent over seconds and minutes.
        Each operation's time is first scaled to reference speed: multiplied
        by ``CALIBRATION_REF_S`` over the mean of the calibration samples
        taken around the moment it began.  For each input (a law and one of
        its operations) the median of its scaled repeats is kept, and every
        timing statistic is taken over those per-input medians.
        """
        ops = [op for law in self.laws for op in law.ops]
        times = [t for t, _ in self.calibration]
        scaled_all, scaled_ok, raw_all, law_ok = {}, {}, {}, {}
        for law in self.laws:
            law_ok[law.key] = law_ok.get(law.key, True) and law.ok
            for op in law.ops:
                key = (law.key, op.kind, op.variant)
                scaled = op.timed_s * _speed_factor(op.start, times, self.calibration)
                raw_all.setdefault(key, []).append(op.timed_s)
                scaled_all.setdefault(key, []).append(scaled)
                if op.ok:
                    scaled_ok.setdefault(key, []).append(scaled)
        latencies, latencies_all = {}, {}
        for (_law, kind, _variant), xs in scaled_ok.items():
            latencies.setdefault(kind, []).append(statistics.median(xs))
        for (_law, kind, _variant), xs in scaled_all.items():
            latencies_all.setdefault(kind, []).append(statistics.median(xs))
        failures = [f"{op.kind}: {p}" for op in ops for p in op.problems]
        cal = [c for _, c in self.calibration]
        return {
            "passes": self.passes,
            "wall_s": self.wall_s,
            "laws": len(self.laws),
            "distinct_laws": len(law_ok),
            "distinct_laws_ok": sum(law_ok.values()),
            "laws_s": sum(statistics.median(xs) for xs in scaled_all.values()),
            "laws_raw_s": sum(statistics.median(xs) for xs in raw_all.values()),
            "calibration_median_s": statistics.median(cal) if cal else None,
            "ops": len(ops),
            "ops_failed": sum(not op.ok for op in ops),
            "latency_s": latencies,
            "latency_all_s": latencies_all,
            "failures": failures[:20],
        }


def _speed_factor(start, times, calibration):
    """CALIBRATION_REF_S over the mean of the two calibration samples before
    ``start`` and the two after it."""
    if start is None or not calibration:
        return 1.0
    i = bisect.bisect_right(times, start)
    near = [s for _, s in calibration[max(i - 2, 0) : i + 2]]
    return CALIBRATION_REF_S / (sum(near) / len(near))


def run_phase(workload, rec, seconds=None, passes=None, trace=False):
    """Passes until ``seconds`` have elapsed (the last one stopped at the
    first operation past the deadline), or exactly ``passes`` whole passes.
    ``phase.passes`` counts the whole ones."""
    import workloads  # loaded by main() once cmseq's import has been timed

    phase = Phase()
    start = perf_counter()
    runner = workloads.Runner(rec, deadline=None if seconds is None else start + seconds)
    rec.enabled = trace
    while True:
        phase.laws.extend(workload.run_pass(phase.passes, runner))
        if runner.cut:
            break
        phase.passes += 1
        runner.first_pass_done = True
        if trace:
            spans = rec.take()
            phase.fold.add(spans)
            room = RAW_SPAN_CAP - len(phase.raw_spans)
            if room > 0:
                phase.raw_spans.extend(span_dicts(spans[:room]))
        if (passes is not None and phase.passes >= passes) or runner.expired():
            break
    phase.wall_s = perf_counter() - start
    rec.enabled = False
    runner.calibrate()
    phase.calibration = runner.calibration
    return phase


def layer_metrics(phase, setup_fold, import_s):
    """Per-layer figures of the traced phase; counts and self times per law."""
    fold = phase.fold
    laws = max(len(phase.laws), 1)
    classified = max(fold.calls("classify.full_report"), 1)
    child_imports = [
        end - start
        for s in phase.raw_spans
        if s["name"] == "cli.import"
        for start, end in [(s["start"], s["end"])]
    ]

    def per_law(x):
        return x / laws

    sample_s = fold.self_s("simulate.sample_forward") + fold.self_s("simulate.sample_backward")
    draws = fold.count("simulate.sample_forward", "draws") + fold.count("simulate.sample_backward", "draws")
    csv_bytes = fold.count("serialize.save_batch_csv", "bytes")
    csv_s = fold.total_s("serialize.save_batch_csv")
    layer_self = fold.layer_self_s()
    return {
        "per_law": {
            "blocks.cholesky_spd.self_s": per_law(fold.self_s("blocks.cholesky_spd")),
            "blocks.invert_spd.self_s": per_law(fold.self_s("blocks.invert_spd")),
            "blocks.symmetrize.self_s": per_law(fold.self_s("blocks.symmetrize")),
            "blocks.schur_complement.self_s": per_law(fold.self_s("blocks.schur_complement")),
            "patterns.detect.self_s": per_law(fold.self_s("patterns.detect")),
            "classify.full_report.self_s": per_law(fold.self_s("classify.full_report")),
            "blocks.cholesky_spd.calls": per_law(fold.calls("blocks.cholesky_spd")),
            "blocks.cholesky_spd.flops_computed": per_law(fold.count("blocks.cholesky_spd", "flops")),
            "blocks.invert_spd.calls": per_law(fold.calls("blocks.invert_spd")),
            "blocks.precision_per_law": fold.full_size_factorizations / classified,
            "classify.schur_per_law": fold.calls("blocks.schur_complement") / classified,
            "patterns.detect.calls": per_law(fold.calls("patterns.detect")),
            "patterns.detect.blocks_scanned_computed": per_law(fold.count("patterns.detect", "blocks_scanned")),
            "oracle.partial_covariance.calls": per_law(fold.calls("oracle.partial_covariance")),
            "simulate.sample.calls": per_law(
                fold.calls("simulate.sample_forward") + fold.calls("simulate.sample_backward")
            ),
            "simulate.draws_computed": per_law(draws),
            "serialize.save_batch_csv.bytes": per_law(csv_bytes),
            "serialize.save_batch_json.bytes": per_law(fold.count("serialize.save_batch_json", "bytes")),
        },
        "setup": {
            "models.random_law.s": setup_fold.total_s("models.random_law"),
            "blocks.SequenceLaw_init.s": setup_fold.total_s("blocks.SequenceLaw_init"),
        },
        "cli.import_s": statistics.median(child_imports) if child_imports else import_s,
        # layers that some workloads never call: reported, not in BENCHMARK.json
        "workload_specific_per_law": {
            "oracle.partial_covariance.self_s": per_law(fold.self_s("oracle.partial_covariance")),
            "models.build.self_s": per_law(fold.self_s("models.build_forward") + fold.self_s("models.build_backward")),
            "models.assemble_precision.self_s": per_law(
                sum(fold.self_s(f"models.{f}") for f in (
                    "assemble_precision", "assemble_precision_backward",
                    "assemble_script_g", "assemble_script_g_backward"))
            ),
            "models.check.self_s": per_law(
                sum(fold.self_s(f"models.check_{f}") for f in (
                    "reciprocity_forward", "reciprocity_backward", "markov_forward", "markov_backward"))
            ),
            "models.model_covariance.self_s": per_law(fold.self_s("models.model_covariance")),
            "simulate.sample.self_s": per_law(sample_s),
            "simulate.draws_per_s": draws / sample_s if sample_s > 0 else 0.0,
            "simulate.sample_covariance.self_s": per_law(fold.self_s("simulate.sample_covariance")),
            "serialize.save_batch_csv.s": per_law(csv_s),
            "serialize.save_batch_csv.MB_per_s": csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0,
            "serialize.save_batch_json.s": per_law(fold.total_s("serialize.save_batch_json")),
            "serialize.load.s": per_law(fold.total_s("serialize.load_law") + fold.total_s("serialize.load_model")),
            "serialize.dump_json.s": per_law(fold.total_s("serialize.dump_json")),
            "cli.main.self_s": {
                path[-2].removeprefix("op.cli."): row[2] / max(row[0], 1)
                for path, row in fold.tree.items()
                if path[-1] == "cli.main" and len(path) >= 2
            },
        },
        "accounting": {
            "wall_s": phase.wall_s,
            "layer_self_s": layer_self,
            "uncovered_s": phase.wall_s - layer_self,
            "bench_check_s": fold.self_s("bench.check"),
        },
        "tree": [[list(path), *row] for path, row in sorted(fold.tree.items())],
    }


def span_overhead_ns(calls=20_000):
    """Extra cost of one recorded span over a direct call, in nanoseconds."""
    rec = SpanRecorder()

    def noop(x):
        return x

    wrapped = rec.wrap_function("bench.noop", noop)
    t0 = perf_counter()
    for i in range(calls):
        noop(i)
    direct = perf_counter() - t0
    rec.enabled = True
    t0 = perf_counter()
    for i in range(calls):
        wrapped(i)
    traced = perf_counter() - t0
    rec.enabled = False
    rec.take()
    return (traced - direct) / calls * 1e9


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
