"""cmseq benchmark: one command, three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 bench/run.py --workload large-laws --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli-pipeline --seed 1 --seconds 2 --trace 1 --smoke

Each workload runs in its own fresh Python process (``bench/worker.py``),
started from this one, with the BLAS thread count pinned to
``BLAS_THREADS`` and ``cmseq`` imported from this checkout's ``src``.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run (see ``bench/README.md``).  Lines before it are a readable
report, and the full record, environment included, is written under
``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import render_tree  # noqa: E402

WORKLOADS = ("large-laws", "small-corpus", "cli-pipeline")
BLAS_THREADS = 1  # pinned for every process; at most nproc on any machine
SETUP_PROBES = 6  # extra fresh processes that only set up, for the setup_s median
WORKER_TIMEOUT_S = 160
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def child_env(work):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, work, result_file, env, setup_only=False, spans_out=None):
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_file), "--work", str(work),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"worker failed with exit code {code}")
    with open(result_file) as fh:
        result = json.load(fh)
    return start, result


def source_identity():
    """Git commit when there is one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, by nearest rank.  When that percentile would not be
    above the median (n < 21) the maximum stands in, reported as p100."""
    xs = sorted(samples)
    n = len(xs)
    rank = n - 10
    if rank < (n + 1) / 2:
        return xs[-1], 100.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def end_to_end(result, setup_samples):
    phase = result["untraced"]
    # latency of successful operations; if none succeeded, of all of them
    lat = phase["latency_s"].get("classify") or phase["latency_all_s"].get("classify") or [0.0]
    t, _pct, _n = tail(lat)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "laws_per_s": (phase["distinct_laws_ok"] / phase["laws_s"] if phase["laws_s"] > 0 else 0.0, "1/s"),
        "classify_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "classify_ms_tail": (1e3 * t, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result):
    layers = result["layers"]
    out = {}
    for name, value in layers["per_law"].items():
        if name.endswith("self_s"):
            unit = "s"
        elif name.endswith(".bytes"):
            unit = "B/law"
        elif "flops" in name:
            unit = "flop/law"
        else:
            unit = "count/law"
        out[name] = (value, unit)
    for name, value in layers["setup"].items():
        out[name] = (value, "s")
    out["cli.import_s"] = (layers["cli.import_s"], "s")
    probe = result.get("probe") or {}
    out["classify.coord_probe_failed"] = (probe.get("failed", 0), "count")
    return out


def workload_extras(result):
    """Figures that exist on one workload only, so they are reported but
    are not metrics of ``BENCHMARK.json``."""
    phase = result["untraced"]
    lat = phase["latency_s"]
    extras = {}
    if result["workload"] == "cli-pipeline":
        cheap = [x for k in ("gen", "classify", "convert", "verify") for x in lat.get(k, [])]
        if cheap:
            value, pct, n = tail(cheap)
            extras["cli_cmd_ms_p50"] = 1e3 * statistics.median(cheap)
            extras["cli_cmd_ms_tail"] = 1e3 * value
            extras["cli_cmd_tail_percentile"] = pct
            extras["cli_cmd_samples"] = n
        for kind, key in (("simulate_csv", "simulate_s"), ("validate", "validate_s"), ("simulate_json", "simulate_json_s")):
            if lat.get(kind):
                extras[key] = statistics.median(lat[kind])
    if result["workload"] == "small-corpus":
        classify_s = sum(lat.get("classify", []))
        extras["classify_only_laws_per_s"] = len(lat.get("classify", [])) / classify_s if classify_s else 0.0
        extras["crosscheck_laws_per_s"] = phase["distinct_laws_ok"] / phase["laws_s"]
    return extras


def report_lines(args, result, metrics, extras, setup_samples, attempted, failed):
    phase = result["untraced"]
    lines = [
        f"# cmseq benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}",
        "# environment: " + json.dumps(result["env"], sort_keys=True),
        f"# untraced phase: {phase['passes']} passes, {phase['laws']} laws "
        f"({phase['distinct_laws']} distinct, {phase['distinct_laws_ok']} always ok), "
        f"{phase['ops']} ops, wall {phase['wall_s']:.2f}s",
        f"# ops_failed_frac: {failed}/{attempted} = {failed / attempted:.4f}",
        f"# host speed: calibration kernel median {1e3 * phase['calibration_median_s']:.3f} ms "
        f"(reference {1e3 * result['calibration_ref_s']:.1f} ms); laws/s unscaled "
        f"{phase['distinct_laws_ok'] / phase['laws_raw_s']:.6g}",
    ]
    lat = phase["latency_s"].get("classify", [])
    if lat:
        value, pct, n = tail(lat)
        lines.append(
            f"# classify latency: median repeat of each of {n} inputs; p50, and tail = p{pct:.1f} ({value * 1e3:.2f} ms)"
        )
    if setup_samples:
        lines.append("# setup_s samples: " + ", ".join(f"{x:.4f}" for x in setup_samples))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<44} {value:>14.6g} {unit}")
    for name, value in extras.items():
        lines.append(f"# {name:<42} {value:>14.6g}")
    if result.get("probe"):
        p = result["probe"]
        lines.append(
            f"# coordinate-change probe (not timed, not in ops_failed_frac): {p['failed']}/{p['attempted']} "
            f"failed ({p['raised']} raised, {p['wrong_verdict']} wrong verdict)"
        )
    for f in phase["failures"]:
        lines.append(f"# FAILED {f}")
    if "traced" in result:
        lines += traced_lines(result)
    return lines


def traced_lines(result):
    acc = result["layers"]["accounting"]
    wall = acc["wall_s"]
    lines = [
        f"# traced phase: {result['traced']['passes']} passes, wall {wall:.3f}s; "
        f"tracing overhead vs untraced {100 * result['trace_overhead']:+.1f}% at reference speed "
        f"(one span costs {result['span_overhead_ns']:.0f} ns)",
        f"# layer self time {acc['layer_self_s']:.3f}s ({100 * acc['layer_self_s'] / wall:.1f}%) + "
        f"uncovered {acc['uncovered_s']:.3f}s ({100 * acc['uncovered_s'] / wall:.1f}%, of which "
        f"benchmark checks {acc['bench_check_s']:.3f}s) = wall {wall:.3f}s",
    ]
    tree = {tuple(path): row for path, *row in result["layers"]["tree"]}
    lines += ["# " + line for line in render_tree(tree, wall)]
    for name, value in result["layers"]["workload_specific_per_law"].items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v:.4g}" for k, v in sorted(value.items())) or "-"
            lines.append(f"# {name:<42} {value}")
        else:
            lines.append(f"# {name:<42} {value:>14.6g}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    if not (ROOT / "src" / "cmseq" / "__init__.py").is_file():
        print(f"error: no cmseq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    env = child_env(work)
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(ROOT / "bench")],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                start, probe = run_worker(args, work, work / f"setup-{i}.json", env, setup_only=True)
                setup_samples.append((probe["setup_done"] - start) * probe["speed_factor"])
        tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
        spans_out = out_dir / f"spans-{tag}.json" if args.trace else None
        start, result = run_worker(args, work, work / "result.json", env, spans_out=spans_out)
        setup_samples.append((result["setup_done"] - start) * result["speed_factor"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [result["untraced"]] + ([result["traced"]] if "traced" in result else [])
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["ops_failed"] for p in phases)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    extras = workload_extras(result)
    extras["ops_failed_frac"] = failed / attempted
    result["env"].update(source_identity())
    result["env"]["blas_threads_pinned"] = BLAS_THREADS
    result["env"]["seed"] = args.seed
    print("\n".join(report_lines(args, result, metrics, extras, setup_samples, attempted, failed)))
    record = dict(result, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  extras=extras, setup_samples=setup_samples, attempted=attempted, failed=failed)
    with open(out_dir / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
