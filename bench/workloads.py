"""The benchmark's three workloads: inputs made from the seed, timed
operations, and the checks that decide whether each operation succeeded.

Every workload is a closed loop with one client: an operation starts when the
previous one has finished and been checked.  Operations are grouped into
passes over the same inputs.  The first pass always runs to the end, so every
input is measured at least once; after it, a timed phase stops at the first
operation boundary past its deadline.  A ``Runner`` runs each operation and,
between operations, times a fixed calibration kernel, so the worker can
correct every timing for the host's speed at that moment.

A check never raises: each problem it finds is a string, and an operation
with any problem, or one that raised, counts as failed.  Only the calls
into cmseq are timed; the checks run between timed regions.

``cmseq`` must already be imported when this module is loaded (the worker
times that import), so importing numpy here costs nothing extra.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import cmseq.blocks as blocks
import cmseq.classify as classify
import cmseq.models as models
import cmseq.oracle as oracle
import cmseq.patterns as patterns
import cmseq.serialize as serialize
from cmseq.blocks import ConditioningSide, IndexInterval, Tolerance
from cmseq.models import BoundaryCondition, LawClass

TOL = Tolerance()
FIRST, LAST = ConditioningSide.FIRST, ConditioningSide.LAST
BC1, BC2 = BoundaryCondition.BC1, BoundaryCondition.BC2

# (markov, reciprocal, cm_l, cm_f) of each generated class: the lattice
# Markov => reciprocal <=> (CM_L and CM_F), with exact-zero precision blocks.
EXPECTED_FLAGS = {
    LawClass.MARKOV: (True, True, True, True),
    LawClass.RECIPROCAL: (False, True, True, True),
    LawClass.CM_L_ONLY: (False, False, True, False),
    LawClass.CM_F_ONLY: (False, False, False, True),
    LawClass.GENERIC: (False, False, False, False),
}
FLAG_NAMES = ("markov", "reciprocal", "cm_l", "cm_f")

# the six (direction, c, bc) model shapes the package accepts
MODEL_SHAPES = (
    ("forward", LAST, BC1),
    ("forward", LAST, BC2),
    ("forward", FIRST, BC1),
    ("backward", FIRST, BC1),
    ("backward", FIRST, BC2),
    ("backward", LAST, BC1),
)
# a model conditioned on endpoint c reproduces its law iff the law is CM_c
MATCHED_SIDES = {
    LawClass.MARKOV: (FIRST, LAST),
    LawClass.RECIPROCAL: (FIRST, LAST),
    LawClass.CM_L_ONLY: (LAST,),
    LawClass.CM_F_ONLY: (FIRST,),
    LawClass.GENERIC: (),
}
ROUNDTRIP_TOL = 1e-8
CALIBRATE_EVERY_S = 0.25  # at most this long between calibration samples


@dataclass
class OpRecord:
    """One timed operation: what it was, its timed seconds, what went wrong.

    Operations of one law with equal ``kind`` and ``variant`` are repeats
    of the same input.
    """

    kind: str
    timed_s: float
    problems: list = field(default_factory=list)
    variant: str = ""
    start: float | None = None  # perf_counter when the operation began

    @property
    def ok(self):
        return not self.problems


@dataclass
class LawRecord:
    """All operations spent on one law; the unit of ``laws_per_s``.

    ``key`` names the input: passes repeat inputs, and the phase summary
    keeps each input's fastest repeat.
    """

    key: object
    ops: list

    @property
    def ok(self):
        return all(op.ok for op in self.ops)

    @property
    def timed_s(self):
        return sum(op.timed_s for op in self.ops)


def guarded(kind, fn, variant=""):
    """Run ``fn() -> (timed_s, problems)``; an exception becomes a problem."""
    try:
        timed_s, problems = fn()
    except Exception as exc:  # a failed operation is counted, never fatal
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return OpRecord(kind, 0.0, [f"{type(exc).__name__}: {exc} ({frame.name}:{frame.lineno})"], variant)
    return OpRecord(kind, timed_s, list(problems), variant)


_CAL_MATRIX = np.eye(82) * 3.0 + np.outer(np.arange(82.0), np.ones(82)) / 500.0
_CAL_SUPPORT = frozenset((i, j) for i in range(41) for j in range(41) if abs(i - j) <= 1 or j == 40)


def calibration_kernel():
    """Seconds taken by a fixed piece of work shaped like cmseq's hot paths:
    a block-norm scan over a 41 x 41 grid of 2 x 2 blocks that skips a
    support set, then a column-by-column Cholesky of a 30 x 30 matrix.  It
    uses numpy only, so no change to cmseq can alter it, and its time tracks
    how fast the host runs that kind of code at the moment."""
    start = perf_counter()
    worst = 0.0
    for i in range(41):
        for j in range(41):
            if (i, j) not in _CAL_SUPPORT:
                worst = max(worst, float(np.linalg.norm(_CAL_MATRIX[2 * i : 2 * i + 2, 2 * j : 2 * j + 2])))
    a = _CAL_MATRIX[:30, :30] @ _CAL_MATRIX[:30, :30].T
    lower = np.zeros_like(a)
    for j in range(30):
        v = a[j:, j] - lower[j:, :j] @ lower[j, :j]
        lower[j, j] = np.sqrt(v[0])
        lower[j + 1 :, j] = v[1:] / lower[j, j]
    return perf_counter() - start


class Runner:
    """Runs the operations of a phase and samples the calibration kernel
    between them, at least every ``CALIBRATE_EVERY_S``.

    Workloads ask ``expired()`` before each operation and stop their pass
    when it is true; it never is during the first pass.
    """

    def __init__(self, rec, deadline=None):
        self.rec = rec
        self.calibration = []  # (perf_counter, kernel seconds)
        self.deadline = deadline
        self.first_pass_done = False
        self.cut = False  # set once a pass has been stopped early
        self._last = float("-inf")

    def expired(self):
        if self.first_pass_done and self.deadline is not None and perf_counter() >= self.deadline:
            self.cut = True
        return self.cut

    def calibrate(self):
        with self.rec.paused():
            self.calibration.append((perf_counter(), calibration_kernel()))
        self._last = perf_counter()

    def op(self, kind, fn, variant=""):
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()
        start = perf_counter()
        record = guarded(kind, fn, variant)
        record.start = start
        return record


def verdict_problems(report, law_class):
    """Flags that contradict the generating class, and broken consistency."""
    got = tuple(getattr(report, name).conforms for name in FLAG_NAMES)
    problems = [
        f"{name}: got {g}, expected {w}"
        for name, g, w in zip(FLAG_NAMES, got, EXPECTED_FLAGS[law_class])
        if g != w
    ]
    if not report.consistency:
        problems.append("consistency is False")
    if not report.reciprocal.routes_agree:
        problems.append("reciprocal routes disagree")
    return problems


def _block_norms(mat, d):
    m = mat.shape[0] // d
    b = mat.reshape(m, d, m, d)
    return np.sqrt(np.einsum("iajb,iajb->ij", b, b))


def _cm_mask(m, side):
    i, j = np.indices((m, m))
    mask = np.abs(i - j) <= 1
    edge = 0 if side is FIRST else m - 1
    mask[edge, :] = True
    mask[:, edge] = True
    return mask


def interval_reference(cov, d, interval, side):
    """CM verdict on an interval from the inverse of the covariance sub-block.

    This route never forms the full precision: the marginal precision of
    the interval is the inverse of its own covariance block.
    """
    lo, hi = interval.lo * d, (interval.hi + 1) * d
    prec = np.linalg.inv(cov[lo:hi, lo:hi])
    norms = _block_norms((prec + prec.T) / 2.0, d)
    off = norms[~_cm_mask(norms.shape[0], side)]
    scale = norms.max()
    ratio = float(off.max()) / scale if off.size and scale > 0 else 0.0
    return ratio <= TOL.zero_tol


def interval_problems(report, law):
    n = law.n_last
    problems = []
    if len(report.interval_cm) != 4 * (n - 1):
        problems.append(f"{len(report.interval_cm)} interval entries, expected {4 * (n - 1)}")
    cov = law.covariance.data
    for entry in report.interval_cm:
        want = interval_reference(cov, law.dim, entry.interval, entry.side)
        if entry.witness.conforms != want:
            iv = entry.interval
            problems.append(
                f"interval [{iv.lo},{iv.hi}] {entry.side.value}: got "
                f"{entry.witness.conforms}, covariance route says {want}"
            )
    return problems


# ---------------------------------------------------------------------------


class LargeLaws:
    """``full_report`` on every class at sizes where the kernel dominates."""

    name = "large-laws"
    SIZES = ((10, 2), (20, 2), (40, 2), (20, 4))
    SMOKE_SIZES = ((4, 1), (6, 2))

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.sizes = self.SMOKE_SIZES if smoke else self.SIZES
        self.laws = []

    def setup(self):
        self.laws = [
            (law_class, models.random_law(law_class, n, d, seed=self.seed))
            for n, d in self.sizes
            for law_class in LawClass
        ]

    def run_pass(self, index, runner):
        rec = runner.rec
        out = []
        for i, (law_class, law) in enumerate(self.laws):
            if runner.expired():
                break
            rec.trace = f"{self.name}/{index}/{i}"
            out.append(LawRecord(i, [runner.op("classify", lambda: self.classify_law(law, law_class, rec))]))
        return out

    @staticmethod
    def classify_law(law, law_class, rec, expect=None):
        """``full_report`` timed, then checked against the class (or ``expect``)."""
        with rec.span("op.classify"):
            t0 = perf_counter()
            report = classify.full_report(law, TOL)
            timed = perf_counter() - t0
        with rec.span("bench.check"):
            problems = verdict_problems(report, expect or law_class)
            problems += interval_problems(report, law)
        return timed, problems


class SmallCorpus:
    """Oracle-sized laws: classify, cross-check every flag against the
    oracle sweeps, and round-trip each law through all six model shapes."""

    name = "small-corpus"
    NS = (3, 4, 5, 6)
    DS = (1, 2)
    SETUP_PASSES = 5  # distinct laws per class and size made at set-up
    SMOKE = dict(NS=(3, 4), DS=(1,), SETUP_PASSES=1)
    PROBE_LOG10_SCALE = 4.0  # coordinate scales drawn from 10**U(-4, 4)

    def __init__(self, seed, smoke=False):
        self.seed = seed
        cfg = self.SMOKE if smoke else {}
        self.ns = cfg.get("NS", self.NS)
        self.ds = cfg.get("DS", self.DS)
        self.setup_passes = cfg.get("SETUP_PASSES", self.SETUP_PASSES)
        self.passes = []
        self.probes = []

    def setup(self):
        self.passes = [
            [
                (law_class, models.random_law(law_class, n, d, seed=self.seed * 100 + p))
                for d in self.ds
                for n in self.ns
                for law_class in LawClass
            ]
            for p in range(self.setup_passes)
        ]
        rng = np.random.default_rng([self.seed, 7])
        self.probes = [
            (law_class, law, _change_coordinates(law, rng, self.PROBE_LOG10_SCALE))
            for laws in self.passes
            for law_class, law in laws
        ]

    def run_pass(self, index, runner):
        which = index % len(self.passes)
        out = []
        for i, (law_class, law) in enumerate(self.passes[which]):
            if runner.expired():
                break
            runner.rec.trace = f"{self.name}/{index}/{i}"
            out.append(self.crosscheck((which, i), law, law_class, runner))
        return out

    @staticmethod
    def crosscheck(key, law, law_class, runner, expect=None):
        rec = runner.rec
        state = {}
        first = runner.op("classify", lambda: _small_classify(law, law_class, rec, state, expect))
        ops = [first]
        if "report" in state:
            ops.append(runner.op("oracle", lambda: _small_oracle(law, state["report"], rec)))
        ops.append(runner.op("models", lambda: _small_models(law, law_class, rec)))
        return LawRecord(key, ops)

    def run_probe(self):
        """Re-classify every corpus law after x_k -> T_k x_k (ROADMAP item 3).

        The verdict must not change.  Failures here are a known defect of
        the classifier, reported on their own and kept out of every timing.
        """
        wrong, raised, examples = 0, 0, []
        for law_class, law, cov in self.probes:
            base = classify.full_report(law, TOL)
            try:
                moved = classify.full_report(blocks.SequenceLaw(cov, law.dim), TOL)
            except ValueError as exc:
                raised += 1
                if len(examples) < 3:
                    examples.append(f"{law_class.value} N={law.n_last} d={law.dim}: {type(exc).__name__}")
                continue
            if _all_flags(moved) != _all_flags(base):
                wrong += 1
                if len(examples) < 3:
                    examples.append(f"{law_class.value} N={law.n_last} d={law.dim}: verdict changed")
        return {
            "attempted": len(self.probes),
            "failed": wrong + raised,
            "wrong_verdict": wrong,
            "raised": raised,
            "examples": examples,
        }


def _all_flags(report):
    return (
        tuple(getattr(report, name).conforms for name in FLAG_NAMES),
        tuple(e.witness.conforms for e in report.interval_cm),
        report.consistency,
    )


def _change_coordinates(law, rng, log10_scale):
    """Covariance of (T_0 x_0, ..., T_N x_N), T_k = s_k Q_k with Q_k a random
    rotation and s_k log-uniform over [10**-log10_scale, 10**log10_scale]."""
    d, n = law.dim, law.n_last
    t = np.zeros(((n + 1) * d, (n + 1) * d))
    for k in range(n + 1):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q *= np.sign(np.diag(r))
        t[k * d : (k + 1) * d, k * d : (k + 1) * d] = 10.0 ** rng.uniform(-log10_scale, log10_scale) * q
    cov = t @ law.covariance.data @ t.T
    return (cov + cov.T) / 2.0


def _small_classify(law, law_class, rec, state, expect):
    with rec.span("op.classify"):
        t0 = perf_counter()
        report = classify.full_report(law, TOL)
        timed = perf_counter() - t0
    state["report"] = report
    with rec.span("bench.check"):
        problems = verdict_problems(report, expect or law_class)
    return timed, problems


def _small_oracle(law, report, rec):
    full = IndexInterval(0, law.n_last)
    with rec.span("op.oracle"):
        t0 = perf_counter()
        verdicts = [
            ("markov", report.markov.conforms, oracle.oracle_markov(law, TOL).holds),
            ("reciprocal", report.reciprocal.conforms, oracle.oracle_reciprocal(law, TOL).holds),
            ("cm_l", report.cm_l.conforms, oracle.oracle_cm_interval(law, full, LAST, tol=TOL).holds),
            ("cm_f", report.cm_f.conforms, oracle.oracle_cm_interval(law, full, FIRST, tol=TOL).holds),
        ]
        for e in report.interval_cm:
            verdicts.append(
                (
                    f"[{e.interval.lo},{e.interval.hi}] {e.side.value}",
                    e.witness.conforms,
                    oracle.oracle_cm_interval(law, e.interval, e.side, tol=TOL).holds,
                )
            )
        timed = perf_counter() - t0
    return timed, [f"{name}: classifier {got}, oracle {want}" for name, got, want in verdicts if got != want]


def _small_models(law, law_class, rec):
    timed = 0.0
    problems = []
    for direction, c, bc in MODEL_SHAPES:
        with rec.span("op.model_roundtrip"):
            t0 = perf_counter()
            if direction == "forward":
                model = models.build_forward(law, c, bc)
                recip = models.check_reciprocity_forward(model, TOL)
                addon = models.check_markov_forward(model, TOL)
                assembled = models.assemble_precision(model)
            else:
                model = models.build_backward(law, c, bc)
                recip = models.check_reciprocity_backward(model, TOL)
                addon = models.check_markov_backward(model, TOL)
                assembled = models.assemble_precision_backward(model)
            back = models.model_covariance(model)
            n = model.n_last
            recip_pattern = patterns.detect(assembled, patterns.PatternSpec.cyclic_tridiagonal(n), TOL)
            markov_pattern = patterns.detect(assembled, patterns.PatternSpec.tridiagonal(n), TOL)
            timed += perf_counter() - t0
        tag = f"{direction} c={c.value} {bc.value}"
        if recip.passed != recip_pattern.conforms:
            problems.append(f"{tag}: reciprocity parameters {recip.passed}, pattern {recip_pattern.conforms}")
        if (recip.passed and addon.passed) != markov_pattern.conforms:
            problems.append(f"{tag}: Markov parameters disagree with the assembled pattern")
        if c in MATCHED_SIDES[law_class]:
            resid = float(
                np.linalg.norm(back.covariance.data - law.covariance.data)
                / np.linalg.norm(law.covariance.data)
            )
            if not resid < ROUNDTRIP_TOL:
                problems.append(f"{tag}: round-trip residual {resid:.2e}")
    return timed, problems


# ---------------------------------------------------------------------------


class CliPipeline:
    """Cold ``python -m cmseq`` commands, one process at a time, on one small
    reciprocal law made from the seed: each pass runs gen, classify, convert
    both ways, verify both models, simulate (CSV and structured JSON) and
    validate.  ``classify`` runs ``CLASSIFY_REPEATS`` times per pass, so its
    best cold latency rests on more than a handful of samples."""

    name = "cli-pipeline"
    LAW = dict(law_class=LawClass.RECIPROCAL, n_last=5, dim=1)
    M_CSV, M_JSON, M_VALIDATE = 100_000, 10_000, 100_000
    SMOKE = dict(n_last=3, M_CSV=2_000, M_JSON=200, M_VALIDATE=2_000)
    VALIDATE_SIGMAS = 6.0  # validate --tol in standard errors of a variance
    CLASSIFY_REPEATS = 3

    def __init__(self, seed, smoke=False, work=None, root=None):
        self.seed = seed
        self.n_last = self.SMOKE["n_last"] if smoke else self.LAW["n_last"]
        self.m_csv = self.SMOKE["M_CSV"] if smoke else self.M_CSV
        self.m_json = self.SMOKE["M_JSON"] if smoke else self.M_JSON
        self.m_validate = self.SMOKE["M_VALIDATE"] if smoke else self.M_VALIDATE
        self.work = Path(work)
        self.root = Path(root)
        self.ref = None
        self.traced = False

    def setup(self):
        """The law, report and models in process that every pass must match."""
        self.work.mkdir(parents=True, exist_ok=True)
        law = models.random_law(self.LAW["law_class"], self.n_last, self.LAW["dim"], self.seed)
        self.ref = {
            "law": law,
            "report": classify.full_report(law, TOL),
            "forward": models.build_forward(law, LAST, BC1),
            "backward": models.build_backward(law, FIRST, BC1),
        }

    def commands(self, d):
        seed = str(self.seed)
        law = self.ref["law"]
        max_var = float(np.max(np.diag(law.covariance.data)))
        tol = self.VALIDATE_SIGMAS * np.sqrt(2.0 / self.m_validate) * max_var
        f = {k: str(d / v) for k, v in {
            "law": "law.json", "report": "report.json", "fwd": "fwd.json", "bwd": "bwd.json",
            "fwd_v": "fwd_verify.json", "bwd_v": "bwd_verify.json",
            "csv": "batch.csv", "json": "batch.json",
        }.items()}
        lc = self.LAW["law_class"].value
        classify_cmd = ("classify", "", ["classify", f["law"], "--out", f["report"]])
        return f, [
            ("gen", "", ["gen", "--class", lc, "--N", str(self.n_last), "--d", str(self.LAW["dim"]),
                         "--seed", seed, "--out", f["law"]]),
            *[classify_cmd] * self.CLASSIFY_REPEATS,
            ("convert", "forward", ["convert", f["law"], "--direction", "forward", "--c", "last",
                                    "--bc", "bc1", "--out", f["fwd"]]),
            ("convert", "backward", ["convert", f["law"], "--direction", "backward", "--c", "first",
                                     "--bc", "bc1", "--out", f["bwd"]]),
            ("verify", "forward", ["verify", f["fwd"], "--out", f["fwd_v"]]),
            ("verify", "backward", ["verify", f["bwd"], "--out", f["bwd_v"]]),
            ("simulate_csv", "", ["simulate", f["fwd"], "--samples", str(self.m_csv), "--seed", seed,
                                  "--format", "csv", "--out", f["csv"]]),
            ("simulate_json", "", ["simulate", f["fwd"], "--samples", str(self.m_json), "--seed", seed,
                                   "--format", "structured", "--out", f["json"]]),
            ("validate", "", ["validate", f["bwd"], "--samples", str(self.m_validate), "--seed", seed,
                              "--tol", repr(float(tol))]),
        ]

    def run_pass(self, index, runner):
        rec = runner.rec
        d = self.work / f"pass-{index}"
        d.mkdir(parents=True, exist_ok=True)
        files, commands = self.commands(d)
        ops = []
        try:
            for i, (kind, variant, argv) in enumerate(commands):
                if runner.expired():
                    break
                rec.trace = f"{self.name}/{index}/{i}"
                ops.append(runner.op(kind, lambda: self._command(kind, variant, argv, files, rec, d), variant))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return [LawRecord(0, ops)]

    def _command(self, kind, variant, argv, files, rec, d):
        spans_file = d / "spans.json"
        if self.traced:
            cmd = [sys.executable, str(self.root / "bench" / "traced_cli.py"), str(spans_file)] + argv
        else:
            cmd = [sys.executable, "-m", "cmseq"] + argv
        with rec.span(f"op.cli.{kind}") as sid:
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
            timed = perf_counter() - t0
        if self.traced and spans_file.exists():
            with open(spans_file) as fh:
                rec.adopt(json.load(fh)["spans"], sid)
            spans_file.unlink()
        if proc.returncode != 0:
            return timed, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        with rec.span("bench.check"), rec.paused():
            return timed, self.check(kind, variant, files, proc.stdout)

    def check(self, kind, variant, files, stdout):
        ref = self.ref
        if kind == "gen":
            law = serialize.load_law(files["law"])
            same = np.array_equal(law.covariance.data, ref["law"].covariance.data)
            return [] if same else ["generated law differs from random_law in process"]
        if kind == "classify":
            with open(files["report"]) as fh:
                rep = json.load(fh)
            return classify_report_problems(rep, ref["report"], self.LAW["law_class"])
        if kind == "convert":
            path = files["fwd"] if variant == "forward" else files["bwd"]
            return model_problems(serialize.load_model(path), ref[variant])
        if kind == "verify":
            path = files["fwd_v"] if variant == "forward" else files["bwd_v"]
            with open(path) as fh:
                rep = json.load(fh)
            return verify_problems(rep, EXPECTED_FLAGS[self.LAW["law_class"]])
        if kind == "simulate_csv":
            return csv_tail_problems(files["csv"], self.m_csv, self.n_last)
        if kind == "simulate_json":
            with open(files["json"]) as fh:
                batch = json.load(fh)
            return prefix_problems(batch, files["csv"], self.m_json, self.n_last, self.LAW["dim"])
        if kind == "validate":
            return [] if stdout.rstrip().endswith("pass") else ["validate did not print 'pass'"]
        return [f"unknown command kind {kind}"]

def classify_report_problems(rep, ref_report, law_class):
    problems = []
    for name, want in zip(FLAG_NAMES, EXPECTED_FLAGS[law_class]):
        if rep[name]["holds"] != want:
            problems.append(f"{name}: got {rep[name]['holds']}, expected {want}")
    if rep["consistency"] is not True:
        problems.append("consistency is not true")
    got = [e["holds"] for e in rep["interval_cm"]]
    want = [e.witness.conforms for e in ref_report.interval_cm]
    if got != want:
        problems.append("interval_cm flags differ from full_report in process")
    return problems


def model_problems(model, ref):
    problems = []
    for name in ("g_trans", "g_cond", "g_noise"):
        a, b = getattr(model, name), getattr(ref, name)
        if sorted(a) != sorted(b) or not all(np.array_equal(a[k], b[k]) for k in a):
            problems.append(f"{name} differs from the model built in process")
    if (model.boundary_gain is None) != (ref.boundary_gain is None) or (
        model.boundary_gain is not None and not np.array_equal(model.boundary_gain, ref.boundary_gain)
    ):
        problems.append("boundary_gain differs from the model built in process")
    return problems


def verify_problems(rep, flags):
    markov, reciprocal = flags[0], flags[1]
    problems = []
    if rep.get("routes_agree") is not True:
        problems.append("parameter and pattern routes disagree")
    if rep["reciprocal"]["parameters"]["passed"] != reciprocal:
        problems.append(f"reciprocal parameters {rep['reciprocal']['parameters']['passed']}, law says {reciprocal}")
    if rep["markov"]["parameters"]["passed"] != markov:
        problems.append(f"markov parameters {rep['markov']['parameters']['passed']}, law says {markov}")
    return problems


def csv_tail_problems(path, m, n_last):
    """The CSV's last row must be replicate M-1 at time N."""
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4096))
        last = fh.read().decode().rstrip("\r\n").splitlines()[-1].split(",")
    if (int(last[0]), int(last[1])) != (m - 1, n_last):
        return [f"CSV ends at replicate {last[0]} time {last[1]}, expected {m - 1} {n_last}"]
    return []


def prefix_problems(batch, csv_path, m_prefix, n_last, dim):
    """The M-replicate structured batch must equal the first M replicates of
    the larger CSV batch drawn with the same seed, bit for bit."""
    problems = []
    for key, want in (("M", m_prefix), ("N", n_last), ("d", dim)):
        if batch.get(key) != want:
            problems.append(f"structured batch {key}={batch.get(key)}, expected {want}")
    data = np.asarray(batch["data"], dtype=float)
    rows = m_prefix * (n_last + 1)
    prefix = np.empty((rows, dim))
    with open(csv_path) as fh:
        for i in range(rows):
            fields = fh.readline().rstrip("\r\n").split(",")
            if len(fields) != dim + 2:
                problems.append(f"CSV row {i} has {len(fields)} fields")
                return problems
            prefix[i] = [float(v) for v in fields[2:]]
    if data.shape != (m_prefix, n_last + 1, dim) or not np.array_equal(
        data.reshape(rows, dim), prefix
    ):
        problems.append("structured batch is not the bit-exact prefix of the CSV batch")
    return problems


WORKLOADS = {w.name: w for w in (LargeLaws, SmallCorpus, CliPipeline)}
