"""JSON file schemas for laws, models, reports, and sample batches.

All files carry ``schema_version: "1"`` and are emitted with sorted keys and
2-space indentation, so identical content produces identical bytes.  Floats
use Python's shortest round-trip representation, which parses back to the
bit-identical double.  Malformed content raises :class:`SchemaError` naming
the offending field; numeric preconditions (symmetry, positive definiteness)
surface as the core error types so callers can distinguish bad files from
bad matrices.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import ExitStack

import numpy as np

from .blocks import (
    ConditioningSide,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SequenceLaw,
    Tolerance,
)
from .classify import ClassificationReport
from .models import (
    BackwardCmcModel,
    BoundaryCondition,
    ForwardCmcModel,
)
from .simulate import SampleBatch, _run_split, _split

__all__ = [
    "SchemaError",
    "SCHEMA_VERSION",
    "load_law",
    "save_law",
    "load_model",
    "save_model",
    "classification_report_dict",
    "verification_report_dict",
    "save_batch_csv",
    "save_batch_json",
    "dump_json",
]

SCHEMA_VERSION = "1"
# values spelled per chunk by the batch writers: a chunk holds about 200
# bytes of Python strings and lists per value, whatever the batch's shape
_CHUNK_VALUES = 4096


class SchemaError(ValueError):
    """A file does not match its schema; the message names the field."""


def dump_json(path, obj):
    """Write ``obj`` as deterministic JSON (sorted keys, trailing newline).
    ``obj`` is encoded before the file is opened, so an object that does
    not encode leaves the file as it was."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"file: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"file: {path} is not valid JSON: {exc}") from exc


def _require(obj, fld, kind):
    if not isinstance(obj, dict):
        raise SchemaError("file: top level must be an object")
    if fld not in obj:
        raise SchemaError(f"{fld}: missing")
    val = obj[fld]
    if kind is int:
        # bool is an int subclass; reject it explicitly
        if isinstance(val, bool) or not isinstance(val, int):
            raise SchemaError(f"{fld}: expected an integer, got {type(val).__name__}")
    elif not isinstance(val, kind):
        raise SchemaError(f"{fld}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _read_header(obj):
    """The ``(N, d)`` of a law or model file, after checking its version."""
    version = _require(obj, "schema_version", str)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: unsupported value {version!r}")
    n = _require(obj, "N", int)
    d = _require(obj, "d", int)
    for fld, value in (("N", n), ("d", d)):
        if value < 1:
            raise SchemaError(f"{fld}: need {fld} >= 1")
    return n, d


def _header(n, d, **fields):
    """A file's object: its envelope (schema version, ``N`` and ``d``) and
    ``fields``; the writing twin of :func:`_read_header`."""
    return {"schema_version": SCHEMA_VERSION, "N": n, "d": d, **fields}


def _as_matrix(fld, raw, shape):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{fld}: not a numeric array: {exc}") from exc
    if arr.shape != shape:
        raise SchemaError(f"{fld}: shape {arr.shape} != expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{fld}: contains non-finite values")
    return arr


def load_law(path) -> SequenceLaw:
    """Read a law file: covariance plus dimensions, validated SPD."""
    obj = _load_json(path)
    n, d = _read_header(obj)
    size = (n + 1) * d
    cov = _as_matrix("covariance", _require(obj, "covariance", list), (size, size))
    return SequenceLaw(cov, d)  # NotSymmetric / NotPositiveDefinite propagate


def save_law(path, law: SequenceLaw):
    dump_json(path, _header(law.n_last, law.dim, covariance=law.covariance.data.tolist()))


def _gain_grid_to_json(grid):
    return {str(k): np.asarray(v).tolist() for k, v in sorted(grid.items())}


def _gain_grid_from_json(fld, raw, d):
    grid = {}
    for key, val in raw.items():
        try:
            k = int(key)
        except ValueError as exc:
            raise SchemaError(f"{fld}: key {key!r} is not a time index") from exc
        if key != str(k):  # "01", " 1" and "+1" would all load as time 1
            raise SchemaError(f"{fld}: key {key!r} is not a canonical time index")
        grid[k] = _as_matrix(f"{fld}[{key}]", val, (d, d))
    return grid


def save_model(path, model):
    if not isinstance(model, (ForwardCmcModel, BackwardCmcModel)):
        raise TypeError(f"expected a forward or backward model, got {type(model)!r}")
    obj = _header(
        model.n_last,
        model.dim,
        kind=model.direction,
        c=model.c.value,
        bc=model.bc.value,
        g_trans=_gain_grid_to_json(model.g_trans),
        g_cond=_gain_grid_to_json(model.g_cond),
        g_noise=_gain_grid_to_json(model.g_noise),
        boundary_gain=None if model.boundary_gain is None else model.boundary_gain.tolist(),
    )
    dump_json(path, obj)


def load_model(path):
    """Read a model file into a ForwardCmcModel or BackwardCmcModel."""
    obj = _load_json(path)
    n, d = _read_header(obj)
    kind = _require(obj, "kind", str)
    if kind not in ("forward", "backward"):
        raise SchemaError(f"kind: expected 'forward' or 'backward', got {kind!r}")
    c_raw = _require(obj, "c", str)
    try:
        c = ConditioningSide(c_raw)
    except ValueError as exc:
        raise SchemaError(f"c: expected 'first' or 'last', got {c_raw!r}") from exc
    bc_raw = _require(obj, "bc", str)
    try:
        bc = BoundaryCondition(bc_raw)
    except ValueError as exc:
        raise SchemaError(f"bc: expected 'bc1' or 'bc2', got {bc_raw!r}") from exc
    g_trans = _gain_grid_from_json("g_trans", _require(obj, "g_trans", dict), d)
    g_cond = _gain_grid_from_json("g_cond", _require(obj, "g_cond", dict), d)
    g_noise = _gain_grid_from_json("g_noise", _require(obj, "g_noise", dict), d)
    bg_raw = obj.get("boundary_gain")
    bg = None if bg_raw is None else _as_matrix("boundary_gain", bg_raw, (d, d))
    cls = ForwardCmcModel if kind == "forward" else BackwardCmcModel
    try:
        return cls(n, d, c, bc, g_trans, g_cond, g_noise, bg)
    except (NotSymmetricError, NotPositiveDefiniteError):
        raise  # a noise covariance that is not SPD is a numeric failure
    except ValueError as exc:
        # structural problems (bad key ranges, wrong bc combination)
        raise SchemaError(f"model: {exc}") from exc


def _witness_dict(witness):
    return {
        "holds": witness.conforms,
        "worst_block": None if witness.worst_block is None else list(witness.worst_block),
        "worst_ratio": witness.worst_ratio,
    }


def classification_report_dict(law: SequenceLaw, report: ClassificationReport, tol: Tolerance):
    """Plain-dict form of a classification report, ready for JSON."""
    reciprocal = _witness_dict(report.reciprocal)
    reciprocal["routes_agree"] = report.reciprocal.routes_agree
    return _header(
        law.n_last,
        law.dim,
        kind="classification_report",
        zero_tol=tol.zero_tol,
        residual_tol=tol.residual_tol,
        markov=_witness_dict(report.markov),
        reciprocal=reciprocal,
        cm_l=_witness_dict(report.cm_l),
        cm_f=_witness_dict(report.cm_f),
        interval_cm=[
            {
                "interval": [entry.interval.lo, entry.interval.hi],
                "side": entry.side.value,
                **_witness_dict(entry.witness),
            }
            for entry in report.interval_cm
        ],
        consistency=report.consistency,
    )


def _routes(parameters, pattern):
    """A class's section of a verification report: its two routes and whether they agree."""
    return {
        "parameters": parameters,
        "pattern": {"holds": pattern.conforms, "worst_ratio": pattern.worst_ratio},
        "agree": parameters["passed"] == pattern.conforms,
    }


def verification_report_dict(model, reciprocity, markov_addon, reciprocal_pattern, markov_pattern):
    """Plain-dict form of a verification report, ready for JSON: for the
    reciprocal and the Markov class, the parameter route (``reciprocity``,
    and for Markov also ``markov_addon``) against the pattern route (a
    witness of the model's assembled precision), and whether they agree."""
    reciprocal = _routes(
        {"passed": reciprocity.passed, "worst_ratio": reciprocity.worst_ratio},
        reciprocal_pattern,
    )
    markov = _routes(
        {
            "passed": reciprocity.passed and markov_addon.passed,
            "addon_worst_ratio": markov_addon.worst_ratio,
        },
        markov_pattern,
    )
    return _header(
        model.n_last,
        model.dim,
        kind="verification_report",
        model_kind=model.direction,
        c=model.c.value,
        bc=model.bc.value,
        reciprocal=reciprocal,
        markov=markov,
        routes_agree=reciprocal["agree"] and markov["agree"],
    )


def _items(text):
    """The item strings of a one-line list encoding ``[a, b, ...]``."""
    return text[1:-1].split(", ") if len(text) > 2 else []


def _indented(items, level):
    """The list of encoded ``items`` laid out as ``json.dumps(indent=2)`` lays
    out a list whose opening bracket is at nesting ``level``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _chunk_rows(batch):
    """Replicates per chunk of a batch writer: about ``_CHUNK_VALUES``
    values, and at least one replicate."""
    return max(1, _CHUNK_VALUES // max(1, (batch.n_last + 1) * batch.dim))


def _write_chunks(fh, n_chunks, chunk_text):
    """Write ``chunk_text(c)`` for every chunk ``c`` to the binary file
    ``fh``, in order.

    The chunks are split into contiguous ranges, one per worker process
    (see :func:`cmseq.simulate._run_split`): this process writes the first
    range to ``fh`` while each forked child writes its range to its own
    unnamed temporary file, emptied first so that a range can be redone,
    which is then appended to ``fh`` by a bounded binary copy.  So each
    process holds one chunk's text at a time.
    """
    ranges = _split(n_chunks)
    with ExitStack() as stack:
        temps = [stack.enter_context(tempfile.TemporaryFile()) for _ in ranges[1:]]

        def work(i, lo, hi):
            out = temps[i - 1] if i else fh
            if i:  # a range redone after its child failed starts afresh
                out.truncate(out.seek(0))
            for c in range(lo, hi):
                out.write(chunk_text(c).encode())
            out.flush()  # a child ends without flushing

        fh.flush()  # so no child holds a copy of text not yet written
        _run_split(ranges, work)
        for temp in temps:
            temp.seek(0)
            shutil.copyfileobj(temp, fh)


def save_batch_csv(path, batch: SampleBatch):
    """One row per (replicate, time): replicate, k, x_1..x_d.  No header.

    The bytes are those of ``csv.writer`` (excel dialect) fed
    ``[r, k] + [repr(float(v)) for v in x]``: float reprs need no quoting,
    and rows end in ``\\r\\n``.  Rows are written a chunk of whole
    replicates, about ``_CHUNK_VALUES`` values, at a time, so the memory
    beyond the batch is one chunk's text per worker process.  The floats of
    a chunk are spelled by one ``repr`` of their list, and the chunk's text is
    one ``%`` format of a replicate's row template (``"%d,k,%s\\r\\n"`` for
    each k, with k written in) repeated for each of its replicates.  A large
    batch is written by several processes at once (see
    :func:`_write_chunks`), with the same bytes.
    """
    steps, d = batch.n_last + 1, batch.dim
    per = _chunk_rows(batch)
    template = "".join(f"%d,{k}" + ",%s" * d + "\r\n" for k in range(steps))

    def chunk_text(c):
        r0 = c * per
        chunk = np.asarray(batch.data[r0:r0 + per], dtype=float)
        args = [None] * (len(chunk) * steps * (d + 1))  # each row's r, then its d values
        args[::d + 1] = np.repeat(np.arange(r0, r0 + len(chunk)), steps).tolist()
        values = _items(repr(chunk.ravel().tolist()))
        for j in range(d):
            args[j + 1::d + 1] = values[j::d]
        return template * len(chunk) % tuple(args)

    with open(path, "wb") as fh:
        _write_chunks(fh, -(-batch.n_replicates // per), chunk_text)


def save_batch_json(path, batch: SampleBatch):
    """The structured batch file: the bytes of :func:`dump_json` of the dict
    of the batch's shape, seed and ``data.tolist()``.

    ``data`` is written a chunk of whole replicates, about ``_CHUNK_VALUES``
    values, at a time into a template of the indented layout, its values
    spelled by json's own encoder on the chunk's flat list (so NaN and
    infinities read ``NaN`` and ``Infinity``, and an integer array writes
    integers).  The memory beyond the batch is one chunk's text per worker
    process.  A large batch is written by several processes at once (see
    :func:`_write_chunks`), with the same bytes.
    """
    head, tail = json.dumps(
        _header(
            batch.n_last,
            batch.dim,
            kind="sample_batch",
            M=batch.n_replicates,
            seed=batch.seed,
            data=None,
        ),
        sort_keys=True,
        indent=2,
    ).split('"data": null')
    # one replicate's (steps, d) list, its values left as %s
    replicate = _indented([_indented(["%s"] * batch.dim, 3)] * (batch.n_last + 1), 2)
    m, per = batch.n_replicates, _chunk_rows(batch)

    def chunk_text(c):
        chunk = batch.data[c * per:(c + 1) * per]
        values = _items(json.dumps(chunk.ravel().tolist()))
        text = ",\n    ".join([replicate] * len(chunk)) % tuple(values)
        return ("\n    " if c == 0 else ",\n    ") + text

    with open(path, "wb") as fh:
        fh.write((head + '"data": ' + ("[" if m else "[]")).encode())
        _write_chunks(fh, -(-m // per), chunk_text)
        fh.write((("\n  ]" if m else "") + tail + "\n").encode())
