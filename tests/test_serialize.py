"""File formats: law/model/report/batch serialization and schema errors."""

import csv
import json
import re

import numpy as np
import pytest

from cmseq import (
    BoundaryCondition,
    ConditioningSide,
    LawClass,
    NotPositiveDefiniteError,
    SampleBatch,
    Tolerance,
    build_backward,
    build_forward,
    full_report,
    random_law,
    sample_forward,
)
from cmseq.fixtures import ar1_law, cyclic_example_law
from cmseq.serialize import (
    SCHEMA_VERSION,
    SchemaError,
    classification_report_dict,
    dump_json,
    load_law,
    load_model,
    save_batch_csv,
    save_batch_json,
    save_law,
    save_model,
)
from cmseq.simulate import _BLOCK

LAST = ConditioningSide.LAST
FIRST = ConditioningSide.FIRST
BC1 = BoundaryCondition.BC1


def test_law_round_trip_is_byte_stable(tmp_path):
    law = ar1_law(3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_law(p1, law)
    save_law(p2, load_law(p1))
    assert p1.read_bytes() == p2.read_bytes()
    obj = json.loads(p1.read_text())
    assert obj["schema_version"] == SCHEMA_VERSION
    assert obj["N"] == 3 and obj["d"] == 1


def test_forward_model_round_trip(tmp_path):
    model = build_forward(ar1_law(3), LAST, BC1)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert back.n_last == 3 and back.c is LAST and back.bc is BC1
    for k in model.g_trans:
        np.testing.assert_array_equal(back.g_trans[k], model.g_trans[k])
        np.testing.assert_array_equal(back.g_cond[k], model.g_cond[k])
    for k in model.g_noise:
        np.testing.assert_array_equal(back.g_noise[k], model.g_noise[k])
    np.testing.assert_array_equal(back.boundary_gain, model.boundary_gain)
    # byte stability through a save/load/save cycle
    path2 = tmp_path / "model2.json"
    save_model(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_backward_model_round_trip(tmp_path):
    model = build_backward(ar1_law(2), FIRST, BC1)
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert back.c is FIRST
    assert type(back).__name__ == "BackwardCmcModel"


def test_serialized_floats_survive_exactly(tmp_path):
    # the written text must reproduce doubles bit for bit
    law = ar1_law(4, a=1.0 / 3.0)
    path = tmp_path / "law.json"
    save_law(path, law)
    again = load_law(path)
    assert again.covariance.data.tobytes() == law.covariance.data.tobytes()


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda o: o.pop("N"), "N"),
        (lambda o: o.pop("covariance"), "covariance"),
        (lambda o: o.update(schema_version="0"), "schema_version"),
        (lambda o: o.update(N=True), "N"),
        (lambda o: o.update(N="3"), "N"),
        (lambda o: o.update(covariance=[[1.0]]), "covariance"),
        (lambda o: o.update(schema_version=1), "schema_version: expected str, got int"),
        (lambda o: o.update(N=0), "N: need N >= 1"),
        (lambda o: o.update(d=0), "d: need d >= 1"),
        (lambda o: o.update(d=-1), "d: need d >= 1"),
        (lambda o: o.update(covariance=[["x"] * 3] * 3), "covariance: not a numeric array"),
    ],
)
def test_law_schema_errors_name_the_field(tmp_path, mutate, field):
    path = tmp_path / "law.json"
    save_law(path, ar1_law(2))
    obj = json.loads(path.read_text())
    mutate(obj)
    dump_json(path, obj)
    with pytest.raises(SchemaError, match=field):
        load_law(path)


def test_a_top_level_array_is_a_schema_error(tmp_path):
    path = tmp_path / "law.json"
    dump_json(path, [])
    with pytest.raises(SchemaError, match="file: top level must be an object"):
        load_law(path)


def test_law_with_nan_rejected(tmp_path):
    path = tmp_path / "law.json"
    save_law(path, ar1_law(2))
    obj = json.loads(path.read_text())
    obj["covariance"][0][0] = None
    dump_json(path, obj)
    with pytest.raises(SchemaError, match="covariance"):
        load_law(path)


def test_non_spd_law_file_raises_numeric_error(tmp_path):
    path = tmp_path / "law.json"
    save_law(path, ar1_law(2))
    obj = json.loads(path.read_text())
    obj["covariance"][0][0] = -4.0
    dump_json(path, obj)
    with pytest.raises(NotPositiveDefiniteError):
        load_law(path)


def test_truncated_file_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": "1", "N": 2')
    with pytest.raises(SchemaError):
        load_law(path)
    with pytest.raises(SchemaError):
        load_law(tmp_path / "missing.json")


def test_model_schema_rejects_bad_kind(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, build_forward(ar1_law(2), LAST, BC1))
    obj = json.loads(path.read_text())
    obj["kind"] = "sideways"
    dump_json(path, obj)
    with pytest.raises(SchemaError, match="kind"):
        load_model(path)


def test_model_schema_rejects_wrong_gain_keys(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, build_forward(ar1_law(2), LAST, BC1))
    obj = json.loads(path.read_text())
    obj["g_trans"]["2"] = obj["g_trans"].pop("1")
    dump_json(path, obj)
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1 ", "1_0", "-0", "x"])
def test_model_schema_rejects_a_time_key_that_is_not_canonical(tmp_path, key):
    """Only the decimal form ``str(k)`` names time ``k``: another spelling
    would load as the same time, the later of the two winning silently,
    and a key that is no integer names no time."""
    path = tmp_path / "model.json"
    save_model(path, build_forward(ar1_law(2), LAST, BC1))
    obj = json.loads(path.read_text())
    obj["g_trans"][key] = [[123.0]]
    dump_json(path, obj)
    with pytest.raises(SchemaError, match=re.escape(f"g_trans: key {key!r}")):
        load_model(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("g_trans", [], "g_trans: expected dict, got list"),
        ("c", "middle", "c: expected 'first' or 'last', got 'middle'"),
        ("bc", "bc3", "bc: expected 'bc1' or 'bc2', got 'bc3'"),
        ("d", 0, "d: need d >= 1"),
        ("N", 0, "N: need N >= 1"),
    ],
)
def test_model_schema_errors_name_the_field(tmp_path, field, value, message):
    path = tmp_path / "model.json"
    save_model(path, build_forward(ar1_law(2), LAST, BC1))
    obj = json.loads(path.read_text())
    obj[field] = value
    dump_json(path, obj)
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_model(path)


def test_save_model_rejects_what_is_not_a_model(tmp_path):
    with pytest.raises(TypeError, match="expected a forward or backward model"):
        save_model(tmp_path / "model.json", ar1_law(2))
    assert not (tmp_path / "model.json").exists()



def test_an_object_that_does_not_encode_leaves_the_file_as_it_was(tmp_path):
    """dump_json once opened its file before encoding, so a failed encode
    (a numpy integer, as model sizes once were) left an empty file."""
    path = tmp_path / "report.json"
    path.write_text("kept\n")
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json(path, {"N": np.int64(3)})
    assert path.read_text() == "kept\n"

def test_classification_report_dict_structure():
    law = cyclic_example_law()
    rep = full_report(law)
    doc = classification_report_dict(law, rep, Tolerance())
    assert doc["N"] == 3 and doc["d"] == 1
    assert doc["markov"]["holds"] is False
    assert doc["reciprocal"]["holds"] is True
    assert doc["reciprocal"]["routes_agree"] is True
    assert doc["consistency"] is True
    assert len(doc["interval_cm"]) == 8
    entry = doc["interval_cm"][0]
    assert set(entry) >= {"interval", "side", "holds"}
    # everything in the report must be plain JSON
    json.dumps(doc)


def test_batch_csv_layout(tmp_path):
    data = np.array(
        [
            [[1.0], [2.0], [3.0]],
            [[-0.5], [0.25], [0.125]],
        ]
    )
    batch = SampleBatch(2, 2, 1, data, seed=0)
    path = tmp_path / "batch.csv"
    save_batch_csv(path, batch)
    lines = path.read_text().splitlines()
    assert lines[0] == "0,0,1.0"
    assert lines[3] == "1,0,-0.5"
    assert lines[5] == "1,2,0.125"
    assert len(lines) == 6  # one row per (replicate, time), no header


def test_batch_csv_round_trips_values(tmp_path):
    model = build_forward(ar1_law(3), LAST, BC1)
    batch = sample_forward(model, 4, seed=99)
    path = tmp_path / "batch.csv"
    save_batch_csv(path, batch)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert len(rows) == 4 * 4
    got = np.array([float(r[2]) for r in rows]).reshape(4, 4, 1)
    assert got.tobytes() == batch.data.tobytes()


def _reference_csv(path, batch):
    """The row-at-a-time ``csv.writer`` form that ``save_batch_csv`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for r in range(batch.n_replicates):
            for k in range(batch.n_last + 1):
                writer.writerow([r, k] + [repr(float(v)) for v in batch.data[r, k]])


def _awkward_batch(m, n_last, dim):
    """Values over 60 decades, led by the floats whose spelling is awkward."""
    data = np.random.default_rng(m + dim).standard_normal((m, n_last + 1, dim))
    data *= 10.0 ** np.random.default_rng(1).integers(-30, 30, size=data.shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-5, 1e16, 1e300, -1e-300,
               0.1, 123456789.0]
    data.reshape(-1)[: len(special)] = special[: data.size]
    return SampleBatch(m, n_last, dim, data, seed=0)


BATCH_SHAPES = [(0, 2, 1), (1, 0, 1), (_BLOCK + 2, 2, 1), (7, 3, 3), (_BLOCK + 1, 1, 3),
                (3, 0, 2)]


@pytest.mark.parametrize("m, n_last, dim", BATCH_SHAPES)
def test_batch_csv_matches_csv_writer_bytes(tmp_path, m, n_last, dim):
    batch = _awkward_batch(m, n_last, dim)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_batch_csv(got, batch)
    _reference_csv(want, batch)
    assert got.read_bytes() == want.read_bytes()
    if m == 0:
        assert got.read_bytes() == b""


def _batch_dict(batch):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sample_batch",
        "M": batch.n_replicates,
        "N": batch.n_last,
        "d": batch.dim,
        "seed": batch.seed,
        "data": batch.data.tolist(),
    }


@pytest.mark.parametrize("m, n_last, dim", BATCH_SHAPES)
def test_batch_json_matches_dump_json_bytes(tmp_path, m, n_last, dim):
    """NaN and the infinities are spelled as json spells them."""
    batch = _awkward_batch(m, n_last, dim)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    save_batch_json(got, batch)
    dump_json(want, _batch_dict(batch))
    assert got.read_bytes() == want.read_bytes()


def test_batch_json_writes_an_integer_array_as_integers(tmp_path):
    batch = SampleBatch(2, 1, 2, np.arange(-3, 5).reshape(2, 2, 2), seed=2**70)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    save_batch_json(got, batch)
    dump_json(want, _batch_dict(batch))
    assert got.read_bytes() == want.read_bytes()
    assert json.loads(got.read_text())["data"][0][0] == [-3, -2]


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("save", [save_batch_csv, save_batch_json])
def test_batch_writer_memory_does_not_grow_with_the_batch(
    tmp_path, save, processes, traced_peak, workers
):
    """From 4 to 16 blocks of replicates, a writer's peak memory grows by
    less than a quarter of one block of the batch, on one process and in
    the parent of worker processes."""
    workers(processes)
    model = build_forward(ar1_law(4), LAST, BC1)
    path = tmp_path / "batch"
    save(path, sample_forward(model, 4 * _BLOCK, seed=0))  # warm-up
    peaks = []
    for m in (4 * _BLOCK, 16 * _BLOCK):
        batch = sample_forward(model, m, seed=0)
        peaks.append(traced_peak(lambda: save(path, batch))[1])
    block_bytes = batch.data[:_BLOCK].nbytes
    assert peaks[1] - peaks[0] < block_bytes / 4, (peaks, block_bytes)


@pytest.mark.parametrize("save", [save_batch_csv, save_batch_json])
def test_batch_writer_memory_stays_below_a_wide_batch(tmp_path, save, traced_peak, workers):
    """At N = 40, d = 4 a replicate has 164 values; a writer's chunk holds
    a fixed number of values, not of replicates, so the memory it takes
    stays below that of a batch of two blocks of replicates."""
    workers(1)
    model = build_forward(random_law(LawClass.RECIPROCAL, 40, 4, seed=1), LAST, BC1)
    batch = sample_forward(model, 2 * _BLOCK, seed=0)
    path = tmp_path / "batch"
    save(path, batch)  # warm-up
    peak = traced_peak(lambda: save(path, batch))[1]
    assert peak < batch.data.nbytes / 2, (peak, batch.data.nbytes)


def test_batch_json_contains_shape_and_seed(tmp_path):
    model = build_forward(ar1_law(2), LAST, BC1)
    batch = sample_forward(model, 3, seed=5)
    path = tmp_path / "batch.json"
    save_batch_json(path, batch)
    obj = json.loads(path.read_text())
    assert obj["M"] == 3 and obj["seed"] == 5
    assert obj["kind"] == "sample_batch"
    assert np.asarray(obj["data"]).shape == (3, 3, 1)
