"""Command-line interface: subcommands, file plumbing, exit codes."""

import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from cmseq import BoundaryCondition, ConditioningSide, ForwardCmcModel, build_forward, cli
from cmseq.cli import main
from cmseq.fixtures import ar1_law, cyclic_example_law, identity_law
from cmseq.serialize import dump_json, load_law, load_model, save_law, save_model


@pytest.fixture()
def ar1_file(tmp_path):
    path = tmp_path / "ar1.json"
    save_law(path, ar1_law(2))
    return str(path)


@pytest.fixture()
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.json"
    save_law(path, cyclic_example_law())
    return str(path)


def test_classify_prints_flags_and_exits_zero(ar1_file, capsys):
    assert main(["classify", ar1_file]) == 0
    out = capsys.readouterr().out
    assert "markov: yes" in out
    assert "consistency: ok" in out


def test_classify_writes_report(ar1_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["classify", ar1_file, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["markov"]["holds"] is True
    assert doc["consistency"] is True


def test_classify_reports_non_markov(cyclic_file, capsys):
    assert main(["classify", cyclic_file]) == 0  # classification itself succeeded
    out = capsys.readouterr().out
    assert "markov: no" in out
    assert "reciprocal: yes" in out


def test_convert_produces_known_gains(ar1_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = main(
        ["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)]
    )
    assert rc == 0
    model = load_model(model_path)
    np.testing.assert_allclose(model.g_trans[1], [[0.4]], atol=1e-12)
    np.testing.assert_allclose(model.g_noise[1], [[0.6]], atol=1e-12)
    np.testing.assert_allclose(model.boundary_gain, [[0.25]], atol=1e-12)


@pytest.mark.parametrize(
    "direction, side, other", [("forward", "first", "LAST"), ("backward", "last", "FIRST")]
)
def test_convert_rejects_invalid_boundary_combo(ar1_file, tmp_path, capsys, direction, side,
                                                other):
    rc = main(
        ["convert", ar1_file, "--direction", direction, "--c", side, "--bc", "bc2",
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    # the message names the side the caller asked for, never the mirror's
    assert f"error: c={side.upper()} admits only BC1" in err
    assert f"c={other}" not in err


def test_verify_agrees_with_itself(ar1_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)])
    report_path = tmp_path / "verify.json"
    assert main(["verify", str(model_path), "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["reciprocal"]["agree"] is True
    assert doc["markov"]["agree"] is True
    assert doc["reciprocal"]["parameters"]["passed"] is True


def test_verify_flags_non_markov_model(cyclic_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["convert", cyclic_file, "--direction", "backward", "--c", "first", "--out", str(model_path)])
    assert main(["verify", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "reciprocal: parameters=yes pattern=yes agree=yes" in out
    assert "markov: parameters=no pattern=no agree=yes" in out


def test_simulate_csv_row_count(ar1_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)])
    csv_path = tmp_path / "batch.csv"
    rc = main(["simulate", str(model_path), "--samples", "5", "--seed", "7",
               "--out", str(csv_path)])
    assert rc == 0
    assert len(csv_path.read_text().splitlines()) == 5 * 3


def test_simulate_is_reproducible(ar1_file, tmp_path):
    model_path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)])
    p1, p2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    main(["simulate", str(model_path), "--samples", "4", "--seed", "11", "--out", str(p1)])
    main(["simulate", str(model_path), "--samples", "4", "--seed", "11", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_structured_format(ar1_file, tmp_path):
    model_path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)])
    json_path = tmp_path / "batch.json"
    main(["simulate", str(model_path), "--samples", "3", "--seed", "1",
          "--out", str(json_path), "--format", "structured"])
    obj = json.loads(json_path.read_text())
    assert obj["M"] == 3 and obj["N"] == 2


def test_validate_passes_for_faithful_model(ar1_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)])
    rc = main(["validate", str(model_path), "--samples", "20000", "--seed", "3", "--tol", "0.05"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_validate_rejects_hopeless_tolerance(ar1_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(model_path)])
    rc = main(["validate", str(model_path), "--samples", "50", "--seed", "3", "--tol", "0.001"])
    assert rc == 2


def test_gen_then_classify_round_trip(tmp_path, capsys):
    law_path = tmp_path / "gen.json"
    assert main(["gen", "--class", "reciprocal", "--N", "4", "--seed", "2",
                 "--out", str(law_path)]) == 0
    assert main(["classify", str(law_path)]) == 0
    out = capsys.readouterr().out
    assert "reciprocal: yes" in out
    assert "markov: no" in out


def test_gen_rejects_small_sizes(tmp_path, capsys):
    rc = main(["gen", "--class", "cml", "--N", "2", "--seed", "0",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_gen_is_seed_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--class", "markov", "--N", "3", "--seed", "9", "--out", str(p1)])
    main(["gen", "--class", "markov", "--N", "3", "--seed", "9", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_exit_code_2_on_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1"')
    assert main(["classify", str(bad)]) == 2
    assert main(["classify", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_exit_code_3_on_non_spd_law(tmp_path, capsys):
    law_path = tmp_path / "law.json"
    save_law(law_path, ar1_law(2))
    obj = json.loads(law_path.read_text())
    obj["covariance"][0][0] = -9.0
    dump_json(law_path, obj)
    assert main(["classify", str(law_path)]) == 3
    assert "positive definite" in capsys.readouterr().err


def test_exit_code_3_on_model_whose_law_is_not_spd(tmp_path, capsys):
    """A loadable model whose assembled precision does not factorize."""
    model = ForwardCmcModel(
        2, 1, ConditioningSide.LAST, BoundaryCondition.BC1,
        g_trans={1: np.array([[1e7]])},
        g_cond={1: np.zeros((1, 1))},
        g_noise={t: np.eye(1) for t in range(3)},
        boundary_gain=np.zeros((1, 1)),
    )
    model_path = tmp_path / "model.json"
    save_model(model_path, model)
    assert main(["verify", str(model_path)]) == 0
    assert main(["validate", str(model_path), "--seed", "1"]) == 3
    assert "positive definite" in capsys.readouterr().err


_NON_SPD_MESSAGES = {
    "g_noise": "error: matrix is not positive definite",
    "g_trans": "error: matrix has non-finite entries",
}


@pytest.mark.parametrize(
    "grid,value",
    [
        ("g_noise", [[-1.0]]),  # a noise covariance that is not SPD
        ("g_trans", [[1e200]]),  # finite, but the assembled precision overflows
    ],
)
def test_exit_code_3_on_model_with_non_spd_numbers(tmp_path, capsys, grid, value):
    model_path = _ar1_model_with(tmp_path, grid, value)
    assert main(["verify", str(model_path)]) == 3
    assert capsys.readouterr().err.startswith(_NON_SPD_MESSAGES[grid])


@pytest.mark.parametrize("extra", [["verify"], ["validate", "--seed", "1"]], ids=lambda a: a[0])
def test_overflowing_model_prints_only_its_error(tmp_path, capsys, extra):
    """numpy's overflow warnings stay off stderr: the error line is all of it."""
    model_path = _ar1_model_with(tmp_path, "g_trans", [[1e200]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([extra[0], str(model_path), *extra[1:]]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: matrix has non-finite entries\n"


def _ar1_model_with(tmp_path, grid, value):
    """An AR(1) model file whose ``grid["1"]`` is replaced by ``value``."""
    model_path = tmp_path / "model.json"
    save_model(model_path, build_forward(ar1_law(3), ConditioningSide.LAST))
    obj = json.loads(model_path.read_text())
    obj[grid]["1"] = value
    dump_json(model_path, obj)
    return model_path


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "{law}", "--tol", "0"],
        ["classify", "{law}", "--tol", "nan"],
        ["verify", "{model}", "--tol", "-1"],
    ],
)
def test_exit_code_2_on_impossible_tolerance(ar1_file, model_file, capsys, argv):
    argv = [a.format(law=ar1_file, model=model_file) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_2_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_output_files_reload(tmp_path):
    """Everything the interface writes, it can read back."""
    law_path = tmp_path / "law.json"
    main(["gen", "--class", "generic", "--N", "3", "--seed", "4", "--out", str(law_path)])
    law = load_law(law_path)
    assert law.n_last == 3
    model_path = tmp_path / "model.json"
    main(["convert", str(law_path), "--direction", "backward", "--c", "first",
          "--bc", "bc2", "--out", str(model_path)])
    model = load_model(model_path)
    assert model.n_last == 3


def test_white_noise_model_verifies_as_markov(tmp_path, capsys):
    law_path = tmp_path / "white.json"
    save_law(law_path, identity_law(3))
    model_path = tmp_path / "model.json"
    main(["convert", str(law_path), "--direction", "forward", "--c", "last",
          "--out", str(model_path)])
    assert main(["verify", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "markov: parameters=yes pattern=yes agree=yes" in out


@pytest.fixture()
def model_file(ar1_file, tmp_path):
    path = tmp_path / "model.json"
    main(["convert", ar1_file, "--direction", "forward", "--c", "last", "--out", str(path)])
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{model}", "--samples", "10", "--seed", "-1", "--out", "{tmp}/b.csv"],
        ["simulate", "{model}", "--samples", "-5", "--seed", "1", "--out", "{tmp}/b.csv"],
        ["simulate", "{model}", "--samples", "0", "--seed", "-1", "--out", "{tmp}/b.csv"],
        ["validate", "{model}", "--samples", "0", "--seed", "1"],
        ["validate", "{model}", "--samples", "10", "--seed", "-1", "--tol", "100"],
        ["validate", "{model}", "--samples", "100", "--seed", "1", "--tol", "nan"],
    ],
)
def test_exit_code_2_on_bad_sampling_values(model_file, tmp_path, capsys, argv):
    argv = [a.format(model=model_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "b.csv").exists()  # the --out probe leaves no file behind


def test_a_failed_simulate_keeps_an_existing_out_file(model_file, tmp_path):
    out = tmp_path / "b.csv"
    out.write_text("kept\n")
    argv = ["simulate", model_file, "--samples", "-5", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--class", "markov", "--N", "3", "--seed", "1", "--out", "{out}"],
        ["convert", "{law}", "--direction", "forward", "--c", "last", "--out", "{out}"],
        ["classify", "{law}", "--out", "{out}"],
        ["simulate", "{model}", "--samples", "3", "--seed", "1", "--out", "{out}"],
        ["simulate", "{model}", "--samples", "3", "--seed", "1", "--format", "structured",
         "--out", "{out}"],
    ],
)
def test_exit_code_2_on_output_in_missing_directory(ar1_file, model_file, tmp_path, capsys,
                                                    monkeypatch, argv):
    def no_sampling(*args):
        raise AssertionError("sampled before opening --out")

    # simulate must fail on its --out before the sampling work
    monkeypatch.setattr(cli, "sample_forward", no_sampling)
    monkeypatch.setattr(cli, "sample_backward", no_sampling)
    out = tmp_path / "missing" / "out.file"
    argv = [a.format(law=ar1_file, model=model_file, out=out) for a in argv]
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.parent.exists()


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """Every line of the README's command block exits 0, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    block = next(b for b in blocks if b.startswith("cmseq gen"))
    monkeypatch.chdir(tmp_path)
    lines = block.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "cmseq"
        assert main(argv[1:]) == 0, line


def test_exit_code_4_when_verify_routes_disagree(model_file, monkeypatch, capsys):
    """The parameter route says "not reciprocal" of a reciprocal model."""
    check = cli.check_reciprocity_forward

    def flipped(model, tol):
        result = check(model, tol)
        return type(result)(not result.passed, result.worst_ratio, result.worst_index)

    monkeypatch.setattr(cli, "check_reciprocity_forward", flipped)
    assert main(["verify", model_file]) == 4
    captured = capsys.readouterr()
    assert "reciprocal: parameters=no pattern=yes agree=no" in captured.out
    assert captured.err == "error: parameter and pattern routes disagree\n"


def test_exit_code_4_when_validate_is_outside_its_tolerance(model_file, monkeypatch, capsys):
    validate = cli.mc_validate

    def failed(*args):
        return dataclasses.replace(validate(*args), passed=False)

    monkeypatch.setattr(cli, "mc_validate", failed)
    assert main(["validate", model_file, "--samples", "2000", "--seed", "3", "--tol", "0.5"]) == 4
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert captured.err == "error: sample covariance deviates beyond tolerance\n"
