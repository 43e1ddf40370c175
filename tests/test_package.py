"""The package namespace and the demo scripts."""

import importlib
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import cmseq
from cmseq import (
    BoundaryCondition,
    ConditioningSide,
    IndexInterval,
    LawClass,
    PatternKind,
    PatternSpec,
    build_backward,
    build_forward,
    classify_cm_interval,
    classify_cmc,
    oracle_cm_interval,
    random_law,
)
from cmseq import blocks, classify, models, oracle, patterns, simulate

MODULES = (blocks, patterns, classify, oracle, models, simulate)
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_package_names_are_the_modules_public_names():
    assert cmseq.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    assert len(set(cmseq.__all__)) == len(cmseq.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cmseq, name) is getattr(module, name), name


# a Sphinx cross-reference role; "~" only shortens the rendered name
CROSS_REFERENCE = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+)`")


def resolve(module, name):
    """The object a docstring cross-reference names: ``cmseq.x.y`` as an
    absolute path, any other name looked up in ``module``."""
    parts = name.split(".")
    if parts[0] == "cmseq":
        cut = max(n for n in range(1, len(parts) + 1) if is_module(".".join(parts[:n])))
        module, parts = importlib.import_module(".".join(parts[:cut])), parts[cut:]
    return reduce(getattr, parts, module)


def is_module(name):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def test_every_docstring_cross_reference_resolves():
    src = Path(cmseq.__file__).parent
    checked, missing = 0, []
    for path in sorted(src.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"cmseq{stem}")
        for ref in CROSS_REFERENCE.findall(path.read_text()):
            checked += 1
            try:
                resolve(module, ref)
            except AttributeError:
                missing.append(f"{path.name}: {ref}")
    assert missing == []
    assert checked > 0


def test_a_dangling_cross_reference_is_found():
    assert resolve(classify, "full_report") is classify.full_report
    assert resolve(blocks, "SequenceLaw.precision") is blocks.SequenceLaw.precision
    assert resolve(patterns, "cmseq.models.random_law") is models.random_law
    assert resolve(blocks, "cmseq.simulate") is simulate
    for module, name in [
        (classify, "detect_interval"),
        (blocks, "cmseq.blocks.marginal_precisions"),
        (blocks, "SequenceLaw.marginals"),
        (blocks, "cmseq.no_such_module"),
    ]:
        with pytest.raises(AttributeError):
            resolve(module, name)


# numpy names and keywords that numpy 1.24, the declared floor, lacks or reads
# otherwise; the package's stacked solves are covered by the numpy1_solve fixture
NUMPY_2_ONLY = (
    r"\bcopy=", r"\bvector_norm\b", r"\bmatrix_norm\b", r"\bmatrix_transpose\b", r"\.mT\b",
    r"\bnp\.concat\(", r"\bnp\.astype\b", r"\bisdtype\b", r"\bunstack\b", r"\bcumulative_sum\b",
)


def test_the_package_uses_no_numpy_2_only_name():
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if any(re.search(pattern, line) for pattern in NUMPY_2_ONLY)
    ]
    assert found == []


# the Cholesky and solve calls of the package, all behind blocks
LINEAR_ALGEBRA = re.compile(r"\b_cho_solve\b|\bnp\.linalg\.(?:solve|cholesky)\b")


def test_only_blocks_factorizes_or_solves():
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "blocks.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if LINEAR_ALGEBRA.search(line)
    ]
    assert found == []


# the symmetric mark and the pivot rule, both read in blocks only
BLOCKS_ONLY = re.compile(r"\._symmetric\b|\b_check_pivots\b")


def test_only_blocks_reads_the_symmetric_mark_or_checks_pivots():
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "blocks.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if BLOCKS_ONLY.search(line)
    ]
    assert found == []


# a fork outside the one fork layer, and pickle: a worker reports only its
# exit status, and its failed range is redone by the process that forked it
FORK = re.compile(r"\bos\.fork\b")
PICKLE_IMPORT = re.compile(r"^\s*(?:import|from)\b.*\bpickle\b")


def test_only_simulate_forks_and_no_module_imports_pickle():
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FORK.search(line) and path.name != "simulate.py" or PICKLE_IMPORT.search(line)
    ]
    assert found == []


FIRST, LAST = ConditioningSide
BC1 = BoundaryCondition.BC1


def with_field(model, name, value):
    """``model``'s constructor called with its own fields, one replaced."""
    fields = dict(vars(model), **{name: value})
    names = ("n_last", "dim", "c", "bc", "g_trans", "g_cond", "g_noise", "boundary_gain")
    return type(model)(*(fields[n] for n in names))


# every public name taking one of the package's enums, as a call of a law
# (random_law(CM_L_ONLY, 5, 1, 0)) and of that argument, with a member it accepts
ENUM_CALLS = {
    "IndexInterval.endpoint": (FIRST, lambda law, v: IndexInterval(0, 5).endpoint(v)),
    "classify_cmc": (LAST, lambda law, v: classify_cmc(law, v)),
    "classify_cm_interval": (LAST, lambda law, v: classify_cm_interval(law, IndexInterval(0, 2), v)),
    "oracle_cm_interval": (FIRST, lambda law, v: oracle_cm_interval(law, IndexInterval(0, 5), v)),
    "build_forward-c": (LAST, lambda law, v: build_forward(law, v)),
    "build_forward-bc": (BC1, lambda law, v: build_forward(law, LAST, v)),
    "build_backward-c": (FIRST, lambda law, v: build_backward(law, v)),
    "build_backward-bc": (BC1, lambda law, v: build_backward(law, FIRST, v)),
    "ForwardCmcModel-c": (LAST, lambda law, v: with_field(build_forward(law, LAST), "c", v)),
    "ForwardCmcModel-bc": (BC1, lambda law, v: with_field(build_forward(law, LAST), "bc", v)),
    "BackwardCmcModel-c": (FIRST, lambda law, v: with_field(build_backward(law, FIRST), "c", v)),
    "BackwardCmcModel-bc": (BC1, lambda law, v: with_field(build_backward(law, FIRST), "bc", v)),
    "PatternSpec": (PatternKind.CM_L, lambda law, v: PatternSpec(v, 4)),
    "random_law": (LawClass.MARKOV, lambda law, v: random_law(v, 3, 1, 0)),
}


@pytest.mark.parametrize("wrong", ["string value", "None"])
@pytest.mark.parametrize("member, call", ENUM_CALLS.values(), ids=ENUM_CALLS)
def test_an_enum_argument_must_be_a_member(member, call, wrong):
    """A string value or None is not read as some member: ``"last"`` once
    gave the CM_F verdict of ``classify_cmc`` and a model of another law."""
    law = random_law(LawClass.CM_L_ONLY, 5, 1, 0)
    call(law, member)
    with pytest.raises(TypeError, match=f"expected a {type(member).__name__}, got"):
        call(law, member.value if wrong == "string value" else None)


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    # run in an empty directory, importing the cmseq these tests import
    path = [str(Path(cmseq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
