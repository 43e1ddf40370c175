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
