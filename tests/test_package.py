"""The package namespace and the demo scripts."""

import os
import re
import subprocess
import sys
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


def test_marginal_precisions_and_keep_work_from_the_package_alone():
    law = cmseq.random_law(cmseq.LawClass.RECIPROCAL, 4, 1, seed=0)
    sweep = cmseq.marginal_precisions(law.precision(), cmseq.Keep.LEADING)
    assert [iv for iv, _ in sweep] == [cmseq.IndexInterval(0, k) for k in (3, 2, 1)]


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
