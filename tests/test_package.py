"""The package namespace and the demo scripts."""

import ast
import importlib
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmseq
from cmseq import (
    BoundaryCondition,
    ConditioningSide,
    IndexInterval,
    LawClass,
    PatternKind,
    PatternSpec,
    SequenceLaw,
    assemble_precision,
    build_backward,
    build_forward,
    classify_cm_interval,
    classify_cmc,
    oracle_cm_interval,
    random_law,
    sample_backward,
    sample_covariance,
    sample_forward,
)
from cmseq import blocks, classify, models, oracle, patterns, simulate

MODULES = (blocks, patterns, classify, oracle, models, simulate)
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
FIRST, LAST = ConditioningSide
BC1, BC2 = BoundaryCondition


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


def code_names(source):
    """Every name the code of a module uses, binds, defines or imports, its
    attribute names included; its docstrings and comments are not code."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname or node.name


def test_only_blocks_names_the_norm_pass_or_ratio_rule_and_classify_calls_no_detect():
    """The norm pass and the ratio rule are named in blocks only, so a
    change to how the ratios are normalized is an edit of one blocks
    routine; and classify reads every pattern off its own ratio grid."""
    src = Path(cmseq.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        names = set(code_names(path.read_text()))
        if path.name != "blocks.py":
            found += [f"{path.name}: {n}" for n in sorted(names & {"_block_norms", "_ratios"})]
        if path.name == "classify.py" and "detect" in names:
            found.append("classify.py: detect")
    assert found == []


def test_code_names_finds_imports_and_attributes_but_not_docstrings():
    source = (
        "from .patterns import (\n    PatternSpec,\n    detect,\n)\n"
        "ratios = blocks._ratios(blocks._block_norms(kept, d))  # _witness\n"
        "def f():\n    \"\"\"detect, _ratio_grid\"\"\"\n"
    )
    names = set(code_names(source))
    assert {"detect", "_ratios", "_block_norms", "blocks", "f"} <= names
    assert "_witness" not in names and "_ratio_grid" not in names


def trust_breaches(source):
    """``(line, code)`` of each place a module's code marks a matrix as
    trusted, which only blocks may do: it names ``_adopt`` or calls
    ``BlockMatrix.__new__``; or writes a symmetric part ``x + x.T`` itself,
    where blocks forms it once and marks it only if it is finite."""
    for node in ast.walk(ast.parse(source)):
        if "_adopt" in {getattr(node, a, None) for a in ("id", "attr", "name")}:
            yield node.lineno, "_adopt"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and "BlockMatrix" in map(ast.unparse, [node.func.value, *node.args])
        ):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for x, xt in ((node.left, node.right), (node.right, node.left)):
                transposed = isinstance(xt, ast.Attribute) and xt.attr == "T"
                if transposed and ast.dump(xt.value) == ast.dump(x):
                    yield node.lineno, ast.unparse(node)


def test_only_blocks_marks_a_matrix_or_writes_a_symmetric_part():
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{line}: {code}"
        for path in sorted(src.glob("*.py"))
        if path.name != "blocks.py"
        for line, code in trust_breaches(path.read_text())
    ]
    assert found == []


def test_trust_breaches_finds_marks_and_symmetric_parts_but_not_the_constructor():
    source = (
        "twice = a + a.T\n"
        "cov = BlockMatrix((cov + cov.T) / 2.0, d)\n"
        "bm = BlockMatrix.__new__(BlockMatrix)\n"
        "object.__new__(BlockMatrix)._adopt(data, d, symmetric=True)\n"
        "x = x + rows[:, src, :] @ gain.T\n"
        "mirror = object.__new__(ForwardCmcModel)\n"
        "return BlockMatrix._formed(flat.T @ flat / m, d)  # a + a.T\n"
    )
    assert sorted(line for line, _ in trust_breaches(source)) == [1, 2, 3, 4, 4]


def schema_breaches(source):
    """``(line, code)`` of each place a module's code names the file schema
    version, which only serialize may do: the name ``SCHEMA_VERSION``, or a
    ``"schema_version"`` key, written as a string or as a keyword."""
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, a, None) for a in ("id", "attr", "name", "asname")}
        if "SCHEMA_VERSION" in names:
            yield node.lineno, "SCHEMA_VERSION"
        elif isinstance(node, ast.Constant) and node.value == "schema_version":
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.keyword) and node.arg == "schema_version":
            yield node.lineno, ast.unparse(node)


def test_only_serialize_names_the_schema_version():
    """A schema change bumps ``schema_version`` in one module, the one
    that writes every file and report."""
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{line}: {code}"
        for path in sorted(src.glob("*.py"))
        if path.name != "serialize.py"
        for line, code in schema_breaches(path.read_text())
    ]
    assert found == []


def test_schema_breaches_finds_the_name_and_the_key_but_not_docstrings():
    source = (
        "from .serialize import (\n    SCHEMA_VERSION,\n    dump_json,\n)\n"
        "report = {\"schema_version\": version}\n"
        "header = dict(schema_version=serialize.SCHEMA_VERSION)\n"
        "def f():\n    \"\"\"Writes schema_version and SCHEMA_VERSION.\"\"\"\n"
    )
    assert sorted(line for line, _ in schema_breaches(source)) == [2, 5, 6, 6]


def unbounded_caches(source):
    """``(line, code)`` of each cache in a module's code without an explicit
    finite bound: a ``functools.cache``, or an ``lru_cache`` whose
    ``maxsize`` is not a positive integer, written as a literal or as a
    module-level constant (so a bare ``@lru_cache``, ``maxsize=None`` or
    any other expression is one); or either name imported under another."""
    tree = ast.parse(source)
    constants = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name == "cache" or (alias.name == "lru_cache" and alias.asname):
                    yield node.lineno, f"from functools import {ast.unparse(alias)}"
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if ast.unparse(node.value) == "functools":
                yield node.lineno, ast.unparse(node)
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else call.args[:1] + [
                k.value for k in call.keywords if k.arg == "maxsize"
            ]
            size = sizes[0] if len(sizes) == 1 else None
            if isinstance(size, ast.Name):
                size = ast.Constant(constants.get(size.id))
            if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0):
                yield node.lineno, ast.unparse(call or node)


def test_every_cache_has_an_explicit_finite_bound():
    """A cache kept for the life of a process must not grow without bound:
    every kept query table, conditioning plan and shape plan, and
    every other cache, holds at most its stated number of entries."""
    src = Path(cmseq.__file__).parent
    found = [
        f"{path.name}:{line}: {code}"
        for path in sorted(src.glob("*.py"))
        for line, code in unbounded_caches(path.read_text())
    ]
    assert found == []


def test_unbounded_caches_finds_every_cache_without_a_finite_bound():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "_SIZE = 64\n"
        "_NONE = None\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache\ndef b(x): pass\n"
        "@lru_cache(maxsize=None)\ndef c(x): pass\n"
        "@functools.lru_cache(None)\ndef d(x): pass\n"
        "@lru_cache(maxsize=_SIZE)\ndef e(x): pass\n"
        "@functools.lru_cache(maxsize=_NONE)\ndef f(x): pass\n"
        "@lru_cache(32, typed=True)\ndef g(x): pass\n"
        "h = lru_cache(maxsize=8)(len)\n"
        "i = functools.lru_cache(maxsize=0)(len)\n"
        "from functools import lru_cache as memo\n"
    )
    assert sorted(line for line, _ in unbounded_caches(source)) == [2, 5, 7, 9, 11, 15, 20, 21]


DIRECTION_CLASSES = ("ForwardCmcModel", "BackwardCmcModel")


def direction_class_breaches(source):
    """``(line, code)`` of each statement in the body of a model direction
    class, ``ForwardCmcModel`` or ``BackwardCmcModel``, that is neither its
    docstring nor the plain assignment of its ``direction`` string: the
    shared class and the shape plan read a model in either direction, so a
    direction adds no method, property or field of its own."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name in DIRECTION_CLASSES):
            continue
        for at, stmt in enumerate(node.body):
            docstring = (
                at == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            )
            direction = (
                isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name) and stmt.targets[0].id == "direction"
                and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
            )
            if not (docstring or direction):
                yield stmt.lineno, f"{node.name}: {ast.unparse(stmt).splitlines()[0]}"


def test_a_model_direction_class_holds_only_its_docstring_and_direction():
    """A backward model is the forward model of the reversed sequence: its
    class, like the forward one, is the shared class with a direction."""
    source = Path(models.__file__).read_text()
    classes = {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)}
    assert set(DIRECTION_CLASSES) <= classes
    assert list(direction_class_breaches(source)) == []


def test_direction_class_breaches_finds_every_other_statement():
    source = (
        "class ForwardCmcModel(_CmcModel):\n"
        "    \"\"\"A docstring.\"\"\"\n"
        "    direction = \"forward\"\n"
        "    def _time(self, j):\n        return j\n"
        "class BackwardCmcModel(_CmcModel):\n"
        "    direction = \"backward\"\n"
        "    \"\"\"Not a docstring here.\"\"\"\n"
        "    lag: int = 1\n"
        "    direction = 1\n"
        "    @cached_property\n    def _forward(self):\n        return self\n"
        "class Other:\n"
        "    def f(self):\n        pass\n"
    )
    assert sorted(line for line, _ in direction_class_breaches(source)) == [4, 8, 9, 10, 12]


SHAPES = [
    (build_forward, LAST, BC1), (build_forward, LAST, BC2), (build_forward, FIRST, BC1),
    (build_backward, FIRST, BC1), (build_backward, FIRST, BC2), (build_backward, LAST, BC1),
]


@settings(max_examples=60, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(3, 5),
    d=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["covariance", "precision"]),
    s=st.integers(-310, 300),
    shape=st.sampled_from(SHAPES),
)
@example(LawClass.MARKOV, 3, 1, 0, "covariance", -309, SHAPES[0])
@example(LawClass.GENERIC, 4, 2, 0, "precision", -309, SHAPES[3])
@example(LawClass.GENERIC, 5, 1, 12842, "covariance", -309, SHAPES[0])  # inf + -inf
def test_every_marked_matrix_the_package_hands_out_is_finite_and_symmetric(
    law_class, n_last, d, seed, kind, s, shape
):
    """A law's given and derived matrix, with its matrix scaled by 10**s,
    the assembled precision of a model built from it and the sample
    covariance of that model's draws: a marked one skips every symmetry
    and finiteness check, so it must be finite and exactly symmetric.  A
    derived precision that overflowed was once marked."""
    source = random_law(law_class, n_last, d, seed)
    m = (source.covariance if kind == "covariance" else source.precision()).data * 10.0**s
    handed_out = []
    try:
        law = (SequenceLaw if kind == "covariance" else SequenceLaw.from_precision)(m, d)
        handed_out += [law.covariance, law.precision()]
        build, c, bc = shape
        # numpy warns of the overflows this property is about
        with np.errstate(over="ignore", invalid="ignore"):
            model = build(law, c, bc)
            handed_out.append(assemble_precision(model))
            sample = sample_forward if build is build_forward else sample_backward
            handed_out.append(sample_covariance(sample(model, 4, seed)))
    except ValueError:
        pass  # a refused law or model hands nothing more out
    for matrix in handed_out:
        if matrix._symmetric:
            assert np.isfinite(matrix.data).all()
            assert np.array_equal(matrix.data, matrix.data.T)


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


def _env():
    """The environment of a subprocess that imports the cmseq these tests import."""
    path = [str(Path(cmseq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_importing_the_cli_leaves_numpy_random_unimported():
    """Importing ``numpy.random`` costs about 10 ms, paid by every cold
    command that samples nothing (``classify``, ``gen``, ``convert``,
    ``verify``); only what ``import numpy`` itself loads may be loaded."""
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; import cmseq.cli; "
        "print(before, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    before, after = proc.stdout.split()
    assert after == before, proc.stderr


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
    # run in an empty directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
