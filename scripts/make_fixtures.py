#!/usr/bin/env python3
"""Regenerate the shipped fixture laws, models, and golden CLI reports.

Run from the repository root after an intentional behavior change:

    python3 scripts/make_fixtures.py

The golden files under fixtures/golden/ are byte-compared by the test
suite, so regenerating them is a deliberate act — review the diff.  The
script prints, for every file it rewrites, the JSON paths whose values
changed, sorted into verdict fields and ratio digits (and any other values),
so a reviewer can see at a glance that only rounding noise moved.
"""

import json
import pathlib
import sys

from cmseq.cli import main as cli_main
from cmseq.fixtures import ar1_law, cml_example_law, cyclic_example_law, identity_law
from cmseq.serialize import save_law

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"

# Keys whose values are verdicts: any change to one is a behaviour change.
VERDICT_KEYS = frozenset(
    {"holds", "worst_block", "consistency", "routes_agree", "agree", "passed"}
)


def run(argv, before):
    """Run one cmseq command, remembering its output file's old contents."""
    out = pathlib.Path(argv[argv.index("--out") + 1])
    before[out] = read_json(out)
    rc = cli_main(argv)
    if rc != 0:
        sys.exit(f"fixture generation failed: cmseq {' '.join(argv)} -> {rc}")


def changed_paths(old, new, path=""):
    """Yield ``(kind, path, old, new)`` for every value that differs.

    ``kind`` is "verdict" for values under a key in VERDICT_KEYS, "ratio" for
    numbers under a key ending in ``ratio``, and "other" for the rest.  A
    verdict key is compared as a whole value, so a moved ``worst_block`` is
    reported once.
    """
    key = path.rsplit(".", 1)[-1]
    if key in VERDICT_KEYS:
        if old != new:
            yield "verdict", path, old, new
    elif isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            sub = f"{path}.{k}" if path else k
            yield from changed_paths(old.get(k), new.get(k), sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changed_paths(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        is_number = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in (old, new))
        kind = "ratio" if is_number and key.endswith("ratio") else "other"
        yield kind, path, old, new


def read_json(path):
    return json.loads(path.read_text()) if path.exists() else None


def report_changes(before):
    """Print the field-level diff of every rewritten file; return verdict count."""
    verdicts = 0
    for path, old in before.items():
        rel = path.relative_to(ROOT)
        new = read_json(path)
        if old is None:
            print(f"{rel}: new file")
            continue
        changes = list(changed_paths(old, new))
        if not changes:
            print(f"{rel}: unchanged")
            continue
        print(f"{rel}: {len(changes)} changed")
        for kind, label in (("verdict", "verdict fields"), ("ratio", "ratio digits"),
                            ("other", "other values")):
            rows = [c for c in changes if c[0] == kind]
            if kind == "verdict":
                verdicts += len(rows)
            if not rows:
                continue
            print(f"  {label}:")
            for _, where, a, b in rows:
                print(f"    {where}: {a!r} -> {b!r}")
    return verdicts


def main():
    FIXTURES.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    before = {}  # path -> JSON contents before this run, None if absent

    laws = {
        "identity": identity_law(3),
        "ar1": ar1_law(2),
        "cyclic": cyclic_example_law(),
        "cml": cml_example_law(),
    }
    for name, law in laws.items():
        path = FIXTURES / f"{name}.json"
        before[path] = read_json(path)
        save_law(path, law)

    for name in laws:
        run(
            [
                "classify",
                str(FIXTURES / f"{name}.json"),
                "--out",
                str(GOLDEN / f"classify_{name}.json"),
            ],
            before,
        )

    models = {
        "ar1_forward_model": ["convert", str(FIXTURES / "ar1.json"),
                              "--direction", "forward", "--c", "last"],
        "cyclic_backward_model": ["convert", str(FIXTURES / "cyclic.json"),
                                  "--direction", "backward", "--c", "first"],
    }
    for name, argv in models.items():
        run(argv + ["--out", str(FIXTURES / f"{name}.json")], before)
        run(
            [
                "verify",
                str(FIXTURES / f"{name}.json"),
                "--out",
                str(GOLDEN / f"verify_{name}.json"),
            ],
            before,
        )

    verdicts = report_changes(before)
    print(f"fixtures written under {FIXTURES}; verdict fields changed: {verdicts}")


if __name__ == "__main__":
    main()
