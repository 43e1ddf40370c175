"""Command-line front end: classify, convert, verify, simulate, validate, gen.

Exit codes, the same for every command: 0 success, 2 input/schema error,
3 numeric precondition failure (a matrix read or formed, such as the model
law in ``validate``, is not symmetric positive definite), 4 internal
consistency failure (verification routes disagree, or a Monte Carlo
validation fails).  Output files go to explicitly named paths; stdout
carries human-readable summaries only.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .blocks import (
    ConditioningSide,
    NotPositiveDefiniteError,
    NotSymmetricError,
    Tolerance,
)
from .classify import full_report
from .models import (
    BoundaryCondition,
    ForwardCmcModel,
    LawClass,
    assemble_precision,
    build_backward,
    build_forward,
    check_markov_forward,
    check_reciprocity_forward,
    random_law,
)
from .patterns import PatternSpec, detect
from .serialize import (
    classification_report_dict,
    dump_json,
    load_law,
    load_model,
    save_batch_csv,
    save_batch_json,
    save_law,
    save_model,
    verification_report_dict,
)
from .simulate import mc_validate, sample_backward, sample_forward

__all__ = ["main"]


def _tolerance(args) -> Tolerance:
    if getattr(args, "tol", None) is None:
        return Tolerance()
    # one knob on the command line: apply it to both thresholds
    return Tolerance(zero_tol=args.tol, residual_tol=args.tol)


def _yesno(flag):
    return "yes" if flag else "no"


def cmd_classify(args) -> int:
    law = load_law(args.law)
    tol = _tolerance(args)
    report = full_report(law, tol)
    print(f"law: N={law.n_last} d={law.dim}")
    for name, witness in (
        ("markov", report.markov),
        ("reciprocal", report.reciprocal),
        ("cm_l", report.cm_l),
        ("cm_f", report.cm_f),
    ):
        extra = ""
        if witness.worst_block is not None:
            extra = (
                f"  (worst off-pattern block {tuple(witness.worst_block)},"
                f" ratio {witness.worst_ratio:.3e})"
            )
        print(f"{name}: {_yesno(witness.conforms)}{extra}")
    n_true = sum(1 for e in report.interval_cm if e.witness.conforms)
    print(f"interval_cm: {n_true}/{len(report.interval_cm)} hold")
    print(f"consistency: {'ok' if report.consistency else 'FAILED'}")
    if args.out:
        dump_json(args.out, classification_report_dict(law, report, tol))
        print(f"report written to {args.out}")
    return 0


def cmd_convert(args) -> int:
    law = load_law(args.law)
    c = ConditioningSide(args.c)
    bc = BoundaryCondition(args.bc)
    build = build_forward if args.direction == "forward" else build_backward
    model = build(law, c, bc)
    save_model(args.out, model)
    print(
        f"{args.direction} model (c={c.value}, bc={bc.value}) for N={law.n_last} "
        f"d={law.dim} written to {args.out}"
    )
    return 0


def cmd_verify(args) -> int:
    model = load_model(args.model)
    tol = _tolerance(args)
    # one definition each for both directions (the *_backward names are aliases)
    reciprocity = check_reciprocity_forward(model, tol)
    markov_addon = check_markov_forward(model, tol)
    assembled = assemble_precision(model)
    n = model.n_last
    report = verification_report_dict(
        model,
        reciprocity,
        markov_addon,
        detect(assembled, PatternSpec.cyclic_tridiagonal(n), tol),
        detect(assembled, PatternSpec.tridiagonal(n), tol),
    )
    print(f"model: N={n} d={model.dim} c={model.c.value} bc={model.bc.value}")
    for name in ("reciprocal", "markov"):
        route = report[name]
        print(
            f"{name}: parameters={_yesno(route['parameters']['passed'])} "
            f"pattern={_yesno(route['pattern']['holds'])} "
            f"agree={_yesno(route['agree'])}"
        )
    if args.out:
        dump_json(args.out, report)
        print(f"report written to {args.out}")
    if not report["routes_agree"]:
        print("error: parameter and pattern routes disagree", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    sample = sample_forward if isinstance(model, ForwardCmcModel) else sample_backward
    # an --out that cannot be opened fails here, before the sampling work;
    # a file this probe creates is removed again if a later step fails
    created = not os.path.lexists(args.out)
    open(args.out, "a").close()
    try:
        batch = sample(model, args.samples, args.seed)
        if args.format == "csv":
            save_batch_csv(args.out, batch)
        else:
            save_batch_json(args.out, batch)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    print(
        f"{batch.n_replicates} trajectories (N={batch.n_last}, d={batch.dim}, "
        f"seed={batch.seed}) written to {args.out}"
    )
    return 0


def cmd_validate(args) -> int:
    model = load_model(args.model)
    report = mc_validate(model, args.samples, args.seed, args.tol)
    print(
        f"mc validation: worst |dev| = {report.worst_abs_dev:.4f} at entry "
        f"{report.worst_entry} (tol {report.tol_abs}, M={report.n_replicates})"
    )
    if not report.passed:
        print("error: sample covariance deviates beyond tolerance", file=sys.stderr)
        return 4
    print("pass")
    return 0


def cmd_gen(args) -> int:
    law = random_law(LawClass(args.law_class), args.n_last, args.dim, args.seed)
    save_law(args.out, law)
    print(
        f"{args.law_class} law (N={args.n_last}, d={args.dim}, seed={args.seed}) "
        f"written to {args.out}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmseq",
        description="Classify Gaussian sequence laws, build conditionally "
        "Markov dynamic models, and validate them by simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a law file")
    p.add_argument("law", help="law file (JSON)")
    p.add_argument("--tol", type=float, default=None, help="override both tolerances")
    p.add_argument("--out", default=None, help="write a classification report here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("convert", help="build a dynamic model from a law file")
    p.add_argument("law", help="law file (JSON)")
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("--c", choices=("first", "last"), required=True,
                   help="conditioning endpoint")
    p.add_argument("--bc", choices=("bc1", "bc2"), default="bc1",
                   help="boundary recursion variant")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="check model parameter conditions both ways")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("--tol", type=float, default=None, help="override both tolerances")
    p.add_argument("--out", default=None, help="write a verification report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="draw trajectories from a model file")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("--samples", type=int, required=True, help="replicate count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="Monte Carlo check of a model against its law")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.02, help="entrywise absolute tolerance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a seeded random law of a given class")
    p.add_argument("--class", dest="law_class",
                   choices=tuple(c.value for c in LawClass), required=True)
    p.add_argument("--N", dest="n_last", type=int, required=True, help="last time index")
    p.add_argument("--d", dest="dim", type=int, default=1, help="component dimension")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="law file to write")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # bad numbers are reported by the errors below, not numpy's warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (NotSymmetricError, NotPositiveDefiniteError) as exc:
        # first: both are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ValueError: bad input values and SchemaError; OSError: an output
        # path that cannot be written (input files go through the loaders)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
