"""Conditionally Markov, reciprocal and Markov Gaussian sequence toolkit.

Classify zero-mean nonsingular Gaussian sequence laws by the block-sparsity
pattern of their precision matrices, cross-check the verdicts against a
brute-force conditional-independence oracle, construct forward/backward
white-noise dynamic models, verify reciprocity/Markov parameter conditions,
and validate everything by seeded Monte Carlo simulation.
"""

from .blocks import (
    BlockMatrix,
    ConditioningSide,
    IndexInterval,
    Keep,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SequenceLaw,
    Tolerance,
    cholesky_spd,
    invert_spd,
    symmetrize,
)
from .classify import (
    ClassificationReport,
    IntervalClassEntry,
    ReciprocalWitness,
    UnsupportedIntervalError,
    classify_cm_interval,
    classify_cmc,
    classify_markov,
    classify_reciprocal,
    full_report,
    verify_composition,
)
from .models import (
    BackwardCmcModel,
    BoundaryCondition,
    CheckResult,
    ForwardCmcModel,
    LawClass,
    assemble_precision,
    assemble_precision_backward,
    assemble_script_g,
    assemble_script_g_backward,
    build_backward,
    build_forward,
    check_markov_backward,
    check_markov_forward,
    check_reciprocity_backward,
    check_reciprocity_forward,
    model_covariance,
    random_law,
)
from .oracle import (
    CiQuery,
    OracleSizeError,
    OracleVerdict,
    oracle_cm_interval,
    oracle_markov,
    oracle_reciprocal,
    partial_covariance,
)
from .patterns import (
    PatternKind,
    PatternSpec,
    PatternWitness,
    allowed_support,
    detect,
)
from .simulate import (
    InsufficientSamplesError,
    McValidationReport,
    SampleBatch,
    mc_validate,
    sample_backward,
    sample_covariance,
    sample_forward,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # blocks
    "BlockMatrix",
    "ConditioningSide",
    "IndexInterval",
    "Keep",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "SequenceLaw",
    "Tolerance",
    "cholesky_spd",
    "invert_spd",
    "symmetrize",
    # patterns
    "PatternKind",
    "PatternSpec",
    "PatternWitness",
    "allowed_support",
    "detect",
    # classify
    "ClassificationReport",
    "IntervalClassEntry",
    "ReciprocalWitness",
    "UnsupportedIntervalError",
    "classify_cm_interval",
    "classify_cmc",
    "classify_markov",
    "classify_reciprocal",
    "full_report",
    "verify_composition",
    # oracle
    "CiQuery",
    "OracleSizeError",
    "OracleVerdict",
    "oracle_cm_interval",
    "oracle_markov",
    "oracle_reciprocal",
    "partial_covariance",
    # models
    "BackwardCmcModel",
    "BoundaryCondition",
    "CheckResult",
    "ForwardCmcModel",
    "LawClass",
    "assemble_precision",
    "assemble_precision_backward",
    "assemble_script_g",
    "assemble_script_g_backward",
    "build_backward",
    "build_forward",
    "check_markov_backward",
    "check_markov_forward",
    "check_reciprocity_backward",
    "check_reciprocity_forward",
    "model_covariance",
    "random_law",
    # simulate
    "InsufficientSamplesError",
    "McValidationReport",
    "SampleBatch",
    "mc_validate",
    "sample_backward",
    "sample_covariance",
    "sample_forward",
]
