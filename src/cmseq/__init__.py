"""Conditionally Markov, reciprocal and Markov Gaussian sequence toolkit.

Classify zero-mean nonsingular Gaussian sequence laws by the block-sparsity
pattern of their precision matrices, cross-check the verdicts against a
brute-force conditional-independence oracle, construct forward/backward
white-noise dynamic models, verify reciprocity/Markov parameter conditions,
and validate everything by seeded Monte Carlo simulation.

The package namespace re-exports the public names (``__all__``) of
:mod:`~cmseq.blocks`, :mod:`~cmseq.patterns`, :mod:`~cmseq.classify`,
:mod:`~cmseq.oracle`, :mod:`~cmseq.models` and :mod:`~cmseq.simulate`, and
``cmseq.__all__`` is built from those lists, so each name is listed once, in
its own module.  :mod:`cmseq.serialize` and :mod:`cmseq.cli` are imported on
their own.
"""

from . import blocks, classify, models, oracle, patterns, simulate
from .blocks import *  # noqa: F403
from .patterns import *  # noqa: F403
from .classify import *  # noqa: F403
from .oracle import *  # noqa: F403
from .models import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (blocks, patterns, classify, oracle, models, simulate)
    for name in module.__all__
]
