"""White-noise dynamic models realizing conditionally-Markov Gaussian laws.

A CM_c law admits a forward representation

    x_k = G_trans[k] x_{k-1} + G_cond[k] x_c + e_k

driven by independent zero-mean Gaussian noises e_k with SPD covariances
G_noise[k], plus a two-term boundary recursion tying x_0 and x_N together.
The gains are Gaussian conditional-expectation coefficients of x_k on
(x_{k-1}, x_c); stacking the recursions into a unit-diagonal block matrix
SG gives the model's precision A = SG' G^{-1} SG where G is the block
diagonal of noise covariances.

The backward model x_k = G_trans[k] x_{k+1} + G_cond[k] x_c + e_k is the
forward model of the time-reversed sequence y_j = x_{N-j}, kept on the
original time axis.  Reversal maps time k to N-k and swaps the conditioning
sides FIRST and LAST; it keeps the boundary variant and the boundary gain.
So a shape's draw order is written once, for the forward direction, in
:func:`_shape_plan`, which maps a backward model's steps to its own axis:
the regressions, SG, the generation plan the sampler
(:mod:`cmseq.simulate`) reads, the grids' keys and the constructor's rules
all read that plan.  The parameter checks read a backward model's stacks
reversed, with the sides swapped.

A model keeps its gains and noises as read-only ``(N+1, d, d)`` float
stacks in time order, zero at a time with no gain: a build hands over the
stacks its regressions filled, and a caller's grids are converted once;
its public grids are read-only mappings of read-only views of those
stacks.  Every operation is a few stacked numpy
calls whatever N: a build scatters each group of regressions straight into
the stacks, both parameter checks are batched products with every norm
taken in one stacked pass, and SG and the block diagonal of noise inverses
are block scatters, SG's in the plan's order.  What a model derives it
computes once.  Construction refuses a non-finite entry, checks every
noise covariance in one stacked Cholesky factorization, refuses a noise
whose inverse is not finite and keeps each factor and inverse; the
parameter checks, the assembled precision and the sampler read those.  The
generation plan and the precision, marked by
:meth:`~cmseq.blocks.BlockMatrix._formed` if finite, are built on first
use and kept.  Since
nothing can change a model, nothing kept goes stale, and a round trip
(build, checks, precision, model covariance, sampling) takes the same
number of factorizations for every N.  Building a model makes one call of
:func:`~cmseq.blocks._condition`, the package's one Gaussian-conditioning
routine, with one ``(t, t, givens)`` triple per step in draw order, at the
law's own times for either direction, so an error names the law's own
row.  The shape plan depends only on N and the model's shape: it is made
once and kept, as the routine keeps its gathers per triples, ``d`` and
size, so a build of a size seen before runs only its gathers, LAPACK
calls and products.

The model family is exactly as expressive as the CM_c class: building a model
from a law and reassembling its precision reproduces the law *iff* the law is
CM_c for the chosen conditioning side.  For any SPD input the construction
still succeeds — the result is then the CM_c member matching the input's
relevant conditionals, not the input itself.

Reciprocity and Markovness of the *model's* law are decidable directly from
the parameters: an interior gain identity for reciprocity, plus one boundary
identity ("add-on") for Markovness, checked here with scale-free residuals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .blocks import (
    BlockMatrix,
    ConditioningSide,
    SequenceLaw,
    Tolerance,
    _cholesky_stack,
    _condition,
    _frobenius_norms,
    _inverse_from_factor,
    _member,
    _symmetric_part,
)
from .patterns import PatternSpec, _support_grid

__all__ = [
    "BoundaryCondition",
    "LawClass",
    "ForwardCmcModel",
    "BackwardCmcModel",
    "CheckResult",
    "build_forward",
    "build_backward",
    "assemble_script_g",
    "assemble_script_g_backward",
    "assemble_precision",
    "assemble_precision_backward",
    "check_reciprocity_forward",
    "check_markov_forward",
    "check_reciprocity_backward",
    "check_markov_backward",
    "model_covariance",
    "random_law",
]


class BoundaryCondition(Enum):
    """Which endpoint is drawn first by the boundary recursion."""

    BC1 = "bc1"
    BC2 = "bc2"


class LawClass(Enum):
    """Law families the fixture generator can produce."""

    MARKOV = "markov"
    RECIPROCAL = "reciprocal"
    CM_L_ONLY = "cml"
    CM_F_ONLY = "cmf"
    GENERIC = "generic"


_OTHER_SIDE = {
    ConditioningSide.FIRST: ConditioningSide.LAST,
    ConditioningSide.LAST: ConditioningSide.FIRST,
}


_GRIDS = ("g_trans", "g_cond", "g_noise")
# shape plans kept: the benchmark's `small-corpus` laws use 24 (four sizes
# N, six model shapes)
_PLANS = 128


def _check_grid(name, grid, keys, d):
    """Refuse the grid ``name`` by name and time unless it is keyed by
    exactly the times ``keys``, each entry a finite d x d matrix."""
    if set(grid.keys()) != set(keys):
        raise ValueError(f"{name} keys {sorted(grid.keys())} != expected {sorted(keys)}")
    for k, g in grid.items():
        if np.shape(g) != (d, d):
            raise ValueError(f"{name}[{k}] has shape {np.shape(g)}, expected {(d, d)}")
    if not np.isfinite(np.array([*grid.values()], dtype=float)).all():  # one test for the grid
        k = min(k for k, g in grid.items() if not np.isfinite(g).all())
        raise ValueError(f"{name}[{k}] has non-finite entries")


def _stacks(grids, keys, n, d):
    """The grids ``g_trans``, ``g_cond`` and ``g_noise``, each keyed by the
    times of its range of ``keys``, as one read-only ``(3, n + 1, d, d)``
    float array of stacks in time order, zero at a time with no entry: one
    conversion of every entry.  Where it fails, :func:`_check_grid` refuses
    the first grid that is not keyed so, or has an entry that is not a
    finite d x d matrix."""
    values = None
    if all(set(grid.keys()) == set(ks) for grid, ks in zip(grids, keys)):
        try:
            values = np.array([grid[k] for grid, ks in zip(grids, keys) for k in ks], dtype=float)
        except (ValueError, TypeError):  # entries of unequal shapes, or not numbers
            pass
    if values is None or values.shape[1:] != (d, d) or not np.isfinite(values).all():
        for name, grid, ks in zip(_GRIDS, grids, keys):
            _check_grid(name, grid, ks, d)
    stacks = np.zeros((3, n + 1, d, d))
    at = 0
    for stack, ks in zip(stacks, keys):
        stack[ks.start : ks.stop] = values[at : at + len(ks)]
        at += len(ks)
    stacks.setflags(write=False)
    return stacks


def _frozen(g):
    """A read-only float copy of ``g``; the caller's array stays writable."""
    a = np.array(g, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _CmcModel:
    """Fields and validation shared by the two time directions.

    ``_plan`` is the model's :func:`_shape_plan`, its steps on its own time
    axis.  Validation reads the model on that axis, so its messages name the
    caller's times and sides.

    ``_trans``, ``_cond`` and ``_noise`` are the gains and noises as
    read-only ``(N+1, d, d)`` stacks in time order, zero at a time with no
    gain; each public mapping holds read-only views of its stack.
    ``_noise_lower`` and ``_noise_inv`` stack the lower Cholesky factor and
    the finite inverse of every noise covariance, from the one stacked
    factorization that validates them.
    """

    n_last: int
    dim: int
    c: ConditioningSide
    bc: BoundaryCondition
    g_trans: dict = field(repr=False)
    g_cond: dict = field(repr=False)
    g_noise: dict = field(repr=False)
    boundary_gain: np.ndarray | None = field(default=None, repr=False)

    @property
    def c_index(self):
        return 0 if self.c is ConditioningSide.FIRST else self.n_last

    @cached_property
    def _plan(self):
        return _shape_plan(self.n_last, self.c, self.bc, self.direction == "backward")

    @cached_property
    def _generation_plan(self):
        """Ordered steps (time, [(gain, source_time), ...]) realizing the model.

        The plan's steps with their gains: the boundary recursion in its
        documented draw order, then the chain.  Consuming one noise vector
        per entry, in order, reproduces the model's law exactly, and each
        entry is one row of SG.  Built on first use and kept; callers only
        read it.
        """
        plan, steps = self._plan, []
        for t, givens in plan.steps:
            if t == plan.split:  # both gains of the chain's first step read its start
                givens *= 2
            gains = (self._trans[t], self._cond[t]) if len(givens) == 2 else (self.boundary_gain,)
            steps.append((t, list(zip(gains, givens))))
        return steps

    def _script_g(self):
        """SG as a fresh ndarray, on the model's own axis: every term of the
        plan subtracted from an identity, by block scatters in plan order
        (the boundary gain, then every transition gain, then every
        conditioning gain), so the forward c=FIRST row 1 keeps
        ``0 - G_trans[1] - G_cond[1]``.  Row t's transition gain sits in the
        column of its previous time: t-1 forward, t+1 backward."""
        n, d, plan = self.n_last, self.dim, self._plan
        sg = np.eye((n + 1) * d)
        grid = sg.reshape(n + 1, d, n + 1, d).swapaxes(1, 2)  # grid[i, j] is block (i, j)
        if plan.split is None:
            end, (start,) = plan.steps[1]
            grid[end, start] -= self.boundary_gain
        at = slice(plan.gains.start, plan.gains.stop)
        grid[np.arange(at.start, at.stop), plan.prev] -= self._trans[at]
        grid[at, self.c_index] -= self._cond[at]
        return sg

    @cached_property
    def _precision(self):
        """:func:`assemble_precision`, built on first use and kept."""
        sg, n, d = self._script_g(), self.n_last, self.dim
        noise_inv = np.zeros_like(sg)
        diag = np.arange(n + 1)
        noise_inv.reshape(n + 1, d, n + 1, d).swapaxes(1, 2)[diag, diag] = self._noise_inv
        return BlockMatrix._formed(sg.T @ noise_inv @ sg, d)

    def __reduce__(self):
        # a mapping proxy does not pickle: rebuild from plain dicts instead
        grids = (dict(self.g_trans), dict(self.g_cond), dict(self.g_noise))
        return type(self), (self.n_last, self.dim, self.c, self.bc, *grids, self.boundary_gain)

    def __post_init__(self):
        _member(self.c, ConditioningSide)
        _member(self.bc, BoundaryCondition)
        # TypeError for a non-integer size; a numpy integer is kept as an int
        n, d = operator.index(self.n_last), operator.index(self.dim)
        object.__setattr__(self, "n_last", n)
        object.__setattr__(self, "dim", d)
        if n < 1 or d < 1:
            raise ValueError("need n_last >= 1 and dim >= 1")
        keys = self._keys()
        stacks = _stacks([getattr(self, name) for name in _GRIDS], keys, n, d)
        self._keep_stacks(stacks, keys)
        k = self._plan.split
        if k is not None and not np.allclose(self._trans[k], self._cond[k]):
            raise ValueError(
                f"c={self.c.name} requires the equal split G_trans[{k}] == G_cond[{k}]"
            )

    @classmethod
    def _built(cls, n, d, c, bc, stacks, boundary_gain):
        """The model a build read off a law, from the writable ``(3, n + 1,
        d, d)`` ``stacks`` of :func:`_regressions`, which it makes read-only
        and keeps: no grid is converted, and no equal split compared, as
        the regressions make it exact.  A refusal is the constructor's, in
        its order."""
        model = object.__new__(cls)
        names = ("n_last", "dim", "c", "bc", "boundary_gain")
        for name, value in zip(names, (n, d, c, bc, boundary_gain)):
            object.__setattr__(model, name, value)
        keys = model._keys()
        unbounded = ~np.isfinite(stacks).all(axis=(2, 3))
        if unbounded.any():  # the grid, then the time, _check_grid names first
            grid, t = divmod(unbounded.argmax().item(), n + 1)
            raise ValueError(f"{_GRIDS[grid]}[{t}] has non-finite entries")
        stacks.setflags(write=False)
        model._keep_stacks(stacks, keys, symmetric=True)
        return model

    def _keys(self):
        """The times of the gain and noise grids, after refusing a chain
        start with BC2: conditioned on its start time s, the chain starts at
        x_s = e_s and its first step carries the equal split; otherwise
        boundary_gain closes it."""
        plan = self._plan
        if plan.split is not None and self.bc is not BoundaryCondition.BC1:
            s = plan.steps[0][0]
            raise ValueError(
                f"c={self.c.name} admits only BC1 (the chain starts at x_{s} = e_{s})"
            )
        return plan.gains, plan.gains, range(self.n_last + 1)

    def _keep_stacks(self, stacks, keys, symmetric=False):
        """The step every construction ends in: keep the read-only
        ``stacks`` and their views, factor and invert every noise
        covariance (``symmetric`` skips the symmetry test of noises a build
        made), and check the boundary gain."""
        for name, stack, ks in zip(_GRIDS, stacks, keys):
            views = dict(zip(ks, stack[ks.start : ks.stop]))
            object.__setattr__(self, name[1:], stack)  # _trans, _cond, _noise
            object.__setattr__(self, name, MappingProxyType(views))
        # noise covariances must be SPD; the factors that show it are kept
        lower = _cholesky_stack(self._noise, symmetric)
        inv = _inverse_from_factor(lower)
        if not np.isfinite(inv).all():  # one test for the stack
            t = min(t for t in range(self.n_last + 1) if not np.isfinite(inv[t]).all())
            raise ValueError(f"g_noise[{t}] has no finite inverse")
        lower.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "_noise_lower", lower)
        object.__setattr__(self, "_noise_inv", inv)
        c, d = self.c, self.dim
        if self._plan.split is None:
            if self.boundary_gain is None or np.shape(self.boundary_gain) != (d, d):
                raise ValueError(f"c={c.name} requires a d x d boundary_gain")
            object.__setattr__(self, "boundary_gain", _frozen(self.boundary_gain))
            if not np.isfinite(self.boundary_gain).all():
                raise ValueError("boundary_gain has non-finite entries")
        elif self.boundary_gain is not None:
            raise ValueError(f"boundary_gain is only meaningful for c={_OTHER_SIDE[c].name}")


@dataclass(frozen=True)
class ForwardCmcModel(_CmcModel):
    """Forward model x_k = G_trans[k] x_{k-1} + G_cond[k] x_c + e_k.

    Gains exist for k in (0, N] except the conditioning time; noise
    covariances exist for every k.  ``boundary_gain`` closes the loop for
    c=LAST (x_N regressed on x_0 under BC1, x_0 on x_N under BC2) and is
    absent for c=FIRST, where the chain starts at x_0 = e_0 and the k=1 step
    splits its x_0 weight equally between G_trans[1] and G_cond[1].
    """

    direction = "forward"


@dataclass(frozen=True)
class BackwardCmcModel(_CmcModel):
    """Backward model x_k = G_trans[k] x_{k+1} + G_cond[k] x_c + e_k.

    The forward model of the reversed sequence y_j = x_{N-j}, kept on the
    original time axis: gains exist for k in [0, N) except the conditioning
    time; ``boundary_gain`` exists for c=FIRST (x_0 on x_N under BC1, x_N on
    x_0 under BC2); for c=LAST the chain starts at x_N = e_N and the k=N-1
    step splits its weight equally.
    """

    direction = "backward"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a parameter-condition check."""

    passed: bool
    worst_ratio: float
    worst_index: int | None


def _regressions(cov, c, bc, backward=False):
    """The stacks and boundary gain of the model of side ``c`` read off the
    covariance ``cov``: of its forward model, or with ``backward`` of its
    backward model.  ``(stacks, boundary_gain)``: the gains and noises as
    one writable ``(3, N + 1, d, d)`` array on the model's own time axis,
    zero at a time with no gain, for :meth:`_CmcModel._built`.

    All steps go to one :func:`~cmseq.blocks._condition` call, with the
    triples of the kept :func:`_shape_plan`: the start step, with no
    givens, yields its plain block, and every other step its gains (the
    transposed solves) and noise (the symmetric part of the residual), each
    group scattered straight into the stacks at its model times.
    """
    n, d = cov.n_blocks - 1, cov.block_dim
    plan = _shape_plan(n, c, bc, backward)
    rows = plan.rows
    stacks = np.zeros((3, n + 1, d, d))
    trans, cond, noise = stacks
    for _, solved, partial in _condition(cov, plan.triples):
        at = rows[solved.shape[1] // d]  # the group's rows, by its number of givens
        noise[at] = partial
        if at is rows[1]:  # x_end on x_start alone
            end_gain = solved[0].T
        elif at is rows[2]:  # x_k on (x_{k-1}, x_c)
            trans[at], cond[at] = solved[:, :d].swapaxes(1, 2), solved[:, d:].swapaxes(1, 2)
    if plan.split is None:
        bg = end_gain
    else:
        bg, trans[plan.split], cond[plan.split] = None, end_gain / 2.0, end_gain / 2.0
    stacks[2] = _symmetric_part(noise)
    return stacks, bg


class _ShapePlan(NamedTuple):
    """The steps of one model shape over times ``0..n``, on the model's own
    time axis; see :func:`_shape_plan`."""

    steps: tuple
    split: int | None
    gains: range
    prev: np.ndarray
    triples: tuple
    rows: tuple


@lru_cache(maxsize=_PLANS)
def _shape_plan(n, c, bc, backward):
    """The draw order of the model of side ``c`` and boundary recursion
    ``bc`` over times ``0..n``, forward or ``backward``, made once and kept
    (at most ``_PLANS`` of them), all on the model's own time axis:

    - ``steps``: each step ``(t, givens)`` in draw order, x_t regressed on
      the times ``givens``: the chain's start (no givens), then the step
      on the start alone (the boundary gain's, or the chain's first step,
      which carries the equal split), then the chain, x_k on (x_{k-1}, x_c);
    - ``split``: that first step's time for a model that starts its chain
      at its conditioning time, or None for a model with a boundary gain;
    - ``gains``: the range of the gain times, every time but the start and
      the conditioning time; ``prev``: each one's previous time;
    - ``triples``: the ``(t, t, givens)`` triple of each step, for
      :func:`~cmseq.blocks._condition`; ``rows[m]``: the times of the
      steps with ``m`` givens, in step order.

    A backward model is the forward model of the reversed sequence
    y_j = x_{n-j} for the other side: its steps are those, each time j
    mapped to n - j, so a build reads the law's covariance at the law's own
    times and an error names the law's own row.  The bc of a model that
    starts its chain is not read here (its model refuses BC2).  The arrays
    are read-only.
    """
    side = _OTHER_SIDE[c] if backward else c
    if side is ConditioningSide.LAST:
        start, end = (0, n) if bc is BoundaryCondition.BC1 else (n, 0)
        c_index, chain, split = n, range(1, n), None
    else:  # c = FIRST: x_0 = e_0, and the k=1 step sees x_{k-1} = x_c = x_0
        start, end, c_index, chain, split = 0, 1, 0, range(2, n + 1), 1
    steps = [(start, ()), (end, (start,)), *((k, (k - 1, c_index)) for k in chain)]
    gains = range(1, chain.stop)
    if backward:  # the reversed sequence's time j is the model's time n - j
        steps = [(n - t, tuple(n - g for g in givens)) for t, givens in steps]
        split = None if split is None else n - split
        gains = range(n + 1 - gains.stop, n)
    prev = np.arange(gains.start, gains.stop) + (1 if backward else -1)
    rows = tuple(np.array([t for t, g in steps if len(g) == m], dtype=np.intp) for m in range(3))
    for at in (prev, *rows):
        at.setflags(write=False)
    triples = tuple(((t,), (t,), givens) for t, givens in steps)
    return _ShapePlan(tuple(steps), split, gains, prev, triples, rows)


def build_forward(
    law: SequenceLaw,
    c: ConditioningSide,
    bc: BoundaryCondition = BoundaryCondition.BC1,
) -> ForwardCmcModel:
    """Extract the forward model of a law for conditioning side ``c``.

    Interior gains regress x_k on (x_{k-1}, x_c); the boundary pair follows
    the chosen recursion order: for c=LAST, BC1 starts at x_0 (so x_N is
    regressed on x_0) and BC2 starts at x_N; c=FIRST always starts at x_0
    and admits only BC1.  The model reproduces ``law`` exactly iff the law
    is CM_c for this side; it is a valid model of *some* CM_c law for every
    SPD input.
    """
    _member(c, ConditioningSide)
    _member(bc, BoundaryCondition)
    stacks, bg = _regressions(law.covariance, c, bc)
    return ForwardCmcModel._built(law.n_last, law.dim, c, bc, stacks, bg)


def build_backward(
    law: SequenceLaw,
    c: ConditioningSide,
    bc: BoundaryCondition = BoundaryCondition.BC1,
) -> BackwardCmcModel:
    """Extract the backward model of a law for conditioning side ``c``.

    Interior gains regress x_k on (x_{k+1}, x_c).  They are the forward
    regressions of the time-reversed covariance for the other side, in
    stacks reversed back to the original times.  c=FIRST admits BC1 (x_N
    drawn first) and BC2; c=LAST starts at x_N and admits only BC1.
    """
    _member(c, ConditioningSide)
    _member(bc, BoundaryCondition)
    stacks, bg = _regressions(law.covariance, c, bc, backward=True)
    return BackwardCmcModel._built(law.n_last, law.dim, c, bc, stacks, bg)


def assemble_script_g(model) -> BlockMatrix:
    """The unit-diagonal stacked-recursion matrix SG of a model.

    Row t carries -gain at column src for each term of the plan's step t,
    overlaps adding in plan order.  So forward row k carries -G_trans[k] at
    column k-1 (k+1 for a backward model) and -G_cond[k] at column c, the
    forward c=FIRST row 1 carries -2 G_trans[1] at column 0, and the
    boundary row carries -boundary_gain at the opposite endpoint.
    """
    return BlockMatrix(model._script_g(), model.dim)


def assemble_precision(model) -> BlockMatrix:
    """Precision matrix A = SG' G^{-1} SG of the model's own law.

    Formed on the model's own time axis, for either direction, from the
    noise inverses the model keeps.  It is computed once per model, and
    every call returns that read-only matrix.
    """
    return model._precision


# one definition for both directions; the backward names stay public
assemble_script_g_backward = assemble_script_g
assemble_precision_backward = assemble_precision


def model_covariance(model) -> SequenceLaw:
    """The law realized by a model, which keeps the model's own assembled
    precision, checked by one factorization per call; its covariance is
    derived only when asked for."""
    if not isinstance(model, _CmcModel):
        raise TypeError(f"expected a forward or backward model, got {type(model)!r}")
    return SequenceLaw.from_precision(assemble_precision(model))


def _identity_residuals(index, lhs, rhs, floors=()):
    """Max relative gap over the identities ``lhs[i] = rhs[i]``, the one at
    ``index[i]`` (ascending), scale-free.

    ``lhs`` and ``rhs`` are ``(K, d, d)`` stacks, and ``floors`` a sequence
    of such stacks.  The scale is the largest norm among all sides and the
    matrices of ``floors``.  Each residual ``lhs - rhs`` is an off-pattern
    block of the assembled precision, so callers floor the scale with the
    noise inverses, the precision's magnitude: identities whose sides all
    vanish (e.g. every conditioning gain is zero) then pass instead of
    dividing rounding noise by itself.  Among equal residuals the smallest
    index is reported.  A norm that is not finite (norms square, so past
    about 1.3e154) fails the check with a NaN ratio, at the first identity
    whose sides or residual have one.  Every norm is taken in one
    :func:`~cmseq.blocks._frobenius_norms` pass.
    """
    f, k = sum(map(len, floors)), len(index)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _frobenius_norms(np.concatenate([*floors, lhs, rhs, lhs - rhs]))
    if not np.isfinite(norms).all():
        unbounded = ~np.isfinite(norms[f:].reshape(3, k)).all(axis=0)
        return float("nan"), index[unbounded.argmax()].item() if unbounded.any() else None
    scale = norms[: f + 2 * k].max(initial=0.0)
    if scale == 0.0 or not k:
        return 0.0, None
    ratios = norms[f + 2 * k :] / scale
    i = ratios.argmax()
    if ratios[i] <= 0.0:
        return 0.0, None
    return ratios[i].item(), index[i].item()


def _forward_stacks(model):
    """``(side, inv, trans, cond)``: the model read as the forward model of
    its draw order, with its noise-inverse, transition and conditioning
    stacks.  A backward model is the forward model of the reversed
    sequence: its stacks reversed, with the other side."""
    stacks = model._noise_inv, model._trans, model._cond
    if model.direction == "forward":
        return model.c, *stacks
    return _OTHER_SIDE[model.c], *(stack[::-1] for stack in stacks)


def check_reciprocity_forward(model, tol: Tolerance = Tolerance()) -> CheckResult:
    """Interior parameter condition for the model's law to be reciprocal.

    Checks G_noise[k]^{-1} G_cond[k] = G_trans[k+1]' G_noise[k+1]^{-1} G_cond[k+1]
    over k in {1..N-2} for c=LAST and k in {2..N-1} for c=FIRST (the literal
    interior ranges; empty ranges pass vacuously), as batched products over
    the stacks.  A backward model is checked as the forward model of the
    reversed sequence; ``worst_index`` is the lower time of the worst pair
    on the model's own axis.
    """
    side, inv, trans, cond = _forward_stacks(model)
    n = model.n_last
    lo, hi = (1, n - 1) if side is ConditioningSide.LAST else (2, n)
    at, after = slice(lo, hi), slice(lo + 1, hi + 1)  # the pairs (k, k+1), k in lo..hi-1
    lhs = inv[at] @ cond[at]
    rhs = trans[after].swapaxes(1, 2) @ inv[after] @ cond[after]
    index = np.arange(lo, hi)
    if model.direction == "backward":  # pair k's lower time is N-k-1: ascending, reversed
        lhs, rhs, index = lhs[::-1], rhs[::-1], n - 1 - index[::-1]
    floors = (inv[lo : hi + 1],) if hi > lo else ()  # every time of a pair
    worst_ratio, worst_index = _identity_residuals(index, lhs, rhs, floors)
    return CheckResult(bool(worst_ratio <= tol.residual_tol), worst_ratio, worst_index)


def check_markov_forward(model, tol: Tolerance = Tolerance()) -> CheckResult:
    """Boundary add-on turning a reciprocal model into a Markov one.

    Meaningful on top of a passing :func:`check_reciprocity_forward`.  For
    c=LAST the identity ties the boundary gain to the first interior step
    (one form per bc, reported at index 0); for c=FIRST it requires the
    final conditioning gain to vanish, against the largest gain (reported
    at that gain's time).  Degenerate N=1 models (no interior step) pass
    trivially.  A backward model is checked as the forward model of the
    reversed sequence, with the time on its own axis.
    """
    n = model.n_last
    if n == 1:
        return CheckResult(True, 0.0, None)
    side, inv, trans, cond = _forward_stacks(model)
    if side is ConditioningSide.LAST:
        if model.bc is BoundaryCondition.BC1:
            b, rhs = n, cond[1].T @ inv[1] @ trans[1]
        else:
            b, rhs = 0, trans[1].T @ inv[1] @ cond[1]
        lhs, floors, index = inv[b] @ model.boundary_gain, (inv[b : b + 1], inv[1:2]), 0
    else:
        # c = FIRST: the chain's last step must not look back at x_0 at all,
        # against every gain (the stacks' zero rows leave the largest norm
        # as it is)
        lhs, rhs, index = cond[n], np.zeros((model.dim, model.dim)), model._plan.steps[-1][0]
        floors = (trans, cond)
    worst_ratio, _ = _identity_residuals(np.array([index]), lhs[None], rhs[None], floors)
    return CheckResult(bool(worst_ratio <= tol.residual_tol), worst_ratio, index)


# one definition for both directions; the backward names stay public
check_reciprocity_backward = check_reciprocity_forward
check_markov_backward = check_markov_forward


# per class: its seed code, its precision pattern, and the pattern of the
# class just below it in the lattice (None where there is none)
_CLASSES = {
    LawClass.MARKOV: (0, PatternSpec.tridiagonal, None),
    LawClass.RECIPROCAL: (1, PatternSpec.cyclic_tridiagonal, PatternSpec.tridiagonal),
    LawClass.CM_L_ONLY: (2, PatternSpec.cm_l, PatternSpec.cyclic_tridiagonal),
    LawClass.CM_F_ONLY: (3, PatternSpec.cm_f, PatternSpec.cyclic_tridiagonal),
    LawClass.GENERIC: (4, None, None),
}


def _rescale_to(block, target_norm):
    norm = np.linalg.norm(block)
    if norm == 0.0:
        return (target_norm / np.sqrt(len(block))) * np.eye(len(block))
    return block * (target_norm / norm)


def random_law(law_class: LawClass, n_last: int, dim: int, seed: int) -> SequenceLaw:
    """Seeded random SPD law with an exact precision sparsity class.

    Off-diagonal precision blocks on the class's support are drawn uniform in
    [-0.5, 0.5] entrywise (exact zeros elsewhere); diagonal blocks are set to
    (1 + absolute row sum) * I, making the precision strictly diagonally
    dominant hence SPD.  A class's witness blocks are those its pattern
    allows and the pattern of the class just below forbids: the corner for
    RECIPROCAL (against Markov), the non-corner boundary blocks for
    CM_L_ONLY / CM_F_ONLY (against reciprocal; those classes need
    n_last >= 3 to exist).  If every witness block has norm < 0.1, the first
    in row-major order is rescaled to norm 0.3, so the law is verifiably
    outside the class below.  Determinism depends only on
    (law_class, n_last, dim, seed).
    """
    _member(law_class, LawClass)
    n, d = operator.index(n_last), operator.index(dim)
    if n < 2:
        raise ValueError("random_law needs n_last >= 2")
    if d < 1:
        raise ValueError("random_law needs dim >= 1")
    if law_class in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY) and n < 3:
        raise ValueError(
            f"{law_class.value} laws need n_last >= 3: at n_last = 2 every "
            "conditioning pattern is already cyclic"
        )
    code, own, below = _CLASSES[law_class]
    allowed = _support_grid(own(n)) if own else np.ones((n + 1, n + 1), dtype=bool)
    support = np.triu(allowed, 1)  # the upper blocks the class allows
    rng = np.random.default_rng([code, n, d, operator.index(seed)])
    grid = np.zeros((n + 1, n + 1, d, d))  # grid[i, j] is block (i, j)
    grid[support] = rng.uniform(-0.5, 0.5, (support.sum(), d, d))  # row-major order
    if below:
        witnesses = support & ~_support_grid(below(n))
        if np.linalg.norm(grid[witnesses], axis=(1, 2)).max() < 0.1:
            i, j = np.argwhere(witnesses)[0]
            grid[i, j] = _rescale_to(grid[i, j], 0.3)
    grid += grid.transpose(1, 0, 3, 2)  # the lower blocks mirror the upper
    # absolute sum of each block, then of each row in column order: cumsum
    # adds sequentially, where a plain sum would add pairwise
    block_abs = np.abs(grid).reshape(n + 1, n + 1, d * d).sum(axis=2)
    row_abs = np.cumsum(block_abs, axis=1)[:, -1]
    diag = np.arange(n + 1)
    grid[diag, diag] = (1.0 + row_abs)[:, None, None] * np.eye(d)
    a = grid.transpose(0, 2, 1, 3).reshape((n + 1) * d, (n + 1) * d)
    return SequenceLaw.from_precision(a, d)
