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
So the regressions, the parameter identities and the generation plan are
written once, for the forward direction.  A backward model reaches them
through its mirror, the forward model of the reversed sequence: the same
stacks reversed, with the sides swapped.  The sampler
(:mod:`cmseq.simulate`) reads the recursions from the plan.

A model keeps its gains and noises as read-only ``(N+1, d, d)`` float
stacks in time order, zero at a time with no gain, made in one conversion
of the caller's grids; its public grids are read-only mappings of
read-only views of those stacks.  Every operation is a few stacked numpy
calls whatever N: a build scatters each group of regressions straight into
the stacks, both parameter checks are batched products with every norm
taken in one stacked pass, and SG and the block diagonal of noise inverses
are block scatters, SG's in the plan's order.  What a model derives it
computes once.  Construction refuses a non-finite entry, checks every
noise covariance in one stacked Cholesky factorization, refuses a noise
whose inverse is not finite and keeps each factor and inverse; the
parameter checks, the assembled precision and the sampler read those.  The
plan and the precision, marked by
:meth:`~cmseq.blocks.BlockMatrix._formed` if finite, are built on first
use and kept, and a backward model's mirror shares its arrays.  Since
nothing can change a model, nothing kept goes stale, and a round trip
(build, checks, precision, model covariance, sampling) takes the same
number of factorizations for every N.  Building a model makes one call of
:func:`~cmseq.blocks._condition`, the package's one Gaussian-conditioning
routine, with one ``(t, t, givens)`` triple per step in draw order; a
backward model's mirror reads the law's own covariance at the mirrored
times, so an error names the law's own row.

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
from functools import cached_property
from types import MappingProxyType

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


def _gain_times(n, start, c_index):
    """The range of a model's gain times: every time of ``0..n`` but the
    start of its chain and its conditioning time, which are endpoints.  A
    forward model (start 0) draws them in this order."""
    ends = (start, c_index)
    return range(1 if 0 in ends else 0, n if n in ends else n + 1)


@dataclass(frozen=True)
class _CmcModel:
    """Fields and validation shared by the two time directions.

    ``_forward`` is the forward model of the same law, and ``_time(j)`` is
    this model's time for its time ``j``.  Validation reads the model on its
    own time axis, so its messages name the caller's times and sides.

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

    @property
    def _forward(self):
        return self

    def _time(self, j):
        return j

    @cached_property
    def _generation_plan(self):
        """Ordered steps (time, [(gain, source_time), ...]) realizing the model.

        The first entries are the boundary recursion in its documented draw
        order; the remaining entries walk the chain.  Consuming one noise
        vector per entry, in order, reproduces the model's law exactly, and
        each entry is one row of SG.  A backward model's plan is its mirror's
        with every time t mapped to N-t.  Built on first use and kept; callers
        only read it.
        """
        fwd, t = self._forward, self._time
        n = fwd.n_last
        interior = [
            (k, [(fwd._trans[k], k - 1), (fwd._cond[k], fwd.c_index)])
            for k in _gain_times(n, 0, fwd.c_index)
        ]
        if fwd.c is ConditioningSide.LAST:
            if fwd.bc is BoundaryCondition.BC1:
                head = [(0, []), (n, [(fwd.boundary_gain, 0)])]
            else:
                head = [(n, []), (0, [(fwd.boundary_gain, n)])]
        else:
            head = [(0, [])]
        return [(t(k), [(gain, t(src)) for gain, src in terms]) for k, terms in head + interior]

    def _script_g(self):
        """SG as a fresh ndarray, on the model's own axis: every term of the
        plan subtracted from an identity, by block scatters in plan order
        (the boundary gain, then every transition gain, then every
        conditioning gain), so the forward c=FIRST row 1 keeps
        ``0 - G_trans[1] - G_cond[1]``.  Row t's transition gain sits in the
        column its mirror's step looks back at: t-1 forward, t+1 backward."""
        n, d, t = self.n_last, self.dim, self._time
        sg = np.eye((n + 1) * d)
        grid = sg.reshape(n + 1, d, n + 1, d).swapaxes(1, 2)  # grid[i, j] is block (i, j)
        if self.boundary_gain is not None:
            start, end = (0, n) if self.bc is BoundaryCondition.BC1 else (n, 0)
            grid[t(end), t(start)] -= self.boundary_gain
        gains = _gain_times(n, t(0), self.c_index)
        at, rows = slice(gains.start, gains.stop), np.arange(gains.start, gains.stop)
        grid[rows, t(t(rows) - 1)] -= self._trans[at]
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
        n, d, c = operator.index(self.n_last), operator.index(self.dim), self.c
        object.__setattr__(self, "n_last", n)
        object.__setattr__(self, "dim", d)
        if n < 1 or d < 1:
            raise ValueError("need n_last >= 1 and dim >= 1")
        # conditioned on its start time s, the chain starts at x_s = e_s and
        # step k carries the equal split; otherwise boundary_gain closes it
        s, k, c_index = self._time(0), self._time(1), self.c_index
        chain = c_index == s
        if chain and self.bc is not BoundaryCondition.BC1:
            raise ValueError(f"c={c.name} admits only BC1 (the chain starts at x_{s} = e_{s})")
        gains = _gain_times(n, s, c_index)
        keys = (gains, gains, range(n + 1))
        stacks = _stacks([getattr(self, name) for name in _GRIDS], keys, n, d)
        for name, stack, ks in zip(_GRIDS, stacks, keys):
            views = dict(zip(ks, stack[ks.start : ks.stop]))
            object.__setattr__(self, name[1:], stack)  # _trans, _cond, _noise
            object.__setattr__(self, name, MappingProxyType(views))
        # noise covariances must be SPD; the factors that show it are kept
        lower = _cholesky_stack(self._noise)
        inv = _inverse_from_factor(lower)
        if not np.isfinite(inv).all():  # one test for the stack
            t = min(t for t in range(n + 1) if not np.isfinite(inv[t]).all())
            raise ValueError(f"g_noise[{t}] has no finite inverse")
        lower.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "_noise_lower", lower)
        object.__setattr__(self, "_noise_inv", inv)
        if not chain:
            if self.boundary_gain is None or np.shape(self.boundary_gain) != (d, d):
                raise ValueError(f"c={c.name} requires a d x d boundary_gain")
            object.__setattr__(self, "boundary_gain", _frozen(self.boundary_gain))
            if not np.isfinite(self.boundary_gain).all():
                raise ValueError("boundary_gain has non-finite entries")
        else:
            if self.boundary_gain is not None:
                raise ValueError(f"boundary_gain is only meaningful for c={_OTHER_SIDE[c].name}")
            if not np.allclose(self._trans[k], self._cond[k]):
                raise ValueError(
                    f"c={c.name} requires the equal split G_trans[{k}] == G_cond[{k}]"
                )


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
    step splits its weight equally.  Its mirror, that forward model in the
    reversed time, is built on first use and kept: this model's stacks
    reversed, with the sides swapped.  It shares this model's read-only
    arrays, and its mappings hold this model's very views.
    """

    direction = "backward"

    @cached_property
    def _forward(self):
        # this model is valid, so its mirror is too: skip a second validation
        mirror = object.__new__(ForwardCmcModel)
        n = self.n_last
        mirror.__dict__.update(
            {name: getattr(self, name) for name in ("n_last", "dim", "bc", "boundary_gain")},
            c=_OTHER_SIDE[self.c],
            **{
                name: getattr(self, name)[::-1]
                for name in ("_trans", "_cond", "_noise", "_noise_lower", "_noise_inv")
            },
            **{
                name: MappingProxyType({n - t: g for t, g in getattr(self, name).items()})
                for name in ("g_trans", "g_cond", "g_noise")
            },
        )
        return mirror

    def _time(self, j):
        return self.n_last - j


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a parameter-condition check."""

    passed: bool
    worst_ratio: float
    worst_index: int | None


def _regressions(cov, c, bc, backward=False):
    """The constructor arguments of the model of side ``c`` read off the
    covariance ``cov``: of its forward model, or with ``backward`` of its
    backward model.

    The regressions are those of a forward model.  A backward model's are
    its mirror's, for the other side on the reversed sequence, which read
    ``cov`` at the mirrored times, so an error names the law's own row; the
    stacks are then reversed back.  Each step, in the order the model draws
    them, is the triple ``(t, t, givens)``, and all go to one
    :func:`~cmseq.blocks._condition` call: the start step, with no givens,
    yields its plain block, and every other step its gains (the transposed
    solves) and noise (the symmetric part of the residual), each group
    scattered straight into the stacks.
    """
    n, d = cov.n_blocks - 1, cov.block_dim
    side = _OTHER_SIDE[c] if backward else c
    c_index = n if side is ConditioningSide.LAST else 0
    gains = _gain_times(n, 0, c_index)
    if side is ConditioningSide.LAST:
        start, end = (0, n) if bc is BoundaryCondition.BC1 else (n, 0)
        interior = gains
    else:
        # c = FIRST: x_0 = e_0, and the k=1 step sees x_{k-1} = x_c = x_0
        start, end = 0, 1
        interior = gains[1:]
    steps = [(start, ()), (end, (start,)), *((k, (k - 1, c_index)) for k in interior)]
    if backward:  # the mirror's time j is the law's time N - j
        steps = [(n - t, tuple(n - g for g in givens)) for t, givens in steps]
    triples = [((t,), (t,), givens) for t, givens in steps]
    # the rows of each group, by its number of givens
    rows = (slice(start, start + 1), slice(end, end + 1), slice(interior.start, interior.stop))
    trans, cond, noise = np.zeros((3, n + 1, d, d))
    for _, solved, partial in _condition(cov, triples):
        at = rows[solved.shape[1] // d]
        noise[at] = partial
        if at is rows[1]:  # x_end on x_start alone
            end_gain = solved[0].T
        elif at is rows[2]:  # x_k on (x_{k-1}, x_c)
            trans[at], cond[at] = solved[:, :d].swapaxes(1, 2), solved[:, d:].swapaxes(1, 2)
    if side is ConditioningSide.LAST:
        bg = end_gain
    else:
        bg, trans[1], cond[1] = None, end_gain / 2.0, end_gain / 2.0
    noise = _symmetric_part(noise)
    if backward:  # on the model's own axis, where its chain starts at N
        trans, cond, noise = trans[::-1], cond[::-1], noise[::-1]
        gains = _gain_times(n, n, 0 if c is ConditioningSide.FIRST else n)
    grids = (dict(zip(gains, stack[gains.start : gains.stop])) for stack in (trans, cond))
    return n, d, c, bc, *grids, dict(enumerate(noise)), bg


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
    return ForwardCmcModel(*_regressions(law.covariance, c, bc))


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
    return BackwardCmcModel(*_regressions(law.covariance, c, bc, backward=True))


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


def check_reciprocity_forward(model, tol: Tolerance = Tolerance()) -> CheckResult:
    """Interior parameter condition for the model's law to be reciprocal.

    Checks G_noise[k]^{-1} G_cond[k] = G_trans[k+1]' G_noise[k+1]^{-1} G_cond[k+1]
    over k in {1..N-2} for c=LAST and k in {2..N-1} for c=FIRST (the literal
    interior ranges; empty ranges pass vacuously), as batched products over
    the stacks.  A backward model is checked through its mirror;
    ``worst_index`` is the lower time of the worst pair on the model's own
    axis.
    """
    fwd = model._forward
    n = fwd.n_last
    lo, hi = (1, n - 1) if fwd.c is ConditioningSide.LAST else (2, n)
    at, after = slice(lo, hi), slice(lo + 1, hi + 1)  # the pairs (k, k+1), k in lo..hi-1
    inv, trans, cond = fwd._noise_inv, fwd._trans, fwd._cond
    lhs = inv[at] @ cond[at]
    rhs = trans[after].swapaxes(1, 2) @ inv[after] @ cond[after]
    index = np.arange(lo, hi)
    if fwd is not model:  # pair k's lower time is N-k-1: ascending, reversed
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
    trivially.  A backward model is checked through its mirror, with the
    time on its own axis.
    """
    fwd = model._forward
    n = fwd.n_last
    if n == 1:
        return CheckResult(True, 0.0, None)
    inv, trans, cond = fwd._noise_inv, fwd._trans, fwd._cond
    if fwd.c is ConditioningSide.LAST:
        if fwd.bc is BoundaryCondition.BC1:
            b, rhs = n, cond[1].T @ inv[1] @ trans[1]
        else:
            b, rhs = 0, trans[1].T @ inv[1] @ cond[1]
        lhs, floors, index = inv[b] @ fwd.boundary_gain, (inv[b : b + 1], inv[1:2]), 0
    else:
        # c = FIRST: the last step must not look back at x_0 at all, against
        # every gain (the stacks' zero rows leave the largest norm as it is)
        lhs, rhs, index = cond[n], np.zeros((fwd.dim, fwd.dim)), model._time(n)
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
