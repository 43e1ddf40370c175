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
through its mirror, the forward model of the reversed sequence, and their
results are mapped back to its own times.  SG assembly and sampling
(:mod:`cmseq.simulate`) both read the recursions from the plan.

A model owns read-only float copies of its gains and noises, in read-only
mappings, and what it derives from them it computes once.  Construction
refuses a non-finite entry, checks every noise covariance in one stacked
Cholesky factorization, refuses a noise whose inverse is not finite and
keeps each factor and inverse; the parameter checks, the assembled
precision and the sampler read those.  The plan and
the precision, marked by :meth:`~cmseq.blocks.BlockMatrix._formed` if
finite, are built on first use and kept, and a backward model's mirror
shares its arrays.  Since nothing can change a model, nothing kept goes
stale, and a round trip (build, checks, precision, model covariance,
sampling) takes the same number of factorizations for every N.  Building
a model makes one call of :func:`~cmseq.blocks._condition`, the package's
one Gaussian-conditioning routine, with one ``(t, t, givens)`` triple per
step in draw order; a backward model's mirror reads the law's own
covariance at the mirrored times, so an error names the law's own row.

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

import math
import operator
from dataclasses import dataclass, field, fields
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


def _check_gain_grid(name, grid, expected_keys, d):
    if set(grid.keys()) != expected_keys:
        raise ValueError(
            f"{name} keys {sorted(grid.keys())} != expected {sorted(expected_keys)}"
        )
    for k, g in grid.items():
        if np.shape(g) != (d, d):
            raise ValueError(f"{name}[{k}] has shape {np.shape(g)}, expected {(d, d)}")
    if not np.isfinite(np.array([*grid.values()], dtype=float)).all():  # one test for the grid
        k = min(k for k, g in grid.items() if not np.isfinite(g).all())
        raise ValueError(f"{name}[{k}] has non-finite entries")


def _frozen(g):
    """A read-only float copy of ``g``; the caller's array stays writable."""
    a = np.array(g, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _CmcModel:
    """Fields and validation shared by the two time directions.

    ``_forward`` is the forward model of the same law, and ``_time(j)`` is
    this model's time for its time ``j``.  Validation reads the model on its
    own time axis, so its messages name the caller's times and sides.

    ``_noise_lower`` and ``_noise_inv`` stack, in time order, the lower
    Cholesky factor and the finite inverse of every noise covariance, from
    the one stacked factorization that validates them.
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
            (k, [(fwd.g_trans[k], k - 1), (fwd.g_cond[k], fwd.c_index)])
            for k in sorted(fwd.g_trans)
        ]
        if fwd.c is ConditioningSide.LAST:
            if fwd.bc is BoundaryCondition.BC1:
                head = [(0, []), (n, [(fwd.boundary_gain, 0)])]
            else:
                head = [(n, []), (0, [(fwd.boundary_gain, n)])]
        else:
            head = [(0, [])]
        return [(t(k), [(gain, t(src)) for gain, src in terms]) for k, terms in head + interior]

    @cached_property
    def _precision(self):
        """:func:`assemble_precision`, built on first use and kept."""
        sg = assemble_script_g(self).data
        d = self.dim
        noise_inv = np.zeros_like(sg)
        for k, inv in enumerate(self._noise_inv):
            noise_inv[k * d : (k + 1) * d, k * d : (k + 1) * d] = inv
        return BlockMatrix._formed(sg.T @ noise_inv @ sg, d)

    def __reduce__(self):
        # a mapping proxy does not pickle: rebuild from plain dicts instead
        grids = (dict(self.g_trans), dict(self.g_cond), dict(self.g_noise))
        return type(self), (self.n_last, self.dim, self.c, self.bc, *grids, self.boundary_gain)

    def __post_init__(self):
        _member(self.c, ConditioningSide)
        _member(self.bc, BoundaryCondition)
        n, d, c = self.n_last, self.dim, self.c
        if n < 1 or d < 1:
            raise ValueError("need n_last >= 1 and dim >= 1")
        # conditioned on its start time s, the chain starts at x_s = e_s and
        # step k carries the equal split; otherwise boundary_gain closes it
        s, k = self._time(0), self._time(1)
        chain = self.c_index == s
        if chain and self.bc is not BoundaryCondition.BC1:
            raise ValueError(f"c={c.name} admits only BC1 (the chain starts at x_{s} = e_{s})")
        expected = set(range(n + 1)) - {s, self.c_index}
        _check_gain_grid("g_trans", self.g_trans, expected, d)
        _check_gain_grid("g_cond", self.g_cond, expected, d)
        _check_gain_grid("g_noise", self.g_noise, set(range(n + 1)), d)
        for name in ("g_trans", "g_cond", "g_noise"):
            grid = {k: _frozen(g) for k, g in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(grid))
        # noise covariances must be SPD; the factors that show it are kept
        lower = _cholesky_stack([self.g_noise[t] for t in range(n + 1)])
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
            if not np.allclose(self.g_trans[k], self.g_cond[k]):
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
    reversed time, is built on first use and kept; it shares this model's
    read-only arrays.
    """

    direction = "backward"

    @cached_property
    def _forward(self):
        # this model is valid, so its mirror is too: skip a second validation
        mirror = object.__new__(ForwardCmcModel)
        names = [f.name for f in fields(self)]
        mirror.__dict__.update(zip(names, _mirrored(*(getattr(self, a) for a in names))))
        mirror.__dict__.update(
            _noise_lower=self._noise_lower[::-1], _noise_inv=self._noise_inv[::-1]
        )
        return mirror

    def _time(self, j):
        return self.n_last - j


def _mirrored(n, d, c, bc, g_trans, g_cond, g_noise, boundary_gain):
    """The same law's model fields in the other time direction.

    Time k becomes N-k and FIRST/LAST swap; ``bc`` and ``boundary_gain`` are
    kept.  Applying it twice gives the fields back.
    """
    grids = (
        MappingProxyType({n - k: g for k, g in grid.items()})
        for grid in (g_trans, g_cond, g_noise)
    )
    return (n, d, _OTHER_SIDE[c], bc, *grids, boundary_gain)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a parameter-condition check."""

    passed: bool
    worst_ratio: float
    worst_index: int | None


def _regressions(cov, c, bc, time=lambda j: j):
    """The forward model's fields read off the covariance ``cov``, its time
    ``j`` being time ``time(j)`` of ``cov``: a backward model's mirror reads
    the law's own covariance at the mirrored times.

    Each step, in the order the model draws them, is the triple
    ``(t, t, givens)``, and all go to one
    :func:`~cmseq.blocks._condition` call: the start step, with no givens,
    yields its plain block, and every other step its gains (the transposed
    solves) and noise (the symmetric part of the residual).
    """
    n, d = cov.n_blocks - 1, cov.block_dim
    if c is ConditioningSide.LAST:
        start, end = (0, n) if bc is BoundaryCondition.BC1 else (n, 0)
        interior = [(k, (k - 1, n)) for k in range(1, n)]
    else:
        # c = FIRST: x_0 = e_0, and the k=1 step sees x_{k-1} = x_c = x_0
        start, end = 0, 1
        interior = [(k, (k - 1, 0)) for k in range(2, n + 1)]
    steps = [(start, ()), (end, (start,)), *interior]
    gains, g_noise = [None] * len(steps), {}
    triples = [((time(t),), (time(t),), tuple(map(time, givens))) for t, givens in steps]
    for positions, solved, partial in _condition(cov, triples):
        for i, x, noise in zip(positions, solved.swapaxes(1, 2), _symmetric_part(partial)):
            gains[i], g_noise[steps[i][0]] = x, noise
    w = gains[1].copy()  # x_end on x_start alone
    if c is ConditioningSide.LAST:
        g_trans, g_cond, bg = {}, {}, w
    else:
        g_trans, g_cond, bg = {1: w / 2.0}, {1: w / 2.0}, None
    for (k, _), gain in zip(interior, gains[2:]):
        g_trans[k], g_cond[k] = gain[:, :d].copy(), gain[:, d:].copy()
    return n, d, c, bc, g_trans, g_cond, g_noise, bg


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
    regressions of the time-reversed covariance for the other side, re-keyed
    to the original times.  c=FIRST admits BC1 (x_N drawn first) and BC2;
    c=LAST starts at x_N and admits only BC1.
    """
    _member(c, ConditioningSide)
    _member(bc, BoundaryCondition)
    mirror = _regressions(law.covariance, _OTHER_SIDE[c], bc, lambda j: law.n_last - j)
    return BackwardCmcModel(*_mirrored(*mirror))


def assemble_script_g(model) -> BlockMatrix:
    """The unit-diagonal stacked-recursion matrix SG of a model.

    Row t carries -gain at column src for each term of the plan's step t,
    overlaps adding in plan order.  So forward row k carries -G_trans[k] at
    column k-1 (k+1 for a backward model) and -G_cond[k] at column c, the
    forward c=FIRST row 1 carries -2 G_trans[1] at column 0, and the
    boundary row carries -boundary_gain at the opposite endpoint.
    """
    d = model.dim
    sg = np.eye((model.n_last + 1) * d)
    for t, terms in model._generation_plan:
        for gain, src in terms:
            sg[t * d : (t + 1) * d, src * d : (src + 1) * d] -= gain
    return BlockMatrix(sg, d)


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


def _identity_residuals(pairs, floors=()):
    """Max relative gap over (lhs, rhs) identity pairs, scale-free.

    The scale is the largest norm among all sides and the matrices
    ``floors``.  Each residual ``lhs - rhs`` is an off-pattern block of the
    assembled precision, so callers floor the scale with the noise inverses,
    the precision's magnitude: identities whose sides all vanish (e.g. every
    conditioning gain is zero) then pass instead of dividing rounding noise
    by itself.  Among equal residuals the smallest index is reported.  A
    norm that is not finite (norms square, so past about 1.3e154) fails the
    check with a NaN ratio, at the first pair whose sides or residual have one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        floor = [float(np.linalg.norm(m)) for m in floors]
        norms = {
            k: [float(np.linalg.norm(m)) for m in (lhs, rhs, lhs - rhs)]
            for k, (lhs, rhs) in sorted(pairs.items())
        }
    unbounded = [k for k, ns in norms.items() if not all(map(math.isfinite, ns))]
    if unbounded or not all(map(math.isfinite, floor)):
        return float("nan"), unbounded[0] if unbounded else None
    scale = max([*floor, *(side for ns in norms.values() for side in ns[:2])], default=0.0)
    worst_ratio, worst_index = 0.0, None
    if scale == 0.0:
        return worst_ratio, worst_index
    for k, (_, _, resid) in norms.items():
        ratio = resid / scale
        if ratio > worst_ratio:
            worst_ratio, worst_index = ratio, k
    return worst_ratio, worst_index


def check_reciprocity_forward(model, tol: Tolerance = Tolerance()) -> CheckResult:
    """Interior parameter condition for the model's law to be reciprocal.

    Checks G_noise[k]^{-1} G_cond[k] = G_trans[k+1]' G_noise[k+1]^{-1} G_cond[k+1]
    over k in {1..N-2} for c=LAST and k in {2..N-1} for c=FIRST (the literal
    interior ranges; empty ranges pass vacuously).  A backward model is
    checked through its mirror; ``worst_index`` is the lower time of the
    worst pair on the model's own axis.
    """
    fwd, t = model._forward, model._time
    n = fwd.n_last
    ks = range(1, n - 1) if fwd.c is ConditioningSide.LAST else range(2, n)
    pairs = {}
    for k in ks:
        lhs = fwd._noise_inv[k] @ fwd.g_cond[k]
        rhs = fwd.g_trans[k + 1].T @ fwd._noise_inv[k + 1] @ fwd.g_cond[k + 1]
        pairs[min(t(k), t(k + 1))] = (lhs, rhs)
    floors = [fwd._noise_inv[j] for k in ks for j in (k, k + 1)]
    worst_ratio, worst_index = _identity_residuals(pairs, floors)
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
    if fwd.c is ConditioningSide.LAST:
        inv_1 = fwd._noise_inv[1]
        if fwd.bc is BoundaryCondition.BC1:
            inv_b = fwd._noise_inv[n]
            rhs = fwd.g_cond[1].T @ inv_1 @ fwd.g_trans[1]
        else:
            inv_b = fwd._noise_inv[0]
            rhs = fwd.g_trans[1].T @ inv_1 @ fwd.g_cond[1]
        pair, floors, index = (inv_b @ fwd.boundary_gain, rhs), (inv_b, inv_1), 0
    else:
        # c = FIRST: the last step must not look back at x_0 at all
        pair, floors = (fwd.g_cond[n], 0.0), [*fwd.g_trans.values(), *fwd.g_cond.values()]
        index = model._time(n)
    worst_ratio, _ = _identity_residuals({index: pair}, floors)
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
