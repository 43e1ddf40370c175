"""White-noise-driven dynamic models: extraction, assembly, parameter checks."""

import pickle
import re
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmseq import (
    BackwardCmcModel,
    BoundaryCondition,
    CheckResult,
    ConditioningSide,
    ForwardCmcModel,
    LawClass,
    NotPositiveDefiniteError,
    PatternSpec,
    SequenceLaw,
    Tolerance,
    allowed_support,
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
    classify_markov,
    classify_reciprocal,
    detect,
    full_report,
    model_covariance,
    random_law,
)
from cmseq import blocks, models
from cmseq.blocks import _cho_solve, cholesky_spd, invert_spd
from cmseq.serialize import save_model
from cmseq.simulate import sample_backward, sample_forward
from cmseq.fixtures import ar1_law, cml_example_law, cyclic_example_law, identity_law
from cmseq.models import _identity_residuals

FIRST = ConditioningSide.FIRST
LAST = ConditioningSide.LAST
BC1 = BoundaryCondition.BC1
BC2 = BoundaryCondition.BC2

FORWARD_COMBOS = [(LAST, BC1), (LAST, BC2), (FIRST, BC1)]
BACKWARD_COMBOS = [(FIRST, BC1), (FIRST, BC2), (LAST, BC1)]


def rel_residual(law, model):
    c = law.covariance.data
    return np.linalg.norm(model_covariance(model).covariance.data - c) / np.linalg.norm(c)


# --- the worked two-step example -------------------------------------------
# AR(1) with a = 0.5 on times {0, 1, 2}: conditioning the middle point on
# both ends gives weights 0.4/0.4 with residual variance 0.6, and the
# BC1 boundary pair is (1, 0.25, 0.9375).  All derivable with pencil and
# paper from the 3x3 covariance [[1, .5, .25], [.5, 1, .5], [.25, .5, 1]].


def test_two_step_conversion_known_gains():
    model = build_forward(ar1_law(2), LAST, BC1)
    assert model.n_last == 2 and model.dim == 1
    np.testing.assert_allclose(model.g_trans[1], [[0.4]], atol=1e-12)
    np.testing.assert_allclose(model.g_cond[1], [[0.4]], atol=1e-12)
    np.testing.assert_allclose(model.g_noise[1], [[0.6]], atol=1e-12)
    np.testing.assert_allclose(model.boundary_gain, [[0.25]], atol=1e-12)
    np.testing.assert_allclose(model.g_noise[0], [[1.0]], atol=1e-12)
    np.testing.assert_allclose(model.g_noise[2], [[0.9375]], atol=1e-12)


def test_two_step_stacked_recursion_matrix():
    model = build_forward(ar1_law(2), LAST, BC1)
    sg = assemble_script_g(model)
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.4, 1.0, -0.4],
            [-0.25, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(sg.data, expected, atol=1e-12)


def test_two_step_assembled_precision_reproduces_law():
    law = ar1_law(2)
    model = build_forward(law, LAST, BC1)
    np.testing.assert_allclose(
        assemble_precision(model).data, law.precision().data, atol=1e-12
    )


def test_conditioning_on_first_time_splits_weight_equally():
    # regressing x_1 on x_0 gives weight 0.5; the model stores it as two
    # equal halves so the stacked matrix carries -2 * 0.25 in the (1, 0) slot
    law = ar1_law(2)
    model = build_forward(law, FIRST, BC1)
    np.testing.assert_allclose(model.g_trans[1], [[0.25]], atol=1e-12)
    np.testing.assert_allclose(model.g_cond[1], [[0.25]], atol=1e-12)
    np.testing.assert_allclose(model.g_noise[1], [[0.75]], atol=1e-12)
    # x_2 on (x_1, x_0): the chain is Markov so x_0 gets zero weight
    np.testing.assert_allclose(model.g_trans[2], [[0.5]], atol=1e-12)
    np.testing.assert_allclose(model.g_cond[2], [[0.0]], atol=1e-12)
    np.testing.assert_allclose(model.g_noise[2], [[0.75]], atol=1e-12)
    sg = assemble_script_g(model)
    assert sg.data[1, 0] == pytest.approx(-0.5, abs=1e-12)
    assert model.boundary_gain is None


def test_backward_conditioning_on_last_time_mirrors_the_split():
    law = ar1_law(2)
    model = build_backward(law, LAST, BC1)
    np.testing.assert_allclose(model.g_trans[1], [[0.25]], atol=1e-12)
    np.testing.assert_allclose(model.g_cond[1], [[0.25]], atol=1e-12)
    sg = assemble_script_g_backward(model)
    assert sg.data[1, 2] == pytest.approx(-0.5, abs=1e-12)


def spelled_out_script_g(model):
    """SG by the row rule, written out for each direction and boundary."""
    n, d = model.n_last, model.dim
    sg = np.eye((n + 1) * d)

    def place(row, col, gain):
        sg[row * d : (row + 1) * d, col * d : (col + 1) * d] -= gain

    # forward rows look back at k-1, backward rows ahead at k+1
    step = -1 if model.direction == "forward" else 1
    for k in sorted(model.g_trans):
        place(k, k + step, model.g_trans[k])
        place(k, model.c_index, model.g_cond[k])
    if model.boundary_gain is not None:
        # the endpoint the boundary recursion draws first
        first = {
            ("forward", BC1): 0,
            ("forward", BC2): n,
            ("backward", BC1): n,
            ("backward", BC2): 0,
        }[model.direction, model.bc]
        place(n - first, first, model.boundary_gain)
    return sg


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "build,c,bc",
    [(build_forward, c, bc) for c, bc in FORWARD_COMBOS]
    + [(build_backward, c, bc) for c, bc in BACKWARD_COMBOS],
)
def test_script_g_follows_the_row_rule_for_every_shape(build, c, bc, n, d):
    model = build(random_law(LawClass.GENERIC, n, d, seed=n + d), c, bc)
    expected = spelled_out_script_g(model)
    assert assemble_script_g(model).data.tobytes() == expected.tobytes()


def direct_regression(cov, d, target, given):
    """x_target regressed on the listed times of ``cov``, spelled out here so
    that the backward definitions are pinned on the original time axis."""
    ig = np.concatenate([np.arange(t * d, (t + 1) * d) for t in given])
    it = np.arange(target * d, (target + 1) * d)
    cross = cov[np.ix_(it, ig)]
    gains = _cho_solve(cholesky_spd(cov[np.ix_(ig, ig)]), cross.T).T
    noise = cov[np.ix_(it, it)] - gains @ cross.T
    return [gains[:, i * d : (i + 1) * d] for i in range(len(given))], (noise + noise.T) / 2.0


@pytest.mark.parametrize("c,bc", BACKWARD_COMBOS)
def test_backward_model_is_the_regression_on_the_next_time(c, bc):
    """Each interior step regresses x_k on (x_{k+1}, x_c) of the original
    covariance, bit for bit; where x_{k+1} is x_c (c=LAST, k=N-1) the single
    weight is split equally.  The boundary pair and its noises follow the
    documented draw order."""
    n, d = 5, 2
    law = random_law(LawClass.GENERIC, n, d, seed=3)
    cov = law.covariance.data
    model = build_backward(law, c, bc)
    ci = model.c_index
    assert sorted(model.g_trans) == sorted(set(range(n)) - {ci})
    for k in model.g_trans:
        if k + 1 == ci:
            (w,), noise = direct_regression(cov, d, k, [ci])
            gt = gc = w / 2.0
        else:
            (gt, gc), noise = direct_regression(cov, d, k, [k + 1, ci])
        assert model.g_trans[k].tobytes() == np.ascontiguousarray(gt).tobytes()
        assert model.g_cond[k].tobytes() == np.ascontiguousarray(gc).tobytes()
        assert model.g_noise[k].tobytes() == noise.tobytes()
    first, last = (n, 0) if bc is BC1 else (0, n)  # c=FIRST: BC1 draws x_N first
    if c is LAST:
        assert model.boundary_gain is None
        np.testing.assert_array_equal(model.g_noise[n], cov[n * d :, n * d :])
    else:
        (bg,), noise = direct_regression(cov, d, last, [first])
        assert model.boundary_gain.tobytes() == np.ascontiguousarray(bg).tobytes()
        assert model.g_noise[last].tobytes() == noise.tobytes()
        np.testing.assert_array_equal(
            model.g_noise[first], cov[first * d : (first + 1) * d, first * d : (first + 1) * d]
        )


@pytest.mark.parametrize("c,bc", BACKWARD_COMBOS)
def test_backward_checks_report_indices_on_their_own_axis(c, bc):
    """Reciprocity's worst_index is the k of the worst identity
    G_noise[k+1]^-1 G_cond[k+1] = G_trans[k]' G_noise[k]^-1 G_cond[k],
    computed here on the model's own times."""
    law = random_law(LawClass.GENERIC, 6, 2, seed=4)
    model = build_backward(law, c, bc)
    ks = range(1, 5) if c is FIRST else range(0, 4)
    inv = {k: np.linalg.inv(g) for k, g in model.g_noise.items()}
    resid = [
        np.linalg.norm(
            inv[k + 1] @ model.g_cond[k + 1] - model.g_trans[k].T @ inv[k] @ model.g_cond[k]
        )
        for k in ks
    ]
    result = check_reciprocity_backward(model)
    assert not result.passed
    assert result.worst_index == ks[int(np.argmax(resid))]
    assert sorted(resid)[-1] > 1.01 * sorted(resid)[-2]  # the argmax is not a near tie
    # the Markov add-on sits at x_0 either way: the boundary pair (c=FIRST)
    # or the step that must not look ahead to x_N (c=LAST)
    assert check_markov_backward(model).worst_index == 0


def test_identity_residual_ties_go_to_the_smallest_index():
    # the identities come in ascending order of their times: a backward
    # model's check reverses its mirror's order
    lhs, rhs = np.stack([np.eye(2)] * 3), np.zeros((3, 2, 2))
    assert _identity_residuals(np.array([1, 2, 3]), lhs, rhs) == (1.0, 1)


def with_entry(model, name, key, value):
    """``model``'s constructor called with its own fields, entry ``key`` of
    grid ``name`` (or, for a ``None`` key, the field itself) replaced."""
    fields = {n: getattr(model, n) for n in ("g_trans", "g_cond", "g_noise", "boundary_gain")}
    fields = {n: dict(f) if n != "boundary_gain" else f for n, f in fields.items()}
    if key is None:
        fields[name] = value
    else:
        fields[name][key] = value
    return type(model)(model.n_last, model.dim, model.c, model.bc, **fields)


@pytest.mark.parametrize(
    "name,key,value",
    [("g_cond", 2, np.nan), ("g_trans", 1, np.inf), ("g_trans", 3, -np.inf),
     ("boundary_gain", None, np.nan), ("g_noise", 3, np.nan)],
)
def test_a_non_finite_field_is_refused_by_name_and_time(name, key, value):
    """A NaN or infinite gain once passed both parameter checks (g_cond[2]
    = NaN: reciprocity passed at 0.0) and was sampled into NaN draws.  A
    noise is refused by the same check, before the Cholesky gate."""
    model = build_forward(random_law(LawClass.RECIPROCAL, 4, 1, 0), LAST, BC1)
    label = name if key is None else f"{name}[{key}]"
    with pytest.raises(ValueError, match=rf"^{re.escape(label)} has non-finite entries$"):
        with_entry(model, name, key, [[value]])


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_a_noise_without_a_finite_inverse_is_refused_by_name_and_time(direction):
    """A noise of 1e-310 passes the Cholesky gate (its pivot is above
    1e-12 of its own diagonal) but its kept inverse is inf: the model once
    read ``worst_ratio=nan`` from the Markov check and assembled an inf/NaN
    precision with a warning."""
    cls, c = (ForwardCmcModel, LAST) if direction == "forward" else (BackwardCmcModel, FIRST)
    gains = {1: [[0.1]]}
    noise = {0: [[1.0]], 1: [[1e-310]], 2: [[1.0]]}
    with pytest.raises(ValueError, match=r"^g_noise\[1\] has no finite inverse$"):
        cls(2, 1, c, BC1, gains, gains, noise, [[0.2]])


@pytest.mark.parametrize(
    "law_class,c,check,honest,index",
    [
        (LawClass.CM_L_ONLY, LAST, check_reciprocity_forward, (False, 0.219, 3), 2),
        (LawClass.CM_F_ONLY, FIRST, check_markov_forward, (False, 0.536, 5), 5),
    ],
)
def test_an_identity_whose_norms_overflow_fails(law_class, c, check, honest, index):
    """A gain of 1e155 has no finite norm (norms square): its identity once
    read inf/inf as NaN and skipped it, or divided by an infinite scale,
    and passed at 0.0.  It now fails with a NaN ratio at the first pair
    whose sides or residual have no finite norm."""
    model = build_forward(random_law(law_class, 5, 1, 0), c, BC1)
    result = check(model)
    assert (result.passed, round(result.worst_ratio, 3), result.worst_index) == honest
    result = check(with_entry(model, "g_trans", 3, [[1e155]]))
    assert result.passed is False and np.isnan(result.worst_ratio)
    assert result.worst_index == index


def test_a_backward_check_reports_the_lowest_of_its_equally_bad_times():
    """A backward model's identities come in its mirror's order, which is
    the descending order of its own times: its check still reports the
    lowest own time among equally bad identities, here two NaN ones."""
    model = build_backward(random_law(LawClass.GENERIC, 6, 1, 0), FIRST, BC1)
    huge = with_entry(with_entry(model, "g_trans", 3, [[1e155]]), "g_trans", 1, [[1e155]])
    result = check_reciprocity_backward(huge)
    assert result.passed is False and np.isnan(result.worst_ratio)
    assert result.worst_index == 1


def test_identity_residuals_fail_on_an_overflowing_floor_or_residual():
    big = np.array([[1e154]])
    # each side's norm is finite, but the residual's square overflows
    ratio, index = _identity_residuals(
        np.array([1, 2]), np.stack([np.eye(1), big]), np.stack([np.eye(1), -big])
    )
    assert np.isnan(ratio) and index == 2
    one_pair = np.array([1]), np.eye(1)[None], np.eye(1)[None]
    ratio, index = _identity_residuals(*one_pair, [10 * big[None]])
    assert np.isnan(ratio) and index is None


# --- round trips ------------------------------------------------------------


@pytest.mark.parametrize("c,bc", FORWARD_COMBOS)
def test_forward_round_trip_markov_law(c, bc):
    law = random_law(LawClass.MARKOV, 5, 2, seed=11)
    assert rel_residual(law, build_forward(law, c, bc)) < 1e-10


@pytest.mark.parametrize("c,bc", BACKWARD_COMBOS)
def test_backward_round_trip_markov_law(c, bc):
    law = random_law(LawClass.MARKOV, 5, 2, seed=11)
    assert rel_residual(law, build_backward(law, c, bc)) < 1e-10


@pytest.mark.parametrize("c,bc", FORWARD_COMBOS)
def test_forward_round_trip_reciprocal_law(c, bc):
    law = random_law(LawClass.RECIPROCAL, 4, 1, seed=3)
    assert rel_residual(law, build_forward(law, c, bc)) < 1e-10


def test_one_sided_laws_round_trip_only_on_their_side():
    cml = random_law(LawClass.CM_L_ONLY, 4, 1, seed=5)
    cmf = random_law(LawClass.CM_F_ONLY, 4, 1, seed=5)
    # conditioning on the matching endpoint reproduces the law ...
    assert rel_residual(cml, build_forward(cml, LAST, BC1)) < 1e-10
    assert rel_residual(cml, build_forward(cml, LAST, BC2)) < 1e-10
    assert rel_residual(cml, build_backward(cml, LAST, BC1)) < 1e-10
    assert rel_residual(cmf, build_forward(cmf, FIRST, BC1)) < 1e-10
    assert rel_residual(cmf, build_backward(cmf, FIRST, BC1)) < 1e-10
    assert rel_residual(cmf, build_backward(cmf, FIRST, BC2)) < 1e-10
    # ... and on the wrong endpoint it does not
    assert rel_residual(cml, build_forward(cml, FIRST, BC1)) > 1e-3
    assert rel_residual(cmf, build_forward(cmf, LAST, BC1)) > 1e-3


def test_generic_law_is_not_reproduced_by_any_model():
    """The models parameterize exactly the one-endpoint-conditioned classes;
    a full-precision law lies outside all of them, so every extraction is a
    genuine projection."""
    law = random_law(LawClass.GENERIC, 4, 1, seed=0)
    for c, bc in FORWARD_COMBOS:
        assert rel_residual(law, build_forward(law, c, bc)) > 1e-2
    for c, bc in BACKWARD_COMBOS:
        assert rel_residual(law, build_backward(law, c, bc)) > 1e-2


def test_model_of_projection_is_self_consistent():
    # one more turn of the crank is the identity: the projected law is
    # inside the model class, so re-extracting reproduces it
    law = random_law(LawClass.GENERIC, 4, 1, seed=1)
    proj = model_covariance(build_forward(law, LAST, BC1))
    again = model_covariance(build_forward(proj, LAST, BC1))
    np.testing.assert_allclose(
        again.covariance.data, proj.covariance.data, atol=1e-10
    )


@pytest.mark.parametrize(
    "law_class",
    [LawClass.MARKOV, LawClass.RECIPROCAL, LawClass.CM_L_ONLY, LawClass.GENERIC],
)
def test_boundary_recursions_assemble_the_same_precision(law_class):
    """BC1 and BC2 order the boundary pair differently but encode the same
    joint law — for every input, matched or not."""
    law = random_law(law_class, 4, 1, seed=7)
    f1 = assemble_precision(build_forward(law, LAST, BC1)).data
    f2 = assemble_precision(build_forward(law, LAST, BC2)).data
    assert np.linalg.norm(f1 - f2) / np.linalg.norm(f1) < 1e-12
    b1 = assemble_precision_backward(build_backward(law, FIRST, BC1)).data
    b2 = assemble_precision_backward(build_backward(law, FIRST, BC2)).data
    assert np.linalg.norm(b1 - b2) / np.linalg.norm(b1) < 1e-12


def test_invalid_boundary_combinations_rejected():
    law = ar1_law(3)
    with pytest.raises(ValueError):
        build_forward(law, FIRST, BC2)
    with pytest.raises(ValueError):
        build_backward(law, LAST, BC2)


# --- parameter checks -------------------------------------------------------


def test_checks_on_markov_model():
    model = build_forward(ar1_law(4), LAST, BC1)
    assert check_reciprocity_forward(model).passed
    assert check_markov_forward(model).passed


def test_checks_on_cyclic_model():
    law = cyclic_example_law()
    model = build_forward(law, LAST, BC1)
    recip = check_reciprocity_forward(model)
    markov = check_markov_forward(model)
    assert recip.passed
    assert not markov.passed
    assert markov.worst_ratio > 1e-3


def test_checks_on_one_sided_model():
    law = cml_example_law()
    model = build_forward(law, LAST, BC1)
    recip = check_reciprocity_forward(model)
    assert not recip.passed
    assert recip.worst_index is not None


def test_backward_checks_mirror_forward():
    law = cyclic_example_law()
    model = build_backward(law, FIRST, BC1)
    assert check_reciprocity_backward(model).passed
    assert not check_markov_backward(model).passed
    markov_model = build_backward(ar1_law(4), FIRST, BC2)
    assert check_reciprocity_backward(markov_model).passed
    assert check_markov_backward(markov_model).passed


@pytest.mark.parametrize("law_class", list(LawClass))
@pytest.mark.parametrize("c,bc", FORWARD_COMBOS)
def test_parameter_conditions_equal_pattern_of_assembled_precision(law_class, c, bc):
    """The interior identities plus boundary add-on hold exactly when the
    assembled precision is cyclic (respectively tridiagonal) — the parameter
    conditions and the pattern view are two faces of the same thing."""
    law = random_law(law_class, 4, 1, seed=13)
    model = build_forward(law, c, bc)
    a = assemble_precision(model)
    recip_param = check_reciprocity_forward(model).passed
    recip_pattern = detect(a, PatternSpec.cyclic_tridiagonal(4)).conforms
    assert recip_param == recip_pattern
    markov_param = recip_param and check_markov_forward(model).passed
    markov_pattern = detect(a, PatternSpec.tridiagonal(4)).conforms
    assert markov_param == markov_pattern


@pytest.mark.parametrize("law_class", list(LawClass))
@pytest.mark.parametrize("c,bc", BACKWARD_COMBOS)
def test_backward_parameter_conditions_equal_pattern(law_class, c, bc):
    law = random_law(law_class, 4, 1, seed=13)
    model = build_backward(law, c, bc)
    a = assemble_precision_backward(model)
    recip_param = check_reciprocity_backward(model).passed
    assert recip_param == detect(a, PatternSpec.cyclic_tridiagonal(4)).conforms
    markov_param = recip_param and check_markov_backward(model).passed
    assert markov_param == detect(a, PatternSpec.tridiagonal(4)).conforms


def test_checks_return_plain_python_types():
    r = check_reciprocity_forward(build_forward(ar1_law(3), LAST, BC1))
    assert isinstance(r.passed, bool)
    assert isinstance(r.worst_ratio, float)


def test_degenerate_two_time_models_pass_vacuously():
    law = ar1_law(1)
    for c, bc in FORWARD_COMBOS:
        model = build_forward(law, c, bc)
        assert check_reciprocity_forward(model).passed
        assert check_markov_forward(model).passed
        assert rel_residual(law, model) < 1e-12


# --- model validation -------------------------------------------------------


def one(x):
    return np.array([[float(x)]])


def test_model_constructor_validates_gain_keys():
    with pytest.raises(ValueError, match="g_trans"):
        ForwardCmcModel(
            2, 1, LAST, BC1,
            g_trans={2: one(0.1)},  # should be keyed {1}
            g_cond={1: one(0.1)},
            g_noise={0: one(1), 1: one(1), 2: one(1)},
            boundary_gain=one(0.2),
        )


def test_model_constructor_validates_noise_spd():
    with pytest.raises(NotPositiveDefiniteError):
        ForwardCmcModel(
            2, 1, LAST, BC1,
            g_trans={1: one(0.1)},
            g_cond={1: one(0.1)},
            g_noise={0: one(1), 1: one(-1), 2: one(1)},
            boundary_gain=one(0.2),
        )


def test_model_constructor_enforces_boundary_gain_rules():
    with pytest.raises(ValueError, match="boundary_gain"):
        ForwardCmcModel(
            2, 1, LAST, BC1,
            g_trans={1: one(0.1)},
            g_cond={1: one(0.1)},
            g_noise={0: one(1), 1: one(1), 2: one(1)},
            boundary_gain=None,
        )
    with pytest.raises(ValueError, match="equal split"):
        ForwardCmcModel(
            2, 1, FIRST, BC1,
            g_trans={1: one(0.3), 2: one(0.1)},
            g_cond={1: one(0.2), 2: one(0.1)},
            g_noise={0: one(1), 1: one(1), 2: one(1)},
        )
    # a backward model is validated on its own time axis: the messages name
    # its own side and times, never those of its mirror
    noise = {0: one(1), 1: one(1), 2: one(1)}
    with pytest.raises(ValueError, match="BC1") as err:
        BackwardCmcModel(
            2, 1, LAST, BC2,
            g_trans={0: one(0.1), 1: one(0.1)},
            g_cond={0: one(0.1), 1: one(0.1)},
            g_noise=noise,
        )
    assert "c=LAST admits only BC1" in str(err.value) and "FIRST" not in str(err.value)
    with pytest.raises(ValueError, match="c=FIRST requires a d x d boundary_gain"):
        BackwardCmcModel(2, 1, FIRST, BC1, {1: one(0.1)}, {1: one(0.1)}, noise)
    with pytest.raises(ValueError, match=r"c=LAST requires the equal split G_trans\[1\]"):
        BackwardCmcModel(
            2, 1, LAST, BC1, {0: one(0.1), 1: one(0.3)}, {0: one(0.1), 1: one(0.2)}, noise
        )
    with pytest.raises(ValueError, match=r"g_trans keys \[1, 2\] != expected \[0, 1\]"):
        BackwardCmcModel(
            2, 1, LAST, BC1, {1: one(0.1), 2: one(0.1)}, {0: one(0.1), 1: one(0.1)}, noise
        )


# refusals reachable through the public API: a call of a law
# (random_law(RECIPROCAL, 4, 1, 0)), the error type and its whole message
REFUSALS = {
    "gain-shape": (
        lambda law: with_entry(build_forward(law, LAST, BC1), "g_trans", 1, np.eye(2)),
        ValueError, "g_trans[1] has shape (2, 2), expected (1, 1)",
    ),
    "nan-before-complex": (
        lambda law: ForwardCmcModel(
            2, 1, LAST, BC1, {1: [[np.nan]]}, {1: [[1j]]}, {t: one(1) for t in range(3)}, one(0.2)
        ),
        ValueError, "g_trans[1] has non-finite entries",
    ),
    "n_last-0": (
        lambda law: ForwardCmcModel(0, 1, LAST, BC1, {}, {}, {0: one(1)}, one(0.2)),
        ValueError, "need n_last >= 1 and dim >= 1",
    ),
    "chain-with-boundary-gain": (
        lambda law: with_entry(build_forward(law, FIRST, BC1), "boundary_gain", None, one(0.2)),
        ValueError, "boundary_gain is only meaningful for c=LAST",
    ),
    "model_covariance-of-a-law": (
        lambda law: model_covariance(law),
        TypeError, f"expected a forward or backward model, got {SequenceLaw!r}",
    ),
    "law-without-block_dim": (
        lambda law: SequenceLaw(np.eye(4)),
        ValueError, "block_dim is required for ndarray input",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_names_its_cause(call, error, message):
    law = random_law(LawClass.RECIPROCAL, 4, 1, 0)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(law)


# --- what a model owns and derives -----------------------------------------

SHAPES = [(build_forward, c, bc) for c, bc in FORWARD_COMBOS] + [
    (build_backward, c, bc) for c, bc in BACKWARD_COMBOS
]


def round_trip_bytes(model, tmp_path):
    """Everything a model gives its callers, as bytes."""
    sample = sample_forward if model.direction == "forward" else sample_backward
    path = tmp_path / "model.json"
    save_model(path, model)
    return [
        repr(check_reciprocity_forward(model)),
        repr(check_markov_forward(model)),
        assemble_script_g(model).data.tobytes(),
        assemble_precision(model).data.tobytes(),
        model_covariance(model).covariance.data.tobytes(),
        sample(model, 7, 3).data.tobytes(),
        path.read_bytes(),
    ]


def as_lists(model):
    """The same model, constructed from nested lists."""
    grids = [{k: g.tolist() for k, g in grid.items()} for grid in
             (model.g_trans, model.g_cond, model.g_noise)]
    bg = None if model.boundary_gain is None else model.boundary_gain.tolist()
    return type(model)(model.n_last, model.dim, model.c, model.bc, *grids, bg)


@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_a_model_built_from_lists_works_everywhere(build, c, bc, tmp_path):
    model = build(random_law(LawClass.GENERIC, 4, 2, seed=5), c, bc)
    assert round_trip_bytes(as_lists(model), tmp_path) == round_trip_bytes(model, tmp_path)


@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_a_model_owns_read_only_copies_of_its_fields(build, c, bc, tmp_path):
    """The parameter route and the cached pattern route cannot drift apart:
    no gain, noise or grid of a built model can be changed."""
    model = build(random_law(LawClass.MARKOV, 4, 1, seed=0), c, bc)
    before = round_trip_bytes(model, tmp_path)
    k = next(iter(model.g_cond))
    with pytest.raises(TypeError):
        model.g_cond[k] = model.g_cond[k] + 0.5
    with pytest.raises(ValueError, match="read-only"):
        model.g_cond[k] += 0.5
    with pytest.raises(ValueError, match="read-only"):
        model.g_noise[k][0, 0] = 2.0
    if model.boundary_gain is not None:
        with pytest.raises(ValueError, match="read-only"):
            model.boundary_gain[0, 0] = 2.0
    assert round_trip_bytes(model, tmp_path) == before
    # a backward model's mirror reads the very same read-only arrays
    fwd, n = model._forward, model.n_last
    for name in ("g_trans", "g_cond", "g_noise"):
        grid, mirrored = getattr(model, name), getattr(fwd, name)
        assert all(mirrored[model._time(t)] is g for t, g in grid.items())
        with pytest.raises(TypeError):
            mirrored[n] = np.eye(1)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_a_round_trip_is_the_same_under_numpy_1_solve(build, c, bc, n, d, tmp_path, request):
    """The stacked noise inverses and regressions read alike on numpy 1.x,
    also with as many noises as components (N + 1 == d)."""
    law = random_law(LawClass.GENERIC, n, d, seed=n)
    want = round_trip_bytes(build(law, c, bc), tmp_path)
    request.getfixturevalue("numpy1_solve")
    assert round_trip_bytes(build(law, c, bc), tmp_path) == want


def test_model_covariance_keeps_no_factor():
    """The model's precision is factored for each call and keeps no array
    but its own data."""
    model = build_forward(random_law(LawClass.GENERIC, 4, 2, seed=3), LAST, BC1)
    first = model_covariance(model).covariance.data
    prec = assemble_precision(model)
    kept = [v for v in vars(prec).values() if isinstance(v, np.ndarray)]
    assert len(kept) == 1 and kept[0] is prec.data
    assert np.array_equal(model_covariance(model).covariance.data, first)


@pytest.mark.parametrize("c", [FIRST, LAST])
def test_a_noise_past_the_largest_finite_sum_does_not_overflow(c):
    """White noise of variance 1e308: every noise is 1e308, where
    noise + noise' overflows, so the symmetric part sums the halves."""
    law = SequenceLaw(np.diag([1e308] * 3), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = build_forward(law, c, BC1)
    assert all(np.array_equal(noise, [[1e308]]) for noise in model.g_noise.values())


def test_a_model_copies_the_callers_arrays_and_leaves_them_writable():
    gains = {1: np.array([[0.5]]), 2: np.array([[0.2]])}
    noise = {t: np.eye(1) for t in range(4)}
    model = ForwardCmcModel(3, 1, LAST, BC1, gains, {1: one(0.1), 2: one(0.3)}, noise, one(0.25))
    before = assemble_precision(model).data.copy()
    gains[1][0, 0] = 9.0
    noise[2][0, 0] = 9.0
    gains[2] = np.array([[7.0]])
    assert model.g_trans[1][0, 0] == 0.5 and model.g_trans[2][0, 0] == 0.2
    assert model.g_noise[2][0, 0] == 1.0
    assert np.array_equal(assemble_precision(model).data, before)


def test_a_model_pickles(tmp_path):
    model = build_backward(random_law(LawClass.RECIPROCAL, 4, 2, seed=1), FIRST, BC2)
    again = pickle.loads(pickle.dumps(model))
    assert type(again) is BackwardCmcModel
    assert round_trip_bytes(again, tmp_path) == round_trip_bytes(model, tmp_path)


@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_a_round_trip_factorizes_a_number_of_times_independent_of_n(build, c, bc, monkeypatch):
    """LAPACK Cholesky calls over build, both checks, two assemblies, the
    model covariance and a sample do not grow with N, and after construction
    no SPD routine is handed a noise covariance."""
    d = 2
    sample = sample_forward if build is build_forward else sample_backward
    counts = {}
    for n in (3, 9):
        law = random_law(LawClass.GENERIC, n, d, seed=n)
        calls = Counter()
        cholesky = np.linalg.cholesky

        def counted(*args, **kwargs):
            calls["cholesky"] += 1
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        model = build(law, c, bc)
        shapes = []
        for module in (blocks, models):
            stack = module._cholesky_stack
            monkeypatch.setattr(
                module, "_cholesky_stack",
                lambda m, *args, stack=stack: shapes.append(np.shape(m)[1:]) or stack(m, *args),
            )
        check_reciprocity_forward(model)
        check_markov_forward(model)
        assert assemble_precision(model) is assemble_precision(model)
        model_covariance(model)
        sample(model, 5, 0)
        assert shapes and (d, d) not in shapes
        monkeypatch.undo()
        counts[n] = calls["cholesky"]
    assert counts[3] == counts[9] == 4


@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_the_checks_and_an_assembly_cost_the_same_at_every_n(build, c, bc, monkeypatch):
    """A cost regression that shows without timing: a build, both parameter
    checks and one assembly make one conditioning call and one stacked norm
    pass per check, at N = 3 as at N = 30, and no ``np.linalg.norm`` call."""
    counts = {}
    for n in (3, 30):
        law = random_law(LawClass.GENERIC, n, 2, seed=n)
        calls = Counter()
        counted = [(models, "_condition"), (models, "_frobenius_norms"), (np.linalg, "norm")]
        for owner, name in counted:
            fn = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, fn=fn, name=name, **k: calls.update([name]) or fn(*a, **k)
            )
        model = build(law, c, bc)
        check_reciprocity_forward(model)
        check_markov_forward(model)
        assemble_precision(model)
        monkeypatch.undo()
        counts[n] = calls
    assert counts[3] == counts[30] == {"_condition": 1, "_frobenius_norms": 2}


# --- the per-time reference --------------------------------------------------
# The model operations as written before the stacks: each step's regression
# copied into a dict, a backward model's re-keyed from its mirror's, and one
# product, norm and SG row per time.  The stacked operations must give their
# bits.


def reference_fields(law, direction, c, bc):
    """``(g_trans, g_cond, g_noise, boundary_gain)`` of the model of ``law``,
    each grid a dict keyed on the model's own times."""
    cov, n, d = law.covariance, law.n_last, law.dim
    side = c if direction == "forward" else {FIRST: LAST, LAST: FIRST}[c]
    time = (lambda j: j) if direction == "forward" else (lambda j: n - j)
    if side is LAST:
        start, end = (0, n) if bc is BC1 else (n, 0)
        interior = [(k, (k - 1, n)) for k in range(1, n)]
    else:
        start, end = 0, 1
        interior = [(k, (k - 1, 0)) for k in range(2, n + 1)]
    steps = [(start, ()), (end, (start,)), *interior]
    gains, g_noise = [None] * len(steps), {}
    triples = [((time(t),), (time(t),), tuple(map(time, givens))) for t, givens in steps]
    for positions, solved, partial in blocks._condition(cov, triples):
        for i, x, noise in zip(positions, solved.swapaxes(1, 2), blocks._symmetric_part(partial)):
            gains[i], g_noise[steps[i][0]] = x, noise
    w = gains[1].copy()
    if side is LAST:
        g_trans, g_cond, bg = {}, {}, w
    else:
        g_trans, g_cond, bg = {1: w / 2.0}, {1: w / 2.0}, None
    for (k, _), gain in zip(interior, gains[2:]):
        g_trans[k], g_cond[k] = gain[:, :d].copy(), gain[:, d:].copy()
    grids = (g_trans, g_cond, g_noise)
    return (*({time(k): g for k, g in grid.items()} for grid in grids), bg)


def reference_identity_residuals(pairs, floors=()):
    """Max relative gap over ``{index: (lhs, rhs)}``, one norm per matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        floor = [float(np.linalg.norm(m)) for m in floors]
        norms = {
            k: [float(np.linalg.norm(m)) for m in (lhs, rhs, lhs - rhs)]
            for k, (lhs, rhs) in sorted(pairs.items())
        }
    unbounded = [k for k, ns in norms.items() if not all(np.isfinite(ns))]
    if unbounded or not all(np.isfinite(floor)):
        return float("nan"), unbounded[0] if unbounded else None
    scale = max([*floor, *(side for ns in norms.values() for side in ns[:2])], default=0.0)
    worst_ratio, worst_index = 0.0, None
    if scale == 0.0:
        return worst_ratio, worst_index
    for k, (_, _, resid) in norms.items():
        if resid / scale > worst_ratio:
            worst_ratio, worst_index = resid / scale, k
    return worst_ratio, worst_index


def reference_checks(model, tol=Tolerance()):
    """Both parameter checks of ``model``, one identity at a time, on its
    mirror's axis, from the inverses of the model's own noises."""
    n, t = model.n_last, model._time
    inv = {k: model._noise_inv[k] for k in range(n + 1)}
    gt, gc, bg = model.g_trans, model.g_cond, model.boundary_gain
    # the mirror's gains and inverses at its time j: the model's at t(j)
    trans, cond, inv_m = (
        {j: grid[t(j)] for j in range(n + 1) if t(j) in grid} for grid in (gt, gc, inv)
    )
    side = model._forward.c
    ks = range(1, n - 1) if side is LAST else range(2, n)
    pairs = {
        min(t(k), t(k + 1)): (inv_m[k] @ cond[k], trans[k + 1].T @ inv_m[k + 1] @ cond[k + 1])
        for k in ks
    }
    ratio, index = reference_identity_residuals(pairs, [inv_m[j] for k in ks for j in (k, k + 1)])
    recip = CheckResult(bool(ratio <= tol.residual_tol), ratio, index)
    if n == 1:
        return recip, CheckResult(True, 0.0, None)
    if side is LAST:
        if model.bc is BC1:
            inv_b, rhs = inv_m[n], cond[1].T @ inv_m[1] @ trans[1]
        else:
            inv_b, rhs = inv_m[0], trans[1].T @ inv_m[1] @ cond[1]
        pair, floors, index = (inv_b @ bg, rhs), (inv_b, inv_m[1]), 0
    else:
        pair, floors, index = (cond[n], 0.0), [*trans.values(), *cond.values()], t(n)
    ratio, _ = reference_identity_residuals({index: pair}, floors)
    return recip, CheckResult(bool(ratio <= tol.residual_tol), ratio, index)


def reference_precision(model):
    """``(SG, A)`` of ``model``: SG by the generation plan, one block per
    term, and ``A = SG' G^-1 SG``."""
    n, d = model.n_last, model.dim
    sg = np.eye((n + 1) * d)
    for t, terms in model._generation_plan:
        for gain, src in terms:
            sg[t * d : (t + 1) * d, src * d : (src + 1) * d] -= gain
    noise_inv = np.zeros_like(sg)
    for k, g in enumerate(model._noise_inv):
        noise_inv[k * d : (k + 1) * d, k * d : (k + 1) * d] = g
    return sg, blocks._symmetric_part(sg.T @ noise_inv @ sg)


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    law_class=st.sampled_from(list(LawClass)),
    n=st.integers(2, 12),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e150, 1e-150]),
)
def test_the_stacked_model_gives_the_bits_of_the_per_time_reference(
    shape, law_class, n, d, seed, scale
):
    """Fields, both checks and the precision of a model built from a law,
    scaled or not, equal the per-time reference's bit for bit."""
    assume(n >= 3 or law_class not in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY))
    build, c, bc = shape
    law = random_law(law_class, n, d, seed)
    if scale != 1.0:
        law = SequenceLaw(law.covariance.data * scale, d)
    model = build(law, c, bc)
    *grids, bg = reference_fields(law, model.direction, c, bc)
    for name, want in zip(("g_trans", "g_cond", "g_noise"), grids):
        got = getattr(model, name)
        assert sorted(got) == sorted(want)
        assert all(got[k].tobytes() == np.ascontiguousarray(g).tobytes() for k, g in want.items())
    assert (bg is None) == (model.boundary_gain is None)
    assert bg is None or model.boundary_gain.tobytes() == np.ascontiguousarray(bg).tobytes()
    for got, want in zip((check_reciprocity_forward(model), check_markov_forward(model)),
                         reference_checks(model)):
        assert repr(got) == repr(want) and got.worst_ratio.hex() == want.worst_ratio.hex()
    sg, precision = reference_precision(model)
    assert assemble_script_g(model).data.tobytes() == sg.tobytes()
    assert assemble_precision(model).data.tobytes() == precision.tobytes()


@pytest.mark.parametrize("sizes", [(3.0, 1), (3, 1.0), ("3", 1), (3, "1")])
def test_a_model_refuses_sizes_that_are_not_integers(sizes):
    """``ForwardCmcModel(3, 1.0, ...)`` was once accepted; its assembly,
    model covariance and sampling then failed with an unrelated TypeError,
    and save_model wrote ``"d": 1.0``, which load_model refuses."""
    gains = {1: one(0.5), 2: one(0.2)}
    noise = {t: one(1) for t in range(4)}
    with pytest.raises(TypeError):
        ForwardCmcModel(*sizes, LAST, BC1, gains, gains, noise, one(0.25))


def test_a_model_of_numpy_integer_sizes_keeps_python_ints(tmp_path):
    """numpy integer sizes once made save_model raise "Object of type int64
    is not JSON serializable"."""
    model = build_backward(random_law(LawClass.RECIPROCAL, 4, 2, seed=1), FIRST, BC2)
    fields = [dict(getattr(model, name)) for name in ("g_trans", "g_cond", "g_noise")]
    again = BackwardCmcModel(np.int64(4), np.int32(2), FIRST, BC2, *fields, model.boundary_gain)
    assert type(again.n_last) is int and type(again.dim) is int
    assert round_trip_bytes(again, tmp_path) == round_trip_bytes(model, tmp_path)


@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_a_build_conditions_every_step_in_one_call(build, c, bc, monkeypatch):
    """The start step, the boundary step and every interior step of a model
    go to one call of the package's one Gaussian-conditioning routine."""
    calls = []
    condition = models._condition

    def counted(cov, triples):
        calls.append(len(triples))
        return condition(cov, triples)

    monkeypatch.setattr(models, "_condition", counted)
    for n in (2, 3, 6):
        build(random_law(LawClass.GENERIC, n, 2, seed=n), c, bc)
    assert calls == [3, 4, 7]  # one triple per time


def test_a_failing_pivot_of_a_build_names_the_laws_own_row():
    """x_0 = (z_0, z_0 + 1e-3 z_2 + 1e-7 z_1) and x_1 = (z_2, z_3) pass the
    law's own SPD check in time order (relative pivots 1e-6 and 1e-8), but
    x_0's second component given x_1 and x_0's first has variance 1e-14 of
    its own: the regression of x_2 on (x_1, x_0) fails at the last pivot of
    its block, the row of x_0's second component in the law.  The same holds
    with x_2 = (z_4, z_5) in place of x_1, read by the backward c=FIRST
    regression of x_1 on (x_2, x_0)."""

    def law(other):
        mixing = np.eye(8)
        mixing[1] = 0.0
        mixing[1, 0], mixing[1, other], mixing[1, 1] = 1.0, 1e-3, 1e-7
        return SequenceLaw(mixing @ mixing.T, 2)

    with pytest.raises(NotPositiveDefiniteError, match="pivot 9.992e-15 at index 1$"):
        build_forward(law(2), FIRST)
    for bc in (BC1, BC2):
        with pytest.raises(NotPositiveDefiniteError, match="pivot 9.992e-15 at index 1$"):
            build_backward(law(4), FIRST, bc)


# --- a model's law, classified on the model's own precision -----------------


def random_model(rng, cls, c, bc, n, d):
    """A model of class ``cls`` with random parameters: transition gains
    N(0, 1) entrywise, conditioning and boundary gains N(0, 0.36) entrywise
    and noises ``a a' + 0.1 I`` with ``a`` N(0, 1) entrywise."""
    start, c_index = (0 if cls is ForwardCmcModel else n), (0 if c is FIRST else n)
    times = sorted(set(range(n + 1)) - {start, c_index})
    g_trans = {k: rng.standard_normal((d, d)) for k in times}
    g_cond = {k: 0.6 * rng.standard_normal((d, d)) for k in times}
    noise_roots = rng.standard_normal((n + 1, d, d))
    g_noise = {k: a @ a.T + 0.1 * np.eye(d) for k, a in enumerate(noise_roots)}
    if c_index == start:  # the chain's first step splits its weight equally
        split = 1 if cls is ForwardCmcModel else n - 1
        g_cond[split] = g_trans[split]
        return cls(n, d, c, bc, g_trans, g_cond, g_noise)
    return cls(n, d, c, bc, g_trans, g_cond, g_noise, 0.6 * rng.standard_normal((d, d)))


def law_of(model):
    """``model_covariance(model)``, or None where it raises; it may raise
    only where the model's assembled precision fails its own pivot check."""
    try:
        return model_covariance(model)
    except NotPositiveDefiniteError:
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_spd(assemble_precision(model).data)
        return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_forward_c_last_model_law_reads_cm_l(seed):
    """120 forward c=LAST models (N 3-40, d 1-3, both boundary recursions)
    with unit-scale transition gains: each law is CM_L by construction, and
    full_report, reading the model's own precision, says so for every law
    whose precision passes its pivot check.  Read through a covariance round
    trip, 15-26 of each 120 came out not CM_L."""
    rng = np.random.default_rng(seed)
    wrong, refused = [], 0
    for _ in range(120):
        n, d = int(rng.integers(3, 41)), int(rng.integers(1, 4))
        model = random_model(rng, ForwardCmcModel, LAST, (BC1, BC2)[rng.integers(2)], n, d)
        law = law_of(model)
        if law is None:
            refused += 1
            continue
        cm_l = full_report(law).cm_l
        if not cm_l.conforms:
            wrong.append((n, d, model.bc.name, cm_l.worst_ratio))
    assert wrong == []
    assert refused < 20


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    n=st.integers(2, 12),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from([None, *LawClass]),
)
def test_a_models_law_is_in_its_own_class(shape, n, d, seed, source):
    """The law of a model of random parameters, or of one built from a
    random law, is CM_c for the model's own c, with every off-pattern block
    exactly zero; where the model's reciprocity check passes, it is
    reciprocal too."""
    build, c, bc = shape
    if source is None:
        cls = ForwardCmcModel if build is build_forward else BackwardCmcModel
        model = random_model(np.random.default_rng(seed), cls, c, bc, n, d)
    else:
        assume(n >= 3 or source not in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY))
        model = build(random_law(source, n, d, seed), c, bc)
    law = law_of(model)
    assume(law is not None)
    report = full_report(law)
    own = report.cm_l if c is LAST else report.cm_f
    assert own.conforms and own.worst_block is None
    if check_reciprocity_forward(model).passed:
        assert report.reciprocal.conforms


# --- random law generator ---------------------------------------------------


def test_random_law_is_deterministic():
    a = random_law(LawClass.RECIPROCAL, 4, 2, seed=42)
    b = random_law(LawClass.RECIPROCAL, 4, 2, seed=42)
    np.testing.assert_array_equal(a.covariance.data, b.covariance.data)
    c = random_law(LawClass.RECIPROCAL, 4, 2, seed=43)
    assert not np.array_equal(a.covariance.data, c.covariance.data)


@pytest.mark.parametrize("dim", [1, 2])
def test_random_law_classes_classify_as_requested(dim):
    for seed in range(3):
        assert classify_markov(random_law(LawClass.MARKOV, 4, dim, seed)).conforms
        r = random_law(LawClass.RECIPROCAL, 4, dim, seed)
        assert classify_reciprocal(r).conforms
        assert not classify_markov(r).conforms


def test_random_law_one_sided_classes_are_strict():
    from cmseq import classify_cmc

    for seed in range(3):
        cml = random_law(LawClass.CM_L_ONLY, 4, 1, seed)
        assert classify_cmc(cml, LAST).conforms
        assert not classify_cmc(cml, FIRST).conforms
        cmf = random_law(LawClass.CM_F_ONLY, 4, 1, seed)
        assert classify_cmc(cmf, FIRST).conforms
        assert not classify_cmc(cmf, LAST).conforms


def test_random_law_size_validation():
    with pytest.raises(ValueError):
        random_law(LawClass.MARKOV, 1, 1, 0)
    with pytest.raises(ValueError):
        random_law(LawClass.CM_L_ONLY, 2, 1, 0)
    with pytest.raises(ValueError):
        random_law(LawClass.CM_F_ONLY, 2, 1, 0)
    with pytest.raises(ValueError):
        random_law(LawClass.MARKOV, 3, 0, 0)


@pytest.mark.parametrize(
    "args", [(3.9, 1, 0), (3, 1.7, 0), (3, 1, 2.5), (3.0, 1, 0), ("3", 1, 0)]
)
def test_random_law_rejects_non_integer_arguments(args):
    """A float size, dimension or seed is not truncated to a different law."""
    with pytest.raises(TypeError):
        random_law(LawClass.MARKOV, *args)


def test_random_law_accepts_numpy_integers():
    want = random_law(LawClass.CM_F_ONLY, 5, 2, 7).covariance.data
    got = random_law(LawClass.CM_F_ONLY, np.int64(5), np.int32(2), np.uint8(7))
    assert got.covariance.data.tobytes() == want.tobytes()


def reference_random_law(law_class, n_last, dim, seed):
    """Set-built random law: the support from set algebra on
    ``allowed_support``, one draw and one mirror per block."""
    n, d = n_last, dim
    upper = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    code, own, below = models._CLASSES[law_class]
    support = allowed_support(own(n)) if own else set(upper)
    forbidden = support - allowed_support(below(n)) if below else set()
    witnesses = [ij for ij in upper if ij in forbidden]
    rng = np.random.default_rng([code, n, d, seed])
    blocks = {ij: rng.uniform(-0.5, 0.5, (d, d)) for ij in upper if ij in support}
    if witnesses and max(np.linalg.norm(blocks[ij]) for ij in witnesses) < 0.1:
        blocks[witnesses[0]] = models._rescale_to(blocks[witnesses[0]], 0.3)
    grid = np.zeros((n + 1, n + 1, d, d))
    for (i, j), b in blocks.items():
        grid[i, j] = b
        grid[j, i] = b.T
    block_abs = np.abs(grid).reshape(n + 1, n + 1, d * d).sum(axis=2)
    row_abs = np.cumsum(block_abs, axis=1)[:, -1]
    diag = np.arange(n + 1)
    grid[diag, diag] = (1.0 + row_abs)[:, None, None] * np.eye(d)
    a = grid.transpose(0, 2, 1, 3).reshape((n + 1) * d, (n + 1) * d)
    return SequenceLaw(invert_spd(a), d)


@settings(max_examples=60, deadline=None)
@given(
    law_class=st.sampled_from(list(LawClass)),
    n_last=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_law_matches_the_set_built_reference(law_class, n_last, d, seed):
    if law_class in (LawClass.CM_L_ONLY, LawClass.CM_F_ONLY):
        n_last = max(n_last, 3)
    got = random_law(law_class, n_last, d, seed).covariance.data
    want = reference_random_law(law_class, n_last, d, seed).covariance.data
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("law_class", list(LawClass))
def test_a_large_random_law_matches_the_set_built_reference(law_class):
    got = random_law(law_class, 80, 2, 1).covariance.data
    want = reference_random_law(law_class, 80, 2, 1).covariance.data
    assert got.tobytes() == want.tobytes()


def test_model_covariance_dispatches_on_type():
    law = identity_law(2)
    f = model_covariance(build_forward(law, LAST, BC1))
    b = model_covariance(build_backward(law, FIRST, BC1))
    np.testing.assert_allclose(f.covariance.data, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(b.covariance.data, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("law_class", list(LawClass))
def test_random_law_diagonal_is_one_plus_the_absolute_row_sum(law_class, monkeypatch):
    """Bit for bit: each diagonal block is (1 + the sum, block by block in
    column order, of the absolute off-diagonal entries of its row) * I."""
    built = []
    build = models.SequenceLaw.from_precision
    monkeypatch.setattr(
        models.SequenceLaw, "from_precision", staticmethod(lambda a, d: built.append(a) or build(a, d))
    )
    for n, d, seed in product((3, 5, 10, 20), (1, 2, 4), range(3)):
        random_law(law_class, n, d, seed)
        a = built.pop()
        for i in range(n + 1):
            rows = slice(i * d, (i + 1) * d)
            row_abs = sum(
                np.abs(a[rows, j * d : (j + 1) * d]).sum() for j in range(n + 1) if j != i
            )
            assert np.array_equal(a[rows, rows], (1.0 + row_abs) * np.eye(d)), (n, d, seed, i)


# --- kept regression plans -----------------------------------------------------


def clear_plans():
    models._regression_plan.cache_clear()
    blocks._conditioning_plan.cache_clear()


def plan_misses():
    caches = (models._regression_plan, blocks._conditioning_plan)
    return tuple(cache.cache_info().misses for cache in caches)


def model_bytes(model):
    """A model's boundary gain, stacks and noise factors and inverses, as bytes."""
    kept = ("_trans", "_cond", "_noise", "_noise_lower", "_noise_inv")
    bg = model.boundary_gain
    return [None if bg is None else bg.tobytes(), *(getattr(model, k).tobytes() for k in kept)]


@pytest.mark.parametrize("build,c,bc", SHAPES)
def test_a_second_law_of_a_shape_reuses_its_plans(build, c, bc):
    """A build makes its regression plan and its conditioning plan once per
    (N, d): a second law of that size makes none, and gets the bits a cold
    build gives it."""
    first, second = (random_law(LawClass.GENERIC, 5, 2, seed=s) for s in (1, 2))
    clear_plans()
    build(first, c, bc)
    assert plan_misses() == (1, 1)
    warm = build(second, c, bc)
    assert plan_misses() == (1, 1)
    clear_plans()
    assert model_bytes(build(second, c, bc)) == model_bytes(warm)


def test_a_kept_regression_plan_refuses_writes():
    triples, rows, split = models._regression_plan(5, LAST, BC1, True)
    assert len(triples) == 6 and split == 4
    assert [at.tolist() for at in rows] == [[5], [4], [3, 2, 1, 0]]
    assert not any(at.flags.writeable for at in rows)
    with pytest.raises(ValueError, match="read-only"):
        rows[2][0] = 0


@pytest.mark.parametrize("build", [build_forward, build_backward])
def test_a_failing_build_raises_the_same_cold_and_warm(build):
    """The law of the pivot test above: the same error, message and pivot
    row with the plans cleared as with them kept."""
    mixing = np.eye(8)
    mixing[1] = 0.0
    mixing[1, 0], mixing[1, 2 if build is build_forward else 4], mixing[1, 1] = 1.0, 1e-3, 1e-7
    law = SequenceLaw(mixing @ mixing.T, 2)
    clear_plans()
    raised = []
    for _ in range(2):  # cold, then warm
        with pytest.raises(NotPositiveDefiniteError) as err:
            build(law, FIRST)
        raised.append((str(err.value), err.value.pivot_index))
    want = ("matrix is not positive definite: pivot 9.992e-15 at index 1", 1)
    assert raised[0] == raised[1] == want


@pytest.mark.parametrize(
    "cls,c,places",
    [
        (ForwardCmcModel, LAST, [(0, 2)]),
        (ForwardCmcModel, LAST, [(2, 0), (1, 3)]),
        (ForwardCmcModel, FIRST, [(2, 4), (2, 1)]),
        (BackwardCmcModel, FIRST, [(2, 4), (0, 3)]),
        (BackwardCmcModel, LAST, [(1, 1), (0, 2)]),
    ],
)
def test_a_built_model_refuses_a_non_finite_entry_as_the_constructor_does(cls, c, places):
    """A build hands its stacks to the model unconverted; a non-finite
    entry is still named by grid, then time, as from the caller's grids."""
    build = build_forward if cls is ForwardCmcModel else build_backward
    law = random_law(LawClass.RECIPROCAL, 4, 1, 0)
    model = build(law, c, BC1)
    stacks = np.array([model._trans, model._cond, model._noise])
    grids = [dict(model.g_trans), dict(model.g_cond), dict(model.g_noise)]
    for grid, t in places:
        stacks[grid, t] = np.nan
        grids[grid][t] = [[np.nan]]
    with pytest.raises(ValueError) as built:
        cls._built(4, 1, c, BC1, stacks, model.boundary_gain)
    with pytest.raises(ValueError) as given:
        cls(4, 1, c, BC1, *grids, model.boundary_gain)
    grid, t = min(places)
    want = f"{('g_trans', 'g_cond', 'g_noise')[grid]}[{t}] has non-finite entries"
    assert str(built.value) == str(given.value) == want
