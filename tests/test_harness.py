"""Piola transport, physical errors, rate fitting, and study verdicts."""

import contextlib
import io
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdivkit import cli, fields, harness, interpolation
from hdivkit.elements import (
    ElementFamily, ElementSpace, SpaceMember, build_space, contract, degree_range, factor_values,
)
from hdivkit.fields import (
    MS_G, MS_X, MS_Y, CallableField, FieldStack, ManufacturedField, ReproductionField, get_field,
    grid_values,
)
from hdivkit.harness import (
    MIN_H,
    MODES,
    REPRO_TOL,
    ConvergenceTable,
    ErrorRecord,
    PhysicalRect,
    PulledBackField,
    QUANTITIES,
    StudyConfig,
    bdm_sharpness_witness,
    default_suite_configs,
    error_Lp,
    fit_window,
    fitted_rate,
    norm_Lp,
    piola_push,
    predicted_rate,
    run_refinement_study,
    theorem_suite,
    _lp_sum,
    _mapped_rule,
    _verdict,
)
from hdivkit import interpolation
from hdivkit.dofs import dof_vector_ld, plan_nodes
from hdivkit.interpolation import InterpolationOperator, reference_operator
from hdivkit.quadrature import NONPOLY_POINTS
from monomial_oracle import Polynomial2D, VectorPoly2D
from reference_oracle import (
    apply_dof, degree_bounds, enumerated_rule, error_Lp_reference, on_grid, point_values,
    rule_points,
)

_ZERO = CallableField(lambda x, y: (0.0, 0.0), lambda x, y: 0.0, "zero")


def _values(U, V, D) -> CallableField:
    """The field known only by its values U, V and div D, whatever the points."""
    return CallableField(lambda x, y: (U, V), lambda x, y: D)


def _at(fld, x, y):
    """u, v and div of fld's factor sample on the grid of the nodes x and y."""
    return grid_values(fld.factor_sample(np.atleast_1d(x), np.atleast_1d(y)))


def _vec(ux, uy, vx, vy, cu=1.0, cv=1.0):
    return VectorPoly2D(
        Polynomial2D.monomial(ux, uy, cu), Polynomial2D.monomial(vx, vy, cv)
    )


def _on_rect(family, k, rect: PhysicalRect, fld):
    """Pull fld back to the reference square, interpolate there, push the member forward."""
    member = reference_operator(family, k).interpolate(PulledBackField(fld, rect.hx, rect.hy))
    return piola_push(rect, member)


# ------------------------------------------------------------- geometry


@pytest.mark.parametrize("hx,hy", [(0.0, 1.0), (1.0, -2.0), (1e-9, 1.0), (1.0, 0.0)])
def test_rect_rejects_degenerate(hx, hy):
    with pytest.raises(ValueError):
        PhysicalRect(hx, hy)


@pytest.mark.parametrize("side", [math.inf, -math.inf, math.nan])
def test_rect_rejects_non_finite_sides(side):
    # an infinite side used to be accepted, and its norm read nan
    column = np.array([[0.5], [side], [0.25]])
    for hx, hy in ((side, 1.0), (1.0, side), (column, np.full((3, 1), 0.5)),
                   (np.full((3, 1), 0.5), column)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            PhysicalRect(hx, hy)


@pytest.mark.parametrize("n", [20, 3])
def test_rect_rejects_sides_that_are_not_one_stack(n):
    # flat (n,) sides pair their rows with a rule axis: at n = 20 norm_Lp read
    # one scalar for 20 rectangles, at n = 3 it died in a numpy broadcast error
    s = np.linspace(0.25, 1.0, n)
    column = s[:, None, None]
    for hx, hy in ((s, s), (s[:, None], s[:, None]), (column, s), (column, 0.5),
                   (0.5, column), (column, column[:2])):
        with pytest.raises(ValueError, match=r"both be scalars or both of one shape \(n, 1, 1\)"):
            PhysicalRect(hx, hy)
    norms = norm_Lp(MS_G, PhysicalRect(column, column), 2.0, "field")
    assert norms.shape == (n,)
    assert norms[-1] == norm_Lp(MS_G, PhysicalRect(1.0, 1.0), 2.0, "field")


def test_rect_rejects_an_empty_stack():
    # sides of shape (0, 1, 1) used to fail in numpy's minimum of an empty array
    empty = np.ones((0, 1, 1))
    with pytest.raises(ValueError, match=r"one shape \(n, 1, 1\) with n >= 1, got \(0, 1, 1\)"):
        PhysicalRect(empty, empty)


def test_rect_rejects_boolean_sides():
    # float(True) is 1.0: a bool side was stored as given (hx=True), where
    # StudyConfig refuses a bool h0
    half = np.full((2, 1, 1), 0.5)
    for hx, hy in ((True, 0.5), (0.5, np.bool_(True)), (np.ones((2, 1, 1), bool), half),
                   (half, np.ones((2, 1, 1), bool)), (False, 0.5)):
        with pytest.raises(ValueError, match="rectangle sides must be numbers"):
            PhysicalRect(hx, hy)


def test_pullback_constant_field():
    # contravariant map scales components by the opposite edge length
    rect = PhysicalRect(2.0, 3.0)
    ref = PulledBackField(_vec(0, 0, 0, 0, cv=0.0), rect.hx, rect.hy)
    U, V, _ = _at(ref, 0.25, 0.5)[:, 0, 0]
    assert U == pytest.approx(3.0, rel=1e-15)
    assert V == pytest.approx(0.0, abs=1e-15)


def test_pullback_divergence_identity():
    # reference divergence is hx hy times the physical one at the image point
    rect = PhysicalRect(2.0, 3.0)
    fld = _vec(1, 0, 0, 0, cv=0.0)  # (x, 0), div = 1
    ref = PulledBackField(fld, rect.hx, rect.hy)
    assert _at(ref, 0.3, 0.8)[2, 0, 0] == pytest.approx(6.0, rel=1e-15)


def test_pullback_identity_rect():
    rect = PhysicalRect(1.0, 1.0)
    fld = _vec(2, 1, 0, 2)
    ref = PulledBackField(fld, rect.hx, rect.hy)
    xs = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(_at(ref, xs, xs)[:2], _at(fld, xs, xs)[:2], atol=1e-15)


ALL_PAIRS = [(f, k) for f in ("RT", "BDM", "ABF") for k in degree_range(f)]


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_bare_member_interpolates_to_itself(family, k):
    # a member handed in as a physical field is sampled, not pulled back
    # through its monomial views (those lost 1.5e-9 at ABF_4)
    member = build_space(family, k).random_member(np.random.default_rng(7))
    interp = _on_rect(family, k, PhysicalRect(1.0, 1.0), member)
    err = np.abs(interp.field.coeffs - member.coeffs).max() / np.abs(member.coeffs).max()
    assert err <= REPRO_TOL


def test_push_divergence_scaling():
    rect = PhysicalRect(0.5, 0.25)
    member = build_space("ABF", 0).random_member(np.random.default_rng(6))
    phys = piola_push(rect, member)
    x, y = 0.3, 0.2
    ref_div = point_values(member, x / rect.hx, y / rect.hy)[2]
    assert _at(phys, x, y)[2, 0, 0] == pytest.approx(ref_div / (rect.hx * rect.hy), rel=1e-14)


def test_push_then_pull_back_samples_the_member():
    # piola_push and PulledBackField are inverse maps: the round trip samples
    # the member itself, up to the roundoff of (h x) / h and h (U / h)
    rect = PhysicalRect(0.25, 0.7)
    member = build_space("RT", 1).random_member(np.random.default_rng(5))
    back = PulledBackField(piola_push(rect, member), rect.hx, rect.hy)
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(_at(back, xs, xs), _at(member, xs, xs), rtol=1e-14, atol=1e-14)


# ------------------------------------------------------------------ errors


def test_error_Lp_pinned_div():
    # unit divergence against zero on a 2 x 3 box: L2 mass is sqrt(6)
    rect = PhysicalRect(2.0, 3.0)
    fld = _vec(1, 0, 0, 0, cv=0.0)
    assert error_Lp(fld, _ZERO, rect, 2.0, "div") == pytest.approx(
        math.sqrt(6.0), rel=1e-14
    )
    assert error_Lp(fld, _ZERO, rect, 1.0, "div") == pytest.approx(6.0, rel=1e-14)


def test_error_Lp_pinned_field():
    rect = PhysicalRect(1.0, 1.0)
    fld = _vec(0, 0, 0, 0, cu=3.0, cv=4.0)  # |(3,4)| = 5 everywhere
    assert error_Lp(fld, _ZERO, rect, 2.0, "field") == pytest.approx(5.0, rel=1e-14)


def test_error_Lp_validation():
    rect = PhysicalRect(1.0, 1.0)
    with pytest.raises(ValueError):
        error_Lp(MS_G, _ZERO, rect, 0.5, "field")
    with pytest.raises(ValueError):
        error_Lp(MS_G, _ZERO, rect, 2.0, "curl")


@pytest.mark.parametrize("compute", [
    lambda p, which: error_Lp(MS_G, _ZERO, PhysicalRect(1.0, 1.0), p, which),
    lambda p, which: norm_Lp(MS_G, PhysicalRect(1.0, 1.0), p, which),
    lambda p, which: error_Lp_reference(MS_G, _ZERO, PhysicalRect(1.0, 1.0), p, which),
], ids=["error_Lp", "norm_Lp", "error_Lp_reference"])
@pytest.mark.parametrize("p,which,message", [
    (math.nan, "field", "p must be finite and >= 1"),
    (math.inf, "div", "p must be finite and >= 1"),
    (True, "field", "p must be finite and >= 1"),
    (2.0, "bogus", "which must be 'field' or 'div'"),
])
def test_lp_arguments_checked(compute, p, which, message):
    # nan slips past p < 1, inf read every zero error as 1.0, a bool is no p
    # (as in StudyConfig), and the oracle took any which but 'field' as 'div'
    with pytest.raises(ValueError, match=message):
        compute(p, which)


def test_a_missing_divergence_is_refused_by_name():
    # a CallableField without div_fn samples its divergence as nan: its div norm
    # and div errors on either side are refused by name, not read as nan, while
    # its field error runs
    no_div = CallableField(lambda x, y: (x * y, -x), fid="no-div")
    rect = PhysicalRect(0.5, 0.25)
    stack = PhysicalRect(np.full((2, 1, 1), 0.5), np.array([0.5, 0.25])[:, None, None])
    for compute in (lambda which: norm_Lp(no_div, rect, 2.0, which),
                    lambda which: error_Lp(no_div, MS_G, stack, 2.0, which),
                    lambda which: error_Lp(MS_G, no_div, rect, 1.0, which)):
        with pytest.raises(ValueError, match="field 'no-div' has no divergence"):
            compute("div")
        assert np.all(np.isfinite(compute("field")))
    with pytest.raises(ValueError, match="has no divergence"):
        norm_Lp(PulledBackField(no_div, 2.0, 4.0), rect, 2.0, "div")


def test_fields_are_read_through_their_factor_samples_alone(monkeypatch, fresh_field_sides):
    # one field protocol: no field class keeps a pointwise uv or div_values and
    # no space a basis tabulation, and with the closed forms refused the L^p
    # norm and error of every field kind, on one rectangle and on a stack, and
    # a study on every study field still run
    for cls in (ManufacturedField, CallableField, PulledBackField, SpaceMember, ElementSpace):
        for name in ("uv", "div_values", "tabulate", "tabulate_div"):
            assert not hasattr(cls, name), (cls.__name__, name)

    def refuse(*args, **kwargs):
        raise AssertionError("a field was read pointwise")

    monkeypatch.setattr(ManufacturedField, "partial", refuse)
    monkeypatch.setattr(fields, "_sum_of_products", refuse)
    rect = PhysicalRect(0.5, 0.25)
    stack = PhysicalRect(np.full((3, 1, 1), 0.5), np.array([0.5, 0.25, 0.125])[:, None, None])
    member = build_space("ABF", 2).random_member(np.random.default_rng(1))
    kinds = [MS_G, CallableField(lambda x, y: (x * y, -x), lambda x, y: y - 1.0),
             PulledBackField(MS_X, 2.0, 4.0), member, piola_push(rect, member),
             FieldStack([MS_G, MS_Y])]
    for fld in kinds:
        for which in QUANTITIES:
            for r in (rect, stack):
                assert np.all(np.isfinite(norm_Lp(fld, r, 2.0, which))), fld
                assert np.all(np.isfinite(error_Lp(fld, MS_G, r, 1.5, which))), fld
    for field, mode in (("MS-G", "isotropic"), ("MS-X", "shrink_x"), ("MS-Y", "shrink_y"),
                        ("MS-P", "fixed_aspect")):
        table = run_refinement_study(StudyConfig("RT", 1, field=field, mode=mode, levels=3))
        assert len(table.records) == 3


def test_lp_rejects_infinite_p():
    # 0 ** (1 / inf) == 1: at p = inf a zero error read 1.0
    rect = PhysicalRect(0.5, 0.25)
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        error_Lp(MS_G, MS_G, rect, math.inf, "field")
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        norm_Lp(_ZERO, rect, math.inf, "div")
    assert error_Lp(MS_G, MS_G, rect, 1e300, "field") == 0.0


def test_norm_homogeneity():
    rect = PhysicalRect(0.75, 0.5)
    fld = _vec(1, 1, 2, 0)
    scaled = _vec(1, 1, 2, 0, 3.0, 3.0)
    for p in (1.0, 2.0):
        for which in ("field", "div"):
            assert norm_Lp(scaled, rect, p, which) == pytest.approx(
                3.0 * norm_Lp(fld, rect, p, which), rel=1e-13
            )


def _lone_lp_sum(ws, mag, p):
    """The scalar _lp_sum of one rectangle, as it was before stacks."""
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(ws * mag**p)
        if (np.isfinite(total) and total >= np.finfo(float).tiny) or not np.any(mag):
            return float(total ** (1.0 / p))
        top = np.max(mag)
        return float(top * np.sum(ws * (mag / top) ** p) ** (1.0 / p))


_ROW = st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0),
                 st.sampled_from([0.0, 1e-300, 1e-20, 1.0, 1e20, 1e300]))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 40.0]) | st.floats(1.0, 300.0),
       which=st.sampled_from(["field", "div"]), seed=st.integers(0, 2**32 - 1))
@example(rows=[(0.5, 0.25, 0.0), (0.3, 0.3, 1e-20), (0.125, 1.0, 1.0), (0.01, 0.02, 1e300)],
         p=40.0, which="field", seed=0)
def test_stacked_errors_match_per_rectangle_calls(rows, p, which, seed):
    # one row per rectangle, zero rows and rows whose plain sum underflows or
    # overflows (the rescaling fallback) included: equal, not close
    # values on the rule's (20, 20) grid, sides of shape (rows, 1, 1)
    rng = np.random.default_rng(seed)
    hx, hy, scale = (np.array(column)[:, None, None] for column in zip(*rows))
    (aU, aV, aD), (bU, bV, bD) = (
        [scale * rng.standard_normal((len(rows), NONPOLY_POINTS, NONPOLY_POINTS))
         for _ in range(3)] for _ in range(2))
    a, b = _values(aU, aV, aD), _values(bU, bV, bD)
    stack = PhysicalRect(hx, hy)
    errors, norms = error_Lp(a, b, stack, p, which), norm_Lp(a, stack, p, which)
    _, _, ws = _mapped_rule(hx, hy)
    mags = np.hypot(aU - bU, aV - bV) if which == "field" else np.abs(aD - bD)
    mags = mags.reshape(ws.shape)
    sums = _lp_sum(ws, mags, p)
    assert errors.shape == norms.shape == sums.shape == (len(rows),)
    for i, (x, y, _) in enumerate(rows):
        rect = PhysicalRect(x, y)
        a_i, b_i = _values(aU[i], aV[i], aD[i]), _values(bU[i], bV[i], bD[i])
        assert errors[i] == error_Lp(a_i, b_i, rect, p, which)
        assert norms[i] == norm_Lp(a_i, rect, p, which)
        assert sums[i] == _lp_sum(ws[i], mags[i], p) == _lone_lp_sum(ws[i], mags[i], p)


def test_a_field_stack_on_a_rectangle_stack_gives_one_error_per_pair():
    # a member stack's or a FieldStack's rows lead the rectangles' rows, against a
    # lone field too: one value per row and rectangle, each with its own
    # one-field, one-rectangle call's bits; two rows, as many as the field error
    # has components, so a row paired with a component would show
    space = build_space("ABF", 1)
    members = space.member(np.random.default_rng(4).standard_normal((2, space.dim)))
    hxs, hys = np.array([0.5, 0.25, 0.125]), np.array([0.125, 0.25, 0.5])
    stack = PhysicalRect(hxs[:, None, None], hys[:, None, None])
    for rows, singles in ((members, [space.member(c) for c in members.coeffs]),
                          (FieldStack([MS_X, MS_Y]), [MS_X, MS_Y])):
        for which in QUANTITIES:
            norms = norm_Lp(rows, stack, 2.0, which)
            errors, mirrored = (error_Lp(*pair, stack, 1.5, which) for pair in
                                ((rows, MS_G), (MS_G, rows)))
            assert norms.shape == errors.shape == (2, 3)
            assert np.array_equal(errors, mirrored)
            for i, single in enumerate(singles):
                for j, rect in enumerate(map(PhysicalRect, hxs, hys)):
                    assert norms[i, j] == norm_Lp(single, rect, 2.0, which)
                    assert errors[i, j] == error_Lp(single, MS_G, rect, 1.5, which)
            assert np.array_equal(error_Lp(rows, MS_G, PhysicalRect(0.5, 0.25), 1.5, which),
                                  [error_Lp(f, MS_G, PhysicalRect(0.5, 0.25), 1.5, which)
                                   for f in singles])


def _lp_max_scaled(ws, mag, p):
    top = np.max(mag)
    return top * np.sum(ws * (mag / top) ** p) ** (1.0 / p)


def test_large_p_errors_are_not_vacuous():
    # at p = 1000 the plain sum of |e|^p underflows (errors below 1) or
    # overflows (divergences above 1); the errors must stay the real ones,
    # not zeros that read as a reproduction pass
    p = 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_refinement_study(StudyConfig("RT", 1, p, "MS-G", "isotropic"))
    for which in ("field", "div"):
        assert "reproduction" not in table.judged[which].flags
    for rec in table.records:
        rect = PhysicalRect(rec.hx, rec.hy)
        interp = _on_rect("RT", 1, rect, MS_G)
        xs, ys, ws = enumerated_rule(rect.hx, rect.hy)
        (U1, V1, d1), (U2, V2, d2) = point_values(MS_G, xs, ys), point_values(interp, xs, ys)
        ef = _lp_max_scaled(ws, np.hypot(U1 - U2, V1 - V2), p) / (rect.hx * rect.hy) ** (1 / p)
        ed = _lp_max_scaled(ws, np.abs(d1 - d2), p) / _lp_max_scaled(ws, np.abs(d1), p)
        assert rec.errors["field"] > 0 and rec.errors["div"] > 0
        assert rec.errors["field"] == pytest.approx(ef, rel=1e-12)
        assert rec.errors["div"] == pytest.approx(ed, rel=1e-12)


@pytest.mark.parametrize("which", ["field", "div"])
@pytest.mark.parametrize("p", [1.0, 2.0, 1000.0])
def test_error_reference_side_consistency(which, p):
    # the physical integral and its reference-square form must agree
    rect = PhysicalRect(0.5, 0.125)
    interp = _on_rect("RT", 1, rect, MS_G)
    a = error_Lp(MS_G, interp, rect, p, which)
    b = error_Lp_reference(PulledBackField(MS_G, rect.hx, rect.hy), interp.field, rect, p, which)
    assert a == pytest.approx(b, rel=1e-12)


def test_physical_interpolant_matches_moments():
    # pulled-back field and interpolant agree on every reference moment
    rect = PhysicalRect(1.0, 0.25)
    interp = _on_rect("ABF", 1, rect, MS_G)
    ref = PulledBackField(MS_G, rect.hx, rect.hy)
    op = reference_operator("ABF", 1)
    for fn in op.dofs.functionals:
        assert apply_dof(fn, interp.field) == pytest.approx(
            apply_dof(fn, ref), abs=1e-11
        )


# ----------------------------------------------------------- fit and verdicts


def test_fit_window():
    assert fit_window(3) == 3
    assert fit_window(4) == 3
    assert fit_window(6) == 4
    assert fit_window(10) == 8


def test_fitted_rate_synthetic():
    errs = [4.0**-j for j in range(6)]
    assert fitted_rate(errs, 6) == pytest.approx(2.0, abs=1e-12)
    assert fitted_rate([1.0, 0.5, 0.0, 0.25], 4) is None
    # an error in the window that is not positive and finite reads None; before it, nothing
    for bad in (0.0, -1.0, math.inf, math.nan):
        assert fitted_rate(errs[:-1] + [bad], 6) is None
        assert fitted_rate([bad] + errs[1:], 6) == fitted_rate(errs, 6)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 40).flatmap(lambda levels: st.lists(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    min_size=levels, max_size=levels)))
def test_fitted_rate_is_polyfits_slope_to_rounding(errors):
    # np.polyfit, as an oracle here only: both fits round, so they agree within
    # 8 w eps max|log2 e| over the window (100 000 random series measured 1.2 w eps)
    levels = len(errors)
    w = fit_window(levels)
    tail = errors[-w:]
    oracle = -np.polyfit(np.arange(levels - w, levels, dtype=float), np.log2(tail), 1)[0]
    bound = 8 * w * np.finfo(float).eps * max(abs(math.log2(e)) for e in tail)
    assert abs(fitted_rate(errors, levels) - oracle) <= bound


@pytest.mark.parametrize("levels", [3, 4, 6, 8, 11, 27])
def test_fitted_rate_is_exact_on_powers_of_two(levels):
    # log2 e_j = -r j is exact, and so is every step of the closed form; r = 0 reads +0.0
    for r in range(-3, 9):
        assert repr(fitted_rate([2.0 ** (-r * j) for j in range(levels)], levels)) == repr(float(r))


@pytest.mark.parametrize("value", [1.0, 0.3, 1e-300, 5e-324, 1e300])
def test_fitted_rate_of_a_flat_series_is_plus_zero(value):
    for levels in (3, 6, 8, 27):
        assert repr(fitted_rate([value] * levels, levels)) == "0.0"


def test_verdict_reproduction():
    v, flags = _verdict([1e-14, 1e-13, 1e-15], 1.9, 2.0, 0.15)
    assert v == "pass" and flags == {"reproduction": True}


def test_verdict_stagnation():
    v, flags = _verdict([0.5, 0.5, 0.5, 0.5], 0.01, 0.0, 0.15)
    assert v == "pass" and flags == {"stagnation": True}
    v, flags = _verdict([0.5, 0.4, 0.3, 0.2], 0.7, 0.0, 0.15)
    assert v == "fail" and flags == {"stagnation": True}


def test_verdict_non_monotone():
    v, flags = _verdict([1.0, 0.5, 0.6, 0.7], 0.1, 2.0, 0.15)
    assert v == "inconclusive" and flags == {"non_monotone": True}


def test_verdict_rate_comparison():
    errs = [4.0**-j for j in range(5)]
    assert _verdict(errs, 2.0, 2.0, 0.15) == ("pass", {})
    assert _verdict(errs, 2.0, 2.1, 0.15) == ("pass", {})
    assert _verdict(errs, 1.5, 2.0, 0.15) == ("fail", {})
    assert _verdict(errs, 2.5, 2.0, 0.15) == ("pass", {"superconvergent": True})


# ------------------------------------------------------------- predictions


@pytest.mark.parametrize("k", [0, 1, 2])
def test_predicted_rates_rt(k):
    assert predicted_rate("RT", k, MS_X, "div", 1, 0) == k + 1
    assert predicted_rate("RT", k, MS_Y, "div", 0, 1) == k + 1
    # refining x cannot help a divergence that depends only on y
    assert predicted_rate("RT", k, MS_Y, "div", 1, 0) == 0.0
    assert predicted_rate("RT", k, MS_X, "field", 1, 0) == k + 1
    assert predicted_rate("RT", k, MS_G, "div", 1, 1) == k + 1


@pytest.mark.parametrize("k", [1, 2])
def test_predicted_rates_bdm(k):
    assert predicted_rate("BDM", k, MS_G, "div", 1, 1) == k
    assert predicted_rate("BDM", k, MS_G, "field", 1, 1) == k + 1


@pytest.mark.parametrize("k", [0, 1])
def test_predicted_rates_abf(k):
    assert predicted_rate("ABF", k, MS_G, "div", 1, 1) == k + 2
    assert predicted_rate("ABF", k, MS_X, "div", 1, 0) == k + 1
    assert predicted_rate("ABF", k, MS_G, "div", 1, 1) == k + 2


def _two_function_rate(family, k, fld, which, sx, sy):
    """The prediction rule as two functions with their own flags: the field's
    terms kept where u's or v's partial is, the divergence's where the
    component partials (a1 + 1, a2) of u or (a1, a2 + 1) of v are, or, for an
    MS-P member, where a label's div factors reach (a1, a2)."""
    if which == "field":
        def nonzero(a1, a2):
            return fld.deriv_nonzero(a1, a2, 0) or fld.deriv_nonzero(a1, a2, 1)
    elif isinstance(fld, ReproductionField):
        def nonzero(a1, a2):
            reach = fld._reach[:, 4:6]
            return bool(np.any((reach[:, 0] >= a1) & (reach[:, 1] >= a2)))
    else:
        def nonzero(a1, a2):
            return fld.deriv_nonzero(a1 + 1, a2, 0) or fld.deriv_nonzero(a1, a2 + 1, 1)
    return float(max(min((a1 * sx + a2 * sy for a1, a2 in group if nonzero(a1, a2)), default=0)
                     for group in harness.estimate_terms(family, k, which, sx, sy)))


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_predicted_rate_is_the_two_function_rule(family, k):
    fields = [MS_G, MS_X, MS_Y] + [get_field("MS-P", family, k, seed) for seed in (0, 1, 2)]
    for fld in fields:
        for mode in MODES:
            sx, sy = harness._SCALES[mode]
            for which in harness.QUANTITIES:
                got = predicted_rate(family, k, fld, which, sx, sy)
                assert type(got) is float
                assert got == _two_function_rate(family, k, fld, which, sx, sy), (
                    fld, mode, which)


# ------------------------------------------------------------- sharpness


def test_bdm_sharpness_witness():
    # u = (0, x^{k-1} y^2 / 2) is an RT_k member whose exact Legendre
    # coordinates give the monomial field, and RT_k interpolates it to itself.
    # div = x^{k-1} y sits in Q_k but outside P_{k-1}: BDM must miss it.
    # Commutation pins the BDM div error at the L2 distance of x^{k-1} y
    # from P_{k-1}: 1/sqrt(12) for k = 1, 1/12 for k = 2.
    rect = PhysicalRect(1.0, 1.0)
    expected = {1: 1.0 / math.sqrt(12.0), 2: 1.0 / 12.0}
    t = np.linspace(0.0, 1.0, 11)
    x, y = t[:, None], t[None, :]
    for k in range(1, 5):
        w = bdm_sharpness_witness(k)
        assert isinstance(w, SpaceMember)
        assert (w.space.family, w.space.k) == (ElementFamily.RT, k)
        assert degree_bounds(w) == ((0, 0), (k - 1, 2))
        monomial = VectorPoly2D(Polynomial2D.zero(), Polynomial2D.monomial(k - 1, 2, 0.5))
        for got, want in zip(_at(w, t, t), (*monomial.uv(x, y), monomial.div_values(x, y))):
            np.testing.assert_allclose(got, np.broadcast_to(want, got.shape), rtol=0, atol=1e-15)
        back = reference_operator("RT", k).solve_coefficients(w)
        assert np.max(np.abs(back - w.coeffs)) <= REPRO_TOL
        assert error_Lp(w, _on_rect("RT", k, rect, w), rect, 2.0, "div") <= 1e-12
        if k in expected:
            bdm = _on_rect("BDM", k, rect, w)
            assert error_Lp(w, bdm, rect, 2.0, "div") == pytest.approx(expected[k], rel=1e-10)
    with pytest.raises(ValueError):
        bdm_sharpness_witness(0)


# ------------------------------------------------------------- studies


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(levels=2)
    with pytest.raises(ValueError):
        StudyConfig(mode="diagonal")
    with pytest.raises(ValueError):
        StudyConfig(h0=0.0)
    with pytest.raises(ValueError):
        StudyConfig(h0=1.5)
    with pytest.raises(ValueError):
        StudyConfig(p=0.5)
    with pytest.raises(ValueError):
        StudyConfig(mode="fixed_aspect", rho=-4.0)
    assert set(MODES) == {"shrink_x", "shrink_y", "isotropic", "fixed_aspect"}


@pytest.mark.parametrize("kwargs,message", [
    ({"k": 5}, "k must be between 0 and 4"),
    ({"k": -1}, "k must be between 0 and 4"),
    ({"family": "BDM", "k": 0}, "BDM requires k >= 1"),
    ({"field": "MS-Q"}, "unknown field 'MS-Q'"),
    ({"mode": "fixed_aspect", "rho": float("inf")}, "aspect ratio"),
    ({"mode": "fixed_aspect", "rho": float("nan")}, "aspect ratio"),
    ({"mode": "fixed_aspect", "rho": 1e-3}, "h0 / R <= 1"),
    # rectangles below MIN_H: at construction, not partway through the study
    # rho is named only where the mode reads it
    ({"levels": 60}, "levels=60 with h0=0.5 shrinks a side below 1e-08"),
    ({"levels": 27}, "levels=27 with h0=0.5 shrinks a side"),
    ({"mode": "fixed_aspect", "levels": 40}, "levels=40 with h0=0.5 and rho=64 shrinks"),
    ({"mode": "shrink_y", "h0": 1e-3, "levels": 18}, "levels=18 with h0=0.001 shrinks"),
    ({"levels": 10**400}, "shrinks a side"),  # 2.0**-levels overflows
    # a float level count constructed, then the study crashed in range()
    ({"levels": 6.5}, "levels must be an integer"),
    ({"levels": 4.0}, "levels must be an integer"),
    # bools are ints to isinstance: these ran, and converge wrote "k": true
    ({"levels": True}, "levels must be an integer"),
    ({"p": True}, "p must be finite and >= 1"),
    ({"p": np.True_}, "p must be finite and >= 1"),
    ({"k": True}, "degree k must be an integer"),
    ({"k": True, "p": True}, "degree k must be an integer"),
    # and to < and isfinite: these built studies with h0 = 1 and tolerance 0
    ({"h0": True}, "h0 must be a number, got True"),
    ({"h0": np.True_}, "h0 must be a number, got np.True_"),
    ({"mode": "fixed_aspect", "rho": True}, "rho must be a number, got True"),
    ({"rho": np.True_}, "rho must be a number, got np.True_"),
    ({"rate_tolerance": False}, "rate_tolerance must be a number, got False"),
    ({"rate_tolerance": np.False_}, "rate_tolerance must be a number, got np.False_"),
    ({"h0": True, "rho": True, "rate_tolerance": False, "mode": "fixed_aspect"},
     "h0 must be a number, got True"),
])
def test_config_owns_the_study_schema(kwargs, message):
    # the rules converge applies are the config's own, so a library caller
    # cannot build a study the CLI would reject; a degree that is no integer
    # is refused by elements._validate_degree's TypeError
    error = TypeError if message == "degree k must be an integer" else ValueError
    with pytest.raises(error, match=message):
        StudyConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_config_rejects_unusable_seed(seed):
    # each used to construct: MS-P then died in numpy, every other field ignored it
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        StudyConfig(field="MS-P", seed=seed)


def test_config_accepts_integer_seeds():
    for seed in (None, 0, 7, np.int64(7)):
        assert StudyConfig(field="MS-P", seed=seed).seed == seed



@pytest.mark.parametrize("family", ["xyz", "", "RTX"])
def test_config_names_the_family_choices(family):
    with pytest.raises(ValueError) as exc:
        StudyConfig(family=family)
    assert str(exc.value) == f"unknown family '{family}' (choose from RT, BDM, ABF)"

def test_config_accepts_the_last_level_at_or_above_min_h():
    for kwargs in ({"levels": 26}, {"mode": "shrink_y", "h0": 1e-3, "levels": 17}):
        cfg = StudyConfig(**kwargs)
        rect = cfg.rect_at(cfg.levels - 1)
        assert min(rect.hx, rect.hy) >= MIN_H


def test_rect_at_modes():
    base = dict(k=0, levels=4, h0=0.5)
    assert StudyConfig(mode="shrink_x", **base).rect_at(2) == PhysicalRect(0.125, 0.5)
    assert StudyConfig(mode="shrink_y", **base).rect_at(2) == PhysicalRect(0.5, 0.125)
    assert StudyConfig(mode="isotropic", **base).rect_at(2) == PhysicalRect(0.125, 0.125)
    rect = StudyConfig(mode="fixed_aspect", rho=64.0, **base).rect_at(2)
    assert rect.hx == pytest.approx(0.125)
    assert rect.hy == pytest.approx(0.125 / 64.0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("h0,rho", [(0.5, 64.0), (0.3, 10.0), (1.0, 3.7), (0.3, 0.5)])
def test_rect_at_stacks_levels_bit_for_bit(mode, h0, rho):
    # the formula h0 2^-(s level) / aspect in floats, one level at a time and as
    # one stack, up to the deepest level a config takes (a side at MIN_H)
    levels = 3
    while True:
        try:
            config = StudyConfig(mode=mode, h0=h0, rho=rho, levels=levels + 1)
        except ValueError:
            break
        levels += 1
    config = StudyConfig(mode=mode, h0=h0, rho=rho, levels=levels)
    sx, sy = config.mode_scales()
    aspect = rho if mode == "fixed_aspect" else 1.0
    rects = [PhysicalRect(h0 * 2.0**-(sx * j), h0 * 2.0**-(sy * j) / aspect)
             for j in range(levels)]
    stack = config.rect_at(np.arange(levels)[:, None, None])
    assert stack.hx.shape == stack.hy.shape == (levels, 1, 1)
    assert [PhysicalRect(x, y) for x, y in zip(stack.hx.ravel().tolist(),
                                               stack.hy.ravel().tolist())] == rects
    assert [config.rect_at(j) for j in range(levels)] == rects


def test_mode_scales():
    assert StudyConfig(mode="shrink_x").mode_scales() == (1, 0)
    assert StudyConfig(mode="shrink_y").mode_scales() == (0, 1)
    assert StudyConfig(mode="isotropic").mode_scales() == (1, 1)
    assert StudyConfig(mode="fixed_aspect").mode_scales() == (1, 1)


def test_describe_keys():
    d = StudyConfig(mode="isotropic").describe()
    assert list(d) == ["family", "k", "p", "field", "mode", "levels", "h0", "rate_tolerance"]
    d2 = StudyConfig(mode="fixed_aspect", rho=8.0).describe()
    assert d2["rho"] == 8.0


def test_study_directional_smoke():
    cfg = StudyConfig(family="RT", k=0, field="MS-X", mode="shrink_x", levels=5)
    table = run_refinement_study(cfg)
    assert len(table.records) == 5
    assert [r.hx for r in table.records] == [0.5 * 2.0**-j for j in range(5)]
    assert all(r.hy == 0.5 for r in table.records)
    assert table.judged["div"].predicted == 1.0
    assert table.judged["div"].verdict == "pass"
    assert table.judged["field"].verdict == "pass"
    assert table.ok
    rates = table.level_rates("div")
    assert rates[0] is None and len(rates) == 5
    errs = [r.errors["div"] for r in table.records]
    assert rates[1] == pytest.approx(math.log2(errs[0] / errs[1]))


def test_study_reproduction_field():
    cfg = StudyConfig(family="RT", k=1, field="MS-P", mode="fixed_aspect",
                      rho=64.0, levels=4, seed=11)
    table = run_refinement_study(cfg)
    assert all(r.errors["field"] <= 1e-12 for r in table.records)
    assert all(r.errors["div"] <= 1e-12 for r in table.records)
    assert {w: j.flags for w, j in table.judged.items()} == {"field": {"reproduction": True},
                                                             "div": {"reproduction": True}}
    assert table.ok



def _per_level_records(config, pushed: bool = False):
    """A study's records computed level by level on the fields themselves:
    pull back, interpolate and push forward (an MS-P member is its own
    pull-back), then norm_Lp and error_Lp sampling both sides.  A member is
    read from the operator's table on the rule, as the study reads it, or,
    pushed=True, as piola_push's factor sample, which rounds apart."""
    fld = get_field(config.field, config.family, config.k, config.seed)
    op = reference_operator(config.family, config.k)
    records = []
    for level in range(config.levels):
        rect = config.rect_at(level)

        def push(member):
            if pushed:
                return piola_push(rect, member)
            U, V, D = contract(member.coeffs, op.rule_tables)
            return _values(U / rect.hy, V / rect.hx, D / (rect.hx * rect.hy))

        if isinstance(fld, ReproductionField):
            phys, ref = push(fld.member), fld.member
        else:
            phys, ref = fld, PulledBackField(fld, rect.hx, rect.hy)
        interp = push(op.interpolate(ref))
        nf = (rect.hx * rect.hy) ** (1.0 / config.p)
        nd = norm_Lp(phys, rect, config.p, "div")
        ef = error_Lp(phys, interp, rect, config.p, "field") / nf
        ed = error_Lp(phys, interp, rect, config.p, "div") / (nd if nd > 0 else nf)
        records.append(ErrorRecord(level, rect.hx, rect.hy, {"field": ef, "div": ed}))
    return records


_PAIRS = [(f.value, k) for f in ElementFamily for k in degree_range(f)]


@pytest.mark.parametrize("field,mode,levels", [
    ("MS-X", "shrink_x", 4), ("MS-G", "isotropic", 3), ("MS-P", "fixed_aspect", 4)])
@pytest.mark.parametrize("family,k", _PAIRS)
def test_study_matches_per_level_loop(family, k, field, mode, levels):
    # at h0 = 0.5 every side is a power of two, so the study's one table
    # reads the very points the fields are sampled at: equal, not close; the
    # pushed members' factor samples give the same errors up to their rounding
    config = StudyConfig(family, k, field=field, mode=mode, rho=64.0, levels=levels, h0=0.5)
    records = run_refinement_study(config).records
    assert records == _per_level_records(config)
    for got, want in zip(_per_level_records(config, pushed=True), records):
        for which in QUANTITIES:
            assert got.errors[which] == pytest.approx(want.errors[which], rel=1e-12, abs=1e-12)


# every study of these reads pass (reproduction) when each level samples
# both sides at its own points
_NON_DYADIC = [(f, k, 10.0, 5) for f, k in _PAIRS] + [(f, k, 64.0, 8) for f, k in _PAIRS]


@pytest.mark.parametrize("family,k,rho,levels", _NON_DYADIC)
def test_non_dyadic_reproduction_study_passes(family, k, rho, levels):
    # at h0 = 0.3, (h x) / h misses x by an ulp at some points, so the
    # member and its interpolant must be read at the same points
    table = run_refinement_study(StudyConfig(family, k, field="MS-P", mode="fixed_aspect",
                                             rho=rho, h0=0.3, levels=levels))
    assert [j.verdict for j in table.judged.values()] == ["pass", "pass"]
    assert {w: j.flags for w, j in table.judged.items()} == {"field": {"reproduction": True},
                                                             "div": {"reproduction": True}}


@pytest.mark.parametrize("family,k,field,mode", [
    ("RT", 1, "MS-G", "isotropic"), ("ABF", 2, "MS-P", "fixed_aspect"),
    ("BDM", 2, "MS-X", "shrink_x")])
def test_study_tabulates_the_error_rule_once(monkeypatch, family, k, field, mode):
    # the operator keeps its table: two studies on one cold operator tabulate
    # once, U, V and div from one factor_values pass over the rule's 20 nodes
    op = InterpolationOperator(build_space(family, k))
    monkeypatch.setattr(harness, "reference_operator", lambda family, k: op)
    calls = []
    original = interpolation.factor_values

    def counted(deg, t):
        calls.append(np.shape(t))
        return original(deg, t)

    monkeypatch.setattr(interpolation, "factor_values", counted)
    for _ in range(2):
        run_refinement_study(StudyConfig(family, k, field=field, mode=mode, levels=8))
    assert calls == [(NONPOLY_POINTS,)]
    assert op.rule_tables.shape == (op.space.dim, 3, NONPOLY_POINTS, NONPOLY_POINTS)


def _lone_solve(op, field):
    """One DOF vector and one lone solve of it for one field."""
    return op.solve(dof_vector_ld(op.dofs, field))


def _push_on_rule(tables, coeffs, rect: PhysicalRect) -> CallableField:
    """A member's push-forward on rect's mapped error rule: its coefficients
    contracted with the tables, then the Piola factors; no point is mapped
    back to the reference square."""
    U, V, D = (on_grid(np.tensordot(coeffs, t, axes=1)) for t in tables)
    return _values(U / rect.hy, V / rect.hx, D / (rect.hx * rect.hy))


def _enumerated_tables(space):
    """The basis U, V and div at the enumerated points of the 20 x 20 rule, one
    (dim, 400) table each: label b's x factor row times its y factor row
    (ElementSpace._rows) at each point."""
    xs, ys, _ = rule_points(NONPOLY_POINTS, NONPOLY_POINTS)
    Fx, Fy = (factor_values(space._maxdeg, z) for z in (xs, ys))
    return tuple(Fx[rx] * Fy[ry] for rx, ry in space._rows)


def _level_by_level_records(config):
    """The study one level at a time: a lone solve of the level's pull-back,
    the field's closed form at the level's enumerated rule points, both sides
    read from one table of the basis at those points and laid out on the grid."""
    fld = get_field(config.field, config.family, config.k, config.seed)
    op = reference_operator(config.family, config.k)
    tables = _enumerated_tables(op.space)
    records = []
    for level in range(config.levels):
        rect = config.rect_at(level)
        if isinstance(fld, ReproductionField):  # the pushed member pulls back to itself
            ref = fld.member
            sample = _push_on_rule(tables, fld.member.coeffs, rect)
        else:
            xs, ys, _ = enumerated_rule(rect.hx, rect.hy)
            ref = PulledBackField(fld, rect.hx, rect.hy)
            sample = _values(*map(on_grid, point_values(fld, xs, ys)))
        interp = _push_on_rule(tables, _lone_solve(op, ref), rect)
        nf = (rect.hx * rect.hy) ** (1.0 / config.p)
        nd = norm_Lp(sample, rect, config.p, "div")
        ef = error_Lp(sample, interp, rect, config.p, "field") / nf
        ed = error_Lp(sample, interp, rect, config.p, "div") / (nd if nd > 0 else nf)
        records.append(ErrorRecord(level, rect.hx, rect.hy, {"field": ef, "div": ed}))
    return records


_LEVEL_CASES = [(field, mode, 64.0, h0, p, 4)
                for h0, p in [(0.5, 1.0), (0.5, 7.5), (0.3, 1.0), (0.3, 7.5)]
                for field, mode in [("MS-X", "shrink_x"), ("MS-G", "isotropic"),
                                    ("MS-P", "fixed_aspect")]] + [
    ("MS-P", "fixed_aspect", 64.0, 0.3, 40.0, 4),  # ABF_2-4's roundoff errors: the fallback
    ("MS-G", "fixed_aspect", 0.5, 0.5, 2.0, 4),
    ("MS-X", "fixed_aspect", 0.5, 0.3, 3.0, 4)] + [
    # as many levels as the error rule's axis (NONPOLY_POINTS) or the
    # plan's (n + 2): a level axis must never pair with a rule axis
    (field, mode, 0.5, h0, 2.0, levels)
    for levels, h0 in [(NONPOLY_POINTS, 0.3), (NONPOLY_POINTS + 2, 0.5)]
    for field, mode in [("MS-X", "shrink_x"), ("MS-G", "isotropic"), ("MS-P", "fixed_aspect")]]


@pytest.mark.parametrize("field,mode,rho,h0,p,levels", _LEVEL_CASES, ids=[
    f"{field}-{mode}{'' if rho == 64.0 or mode != 'fixed_aspect' else f'({rho:g})'}-{h0}-{p}"
    + ("" if levels == 4 else f"-L{levels}")
    for field, mode, rho, h0, p, levels in _LEVEL_CASES])
@pytest.mark.parametrize("family,k", _PAIRS)
def test_batched_study_matches_level_by_level(family, k, field, mode, rho, h0, p, levels):
    # every product of the stacked solve and of its correction is one
    # matrix-vector product per level, the contraction one gemv per level and
    # the errors one root per level, so the batch keeps every bit, at
    # non-dyadic sizes too
    config = StudyConfig(family, k, p, field, mode, rho=rho, levels=levels, h0=h0)
    assert run_refinement_study(config).records == _level_by_level_records(config)


@pytest.mark.parametrize("levels", [3, 8])
@pytest.mark.parametrize("field,mode", [
    ("MS-G", "isotropic"), ("MS-P", "fixed_aspect"), ("MS-X", "shrink_x")])
def test_study_solves_all_levels_at_once(monkeypatch, field, mode, levels):
    config = StudyConfig("ABF", 2, field=field, mode=mode, levels=levels)
    run_refinement_study(config)  # warm the operator
    # one DOF-vector call and one stacked solve through the cached inverse:
    # nothing is factorised, and a solve per level would count `levels`
    calls = {"dof_vector_ld": 0, "solve": 0, "np.linalg.solve": 0, "np.linalg.inv": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(interpolation, "dof_vector_ld",
                        counting("dof_vector_ld", interpolation.dof_vector_ld))
    monkeypatch.setattr(InterpolationOperator, "solve",
                        counting("solve", InterpolationOperator.solve))
    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(f"np.linalg.{name}",
                                                      getattr(np.linalg, name)))
    run_refinement_study(config)
    assert calls == {"dof_vector_ld": 1, "solve": 1, "np.linalg.solve": 0, "np.linalg.inv": 0}

def test_study_stagnation_mode():
    # shrinking x cannot reduce a y-only divergence: stagnation must pass
    cfg = StudyConfig(family="RT", k=0, field="MS-Y", mode="shrink_x", levels=5)
    table = run_refinement_study(cfg)
    assert table.judged["div"].predicted == 0.0
    assert table.judged["div"].verdict == "pass"
    assert table.judged["div"].flags == {"stagnation": True}


def test_default_suite_shape():
    configs = default_suite_configs()
    assert len(configs) == 48
    modes = {(c.family.value, c.k, c.p, c.field, c.mode) for c in configs}
    assert len(modes) == 48
    assert ("BDM", 1, 1.0, "MS-G", "isotropic") in modes


def test_theorem_suite_explicit_configs():
    configs = [
        StudyConfig(family="RT", k=0, field="MS-X", mode="shrink_x", levels=4),
        StudyConfig(family="RT", k=0, field="MS-Y", mode="shrink_y", levels=4),
    ]
    result = theorem_suite(configs)
    assert result["ok"]
    assert result["failures"] == []
    assert result["commuting"] == []
    assert len(result["studies"]) == 2
    assert isinstance(result["studies"][0], ConvergenceTable)


def test_theorem_suite_names_a_failure_as_converge_prints_it():
    # the verdict carries its reason, and the mode its aspect ratio
    cfg = StudyConfig("RT", 0, field="MS-G", mode="fixed_aspect", rho=64.0)
    result = theorem_suite([cfg])
    assert result["failures"] == ["RT_0 fixed_aspect(64) MS-G p=2 div: inconclusive (non_monotone)"]
    assert result["studies"][0].verdict_text("div") == "inconclusive (non_monotone)"


def test_theorem_suite_empty_battery():
    # no study gives no verdict: an empty battery is refused, not passed
    for configs in ([], ()):
        with pytest.raises(ValueError, match="empty battery"):
            theorem_suite(configs)


def test_theorem_suite_default_battery_all_pass():
    result = theorem_suite()
    assert result["failures"] == []
    assert result["ok"]
    assert len(result["studies"]) == 48
    assert len(result["commuting"]) == 8
    assert max(c["residual"] for c in result["commuting"]) <= 1e-10


def test_theorem_suite_fails_a_nan_commuting_residual(monkeypatch):
    # the residual started at 0.0, and max(0.0, nan) read 0.0 and passed
    real = interpolation.commuting_residuals

    def residuals(family, k, fields, replace_div_moments=False):
        out = real(family, k, fields, replace_div_moments)
        return np.where([fld.id == "B-3" for fld in fields], math.nan, out)

    monkeypatch.setattr(interpolation, "commuting_residuals", residuals)
    monkeypatch.setattr(harness, "default_suite_configs", lambda: [])  # commuting checks only
    result = theorem_suite()
    assert not result["ok"]
    assert len(result["failures"]) == len(result["commuting"]) == 8
    assert all(math.isnan(c["residual"]) for c in result["commuting"])
    assert result["failures"][0] == "RT_0 commuting-diagram residual nan"


def test_unknown_field_reads_the_same_from_every_entry_point():
    message = "unknown field 'xyz' (choose from MS-G, MS-X, MS-Y, MS-P)"
    for entry in (lambda: get_field("xyz"), lambda: StudyConfig(field="xyz")):
        with pytest.raises(ValueError) as exc:
            entry()
        assert str(exc.value) == message


def test_theorem_suite_reports_broken_commutation():
    # negative control: swapping out the ABF divergence moments must surface
    # as named commuting failures while every refinement study still runs
    result = theorem_suite(replace_div_moments=True)
    assert not result["ok"]
    abf_failures = [f for f in result["failures"] if "commuting" in f]
    assert abf_failures and all(f.startswith("ABF_") for f in abf_failures)
    assert {f.split()[0] for f in abf_failures} == {"ABF_0", "ABF_1", "ABF_2"}


# ------------------------------------------------------ one pass per study


@pytest.mark.parametrize("family,k,field,mode", [
    ("ABF", 2, "MS-G", "isotropic"), ("BDM", 3, "MS-P", "fixed_aspect")])
def test_study_is_one_pass(monkeypatch, fresh_field_sides, family, k, field, mode):
    # one rectangle stack, one mapped error rule, one _lp_sum for the div norm
    # and both errors and no public error_Lp, one contraction with the operator's
    # table per coefficient set (MS-P's member and its interpolant), and no
    # np.polyfit: each rate is a closed-form slope
    config = StudyConfig(family, k, field=field, mode=mode, levels=6)
    run_refinement_study(config)  # warm the operator, its table and the stack's field side
    calls = dict.fromkeys(["PhysicalRect", "_mapped_rule", "error_Lp", "_lp_sum", "contract",
                           "np.polyfit"], 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("_mapped_rule", "error_Lp", "_lp_sum", "contract"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    monkeypatch.setattr(PhysicalRect, "__post_init__",
                        counting("PhysicalRect", PhysicalRect.__post_init__))
    monkeypatch.setattr(np, "polyfit", counting("np.polyfit", np.polyfit))
    table = run_refinement_study(config)
    fitted = sum(j.fitted is not None for j in table.judged.values())
    assert fitted == (2 if field == "MS-G" else 0)  # MS-P's windows hold exact zeros
    assert calls == {"PhysicalRect": 1, "_mapped_rule": 1, "error_Lp": 0, "_lp_sum": 1,
                     "contract": 2 if field == "MS-P" else 1, "np.polyfit": 0}


_REDUCTIONS = [(field, mode, p, h0) for field in ("MS-G", "MS-X", "MS-Y", "MS-P")
               for mode in MODES for p in (1.0, 1.5, 2.0, 7.5, 40.0, 100.0) for h0 in (0.5, 0.3)]


@pytest.mark.parametrize("field,mode,p,h0", _REDUCTIONS)
def test_stacked_reduction_matches_per_quantity_calls(monkeypatch, field, mode, p, h0):
    # the study's one L^p sum returns the rows norm_Lp(div), error_Lp(field)
    # and error_Lp(div) of the same two sides, equal, not close; 7 of the 16 MS-P
    # cases at p >= 40 take the rescaling fallback on roundoff errors; the cases
    # share out the 14 (family, k)
    family, k = _PAIRS[_REDUCTIONS.index((field, mode, p, h0)) % len(_PAIRS)]
    config = StudyConfig(family, k, p, field, mode, levels=6, h0=h0)
    stacked = []

    def keep(*args):
        stacked.append(_lp_sum(*args))
        return stacked[-1]

    monkeypatch.setattr(harness, "_lp_sum", keep)
    run_refinement_study(config)
    monkeypatch.undo()
    fld = get_field(field, family, k, config.seed)
    op = reference_operator(family, k)
    rect = config.rect_at(np.arange(config.levels)[:, None, None])
    hx, hy = rect.hx, rect.hy

    def push(coeffs):  # the study's interpolant: its contraction, then the Piola factors
        U, V, D = np.moveaxis(contract(coeffs, op.rule_tables), -3, 0)
        return _values(U / hy, V / hx, D / (hx * hy))

    if field == "MS-P":
        sample, ref = push(fld.member.coeffs), fld.member
    else:
        sample, ref = fld, PulledBackField(fld, hx, hy)
    interp = push(op.solve_coefficients(ref))
    lone = [norm_Lp(sample, rect, p, "div"), error_Lp(sample, interp, rect, p, "field"),
            error_Lp(sample, interp, rect, p, "div")]
    assert len(stacked) == 1 and stacked[0].shape == (3, config.levels)
    assert stacked[0].tolist() == [row.tolist() for row in lone]


# ------------------------------------------- one field side per rectangle stack

# the benchmark's refine battery: the default suite plus 18 high-degree 8-level studies
REFINE_BATTERY = default_suite_configs() + [
    StudyConfig(family, k, 2.0, field, mode, levels=8)
    for family in ("RT", "BDM", "ABF") for k in (3, 4)
    for field, mode in (("MS-G", "isotropic"), ("MS-P", "fixed_aspect"), ("MS-X", "shrink_x"))]


def _tag(config) -> str:
    return f"{config.family.value}_{config.k}-{config.field}-{config.mode}-p{config.p:g}-L{config.levels}"


def _sides(config) -> tuple:
    """The field-side key of a study: the floats of its stack's sides."""
    stack = config.rect_at(np.arange(config.levels)[:, None, None])
    return tuple(stack.hx.ravel().tolist()), tuple(stack.hy.ravel().tolist())


def _on_rule(fld, hx, hy):
    """fld's closed-form u, v and div on the axes of the stack's mapped rule,
    (3, n, 20, 20), apart from its factor sample."""
    x, y, _ = _mapped_rule(hx, hy)
    x, y = x[..., :, None], y[..., None, :]
    return np.stack(np.broadcast_arrays(*(fld.partial(0, 0, c)(x, y) for c in range(3))))


def _inline_side(fld, hxs, hys):
    """The field side built in place for every study, uncached: the pull-back's own
    factor sample, wherever it is asked for, and the field's closed form on the rule."""
    hx, hy = (np.array(h)[:, None, None] for h in (hxs, hys))
    return types.SimpleNamespace(factor_sample=PulledBackField(fld, hx, hy).factor_sample,
                                 values=_on_rule(fld, hx, hy))


def _converge_output(config) -> tuple:
    """converge --format json on the config: its exit code and stdout, the JSON
    document and the verdict lines."""
    mode = f"fixed_aspect({config.rho!r})" if config.mode == "fixed_aspect" else config.mode
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["converge", "--family", config.family.value, "--k", str(config.k),
                         "--p", repr(config.p), "--field", config.field, "--mode", mode,
                         "--levels", str(config.levels), "--h0", repr(config.h0),
                         "--format", "json"])
    return code, out.getvalue()


def _cold_warm_inline(config) -> list:
    """The study and its converge output three ways: each on an emptied cache, then
    both again on the entry they filled (both read it: two hits, none for MS-P),
    then with the field side built inline."""
    runs = []
    harness.field_side.cache_clear()
    table = run_refinement_study(config)
    harness.field_side.cache_clear()
    runs.append((table, _converge_output(config)))
    runs.append((run_refinement_study(config), _converge_output(config)))
    assert harness.field_side.cache_info().hits == (0 if config.field == "MS-P" else 2)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "field_side", _inline_side)
        runs.append((run_refinement_study(config), _converge_output(config)))
    harness.field_side.cache_clear()
    return runs


@pytest.mark.parametrize("config", REFINE_BATTERY, ids=_tag)
def test_a_cached_field_side_changes_no_battery_study(fresh_field_sides, config):
    # records, fits, verdicts and the JSON bytes, equal, not close
    cold, warm, inline = _cold_warm_inline(config)
    assert cold == warm == inline
    assert cold[1][1].startswith('{"config": ')


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(harness.FIELD_IDS), mode=st.sampled_from(MODES),
       h0=st.one_of(st.sampled_from([0.3, 0.5, 1.0]), st.floats(0.01, 1.0)),
       rho=st.floats(0.5, 100.0), levels=st.integers(3, 10),
       pair=st.sampled_from([(f.value, k) for f in ElementFamily for k in degree_range(f)]),
       p=st.one_of(st.sampled_from([1.0, 2.0, 40.0]), st.floats(1.0, 60.0)))
@example(field="MS-G", mode="isotropic", h0=0.3, rho=64.0, levels=6, pair=("ABF", 2), p=1.5)
@example(field="MS-X", mode="fixed_aspect", h0=0.3, rho=0.5, levels=5, pair=("BDM", 4), p=7.5)
def test_a_cached_field_side_changes_no_study(field, mode, h0, rho, levels, pair, p):
    assume(mode != "fixed_aspect" or h0 <= rho)
    cold, warm, inline = _cold_warm_inline(StudyConfig(*pair, p, field, mode, rho=rho,
                                                       levels=levels, h0=h0))
    assert cold == warm == inline


@pytest.mark.parametrize("config", [c for c in REFINE_BATTERY if c.field != "MS-P"][::5],
                         ids=_tag)
def test_the_field_side_is_the_pull_back_and_the_field_on_the_rule(fresh_field_sides, config):
    # the pull-back's factor sample on the 20-point plan's nodes and the field on the
    # mapped rule, of the study's own stack, bit for bit and in the same float types
    fld = get_field(config.field)
    stack = config.rect_at(np.arange(config.levels)[:, None, None])
    side = fresh_field_sides(fld, *_sides(config))
    nodes = plan_nodes(NONPOLY_POINTS)
    got = (*side.factor_sample(nodes, nodes), side.values)
    want = (*PulledBackField(fld, stack.hx, stack.hy).factor_sample(nodes, nodes),
            _on_rule(fld, stack.hx, stack.hy))
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("battery,sides", [(default_suite_configs(), 3), (REFINE_BATTERY, 5)],
                         ids=["default-suite", "refine-battery"])
def test_studies_on_one_field_and_stack_share_its_field_side(fresh_field_sides, battery, sides):
    # one pull-back sample and one error-rule sample per field and stack (two
    # factor samples of the field), where every manufactured-field study took its
    # own (48 and 60), none on a second pass, and no closed-form partial
    targets = [(PulledBackField, "factor_sample"), (ManufacturedField, "factor_sample"),
               (ManufacturedField, "partial")]
    calls = {f"{cls.__name__}.{name}": 0 for cls, name in targets}
    with pytest.MonkeyPatch.context() as m:
        for cls, name in targets:
            def counted(self, *args, real=getattr(cls, name), key=f"{cls.__name__}.{name}"):
                calls[key] += 1
                return real(self, *args)
            m.setattr(cls, name, counted)
        for _ in range(2):
            for config in battery:
                run_refinement_study(config)
    assert calls == {"PulledBackField.factor_sample": sides,
                     "ManufacturedField.factor_sample": 2 * sides, "ManufacturedField.partial": 0}
    assert fresh_field_sides.cache_info().currsize == sides


def test_the_field_side_cache_is_bounded(fresh_field_sides):
    maxsize = fresh_field_sides.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    for i in range(50):  # 50 distinct stacks
        run_refinement_study(StudyConfig("RT", 0, field=("MS-G", "MS-X")[i % 2],
                                         h0=0.3 + i / 100, levels=3))
        assert fresh_field_sides.cache_info().currsize <= maxsize
    assert fresh_field_sides.cache_info().misses == 50


@pytest.mark.parametrize("field,mode", [("MS-G", "isotropic"), ("MS-X", "shrink_x"),
                                        ("MS-Y", "fixed_aspect")])
def test_the_field_side_is_read_only(fresh_field_sides, field, mode):
    config = StudyConfig("ABF", 1, field=field, mode=mode, levels=4)
    run_refinement_study(config)
    side = fresh_field_sides(get_field(field), *_sides(config))
    assert fresh_field_sides.cache_info().hits == 1  # the study's own entry
    arrays = (*side.factor_sample(None, None), side.values)
    assert len(arrays) == 3
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2
