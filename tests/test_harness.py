"""Piola transport, physical errors, rate fitting, and study verdicts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdivkit import harness, interpolation
from hdivkit.elements import ElementFamily, ElementSpace, build_space, degree_range
from hdivkit.fields import MS_G, MS_X, MS_Y, ReproductionField, get_field
from hdivkit.harness import (
    MIN_H,
    MODES,
    REPRO_TOL,
    ZERO_FIELD,
    ConvergenceTable,
    ErrorRecord,
    PhysicalRect,
    PulledBackField,
    StudyConfig,
    bdm_sharpness_witness,
    default_suite_configs,
    error_Lp,
    fit_window,
    fitted_rate,
    norm_Lp,
    piola_push,
    predicted_div_rate,
    predicted_field_rate,
    run_refinement_study,
    theorem_suite,
    _lp_sum,
    _mapped_rule,
    _Values,
    _verdict,
)
from hdivkit import interpolation
from hdivkit.dofs import dof_vector_ld
from hdivkit.interpolation import InterpolationOperator, reference_operator
from hdivkit.poly import Polynomial2D, VectorPoly2D
from hdivkit.quadrature import NONPOLY_POINTS, tensor_rule
from reference_oracle import apply_dof, enumerated_rule, error_Lp_reference, on_grid


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


def test_pullback_constant_field():
    # contravariant map scales components by the opposite edge length
    rect = PhysicalRect(2.0, 3.0)
    ref = PulledBackField(_vec(0, 0, 0, 0, cv=0.0), rect.hx, rect.hy)
    U, V = ref.uv(np.array([0.25]), np.array([0.5]))
    assert U[0] == pytest.approx(3.0, rel=1e-15)
    assert V[0] == pytest.approx(0.0, abs=1e-15)


def test_pullback_divergence_identity():
    # reference divergence is hx hy times the physical one at the image point
    rect = PhysicalRect(2.0, 3.0)
    fld = _vec(1, 0, 0, 0, cv=0.0)  # (x, 0), div = 1
    ref = PulledBackField(fld, rect.hx, rect.hy)
    assert ref.div_values(0.3, 0.8) == pytest.approx(6.0, rel=1e-15)


def test_pullback_identity_rect():
    rect = PhysicalRect(1.0, 1.0)
    fld = _vec(2, 1, 0, 2)
    ref = PulledBackField(fld, rect.hx, rect.hy)
    xs = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    np.testing.assert_allclose(ref.uv(X, Y)[0], fld.uv(X, Y)[0], atol=1e-15)
    np.testing.assert_allclose(ref.uv(X, Y)[1], fld.uv(X, Y)[1], atol=1e-15)


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
    ref_div = member.div_values(x / rect.hx, y / rect.hy)
    assert phys.div_values(x, y) == pytest.approx(ref_div / (rect.hx * rect.hy), rel=1e-14)


def test_push_then_pull_back_samples_the_member():
    # piola_push and PulledBackField are inverse maps: the round trip samples
    # the member itself, up to the roundoff of (h x) / h and h (U / h)
    rect = PhysicalRect(0.25, 0.7)
    member = build_space("RT", 1).random_member(np.random.default_rng(5))
    back = PulledBackField(piola_push(rect, member), rect.hx, rect.hy)
    xs = np.linspace(0.0, 1.0, 7)
    x, y = xs[:, None], xs[None, :]
    for got, want in zip((*back.uv(x, y), back.div_values(x, y)),
                         (*member.uv(x, y), member.div_values(x, y))):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


# ------------------------------------------------------------------ errors


def test_error_Lp_pinned_div():
    # unit divergence against zero on a 2 x 3 box: L2 mass is sqrt(6)
    rect = PhysicalRect(2.0, 3.0)
    fld = _vec(1, 0, 0, 0, cv=0.0)
    assert error_Lp(fld, ZERO_FIELD, rect, 2.0, "div") == pytest.approx(
        math.sqrt(6.0), rel=1e-14
    )
    assert error_Lp(fld, ZERO_FIELD, rect, 1.0, "div") == pytest.approx(6.0, rel=1e-14)


def test_error_Lp_pinned_field():
    rect = PhysicalRect(1.0, 1.0)
    fld = _vec(0, 0, 0, 0, cu=3.0, cv=4.0)  # |(3,4)| = 5 everywhere
    assert error_Lp(fld, ZERO_FIELD, rect, 2.0, "field") == pytest.approx(5.0, rel=1e-14)


def test_error_Lp_validation():
    rect = PhysicalRect(1.0, 1.0)
    with pytest.raises(ValueError):
        error_Lp(MS_G, ZERO_FIELD, rect, 0.5, "field")
    with pytest.raises(ValueError):
        error_Lp(MS_G, ZERO_FIELD, rect, 2.0, "curl")


@pytest.mark.parametrize("compute", [
    lambda p, which: error_Lp(MS_G, ZERO_FIELD, PhysicalRect(1.0, 1.0), p, which),
    lambda p, which: norm_Lp(MS_G, PhysicalRect(1.0, 1.0), p, which),
    lambda p, which: error_Lp_reference(MS_G, ZERO_FIELD, PhysicalRect(1.0, 1.0), p, which),
], ids=["error_Lp", "norm_Lp", "error_Lp_reference"])
@pytest.mark.parametrize("p,which,message", [
    (math.nan, "field", "p must be >= 1"),
    (2.0, "bogus", "which must be 'field' or 'div'"),
])
def test_lp_arguments_checked(compute, p, which, message):
    # nan slips past p < 1, and the oracle took any which but 'field' as 'div'
    with pytest.raises(ValueError, match=message):
        compute(p, which)


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
    a, b = (_Values(*(scale * rng.standard_normal((len(rows), NONPOLY_POINTS, NONPOLY_POINTS))
                      for _ in range(3))) for _ in range(2))
    stack = PhysicalRect(hx, hy)
    errors, norms = error_Lp(a, b, stack, p, which), norm_Lp(a, stack, p, which)
    _, _, ws = _mapped_rule(hx, hy)
    mags = np.hypot(a.U - b.U, a.V - b.V) if which == "field" else np.abs(a.D - b.D)
    mags = mags.reshape(ws.shape)
    sums = _lp_sum(ws, mags, p)
    assert errors.shape == norms.shape == sums.shape == (len(rows),)
    for i, (x, y, _) in enumerate(rows):
        rect = PhysicalRect(x, y)
        a_i, b_i = (_Values(f.U[i], f.V[i], f.D[i]) for f in (a, b))
        assert errors[i] == error_Lp(a_i, b_i, rect, p, which)
        assert norms[i] == norm_Lp(a_i, rect, p, which)
        assert sums[i] == _lp_sum(ws[i], mags[i], p) == _lone_lp_sum(ws[i], mags[i], p)


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
        assert "reproduction" not in table.flags.get(which, {})
    rule = tensor_rule(NONPOLY_POINTS, NONPOLY_POINTS)
    for rec in table.records:
        rect = PhysicalRect(rec.hx, rec.hy)
        interp = _on_rect("RT", 1, rect, MS_G)
        xs, ys, ws = rect.hx * rule.xs, rect.hy * rule.ys, rect.hx * rect.hy * rule.ws
        (U1, V1), (U2, V2) = MS_G.uv(xs, ys), interp.uv(xs, ys)
        d1, d2 = MS_G.div_values(xs, ys), interp.div_values(xs, ys)
        ef = _lp_max_scaled(ws, np.hypot(U1 - U2, V1 - V2), p) / (rect.hx * rect.hy) ** (1 / p)
        ed = _lp_max_scaled(ws, np.abs(d1 - d2), p) / _lp_max_scaled(ws, np.abs(d1), p)
        assert rec.err_field_Lp > 0 and rec.err_div_Lp > 0
        assert rec.err_field_Lp == pytest.approx(ef, rel=1e-12)
        assert rec.err_div_Lp == pytest.approx(ed, rel=1e-12)


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
    assert predicted_div_rate("RT", k, MS_X, 1, 0) == k + 1
    assert predicted_div_rate("RT", k, MS_Y, 0, 1) == k + 1
    # refining x cannot help a divergence that depends only on y
    assert predicted_div_rate("RT", k, MS_Y, 1, 0) == 0.0
    assert predicted_field_rate("RT", k, MS_X, 1, 0) == k + 1
    assert predicted_div_rate("RT", k, MS_G, 1, 1) == k + 1


@pytest.mark.parametrize("k", [1, 2])
def test_predicted_rates_bdm(k):
    assert predicted_div_rate("BDM", k, MS_G, 1, 1) == k
    assert predicted_field_rate("BDM", k, MS_G, 1, 1) == k + 1


@pytest.mark.parametrize("k", [0, 1])
def test_predicted_rates_abf(k):
    assert predicted_div_rate("ABF", k, MS_G, 1, 1) == k + 2
    assert predicted_div_rate("ABF", k, MS_X, 1, 0) == k + 1
    assert predicted_div_rate("ABF", k, MS_G, 1, 1) == k + 2


# ------------------------------------------------------------- sharpness


def test_bdm_sharpness_witness():
    # div = x^{k-1} y sits in Q_k but outside P_{k-1}: BDM must miss it.
    # Commutation pins the BDM div error at the L2 distance of x^{k-1} y
    # from P_{k-1}: 1/sqrt(12) for k = 1, 1/12 for k = 2.
    rect = PhysicalRect(1.0, 1.0)
    expected = {1: 1.0 / math.sqrt(12.0), 2: 1.0 / 12.0}
    for k in (1, 2):
        w = bdm_sharpness_witness(k)
        bdm = _on_rect("BDM", k, rect, w)
        rt = _on_rect("RT", k, rect, w)
        assert error_Lp(w, bdm, rect, 2.0, "div") == pytest.approx(expected[k], rel=1e-10)
        assert error_Lp(w, rt, rect, 2.0, "div") <= 1e-12
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
    ({"levels": 60}, "levels=60 with h0=0.5 and rho=64 shrinks a side below 1e-08"),
    ({"levels": 27}, "levels=27 with h0=0.5 and rho=64 shrinks a side"),
    ({"mode": "fixed_aspect", "levels": 40}, "levels=40 with h0=0.5 and rho=64 shrinks"),
    ({"mode": "shrink_y", "h0": 1e-3, "levels": 18}, "levels=18 with h0=0.001 and rho=64"),
    ({"levels": 10**400}, "shrinks a side"),  # 2.0**-levels overflows
    # a float level count constructed, then the study crashed in range()
    ({"levels": 6.5}, "levels must be an integer"),
    ({"levels": 4.0}, "levels must be an integer"),
])
def test_config_owns_the_study_schema(kwargs, message):
    # the rules converge applies are the config's own, so a library caller
    # cannot build a study the CLI would reject
    with pytest.raises(ValueError, match=message):
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
    assert table.predicted_rate_div == 1.0
    assert table.verdict_div == "pass"
    assert table.verdict_field == "pass"
    assert table.ok
    rates = table.level_rates("div")
    assert rates[0] is None and len(rates) == 5
    errs = [r.err_div_Lp for r in table.records]
    assert rates[1] == pytest.approx(math.log2(errs[0] / errs[1]))


def test_study_reproduction_field():
    cfg = StudyConfig(family="RT", k=1, field="MS-P", mode="fixed_aspect",
                      rho=64.0, levels=4, seed=11)
    table = run_refinement_study(cfg)
    assert all(r.err_field_Lp <= 1e-12 for r in table.records)
    assert all(r.err_div_Lp <= 1e-12 for r in table.records)
    assert table.flags == {"field": {"reproduction": True}, "div": {"reproduction": True}}
    assert table.ok



def _per_level_records(config):
    """A study's records computed level by level on the fields themselves:
    pull back, interpolate and push forward (an MS-P member is its own
    pull-back), then norm_Lp and error_Lp sampling both sides."""
    fld = get_field(config.field, config.family, config.k, config.seed)
    op = reference_operator(config.family, config.k)
    records = []
    for level in range(config.levels):
        rect = config.rect_at(level)
        if isinstance(fld, ReproductionField):
            phys, ref = piola_push(rect, fld.member), fld.member
        else:
            phys, ref = fld, PulledBackField(fld, rect.hx, rect.hy)
        interp = piola_push(rect, op.interpolate(ref))
        nf = (rect.hx * rect.hy) ** (1.0 / config.p)
        nd = norm_Lp(phys, rect, config.p, "div")
        ef = error_Lp(phys, interp, rect, config.p, "field") / nf
        ed = error_Lp(phys, interp, rect, config.p, "div") / (nd if nd > 0 else nf)
        records.append(ErrorRecord(level, rect.hx, rect.hy, ef, ed))
    return records


_PAIRS = [(f.value, k) for f in ElementFamily for k in degree_range(f)]


@pytest.mark.parametrize("field,mode,levels", [
    ("MS-X", "shrink_x", 4), ("MS-G", "isotropic", 3), ("MS-P", "fixed_aspect", 4)])
@pytest.mark.parametrize("family,k", _PAIRS)
def test_study_matches_per_level_loop(family, k, field, mode, levels):
    # at h0 = 0.5 every side is a power of two, so the study's one table
    # reads the very points the fields are sampled at: equal, not close
    config = StudyConfig(family, k, field=field, mode=mode, rho=64.0, levels=levels, h0=0.5)
    assert run_refinement_study(config).records == _per_level_records(config)


# every study of these that read pass (reproduction) when each level sampled
# both sides at its own points; at aspect 64 ABF_3 and ABF_4 read
# inconclusive (non_monotone) at the Piola-inflated floor
_NON_DYADIC = [(f, k, 10.0, 5) for f, k in _PAIRS] + [
    (f, k, 64.0, 8) for f, k in _PAIRS if (f, k) not in (("ABF", 3), ("ABF", 4))]


@pytest.mark.parametrize("family,k,rho,levels", _NON_DYADIC)
def test_non_dyadic_reproduction_study_passes(family, k, rho, levels):
    # at h0 = 0.3, (h x) / h misses x by an ulp at some points, so the
    # member and its interpolant must be read at the same points
    table = run_refinement_study(StudyConfig(family, k, field="MS-P", mode="fixed_aspect",
                                             rho=rho, h0=0.3, levels=levels))
    assert (table.verdict_field, table.verdict_div) == ("pass", "pass")
    assert table.flags == {"field": {"reproduction": True}, "div": {"reproduction": True}}


@pytest.mark.parametrize("family,k,field,mode", [
    ("RT", 1, "MS-G", "isotropic"), ("ABF", 2, "MS-P", "fixed_aspect"),
    ("BDM", 2, "MS-X", "shrink_x")])
def test_study_tabulates_the_error_rule_once(monkeypatch, family, k, field, mode):
    # the operator keeps its tables: two studies on one cold operator tabulate once
    op = InterpolationOperator(build_space(family, k))
    monkeypatch.setattr(harness, "reference_operator", lambda family, k: op)
    npoints = NONPOLY_POINTS**2
    calls = {"tabulate": 0, "tabulate_div": 0}
    for name in calls:
        original = getattr(ElementSpace, name)

        def counted(self, x, y, _name=name, _original=original):
            calls[_name] += np.broadcast(x, y).size == npoints
            return _original(self, x, y)

        monkeypatch.setattr(ElementSpace, name, counted)
    for _ in range(2):
        run_refinement_study(StudyConfig(family, k, field=field, mode=mode, levels=8))
    assert calls == {"tabulate": 1, "tabulate_div": 1}


def _lone_solve(op, field):
    """One DOF vector and one lone solve of it for one field."""
    return op.solve(dof_vector_ld(op.dofs, field))


def _push_on_rule(tables, coeffs, rect: PhysicalRect) -> _Values:
    """A member's push-forward on rect's mapped error rule: its coefficients
    contracted with the tables as in SpaceMember.uv, then the Piola factors
    of PhysicalMemberField; no point is mapped back to the reference square."""
    U, V, D = (on_grid(np.tensordot(coeffs, t, axes=1)) for t in tables)
    return _Values(U / rect.hy, V / rect.hx, D / (rect.hx * rect.hy))


def _level_by_level_records(config):
    """The study one level at a time: a lone solve of the level's pull-back,
    the field sampled at the level's enumerated rule points, both sides read
    from one table of the basis at those points and laid out on the grid."""
    fld = get_field(config.field, config.family, config.k, config.seed)
    op = reference_operator(config.family, config.k)
    rule = tensor_rule(NONPOLY_POINTS, NONPOLY_POINTS)
    tables = (*op.space.tabulate(rule.xs, rule.ys), op.space.tabulate_div(rule.xs, rule.ys))
    records = []
    for level in range(config.levels):
        rect = config.rect_at(level)
        if isinstance(fld, ReproductionField):  # the pushed member pulls back to itself
            ref = fld.member
            sample = _push_on_rule(tables, fld.member.coeffs, rect)
        else:
            xs, ys, _ = enumerated_rule(rect.hx, rect.hy)
            ref = PulledBackField(fld, rect.hx, rect.hy)
            sample = _Values(*map(on_grid, (*fld.uv(xs, ys), fld.div_values(xs, ys))))
        interp = _push_on_rule(tables, _lone_solve(op, ref), rect)
        nf = (rect.hx * rect.hy) ** (1.0 / config.p)
        nd = norm_Lp(sample, rect, config.p, "div")
        ef = error_Lp(sample, interp, rect, config.p, "field") / nf
        ed = error_Lp(sample, interp, rect, config.p, "div") / (nd if nd > 0 else nf)
        records.append(ErrorRecord(level, rect.hx, rect.hy, ef, ed))
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
    # the stacked solve runs one matrix-vector product per level and sweep,
    # the contraction one gemv per level and the errors one root per level, so
    # the batch keeps every bit, at non-dyadic sizes too
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
    assert table.predicted_rate_div == 0.0
    assert table.verdict_div == "pass"
    assert table.flags.get("div") == {"stagnation": True}


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
    result = theorem_suite([])
    assert result["ok"]
    assert result["studies"] == [] and result["failures"] == []


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
