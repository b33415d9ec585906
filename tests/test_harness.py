"""Piola transport, physical errors, rate fitting, and study verdicts."""

import math
import warnings

import numpy as np
import pytest

from hdivkit.elements import build_space, degree_range
from hdivkit.fields import MS_G, MS_X, MS_Y
from hdivkit.harness import (
    MIN_H,
    MODES,
    REPRO_TOL,
    ZERO_FIELD,
    ConvergenceTable,
    PhysicalRect,
    StudyConfig,
    bdm_sharpness_witness,
    default_suite_configs,
    error_Lp,
    error_Lp_reference,
    fit_window,
    fitted_rate,
    interpolate_on_rect,
    norm_Lp,
    piola_pullback,
    piola_push,
    predicted_div_rate,
    predicted_field_rate,
    run_refinement_study,
    theorem_suite,
    _verdict,
)
from hdivkit.interpolation import reference_operator
from hdivkit.poly import Polynomial2D, VectorPoly2D
from hdivkit.quadrature import NONPOLY_POINTS, tensor_rule


def _vec(ux, uy, vx, vy, cu=1.0, cv=1.0):
    return VectorPoly2D(
        Polynomial2D.monomial(ux, uy, cu), Polynomial2D.monomial(vx, vy, cv)
    )


# ------------------------------------------------------------- geometry


@pytest.mark.parametrize("hx,hy", [(0.0, 1.0), (1.0, -2.0), (1e-9, 1.0), (1.0, 0.0)])
def test_rect_rejects_degenerate(hx, hy):
    with pytest.raises(ValueError):
        PhysicalRect(hx, hy)


def test_pullback_constant_field():
    # contravariant map scales components by the opposite edge length
    rect = PhysicalRect(2.0, 3.0)
    ref = piola_pullback(rect, _vec(0, 0, 0, 0, cv=0.0))
    U, V = ref.uv(np.array([0.25]), np.array([0.5]))
    assert U[0] == pytest.approx(3.0, rel=1e-15)
    assert V[0] == pytest.approx(0.0, abs=1e-15)


def test_pullback_divergence_identity():
    # reference divergence is hx hy times the physical one at the image point
    rect = PhysicalRect(2.0, 3.0)
    fld = _vec(1, 0, 0, 0, cv=0.0)  # (x, 0), div = 1
    ref = piola_pullback(rect, fld)
    assert ref.divergence().eval(0.3, 0.8) == pytest.approx(6.0, rel=1e-15)


def test_pullback_identity_rect():
    rect = PhysicalRect(1.0, 1.0)
    fld = _vec(2, 1, 0, 2)
    ref = piola_pullback(rect, fld)
    xs = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    np.testing.assert_allclose(ref.uv(X, Y)[0], fld.uv(X, Y)[0], atol=1e-15)
    np.testing.assert_allclose(ref.uv(X, Y)[1], fld.uv(X, Y)[1], atol=1e-15)


def test_pullback_sampling_path_matches_poly_path():
    rect = PhysicalRect(0.5, 0.125)
    fld = _vec(2, 1, 1, 2, 1.5, -0.5)

    class Wrapper:
        def uv(self, x, y):
            return fld.uv(x, y)

        def div_values(self, x, y):
            return fld.div_values(x, y)

    exact = piola_pullback(rect, fld)
    sampled = piola_pullback(rect, Wrapper())
    xs = np.linspace(0.0, 1.0, 7)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for a, b in zip(exact.uv(X, Y), sampled.uv(X, Y)):
        np.testing.assert_allclose(a, b, atol=1e-14)
    np.testing.assert_allclose(
        exact.divergence().eval(X, Y), sampled.div_values(X, Y), atol=1e-14
    )


def test_push_pull_round_trip():
    rect = PhysicalRect(0.25, 0.7)
    member = build_space("RT", 1).random_member(np.random.default_rng(5))
    phys = piola_push(rect, member)
    assert piola_pullback(rect, phys) is member


ALL_PAIRS = [(f, k) for f in ("RT", "BDM", "ABF") for k in degree_range(f)]


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_bare_member_interpolates_to_itself(family, k):
    # a member handed in as a physical field is sampled, not pulled back
    # through its monomial views (those lost 1.5e-9 at ABF_4)
    member = build_space(family, k).random_member(np.random.default_rng(7))
    interp = interpolate_on_rect(family, k, PhysicalRect(1.0, 1.0), member)
    err = np.abs(interp.member.coeffs - member.coeffs).max() / np.abs(member.coeffs).max()
    assert err <= REPRO_TOL


def test_push_divergence_scaling():
    rect = PhysicalRect(0.5, 0.25)
    member = build_space("ABF", 0).random_member(np.random.default_rng(6))
    phys = piola_push(rect, member)
    x, y = 0.3, 0.2
    ref_div = member.div_values(x / rect.hx, y / rect.hy)
    assert phys.div_values(x, y) == pytest.approx(ref_div / (rect.hx * rect.hy), rel=1e-14)


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


def test_norm_homogeneity():
    rect = PhysicalRect(0.75, 0.5)
    fld = _vec(1, 1, 2, 0)
    scaled = _vec(1, 1, 2, 0, 3.0, 3.0)
    for p in (1.0, 2.0):
        for which in ("field", "div"):
            assert norm_Lp(scaled, rect, p, which) == pytest.approx(
                3.0 * norm_Lp(fld, rect, p, which), rel=1e-13
            )


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
        interp = interpolate_on_rect("RT", 1, rect, MS_G)
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
    interp = interpolate_on_rect("RT", 1, rect, MS_G)
    a = error_Lp(MS_G, interp, rect, p, which)
    b = error_Lp_reference(piola_pullback(rect, MS_G), interp.member, rect, p, which)
    assert a == pytest.approx(b, rel=1e-12)


def test_physical_interpolant_matches_moments():
    # pulled-back field and interpolant agree on every reference moment
    from hdivkit.dofs import apply_dof

    rect = PhysicalRect(1.0, 0.25)
    interp = interpolate_on_rect("ABF", 1, rect, MS_G)
    ref = piola_pullback(rect, MS_G)
    op = reference_operator("ABF", 1)
    for fn in op.dofs.functionals:
        assert apply_dof(fn, interp.member) == pytest.approx(
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
    assert predicted_div_rate("RT", k, MS_X, "shrink_x", 1, 0) == k + 1
    assert predicted_div_rate("RT", k, MS_Y, "shrink_y", 0, 1) == k + 1
    # refining x cannot help a divergence that depends only on y
    assert predicted_div_rate("RT", k, MS_Y, "shrink_x", 1, 0) == 0.0
    assert predicted_field_rate("RT", k, MS_X, "shrink_x", 1, 0) == k + 1
    assert predicted_div_rate("RT", k, MS_G, "isotropic", 1, 1) == k + 1


@pytest.mark.parametrize("k", [1, 2])
def test_predicted_rates_bdm(k):
    assert predicted_div_rate("BDM", k, MS_G, "isotropic", 1, 1) == k
    assert predicted_field_rate("BDM", k, MS_G, "isotropic", 1, 1) == k + 1


@pytest.mark.parametrize("k", [0, 1])
def test_predicted_rates_abf(k):
    assert predicted_div_rate("ABF", k, MS_G, "isotropic", 1, 1) == k + 2
    assert predicted_div_rate("ABF", k, MS_X, "shrink_x", 1, 0) == k + 1
    assert predicted_div_rate("ABF", k, MS_G, "fixed_aspect", 1, 1) == k + 2


# ------------------------------------------------------------- sharpness


def test_bdm_sharpness_witness():
    # div = x^{k-1} y sits in Q_k but outside P_{k-1}: BDM must miss it.
    # Commutation pins the BDM div error at the L2 distance of x^{k-1} y
    # from P_{k-1}: 1/sqrt(12) for k = 1, 1/12 for k = 2.
    rect = PhysicalRect(1.0, 1.0)
    expected = {1: 1.0 / math.sqrt(12.0), 2: 1.0 / 12.0}
    for k in (1, 2):
        w = bdm_sharpness_witness(k)
        bdm = interpolate_on_rect("BDM", k, rect, w)
        rt = interpolate_on_rect("RT", k, rect, w)
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
])
def test_config_owns_the_study_schema(kwargs, message):
    # the rules converge applies are the config's own, so a library caller
    # cannot build a study the CLI would reject
    with pytest.raises(ValueError, match=message):
        StudyConfig(**kwargs)


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


def test_theorem_suite_reports_broken_commutation():
    # negative control: swapping out the ABF divergence moments must surface
    # as named commuting failures while every refinement study still runs
    result = theorem_suite(replace_div_moments=True)
    assert not result["ok"]
    abf_failures = [f for f in result["failures"] if "commuting" in f]
    assert abf_failures and all(f.startswith("ABF_") for f in abf_failures)
    assert {f.split()[0] for f in abf_failures} == {"ABF_0", "ABF_1", "ABF_2"}
