"""Acceptance gate: one test per shipped guarantee.

Rate criteria assert the study verdict plus the one-sided bound
fitted >= predicted - tolerance (the estimates bound the error from
above, so a faster measured rate is legitimate).  Where the measured
rate actually sits on the predicted line for these anchored-corner
geometries, the two-sided band is asserted as well.
"""

import numpy as np
import pytest

from hdivkit.elements import build_space
from hdivkit.fields import commuting_battery
from hdivkit.harness import (
    PhysicalRect,
    StudyConfig,
    run_refinement_study,
)
from hdivkit.interpolation import (
    commuting_residuals,
    reference_operator,
    reference_projector,
    unisolvence_report,
)
from hdivkit.quadrature import gauss_legendre_01
from monomial_oracle import (
    Polynomial2D, VectorPoly2D, curl_scalar, divergence, project, pull_back, scale_arguments,
)

TOL = 0.15

ALL_SPACES = [("RT", k) for k in range(5)] + [("BDM", k) for k in range(1, 5)] + [
    ("ABF", k) for k in range(5)
]


def _passes(cfg: StudyConfig, which: str, two_sided: bool):
    table = run_refinement_study(cfg)
    fitted, predicted, verdict, _ = table.judged[which]
    tag = f"{cfg.family.value}_{cfg.k} {cfg.mode} {cfg.field} p={cfg.p:g} {which}"
    assert verdict == "pass", f"{tag}: verdict {verdict}"
    assert fitted >= predicted - TOL, f"{tag}: fitted {fitted:.4f} below {predicted:g}"
    if two_sided:
        assert abs(fitted - predicted) <= TOL, (
            f"{tag}: fitted {fitted:.4f} outside {predicted:g} +- {TOL}"
        )
    return table


def test_criterion_01_unisolvence():
    for family, k in ALL_SPACES:
        report = unisolvence_report(family, k)
        assert report["nonsingular"], (family, k)
        assert report["condition"] <= 1e9, (family, k, report["condition"])


def test_criterion_02_member_reproduction():
    rng = np.random.default_rng(42)
    for family, k in ALL_SPACES:
        op = reference_operator(family, k)
        for _ in range(20):
            member = op.space.random_member(rng)
            back = op.solve_coefficients(member)
            rel = np.max(np.abs(back - member.coeffs)) / np.max(np.abs(member.coeffs))
            assert rel <= 1e-12, (family, k, rel)


def test_criterion_03_commuting_diagram():
    battery = commuting_battery()
    assert len(battery) == 5
    for family, kmax in (("RT", 3), ("BDM", 3), ("ABF", 3)):
        k0 = 1 if family == "BDM" else 0
        for k in range(k0, kmax + 1):
            for fld in battery:
                res = commuting_residuals(family, k, [fld])[0]
                assert res <= 1e-10, (family, k, fld.id, res)


def test_criterion_04_rt_directional_div_rates():
    for k in (0, 1, 2):
        # the rate lands on the prediction for odd k; the even-k studies
        # converge one order faster on this corner-anchored geometry
        sharp = k == 1
        _passes(StudyConfig("RT", k, 2.0, "MS-X", "shrink_x"), "div", sharp)
        _passes(StudyConfig("RT", k, 2.0, "MS-Y", "shrink_y"), "div", sharp)


def test_criterion_05_anisotropic_decoupling():
    for k in (0, 1, 2):
        table = run_refinement_study(StudyConfig("RT", k, 2.0, "MS-Y", "shrink_x"))
        errs = [r.errors["div"] for r in table.records]
        assert len(errs) == 6
        spread = (max(errs) - min(errs)) / max(errs)
        assert spread < 0.01, (k, spread)
        assert table.judged["div"].verdict == "pass"


def test_criterion_06_bdm_isotropic_div_rates():
    # the slow mode needs a few extra dyadic levels to dominate the fit
    for k in (1, 2):
        _passes(
            StudyConfig("BDM", k, 2.0, "MS-G", "isotropic", levels=10),
            "div",
            two_sided=True,
        )


def test_criterion_07_abf_div_rates():
    _passes(StudyConfig("ABF", 0, 2.0, "MS-G", "isotropic"), "div", two_sided=True)
    _passes(StudyConfig("ABF", 1, 2.0, "MS-G", "isotropic"), "div", two_sided=False)
    for k in (0, 1):
        _passes(StudyConfig("ABF", k, 2.0, "MS-X", "shrink_x"), "div", two_sided=False)


def test_criterion_08_field_rates():
    for family in ("RT", "ABF"):
        for k in (0, 1, 2):
            for p in (1.0, 2.0):
                _passes(StudyConfig(family, k, p, "MS-X", "shrink_x"), "field", False)
                _passes(StudyConfig(family, k, p, "MS-Y", "shrink_y"), "field", False)
    for k in (1, 2):
        for p in (1.0, 2.0):
            _passes(
                StudyConfig("BDM", k, p, "MS-G", "isotropic", levels=10),
                "field",
                two_sided=True,
            )


def test_criterion_09_aspect_ratio_robustness():
    pairs = [("RT", k, f) for k in (0, 1, 2) for f in ("MS-X", "MS-Y")]
    pairs += [("ABF", k, f) for k in (0, 1) for f in ("MS-G", "MS-X")]
    for family, k, fld in pairs:
        if fld == "MS-X":
            base_mode = "shrink_x"
        elif fld == "MS-Y":
            base_mode = "shrink_y"
        else:
            base_mode = "isotropic"
        base = run_refinement_study(StudyConfig(family, k, 2.0, fld, base_mode))
        stressed = run_refinement_study(
            StudyConfig(family, k, 2.0, fld, "fixed_aspect", rho=64.0)
        )
        assert base.judged["div"].verdict == "pass", (family, k, fld)
        assert stressed.judged["div"].verdict == base.judged["div"].verdict, (family, k, fld)


def test_criterion_10_exactness_and_identities():
    # quadrature exactness through degree 2n - 1
    for n in range(1, 11):
        rule = gauss_legendre_01(n)
        for d in range(2 * n):
            got = float(np.sum(rule.weights * rule.nodes**d))
            assert abs(got - 1.0 / (d + 1)) <= 1e-14, (n, d)

    # div(curl phi) vanishes coefficient-exactly
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = Polynomial2D(rng.uniform(-1.0, 1.0, size=(5, 5)))
        np.testing.assert_array_equal(divergence(curl_scalar(phi)).coeffs, 0.0)

    # Piola divergence identity, coefficient-wise on polynomials
    rect = PhysicalRect(0.375, 0.0625)
    fld = VectorPoly2D(
        Polynomial2D(rng.uniform(-1.0, 1.0, size=(4, 3))),
        Polynomial2D(rng.uniform(-1.0, 1.0, size=(3, 4))),
    )
    ref = pull_back(fld, rect.hx, rect.hy)
    lhs = divergence(ref)
    rhs = scale_arguments(divergence(fld), rect.hx, rect.hy) * (rect.hx * rect.hy)
    shape = (max(lhs.coeffs.shape[0], rhs.coeffs.shape[0]),
             max(lhs.coeffs.shape[1], rhs.coeffs.shape[1]))
    a = np.zeros(shape)
    b = np.zeros(shape)
    a[: lhs.coeffs.shape[0], : lhs.coeffs.shape[1]] = lhs.coeffs
    b[: rhs.coeffs.shape[0], : rhs.coeffs.shape[1]] = rhs.coeffs
    np.testing.assert_allclose(a, b, atol=1e-13)

    # projector idempotence
    for family, k in (("RT", 2), ("BDM", 2), ("ABF", 1)):
        proj = reference_projector(family, k)

        def w(x, y):
            return np.sin(1.3 * x + 0.4) * np.cos(2.1 * y)

        once = project(proj, w)
        twice = project(proj, once.eval)
        xs = np.linspace(0.0, 1.0, 13)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        assert np.max(np.abs(twice.eval(X, Y) - once.eval(X, Y))) <= 1e-12
