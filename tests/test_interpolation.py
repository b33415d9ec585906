"""Moment interpolation and the divergence-image L2 projector."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit import interpolation, legendre
from hdivkit.dofs import build_dofs, dof_vector_ld
from hdivkit.elements import ElementFamily, build_div_space, build_space
from hdivkit.fields import MS_G, CallableField, commuting_battery
from hdivkit.interpolation import (
    COND_FAIL,
    COND_WARN,
    REPRO_TOL,
    InterpolationOperator,
    L2Projector,
    OperatorConstructionError,
    commuting_residuals,
    reference_operator,
    reference_projector,
    unisolvence_report,
)
from hdivkit.poly import Polynomial2D, VectorPoly2D, curl_scalar, divergence
from hdivkit.quadrature import tensor_rule
from monomial_oracle import monomial_basis, project, reference_field
from reference_oracle import apply_dof, gesv_solve

ALL_SPACES = [("RT", k) for k in range(5)] + [("BDM", k) for k in range(1, 5)] + [
    ("ABF", k) for k in range(5)
]


@pytest.mark.parametrize("family,k", ALL_SPACES)
def test_unisolvence(family, k):
    report = unisolvence_report(family, k)
    assert report["nonsingular"]
    assert report["ok"]
    assert report["condition"] <= 1e9
    assert not report["warn"]


@pytest.mark.parametrize("family,k", ALL_SPACES)
def test_member_reproduction(family, k):
    op = reference_operator(family, k)
    rng = np.random.default_rng(100 + k)
    worst = 0.0
    for _ in range(5):
        member = op.space.random_member(rng)
        back = op.solve_coefficients(member)
        err = np.max(np.abs(back - member.coeffs)) / np.max(np.abs(member.coeffs))
        worst = max(worst, err)
    assert worst <= 1e-12


def _worst_relative_error(coeffs, exact):
    """The largest coefficient error of a member, relative to its largest coefficient."""
    return np.max(np.abs(coeffs - exact).max(axis=1) / np.abs(exact).max(axis=1))


def test_cached_inverse_reproduces_members_as_lu_does():
    # 200 seeded members per (family, k), solved through the cached inverse
    # and through one LU per DOF vector with the same sweeps: every pair keeps
    # a tenth of the reproduction bound, and the worst pair is no worse than LU's
    worst = worst_lu = 0.0
    for family, k in ALL_SPACES:
        op = reference_operator(family, k)
        rng = np.random.default_rng(7)
        exact = np.stack([op.space.random_member(rng).coeffs for _ in range(200)])
        b = dof_vector_ld(op.dofs, op.space.member(exact))
        err = _worst_relative_error(op.solve(b), exact)
        assert err <= REPRO_TOL / 10, (family, k, err)
        worst = max(worst, err)
        worst_lu = max(worst_lu, _worst_relative_error(gesv_solve(op, b), exact))
    assert worst <= worst_lu


def test_rt0_pinned_interpolant():
    # RT_0 sees only edge fluxes: (x^2, 0) and (x, 0) share them
    op = reference_operator("RT", 0)
    fld = VectorPoly2D(Polynomial2D.monomial(2, 0), Polynomial2D.zero())
    m = op.interpolate(fld)
    xs = np.linspace(0.0, 1.0, 11)
    U, V = m.uv(xs, 0.3 + 0.0 * xs)
    np.testing.assert_allclose(U, xs, atol=1e-14)
    np.testing.assert_allclose(V, 0.0, atol=1e-14)


def test_bdm1_curl_reproduction():
    op = reference_operator("BDM", 1)
    fld = curl_scalar(Polynomial2D.monomial(2, 1))  # curl(x^2 y) = (x^2, -2xy)
    m = op.interpolate(fld)
    xs = np.linspace(0.0, 1.0, 9)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    U, V = m.uv(X, Y)
    np.testing.assert_allclose(U, X**2, atol=1e-13)
    np.testing.assert_allclose(V, -2 * X * Y, atol=1e-13)


@pytest.mark.parametrize("family,k", [("RT", 1), ("BDM", 2), ("ABF", 1)])
def test_interpolant_matches_all_dofs(family, k):
    # defining property: the interpolant agrees with the field on every moment
    op = reference_operator(family, k)
    m = op.interpolate(MS_G)
    for fn in op.dofs.functionals:
        a = apply_dof(fn, m)
        b = apply_dof(fn, MS_G)
        assert a == pytest.approx(b, abs=2e-13), fn


@pytest.mark.parametrize("family,k", [("RT", 1), ("ABF", 0)])
def test_against_independent_assembly(family, k):
    # rebuild the moment system member-by-member and solve it with plain numpy
    space = build_space(family, k)
    dofs = build_dofs(family, k)
    M = np.array(
        [[apply_dof(fn, member) for member in space.basis] for fn in dofs.functionals]
    )
    rhs = np.array([apply_dof(fn, MS_G) for fn in dofs.functionals])
    expect = np.linalg.solve(M, rhs)
    got = reference_operator(family, k).solve_coefficients(MS_G)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("family,k", ALL_SPACES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       a=st.floats(-4.0, 4.0, allow_nan=False), b=st.floats(-4.0, 4.0, allow_nan=False))
def test_interpolate_is_linear(family, k, seed, a, b):
    # I(a f + b g) = a I(f) + b I(g) for random members f, g, applied as
    # generic callables so the operator takes the non-polynomial rule
    op = reference_operator(family, k)
    rng = np.random.default_rng(seed)
    f, g = op.space.random_member(rng), op.space.random_member(rng)

    def uv(x, y):
        (Uf, Vf), (Ug, Vg) = f.uv(x, y), g.uv(x, y)
        return a * Uf + b * Ug, a * Vf + b * Vg

    combo = CallableField(uv, lambda x, y: a * f.div_values(x, y) + b * g.div_values(x, y))
    got = op.interpolate(combo).coeffs
    want = a * op.interpolate(f).coeffs + b * op.interpolate(g).coeffs
    scale = max(abs(a), abs(b), 1.0) * max(np.abs(f.coeffs).max(), np.abs(g.coeffs).max())
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_interpolate_helper():
    op = reference_operator("RT", 0)
    m = op.interpolate(MS_G)
    np.testing.assert_array_equal(m.coeffs, op.interpolate(MS_G).coeffs)


def test_mismatched_dofset_rejected():
    with pytest.raises(ValueError):
        InterpolationOperator(build_space("RT", 1), dofs=build_dofs("RT", 0))


@pytest.mark.parametrize("family,k", ALL_SPACES)
def test_condition_is_exact(family, k):
    # the exact 1-norm condition ||M||_1 ||M^-1||_1, not an estimate
    op = reference_operator(family, k)
    M = op.dof_matrix
    inv = np.linalg.solve(M, np.eye(len(M)))
    exact = np.abs(M).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
    assert op.condition == pytest.approx(exact, rel=1e-12)
    # the norm product over the cached inverse is np.linalg.cond's, to the bit
    assert op.condition == float(np.linalg.cond(M, 1))


def test_abf2_condition_pinned():
    # LAPACK's gecon estimate read 2900 here
    assert reference_operator("ABF", 2).condition == pytest.approx(3480.0, rel=1e-9)


def test_singular_dofset_rejected():
    # a repeated functional makes M singular: one check rejects it
    dofs = build_dofs("RT", 1)
    first = dofs.functionals[0]
    twice = dataclasses.replace(dofs, functionals=(first, first) + dofs.functionals[2:])
    with pytest.raises(OperatorConstructionError,
                       match=r"singular or ill-conditioned \(cond inf\)"):
        InterpolationOperator(build_space("RT", 1), twice)


@pytest.mark.parametrize("entry,cond", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf")])
@pytest.mark.parametrize("family,k", [("RT", 1), ("ABF", 4)])
def test_nonfinite_dof_matrix_rejected(monkeypatch, family, k, entry, cond):
    # np.linalg.cond's reading: nan for a nan entry, inf for an infinite one
    # (ABF_4's inverse then holds nans)
    real = interpolation.dof_matrix_ld

    def spoiled(dofs, space):
        M = real(dofs, space).copy()
        M[1, 2] = entry
        return M

    monkeypatch.setattr(interpolation, "dof_matrix_ld", spoiled)
    with pytest.raises(OperatorConstructionError,
                       match=rf"{family}_{k}: DOF matrix singular or ill-conditioned "
                             rf"\(cond {cond}\)$"):
        InterpolationOperator(build_space(family, k))


def test_nonfinite_dof_vector_rejected():
    nan_field = CallableField(lambda x, y: (np.full_like(x, np.nan), np.zeros_like(x)))
    with pytest.raises(ValueError, match="DOF vector is not finite"):
        reference_operator("RT", 1).solve_coefficients(nan_field)


def test_no_scipy_at_import():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, hdivkit, hdivkit.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_operator_cache():
    # every spelling of one family names one space, so it keeps one entry
    for cached in (reference_operator, reference_projector):
        first = cached("RT", 2)
        assert cached("rt", 2) is first and cached(ElementFamily.RT, 2) is first
        assert cached("ABF", 1) is cached("ABF", 1)


# ---------------------------------------------------------------- projector


def test_projector_pinned_constant():
    # div space of RT_0 is Q_0; the best constant fit of 2x is its mean 1
    proj = reference_projector("RT", 0)
    w = Polynomial2D.monomial(1, 0, 2.0).eval
    p = project(proj, w)
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(p.eval(xs, xs), 1.0, atol=1e-15)
    assert proj.coeffs_internal(w) == {(0, 0): 1.0}


def test_projector_tabulates_its_rule_once(monkeypatch):
    # the fixed rule's Legendre tables are built on the first projection only
    proj = L2Projector(build_div_space("ABF", 2))
    first = proj.coeffs_internal(MS_G.div_values)
    calls = []
    values = legendre.values
    monkeypatch.setattr(legendre, "values", lambda *a: calls.append(a) or values(*a))
    assert proj.coeffs_internal(MS_G.div_values) == first
    assert calls == []


@pytest.mark.parametrize("family,k", [("RT", 1), ("BDM", 2), ("ABF", 1)])
def test_projector_against_normal_equations(family, k):
    # monomial-basis normal equations solved independently
    div_space = build_div_space(family, k)
    proj = L2Projector(div_space)

    def w(x, y):
        return np.sin(x + 0.5 * y) * np.exp(0.3 * x)

    rule = tensor_rule(20, 20)
    xs, ys, ws = rule.xs, rule.ys, rule.ws
    basis_vals = [b.eval(xs, ys) for b in monomial_basis(div_space)]
    G = np.array([[np.sum(ws * p * q) for q in basis_vals] for p in basis_vals])
    rhs = np.array([np.sum(ws * p * w(xs, ys)) for p in basis_vals])
    c = np.linalg.solve(G, rhs)
    expect = sum(ci * bv for ci, bv in zip(c, basis_vals))

    got = project(proj, w).eval(xs, ys)
    np.testing.assert_allclose(got, expect, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("family,k", [("RT", 2), ("BDM", 3), ("ABF", 2)])
def test_projector_idempotent(family, k):
    proj = reference_projector(family, k)

    def w(x, y):
        return np.cos(2.0 * x) * np.sin(y + 0.2)

    once = project(proj, w)
    twice = project(proj, once.eval)
    scale = max(abs(c) for c in proj.coeffs_internal(once.eval).values())
    xs = np.linspace(0.0, 1.0, 13)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    err = np.max(np.abs(twice.eval(X, Y) - once.eval(X, Y)))
    assert err <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("family,k", [("RT", 1), ("ABF", 1)])
def test_projector_reproduces_span(family, k):
    div_space = build_div_space(family, k)
    proj = L2Projector(div_space)
    rng = np.random.default_rng(8)
    w = Polynomial2D.zero()
    for b in monomial_basis(div_space):
        w = w + b * float(rng.uniform(-1.0, 1.0))
    p = project(proj, w.eval)
    xs = np.linspace(0.0, 1.0, 9)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    np.testing.assert_allclose(p.eval(X, Y), w.eval(X, Y), atol=1e-13)


def test_projector_contractive():
    proj = reference_projector("BDM", 2)

    def w(x, y):
        return np.exp(x) * np.sin(3.0 * y)

    rule = tensor_rule(24, 24)
    pw = project(proj, w).eval(rule.xs, rule.ys)
    norm_w = np.sqrt(np.sum(rule.ws * w(rule.xs, rule.ys) ** 2))
    norm_pw = np.sqrt(np.sum(rule.ws * pw**2))
    assert norm_pw <= norm_w + 1e-10


# ------------------------------------------------------------- commutation


@pytest.mark.parametrize("family,kmax", [("RT", 3), ("BDM", 3), ("ABF", 3)])
def test_commuting_battery(family, kmax):
    k0 = 1 if family == "BDM" else 0
    worst = 0.0
    for k in range(k0, kmax + 1):
        for field in commuting_battery():
            worst = max(worst, commuting_residuals(family, k, [field])[0])
    assert worst <= 1e-10


def test_unisolvence_report_not_ok_above_cond_warn(monkeypatch):
    # a condition between COND_WARN and COND_FAIL builds an operator, with a
    # warning, but the report is not ok
    real = interpolation.dof_matrix_ld

    def scaled(dofs, space):
        M = real(dofs, space).copy()
        M[0] *= 1e10
        return M

    monkeypatch.setattr(interpolation, "dof_matrix_ld", scaled)
    with pytest.warns(RuntimeWarning, match="DOF matrix condition"):
        report = unisolvence_report("RT", 0)
    assert COND_WARN < report["condition"] < COND_FAIL
    assert report["nonsingular"] and report["warn"]
    assert report["ok"] is False


def test_replaced_div_moments_break_commutation():
    # negative control: the swap stays unisolvent but must lose commutation
    for k in range(3):
        report = unisolvence_report("ABF", k, replace_div_moments=True)
        assert report["ok"] and report["condition"] <= 1e9
        res = max(
            commuting_residuals("ABF", k, [f], replace_div_moments=True)[0]
            for f in commuting_battery()
        )
        assert res > 1e-3
    # families without divergence moments are untouched by the flag
    assert commuting_residuals("RT", 1, [MS_G], replace_div_moments=True)[0] <= 1e-10
    assert commuting_residuals("BDM", 1, [MS_G], replace_div_moments=True)[0] <= 1e-10


@pytest.mark.parametrize("family,k", [("RT", 2), ("BDM", 2), ("ABF", 1)])
def test_interpolant_divergence_stays_in_image(family, k):
    # projecting div(I u) onto the declared scalar space changes nothing
    op = reference_operator(family, k)
    proj = reference_projector(family, k)
    d = divergence(reference_field(op.interpolate(MS_G)))
    p = project(proj, d.eval)
    xs = np.linspace(0.0, 1.0, 11)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    np.testing.assert_allclose(p.eval(X, Y), d.eval(X, Y), atol=1e-11)
