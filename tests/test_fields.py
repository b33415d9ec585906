"""Manufactured study fields and their closed-form partials."""

import numpy as np
import pytest

from hdivkit.elements import degree_range
from hdivkit.fields import (
    CallableField,
    FIELD_IDS,
    MAX_PARTIAL_ORDER,
    MS_G,
    MS_X,
    MS_Y,
    ReproductionField,
    commuting_battery,
    env_seed,
    get_field,
    make_reproduction_field,
)
from hdivkit.harness import predicted_field_rate

RNG = np.random.default_rng(23)
PTS = RNG.uniform(0.1, 0.9, size=(10, 2))


def _fd_check(field, a1, a2, comp, step=1e-5, rtol=1e-6):
    # central difference of the next-lower-order partial
    if a1 > 0:
        lower = field.partial(a1 - 1, a2, comp)
        shift = np.array([step, 0.0])
    else:
        lower = field.partial(a1, a2 - 1, comp)
        shift = np.array([0.0, step])
    target = field.partial(a1, a2, comp)
    for x, y in PTS:
        fd = (lower(x + shift[0], y + shift[1]) - lower(x - shift[0], y - shift[1])) / (2 * step)
        exact = target(x, y)
        assert fd == pytest.approx(exact, rel=rtol, abs=1e-8), (field, a1, a2, comp)


@pytest.mark.parametrize("field", commuting_battery() + [MS_X, MS_Y])
@pytest.mark.parametrize("a1,a2", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)])
def test_partials_vs_finite_differences(field, a1, a2):
    for comp in (0, 1):
        if field.deriv_nonzero(a1, a2, comp) or field.deriv_nonzero(0, 0, comp):
            _fd_check(field, a1, a2, comp)


@pytest.mark.parametrize("field", commuting_battery() + [MS_X, MS_Y])
def test_divergence_matches_component_partials(field):
    xs, ys = PTS[:, 0], PTS[:, 1]
    direct = field.partial(1, 0, 0)(xs, ys) + field.partial(0, 1, 1)(xs, ys)
    np.testing.assert_allclose(field.div_values(xs, ys), direct, rtol=1e-13, atol=1e-14)


def test_ms_g_values():
    x, y = 0.3, 0.7
    u, v = MS_G.uv(x, y)
    assert u == pytest.approx(np.sin(np.pi * x) * np.cos(np.pi * y), rel=1e-15)
    assert v == pytest.approx(x * np.exp(y), rel=1e-15)


def test_ms_x_structure():
    x, y = 0.25, 0.6
    u, v = MS_X.uv(x, y)
    assert u == pytest.approx(np.sin(np.pi * x), rel=1e-15)
    assert v == 0.0
    # no y-dependence anywhere in the only nonzero component
    assert not MS_X.deriv_nonzero(0, 1, 0)
    assert not MS_X.deriv_nonzero(2, 3, 0)
    assert MS_X.deriv_nonzero(3, 0, 0)
    assert not MS_X.deriv_nonzero(0, 0, 1)
    assert not MS_X.div_deriv_nonzero(0, 1)
    assert MS_X.div_deriv_nonzero(2, 0)


def test_ms_y_mirrors_ms_x():
    x, y = 0.25, 0.6
    u, v = MS_Y.uv(x, y)
    assert u == 0.0
    assert v == pytest.approx(np.sin(np.pi * y), rel=1e-15)
    assert not MS_Y.div_deriv_nonzero(1, 0)


def test_declared_zero_partials_are_zero():
    xs, ys = PTS[:, 0], PTS[:, 1]
    for field in commuting_battery():
        for comp in (0, 1):
            for a1 in range(4):
                for a2 in range(4):
                    if not field.deriv_nonzero(a1, a2, comp):
                        vals = field.partial(a1, a2, comp)(xs, ys)
                        np.testing.assert_allclose(vals, 0.0, atol=1e-14)


@pytest.mark.parametrize("field", commuting_battery() + [MS_X, MS_Y])
def test_flags_match_partials(field):
    # both directions: a flag is True exactly when its partial is nonzero
    # at some sample point
    xs, ys = PTS[:, 0], PTS[:, 1]
    for comp in (0, 1):
        for a1 in range(MAX_PARTIAL_ORDER + 1):
            for a2 in range(MAX_PARTIAL_ORDER + 1 - a1):
                vals = field.partial(a1, a2, comp)(xs, ys)
                want = bool(np.any(vals != 0.0))
                assert field.deriv_nonzero(a1, a2, comp) == want, (field, a1, a2, comp)


def test_partial_order_limit():
    with pytest.raises(ValueError):
        MS_G.partial(7, 0, 0)


def test_battery_ids_unique():
    ids = [f.id for f in commuting_battery()]
    assert len(set(ids)) == 5
    assert ids[0] == "MS-G"


def test_env_seed(monkeypatch):
    monkeypatch.delenv("HDIV_SEED", raising=False)
    assert env_seed() == 42
    monkeypatch.setenv("HDIV_SEED", "1234")
    assert env_seed() == 1234


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_env_seed_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("HDIV_SEED", raw)
    with pytest.raises(ValueError, match="HDIV_SEED"):
        env_seed()


def test_reproduction_field_deterministic(monkeypatch):
    monkeypatch.delenv("HDIV_SEED", raising=False)
    a = make_reproduction_field("RT", 1)
    b = make_reproduction_field("RT", 1)
    np.testing.assert_array_equal(a.member.coeffs, b.member.coeffs)
    c = make_reproduction_field("RT", 1, seed=99)
    assert np.max(np.abs(c.member.coeffs - a.member.coeffs)) > 1e-6


def test_reproduction_field_respects_env(monkeypatch):
    monkeypatch.setenv("HDIV_SEED", "777")
    a = make_reproduction_field("BDM", 1)
    b = make_reproduction_field("BDM", 1, seed=777)
    np.testing.assert_array_equal(a.member.coeffs, b.member.coeffs)


def test_get_field_lookup():
    assert get_field("MS-G") is MS_G
    assert get_field("MS-X") is MS_X
    assert get_field("MS-Y") is MS_Y
    rep = get_field("MS-P", family="ABF", k=0, seed=5)
    assert rep.id == "MS-P"
    with pytest.raises(ValueError):
        get_field("MS-P")
    with pytest.raises(ValueError):
        get_field("MS-Q")
    assert set(FIELD_IDS) == {"MS-G", "MS-X", "MS-Y", "MS-P"}


def test_reproduction_field_derivative_flags():
    rep = make_reproduction_field("RT", 0, seed=1)
    # RT_0 components are (linear in x, linear in y)
    assert rep.deriv_nonzero(1, 0, 0)
    assert not rep.deriv_nonzero(2, 0, 0)
    assert not rep.deriv_nonzero(0, 1, 0)


def test_callable_field_adapter():
    fld = CallableField(lambda x, y: (x * 0 + 1.0, x * 0), div_fn=lambda x, y: x * 0, fid="unit")
    u, v = fld.uv(0.5, 0.5)
    assert u == 1.0 and v == 0.0
    assert fld.div_values(0.2, 0.9) == 0.0
    assert fld.id == "unit"


ALL_PAIRS = [(f, k) for f in ("RT", "BDM", "ABF") for k in degree_range(f)]
ORDERS = [(a1, a2) for a1 in range(8) for a2 in range(8)]


def _flags(rep):
    return [(rep.deriv_nonzero(a1, a2, 0), rep.deriv_nonzero(a1, a2, 1),
             rep.div_deriv_nonzero(a1, a2)) for a1, a2 in ORDERS]


def _grid_flags(member):
    # reference: partials of the monomial views, cut off at 1e-9
    def nz(p, a1, a2):
        g = p.partial("x", a1).partial("y", a2).coeffs
        return bool(np.max(np.abs(g)) > 1e-9) if g.size else False

    div = member.divergence()
    return [(nz(member.u, a1, a2), nz(member.v, a1, a2), nz(div, a1, a2)) for a1, a2 in ORDERS]


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_reproduction_flags_match_grid_partials(family, k):
    for seed in range(8):
        rep = make_reproduction_field(family, k, seed=seed)
        assert _flags(rep) == _grid_flags(rep.member), (family, k, seed)
    # a sparse member: only the labels with nonzero coefficients count
    member = rep.member
    keep = np.random.default_rng(k).random(member.space.dim) < 0.3
    sparse = member.space.member(np.where(keep, member.coeffs, 0.0))
    assert _flags(ReproductionField(sparse)) == _grid_flags(sparse)


def test_reproduction_flags_are_scale_invariant():
    rep = make_reproduction_field("ABF", 1, seed=3)
    tiny = ReproductionField(rep.member.space.member(rep.member.coeffs * 1e-12))
    assert _flags(tiny) == _flags(rep)
    assert predicted_field_rate("ABF", 1, tiny, 1, 1) == 2.0
