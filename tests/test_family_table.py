"""The family table against the definitions in the elements module docstring.

    RT_k  = Q_{k+1,k} x Q_{k,k+1}                       div -> Q_k
    BDM_k = (P_k)^2 + span{curl L_{k+1}(x)L_1(y),
                           curl L_1(x)L_{k+1}(y)}        div -> P_{k-1}
    ABF_k = Q_{k+2,k} x Q_{k,k+2}                       div -> Q_{k+1} minus x^{k+1}y^{k+1}

Each space, DOF set and divergence image is written out below as plain
loops, in the order the package has always used, and compared with what
family_sets feeds to the builders.
"""

import numpy as np
import pytest

from hdivkit.dofs import DofFunctional, build_dofs
from hdivkit.elements import (
    ElementFamily, build_div_space, build_space, degree_range, family_sets, space_dimension,
)
from hdivkit.harness import estimate_terms
from reference_oracle import component_degrees

ALL_PAIRS = [(f, k) for f in ("RT", "BDM", "ABF") for k in degree_range(f)]


def _labels(family, k):
    out = []
    if family == "BDM":
        for comp in ("x", "y"):
            for i in range(k + 1):
                for j in range(k + 1 - i):
                    out.append((comp, i, j))
        return out + [("curl", k + 1, 1), ("curl", 1, k + 1)]
    extra = 1 if family == "RT" else 2
    for i in range(k + extra + 1):
        for j in range(k + 1):
            out.append(("x", i, j))
    for i in range(k + 1):
        for j in range(k + extra + 1):
            out.append(("y", i, j))
    return out


def _functionals(family, k, replace_div_moments):
    out = []
    for edge in ("left", "right", "bottom", "top"):
        for deg in range(k + 1):
            out.append(DofFunctional("edge_moment", deg, edge=edge))
    if family == "BDM":
        # against (P_{k-2})^2
        for comp in (0, 1):
            for i in range(k - 1):
                for j in range(k - 1 - i):
                    out.append(DofFunctional("interior_moment", i, j, component=comp))
    else:
        # against Q_{k-1,k} x Q_{k,k-1}
        for i in range(k):
            for j in range(k + 1):
                out.append(DofFunctional("interior_moment", i, j, component=0))
        for i in range(k + 1):
            for j in range(k):
                out.append(DofFunctional("interior_moment", i, j, component=1))
    if family == "ABF" and replace_div_moments:
        for j in range(k + 1):
            out.append(DofFunctional("interior_moment", k, j, component=0))
        for i in range(k + 1):
            out.append(DofFunctional("interior_moment", i, k, component=1))
    elif family == "ABF":
        for i in range(k + 1):
            out.append(DofFunctional("div_moment", i, k + 1))
        for j in range(k + 1):
            out.append(DofFunctional("div_moment", k + 1, j))
    return out


def _div_image(family, k):
    out = []
    if family == "RT":
        for i in range(k + 1):
            for j in range(k + 1):
                out.append((i, j))
        return f"Q_{k}", out
    if family == "BDM":
        for i in range(k):
            for j in range(k - i):
                out.append((i, j))
        return f"P_{k - 1}", out
    for i in range(k + 2):
        for j in range(k + 2):
            if (i, j) != (k + 1, k + 1):
                out.append((i, j))
    return f"Q_{k + 1}-minus-corner", out


DIMENSION = {
    "RT": lambda k: 2 * (k + 1) * (k + 2),
    "BDM": lambda k: (k + 1) * (k + 2) + 2,
    "ABF": lambda k: 2 * (k + 1) * (k + 3),
}
DEGREES = {
    "RT": lambda k: ((k + 1, k), (k, k + 1)),
    "BDM": lambda k: ((k + 1, k), (k, k + 1)),
    "ABF": lambda k: ((k + 2, k), (k, k + 2)),
}


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_table_matches_the_definitions(family, k):
    space = build_space(family, k)
    labels = _labels(family, k)
    assert list(space.labels) == labels
    # each label's (x, y) factor rows of u, v and div, in factor_values' rows
    # L_m = m, L_m' = nf + m, -L_m' = 2 nf + m and zero = 3 nf
    nf = max(max(lab[1:]) for lab in labels) + 1
    zero = (3 * nf, 3 * nf)
    rows = []
    for kind, i, j in labels:
        if kind == "x":  # u = L_i(x) L_j(y), div = L_i'(x) L_j(y)
            rows.append(((i, j), zero, (nf + i, j)))
        elif kind == "y":  # v = L_i(x) L_j(y), div = L_i(x) L_j'(y)
            rows.append((zero, (i, j), (i, nf + j)))
        else:  # curl(L_i(x) L_j(y)) = (L_i(x) L_j'(y), -L_i'(x) L_j(y)), div-free
            rows.append(((i, nf + j), (2 * nf + i, j), zero))
    assert space._maxdeg + 1 == nf and not space._rows.flags.writeable
    assert space._rows.shape == (3, 2, len(labels))
    assert space._rows.transpose(2, 0, 1).tolist() == [[list(r) for r in q] for q in rows]
    for replace in (False, True):
        got = build_dofs(family, k, replace_div_moments=replace).functionals
        assert list(got) == _functionals(family, k, replace)
    name, exponents = _div_image(family, k)
    div_space = build_div_space(family, k)
    assert div_space.description == name and list(div_space.exponents) == exponents
    assert space_dimension(family, k) == space.dim == len(labels) == DIMENSION[family](k)
    assert component_degrees(family, k) == DEGREES[family](k)


def test_one_table_entry_per_family_spelling():
    first = family_sets("RT", 2)
    assert family_sets("rt", 2) is first and family_sets(ElementFamily.RT, 2) is first
    assert family_sets("RT", np.int64(2)) is first
    with pytest.raises(ValueError, match="BDM requires k >= 1"):
        family_sets("BDM", 0)
    with pytest.raises(TypeError):
        family_sets("RT", 1.0)


AXES_3 = ((3, 0), (0, 3))


@pytest.mark.parametrize("family,which,scales,groups", [
    ("RT", "field", (1, 0), (AXES_3,)),
    ("RT", "field", (1, 1), (AXES_3,)),
    ("RT", "div", (1, 0), (AXES_3,)),
    ("RT", "div", (1, 1), (AXES_3,)),
    ("BDM", "field", (1, 0), (((0, 3), (1, 2), (2, 1), (3, 0)),)),
    ("BDM", "field", (1, 1), (((0, 3), (1, 2), (2, 1), (3, 0)),)),
    ("BDM", "div", (1, 0), (((0, 2), (1, 1), (2, 0)),)),
    ("BDM", "div", (1, 1), (((0, 2), (1, 1), (2, 0)),)),
    ("ABF", "field", (1, 0), (AXES_3,)),
    ("ABF", "field", (1, 1), (AXES_3,)),
    # the mixed order-(k+2) div estimate needs both directions refined
    ("ABF", "div", (1, 0), (AXES_3,)),
    ("ABF", "div", (1, 1), (AXES_3, ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0)))),
])
def test_estimate_terms_pinned_at_k2(family, which, scales, groups):
    assert estimate_terms(family, 2, which, *scales) == groups
