"""Physical rectangles, Piola transport, L^p errors, and rate studies.

A study fixes a field and an element, then shrinks a rectangle through
dyadic levels in one or both directions.  The raw L^p error carries a
measure factor (hx hy)^{1/p} that would shift every fitted rate by the
refined dimension count over p, so recorded errors are normalized:
field errors against that measure factor alone (all battery fields
vanish at the anchor corner, so the field's own norm is not a stable
yardstick), div errors against the field's div norm on the same
rectangle (nonvanishing for every battery field, and it cancels the
Piola growth of reproduction studies at extreme aspect ratios).
Rates are least-squares slopes of the log2 errors on the last levels, in
closed form since the levels are equally spaced, and are judged against
predictions that combine the theorem's exponent table with the structural
zero derivatives of the components the quantity reads (u and v for the
field, div for the divergence: components 0, 1 and 2 of every field), so
a study that refines a direction the field does not depend on is checked
for stagnation instead of a bogus rate.

A field goes to the reference square one way, PulledBackField; piola_push
pulls one member back through the inverse map.  A study pulls the field
back to all its levels at once (rect_at of levels (n, 1, 1)): the
pull-back's factor sample is its field's two arrays at hx s and hy s, one
row of nodes per level, the x factors scaled by the Piola factors, so one DOF
vector call samples levels x the plan's 1-D nodes and one stacked solve
gives every level's coefficients; an MS-P member is its own pull-back, so
it is solved once.  Errors are integrated on one 20 x 20 Gauss rule,
mapped once per study and handed out as 1-D axes (_mapped_rule); error_Lp
and norm_Lp read a field there as the grid_values of its factor sample on
those axes, the one way a field is read.  The operator keeps its basis U,
V and div on the same axes as one table (rule_tables).  Interpolants are
coefficients contracted with it (one gemv per level; one gemm moves last
bits), times the Piola factors; a reproduced member goes through the same
table, so both sides of its error meet at the same points even where
(h x) / h misses x by an ulp.  The div norm, the field error and the div
error are three rows of one L^p sum, each with its own bits.

What a study reads of a manufactured field, its field side, depends on the
field and the stack alone, so studies share it (field_side): the
pull-back's factor sample on the 20-point DOF plan's nodes, which every DOF
set reads, and the field's u, v and div on the mapped rule, read-only,
keyed by the field and the floats of the sides, for the last 8 stacks (the
48 default-suite studies sample 3).  It holds nothing of the element or of
p: the DOF vector, solve, interpolant, error rows, fits and verdicts are
the study's own, and an MS-P member is no manufactured field.

Verdicts are one-sided: a fitted rate a whole tolerance above the
prediction is flagged superconvergent but passes, since the theorems
give upper bounds for the error (lower bounds for the rate).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields as dc_fields
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .dofs import plan_nodes
from .elements import (
    ElementFamily, SpaceMember, _as_family, _validate_degree, build_space, check_choice,
    contract, degree_range, require_single,
)
from .fields import FIELD_IDS, ReproductionField, check_seed, get_field, grid_values
from .interpolation import REPRO_TOL, judge_commuting, reference_operator
from .quadrature import NONPOLY_POINTS, gauss_legendre_01, tensor_rule

MIN_H = 1e-8
MONOTONE_SLACK = 1.01
# refinement directions per mode: level j scales h_x by 2^-(sx j) and h_y by 2^-(sy j)
_SCALES = {"shrink_x": (1, 0), "shrink_y": (0, 1), "isotropic": (1, 1), "fixed_aspect": (1, 1)}
MODES = tuple(_SCALES)
# the quantities a study measures and judges, in output order, and the components each reads
_COMPONENTS = {"field": (0, 1), "div": (2,)}
QUANTITIES = tuple(_COMPONENTS)


@dataclass(frozen=True)
class PhysicalRect:
    """Axis-parallel element [0, hx] x [0, hy]; sides hx, hy of shape (n, 1, 1) stack n of
    them, each beside the axes a tensor rule hands out."""

    hx: float
    hy: float

    def __post_init__(self):
        if any(np.asarray(h).dtype == bool for h in (self.hx, self.hy)):  # float(True) is 1.0
            raise ValueError(f"rectangle sides must be numbers, got {self.hx!r} and {self.hy!r}")
        hx, hy = np.asarray(self.hx, dtype=float), np.asarray(self.hy, dtype=float)
        sides = np.concatenate((hx.ravel(), hy.ravel()))
        # initial: an empty stack passes these and fails the shape rule below
        if not (sides.min(initial=math.inf) > 0 and sides.max(initial=0.0) < math.inf):  # nan too
            raise ValueError("rectangle dimensions must be positive and finite")
        if sides.min(initial=math.inf) < MIN_H:
            raise ValueError(f"dimensions below {MIN_H:g} are rejected")
        # a flat (n,) side would pair its rows with a rule axis of the same length
        if hx.shape != hy.shape or hx.shape not in ((), hx.shape[:1] + (1, 1)) or not hx.size:
            raise ValueError(f"sides must both be scalars or both of one shape (n, 1, 1) "
                             f"with n >= 1, got {hx.shape} and {hy.shape}")


class PulledBackField:
    """Reference-side view of a physical field under the Piola map.

    With F(x, y) = (hx x, hy y): u_ref = (hy u . F, hx v . F) and
    div_ref = hx hy (div u) . F: its field's factor sample at hx x and hy y,
    the x factors scaled by (hy, hx, hx hy) on the component axis.  hx and hy
    may have shape (n, 1, 1), one row per rectangle ahead of the factors'
    (r, 3, nodes) axes; the sample then carries that leading axis.
    """

    def __init__(self, fld, hx, hy):
        self.field = fld
        self.hx, self.hy = hx, hy

    def factor_sample(self, x, y):
        X, Y = self.field.factor_sample(_scaled(self.hx, x), _scaled(self.hy, y))
        scale = np.stack(np.broadcast_arrays(self.hy, self.hx, self.hx * self.hy), axis=-1)
        return scale.reshape(scale.shape[:-3] + (1, 3, 1)) * X, Y


def piola_push(rect: PhysicalRect, member: SpaceMember) -> PulledBackField:
    """One member's physical image: its pull-back through the inverse map."""
    return PulledBackField(require_single(member, "piola_push"), 1 / rect.hx, 1 / rect.hy)


def _scaled(h, t):
    """1-D nodes t times a side h; sides (n, 1, 1) give one row per rectangle, (n, len)."""
    return (np.asarray(h)[..., 0] if np.ndim(h) else h) * np.asarray(t)


def _mapped_rule(hx, hy):
    """The fixed 20 x 20 Gauss rule mapped to [0, hx] x [0, hy]: the 1-D axes
    x and y (..., 20), and the weights ws (..., 400) of the grid they span,
    x-major; sides of shape (m, 1, 1) map it to one rectangle per row."""
    n = NONPOLY_POINTS
    t = gauss_legendre_01(n).nodes
    ws = (hx * hy) * tensor_rule(n, n).ws.reshape(n, n)
    return _scaled(hx, t), _scaled(hy, t), ws.reshape(ws.shape[:-2] + (n * n,))


class _FieldSide:
    """What a study reads of a field on one rectangle stack, sides hxs and hys as
    floats, each taken once and read-only: sample, the pull-back's factor sample
    on the nodes of every 20-point DOF plan, which it hands out whatever nodes
    are asked for, and values, the field's u, v and div on the stack's mapped
    rule, shape (3, n, 20, 20)."""

    def __init__(self, fld, hxs: tuple, hys: tuple):
        hx, hy = (np.array(h)[:, None, None] for h in (hxs, hys))
        (x, y, _), nodes = _mapped_rule(hx, hy), plan_nodes(NONPOLY_POINTS)
        self.sample = PulledBackField(fld, hx, hy).factor_sample(nodes, nodes)
        self.values = grid_values(fld.factor_sample(x, y))
        for a in (*self.sample, self.values):
            a.setflags(write=False)

    def factor_sample(self, x, y):
        return self.sample


# the field side of a manufactured field on one stack, filled on first use
field_side = functools.lru_cache(maxsize=8)(_FieldSide)


def error_Lp(fld, interpolant, rect: PhysicalRect, p: float, which: str):
    """(integral over the rectangle of |fld - interpolant|^p)^(1/p); one per row of a stack.

    which='field' uses the Euclidean magnitude of the vector difference,
    which='div' the absolute divergence difference, each field read as the
    grid_values of its factor sample on the axes of _mapped_rule(rect.hx,
    rect.hy) and summed in the grid's x-major order; samples with more
    leading axes than the rectangle give one error per row.  An interpolant
    None reads as zero (norm_Lp), and a divergence that samples as nan (a
    CallableField without div_fn) is refused for which='div'.
    """
    _check_lp_args(p, which)
    x, y, ws = _mapped_rule(rect.hx, rect.hy)

    def on_rule(f):  # the components which reads, each with the sample's own leading axes
        values = grid_values([F[..., _COMPONENTS[which], :] for F in f.factor_sample(x, y)])
        if which == "div" and np.isnan(values).any():
            raise ValueError(f"field {getattr(f, 'id', f)!r} has no divergence (it samples as nan)")
        return values

    diff = on_rule(fld)
    if interpolant is not None:  # component by component, so the leading axes broadcast
        diff = [a - b for a, b in zip(diff, on_rule(interpolant))]
    mag = np.hypot(*diff) if which == "field" else np.abs(diff[0])
    return _lp_sum(ws, mag.reshape(mag.shape[:-2] + (-1,)), p)


def _check_lp_args(p: float, which: str) -> None:
    # 0 ** (1 / inf) would read a zero error as 1; bools are numbers to isfinite and >=
    if isinstance(p, (bool, np.bool_)) or not (math.isfinite(p) and p >= 1):
        raise ValueError("p must be finite and >= 1")
    if which not in ("field", "div"):
        raise ValueError("which must be 'field' or 'div'")


def _lp_sum(ws, mag, p: float):
    """(sum ws mag^p)^(1/p) over the last axis: a float, or one per row.

    Where a row's plain sum underflows or overflows (large p), its mag is first
    scaled by its maximum, so it stays finite and nonzero; roots are scalar powers.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(ws * mag**p, axis=-1, keepdims=True)
        rescale = np.any(mag, axis=-1, keepdims=True) & ~(
            np.isfinite(total) & (total >= np.finfo(float).tiny))
        top = np.where(rescale, np.max(mag, axis=-1, keepdims=True), 1.0)
        if rescale.any():
            total = np.where(rescale, np.sum(ws * (mag / top) ** p, -1, keepdims=True), total)
        roots = [t * s ** (1.0 / p) for t, s in zip(top.ravel().tolist(), total.ravel().tolist())]
    return roots[0] if total.ndim == 1 else np.reshape(roots, total.shape[:-1])


def norm_Lp(fld, rect: PhysicalRect, p: float, which: str):
    return error_Lp(fld, None, rect, p, which)


@dataclass(frozen=True)
class ErrorRecord:
    level: int
    hx: float
    hy: float
    errors: Dict[str, float]  # normalized L^p error per quantity


@dataclass
class StudyConfig:
    family: ElementFamily = ElementFamily.RT
    k: int = 0
    p: float = 2.0
    field: str = "MS-G"
    mode: str = "isotropic"
    rho: float = 64.0
    levels: int = 6
    h0: float = 0.5
    rate_tolerance: float = 0.15
    seed: Optional[int] = None

    def __post_init__(self):
        self.family = _as_family(self.family)
        _validate_degree(self.family, self.k)
        check_choice("field", self.field, FIELD_IDS)
        check_choice("mode", self.mode, MODES)
        if not isinstance(self.levels, (int, np.integer)) or isinstance(self.levels, bool):
            raise ValueError("levels must be an integer")
        if self.levels < 3:
            raise ValueError("levels must be >= 3")
        for name in ("h0", "rho", "rate_tolerance"):  # bools are numbers to < and isfinite
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (0 < self.h0 <= 1):
            raise ValueError("h0 must lie in (0, 1]")
        _check_lp_args(self.p, "field")
        if not (math.isfinite(self.rate_tolerance) and self.rate_tolerance >= 0):
            raise ValueError("rate tolerance must be finite and >= 0")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("aspect ratio must be positive and finite")
        check_seed(self.seed)
        if self.mode == "fixed_aspect" and self.h0 > self.rho:
            raise ValueError("fixed_aspect(R) needs h0 / R <= 1 (h_y may not exceed 1)")
        try:  # the smallest rectangle; ldexp overflows past 2^63 levels
            self.rect_at(self.levels - 1)
        except (ValueError, OverflowError):
            rho = f" and rho={self.rho:g}" if self.mode == "fixed_aspect" else ""
            raise ValueError(f"levels={self.levels} with h0={self.h0:g}{rho} "
                             f"shrinks a side below {MIN_H:g} at the last level") from None

    def rect_at(self, level) -> PhysicalRect:
        """The rectangle at level; levels of shape (n, 1, 1) give their stack, bit for bit."""
        sx, sy = self.mode_scales()
        aspect = self.rho if self.mode == "fixed_aspect" else 1.0
        return PhysicalRect(np.ldexp(self.h0, -sx * level), np.ldexp(self.h0 / aspect, -sy * level))

    def mode_scales(self) -> Tuple[int, int]:
        return _SCALES[self.mode]

    def describe(self) -> dict:
        """The fields in declaration order, family by name; rho only where
        the mode reads it, and never the seed."""
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)
               if f.name not in ("rho", "seed")}
        out["family"] = self.family.value
        if self.mode == "fixed_aspect":
            out["rho"] = self.rho
        return out


class Judgement(NamedTuple):
    """One quantity's judgement: the fitted rate (None when a fitted error is
    not positive), the predicted rate, the verdict and the flags behind it."""

    fitted: Optional[float]
    predicted: float
    verdict: str
    flags: dict


@dataclass
class ConvergenceTable:
    config: StudyConfig
    records: List[ErrorRecord]
    judged: Dict[str, Judgement]  # one per quantity, in QUANTITIES order

    @property
    def ok(self) -> bool:
        return all(j.verdict == "pass" for j in self.judged.values())

    def verdict_text(self, which: str) -> str:
        """which's verdict and its sorted reasons: 'inconclusive (non_monotone)'."""
        j = self.judged[which]
        return j.verdict + "".join(f" ({name})" for name in sorted(j.flags) if j.flags[name])

    def level_rates(self, which: str) -> List[Optional[float]]:
        errs = [r.errors[which] for r in self.records]
        rates: List[Optional[float]] = [None]
        for a, b in zip(errs, errs[1:]):
            rates.append(math.log2(a / b) if a > 0 and b > 0 else None)
        return rates


# --- rate predictions ---------------------------------------------------

def _order(n: int) -> Tuple[Tuple[int, int], ...]:
    """Every (a1, a2) of total order n."""
    return tuple((a, n - a) for a in range(n + 1))


def estimate_terms(family, k: int, which: str, sx: int, sy: int) -> Tuple[tuple, ...]:
    """The theorem's estimates of one error, each a group of terms (a1, a2):
    h_x^a1 h_y^a2 |d^a1_x d^a2_y u| (of div u for which='div').  ABF's
    mixed order-(k+2) div estimate needs both directions refined."""
    axes = ((k + 1, 0), (0, k + 1))
    field, div = {
        ElementFamily.RT: ((axes,), (axes,)),
        ElementFamily.BDM: ((_order(k + 1),), (_order(k),)),
        ElementFamily.ABF: ((axes,), (axes, _order(k + 2)) if sx and sy else (axes,)),
    }[_as_family(family)]
    return {"field": field, "div": div}[which]


def predicted_rate(family, k: int, fld, which: str, sx: int, sy: int) -> float:
    """Max over the estimate's groups of the slowest rate a1 sx + a2 sy among
    the terms the field keeps, a partial nonzero in one of which's components;
    a group with no such term gives 0."""
    comps = _COMPONENTS[which]
    return float(max(min((a1 * sx + a2 * sy for a1, a2 in group
                          if any(fld.deriv_nonzero(a1, a2, c) for c in comps)), default=0)
                     for group in estimate_terms(family, k, which, sx, sy)))


# --- fitting and verdicts -------------------------------------------------

def fit_window(levels: int) -> int:
    return max(3, levels - 2)


def fitted_rate(errors: List[float], levels: int) -> Optional[float]:
    w = fit_window(levels)
    tail = errors[-w:]
    if any(e <= 0 or not math.isfinite(e) for e in tail):
        return None
    # the least-squares slope over equally spaced levels, centred on m: sum (j - m) log2 e_j
    # over sum (j - m)^2 = w (w^2 - 1) / 12; 0.0 - slope reads a flat series as +0.0
    m = (w - 1) / 2
    slope = math.fsum((j - m) * math.log2(e) for j, e in enumerate(tail)) * 12 / (w * (w * w - 1))
    return 0.0 - slope


def _verdict(errors: List[float], fitted: Optional[float], predicted: float,
             tol: float) -> Tuple[str, dict]:
    if all(e <= REPRO_TOL for e in errors):
        return "pass", {"reproduction": True}
    if predicted == 0.0:
        if fitted is None:
            return "inconclusive", {}
        return ("pass" if abs(fitted) <= tol else "fail"), {"stagnation": True}
    w = fit_window(len(errors))
    tail = errors[-w:]
    if any(b > a * MONOTONE_SLACK for a, b in zip(tail, tail[1:])):
        return "inconclusive", {"non_monotone": True}
    if fitted is None:
        return "inconclusive", {}
    if fitted < predicted - tol:
        return "fail", {}
    flags = {"superconvergent": True} if fitted > predicted + tol else {}
    return "pass", flags


def run_refinement_study(config: StudyConfig) -> ConvergenceTable:
    fld = get_field(config.field, config.family, config.k, config.seed)
    op = reference_operator(config.family, config.k)
    # every level at once: one rectangle per row, one DOF vector stack, one stacked solve;
    # the trailing axes keep a level axis apart from a rule axis of the same length
    stack = config.rect_at(np.arange(config.levels)[:, None, None])
    hx, hy = stack.hx, stack.hy

    def push(coeffs):  # coefficients (one row, or one per level): u, v, div on the mapped rules
        U, V, D = contract(coeffs, op.rule_tables).swapaxes(0, -3)
        return np.stack((U / hy, V / hx, D / (hx * hy)))

    if isinstance(fld, ReproductionField):  # the pushed member pulls back to itself
        values, ref = push(fld.member.coeffs), fld.member
    else:  # the stack's field side: the pull-back the DOF vector reads, the field on the rule
        ref = field_side(fld, tuple(hx.ravel().tolist()), tuple(hy.ravel().tolist()))
        values = ref.values
    interp = push(op.solve_coefficients(ref))
    # on the one mapped rule, one L^p sum of three rows: the div norm, field error and div error
    rows = np.abs(np.stack((values[2], np.hypot(*(values[:2] - interp[:2])),
                            values[2] - interp[2])))
    nd, ef, ed = _lp_sum(_mapped_rule(hx, hy)[2], rows.reshape(3, config.levels, -1), config.p)
    # Field errors are mean-normalized: the measure factor (hx hy)^{1/p} carries no rate
    # content (a float power: numpy's array power may round it apart).  Every battery field
    # vanishes at the rectangle anchor, so dividing by the field's own shrinking norm would
    # deflate each fitted rate by one.  The divergence never vanishes there, so div errors
    # are relative to the div norm, which also keeps reproduction studies at machine zero
    # when the Piola factors grow with the aspect ratio.
    nf = np.array([area ** (1.0 / config.p) for area in (hx * hy).ravel().tolist()])
    errors = dict(zip(QUANTITIES, ((ef / nf).tolist(), (ed / np.where(nd > 0, nd, nf)).tolist())))
    records = [ErrorRecord(level, x, y, {w: errors[w][level] for w in QUANTITIES})
               for level, (x, y) in enumerate(zip(hx.ravel().tolist(), hy.ravel().tolist()))]
    sx, sy = config.mode_scales()
    judged = {}
    for which in QUANTITIES:
        predicted = predicted_rate(config.family, config.k, fld, which, sx, sy)
        fitted = fitted_rate(errors[which], config.levels)
        judged[which] = Judgement(fitted, predicted, *_verdict(
            errors[which], fitted, predicted, config.rate_tolerance))
    return ConvergenceTable(config, records, judged)


# --- aggregate suite ------------------------------------------------------

def default_suite_configs() -> List[StudyConfig]:
    configs = []
    for family in ElementFamily:
        for k in degree_range(family, 2):
            for p in (1.0, 2.0):
                configs.append(StudyConfig(family, k, p, "MS-X", "shrink_x"))
                configs.append(StudyConfig(family, k, p, "MS-Y", "shrink_y"))
                configs.append(StudyConfig(family, k, p, "MS-G", "isotropic"))
    return configs


def theorem_suite(configs: Optional[List[StudyConfig]] = None,
                  replace_div_moments: bool = False) -> dict:
    """Run a study battery plus commuting spot-checks; aggregate verdicts.
    configs None runs the default suite and the commuting checks; an empty
    battery is no pass, so it is refused."""
    run_commuting = configs is None
    configs = default_suite_configs() if run_commuting else configs
    if not (configs or run_commuting):
        raise ValueError("theorem_suite got an empty battery: no study, so no verdict")
    studies, failures = [], []
    for cfg in configs:
        table = run_refinement_study(cfg)
        studies.append(table)
        mode = f"fixed_aspect({cfg.rho:g})" if cfg.mode == "fixed_aspect" else cfg.mode
        for which, judgement in table.judged.items():
            if judgement.verdict != "pass":
                failures.append(f"{cfg.family.value}_{cfg.k} {mode} {cfg.field} p={cfg.p:g} "
                                f"{which}: {table.verdict_text(which)}")
    commuting = []
    if run_commuting:
        for family in ElementFamily:
            for k in degree_range(family, 2):
                worst, ok = judge_commuting(family, k, replace_div_moments)
                commuting.append({"family": family.value, "k": k, "residual": worst})
                if not ok:
                    failures.append(
                        f"{family.value}_{k} commuting-diagram residual {worst:.3e}"
                    )
    return {"studies": studies, "commuting": commuting, "failures": failures, "ok": not failures}


def bdm_sharpness_witness(k: int) -> SpaceMember:
    """u = (0, x^{k-1} y^2 / 2) as an RT_k member: div = x^{k-1} y lies in Q_k
    but not P_{k-1}.

    BDM_k cannot reproduce this divergence while RT_k can, exhibiting
    the P-versus-Q gap between the two div estimates.  The coordinates are
    exact products of x^n = sum_m (2m+1) n!^2 / ((n-m)! (n+m+1)!) L_m(x),
    n = k - 1, and y^2 / 2 = L_0(y) / 6 + L_1(y) / 4 + L_2(y) / 12, each
    rounded once.
    """
    if k < 1:
        raise ValueError("witness needs k >= 1")
    space, n, f = build_space(ElementFamily.RT, k), k - 1, math.factorial
    in_x = [Fraction((2 * m + 1) * f(n) ** 2, f(n - m) * f(n + m + 1)) for m in range(n + 1)]
    in_y = (Fraction(1, 6), Fraction(1, 4), Fraction(1, 12))
    return space.member([float(in_x[i] * in_y[j]) if kind == "y" and i <= n and j <= 2 else 0.0
                         for kind, i, j in space.labels])
