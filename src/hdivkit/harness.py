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
Rates are fitted by least squares on
the last levels and judged against predictions that combine the
theorem's exponent table with the field's structural zero derivatives,
so a study that refines a direction the field does not depend on is
checked for stagnation instead of a bogus rate.

Verdicts are one-sided: a fitted rate a whole tolerance above the
prediction is flagged superconvergent but passes, since the theorems
give upper bounds for the error (lower bounds for the rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

import numpy as np

from .elements import (
    ElementFamily, SpaceMember, _as_family, _validate_degree, build_space, degree_range,
)
from .fields import FIELD_IDS, ReproductionField, commuting_battery, get_field
from .interpolation import COMMUTING_TOL, commuting_residual, reference_operator
from .poly import Polynomial2D, VectorPoly2D
from .quadrature import NONPOLY_POINTS, tensor_rule

MIN_H = 1e-8
REPRO_TOL = 1e-12
MONOTONE_SLACK = 1.01
MODES = ("shrink_x", "shrink_y", "isotropic", "fixed_aspect")


@dataclass(frozen=True)
class PhysicalRect:
    """Axis-parallel element [0, hx] x [0, hy]."""

    hx: float
    hy: float

    def __post_init__(self):
        if not (self.hx > 0 and self.hy > 0):
            raise ValueError("rectangle dimensions must be positive")
        if self.hx < MIN_H or self.hy < MIN_H:
            raise ValueError(f"dimensions below {MIN_H:g} are rejected")


class PulledBackField:
    """Reference-side view of a physical field under the Piola map.

    With F(x, y) = (hx x, hy y): u_ref = (hy u . F, hx v . F) and
    div_ref = hx hy (div u) . F.
    """

    def __init__(self, fld, rect: PhysicalRect):
        self.field = fld
        self.rect = rect

    def uv(self, x, y):
        U, V = self.field.uv(self.rect.hx * np.asarray(x), self.rect.hy * np.asarray(y))
        return self.rect.hy * U, self.rect.hx * V

    def div_values(self, x, y):
        d = self.field.div_values(self.rect.hx * np.asarray(x), self.rect.hy * np.asarray(y))
        return (self.rect.hx * self.rect.hy) * d


class PhysicalMemberField:
    """Physical (push-forward) image of a reference-space member."""

    def __init__(self, member: SpaceMember, rect: PhysicalRect):
        self.member = member
        self.rect = rect

    def uv(self, x, y):
        U, V = self.member.uv(np.asarray(x) / self.rect.hx, np.asarray(y) / self.rect.hy)
        return U / self.rect.hy, V / self.rect.hx

    def div_values(self, x, y):
        d = self.member.div_values(np.asarray(x) / self.rect.hx, np.asarray(y) / self.rect.hy)
        return d / (self.rect.hx * self.rect.hy)


def piola_pullback(rect: PhysicalRect, fld):
    """Transport a physical field to the reference square.

    Push-forward images of reference members round-trip exactly;
    polynomial fields map by coefficient scaling; anything else becomes
    a sampling adapter.  A bare space member is sampled too: its
    monomial grids lose digits at high degree.
    """
    if isinstance(fld, PhysicalMemberField) and fld.rect == rect:
        return fld.member
    if isinstance(fld, VectorPoly2D) and not isinstance(fld, SpaceMember):
        u = fld.u.scale_arguments(rect.hx, rect.hy) * rect.hy
        v = fld.v.scale_arguments(rect.hx, rect.hy) * rect.hx
        return VectorPoly2D(u, v)
    return PulledBackField(fld, rect)


def piola_push(rect: PhysicalRect, member: SpaceMember) -> PhysicalMemberField:
    return PhysicalMemberField(member, rect)


def interpolate_on_rect(family, k: int, rect: PhysicalRect, fld) -> PhysicalMemberField:
    """Pull back, interpolate on the reference square, push forward."""
    op = reference_operator(_as_family(family), k)
    return PhysicalMemberField(op.interpolate(piola_pullback(rect, fld)), rect)


class _ZeroField:
    def uv(self, x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z

    def div_values(self, x, y):
        return np.zeros_like(np.asarray(x, dtype=float))


ZERO_FIELD = _ZeroField()


def error_Lp(fld, interpolant, rect: PhysicalRect, p: float, which: str) -> float:
    """(integral over the rectangle of |fld - interpolant|^p)^(1/p).

    which='field' uses the Euclidean magnitude of the vector difference,
    which='div' the absolute divergence difference.  Fixed 20 x 20
    Gauss rule mapped to the rectangle.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if which not in ("field", "div"):
        raise ValueError("which must be 'field' or 'div'")
    rule = tensor_rule(NONPOLY_POINTS, NONPOLY_POINTS)
    xs = rect.hx * rule.xs
    ys = rect.hy * rule.ys
    ws = (rect.hx * rect.hy) * rule.ws
    if which == "field":
        U1, V1 = fld.uv(xs, ys)
        U2, V2 = interpolant.uv(xs, ys)
        mag = np.hypot(np.asarray(U1 - U2, dtype=float), np.asarray(V1 - V2, dtype=float))
    else:
        d1 = fld.div_values(xs, ys)
        d2 = interpolant.div_values(xs, ys)
        mag = np.abs(np.asarray(d1 - d2, dtype=float))
    return _lp_sum(ws, mag, p)


def _lp_sum(ws, mag, p: float) -> float:
    """(sum ws mag^p)^(1/p).

    When the plain sum underflows or overflows (large p), mag is first
    scaled by its maximum, so the result stays finite and nonzero.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(ws * mag**p)
        if (np.isfinite(total) and total >= np.finfo(float).tiny) or not np.any(mag):
            return float(total ** (1.0 / p))
        top = np.max(mag)
        return float(top * np.sum(ws * (mag / top) ** p) ** (1.0 / p))


def norm_Lp(fld, rect: PhysicalRect, p: float, which: str) -> float:
    return error_Lp(fld, ZERO_FIELD, rect, p, which)


def error_Lp_reference(ref_field, member: SpaceMember, rect: PhysicalRect,
                       p: float, which: str) -> float:
    """The same physical error, integrated on the reference square.

    Consistency oracle for error_Lp: reference components scale by
    1/hy, 1/hx (divergence by 1/(hx hy)) and the measure by hx hy.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rule = tensor_rule(NONPOLY_POINTS, NONPOLY_POINTS)
    xs, ys, ws = rule.xs, rule.ys, rule.ws
    area = rect.hx * rect.hy
    if which == "field":
        U1, V1 = ref_field.uv(xs, ys)
        U2, V2 = member.uv(xs, ys)
        mag = np.hypot(np.asarray(U1 - U2, dtype=float) / rect.hy,
                       np.asarray(V1 - V2, dtype=float) / rect.hx)
    else:
        d1 = ref_field.div_values(xs, ys)
        d2 = member.div_values(xs, ys)
        mag = np.abs(np.asarray(d1 - d2, dtype=float)) / area
    return _lp_sum(area * ws, mag, p)


@dataclass(frozen=True)
class ErrorRecord:
    level: int
    hx: float
    hy: float
    p: float
    err_field_Lp: float
    err_div_Lp: float


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
        if self.field not in FIELD_IDS:
            raise ValueError(f"unknown field '{self.field}' (choose from {', '.join(FIELD_IDS)})")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}' (choose from {', '.join(MODES)})")
        if self.levels < 3:
            raise ValueError("levels must be >= 3")
        if not (0 < self.h0 <= 1):
            raise ValueError("h0 must lie in (0, 1]")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError("p must be finite and >= 1")
        if not (math.isfinite(self.rate_tolerance) and self.rate_tolerance >= 0):
            raise ValueError("rate tolerance must be finite and >= 0")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("aspect ratio must be positive and finite")
        if self.mode == "fixed_aspect" and self.h0 > self.rho:
            raise ValueError("fixed_aspect(R) needs h0 / R <= 1 (h_y may not exceed 1)")
        try:  # the smallest rectangle; 2.0**-levels overflows past ~1e308 levels
            self.rect_at(self.levels - 1)
        except (ValueError, OverflowError):
            raise ValueError(f"levels={self.levels} with h0={self.h0:g} and rho={self.rho:g} "
                             f"shrinks a side below {MIN_H:g} at the last level") from None

    def rect_at(self, level: int) -> PhysicalRect:
        h = self.h0 * 2.0**-level
        if self.mode == "shrink_x":
            return PhysicalRect(h, self.h0)
        if self.mode == "shrink_y":
            return PhysicalRect(self.h0, h)
        if self.mode == "isotropic":
            return PhysicalRect(h, h)
        return PhysicalRect(h, h / self.rho)

    def mode_scales(self) -> Tuple[int, int]:
        if self.mode == "shrink_x":
            return 1, 0
        if self.mode == "shrink_y":
            return 0, 1
        return 1, 1

    def describe(self) -> dict:
        out = {
            "family": self.family.value,
            "k": self.k,
            "p": self.p,
            "field": self.field,
            "mode": self.mode,
            "levels": self.levels,
            "h0": self.h0,
            "rate_tolerance": self.rate_tolerance,
        }
        if self.mode == "fixed_aspect":
            out["rho"] = self.rho
        return out


@dataclass
class ConvergenceTable:
    config: StudyConfig
    records: List[ErrorRecord]
    fitted_rate_field: Optional[float]
    fitted_rate_div: Optional[float]
    predicted_rate_field: float
    predicted_rate_div: float
    verdict_field: str
    verdict_div: str
    flags: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict_field == "pass" and self.verdict_div == "pass"

    def level_rates(self, which: str) -> List[Optional[float]]:
        errs = [r.err_field_Lp if which == "field" else r.err_div_Lp for r in self.records]
        rates: List[Optional[float]] = [None]
        for a, b in zip(errs, errs[1:]):
            rates.append(math.log2(a / b) if a > 0 and b > 0 else None)
        return rates


# --- rate predictions ---------------------------------------------------

def _contributing_rate(terms, nonzero, sx: int, sy: int) -> float:
    rates = [a1 * sx + a2 * sy for a1, a2 in terms if nonzero(a1, a2)]
    return float(min(rates)) if rates else 0.0


def predicted_div_rate(family, k: int, fld, mode: str, sx: int, sy: int) -> float:
    family = _as_family(family)
    nz = fld.div_deriv_nonzero
    if family is ElementFamily.RT:
        return _contributing_rate([(k + 1, 0), (0, k + 1)], nz, sx, sy)
    if family is ElementFamily.BDM:
        terms = [(a, k - a) for a in range(k + 1)]
        return _contributing_rate(terms, nz, sx, sy)
    est2 = _contributing_rate([(k + 1, 0), (0, k + 1)], nz, sx, sy)
    if mode in ("isotropic", "fixed_aspect"):
        terms = [(a, k + 2 - a) for a in range(k + 3)]
        est1 = _contributing_rate(terms, nz, sx, sy)
        return max(est1, est2)
    return est2


def predicted_field_rate(family, k: int, fld, mode: str, sx: int, sy: int) -> float:
    family = _as_family(family)

    def nz(a1, a2):
        return fld.deriv_nonzero(a1, a2, 0) or fld.deriv_nonzero(a1, a2, 1)

    if family is ElementFamily.BDM:
        terms = [(a, k + 1 - a) for a in range(k + 2)]
        return _contributing_rate(terms, nz, sx, sy)
    return _contributing_rate([(k + 1, 0), (0, k + 1)], nz, sx, sy)


# --- fitting and verdicts -------------------------------------------------

def fit_window(levels: int) -> int:
    return max(3, levels - 2)


def fitted_rate(errors: List[float], levels: int) -> Optional[float]:
    w = fit_window(levels)
    tail = errors[-w:]
    if any(e <= 0 or not math.isfinite(e) for e in tail):
        return None
    js = np.arange(levels - w, levels, dtype=float)
    slope = np.polyfit(js, np.log2(tail), 1)[0]
    return float(-slope)

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
    records = []
    for level in range(config.levels):
        rect = config.rect_at(level)
        if isinstance(fld, ReproductionField):
            phys = piola_push(rect, fld.member)
        else:
            phys = fld
        interp = interpolate_on_rect(config.family, config.k, rect, phys)
        # Field errors are mean-normalized (the measure factor (hx hy)^{1/p}
        # carries no rate content); every battery field vanishes at the
        # rectangle anchor, so dividing by the field's own shrinking norm
        # would deflate each fitted rate by one.  The divergence never
        # vanishes there, so div errors are relative to the div norm, which
        # also keeps reproduction studies at machine zero when the Piola
        # factors grow with the aspect ratio.
        nf = (rect.hx * rect.hy) ** (1.0 / config.p)
        nd = norm_Lp(phys, rect, config.p, "div")
        ef = error_Lp(phys, interp, rect, config.p, "field") / nf
        ed = error_Lp(phys, interp, rect, config.p, "div") / (nd if nd > 0 else nf)
        records.append(ErrorRecord(level, rect.hx, rect.hy, config.p, ef, ed))
    errs_f = [r.err_field_Lp for r in records]
    errs_d = [r.err_div_Lp for r in records]
    sx, sy = config.mode_scales()
    pred_f = predicted_field_rate(config.family, config.k, fld, config.mode, sx, sy)
    pred_d = predicted_div_rate(config.family, config.k, fld, config.mode, sx, sy)
    fit_f = fitted_rate(errs_f, config.levels)
    fit_d = fitted_rate(errs_d, config.levels)
    verdict_f, flags_f = _verdict(errs_f, fit_f, pred_f, config.rate_tolerance)
    verdict_d, flags_d = _verdict(errs_d, fit_d, pred_d, config.rate_tolerance)
    flags = {}
    if flags_f:
        flags["field"] = flags_f
    if flags_d:
        flags["div"] = flags_d
    return ConvergenceTable(
        config=config,
        records=records,
        fitted_rate_field=fit_f,
        fitted_rate_div=fit_d,
        predicted_rate_field=pred_f,
        predicted_rate_div=pred_d,
        verdict_field=verdict_f,
        verdict_div=verdict_d,
        flags=flags,
    )


# --- aggregate suite ------------------------------------------------------

def default_suite_configs(levels: int = 6, h0: float = 0.5) -> List[StudyConfig]:
    configs = []
    for family in ElementFamily:
        for k in degree_range(family, 2):
            for p in (1.0, 2.0):
                configs.append(StudyConfig(family, k, p, "MS-X", "shrink_x",
                                           levels=levels, h0=h0))
                configs.append(StudyConfig(family, k, p, "MS-Y", "shrink_y",
                                           levels=levels, h0=h0))
                configs.append(StudyConfig(family, k, p, "MS-G", "isotropic",
                                           levels=levels, h0=h0))
    return configs


def theorem_suite(configs: Optional[List[StudyConfig]] = None,
                  replace_div_moments: bool = False) -> dict:
    """Run a study battery plus commuting spot-checks; aggregate verdicts."""
    run_commuting = configs is None
    if configs is None:
        configs = default_suite_configs()
    studies = []
    failures = []
    for cfg in configs:
        table = run_refinement_study(cfg)
        studies.append(table)
        for which, verdict in (("field", table.verdict_field), ("div", table.verdict_div)):
            if verdict != "pass":
                failures.append(
                    f"{cfg.family.value}_{cfg.k} {cfg.mode} {cfg.field} p={cfg.p:g} "
                    f"{which}: {verdict}"
                )
    commuting = []
    if run_commuting:
        for family in ElementFamily:
            for k in degree_range(family, 2):
                worst = 0.0
                for fld in commuting_battery():
                    worst = max(worst, commuting_residual(
                        family, k, fld, replace_div_moments=replace_div_moments))
                commuting.append({"family": family.value, "k": k, "residual": worst})
                if worst > COMMUTING_TOL:
                    failures.append(
                        f"{family.value}_{k} commuting-diagram residual {worst:.3e}"
                    )
    return {
        "studies": studies,
        "commuting": commuting,
        "failures": failures,
        "ok": not failures,
    }


def bdm_sharpness_witness(k: int) -> VectorPoly2D:
    """u = (0, x^{k-1} y^2 / 2): div = x^{k-1} y lies in Q_k but not P_{k-1}.

    BDM_k cannot reproduce this divergence while RT_k can, exhibiting
    the P-versus-Q gap between the two div estimates.
    """
    if k < 1:
        raise ValueError("witness needs k >= 1")
    return VectorPoly2D(Polynomial2D.zero(), Polynomial2D.monomial(k - 1, 2, 0.5))
