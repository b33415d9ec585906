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

A field goes to the reference square one way, PulledBackField; piola_push
pulls one member back through the inverse map.  A study runs its levels as
one batch.  The field is pulled back to every rectangle at once (hx, hy of
shape (levels, 1, 1), a leading axis that never pairs with a rule axis of
the same length), so one DOF vector call evaluates it on
levels x the plan's axes and one stacked solve gives every level's
coefficients; an MS-P member is its own pull-back, so it is solved once.
Errors are integrated on one 20 x 20 Gauss rule, handed out as axes
(_mapped_rule): the field is sampled once per level and distinct
coordinate, and error_Lp reads the (levels, 20, 20) values x-major as
(levels, 400) rows, the order its sums have always had.  The operator
keeps its basis on the same axes (rule_tables).  Interpolants are
coefficients contracted with that table (one gemv per level; one gemm
over all levels moves last bits), times the Piola factors; a reproduced
member goes through the same table, so both sides of its error meet at
the same points even where (h x) / h misses x by an ulp.  The norm and
both errors are one error_Lp call each.

Verdicts are one-sided: a fitted rate a whole tolerance above the
prediction is flagged superconvergent but passes, since the theorems
give upper bounds for the error (lower bounds for the rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from typing import List, Optional, Tuple

import numpy as np

from .elements import (
    ElementFamily, SpaceMember, _as_family, _validate_degree, check_choice, contract,
    degree_range, require_single,
)
from .fields import FIELD_IDS, ReproductionField, check_seed, get_field
from .interpolation import REPRO_TOL, judge_commuting, reference_operator
from .poly import Polynomial2D, VectorPoly2D
from .quadrature import NONPOLY_POINTS, gauss_legendre_01, tensor_rule

MIN_H = 1e-8
MONOTONE_SLACK = 1.01
# refinement directions per mode: level j scales h_x by 2^-(sx j) and h_y by 2^-(sy j)
_SCALES = {"shrink_x": (1, 0), "shrink_y": (0, 1), "isotropic": (1, 1), "fixed_aspect": (1, 1)}
MODES = tuple(_SCALES)


@dataclass(frozen=True)
class PhysicalRect:
    """Axis-parallel element [0, hx] x [0, hy]; sides hx, hy of shape (n, 1, 1) stack n of
    them, each beside the axes a tensor rule hands out."""

    hx: float
    hy: float

    def __post_init__(self):
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
    div_ref = hx hy (div u) . F.  hx and hy may have shape (n, 1, 1), one
    row per rectangle ahead of the (x, y) axes; the values then carry that
    leading axis.
    """

    def __init__(self, fld, hx, hy):
        self.field = fld
        self.hx, self.hy = hx, hy

    def uv(self, x, y):
        U, V = self.field.uv(self.hx * np.asarray(x), self.hy * np.asarray(y))
        return self.hy * U, self.hx * V

    def div_values(self, x, y):
        d = self.field.div_values(self.hx * np.asarray(x), self.hy * np.asarray(y))
        return (self.hx * self.hy) * d


def piola_push(rect: PhysicalRect, member: SpaceMember) -> PulledBackField:
    """One member's physical image: its pull-back through the inverse map."""
    return PulledBackField(require_single(member, "piola_push"), 1 / rect.hx, 1 / rect.hy)


class _Values:
    """A field known only by its values (U, V, div), whatever the points.

    Constants hold anywhere.  Arrays are one sample on the grid of the
    mapped error rule of a rectangle or a stack, (..., 20, 20), which
    error_Lp reads there and nowhere else, so one sample serves the norm
    and both errors.
    """

    def __init__(self, U, V, D):
        self.U, self.V, self.D = U, V, D

    def uv(self, x, y):
        return self.U, self.V

    def div_values(self, x, y):
        return self.D


ZERO_FIELD = _Values(0.0, 0.0, 0.0)


def _mapped_rule(hx, hy):
    """The fixed 20 x 20 Gauss rule mapped to [0, hx] x [0, hy]: the axes x
    (..., 20, 1) and y (..., 1, 20), and the weights ws (..., 400) of the
    grid they span, x-major; sides of shape (m, 1, 1) map it to one
    rectangle per row."""
    n = NONPOLY_POINTS
    t = gauss_legendre_01(n).nodes
    ws = (hx * hy) * tensor_rule(n, n).ws.reshape(n, n)
    return hx * t[:, None], hy * t[None, :], ws.reshape(ws.shape[:-2] + (n * n,))


def error_Lp(fld, interpolant, rect: PhysicalRect, p: float, which: str):
    """(integral over the rectangle of |fld - interpolant|^p)^(1/p); one per row of a stack.

    which='field' uses the Euclidean magnitude of the vector difference,
    which='div' the absolute divergence difference, sampled on the axes of
    _mapped_rule(rect.hx, rect.hy) and summed in the grid's x-major order.
    """
    _check_lp_args(p, which)
    x, y, ws = _mapped_rule(rect.hx, rect.hy)
    if which == "field":
        U1, V1 = fld.uv(x, y)
        U2, V2 = interpolant.uv(x, y)
        mag = np.hypot(np.asarray(U1 - U2, dtype=float), np.asarray(V1 - V2, dtype=float))
    else:
        d1 = fld.div_values(x, y)
        d2 = interpolant.div_values(x, y)
        mag = np.abs(np.asarray(d1 - d2, dtype=float))
    grid = np.broadcast(x, y).shape
    return _lp_sum(ws, np.broadcast_to(mag, grid).reshape(ws.shape), p)


def _check_lp_args(p: float, which: str) -> None:
    if not p >= 1:  # also rejects nan
        raise ValueError("p must be >= 1")
    if which not in ("field", "div"):
        raise ValueError("which must be 'field' or 'div'")


def _lp_sum(ws, mag, p: float):
    """(sum ws mag^p)^(1/p) over the last axis: a float, or one per row.

    Where a row's plain sum underflows or overflows (large p), its mag is first
    scaled by its maximum, so it stays finite and nonzero; roots are scalar powers.
    """
    ws, mag = np.broadcast_arrays(ws, mag)
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(ws * mag**p, axis=-1, keepdims=True)
        rescale = np.any(mag, axis=-1, keepdims=True) & ~(
            np.isfinite(total) & (total >= np.finfo(float).tiny))
        top = np.where(rescale, np.max(mag, axis=-1, keepdims=True), 1.0)
        if rescale.any():
            total = np.where(rescale, np.sum(ws * (mag / top) ** p, -1, keepdims=True), total)
        roots = [float(t * s ** (1.0 / p)) for t, s in zip(top.ravel(), total.ravel())]
    return roots[0] if ws.ndim == 1 else np.array(roots)


def norm_Lp(fld, rect: PhysicalRect, p: float, which: str):
    return error_Lp(fld, ZERO_FIELD, rect, p, which)


@dataclass(frozen=True)
class ErrorRecord:
    level: int
    hx: float
    hy: float
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
        check_choice("field", self.field, FIELD_IDS)
        check_choice("mode", self.mode, MODES)
        if not isinstance(self.levels, (int, np.integer)):
            raise ValueError("levels must be an integer")
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
        check_seed(self.seed)
        if self.mode == "fixed_aspect" and self.h0 > self.rho:
            raise ValueError("fixed_aspect(R) needs h0 / R <= 1 (h_y may not exceed 1)")
        try:  # the smallest rectangle; 2.0**-levels overflows past ~1e308 levels
            self.rect_at(self.levels - 1)
        except (ValueError, OverflowError):
            raise ValueError(f"levels={self.levels} with h0={self.h0:g} and rho={self.rho:g} "
                             f"shrinks a side below {MIN_H:g} at the last level") from None

    def rect_at(self, level: int) -> PhysicalRect:
        sx, sy = self.mode_scales()
        aspect = self.rho if self.mode == "fixed_aspect" else 1.0
        return PhysicalRect(self.h0 * 2.0**-(sx * level), self.h0 * 2.0**-(sy * level) / aspect)

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

    def verdict_text(self, which: str) -> str:
        """which's verdict and its sorted reasons: 'inconclusive (non_monotone)'."""
        flags = self.flags.get(which, {})
        verdict = self.verdict_field if which == "field" else self.verdict_div
        return verdict + "".join(f" ({name})" for name in sorted(flags) if flags[name])

    def level_rates(self, which: str) -> List[Optional[float]]:
        errs = [r.err_field_Lp if which == "field" else r.err_div_Lp for r in self.records]
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


def _predicted_rate(groups, nonzero, sx: int, sy: int) -> float:
    """Max over groups of the slowest rate a1 sx + a2 sy among the terms the
    field keeps (nonzero partials); a group with no such term gives 0."""
    return float(max(min((a1 * sx + a2 * sy for a1, a2 in group if nonzero(a1, a2)), default=0)
                     for group in groups))


def predicted_div_rate(family, k: int, fld, sx: int, sy: int) -> float:
    return _predicted_rate(estimate_terms(family, k, "div", sx, sy), fld.div_deriv_nonzero, sx, sy)


def predicted_field_rate(family, k: int, fld, sx: int, sy: int) -> float:
    def nz(a1, a2):
        return fld.deriv_nonzero(a1, a2, 0) or fld.deriv_nonzero(a1, a2, 1)

    return _predicted_rate(estimate_terms(family, k, "field", sx, sy), nz, sx, sy)


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
    op = reference_operator(config.family, config.k)
    rects = [config.rect_at(level) for level in range(config.levels)]
    # every level at once: one rectangle per row, one DOF vector stack, one stacked solve;
    # the trailing axes keep a level axis apart from a rule axis of the same length
    hx, hy = (np.array(side).reshape(-1, 1, 1) for side in zip(*((r.hx, r.hy) for r in rects)))

    def push(coeffs):  # coefficients (one row, or one per level) on the mapped rules
        U, V, D = (contract(coeffs, t) for t in op.rule_tables)
        return _Values(U / hy, V / hx, D / (hx * hy))

    if isinstance(fld, ReproductionField):
        # the pull-back of the pushed member is the member at every level
        coeffs = op.solve_coefficients(fld.member)
        sample = push(fld.member.coeffs)
    else:
        coeffs = op.solve_coefficients(PulledBackField(fld, hx, hy))
        x, y, _ = _mapped_rule(hx, hy)
        sample = _Values(*fld.uv(x, y), fld.div_values(x, y))
    interp = push(coeffs)
    # Field errors are mean-normalized (the measure factor (hx hy)^{1/p}
    # carries no rate content); every battery field vanishes at the
    # rectangle anchor, so dividing by the field's own shrinking norm
    # would deflate each fitted rate by one.  The divergence never
    # vanishes there, so div errors are relative to the div norm, which
    # also keeps reproduction studies at machine zero when the Piola
    # factors grow with the aspect ratio.
    stack = PhysicalRect(hx, hy)
    nf = np.array([(rect.hx * rect.hy) ** (1.0 / config.p) for rect in rects])
    nd = norm_Lp(sample, stack, config.p, "div")
    ef = error_Lp(sample, interp, stack, config.p, "field") / nf
    ed = error_Lp(sample, interp, stack, config.p, "div") / np.where(nd > 0, nd, nf)
    errs_f, errs_d = ef.tolist(), ed.tolist()
    records = [ErrorRecord(level, rect.hx, rect.hy, f, d)
               for level, (rect, f, d) in enumerate(zip(rects, errs_f, errs_d))]
    sx, sy = config.mode_scales()
    pred_f = predicted_field_rate(config.family, config.k, fld, sx, sy)
    pred_d = predicted_div_rate(config.family, config.k, fld, sx, sy)
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
    """Run a study battery plus commuting spot-checks; aggregate verdicts."""
    run_commuting = configs is None
    if configs is None:
        configs = default_suite_configs()
    studies = []
    failures = []
    for cfg in configs:
        table = run_refinement_study(cfg)
        studies.append(table)
        mode = f"fixed_aspect({cfg.rho:g})" if cfg.mode == "fixed_aspect" else cfg.mode
        for which, verdict in (("field", table.verdict_field), ("div", table.verdict_div)):
            if verdict != "pass":
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
