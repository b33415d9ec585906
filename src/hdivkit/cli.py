"""Command-line interface: tabulate spaces, verify operators, run rate studies.

Subcommands:
  tabulate   space dimension, DOF counts, and divergence space per family/degree
  check      unisolvence, projection, commuting-diagram, and div-span suites
  converge   one refinement study with CSV or JSON output and a verdict summary

Exit codes: 0 pass, 1 check or verdict failure, 2 usage error, 3 output I/O
error.  Output files are written atomically (temp file + rename) and are
byte-stable across repeated runs of the same configuration; floats are
formatted with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np

from .dofs import build_dofs
from .elements import (
    MAX_DEGREE, ElementFamily, _as_family, _validate_degree, build_div_space, build_space,
    degree_range, span_check,
)
from .fields import commuting_battery, env_seed
from .harness import StudyConfig, run_refinement_study
from .interpolation import (
    COMMUTING_TOL,
    COND_WARN,
    OperatorConstructionError,
    commuting_residual,
    reference_operator,
    unisolvence_report,
)

FAMILIES = tuple(f.value for f in ElementFamily)
COMMUTING_KMAX = 3
PROJECTION_MEMBERS = 20
PROJECTION_TOL = 1e-12

# converge's study flags, which are also its config-file keys; absent keys
# take StudyConfig's defaults, output defaults to stdout and format to csv
CONFIG_KEYS = ("family", "k", "p", "field", "mode", "levels", "h0", "rate_tolerance",
               "output", "format")
_INT_KEYS = {"k", "levels"}
_FLOAT_KEYS = {"p", "h0", "rate_tolerance"}


class UsageError(Exception):
    pass


def _family_list(name: Optional[str]) -> List[str]:
    # argparse choices restrict name to FAMILIES
    return list(FAMILIES) if name is None else [name]


def _check_kmax(args) -> None:
    # with no family, BDM's k >= 1 is left to degree_range
    try:
        _validate_degree(_as_family(args.family or "RT"), args.kmax)
    except ValueError as exc:
        raise UsageError(str(exc))


# --- tabulate -------------------------------------------------------------

def cmd_tabulate(args) -> int:
    _check_kmax(args)
    for family in _family_list(args.family):
        for k in degree_range(family, args.kmax):
            space = build_space(family, k)
            counts = build_dofs(family, k).count_by_kind()
            div_space = build_div_space(family, k)
            print(
                f"{family},{k},dim={space.dim},edge={counts['edge_moment']},"
                f"interior={counts['interior_moment']},div={counts['div_moment']},"
                f"divspace={div_space.description},divdim={div_space.dim}"
            )
    return 0


# --- check ----------------------------------------------------------------

def cmd_check(args) -> int:
    _check_kmax(args)
    try:
        seed = env_seed()
    except ValueError as exc:
        raise UsageError(str(exc))
    replace = args.debug_disable_div_moments
    families = _family_list(args.family)
    failures: List[str] = []

    def record(check: str, family: str, k: int, label: str, value: float, ok: bool):
        print(f"{check} {family}_{k}: {label}={value:.3e} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{family}_{k} {check}")

    for family in families:
        for k in degree_range(family, args.kmax):
            rep = unisolvence_report(family, k, replace_div_moments=replace)
            ok = bool(rep["nonsingular"]) and rep["condition"] <= COND_WARN
            record("unisolvence", family, k, "condition", rep["condition"], ok)

    for family in families:
        for k in degree_range(family, args.kmax):
            try:
                op = reference_operator(family, k, replace)
            except OperatorConstructionError:
                record("projection", family, k, "max_rel_coeff_err", math.inf, False)
                continue
            rng = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(PROJECTION_MEMBERS):
                member = op.space.random_member(rng)
                coeffs = op.solve_coefficients(member)
                scale = np.abs(member.coeffs).max()
                worst = max(worst, np.abs(coeffs - member.coeffs).max() / scale)
            record("projection", family, k, "max_rel_coeff_err", worst, worst <= PROJECTION_TOL)

    battery = commuting_battery()
    for family in families:
        for k in degree_range(family, min(args.kmax, COMMUTING_KMAX)):
            try:
                worst = max(
                    commuting_residual(family, k, f, replace_div_moments=replace)
                    for f in battery
                )
            except OperatorConstructionError:
                worst, ok = math.inf, False
            else:
                ok = worst <= COMMUTING_TOL
            record("commuting", family, k, "max_residual", worst, ok)

    for family in families:
        for k in degree_range(family, args.kmax):
            report = span_check(build_space(family, k))
            record("span", family, k, "max_residual", report["max_residual"], report["ok"])

    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    print("all checks passed")
    return 0


# --- converge -------------------------------------------------------------

def _parse_mode(text: str) -> dict:
    """Split fixed_aspect(R) into mode and rho; StudyConfig checks both."""
    name = text.strip()
    if name.startswith("fixed_aspect(") and name.endswith(")"):
        inner = name[len("fixed_aspect("):-1]
        try:
            return {"mode": "fixed_aspect", "rho": float(inner)}
        except ValueError:
            raise UsageError(f"bad aspect ratio '{inner}'")
    return {"mode": name}


def _read_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    out: Dict[str, str] = {}
    for num, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{num}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{num}: unknown key '{key}'")
        if key in out:
            raise UsageError(f"{path}:{num}: duplicate key '{key}'")
        out[key] = value
    return out


def _converge_settings(args) -> dict:
    """The converge keys that were given, from the flags or the config file."""
    settings = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    if args.config is None:
        return settings
    if settings:
        raise UsageError("--config cannot be combined with study flags")
    for key, value in _read_config_file(args.config).items():
        if key in _INT_KEYS:
            try:
                settings[key] = int(value)
            except ValueError:
                raise UsageError(f"key '{key}' expects an integer, got '{value}'")
        elif key in _FLOAT_KEYS:
            try:
                settings[key] = float(value)
            except ValueError:
                raise UsageError(f"key '{key}' expects a number, got '{value}'")
        else:
            settings[key] = value
    return settings


def _fmt_float(x) -> str:
    return "%.17g" % float(x)


def _csv_text(table) -> str:
    rate_f = table.level_rates("field")
    rate_d = table.level_rates("div")
    lines = ["level,hx,hy,err_field,err_div,rate_field,rate_div"]
    for i, rec in enumerate(table.records):
        lines.append(",".join([
            str(rec.level),
            _fmt_float(rec.hx),
            _fmt_float(rec.hy),
            _fmt_float(rec.err_field_Lp),
            _fmt_float(rec.err_div_Lp),
            "" if rate_f[i] is None else _fmt_float(rate_f[i]),
            "" if rate_d[i] is None else _fmt_float(rate_d[i]),
        ]))
    return "\n".join(lines) + "\n"


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_text(table) -> str:
    rate_f = table.level_rates("field")
    rate_d = table.level_rates("div")
    records = []
    for i, rec in enumerate(table.records):
        records.append({
            "level": rec.level,
            "hx": rec.hx,
            "hy": rec.hy,
            "err_field": rec.err_field_Lp,
            "err_div": rec.err_div_Lp,
            "rate_field": rate_f[i],
            "rate_div": rate_d[i],
        })
    payload = {
        "config": table.config.describe(),
        "records": records,
        "fitted_rates": {"field": table.fitted_rate_field, "div": table.fitted_rate_div},
        "predicted_rates": {"field": table.predicted_rate_field, "div": table.predicted_rate_div},
        "verdicts": {"field": table.verdict_field, "div": table.verdict_div},
    }
    return _json_value(payload) + "\n"


def _atomic_write(path: str, text: str) -> None:
    # temp file beside the target so os.replace never crosses filesystems
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".hdivkit.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _verdict_lines(table) -> List[str]:
    out = []
    for which, fitted, predicted, verdict in (
        ("field", table.fitted_rate_field, table.predicted_rate_field, table.verdict_field),
        ("div", table.fitted_rate_div, table.predicted_rate_div, table.verdict_div),
    ):
        flags = table.flags.get(which, {})
        note = "".join(f" ({name})" for name in sorted(flags) if flags[name])
        shown = "n/a" if fitted is None else "%.4f" % fitted
        out.append(f"{which}: fitted={shown} predicted={predicted:g} verdict={verdict}{note}")
    return out


def cmd_converge(args) -> int:
    settings = _converge_settings(args)
    fmt = settings.pop("format", "csv")
    output = settings.pop("output", None)
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format '{fmt}' (csv or json)")
    if "mode" in settings:
        settings.update(_parse_mode(settings["mode"]))
    try:
        table = run_refinement_study(StudyConfig(**settings))
    except ValueError as exc:
        raise UsageError(str(exc))
    text = _csv_text(table) if fmt == "csv" else _json_text(table)
    if output:
        try:
            _atomic_write(output, text)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 3
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)
    for line in _verdict_lines(table):
        print(line)
    return 0 if table.verdict_field == "pass" and table.verdict_div == "pass" else 1


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdivkit",
        description=(
            "Reference-element toolkit for H(div) rectangles: tabulate spaces, "
            "verify interpolation operators, run anisotropic rate studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tab = sub.add_parser(
        "tabulate",
        help="print space dimension, DOF counts, and divergence space per family/degree",
    )
    tab.add_argument("--family", choices=FAMILIES, default=None)
    tab.add_argument("--kmax", type=int, default=MAX_DEGREE)

    chk = sub.add_parser(
        "check",
        help="run unisolvence, projection, commuting-diagram, and div-span suites",
    )
    chk.add_argument("--family", choices=FAMILIES, default=None)
    chk.add_argument("--kmax", type=int, default=3)
    chk.add_argument(
        "--debug-disable-div-moments",
        action="store_true",
        help="swap ABF divergence moments for plain interior moments (negative control)",
    )

    conv = sub.add_parser(
        "converge",
        help="run one refinement study and emit CSV or JSON plus a verdict summary",
    )
    conv.add_argument("--config", default=None, help="key=value study file; exclusive with the flags below")
    conv.add_argument("--family", default=None)
    conv.add_argument("--k", type=int, default=None)
    conv.add_argument("--p", type=float, default=None)
    conv.add_argument("--field", default=None)
    conv.add_argument("--mode", default=None, help="shrink_x, shrink_y, isotropic, or fixed_aspect(R)")
    conv.add_argument("--levels", type=int, default=None)
    conv.add_argument("--h0", type=float, default=None)
    conv.add_argument("--rate-tolerance", type=float, default=None, dest="rate_tolerance")
    conv.add_argument("--output", default=None)
    conv.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"tabulate": cmd_tabulate, "check": cmd_check, "converge": cmd_converge}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left; devnull takes the rest, so shutdown raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
