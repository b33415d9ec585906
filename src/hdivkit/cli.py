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
import functools
import math
import os
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np

from .dofs import build_dofs
from .elements import (
    FAMILIES, MAX_DEGREE, ElementFamily, _as_family, _validate_degree, build_div_space,
    build_space, check_choice, degree_range, span_check,
)
from .fields import FIELD_IDS, env_seed
from .harness import MODES, StudyConfig, run_refinement_study
from .interpolation import (
    REPRO_TOL,
    OperatorConstructionError,
    judge_commuting,
    reference_operator,
    unisolvence_report,
)

COMMUTING_KMAX = 3
PROJECTION_MEMBERS = 20


class UsageError(Exception):
    pass


def _flag_type(parse, error):
    """A flag type that rewords parse's ValueError as error.  argparse words
    a plain ValueError as 'invalid value' and shows an ArgumentTypeError as
    its own usage error; a UsageError passes it by, so main words it as
    StudyConfig does.  A config file adds its file:line to either."""
    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise error(str(exc)) from None
    return typed


def _parse_mode(text: str) -> dict:
    """Split fixed_aspect(R) into mode and rho; StudyConfig checks rho."""
    name = text.strip()
    if name.startswith("fixed_aspect(") and name.endswith(")"):
        inner = name[len("fixed_aspect("):-1]
        try:
            return {"mode": "fixed_aspect", "rho": float(inner)}
        except ValueError:
            raise ValueError(f"bad aspect ratio '{inner}'") from None
    return {"mode": check_choice("mode", name, MODES)}


# converge's study flags, which are also its config-file keys: one table
# types and checks both.  Absent keys take StudyConfig's defaults, output
# defaults to stdout and format to csv.
STUDY_FLAGS = {
    "family": {"type": _flag_type(_as_family, argparse.ArgumentTypeError)},
    "k": {"type": int},
    "p": {"type": float},
    "field": {"type": _flag_type(lambda name: check_choice("field", name, FIELD_IDS), UsageError)},
    "mode": {"type": _flag_type(_parse_mode, UsageError),
             "help": "shrink_x, shrink_y, isotropic, or fixed_aspect(R)"},
    "levels": {"type": int},
    "h0": {"type": float},
    "rate_tolerance": {"type": float},
    "output": {},
    "format": {"choices": ("csv", "json")},
}
CONFIG_KEYS = tuple(STUDY_FLAGS)


def _family_list(family: Optional[ElementFamily]) -> List[str]:
    # the --family flag type has already turned any case of a name into its family
    return list(FAMILIES) if family is None else [family.value]


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

def _judge_unisolvence(family: str, k: int, replace: bool):
    report = unisolvence_report(family, k, replace_div_moments=replace)
    return report["condition"], report["ok"]


def _judge_projection(family: str, k: int, replace: bool):
    """The worst relative coefficient error of random members interpolated back."""
    op = reference_operator(family, k, replace)
    # each (family, k) seeds its own generator; one draw, the numbers of 20 random_member calls
    exact = np.random.default_rng(env_seed()).standard_normal((PROJECTION_MEMBERS, op.space.dim))
    # the members as one stack: one DOF vector call, one stacked solve (a product per member)
    coeffs = op.solve_coefficients(op.space.member(exact))
    worst = np.max(np.abs(coeffs - exact).max(axis=1) / np.abs(exact).max(axis=1))
    return worst, worst <= REPRO_TOL


def _judge_span(family: str, k: int, replace: bool):
    report = span_check(reference_operator(family, k, replace).space)
    return report["max_residual"], report["ok"]


# check's rows in print order: (check, printed label, top degree, judge).
# A judge returns (value, ok) for one (family, k), its value the worst over
# members or fields by np.max, so a NaN anywhere fails.
CHECKS = (
    ("unisolvence", "condition", MAX_DEGREE, _judge_unisolvence),
    ("projection", "max_rel_coeff_err", MAX_DEGREE, _judge_projection),
    ("commuting", "max_residual", COMMUTING_KMAX, judge_commuting),
    ("span", "max_residual", MAX_DEGREE, _judge_span),
)


def cmd_check(args) -> int:
    _check_kmax(args)
    try:
        env_seed()  # a bad HDIV_SEED is a usage error before any line prints
    except ValueError as exc:
        raise UsageError(str(exc))
    failures: List[str] = []
    for check, label, top, judge in CHECKS:
        for family in _family_list(args.family):
            for k in degree_range(family, min(args.kmax, top)):
                try:
                    value, ok = judge(family, k, args.debug_disable_div_moments)
                except OperatorConstructionError:
                    value, ok = math.inf, False
                print(f"{check} {family}_{k}: {label}={value:.3e} {'ok' if ok else 'FAIL'}")
                if not ok:
                    failures.append(f"{family}_{k} {check}")
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    print("all checks passed")
    return 0


# --- converge -------------------------------------------------------------

def _add_study_flags(parser: argparse.ArgumentParser) -> None:
    for key, options in STUDY_FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **options)


def _read_config_file(path: str) -> Dict[str, object]:
    """The file's key=value lines, typed and checked by the study flags."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    flags = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_study_flags(flags)
    out: Dict[str, object] = {}
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
        # one --key=value token keeps a value that starts with '-' or holds '='
        try:
            parsed = flags.parse_args([f"--{key.replace('_', '-')}={value}"])
        except (argparse.ArgumentError, UsageError) as exc:
            raise UsageError(f"{path}:{num}: {exc}")
        out[key] = getattr(parsed, key)
    return out


def _converge_settings(args) -> dict:
    """The converge keys that were given, from the flags or the config file."""
    settings = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    if args.config is None:
        return settings
    if settings:
        raise UsageError("--config cannot be combined with study flags")
    return _read_config_file(args.config)


# the records, one line of the CSV or one object of the JSON per level:
# 17 significant digits, and a missing rate (level 0) as "" or null
_COLUMNS = ("level", "hx", "hy", "err_field", "err_div", "rate_field", "rate_div")
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%s,%s"
_JSON_ROW = ('{"level": %d, "hx": %.17g, "hy": %.17g, "err_field": %.17g, "err_div": %.17g, '
             '"rate_field": %s, "rate_div": %s}')


def _rate_text(value: Optional[float], none: str) -> str:
    return none if value is None else "%.17g" % value


def _row_texts(table, template: str, none: str) -> List[str]:
    """One formatted string per level."""
    rates = zip(table.level_rates("field"), table.level_rates("div"))
    return [template % (rec.level, rec.hx, rec.hy, rec.errors["field"], rec.errors["div"],
                        _rate_text(rate_f, none), _rate_text(rate_d, none))
            for rec, (rate_f, rate_d) in zip(table.records, rates)]


def _csv_text(table) -> str:
    return "\n".join([",".join(_COLUMNS), *_row_texts(table, _CSV_ROW, "")]) + "\n"


# the JSON document, its config keys those of StudyConfig.describe(): the strings are
# checked choices (a family, a field id, a mode name), so none needs escaping
_JSON_CONFIG = ('"family": "%(family)s", "k": %(k)d, "p": %(p).17g, "field": "%(field)s", '
                '"mode": "%(mode)s", "levels": %(levels)d, "h0": %(h0).17g, '
                '"rate_tolerance": %(rate_tolerance).17g')
_JSON_RHO = ', "rho": %(rho).17g'
_JSON_DOC = ('{"config": {%s}, "records": [%s], "fitted_rates": {"field": %s, "div": %s}, '
             '"predicted_rates": {"field": %.17g, "div": %.17g}, '
             '"verdicts": {"field": "%s", "div": "%s"}}\n')


def _json_text(table) -> str:
    config = table.config.describe()
    template = _JSON_CONFIG + _JSON_RHO if "rho" in config else _JSON_CONFIG
    f, d = table.judged["field"], table.judged["div"]
    return _JSON_DOC % (template % config, ", ".join(_row_texts(table, _JSON_ROW, "null")),
                        _rate_text(f.fitted, "null"), _rate_text(d.fitted, "null"),
                        f.predicted, d.predicted, f.verdict, d.verdict)


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
    for which, j in table.judged.items():
        # a fit that rounds to zero prints unsigned, whatever the sign of its noise
        shown = "n/a" if j.fitted is None else "%.4f" % (round(j.fitted, 4) + 0.0)
        out.append(f"{which}: fitted={shown} predicted={j.predicted:g} "
                   f"verdict={table.verdict_text(which)}")
    return out


def cmd_converge(args) -> int:
    settings = _converge_settings(args)
    fmt = settings.pop("format", "csv")
    output = settings.pop("output", None)
    settings.update(settings.pop("mode", {}))
    try:
        table = run_refinement_study(StudyConfig(**settings))
    except ValueError as exc:
        raise UsageError(str(exc))
    text = _csv_text(table) if fmt == "csv" else _json_text(table)
    if output:
        try:
            _atomic_write(output, text)
        except OSError as exc:
            # the error names the temp file; the target is what the user asked for
            print(f"cannot write output {output}: {exc.strerror}", file=sys.stderr)
            return 3
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)
    for line in _verdict_lines(table):
        print(line)
    return 0 if table.ok else 1


# --- entry point ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: each parse fills a new namespace."""
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
    chk = sub.add_parser(
        "check",
        help="run unisolvence, projection, commuting-diagram, and div-span suites",
    )
    for cmd in (tab, chk):
        cmd.add_argument("--family", default=None, **STUDY_FLAGS["family"])
        cmd.add_argument("--kmax", type=int, default=MAX_DEGREE)
    chk.add_argument("--debug-disable-div-moments", action="store_true", help="swap ABF "
                     "divergence moments for plain interior moments (negative control)")

    conv = sub.add_parser(
        "converge",
        help="run one refinement study and emit CSV or JSON plus a verdict summary",
    )
    conv.add_argument("--config", default=None, help="key=value study file; exclusive with the flags below")
    _add_study_flags(conv)
    return parser


def main(argv=None) -> int:
    handlers = {"tabulate": cmd_tabulate, "check": cmd_check, "converge": cmd_converge}
    try:
        args = build_parser().parse_args(argv)
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
