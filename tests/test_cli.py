"""Command-line interface: output contracts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdivkit import cli, harness, interpolation
from hdivkit.elements import (
    FAMILIES, MAX_DEGREE, ElementSpace, build_space, degree_range, span_check,
)
from hdivkit.harness import StudyConfig

CSV_HEADER = "level,hx,hy,err_field,err_div,rate_field,rate_div"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- tabulate


def test_tabulate_pinned_rows(capsys):
    code, out, err = run(capsys, "tabulate", "--kmax", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "RT,0,dim=4,edge=4,interior=0,div=0,divspace=Q_0,divdim=1"
    assert lines[3] == "ABF,0,dim=6,edge=4,interior=0,div=2,divspace=Q_1-minus-corner,divdim=3"
    assert lines[4] == "ABF,1,dim=16,edge=8,interior=4,div=4,divspace=Q_2-minus-corner,divdim=8"
    assert len(lines) == 5


def test_tabulate_single_family(capsys):
    code, out, _ = run(capsys, "tabulate", "--family", "BDM", "--kmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "BDM,1,dim=8,edge=8,interior=0,div=0,divspace=P_0,divdim=1",
        "BDM,2,dim=14,edge=12,interior=2,div=0,divspace=P_1,divdim=3",
    ]


def test_tabulate_bdm_kmax_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "tabulate", "--family", "BDM", "--kmax", "0")
    assert code == 2
    assert "BDM requires k >= 1" in err


def test_tabulate_kmax_out_of_range(capsys):
    code, out, err = run(capsys, "tabulate", "--kmax", "7")
    assert code == 2 and "error:" in err
    assert out == "" and "error: k must be between 0 and 4" in err


# -------------------------------------------------------------------- check


def test_check_passes(capsys):
    code, out, err = run(capsys, "check", "--family", "RT", "--kmax", "1")
    assert code == 0
    assert "unisolvence RT_0" in out
    assert "all checks passed" in out
    assert "FAIL" not in out


# BDM's curl members curl(L_{k+1}(x) L_1(y)) and curl(L_1(x) L_{k+1}(y)) and
# ABF's Legendre divergence tests keep the DOF matrices this well conditioned
@pytest.mark.parametrize("family,k0,conditions", [
    ("BDM", 1, ("1.800e+01", "4.500e+01", "7.200e+01", "3.000e+02")),
    ("ABF", 0, ("4.000e+00", "2.400e+01", "1.200e+02", "2.800e+02", "5.040e+02"))],
    ids=["BDM", "ABF"])
def test_check_pins_the_conditions(capsys, family, k0, conditions):
    code, out, err = run(capsys, "check", "--family", family, "--kmax", "4")
    assert code == 0 and err == ""
    assert [line for line in out.splitlines() if line.startswith("unisolvence")] == [
        f"unisolvence {family}_{k}: condition={c} ok" for k, c in enumerate(conditions, start=k0)]


def test_check_kmax_out_of_range(capsys):
    code, out, err = run(capsys, "check", "--kmax", "5")
    assert code == 2
    assert out == "" and "error: k must be between 0 and 4" in err


def test_plain_check_covers_every_degree(capsys):
    # the default kmax stopped at 3, so "all checks passed" skipped k = 4
    code, out, err = run(capsys, "check")
    assert code == 0 and err == ""
    assert any(line.startswith("projection ABF_4: ") for line in out.splitlines())
    assert out.endswith("all checks passed\n")


def test_check_debug_switch_fails_commuting_only(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "ABF", "--kmax", "0", "--debug-disable-div-moments"
    )
    assert code == 1
    lines = out.splitlines()
    assert any(l.startswith("commuting ABF_0") and l.endswith("FAIL") for l in lines)
    assert any(l.startswith("unisolvence ABF_0") and l.endswith("ok") for l in lines)
    assert any(l.startswith("projection ABF_0") and l.endswith("ok") for l in lines)
    assert lines[-1] == "FAILED: ABF_0 commuting"


def test_check_debug_switch_fails_commuting_at_its_top_degree(capsys):
    # the negative control CI runs: every ABF degree check judges commuting
    # fails, each by a residual far above COMMUTING_TOL
    code, out, _ = run(
        capsys, "check", "--family", "ABF", "--kmax", "3", "--debug-disable-div-moments"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "FAILED: " + "; ".join(f"ABF_{k} commuting" for k in range(4))
    residuals = [float(l.split("=")[1].split()[0]) for l in lines if l.startswith("commuting ")]
    assert len(residuals) == 4 and min(residuals) >= 0.1


def test_check_debug_switch_leaves_rt_green(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "RT", "--kmax", "0", "--debug-disable-div-moments"
    )
    assert code == 0 and "all checks passed" in out


def test_check_fails_a_nan_residual_on_a_later_field(capsys, monkeypatch):
    # the worst residual decides: a NaN past the battery's first field fails too
    real = interpolation.commuting_residuals

    def residuals(family, k, fields, replace_div_moments=False):
        out = real(family, k, fields, replace_div_moments)
        return np.where([fld.id == "B-3" for fld in fields], math.nan, out)

    monkeypatch.setattr(interpolation, "commuting_residuals", residuals)
    code, out, _ = run(capsys, "check", "--family", "RT", "--kmax", "0")
    assert code == 1
    assert "commuting RT_0: max_residual=nan FAIL" in out.splitlines()
    assert out.endswith("FAILED: RT_0 commuting\n")


def test_check_fails_a_condition_above_cond_warn(capsys, monkeypatch):
    # unisolvence_report's ok is check's verdict: condition <= COND_WARN
    interpolation.reference_operator("RT", 0)  # the cached operator stays the true one
    real = interpolation.dof_matrix_ld

    def scaled(dofs, space):
        M = real(dofs, space).copy()
        M[0] *= 1e10
        return M

    monkeypatch.setattr(interpolation, "dof_matrix_ld", scaled)
    with pytest.warns(RuntimeWarning, match="DOF matrix condition"):
        report = interpolation.unisolvence_report("RT", 0)
        code, out, _ = run(capsys, "check", "--family", "RT", "--kmax", "0")
    assert interpolation.COND_WARN < report["condition"] < interpolation.COND_FAIL
    assert report["ok"] is False
    assert code == 1
    assert out.splitlines()[0] == f"unisolvence RT_0: condition={report['condition']:.3e} FAIL"
    assert out.endswith("FAILED: RT_0 unisolvence\n")


@pytest.mark.parametrize("replace", [False, True])
def test_check_span_rows_read_the_cached_operators_space(monkeypatch, replace):
    # the span row certifies the space of the operator the projection row solves
    # with, so a warm check builds no second ElementSpace per (family, k)
    pairs = [(f, k) for f in FAMILIES for k in degree_range(f, MAX_DEGREE)]
    built = [span_check(build_space(f, k)) for f, k in pairs]
    want = [(report["max_residual"], report["ok"]) for report in built]
    for f, k in pairs:
        interpolation.reference_operator(f, k, replace)
    seen = []

    def refuse(*args):
        raise AssertionError("the span row built an ElementSpace")

    monkeypatch.setattr(ElementSpace, "__init__", refuse)
    monkeypatch.setattr(cli, "span_check", lambda space: seen.append(space) or span_check(space))
    assert [cli._judge_span(f, k, replace) for f, k in pairs] == want
    assert all(space is interpolation.reference_operator(f, k, replace).space
               for space, (f, k) in zip(seen, pairs, strict=True))


# ----------------------------------------------------------------- converge


def test_converge_stdout_csv(capsys):
    code, out, _ = run(
        capsys, "converge", "--family", "RT", "--k", "0", "--mode", "shrink_x",
        "--field", "MS-X", "--levels", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 + 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0.5" and first[2] == "0.5"
    assert first[5] == "" and first[6] == ""  # no rate at level 0
    assert lines[-2].startswith("field: fitted=") and "verdict=pass" in lines[-2]
    assert lines[-1].startswith("div: fitted=") and "verdict=pass" in lines[-1]


@pytest.mark.parametrize("family,k", [("RT", 1), ("BDM", 2)])
def test_converge_prints_a_fit_of_noise_unsigned(capsys, family, k):
    # the div errors stagnate at roundoff, and their fit is -1e-16: the verdict
    # line prints it as 0.0000, while the JSON keeps the raw signed rate
    code, out, _ = run(capsys, "converge", "--family", family, "--k", str(k), "--field", "MS-X",
                       "--mode", "shrink_y", "--levels", "8", "--format", "json")
    lines = out.splitlines()
    assert code == 0 and -1e-15 < json.loads(lines[0])["fitted_rates"]["div"] < 0
    assert lines[-1] == "div: fitted=0.0000 predicted=0 verdict=pass (stagnation)"


def test_verdict_lines_print_four_places_with_an_unsigned_zero():
    fits = {"a": -1e-16, "b": -0.0, "c": 4.9e-5, "d": -4.9e-5, "e": -5.1e-5, "f": 1.23456,
            "g": None}
    table = types.SimpleNamespace(
        judged={w: types.SimpleNamespace(fitted=f, predicted=2) for w, f in fits.items()},
        verdict_text=lambda which: "pass")
    shown = [line.split()[1] for line in cli._verdict_lines(table)]
    assert shown == ["fitted=0.0000"] * 4 + ["fitted=-0.0001", "fitted=1.2346", "fitted=n/a"]


def test_converge_large_p_is_not_vacuous(capsys):
    code, out, err = run(capsys, "converge", "--family", "RT", "--k", "1", "--field", "MS-G",
                         "--p", "1000")
    assert err == ""
    assert "(reproduction)" not in out
    rows = [line.split(",") for line in out.splitlines()[1:7]]
    assert all(float(r[3]) > 0 and float(r[4]) > 0 for r in rows)


def test_converge_csv_file_bit_stable(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ("converge", "--family", "ABF", "--k", "0", "--mode", "isotropic",
            "--field", "MS-G", "--levels", "4")
    code1, stdout1, _ = run(capsys, *args, "--output", str(out1))
    code2, stdout2, _ = run(capsys, *args, "--output", str(out2))
    assert code1 == code2 == 0
    assert f"wrote {out1}" in stdout1
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    assert len(text.splitlines()) == 5


def test_converge_json_contract(tmp_path, capsys):
    out = tmp_path / "study.json"
    code, _, _ = run(
        capsys, "converge", "--family", "RT", "--k", "1", "--mode", "shrink_y",
        "--field", "MS-Y", "--levels", "4", "--format", "json", "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["config", "records", "fitted_rates", "predicted_rates", "verdicts"]
    assert payload["config"]["family"] == "RT"
    assert payload["config"]["mode"] == "shrink_y"
    assert len(payload["records"]) == 4
    rec0 = payload["records"][0]
    assert list(rec0) == ["level", "hx", "hy", "err_field", "err_div", "rate_field", "rate_div"]
    assert rec0["rate_field"] is None and rec0["rate_div"] is None
    assert payload["records"][1]["rate_div"] is not None
    assert payload["predicted_rates"]["div"] == 2.0
    assert payload["verdicts"] == {"field": "pass", "div": "pass"}


def _recursive_json(value) -> str:
    """The recursive serialiser that wrote converge's JSON before its one template."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_recursive_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    return "[" + ", ".join(_recursive_json(v) for v in value) + "]"


@pytest.mark.parametrize("field,mode,family,k", [
    (field, mode, family, k) for field, (family, k) in (("MS-G", ("ABF", 1)), ("MS-P", ("BDM", 2)))
    for mode in ("shrink_x", "shrink_y", "isotropic", "fixed_aspect(8)")])
def test_converge_json_is_the_recursive_serialisers_document(capsys, field, mode, family, k):
    # the template writes the bytes the recursive serialiser wrote from the study's
    # values: key order, config (describe(), rho only in fixed_aspect), and MS-P's
    # fitted rates, whose windows hold exact zeros, as null
    code, out, _ = run(capsys, "converge", "--family", family, "--k", str(k), "--field", field,
                       "--mode", mode, "--levels", "4", "--p", "1", "--format", "json")
    assert code in (0, 1)
    text = out.split("\n", 1)[0] + "\n"
    settings = {"mode": "fixed_aspect", "rho": 8.0} if mode == "fixed_aspect(8)" else {"mode": mode}
    table = harness.run_refinement_study(StudyConfig(family, k, 1.0, field, levels=4, **settings))
    rates = zip(table.level_rates("field"), table.level_rates("div"))
    document = {
        "config": table.config.describe(),
        "records": [{"level": r.level, "hx": r.hx, "hy": r.hy, "err_field": r.errors["field"],
                     "err_div": r.errors["div"], "rate_field": rf, "rate_div": rd}
                    for r, (rf, rd) in zip(table.records, rates)],
        "fitted_rates": {w: j.fitted for w, j in table.judged.items()},
        "predicted_rates": {w: j.predicted for w, j in table.judged.items()},
        "verdicts": {w: j.verdict for w, j in table.judged.items()},
    }
    assert text == _recursive_json(document) + "\n"
    payload = json.loads(text)
    assert list(payload["config"]) == list(table.config.describe())
    assert payload["config"] == table.config.describe()
    assert ("rho" in payload["config"]) == (mode == "fixed_aspect(8)")
    fitted = list(payload["fitted_rates"].values())
    assert (fitted == [None, None]) if field == "MS-P" else (None not in fitted)


def test_converge_verdict_failure_exit_code(capsys):
    # honest failure: ABF_0 isotropic div fit is just below k+2 at 6 levels,
    # so an extreme tolerance turns the verdict into fail
    code, out, _ = run(
        capsys, "converge", "--family", "ABF", "--k", "0", "--mode", "isotropic",
        "--field", "MS-G", "--rate-tolerance", "0.001",
    )
    assert code == 1
    assert "verdict=fail" in out


def test_converge_reproduction_field(capsys):
    code, out, _ = run(
        capsys, "converge", "--family", "BDM", "--k", "1", "--mode", "fixed_aspect(64)",
        "--field", "MS-P", "--levels", "4",
    )
    assert code == 0
    assert "verdict=pass (reproduction)" in out


@pytest.mark.parametrize("k,levels", [(3, 6), (3, 8), (4, 6), (4, 8)])
def test_converge_abf_reproduction_at_aspect_64(capsys, k, levels):
    # the pushed member's roundoff grows with the 1/h Piola factors and must
    # stay within the absolute 1e-12 at every level, so every error reads 0
    code, out, err = run(capsys, "converge", "--family", "ABF", "--k", str(k), "--field", "MS-P",
                         "--mode", "fixed_aspect(64)", "--levels", str(levels))
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == [
        f"field: fitted=n/a predicted={k + 1} verdict=pass (reproduction)",
        f"div: fitted=n/a predicted={k + 2} verdict=pass (reproduction)"]


def test_converge_seed_env(tmp_path, capsys, monkeypatch):
    # every seed picks a different member; each must be reproduced exactly,
    # and reruns under one seed must be bit-identical
    args = ("converge", "--family", "RT", "--k", "1", "--mode", "isotropic",
            "--field", "MS-P", "--levels", "4")
    monkeypatch.setenv("HDIV_SEED", "7")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code_a, out_a, _ = run(capsys, *args, "--output", str(a))
    run(capsys, *args, "--output", str(b))
    assert code_a == 0 and a.read_bytes() == b.read_bytes()
    assert "verdict=pass (reproduction)" in out_a
    monkeypatch.setenv("HDIV_SEED", "8")
    code_c, out_c, _ = run(capsys, *args)
    assert code_c == 0 and "verdict=pass (reproduction)" in out_c


# -------------------------------------------------------------- config files


def test_converge_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# directional study\n"
        "family = RT\n"
        "k = 0\n"
        "field = MS-X\n"
        "mode = shrink_x\n"
        "\n"
        "levels = 4\n"
    )
    code, out, _ = run(capsys, "converge", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_converge_config_with_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark is not part of the first key
    text = "family = RT\nk = 0\nfield = MS-X\nmode = shrink_x\nlevels = 4\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run(capsys, "converge", "--config", str(plain))
    assert expected[0] == 0
    assert run(capsys, "converge", "--config", str(marked)) == expected


def test_converge_config_fixed_aspect(tmp_path, capsys):
    cfg = tmp_path / "aspect.cfg"
    cfg.write_text("mode = fixed_aspect(16)\nfield = MS-G\nlevels = 4\n")
    code, out, _ = run(capsys, "converge", "--config", str(cfg))
    assert code == 0
    row1 = out.splitlines()[1].split(",")
    assert float(row1[2]) == pytest.approx(0.5 / 16.0)


def test_converge_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = RT\nflavor = mint\n")
    code, _, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2
    assert "flavor" in err and ":2" in err


def test_converge_config_duplicate_key(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("family = RT\nfamily = ABF\n")
    code, _, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2 and "duplicate" in err


def test_converge_config_missing_equals(tmp_path, capsys):
    cfg = tmp_path / "noeq.cfg"
    cfg.write_text("family RT\n")
    code, _, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2


def test_converge_config_excludes_flags(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("family = RT\n")
    code, _, err = run(capsys, "converge", "--config", str(cfg), "--k", "1")
    assert code == 2
    assert "--config" in err


def test_converge_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "converge", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_converge_config_not_utf8(tmp_path, capsys):
    # the decode error escaped as a traceback with exit 1, the verdict-failure code
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(b"family = RT\nk = \xff\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2
    assert out == "" and "error: cannot read config file:" in err


def test_converge_absent_keys_take_study_defaults(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    target = tmp_path / "study.json"
    cfg.write_text(f"levels = 3\nformat = json\noutput = {target}\n")
    code, _, _ = run(capsys, "converge", "--config", str(cfg))
    assert code in (0, 1)
    assert json.loads(target.read_text())["config"] == StudyConfig(levels=3).describe()


@pytest.mark.parametrize("key,value", [("k", "x"), ("format", "xml"), ("rate_tolerance", "-x")])
def test_config_value_errors_match_the_flag(tmp_path, capsys, key, value):
    # a config value is typed and checked by its flag, so both report one text
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", f"--{key.replace('_', '-')}={value}"])
    assert exc.value.code == 2
    flag_error = capsys.readouterr().err.splitlines()[-1]
    assert flag_error.startswith(f"hdivkit converge: error: argument --{key.replace('_', '-')}: ")
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"family = RT\n{key} = {value}\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:2: {flag_error.split('error: ', 1)[1]}\n"



@pytest.mark.parametrize("name", ["", "xyz"])
def test_unknown_family_flag_lists_the_choices(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", f"--family={name}", "--levels", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"hdivkit converge: error: argument --family: unknown family '{name}' "
        "(choose from RT, BDM, ABF)")


@pytest.mark.parametrize("argv", [("check", "--kmax", "0"), ("tabulate",)])
@pytest.mark.parametrize("name", ["abf", "Abf"])
def test_check_and_tabulate_take_a_family_in_any_case(capsys, argv, name):
    # converge took --family abf while check and tabulate refused it with argparse's wording
    code, out, err = run(capsys, *argv, "--family", name)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv, "--family", "ABF")


@pytest.mark.parametrize("command", ["check", "tabulate"])
def test_check_and_tabulate_word_an_unknown_family_as_converge_does(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--family", "xyz"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"hdivkit {command}: error: argument --family: unknown family 'xyz' "
        "(choose from RT, BDM, ABF)")


@pytest.mark.parametrize("name", ["", "xyz"])
def test_unknown_family_in_config_lists_the_choices(tmp_path, capsys, name):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"levels = 3\nfamily = {name}\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == (f"error: {cfg}:2: argument --family: unknown family '{name}' "
                   "(choose from RT, BDM, ABF)\n")

@pytest.mark.parametrize("line,message", [
    ("field = xyz", "unknown field 'xyz' (choose from MS-G, MS-X, MS-Y, MS-P)"),
    ("mode = sideways", "unknown mode 'sideways' "
                        "(choose from shrink_x, shrink_y, isotropic, fixed_aspect)"),
    ("mode = fixed_aspect(abc)", "bad aspect ratio 'abc'")])
def test_bad_field_or_mode_in_config_names_its_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"levels = 3\n{line}\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:2: {message}\n"


@pytest.mark.parametrize("flag,message", [
    ("--field=xyz", "unknown field 'xyz' (choose from MS-G, MS-X, MS-Y, MS-P)"),
    ("--mode=fixed_aspect(abc)", "bad aspect ratio 'abc'")])
def test_bad_field_or_mode_flag_is_worded_as_the_study(capsys, flag, message):
    code, out, err = run(capsys, "converge", flag, "--levels", "3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main reuses one parser; no value parsed in one call may reach the next
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels = 3\nformat = json\nk = 1\n")
    calls = [
        ("converge", "--family", "BDM", "--k", "2", "--field", "MS-X",
         "--mode", "fixed_aspect(4)", "--levels", "3", "--format", "json"),
        ("converge", "--config", str(cfg)),
        ("converge", "--levels", "3"),
        ("check", "--family", "RT", "--kmax", "0"),
        ("tabulate", "--kmax", "1"),
        ("converge", "--config", str(cfg)),
        ("tabulate", "--family", "ABF", "--kmax", "0"),
        ("converge", "--levels", "4", "--p", "1"),
    ]
    assert cli.build_parser() is cli.build_parser()
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    # the config after flags reads only its own keys, the flags after it csv
    assert json.loads(reused[1][1].split("\nfield:")[0])["config"] == \
        StudyConfig(k=1, levels=3).describe()
    assert reused[2][1].startswith(CSV_HEADER + "\n0,0.5,0.5,")
    assert {row.split(",")[0] for row in reused[4][1].splitlines()} == {"RT", "BDM", "ABF"}


# text that str.splitlines cannot split and UTF-8 can encode
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
_WILD = st.one_of(
    st.integers(-3, 9).map(str).map(str.encode),
    st.floats().map(repr).map(str.encode),
    st.sampled_from([b"nan", b"inf", b"-inf"]),
    _TEXT.map(str.encode),
    st.binary(max_size=3).map(lambda b: b"\xff" + b),  # never UTF-8
)
_PLAUSIBLE = {"family": "RT ABF bdm", "k": "0 1 4", "p": "1 2.5", "field": "MS-G MS-X MS-P",
              "mode": "isotropic shrink_y fixed_aspect(8)", "h0": "0.5 1",
              "rate_tolerance": "0 0.15", "format": "csv json"}


def _entry(key, value):
    return value.map(lambda v: key.encode() + b" = " + v)


def _study_line(key):
    return _entry(key, st.sampled_from(_PLAUSIBLE[key].split()).map(str.encode) | _WILD)


# distinct keys with plausible or wild values, then at most one defect:
# a key with a wild value (a duplicate when it is already set), an
# unknown key or a line without '='
_STUDY = st.lists(st.sampled_from(sorted(_PLAUSIBLE)), unique=True, max_size=4).flatmap(
    lambda keys: st.tuples(*map(_study_line, keys)))
_DEFECT = st.sampled_from(sorted(_PLAUSIBLE) + ["levels", "flavor", ""]).flatmap(
    lambda key: _entry(key, _WILD)) | _TEXT.map(lambda t: t.replace("=", "").encode())


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(levels=st.integers(2, 4), study=_STUDY, defects=st.lists(_DEFECT, max_size=1))
def test_config_files_never_traceback(tmp_path, capsys, levels, study, defects):
    # every key but output is drawn; the output goes to a file, so stdout
    # holds only status lines
    assert set(_PLAUSIBLE) | {"levels", "output"} == set(cli.CONFIG_KEYS)
    cfg = tmp_path / "study.cfg"
    head = [f"levels = {levels}".encode(), f"output = {tmp_path / 'study.out'}".encode()]
    cfg.write_bytes(b"\n".join(head + list(study) + defects) + b"\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == "" and err.startswith("error: ")


# ---------------------------------------------------------------- exit codes


def test_converge_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    code, _, err = run(
        capsys, "converge", "--family", "RT", "--k", "0", "--levels", "4",
        "--output", str(target),
    )
    assert code == 3
    assert "cannot write output" in err


@pytest.mark.parametrize("missing_dir", [True, False], ids=["missing_dir", "directory"])
def test_output_error_names_the_target(tmp_path, capsys, missing_dir):
    # the message named the random temp file beside the target
    target = tmp_path / "no_such_dir" / "out.json" if missing_dir else tmp_path / "a_dir"
    if not missing_dir:
        target.mkdir()
    code, out, err = run(capsys, "converge", "--levels", "3", "--output", str(target))
    assert code == 3 and out == ""
    assert err.startswith(f"cannot write output {target}: ") and ".hdivkit." not in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if missing_dir else ["a_dir"])


def test_unknown_field_usage_error(capsys):
    code, _, err = run(capsys, "converge", "--field", "MS-Q", "--levels", "4")
    assert code == 2 and "error:" in err


def test_bad_mode_usage_error(capsys):
    code, _, err = run(capsys, "converge", "--mode", "diagonal", "--levels", "4")
    assert code == 2


def test_bad_aspect_usage_error(capsys):
    code, _, err = run(capsys, "converge", "--mode", "fixed_aspect(-2)", "--levels", "4")
    assert code == 2


@pytest.mark.parametrize("rho", ["1e-3", "1e-300"])
def test_aspect_below_h0_usage_error(capsys, rho):
    # R < h0 would study rectangles taller than the unit square
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "converge", "--family", "RT", "--k", "1", "--field", "MS-X",
                             "--mode", f"fixed_aspect({rho})", "--levels", "3")
    assert code == 2 and out == "" and not caught
    assert err == "error: fixed_aspect(R) needs h0 / R <= 1 (h_y may not exceed 1)\n"


@pytest.mark.parametrize("argv", [("--levels", "60"),
                                  ("--mode", "fixed_aspect(64)", "--levels", "40")])
def test_levels_below_min_h_usage_error(capsys, argv):
    # rejected before the first level instead of after 26 of them
    # rho is named only in fixed_aspect, the one mode that reads it
    code, out, err = run(capsys, "converge", *argv)
    rho = " and rho=64" if "fixed_aspect(64)" in argv else ""
    assert code == 2 and out == ""
    assert err == (f"error: levels={argv[-1]} with h0=0.5{rho} "
                   "shrinks a side below 1e-08 at the last level\n")


# -------------------------------------------------------- input validation


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--rate-tolerance", "nan"),  # every NaN comparison passed both verdicts
        ("--rate-tolerance", "-0.1"),
        ("--p", "nan"),  # printed a NaN table
        ("--p", "inf"),  # reported a bogus fail
    ],
)
def test_converge_rejects_bad_p_and_tolerance(capsys, flag, value):
    code, out, err = run(capsys, "converge", "--levels", "4", flag, value)
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("line", ["p = nan", "p = inf", "rate_tolerance = nan",
                                  "rate_tolerance = -1"])
def test_converge_config_rejects_bad_p_and_tolerance(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"levels = 4\n{line}\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("seed", ["abc", "-1", "1.5"])
def test_check_bad_seed_is_usage_error(capsys, monkeypatch, seed):
    monkeypatch.setenv("HDIV_SEED", seed)
    code, out, err = run(capsys, "check", "--family", "RT", "--kmax", "0")
    assert code == 2
    assert out == "" and "HDIV_SEED" in err


def test_converge_rejects_unverified_degree(capsys):
    # k = 5 was accepted and could pass although no check covers it
    code, out, err = run(capsys, "converge", "--family", "RT", "--k", "5", "--levels", "3")
    assert code == 2
    assert out == "" and "error: k must be between 0 and 4" in err


def test_converge_config_rejects_unverified_degree(tmp_path, capsys):
    cfg = tmp_path / "k5.cfg"
    cfg.write_text("family = RT\nk = 5\nlevels = 3\n")
    code, out, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 2
    assert out == "" and "error: k must be between 0 and 4" in err


# ------------------------------------------------------------ closed stdout

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("argv", [["tabulate"], ["converge", "--levels", "3"]])
def test_closed_stdout_exits_3_quietly(argv):
    # the reader is gone before anything is written, as in `... | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run([sys.executable, "-m", "hdivkit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
