"""Command-line interface: output contracts, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdivkit import cli
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


def test_check_kmax_out_of_range(capsys):
    code, out, err = run(capsys, "check", "--kmax", "5")
    assert code == 2
    assert out == "" and "error: k must be between 0 and 4" in err


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


def test_check_debug_switch_leaves_rt_green(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "RT", "--kmax", "0", "--debug-disable-div-moments"
    )
    assert code == 0 and "all checks passed" in out


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
    code, out, err = run(capsys, "converge", *argv)
    assert code == 2 and out == ""
    assert err == (f"error: levels={argv[-1]} with h0=0.5 and rho=64 "
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
