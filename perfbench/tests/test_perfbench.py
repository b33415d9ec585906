"""Self-tests of the benchmark: tiny runs, negative control, seed handling.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def _program(monkeypatch):
    monkeypatch.setenv("HDIV_SEED", "3")
    monkeypatch.syspath_prepend(run.SRC)


def tiny(name, workdir):
    """Small versions of the workloads: the same code paths, fewer units."""
    if name == "verify":
        return workloads.Verify(families=("RT",), kmax=1)
    if name == "refine":
        return workloads.Refine(workdir, studies=[
            workloads.Study("ABF", 4, 2.0, "MS-G", "isotropic", 3, 0.5),
            workloads.Study("ABF", 1, 2.0, "MS-P", "fixed_aspect(64)", 3, 0.5),
        ])
    return workloads.Build(pairs=(("RT", 0), ("BDM", 1)))


def setup_argv(name):
    return [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", "3",
            "--seconds", "1", "--trace", "0", "--setup-sample"]


def tiny_run(name, trace, tmp_path):
    workload = tiny(name, str(tmp_path))
    return run.run(workload, 3, 0.01, trace, setup_argv(name), n_setup=1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = tiny_run(name, False, tmp_path)
    line = run.result_line(record)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert record["samples"]["setup_s"] == 1
    assert record["samples"]["batch_ref"] >= run.MIN_PASSES


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(name, tmp_path):
    import hdivkit.dofs
    import hdivkit.interpolation

    original = hdivkit.dofs.dof_vector_ld
    record = tiny_run(name, True, tmp_path)
    line = run.result_line(record)
    assert line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    # the wrappers are gone after the run, under every name
    assert hdivkit.interpolation.dof_vector_ld is original
    # the workloads separate the layers
    assert (values["elements.span_check.calls"] > 0) == (name == "verify")
    assert (values["harness.error_Lp.calls"] > 0) == (name == "refine")
    assert (values["dofs.dof_vector_ld.calls"] > 0) == (name != "build")
    assert values["interpolation.InterpolationOperator.ms"] > 0 or name == "refine"
    if name == "refine":
        assert values["dofs.dof_matrix_ld.calls"] == 0
        assert values["dofs.field_evals_per_dof_vector.ABF_4"] == 70
        assert values["dofs.points_per_dof_vector.ABF_4"] == 20400


def test_uninstall_restores_every_binding_in_a_fresh_interpreter():
    # hdivkit does not import its cli; install() must, before patching,
    # or cli binds wrapped names that uninstall() cannot see
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import hdivkit, tracing\n"
        "originals = {n: dict(vars(m)) for n, m in sys.modules.items()"
        " if n.startswith('hdivkit')}\n"
        "t = tracing.Tracer(); t.install(); t.uninstall()\n"
        "import hdivkit.cli as cli\n"
        "from hdivkit import elements\n"
        "assert cli.span_check is elements.span_check, 'cli.span_check left wrapped'\n"
        "for n, before in originals.items():\n"
        "    now = vars(sys.modules[n])\n"
        "    assert all(now[k] is v for k, v in before.items()), n\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, run.SRC, BENCH],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_disabled_div_moments_count_as_failed_operations(tmp_path):
    workload = workloads.Verify(families=("ABF",), kmax=1,
                                extra=("--debug-disable-div-moments",))
    record = run.run(workload, 3, 0.01, False, n_setup=0)
    assert record["attempted"] >= 1 and record["failed"] == record["attempted"]
    assert record["failed_frac"] == 1.0
    assert not run.result_line(record)["correct"]


def _bench(args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "HDIV_SEED"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("seed", ["abc", "1.5", "-3", "0x10", ""])
def test_bad_seed_is_refused_before_the_program_runs(seed):
    proc = _bench(["--workload", "build", "--seed", seed, "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "seed" in proc.stderr and "Traceback" not in proc.stderr


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*", "tests"))
    proc = _bench(["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_applies_the_pairing_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    faster = [v * 0.8 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.judge(parent, list(parent), "lower", 0.1)[0] == "same"
    assert compare.judge(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.judge(parent[:9], faster[:9], "lower", 0.1)[0] == "few-pairs"
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.0]
    assert compare.judge(noisy, list(noisy), "lower", 0.1)[0] == "unresolved"
    # one lost pair in ten still counts as a win for the change
    mostly = faster[:9] + [parent[9] * 1.01]
    assert compare.judge(parent, mostly, "lower", 0.1) == ("better", 9)
    assert compare.judge(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "better"
