import csv
import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from zonalkit import cli, verify
from zonalkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_direct_degree_one(capsys):
    code, out, _ = run_cli(capsys, "expand", "--route", "direct", "--n", "3", "--k", "1")
    assert code == 0
    # 4 <x,y> over four paired coordinates
    assert out.count("4 x") == 4


def test_expand_degree_zero_is_one(capsys):
    code, out, _ = run_cli(capsys, "expand", "--route", "direct", "--n", "5", "--k", "0")
    assert code == 0
    assert out.strip() == "1"


def test_expand_json_format(capsys):
    code, out, _ = run_cli(capsys, "expand", "--route", "ladder", "--n", "2", "--k", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["nx"] == data["ny"] == 3
    assert all(t["py"] == 0 for t in data["terms"])


def test_expand_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--route", "kelvin", "--n", "4", "--k", "2")
    assert code == 2
    assert "odd" in err
    code, _, err = run_cli(capsys, "expand", "--route", "laplacian_odd", "--n", "5",
                           "--k", "1", "--m", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "expand", "--route", "direct", "--n", "3", "--k", "-2")
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (("laplacian_odd", "--n", "5", "--m", "1", "--k", "2"), "n = 2m+2"),
    (("kelvin", "--n", "4", "--k", "2"), "needs odd n"),
    (("kelvin", "--n", "3", "--k", "0"), "k >= 1"),
    (("ladder", "--n", "1", "--k", "2"), "n >= 2"),
    (("clifford", "--m", "-1", "--k", "2"), "m must be nonnegative"),
    (("laplacian_odd", "--m", "-1", "--k", "2"), "m must be nonnegative"),
], ids=["laplacian_odd_n", "kelvin_even_n", "kelvin_k0", "ladder_n1", "clifford_m_negative",
        "laplacian_m_negative"])
def test_route_domain_error_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "expand", "--route", *flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_expand_term_budget_guard(capsys):
    code, _, err = run_cli(capsys, "expand", "--route", "laplacian_odd", "--k", "6",
                           "--m", "3", "--max-terms", "1000")
    assert code == 2
    assert "terms" in err


def test_eval_exact_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "--route", "direct", "--n", "2", "--k", "1",
                           "--x", "1,2,3", "--y", "1/2,0,-1")
    assert code == 0
    assert "exact: -15/2" in out


def test_coeff_values(capsys):
    code, out, _ = run_cli(capsys, "coeff", "betaHat", "--m", "1", "--k", "1")
    assert code == 0 and "-72" in out
    code, out, _ = run_cli(capsys, "coeff", "eta", "--m", "0", "--k", "5")
    assert code == 0 and "eta = 1" in out
    code, out, _ = run_cli(capsys, "coeff", "eta", "--m", "1", "--k", "2")
    assert code == 0 and "note:" in out  # stated/observed disagreement surfaced
    code, out, _ = run_cli(capsys, "coeff", "beta", "--m", "1", "--lambda", "1", "--k", "2")
    assert code == 0 and "-80" in out  # -16(k+3) at k=2


def test_coeff_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "coeff", "eta", "--m", "1", "--k", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "coeff", "alpha", "--m", "1")
    assert code == 2
    # Lap x0 |x|^-2 = -2 x0 |x|^-4 on R^3: a negative ell is outside lap_c's domain, not 0
    code, out, err = run_cli(capsys, "coeff", "c", "--N", "3", "--j", "1", "--ell", "-1",
                             "--k", "1")
    assert code == 2 and out == "" and "ell" in err
    for which in ("alpha", "beta"):
        code, out, err = run_cli(capsys, "coeff", which, "--m", "1", "--k", "2",
                                 "--lambda", "1/0")
        assert code == 2 and out == "" and "--lambda" in err


@pytest.mark.parametrize("flags", [
    ("betaHat", "--m", "1", "--k", "-1"),
    ("alpha", "--m", "1", "--k", "-3", "--lambda", "1"),
    ("betaTilde", "--m", "1", "--k", "-1"),
    ("c", "--N", "3", "--j", "1", "--ell", "1", "--k", "-1"),
], ids=["betaHat", "alpha", "betaTilde", "c"])
def test_coeff_negative_degree_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "coeff", *flags)
    assert code == 2
    assert out == ""
    assert "k=-" in err


def test_verify_small_suite_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "monogenic", "--kmax", "3",
                           "--threads", "1")
    assert code == 0
    assert "pass=4" in out
    # the stated-constant suite fails by design and must exit 1
    code, out, _ = run_cli(capsys, "verify", "--suite", "kelvin", "--kmax", "1",
                           "--threads", "1")
    assert code == 1
    assert "FAIL" in out
    # kmax = 0 is a valid range: only the ten plane cells run
    code, out, _ = run_cli(capsys, "verify", "--suite", "kelvin", "--kmax", "0",
                           "--threads", "1")
    assert code == 0
    assert "cells=10 pass=10" in out


def test_verify_nmax_beyond_pole_table_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "reproducing", "--nmax", "5",
                           "--threads", "1")
    assert code == 2
    assert "nmax=5" in err


def test_verify_empty_suite_exit_2(capsys):
    # ladder starts at n = 2, so nmax = 1 leaves it without cells
    code, _, err = run_cli(capsys, "verify", "--suite", "ladder", "--nmax", "1",
                           "--threads", "1")
    assert code == 2
    assert "no cells" in err


@pytest.mark.parametrize("suite, flag, value", [
    ("gegenbauer", "--kmax", "-5"),
    ("appendixA", "--kmax", "-2"),
    ("clifford", "--kmax", "-1"),
    ("ladder", "--nmax", "-1"),
    ("laplacian", "--mmax", "-1"),
    ("poisson", "--seed", "-1"),
    ("all", "--kmax", "-1"),
])
def test_verify_negative_range_or_seed_exit_2(capsys, suite, flag, value):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value,
                             "--threads", "1")
    assert code == 2
    assert f"{flag[2:]}={value}" in err
    assert out == ""


@pytest.mark.parametrize("samples", ["0", "1", "-3"])
def test_verify_too_few_samples_exit_2(capsys, samples):
    code, _, err = run_cli(capsys, "verify", "--suite", "reproducing", "--nmax", "2",
                           "--kmax", "0", "--samples", samples, "--threads", "1")
    assert code == 2
    assert f"samples={samples}" in err


def test_verify_error_cell_exit_4(monkeypatch, capsys):
    # a runner that raises on one cell: that cell is reported, the others still run
    spec = verify._SUITES["monogenic"]

    def runner(params):
        if params["k"] == 1:
            raise RuntimeError("injected")
        return spec.run(params)

    monkeypatch.setitem(verify._SUITES, "monogenic", dataclasses.replace(spec, run=runner))
    code, out, _ = run_cli(capsys, "verify", "--suite", "monogenic", "--kmax", "2",
                           "--threads", "1", "--json", "-")
    assert code == 4
    assert "[ERROR]" in out and "RuntimeError: injected" in out
    assert "pass=2 fail=0 error=1" in out
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert report["passed"] is False
    assert [c["status"] for c in report["cells"]] == ["pass", "error", "pass"]
    assert report["cells"][1]["witness"] == {"kind": "exception", "type": "RuntimeError",
                                             "message": "injected"}


def test_verify_dead_worker_gives_error_cells_exit_4(monkeypatch, capsys):
    # one cell ends its worker process; the broken pool must not end the run
    spec = verify._SUITES["monogenic"]
    parent = os.getpid()

    def runner(params):
        if params["k"] == 1 and os.getpid() != parent:
            os._exit(1)
        return spec.run(params)

    monkeypatch.setitem(verify._SUITES, "monogenic", dataclasses.replace(spec, run=runner))
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)  # a pool of two workers
    code, out, _ = run_cli(capsys, "verify", "--suite", "monogenic", "--kmax", "3",
                           "--threads", "2", "--json", "-")
    assert code == 4
    assert "BrokenProcessPool" in out
    report = json.loads(out[out.index("\n{\n") + 1:])
    cells = report["cells"]
    assert [c["params"]["k"] for c in cells] == [0, 1, 2, 3]
    assert {c["status"] for c in cells} <= {"pass", "error"}
    assert cells[1]["status"] == "error"
    assert cells[1]["witness"]["kind"] == "exception"
    assert cells[1]["witness"]["type"] == "BrokenProcessPool"


def test_verify_json_report_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run_cli(capsys, "verify", "--suite", "poisson", "--seed", "7",
                             "--threads", "1", "--json", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["passed"] is True
    assert data["seed"] == 7


def test_verify_json_write_error_exit_3(monkeypatch, tmp_path, capsys):
    # the path is checked before any cell runs
    def run_suite(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "gegenbauer", "--threads", "1",
                             "--json", "/nonexistent/dir/report.json")
    assert code == 3
    assert "cannot write report" in err
    assert out == ""
    # a bad parameter still exits 2, and an old report is left as it was
    monkeypatch.undo()
    old = tmp_path / "old.json"
    old.write_text("old report")
    code, _, err = run_cli(capsys, "verify", "--suite", "gegenbauer", "--kmax", "-1",
                           "--threads", "1", "--json", str(old))
    assert code == 2
    assert "kmax=-1" in err
    assert old.read_text() == "old report"


def test_expand_ladder_high_dimension_in_bounded_memory():
    # n = 30 needs 31 terms; a cost exponential in n fails fast under the limit
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    # one BLAS thread: numpy's per-thread buffers would count against the address space
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    script = ("import resource, subprocess, sys\n"
              "done = subprocess.run(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
              "sys.exit(done.returncode)\n")
    done = subprocess.run([sys.executable, "-c", script, sys.executable, "-m", "zonalkit",
                           "expand", "--route", "ladder", "--n", "30", "--k", "1"],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=limit_address_space)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.strip().split(" + ")) == 31
    assert int(done.stderr.split()[-1]) < 100 * 1024  # peak RSS in KiB


def test_table_zonal_coeffs(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _, _ = run_cli(capsys, "table", "zonal_coeffs", "--n", "1", "--kmax", "3",
                         "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "k", "xexp", "yexp", "px", "py", "coeff"]
    # k = 1 plane kernel: 2<x,y> -> coefficients 2
    k1 = [r for r in rows[1:] if r[1] == "1"]
    assert {r[6] for r in k1} == {"2"}
    # plane kernel k=2 is 4<x,y>^2 - 2 QxQy; merged coefficients are 2, 8, -2
    k2 = [r for r in rows[1:] if r[1] == "2"]
    assert {r[6] for r in k2} == {"2", "8", "-2"}


@pytest.mark.parametrize("flags", [
    ("--n", "2"),
    ("--n", "2", "--kmax", "-1"),
    ("--n", "2", "--kmax", "-4"),
    ("--n", "0", "--kmax", "2"),
    ("--kmax", "2"),
], ids=["kmax=default", "kmax=-1", "kmax=-4", "n=0", "n=missing"])
def test_table_zonal_coeffs_domain_error_exit_2(tmp_path, capsys, flags):
    # checked before the output is opened: no file, no bare header
    out = tmp_path / "z.csv"
    code, stdout, err = run_cli(capsys, "table", "zonal_coeffs", *flags, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "--kmax" in err or "--n" in err
    assert not out.exists()


def test_table_poisson_convergence(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, _ = run_cli(capsys, "table", "poisson_convergence", "--n", "2",
                         "--r", "0.3", "--w", "0.5", "--max-terms", "50",
                         "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["terms", "partial_sum", "closed_form", "abs_error"]
    errs = [float(r[3]) for r in rows[1:]]
    assert len(errs) == 50
    assert errs[-1] < 1e-12
    assert errs[-1] <= errs[0]
    # error decay is monotone after the first couple of terms
    tail = errs[2:]
    assert all(a >= b - 1e-18 for a, b in zip(tail, tail[1:]))


def test_table_io_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "table", "zonal_coeffs", "--n", "1", "--kmax", "1",
                           "--out", "/nonexistent/dir/x.csv")
    assert code == 3


def test_module_entry_point_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "zonalkit", "--help"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: zonalkit")


def test_batch_driver_bad_parameter_exit_2(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "scripts" / "run_verification.py"),
                           "--out-dir", str(tmp_path), "--seed", "-1", "--suites", "poisson"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "seed=-1" in done.stderr


@pytest.mark.parametrize("flags", [
    ("--r", "0.3", "--w", "2"),
    ("--r", "1", "--w", "1"),
    ("--r", "2", "--w", "0.5"),
    ("--r", "-0.5", "--w", "0.5"),
    ("--r", "0.3", "--w", "nan"),
], ids=["w=2", "r=1,w=1", "r=2", "r=-0.5", "w=nan"])
def test_table_poisson_convergence_domain_error_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "table", "poisson_convergence", "--n", "2", *flags)
    assert code == 2
    assert out == ""
    assert "--r" in err or "--w" in err


@pytest.mark.parametrize("flags, option", [
    (("--n", "0"), "--n"),
    (("--n", "-2"), "--n"),
    (("--n", "2", "--max-terms", "-3"), "--max-terms"),
    (("--n", "2", "--max-terms", "0"), "--max-terms"),
], ids=["n=0", "n=-2", "max-terms=-3", "max-terms=0"])
def test_table_poisson_convergence_range_error_exit_2(tmp_path, capsys, flags, option):
    out = tmp_path / "p.csv"
    code, stdout, err = run_cli(capsys, "table", "poisson_convergence", "--r", "0.3",
                                "--w", "0.5", *flags, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert option in err
    assert not out.exists()
