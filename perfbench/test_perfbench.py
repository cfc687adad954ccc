"""Fast self-tests for the verdict benchmark, on tiny ranges.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import reference
import run
from zonalkit.cli import main as zonalkit_main
from zonalkit.gegenbauer import zonal_direct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _report(tmp_path, suite: str, ranges: dict, threads: int = 1, seed: int = 0) -> dict:
    path = tmp_path / f"{suite}-{threads}.json"
    argv = ["verify", "--suite", suite, "--threads", str(threads), "--seed", str(seed),
            "--json", str(path), "--timings"]
    for name, value in ranges.items():
        argv += [f"--{name}", str(value)]
    zonalkit_main(argv)
    return json.loads(path.read_text())


TINY = {
    "kelvin": {"nmax": 3, "kmax": 2},
    "eta": {"mmax": 1, "kmax": 1},
    "reproducing": {"nmax": 2, "kmax": 1, "samples": 200_000},
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    return {suite: _report(tmp, suite, ranges, seed=7) for suite, ranges in TINY.items()}


def _check(suite: str, report: dict | None) -> checks.Outcome:
    return checks.check_report(suite, TINY[suite], report, seed=7)


def _find(report: dict, **params) -> dict:
    return next(c for c in report["cells"]
                if all(c["params"].get(k) == v for k, v in params.items()))


# -- the reference module ------------------------------------------------------------

def test_reference_values():
    x, y = [Fraction(1), Fraction(2), Fraction(-1)], [Fraction(1, 2), Fraction(0), Fraction(3)]
    a = sum(u * v for u, v in zip(x, y))
    q = sum(u * u for u in x) * sum(v * v for v in y)
    assert reference.zonal_value(2, 1, x, y) == 3 * a  # ((1 + 1/2)/(1/2)) C_1^(1/2)
    assert reference.zonal_value(2, 2, x, y) == Fraction(5, 2) * (3 * a * a - q)
    assert reference.zonal_value(1, 2, x[:2], y[:2]) == 2 * (2 * (x[0] * y[0] + x[1] * y[1]) ** 2
                                                            - (x[0] ** 2 + x[1] ** 2)
                                                            * (y[0] ** 2 + y[1] ** 2))
    assert [reference.dim_harmonics(2, k) for k in range(5)] == [1, 3, 5, 7, 9]
    assert [reference.dim_harmonics(3, k) for k in range(5)] == [1, 4, 9, 16, 25]
    assert [reference.constant_factor(m) for m in range(4)] == [1, 2, Fraction(8, 3),
                                                                Fraction(16, 5)]


def test_expected_cell_counts_match_the_workload_ranges(reports):
    for suite, report in reports.items():
        assert len(report["cells"]) == len(reference.expected_cells(suite, TINY[suite]))
    counts = {"ladder": 5 * 7, "eta": 3 * 3 * 2 + 3, "clifford": 20,
              "kelvin": 10 + 3 * 4 * 2, "reproducing": 2 * 4, "laplacian": 80}
    for work in run.WORKLOADS.values():
        for suite, ranges in work["suites"]:
            assert len(reference.expected_cells(suite, ranges)) == counts[suite]


# -- each check catches a planted wrong answer ----------------------------------------

def test_clean_reports_pass(reports):
    for suite, report in reports.items():
        outcome = _check(suite, report)
        assert outcome.failures == [] and outcome.problems == [], suite
        assert outcome.attempted == len(report["cells"])


def test_flipped_verdict_is_caught(reports):
    report = copy.deepcopy(reports["kelvin"])
    _find(report, check="observed_constant", n=3, k=1)["status"] = "fail"
    assert _check("kelvin", report).failed == 1


def test_flipped_expected_verdict_is_caught(reports, monkeypatch):
    monkeypatch.setattr(reference, "expected_status", lambda key: "pass")
    # the two stated-constant cells at n = 3 now disagree with the rule
    assert _check("kelvin", reports["kelvin"]).failed == 2


def test_altered_digest_is_caught(reports):
    report = copy.deepcopy(reports["eta"])
    cell = _find(report, check="observed_constant", m=1, k=1)
    cell["rhs_digest"] = "0" * 64
    assert _check("eta", report).failed == 1
    failing = _find(report, check="reference_constant", m=1, k=1)
    failing["rhs_digest"] = failing["lhs_digest"]
    assert _check("eta", report).failed == 2


def test_altered_constant_is_caught(reports):
    report = copy.deepcopy(reports["kelvin"])
    cell = _find(report, check="reference_constant", n=3, k=2)
    cell["params"]["measured"] = str(Fraction(cell["params"]["measured"]) * 3)
    assert _check("kelvin", report).failed == 1
    report = copy.deepcopy(reports["eta"])
    _find(report, check="reference_constant", m=1, k=1)["params"]["measured"] = "None"
    assert _check("eta", report).failed == 1


def test_monte_carlo_answers_are_checked(reports):
    good = reports["reproducing"]
    for field, value in (("target", 3.5), ("estimate", 3.0 * 1.02), ("seed", 0)):
        report = copy.deepcopy(good)
        _find(report, n=2, k=1)["params"][field] = value
        assert _check("reproducing", report).failed == 1, field


def test_missing_cells_and_raised_suites_fail_every_expected_cell(reports):
    report = copy.deepcopy(reports["eta"])
    report["cells"].pop()
    assert _check("eta", report).failed == 1
    outcome = _check("eta", None)
    assert outcome.failed == outcome.attempted == len(reports["eta"]["cells"])


def test_unexpected_cell_is_a_problem(reports):
    report = copy.deepcopy(reports["eta"])
    report["cells"].append(copy.deepcopy(report["cells"][0]))
    outcome = _check("eta", report)
    assert outcome.failed == 0 and len(outcome.problems) == 1


def test_kernel_check_catches_a_wrong_expansion():
    kernels = [(1, 4), (2, 3), (4, 2)]
    assert checks.check_kernels(zonal_direct, kernels) == []
    wrong = checks.check_kernels(lambda n, k: zonal_direct(n, k).scale(Fraction(3, 2)), kernels)
    assert len(wrong) == len(kernels)


# -- determinism across the process pool ------------------------------------------------

def _strip_timings(path: Path) -> bytes:
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if b'"elapsed_ms"' not in line)


def test_laplacian_reports_match_at_one_and_two_threads(tmp_path):
    ranges = {"mmax": 1, "kmax": 2}
    _report(tmp_path, "laplacian", ranges, threads=1)
    _report(tmp_path, "laplacian", ranges, threads=2)
    one = tmp_path / "laplacian-1.json"
    two = tmp_path / "laplacian-2.json"
    assert b'"elapsed_ms"' in one.read_bytes()
    assert _strip_timings(one) == _strip_timings(two)


# -- the printed metrics ------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(n) for n in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_tracer_sees_every_binding(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
        import zonalkit
        from tracer import Tracer, layer_metrics
        tracer = Tracer("selftest")
        tracer.install(zonalkit)
        from zonalkit.verify import SuiteArgs, run_suite
        run_suite("kelvin", SuiteArgs(nmax=3, kmax=2), threads=1).to_json(timings=True)
        print(json.dumps(layer_metrics(tracer.spans, 1.0)))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    m = json.loads(out.stdout.splitlines()[-1])
    # 10 plane cells and two (reference, observed) pairs at n = 3
    assert m["zonalroutes.kelvin_route.calls"] == 14
    assert m["zonalroutes.kelvin_route.distinct_ratio"] == pytest.approx(12 / 14)
    assert m["gegenbauer.zonal_direct.calls"] == 14  # looked up through verify's binding
    assert m["radialexpr.mul.calls"] > 0 and m["radialexpr.mul.term_pairs"] > 0
    assert m["radialexpr.digest.calls"] == 28
    assert m["verify.report_json.self_s"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode != 0
    assert "correct" not in out.stdout
