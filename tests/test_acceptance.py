"""Acceptance battery: every exit criterion at its stated range and tolerance.

One line per criterion is printed (run ``pytest -s tests/test_acceptance.py``
to see them).  Two criteria pin stated closed-form constants that exact
symbolic computation contradicts (the inversion-route constant and the
bridge constant for m >= 1; the verification reports carry the measured
values as structured findings).  Those assertions are kept verbatim and
marked strict-xfail; companion tests pin the observed constants so the
constructions themselves remain fully verified end to end.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from zonalkit.verify import SuiteArgs, run_suite

THREADS = 2


def _line(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"acceptance criterion {num:02d} ({name}): {status}{tail}")


def _failures(report):
    return [c.params for c in report.cells if c.status == "fail"]


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_01_gegenbauer_identity_suite():
    t0 = time.perf_counter()
    rep = run_suite("gegenbauer", SuiteArgs(kmax=20))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 5.0
    _line(1, "Gegenbauer identity suite, k<=20", ok, f"{elapsed:.2f}s")
    assert rep.passed, _failures(rep)
    assert elapsed < 5.0


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_02_ladder_route():
    t0 = time.perf_counter()
    rep = run_suite("ladder", SuiteArgs(nmax=6, kmax=8), threads=THREADS)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    _line(2, "ladder route n in 2..6, k in 0..8", ok, f"{elapsed:.1f}s")
    assert rep.passed, _failures(rep)
    assert elapsed < 60.0


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_03_harmonicity():
    t0 = time.perf_counter()
    rep = run_suite("harmonicity", SuiteArgs(nmax=6, kmax=8), threads=THREADS)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 30.0
    _line(3, "harmonicity of the direct kernels", ok, f"{elapsed:.1f}s")
    assert rep.passed, _failures(rep)
    assert elapsed < 30.0


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_04_iterated_laplacian_routes():
    t0 = time.perf_counter()
    rep = run_suite("laplacian", SuiteArgs(mmax=3, kmax=6), threads=THREADS)
    rep_a = run_suite("appendixA", SuiteArgs(kmax=8), threads=THREADS)
    elapsed = time.perf_counter() - t0
    mismatch = [f for f in rep.findings if f["kind"] == "printed_closed_form_mismatch"]
    undefined = [f for f in rep.findings if f["kind"] == "printed_closed_form_undefined"]
    ok = rep.passed and rep_a.passed and elapsed < 600.0 and mismatch and undefined
    _line(4, "iterated-Laplacian routes m in 1..3 + N=6 prefactor -16(1+k)", ok,
          f"{elapsed:.1f}s, {len(mismatch)} printed-form mismatch findings")
    assert rep.passed, _failures(rep)
    assert rep_a.passed, _failures(rep_a)
    # the Gamma(m-1)^2 question is a reported finding, never a silent pass
    assert mismatch, "expected structured findings for the printed closed forms"
    assert undefined, "expected a finding that the printed form diverges at m=1"
    assert elapsed < 600.0


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_05_clifford_route():
    t0 = time.perf_counter()
    rep = run_suite("clifford", SuiteArgs(mmax=2, kmax=6), threads=THREADS)
    elapsed = time.perf_counter() - t0
    slice_cells = [c for c in rep.cells if c.params["check"] == "slice_derivative_value"]
    ok = rep.passed and elapsed < 300.0 and len(slice_cells) == 9
    _line(5, "paravector-power route m in 1..2 + |y|=1 slice values k<=8", ok,
          f"{elapsed:.1f}s")
    assert rep.passed, _failures(rep)
    assert len(slice_cells) == 9
    assert elapsed < 300.0


# -- criterion 6 ---------------------------------------------------------------

@pytest.fixture(scope="module")
def kelvin_report():
    t0 = time.perf_counter()
    rep = run_suite("kelvin", SuiteArgs(kmax=6), threads=THREADS)
    rep.elapsed = time.perf_counter() - t0  # type: ignore[attr-defined]
    return rep


def test_criterion_06_kelvin_route_plane_identity(kelvin_report):
    plane = [c for c in kelvin_report.cells if c.params["check"] == "plane_reference"]
    ok = len(plane) == 10 and all(c.status == "pass" for c in plane)
    _line(6, "inversion route: n=1 reference identity k<=10", ok)
    assert ok, [c.params for c in plane if c.status != "pass"]


@pytest.mark.xfail(strict=True,
                   reason="the stated constant (n-1)!(-1)^((n-1)/2) k/(2k+n-1) disagrees "
                          "with exact computation by 4^m (m!)^2/(2m)! for n >= 3; the "
                          "report findings carry both values")
def test_criterion_06_kelvin_route_stated_constant(kelvin_report):
    cells = [c for c in kelvin_report.cells if c.params["check"] == "reference_constant"]
    bad = [c.params for c in cells if c.status != "pass"]
    ok = not bad and kelvin_report.elapsed < 300.0
    _line(6, "inversion route: stated constant n in {3,5,7}, k in 1..6", ok,
          f"{len(bad)} of {len(cells)} cells disagree")
    assert not bad, bad


def test_criterion_06_kelvin_route_observed_structure(kelvin_report):
    cells = [c for c in kelvin_report.cells if c.params["check"] == "observed_constant"]
    findings = [f for f in kelvin_report.findings if f["kind"] == "stated_constant_mismatch"]
    ok = (len(cells) == 18 and all(c.status == "pass" for c in cells)
          and findings and kelvin_report.elapsed < 300.0)
    _line(6, "inversion route: exact proportionality with the observed constant", ok,
          f"{kelvin_report.elapsed:.1f}s, {len(findings)} findings")
    assert all(c.status == "pass" for c in cells)
    assert findings, "the constant disagreement must be reported, not silently fixed"
    assert kelvin_report.elapsed < 300.0


# -- criterion 7 ---------------------------------------------------------------

@pytest.fixture(scope="module")
def eta_report():
    t0 = time.perf_counter()
    rep = run_suite("eta", SuiteArgs(mmax=2, kmax=6), threads=THREADS)
    rep.elapsed = time.perf_counter() - t0  # type: ignore[attr-defined]
    return rep


def test_criterion_07_eta_unit_and_m0(eta_report):
    unit = [c for c in eta_report.cells if c.params["check"] == "unit_at_m0"]
    m0 = [c for c in eta_report.cells
          if c.params["check"] == "reference_constant" and c.params.get("m") == 0]
    ok = all(c.status == "pass" for c in unit + m0)
    _line(7, "bridge identity: eta = 1 at m=0", ok)
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="the stated bridge constant disagrees with exact computation "
                          "by 4^m (m!)^2/(2m)! for m >= 1; findings carry both values")
def test_criterion_07_eta_stated_constant(eta_report):
    cells = [c for c in eta_report.cells
             if c.params["check"] == "reference_constant" and c.params.get("m", 0) >= 1]
    bad = [c.params for c in cells if c.status != "pass"]
    ok = not bad
    _line(7, "bridge identity: stated constant m in 1..2, k in 1..6", ok,
          f"{len(bad)} of {len(cells)} cells disagree")
    assert not bad, bad


def test_criterion_07_eta_observed_structure(eta_report):
    cells = [c for c in eta_report.cells if c.params["check"] == "observed_constant"]
    ok = all(c.status == "pass" for c in cells) and eta_report.elapsed < 300.0
    _line(7, "bridge identity: exact with the observed constant m in 0..2", ok,
          f"{eta_report.elapsed:.1f}s")
    assert all(c.status == "pass" for c in cells)
    assert eta_report.elapsed < 300.0


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_08_pair_representation_suite():
    t0 = time.perf_counter()
    rep = run_suite("appendixB", SuiteArgs(kmax=6), threads=THREADS)
    elapsed = time.perf_counter() - t0
    hyper = [c for c in rep.cells if c.params["check"] == "hypergeometric_sum"]
    ok = rep.passed and elapsed < 60.0 and len(hyper) == 21
    _line(8, "blade reconstruction, spherical derivatives, binomial-sum identity", ok,
          f"{elapsed:.1f}s")
    assert rep.passed, _failures(rep)
    assert len(hyper) == 21
    assert elapsed < 60.0


# -- criterion 9 ---------------------------------------------------------------

def test_criterion_09_monogenicity():
    t0 = time.perf_counter()
    rep = run_suite("monogenic", SuiteArgs(kmax=8), threads=THREADS)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    _line(9, "Dbar Lap x^k vanishes at blade level, n=3, k<=8", ok, f"{elapsed:.1f}s")
    assert rep.passed, _failures(rep)
    # the report records which operators annihilate, per case
    for cell in rep.cells:
        assert "D_annihilates" in cell.params and "Dbar_annihilates" in cell.params
    assert elapsed < 60.0


# -- criterion 10 ----------------------------------------------------------------

def test_criterion_10_poisson():
    t0 = time.perf_counter()
    rep = run_suite("poisson", SuiteArgs(nmax=4, seed=0))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    _line(10, "kernel series vs closed form (1e-10) and operator route (1e-12)", ok,
          f"{elapsed:.2f}s")
    assert rep.passed, _failures(rep)
    assert elapsed < 10.0


# -- criterion 11 ----------------------------------------------------------------

def test_criterion_11_reproducing_property():
    t0 = time.perf_counter()
    rep = run_suite("reproducing", SuiteArgs(nmax=4, kmax=4, samples=1_000_000, seed=0),
                    threads=THREADS)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 120.0
    _line(11, "Monte-Carlo reproducing property, 1e6 samples, 1% relative", ok,
          f"{elapsed:.1f}s")
    assert rep.passed, _failures(rep)
    for cell in rep.cells:
        assert "three_sigma" in cell.params  # the sigma budget is documented per cell
        assert cell.params["samples"] == 1_000_000
    # the 10^6-sample float path, bit for bit: estimates, errors and digests
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
        "bc6bd438f20091b275c14630c36df41dccead3d9918a9304a858de517ee41102"
    assert elapsed < 120.0
