import hashlib
import json
from concurrent.futures import Future

import pytest

from zonalkit import verify
from zonalkit import zonalroutes as zr
from zonalkit.verify import SUITE_NAMES, SuiteArgs, run_suite

SMALL = SuiteArgs(nmax=3, kmax=3, mmax=1, samples=20_000, seed=42)


def test_every_suite_runs_and_reports():
    for suite in SUITE_NAMES:
        rep = run_suite(suite, SMALL)
        assert rep.suite == suite
        assert rep.cells
        for cell in rep.cells:
            assert cell.status in ("pass", "fail")
            assert cell.lhs_digest and cell.rhs_digest
            if cell.status == "fail":
                assert cell.witness is not None, cell.params


def test_known_green_suites_pass():
    for suite in ("gegenbauer", "ladder", "harmonicity", "laplacian", "clifford",
                  "appendixA", "appendixB", "monogenic", "poisson"):
        rep = run_suite(suite, SMALL)
        assert rep.passed, [c.params for c in rep.cells if c.status == "fail"]


def test_kelvin_suite_records_discrepant_reference_cells():
    rep = run_suite("kelvin", SMALL)
    ref_fail = [c for c in rep.cells
                if c.params["check"] == "reference_constant" and c.status == "fail"]
    obs_pass = [c for c in rep.cells
                if c.params["check"] == "observed_constant" and c.status == "pass"]
    plane = [c for c in rep.cells if c.params["check"] == "plane_reference"]
    assert ref_fail and obs_pass
    assert all(c.status == "pass" for c in plane)
    assert not rep.passed
    assert any(f["kind"] == "stated_constant_mismatch" for f in rep.findings)
    # every failing cell carries both the measured and the stated constant
    for c in ref_fail:
        assert "measured" in c.params and "reference" in c.params
        assert c.witness is not None


def test_eta_suite_structure():
    rep = run_suite("eta", SMALL)
    by_check = {}
    for c in rep.cells:
        by_check.setdefault(c.params["check"], []).append(c)
    assert all(c.status == "pass" for c in by_check["unit_at_m0"])
    assert all(c.status == "pass" for c in by_check["observed_constant"])
    m0 = [c for c in by_check["reference_constant"] if c.params["m"] == 0]
    m1 = [c for c in by_check["reference_constant"] if c.params["m"] >= 1]
    assert all(c.status == "pass" for c in m0)
    assert all(c.status == "fail" for c in m1)


def test_laplacian_suite_reports_printed_form_findings():
    rep = run_suite("laplacian", SMALL)
    assert rep.passed
    kinds = {f["kind"] for f in rep.findings}
    assert "printed_closed_form_mismatch" in kinds
    assert "printed_closed_form_undefined" in kinds
    assert any(f.get("coefficient") == "betaTilde" for f in rep.findings)


def test_report_json_deterministic_and_thread_invariant():
    a = run_suite("gegenbauer", SuiteArgs(kmax=6, seed=3), threads=1).to_json()
    b = run_suite("gegenbauer", SuiteArgs(kmax=6, seed=3), threads=2).to_json()
    assert a == b
    data = json.loads(a)
    assert set(data) == {"suite", "seed", "passed", "cells", "findings"}
    assert "elapsed_ms" not in data["cells"][0]
    # two workers may split a (reference, observed) pair that shares one route result
    for suite, args in (("kelvin", SuiteArgs(nmax=5, kmax=3)), ("eta", SuiteArgs(mmax=2, kmax=2))):
        assert (run_suite(suite, args, threads=1).to_json()
                == run_suite(suite, args, threads=2).to_json()), suite


@pytest.mark.parametrize("suite, args, caches", [
    # 10 plane cells (m = 0) and the pairs at n = 3 (m = 1, k = 1, 2)
    ("kelvin", SuiteArgs(nmax=3, kmax=2), {"_inversion_route": (12, 2)}),
    # six (m, k) pairs; each cell of a pair asks both cores
    ("eta", SuiteArgs(mmax=2, kmax=2),
     {"_inversion_route": (6, 6), "_paravector_laplacians": (6, 6)}),
], ids=["kelvin", "eta"])
def test_route_caches_share_each_pair(suite, args, caches):
    for name in caches:
        getattr(zr, name).cache_clear()
    first = run_suite(suite, args).to_json()
    for name, (misses, hits) in caches.items():
        info = getattr(zr, name).cache_info()
        assert (info.misses, info.hits, info.currsize) == (misses, hits, 1), name
    assert run_suite(suite, args).to_json() == first


def test_report_json_timings_flag():
    rep = run_suite("monogenic", SuiteArgs(kmax=2))
    data = json.loads(rep.to_json(timings=True))
    assert "elapsed_ms" in data["cells"][0]


def test_monogenic_cells_record_both_operators():
    rep = run_suite("monogenic", SuiteArgs(kmax=4))
    for cell in rep.cells:
        assert "D_annihilates" in cell.params
        assert "Dbar_annihilates" in cell.params
        assert cell.params["Dbar_annihilates"] is True


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", SMALL)


def test_all_suite_concatenates_with_suite_tags():
    for threads in (1, 2):
        rep = run_suite("all", SuiteArgs(nmax=2, kmax=1, mmax=1, samples=5_000, seed=1),
                        threads=threads)
        suites_seen = {c.params.get("suite") for c in rep.cells}
        assert suites_seen.issuperset({"gegenbauer", "ladder", "kelvin"})
        # the report bytes are pinned: the same cells, verdicts, digests and findings
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == "c40198330a1ca24130ed74179f1833e602bbb708410057413361d15919372b27"


@pytest.mark.parametrize("suite, args, digest", [
    ("laplacian", SuiteArgs(mmax=2, kmax=4),
     "f75b13ceb65d795e23624e934fe2ee77ec82257f814c96f4bbca5e6097dffe75"),
    ("clifford", SuiteArgs(mmax=2, kmax=4),
     "b44e7013eb48a65c66af87659869b1acd14b1431e44d94baba118031f1d9c975"),
    ("eta", SuiteArgs(mmax=2, kmax=3),
     "5bc39eeff6403dde6539741b4ed3ac206a5592d601df1d46859812beb51ac054"),
    ("ladder", SuiteArgs(nmax=6, kmax=6),
     "5f72ae11d6f47d31dcf5934d794f63b64025b6cd7c051e0f1beebed3568a5000"),
    ("kelvin", SuiteArgs(kmax=4),
     "16223941a1f0d9999f3a136de6da2a6761a08590fec7aed0cdd5632d203a8b7a"),
    # the Laurent canonicaliser's suite, at its defaults
    ("appendixA", SuiteArgs(),
     "f80ec8ebdf77c84d83f3e10932d86f3b96841c0203d11608b174c0fd703d0c5c"),
    # m = 3 runs in the invariant engine
    ("laplacian", SuiteArgs(mmax=3, kmax=4),
     "1bfe8f777dd41f552285893be1e755486a153812e115208a208719bd4488c70c"),
    # the test polynomial is the kernel with y fixed at a rational pole
    ("reproducing", SuiteArgs(nmax=4, kmax=4, samples=20_000, seed=7),
     "58bcc95b82c4f401d3734dc0403f07453cdc30fa50fe6bb50896cb4bf69f561f"),
])
def test_suite_report_bytes_are_pinned(suite, args, digest):
    # the routes may change engine; the cells, verdicts, digests and findings may not
    rep = run_suite(suite, args, threads=1)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("threads, cpus, expected", [
    (64, 8, [3]),   # capped by the cell count (monogenic, kmax=2: 3 cells)
    (64, 2, [2]),   # capped by the CPU count
    (2, 8, [2]),    # as asked
    (64, 1, []),    # one worker: serial, no pool
    (1, 8, []),
])
def test_worker_count_is_capped(monkeypatch, threads, cpus, expected):
    sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records the worker count, maps inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            future = Future()
            future.set_result(fn(item))
            return future

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    rep = run_suite("monogenic", SuiteArgs(kmax=2), threads=threads)
    assert sizes == expected
    assert rep.to_json() == run_suite("monogenic", SuiteArgs(kmax=2)).to_json()
