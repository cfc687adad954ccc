import concurrent.futures
import hashlib
import json
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction
from operator import methodcaller

import pytest
from hypothesis import assume, given, settings, strategies as st

from zonalkit import orbitform
from zonalkit import radialexpr as rx
from zonalkit import verify
from zonalkit import zonalalg as za
from zonalkit import zonalroutes as zr
from zonalkit.orbitform import OrbitForm
from zonalkit.verify import SUITE_NAMES, SuiteArgs, run_suite

from expr_cell_reference import reference_expr_cell

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


def test_wrong_invariant_laplacian_fails_the_invariant_cells(monkeypatch):
    # the m = 3 route cells run only on ZonalInvariant's rules; a doubled rule
    # must turn each of them red with the exact difference as witness
    lap = za.ZonalInvariant._lap
    monkeypatch.setattr(za.ZonalInvariant, "_lap", lambda self, group: lap(self, group).scale(2))
    rep = run_suite("laplacian", SuiteArgs(mmax=3, kmax=1), threads=1)
    invariant = [c for c in rep.cells if c.params.get("engine") == "invariant"]
    assert len(invariant) == 4
    assert all(c.status == "fail" and c.witness["kind"] == "invariant_diff"
               and c.witness["terms"] for c in invariant)
    assert all(c.status == "pass" for c in rep.cells if c.params.get("engine") != "invariant")
    assert rep.counts() == {"pass": 28, "fail": 4, "error": 0}


def test_report_json_deterministic_and_thread_invariant():
    a = run_suite("gegenbauer", SuiteArgs(kmax=6, seed=3), threads=1).to_json()
    b = run_suite("gegenbauer", SuiteArgs(kmax=6, seed=3), threads=2).to_json()
    assert a == b
    data = json.loads(a)
    assert set(data) == {"suite", "seed", "passed", "cells", "findings"}
    assert "elapsed_ms" not in data["cells"][0]
    # a (reference, observed) pair shares one route result, on one worker
    for suite, args in (("kelvin", SuiteArgs(nmax=5, kmax=3)), ("eta", SuiteArgs(mmax=2, kmax=2))):
        assert (run_suite(suite, args, threads=1).to_json()
                == run_suite(suite, args, threads=2).to_json()), suite


def test_pooled_laplacian_report_is_thread_invariant():
    # workers forked from cleared tables build them cold, each in its own task order, and
    # share a placement table among the orbits of one multiset of multiplicities; the
    # serial run builds them in task order in this process
    for suite, args in (("laplacian", SuiteArgs(mmax=3, kmax=4)), ("ladder", SuiteArgs(kmax=6))):
        for table in (orbitform._orbit, orbitform._choices, orbitform._placements):
            table.cache_clear()
        pooled = run_suite(suite, args, threads=2).to_json()
        assert run_suite(suite, args, threads=1).to_json() == pooled, suite


# -- the task schedule -------------------------------------------------------------

@pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
def test_every_planned_item_is_in_exactly_one_task(suite):
    items = verify.plan_suite(suite)
    tasks = verify._tasks(items)
    assert sorted(i for task in tasks for i in task) == list(range(len(items)))
    assert all(tasks)
    if verify._SUITES.get(suite) and verify._SUITES[suite].affinity is None:
        assert tasks == [[i] for i in range(len(items))]


@pytest.mark.parametrize("suite", ["kelvin", "eta", "ladder", "laplacian", "all"])
def test_pairs_and_chains_share_a_task(suite):
    items = verify.plan_suite(suite)
    for task in verify._tasks(items):
        (name,) = {items[i][0] for i in task}
        params = [items[i][1] for i in task]
        checks = [p.get("check") for p in params]
        if name == "ladder":  # one chain: one n, k ascending from 0
            assert {p["n"] for p in params} == {params[0]["n"]}
            assert [p["k"] for p in params] == list(range(len(params)))
        elif name == "laplacian":  # one (parity, m), by k
            assert len({(p["parity"], p["m"]) for p in params}) == 1
            assert [p["k"] for p in params] == sorted(p["k"] for p in params)
        elif "reference_constant" in checks:  # one kelvin or eta case
            assert checks == ["reference_constant", "observed_constant"]
            assert params[0] == {**params[1], "check": "reference_constant"}
        else:
            assert len(task) == 1, params


_ROUTE_CACHES = (zr._seed_form, zr._inversion_route, zr._paravector_laplacians,
                 zr._ladder_form)


def test_laplacian_cells_of_one_parity_m_k_run_adjacently(monkeypatch):
    # so the route and fixed_y cells of one (parity, m, k) take the seed's Lap_x once
    seeds, ops = [], []
    build, apply = OrbitForm.from_invariant.__func__, OrbitForm.apply

    def from_invariant(cls, inv):
        seeds.append(build(cls, inv))
        return seeds[-1]

    def spy(self, op):
        if any(self is seed for seed in seeds):
            ops.append(repr(op))
        return apply(self, op)

    monkeypatch.setattr(OrbitForm, "from_invariant", classmethod(from_invariant))
    monkeypatch.setattr(OrbitForm, "apply", spy)
    zr._seed_form.cache_clear()
    run_suite("laplacian", SuiteArgs(mmax=2, kmax=3))
    assert ops == [repr(methodcaller("laplacian", "x"))] * (2 * 2 * 4)
    items = verify.plan_suite("laplacian")
    order = [items[i][1] for task in verify._tasks(items) for i in task]
    groups = [(p["parity"], p["m"], p["k"]) for p in order]
    runs = [g for i, g in enumerate(groups) if i == 0 or groups[i - 1] != g]
    assert len(runs) == len(set(groups))  # each (parity, m, k) is one run of cells
    for g in set(groups):
        checks = [p["check"] for p in order if (p["parity"], p["m"], p["k"]) == g]
        assert checks in (["route", "fixed_y", "prefactor_consistency"],
                          ["route", "prefactor_consistency"])


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_laplacian_routes_at_m_0_return_the_lifted_seed(parity):
    for k in range(4):
        seed = zr._laplacian_seed(parity, 0, k).to_radialexpr()
        for route in (zr.laplacian_route, zr.laplacian_route_fixed_y):
            zr._seed_form.cache_clear()
            assert route(parity, 0, k).digest() == seed.digest(), (route.__name__, k)


@pytest.mark.parametrize("parity, m, k", [("odd", 2, 2), ("even", 2, 3), ("odd", 1, 0)])
def test_laplacian_routes_do_not_depend_on_call_order(parity, m, k):
    def cold(route):
        zr._seed_form.cache_clear()
        return route(parity, m, k).digest()

    routes = (zr.laplacian_route, zr.laplacian_route_fixed_y)
    want = {route: cold(route) for route in routes}
    for first, second in (routes, routes[::-1]):
        # the second call takes the first one's cached Lap_x
        assert {first: cold(first), second: second(parity, m, k).digest()} == want


@pytest.fixture
def cold_route_caches():
    """Empty route caches before and after, so no cached result leaks between tests."""
    for cache in _ROUTE_CACHES:
        cache.cache_clear()
    yield
    for cache in _ROUTE_CACHES:
        cache.cache_clear()


def test_a_wrong_laplacian_fails_every_route_and_fixed_y_cell(monkeypatch, cold_route_caches):
    # the route and fixed_y cells of one (parity, m, k) share their first Lap_x; a
    # Laplacian that doubles its result must still fail both, whichever runs first
    lap = rx.RadialExpr.laplacian
    monkeypatch.setattr(rx.RadialExpr, "laplacian", lambda self, group: lap(self, group).scale(2))
    args = SuiteArgs(mmax=2, kmax=2)
    checked = [c for c in run_suite("laplacian", args).cells
               if c.params.get("engine") == "coordinate" or c.params["check"] == "fixed_y"]
    assert len(checked) == 2 * 2 * 3 * 2
    for cell in checked:
        assert cell.status == "fail" and cell.witness["kind"] == "expr_diff", cell.params
    # the other order: fixed_y before route, from a cold cache for each (parity, m, k)
    for parity in ("odd", "even"):
        for m in (1, 2):
            for k in range(3):
                zr._seed_form.cache_clear()
                for check, extra in (("fixed_y", {}), ("route", {"engine": "coordinate"})):
                    cell = verify._run_laplacian(
                        {"check": check, "parity": parity, "m": m, "k": k, **extra})
                    assert cell.status == "fail", cell.params
                    assert cell.witness["kind"] == "expr_diff", cell.params


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count, maps inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = Future()
        future.set_result(fn(item))
        return future


@pytest.mark.parametrize("suite, args", [
    ("laplacian", SuiteArgs(mmax=2, kmax=3)),
    ("ladder", SuiteArgs(nmax=4, kmax=4)),
    ("kelvin", SuiteArgs(nmax=5, kmax=3)),
    ("eta", SuiteArgs(mmax=2, kmax=2)),
    ("all", SuiteArgs(nmax=3, kmax=2, mmax=2, samples=2_000)),
])
def test_pooled_tasks_take_the_serial_route_cache_misses(monkeypatch, suite, args):
    # each task starts from empty route caches, as it may on a worker that ran any
    # other task before it: the misses add up to the serial run's only if the cells
    # that share a cached result share a task
    def misses():
        return [cache.cache_info().misses for cache in _ROUTE_CACHES]

    for cache in _ROUTE_CACHES:
        cache.cache_clear()
    serial = run_suite(suite, args).to_json()
    expected = misses()
    pooled = [0] * len(_ROUTE_CACHES)

    class ColdPool(InlinePool):
        def submit(self, fn, item):
            for cache in _ROUTE_CACHES:
                cache.cache_clear()
            future = super().submit(fn, item)
            pooled[:] = map(sum, zip(pooled, misses()))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ColdPool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    assert run_suite(suite, args, threads=2).to_json() == serial
    assert ColdPool.sizes == [2]
    assert pooled == expected


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
    # the multivector digests; kmax 3 runs both multivector checks
    ("appendixB", SuiteArgs(kmax=3),
     "22681f55e814e3cd6746d7d445ff1f14495ac9ab157bf3144da0577b2a7ad764"),
    ("appendixB", SuiteArgs(),
     "ddf1542f4c8395e85cc5226e45fb9bc73d7faae66b2fb38f06c70b3e13823e12"),
])
def test_suite_report_bytes_are_pinned(suite, args, digest):
    # the routes may change engine; the cells, verdicts, digests and findings may not
    rep = run_suite(suite, args, threads=1)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("threads, cpus, expected", [
    (64, 8, [3]),   # capped by the task count (monogenic, kmax=2: 3 one-cell tasks)
    (64, 2, [2]),   # capped by the CPU count
    (2, 8, [2]),    # as asked
    (64, 1, []),    # one worker: serial, no pool
    (1, 8, []),
])
def test_worker_count_is_capped(monkeypatch, threads, cpus, expected):
    # run_suite imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    rep = run_suite("monogenic", SuiteArgs(kmax=2), threads=threads)
    assert InlinePool.sizes == expected
    assert rep.to_json() == run_suite("monogenic", SuiteArgs(kmax=2)).to_json()


@pytest.mark.parametrize("threads", [0, -3])
def test_worker_count_below_one_is_refused(monkeypatch, threads):
    # refused before any cell runs, not run serially
    monkeypatch.setattr(verify, "_execute", lambda item: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match=f"threads={threads} is out of range"):
        run_suite("monogenic", SuiteArgs(kmax=2), threads=threads)


# -- one support order per failing cell -----------------------------------------

_NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
_TERM = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[st.integers(0, 2)] * 3),
                  st.integers(-3, 1), st.integers(-3, 1), _NONZERO)


def _sides(kind: str, lhs: rx.RadialExpr, data) -> rx.RadialExpr:
    """The right side of case ``kind``, built from lhs's canonical terms."""
    terms = list(lhs.terms())
    if kind == "equal":
        return rx.from_terms(3, 3, terms)
    if kind == "proportional":
        return lhs.scale(data.draw(_NONZERO.filter(lambda c: c != 1)))
    if kind in ("same support", "cancelling"):
        factors = data.draw(st.lists(_NONZERO, min_size=len(terms), max_size=len(terms)))
        if kind == "cancelling":  # the first difference coefficient cancels, no other
            factors = [1] + [f if f != 1 else 2 for f in factors[1:]]
        return rx.from_terms(3, 3, [(*t[:4], t[4] * f) for t, f in zip(terms, factors)])
    if kind == "one key more":
        extra = data.draw(_TERM)
        rhs = rx.from_terms(3, 3, terms + [extra])
        assume(len(rhs) == len(lhs) + 1 and lhs._terms.keys() < rhs._terms.keys())
        return rhs
    if kind == "one key less":
        return rx.from_terms(3, 3, terms[1:])
    return rx.RadialExpr.zero(3, 3)  # "zero rhs"


_KINDS = ("equal", "proportional", "same support", "cancelling", "one key more",
          "one key less", "zero rhs", "zero lhs")


@settings(max_examples=120, deadline=None)
@given(items=st.lists(_TERM, max_size=30), kind=st.sampled_from(_KINDS),
       warm=st.booleans(), built=st.booleans(), data=st.data())
def test_expr_cell_matches_the_per_side_reference(items, kind, warm, built, data):
    """A cell that shares lhs's support order gives the bytes of each side
    serialised on its own: equal, proportional, same-support, cancelling and
    one-key-apart sides, Laurent terms, den != 1, a zero side, supports past
    the 24-row witness cap, an lhs whose digest is already cached, and an rhs
    that the cell builds only after lhs's digest."""
    lhs = rx.from_terms(3, 3, items)
    rhs = _sides("zero rhs" if kind == "zero lhs" else kind, lhs, data)
    if kind == "zero lhs":
        lhs, rhs = rhs, lhs
    params = {"check": kind}
    expected = reference_expr_cell(params, lhs, rhs)
    if warm:
        lhs.digest()
    assert verify._expr_cell(params, lhs, (lambda: rhs) if built else rhs) == expected


@pytest.mark.parametrize("kind, orders", [
    ("equal", 1), ("proportional", 1), ("one key less", 1), ("cancelling", 1),
    ("one key more", 3)])
def test_failing_cell_shares_one_order(monkeypatch, kind, orders):
    # lhs's support is ordered once, before its digest; a failing rhs with
    # keys among lhs's takes that order for its digest and the witness; a
    # wider rhs and its difference are ordered on their own
    route = zr.kelvin_route(3, 2)
    n = route.nx  # R^4
    lhs = rx.from_terms(n, n, list(route.terms()))  # no cached digest
    terms = list(lhs.terms())
    if kind == "equal":
        rhs = rx.from_terms(n, n, terms)
    elif kind == "proportional":
        rhs = lhs.scale(3)
    elif kind == "cancelling":
        rhs = rx.from_terms(n, n, [terms[0]] + [(*t[:4], 2 * t[4]) for t in terms[1:]])
    elif kind == "one key less":
        rhs = rx.from_terms(n, n, terms[1:])
    else:
        rhs = lhs + rx.from_terms(n, n, [((2,) * n, (2,) * n, 0, 0, 1)])
        assert len(rhs) == len(lhs) + 1
    calls = []
    order = rx.RadialExpr._order
    monkeypatch.setattr(rx.RadialExpr, "_order",
                        lambda self: calls.append(len(self)) or order(self))
    cell = verify._expr_cell({}, lhs, rhs)
    assert cell.status == ("pass" if kind == "equal" else "fail")
    assert len(calls) == orders


# -- digest-first cells ------------------------------------------------------------

@pytest.mark.parametrize("constant, run, params", [
    ("ladder_scale", verify._run_ladder, {"n": 3, "k": 2}),
    ("beta_hat", verify._run_laplacian,
     {"check": "route", "parity": "even", "m": 1, "k": 2, "engine": "coordinate"}),
    ("fixed_y_prefactor", verify._run_laplacian,
     {"check": "fixed_y", "parity": "odd", "m": 1, "k": 2}),
    ("beta_hat", verify._run_clifford, {"check": "route", "m": 1, "k": 2}),
    ("beta_hat", verify._run_clifford, {"check": "plane_identity", "k": 3}),
], ids=["ladder", "laplacian route", "laplacian fixed_y", "clifford route", "clifford plane"])
def test_failing_digest_first_cell_matches_the_per_side_reference(monkeypatch, constant,
                                                                   run, params):
    # a right-side constant off by 1001/1000: the cell digests lhs alone, then
    # builds rhs, fails, and ranks lhs again to share the order with rhs's
    # digest and the witness; the bytes are those of each side on its own
    scaled = getattr(zr, constant)
    monkeypatch.setattr(zr, constant, lambda *a: scaled(*a) * Fraction(1001, 1000))
    sides = []
    expr_cell = verify._expr_cell

    def spy(params, lhs, build):
        assert callable(build)  # rhs does not exist before lhs's digest

        def recorded():
            sides[:] = [lhs, build()]
            return sides[1]
        return expr_cell(params, lhs, recorded)
    monkeypatch.setattr(verify, "_expr_cell", spy)
    cell = run(params)
    assert cell.status == "fail"
    assert cell == reference_expr_cell(params, *sides)


def _traced_peak(run, params) -> tuple[verify.Cell, int]:
    tracemalloc.start()
    try:
        return run(params), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ladder_cell_frees_lhs_text_before_rhs():
    # the n=6, k=6 cell holds lhs (about 2.5 MB) and rhs (about 3.1 MB), but
    # not lhs's order and serialised text as well: that read 9.9 MB
    for k in range(6):
        verify._run_ladder({"n": 6, "k": k})
    cell, peak = _traced_peak(verify._run_ladder, {"n": 6, "k": 6})
    assert cell.status == "pass"
    assert peak < 8 * 2**20


def test_fixed_y_cell_frees_lhs_text_before_rhs():
    # the largest default fixed_y cell, run warm; holding lhs's text while
    # rhs was built read 7.1 MB
    params = {"check": "fixed_y", "parity": "odd", "m": 2, "k": 4}
    verify._run_laplacian(params)
    cell, peak = _traced_peak(verify._run_laplacian, params)
    assert cell.status == "pass"
    assert peak < 6 * 2**20
