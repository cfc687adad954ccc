"""Verification harness: identity suites, cell runner, structured reports.

Each suite is a list of independent cells.  A cell names its parameters,
computes both sides of one exact identity (or one numeric check with a
stated tolerance), and reports pass/fail together with digests of the two
sides and, on failure, a witness (the nonzero difference or the numeric
pair).  A cell that compares two expressions digests its left side before
it builds its right side, unless both sides exist already (the kelvin and
eta cells), so a passing cell never holds both sides and the serialised
text at once.  A cell whose runner raises is reported as ``error`` with the
exception as its witness, and the other cells still run.  Cells share no
mutable state, only immutable route inputs and results in the one-entry
caches of ``zonalroutes`` (a kelvin or eta pair's route, a ladder chain's
last step, a Laplacian seed) and the orbit tables of ``orbitform``; a cell
computes the same bytes whether it finds them cached or not.

The runner groups the cells into tasks that share those caches: cells with
the same affinity key form one task, which runs on one worker in the order
its suite declares, and every other cell is a task of its own.  The serial
run and the process pool follow the same schedule.  If a pool worker dies,
every cell of its task is an ``error`` cell.  Cells go back into plan order,
which makes the JSON output deterministic for a fixed seed and independent
of the worker count.

Every suite is declared once, in ``_SUITES`` at the end of this module: its
default ranges, its cell builder, its cell runner, its optional findings and
its optional affinity.

Two families of constants get special treatment.  The printed closed forms
for the iterated-Laplacian prefactor and for the inversion-route/bridge
constants are compared against the values the exact computation produces;
where they disagree the suite reports a structured finding carrying both
values.  The ``kelvin`` and ``eta`` suites additionally keep one cell per
case asserting the *stated* reference constant verbatim - those cells fail
for every case where the reference constant is wrong, by design.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from typing import Callable, Hashable

from . import cliffordalg as ca
from . import radialexpr as rx
from . import zonalalg as za
from . import zonalroutes as zr
from .gegenbauer import (
    chebyshev_T,
    gegenbauer,
    telescoping_coefficients,
    zonal_direct,
    zonal_direct_invariant,
    zonal_lift_invariant,
)
from .ratnum import binomial

LAMBDA_SET = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))

# terms a failing cell's witness lists, in canonical order
_WITNESS_TERMS = 24


@dataclass
class SuiteArgs:
    """Range overrides; None means the suite's default range in ``_SUITES``."""

    nmax: int | None = None
    kmax: int | None = None
    mmax: int | None = None
    samples: int | None = None
    seed: int = 0


@dataclass
class Cell:
    params: dict
    status: str
    lhs_digest: str
    rhs_digest: str
    witness: dict | None = None
    elapsed_ms: float = 0.0


@dataclass
class VerificationReport:
    suite: str
    seed: int
    cells: list[Cell]
    findings: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.cells)

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(("pass", "fail", "error"), 0)
        for c in self.cells:
            out[c.status] += 1
        return out

    def to_json_dict(self, timings: bool = False) -> dict:
        cells = []
        for c in self.cells:
            d = {
                "params": c.params,
                "status": c.status,
                "lhs_digest": c.lhs_digest,
                "rhs_digest": c.rhs_digest,
                "witness": c.witness,
            }
            if timings:
                d["elapsed_ms"] = round(c.elapsed_ms, 3)
            cells.append(d)
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "cells": cells,
            "findings": self.findings,
        }

    def to_json(self, timings: bool = False) -> str:
        return json.dumps(self.to_json_dict(timings=timings), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _digest_text(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _digest_float(x: float) -> str:
    return _digest_text(repr(float(x)))


def _expr_witness(diff: rx.RadialExpr, order: tuple | None = None) -> dict:
    """The first ``_WITNESS_TERMS`` terms of a nonzero difference, in
    canonical order; ``order`` is an ``_order()`` of a support holding
    diff's keys, when the caller shares one."""
    shown = [
        {"xexp": list(xe), "yexp": list(ye), "px": px, "py": py,
         "num": str(num), "den": str(den)}
        for xe, ye, px, py, num, den in islice(diff._rows(order), _WITNESS_TERMS)
    ]
    return {"kind": "expr_diff", "nonzero_terms": len(diff), "terms": shown,
            "truncated": len(diff) > _WITNESS_TERMS}


def _cell(params: dict, ok: bool, lhs_digest: str, rhs_digest: str,
          witness: dict | None) -> Cell:
    """A pass/fail cell; only a failing cell keeps its witness."""
    return Cell(params, "pass" if ok else "fail", lhs_digest, rhs_digest,
                None if ok else witness)


def _expr_cell(params: dict, lhs: rx.RadialExpr,
               rhs: rx.RadialExpr | Callable[[], rx.RadialExpr]) -> Cell:
    """Compare two expressions by canonical form and digest both sides.

    ``rhs`` is the right side, or a function that builds it.  A cell whose
    rhs does not exist yet digests lhs first and only then builds rhs, so
    lhs's order and text are freed before rhs's terms are allocated.  A
    cell given both sides ranks lhs's support before its digest, unless that
    digest is cached, to share the order if the cell fails.  A passing cell
    serialises once: an equal rhs takes over lhs's digest through
    ``equals``.  The canonical order depends only on the support, so a
    failing cell whose rhs keys are among lhs's hands lhs's order (ranked
    now if it was not kept) on to rhs's digest and to the witness rows of
    ``lhs - rhs``, whose keys are then among lhs's too (fewer where a
    coefficient cancels); otherwise each side ranks its own.  The order is
    a local of this call: route results sit in one-entry caches, and an
    order kept on them would outlive the cell.
    """
    if callable(rhs):
        lhs_digest, order = lhs.digest(), None
        rhs = rhs()
    else:
        order = lhs._order() if lhs._digest is None else None
        lhs_digest = lhs.digest(order)
    if lhs.equals(rhs):  # an equal rhs takes over lhs's digest
        return _cell(params, True, lhs_digest, rhs.digest(), None)
    shared = rhs._terms.keys() <= lhs._terms.keys()
    order = (order or lhs._order()) if shared else None
    return _cell(params, False, lhs_digest, rhs.digest(order),
                 _expr_witness(lhs - rhs, order))


def _invariant_cell(params: dict, lhs: za.ZonalInvariant, rhs: za.ZonalInvariant) -> Cell:
    ok = lhs == rhs
    witness = None
    if not ok:
        diff = lhs - rhs
        witness = {"kind": "invariant_diff",
                   "terms": [{"a": A, "rx": R, "ry": S,
                              "num": str(c.numerator), "den": str(c.denominator)}
                             for (A, R, S), c in diff.sorted_terms()[:_WITNESS_TERMS]],
                   "nonzero_terms": len(diff.terms)}
    return _cell(params, ok, lhs.digest(), rhs.digest(), witness)


def _mv_cell(params: dict, lhs: ca.Multivector, rhs: ca.Multivector) -> Cell:
    # a passing cell serialises lhs only: equal multivectors have equal bytes
    ok, lhs_digest = lhs == rhs, lhs.digest()
    return _cell(params, ok, lhs_digest, lhs_digest if ok else rhs.digest(),
                 {"kind": "multivector_mismatch"})


def _vec_cell(params: dict, lhs: tuple, rhs: tuple) -> Cell:
    return _cell(params, lhs == rhs, _digest_text(repr(lhs)), _digest_text(repr(rhs)),
                 {"kind": "coeff_vectors",
                  "lhs": [str(v) for v in lhs], "rhs": [str(v) for v in rhs]})


def _float_cell(params: dict, lhs: float, rhs: float, tol: float) -> Cell:
    err = abs(lhs - rhs)
    return _cell(params, err <= tol, _digest_float(lhs), _digest_float(rhs),
                 {"kind": "float_pair", "lhs": lhs, "rhs": rhs, "abs_error": err, "tol": tol})


# ---------------------------------------------------------------------------
# coefficient-vector utilities for the polynomial identity suite
# ---------------------------------------------------------------------------

def _coeffs(k: int, lam: Fraction) -> tuple[Fraction, ...]:
    """Coefficient vector of C_k^lam, with the k < 0 convention C_k = 0."""
    if k < 0:
        return ()
    if lam == 0:
        return chebyshev_T(k).coeffs
    return gegenbauer(k, lam).coeffs


def _add(*pairs: tuple[Fraction, tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    """sum c * v over the (c, v) pairs, with trailing zeros trimmed."""
    size = max((len(v) for _, v in pairs), default=0)
    out = [Fraction(0)] * size
    for c, v in pairs:
        for i, x in enumerate(v):
            out[i] += c * x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _shift(vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Multiply a coefficient vector by t."""
    return (Fraction(0),) + tuple(vec) if vec else ()


# ---------------------------------------------------------------------------
# suite: gegenbauer identities
# ---------------------------------------------------------------------------

def _cells_gegenbauer(args: SuiteArgs) -> list[dict]:
    kmax = args.kmax
    cells = []
    for lam in LAMBDA_SET:
        lam_s = str(lam)
        for ident in ("derivative", "times_t", "weighted_drop", "order_raising", "degree_mix"):
            cells.append({"identity": ident, "lambda": lam_s, "kmax": kmax})
    cells.append({"identity": "chebygegen", "kmax": kmax})
    for lam in LAMBDA_SET:
        for m in (1, 2, 3):
            cells.append({"identity": "telescoping", "lambda": str(lam), "m": m, "kmax": kmax})
    return cells


def _run_gegenbauer(params: dict) -> Cell:
    ident = params["identity"]
    kmax = params["kmax"]
    if ident == "chebygegen":
        for k in range(2, kmax + 1):
            lhs = _add((Fraction(2), _coeffs(k, Fraction(0))))
            rhs = _add((Fraction(1), _coeffs(k, Fraction(1))),
                       (Fraction(-1), _coeffs(k - 2, Fraction(1))))
            if lhs != rhs:
                return _vec_cell(params, lhs, rhs)
        return _vec_cell(params, (), ())
    lam = Fraction(params["lambda"])
    if ident == "telescoping":
        m = params["m"]
        for k in range(0, max(0, kmax - 2 * m) + 1):
            alphas = telescoping_coefficients(m, lam, k)
            lhs = _coeffs(k + 2 * m, lam)
            rhs = _add(*[(alphas[j], _coeffs(k + 2 * (m - j), lam + m))
                         for j in range(m + 1)])
            closed = zr.alpha_top(m, lam, k)
            if lhs != rhs or alphas[m] != closed:
                return _vec_cell({**params, "k": k,
                                  "alpha_top": str(alphas[m]), "alpha_closed": str(closed)},
                                 lhs, rhs)
        return _vec_cell(params, (), ())
    for k in range(1 if ident in ("derivative", "times_t", "degree_mix") else 0, kmax + 1):
        if ident == "derivative":
            lhs = gegenbauer(k, lam).derivative_coeffs()
            rhs = _add((Fraction(2) * lam, _coeffs(k - 1, lam + 1)))
        elif ident == "times_t":
            lhs = _shift(_coeffs(k - 1, lam + 1))
            rhs = _add((Fraction(k, 2 * (k + lam)), _coeffs(k, lam + 1)),
                       (Fraction(k + 2 * lam, 2 * (k + lam)), _coeffs(k - 2, lam + 1)))
        elif ident == "weighted_drop":
            ell = k
            if ell > kmax - 2:
                continue
            base = _coeffs(ell, lam + 1)
            one_minus_t2 = _add((Fraction(1), base), (Fraction(-1), _shift(_shift(base))))
            lhs = _add((Fraction(4) * lam * (ell + lam + 1), one_minus_t2))
            rhs = _add((Fraction((ell + 2 * lam) * (ell + 2 * lam + 1)), _coeffs(ell, lam)),
                       (Fraction(-(ell + 1) * (ell + 2)), _coeffs(ell + 2, lam)))
        elif ident == "order_raising":
            lhs = _add((Fraction(lam + k, lam), _coeffs(k, lam)))
            rhs = _add((Fraction(1), _coeffs(k, lam + 1)),
                       (Fraction(-1), _coeffs(k - 2, lam + 1)))
        elif ident == "degree_mix":
            lhs = _add((Fraction(2) * lam, _shift(_coeffs(k - 1, lam + 1))),
                       (Fraction(-k), _coeffs(k, lam)))
            rhs = _add((Fraction(2) * lam, _coeffs(k - 2, lam + 1)))
        else:
            raise ValueError(f"unknown identity {ident!r}")
        if lhs != rhs:
            return _vec_cell({**params, "k": k}, lhs, rhs)
    return _vec_cell(params, (), ())


# ---------------------------------------------------------------------------
# suite: ladder / harmonicity
# ---------------------------------------------------------------------------

def _cells_ladder(args: SuiteArgs) -> list[dict]:
    return [{"n": n, "k": k} for n in range(2, args.nmax + 1) for k in range(args.kmax + 1)]


def _run_ladder(params: dict) -> Cell:
    n, k = params["n"], params["k"]
    lhs = zr.ladder_route(n, k)
    return _expr_cell(params, lhs, lambda: (
        zonal_direct_invariant(n, k).scale(zr.ladder_scale(n, k)).to_radialexpr()))


def _cells_harmonicity(args: SuiteArgs) -> list[dict]:
    return [{"n": n, "k": k} for n in range(1, args.nmax + 1) for k in range(args.kmax + 1)]


def _run_harmonicity(params: dict) -> Cell:
    n, k = params["n"], params["k"]
    z = zonal_direct(n, k)
    lap_x = z.laplacian("x")
    lap_y = z.laplacian("y")
    degree_x, degree_y = z.homogeneous_degree("x"), z.homogeneous_degree("y")
    if lap_x.is_zero() and lap_y.is_zero():
        witness = {"kind": "homogeneity", "degree_x": degree_x, "degree_y": degree_y}
    else:
        witness = _expr_witness(lap_x if not lap_x.is_zero() else lap_y)
    ok = lap_x.is_zero() and lap_y.is_zero() and degree_x == degree_y == k
    return _cell(params, ok, lap_x.digest(), lap_y.digest(), witness)


# ---------------------------------------------------------------------------
# suite: iterated Laplacians
# ---------------------------------------------------------------------------

def _cells_laplacian(args: SuiteArgs) -> list[dict]:
    mmax, kmax = args.mmax, args.kmax
    cells = []
    for parity in ("odd", "even"):
        for m in range(1, mmax + 1):
            for k in range(kmax + 1):
                engine = "invariant" if m >= 3 else "coordinate"
                cells.append({"check": "route", "parity": parity, "m": m, "k": k,
                              "engine": engine})
    for parity in ("odd", "even"):
        for m in (1, 2):
            if m > mmax:
                continue
            for k in range(0, min(kmax, 4) + 1):
                cells.append({"check": "fixed_y", "parity": parity, "m": m, "k": k})
    for parity in ("odd", "even"):
        for m in range(1, mmax + 1):
            for k in range(kmax + 1):
                cells.append({"check": "prefactor_consistency", "parity": parity,
                              "m": m, "k": k})
    return cells


def _run_laplacian(params: dict) -> Cell:
    parity, m, k = params["parity"], params["m"], params["k"]
    target_n = 2 * m + 2 if parity == "odd" else 2 * m + 1
    # the two-variable prefactor
    pref = zr.beta_tilde(m, k) if parity == "odd" else zr.beta_hat(m, k)
    if params["check"] == "route":
        if params["engine"] == "invariant":
            lhs = zr.laplacian_route_invariant(parity, m, k)
            rhs = zonal_direct_invariant(target_n, k).scale(pref)
            return _invariant_cell(params, lhs, rhs)
        lhs = zr.laplacian_route(parity, m, k)
        return _expr_cell(params, lhs, lambda: (
            zonal_direct_invariant(target_n, k).scale(pref).to_radialexpr()))
    if params["check"] == "fixed_y":
        out = zr.laplacian_route_fixed_y(parity, m, k)

        def rhs() -> rx.RadialExpr:
            z = zonal_direct_invariant(target_n, k) * za.monomial(target_n + 1, 0, 0, 2 * m)
            return z.scale(zr.fixed_y_prefactor(parity, m, k)).to_radialexpr()
        return _expr_cell(params, out, rhs)
    if params["check"] == "prefactor_consistency":
        # single-sided prefactor times the |y|-side eigenvalue = two-variable prefactor
        lhs = zr.fixed_y_prefactor(parity, m, k) * zr.lap_c(target_n + 1, m, m, k)
        return _vec_cell(params, (lhs,), (pref,))
    raise ValueError(f"unknown check {params['check']!r}")


def _laplacian_findings(args: SuiteArgs) -> list[dict]:
    """Composed-vs-printed closed forms, reported, never silently passed."""
    mmax, kmax = args.mmax, args.kmax
    findings: list[dict] = []
    for m in range(1, mmax + 1):
        for k in range(kmax + 1):
            composed = zr.beta_tilde(m, k)
            printed = zr.beta_tilde_printed(m, k)
            if composed != printed:
                findings.append({
                    "kind": "printed_closed_form_mismatch",
                    "coefficient": "betaTilde", "m": m, "k": k,
                    "composed": str(composed), "printed": str(printed),
                    "ratio_composed_over_printed": str(composed / printed),
                })
    for lam in (Fraction(1, 2), Fraction(1)):
        for m in range(1, mmax + 1):
            for k in range(min(kmax, 4) + 1):
                composed = zr.beta(m, lam, k)
                if m == 1:
                    findings.append({
                        "kind": "printed_closed_form_undefined",
                        "coefficient": "beta", "lambda": str(lam), "m": m, "k": k,
                        "composed": str(composed),
                        "note": "printed form carries Gamma(m-1)^2, divergent at m=1",
                    })
                    continue
                printed = zr.beta_printed(m, lam, k)
                if composed != printed:
                    findings.append({
                        "kind": "printed_closed_form_mismatch",
                        "coefficient": "beta", "lambda": str(lam), "m": m, "k": k,
                        "composed": str(composed), "printed": str(printed),
                        "ratio_composed_over_printed": str(composed / printed),
                    })
    for m in range(1, mmax + 1):
        for k in range(kmax + 1):
            if zr.beta_hat(m, k) != zr.beta_hat_composed(m, k):
                findings.append({
                    "kind": "printed_closed_form_mismatch",
                    "coefficient": "betaHat", "m": m, "k": k,
                    "composed": str(zr.beta_hat_composed(m, k)),
                    "printed": str(zr.beta_hat(m, k)),
                })
    return findings


# ---------------------------------------------------------------------------
# suite: clifford route
# ---------------------------------------------------------------------------

def _cells_clifford(args: SuiteArgs) -> list[dict]:
    kmax = args.kmax
    cells = [{"check": "plane_identity", "k": k} for k in range(1, kmax + 1)]
    cells += [{"check": "route", "m": m, "k": k}
              for m in range(1, min(args.mmax, 2) + 1) for k in range(kmax + 1)]
    cells += [{"check": "slice_derivative_value", "k": k} for k in range(0, 9)]
    return cells


def _run_clifford(params: dict) -> Cell:
    if params["check"] in ("plane_identity", "route"):  # the plane identity is m = 0
        m, k = params.get("m", 0), params["k"]
        return _expr_cell(params, zr.clifford_route(m, k), lambda: (
            zonal_direct_invariant(2 * m + 1, k).scale(zr.beta_hat(m, k) / 2).to_radialexpr()))
    if params["check"] == "slice_derivative_value":
        # Lap_4 (x^(k+2))_0 = -2 (k+2)/(k+1) Z_k(x, 1) with the unit pole
        k = params["k"]
        one = (1, 0, 0, 0)
        lhs = za.xyc_power_real_invariant(k + 2, 4).to_radialexpr(y=one).laplacian("x")
        return _expr_cell(params, lhs, lambda: (
            zonal_direct_invariant(3, k).to_radialexpr(y=one).scale(Fraction(-2 * (k + 2), k + 1))))
    raise ValueError(f"unknown check {params['check']!r}")


# ---------------------------------------------------------------------------
# suites: kelvin route and the bridge identity
# ---------------------------------------------------------------------------

def _kelvin_cases(args: SuiteArgs) -> list[tuple[int, int]]:
    return [(n, k) for n in (3, 5, 7) if n <= args.nmax for k in range(1, args.kmax + 1)]


def _cells_kelvin(args: SuiteArgs) -> list[dict]:
    cells = [{"check": "plane_reference", "n": 1, "k": k} for k in range(1, 11)]
    for n, k in _kelvin_cases(args):
        cells.append({"check": "reference_constant", "n": n, "k": k})
        cells.append({"check": "observed_constant", "n": n, "k": k})
    return cells


def _run_kelvin(params: dict) -> Cell:
    n, k = params["n"], params["k"]
    result = zr.kelvin_route(n, k)
    direct = zonal_direct(n, k)
    measured = zr.proportionality_ratio(result, direct)
    if params["check"] == "observed_constant":
        name, constant = "observed", zr.kelvin_constant_observed(n, k)
    else:  # plane_reference, reference_constant
        name, constant = "reference", zr.kelvin_constant_reference(n, k)
    direct = direct.scale(constant)  # the unscaled kernel is freed before the cell digests
    return _expr_cell({**params, name: str(constant), "measured": str(measured)},
                      result, direct)


def _kelvin_findings(args: SuiteArgs) -> list[dict]:
    findings = []
    for n, k in _kelvin_cases(args):
        ref = zr.kelvin_constant_reference(n, k)
        obs = zr.kelvin_constant_observed(n, k)
        if ref != obs:
            findings.append({
                "kind": "stated_constant_mismatch",
                "identity": "kelvin_route", "n": n, "k": k,
                "reference": str(ref), "observed": str(obs),
                "ratio_observed_over_reference": str(obs / ref),
            })
    return findings


def _eta_cases(args: SuiteArgs) -> list[tuple[int, int]]:
    return [(m, k) for m in range(0, min(args.mmax, 2) + 1) for k in range(1, args.kmax + 1)]


def _cells_eta(args: SuiteArgs) -> list[dict]:
    cells = []
    for m, k in _eta_cases(args):
        cells.append({"check": "reference_constant", "m": m, "k": k})
        cells.append({"check": "observed_constant", "m": m, "k": k})
    cells += [{"check": "unit_at_m0", "k": k} for k in range(1, args.kmax + 1)]
    return cells


def _run_eta(params: dict) -> Cell:
    if params["check"] == "unit_at_m0":
        k = params["k"]
        val = zr.eta_reference(0, k)
        return _vec_cell(params, (val,), (Fraction(1),))
    m, k = params["m"], params["k"]
    res = zr.eta_relation(m, k)
    reference, observed = zr.eta_reference(m, k), zr.eta_observed(m, k)
    const = reference if params["check"] == "reference_constant" else observed
    return _expr_cell({**params, "measured": str(res.measured),
                       "reference": str(reference), "observed": str(observed)},
                      res.lhs, res.rhs_raw.scale(const))


def _eta_findings(args: SuiteArgs) -> list[dict]:
    findings = []
    for m, k in _eta_cases(args):
        ref = zr.eta_reference(m, k)
        obs = zr.eta_observed(m, k)
        if ref != obs:
            findings.append({
                "kind": "stated_constant_mismatch",
                "identity": "eta_relation", "m": m, "k": k,
                "reference": str(ref), "observed": str(obs),
                "ratio_reference_over_observed": str(ref / obs),
            })
    return findings


# ---------------------------------------------------------------------------
# suite: appendix A (direct double-Laplacian bookkeeping)
# ---------------------------------------------------------------------------

def _lift(k: int, lam: Fraction, N: int, deg_x: int, deg_y: int) -> za.ZonalInvariant:
    """C_k^lam(w) |x|^deg_x |y|^deg_y over R^N; zero for k < 0 (the C_k = 0 convention)."""
    if k < 0:
        return za.ZonalInvariant(N)
    return zonal_lift_invariant(gegenbauer(k, lam), N, deg_x, deg_y)


def _cells_appendix_a(args: SuiteArgs) -> list[dict]:
    cells = [{"check": "n6_prefactor", "k": k} for k in range(2, args.kmax + 1)]
    grid = [(4, "1/2", 2, 2), (4, "1", 3, 3), (5, "1/2", 2, 4), (5, "3/2", 3, 3),
            (6, "1", 4, 4), (6, "2", 3, 5), (7, "1", 2, 2), (7, "5/2", 4, 4)]
    cells += [{"check": "single_laplacian", "N": N, "lambda": lam, "k": k, "ell": ell}
              for (N, lam, k, ell) in grid]
    cells += [{"check": "double_laplacian", "N": N, "lambda": lam, "k": k, "ell": ell}
              for (N, lam, k, ell) in grid]
    cells += [{"check": "harmonic_iff", "N": N, "k": k}
              for N in (3, 4, 5, 6) for k in (2, 3, 4)]
    return cells


def _run_appendix_a(params: dict) -> Cell:
    if params["check"] == "n6_prefactor":
        k = params["k"]
        lhs = _lift(k, Fraction(1), 6, k, k).to_radialexpr().laplacian("x").laplacian("y")
        return _expr_cell(params, lhs, lambda: (
            _lift(k - 2, Fraction(2), 6, k - 2, k - 2).scale(-16 * (1 + k)).to_radialexpr()))
    if params["check"] == "harmonic_iff":
        N, k = params["N"], params["k"]
        matching = Fraction(N - 2, 2)
        z = _lift(k, matching, N, k, 0).to_radialexpr()
        off = _lift(k, matching + 1, N, k, 0).to_radialexpr()
        ok = z.laplacian("x").is_zero() and not off.laplacian("x").is_zero()
        return _cell(params, ok, z.digest(), off.digest(), {"kind": "harmonicity_criterion"})
    N = params["N"]
    lam = Fraction(params["lambda"])
    k, ell = params["k"], params["ell"]
    two = 2 * lam * (2 * lam + 2 - N)
    t1 = Fraction((ell - k) * (N + k + ell - 2))
    if params["check"] == "single_laplacian":
        lhs = _lift(k, lam, N, ell, 0).to_radialexpr().laplacian("x")
        return _expr_cell(params, lhs, lambda: (
            _lift(k - 2, lam + 1, N, ell - 2, 0).scale(two)
            + _lift(k, lam, N, ell - 2, 0).scale(t1)).to_radialexpr())
    if params["check"] == "double_laplacian":
        lhs = _lift(k, lam, N, ell, ell).to_radialexpr().laplacian("x").laplacian("y")

        def rhs() -> rx.RadialExpr:
            out = za.ZonalInvariant(N)
            pieces = [
                (t1 * two, (k - 2, lam + 1)),
                (t1 * t1, (k, lam)),
                (two * (2 * lam + 2) * (2 * lam + 4 - N), (k - 4, lam + 2)),
                (two * (ell - k + 2) * (N + k + ell - 4), (k - 2, lam + 1)),
            ]
            for c, (kk, mu) in pieces:
                out = out + _lift(kk, mu, N, ell - 2, ell - 2).scale(c)
            return out.to_radialexpr()
        return _expr_cell(params, lhs, rhs)
    raise ValueError(f"unknown check {params['check']!r}")


# ---------------------------------------------------------------------------
# suite: appendix B (blade-level and coefficient identities)
# ---------------------------------------------------------------------------

def _cells_appendix_b(args: SuiteArgs) -> list[dict]:
    kmax = args.kmax
    cells = []
    for n in (1, 2, 3):
        for k in range(0, kmax + 1):
            cells.append({"check": "pair_reconstruction", "n": n, "k": k})
            cells.append({"check": "conjugate_real_parts", "n": n, "k": k})
    cells += [{"check": "spherical_derivative", "k": k} for k in range(0, 11)]
    cells += [{"check": "real_from_derivatives", "k": k} for k in range(0, 11)]
    cells += [{"check": "product_decomposition", "k": k} for k in range(1, kmax + 1)]
    cells += [{"check": "hypergeometric_sum", "k": k} for k in range(0, 21)]
    return cells


def _run_appendix_b(params: dict) -> Cell:
    check = params["check"]
    if check == "hypergeometric_sum":
        k = params["k"]
        for r in range(k // 2 + 1):
            lhs = sum(binomial(k + 1, 2 * (r + ell) + 1) * binomial(r + ell, ell)
                      for ell in range(k // 2 - r + 1))
            rhs = Fraction(2) ** (k - 2 * r) * binomial(k - r, r)
            if lhs != rhs:
                return _vec_cell({**params, "r": r}, (lhs,), (rhs,))
        return _vec_cell(params, (), ())
    if check in ("pair_reconstruction", "conjugate_real_parts"):
        n, k = params["n"], params["k"]
        nvars = n + 1
        xy = ca.xyc_multivector(nvars)
        p = xy.power(k)
        if check == "conjugate_real_parts":
            lhs = p.scalar_part() + xy.conjugate().power(k).scalar_part()
            if isinstance(lhs, Fraction):
                lhs = rx.constant(lhs, nvars, nvars)
            return _expr_cell(params, lhs, lambda: ca.xyc_power_real(k, nvars).scale(2))
        if k == 0:
            got = p.scalar_part()
            ok = (got == Fraction(1)) and p.imaginary_part().is_zero()
            return _cell(params, ok, _digest_text(str(got)), _digest_text("1"),
                         {"kind": "multivector_mismatch"})
        real = ca.xyc_power_real(k, nvars)
        sph = ca.xyc_spherical_derivative(k, nvars)
        return _mv_cell(params, p, ca.scalar_mv(n, real) + xy.imaginary_part().scale(sph))
    nvars = 4
    k = params["k"]
    if check == "spherical_derivative":
        lhs = ca.xyc_spherical_derivative(k + 1, nvars)
        return _expr_cell(params, lhs, lambda: (
            zonal_lift_invariant(gegenbauer(k, Fraction(1)), nvars, k, k).to_radialexpr()))
    if check == "real_from_derivatives":
        lhs = ca.xyc_power_real(k, nvars)
        return _expr_cell(params, lhs, lambda: (
            ca.xyc_spherical_derivative(k + 1, nvars)
            - rx.inner_xy(nvars) * (ca.xyc_spherical_derivative(k, nvars)
                                    if k else rx.RadialExpr.zero(nvars, nvars))))
    if check == "product_decomposition":
        # (x y^c)^(k+1) = x y^c Z_k/(k+1) - Q_x Q_y Z_(k-1)/k at blade level
        xy = ca.xyc_multivector(nvars)
        lhs = xy.power(k + 1)
        zk = zonal_direct(3, k).scale(Fraction(1, k + 1))
        qzk1 = zonal_direct_invariant(3, k - 1) * za.monomial(nvars, 0, 2, 2)
        rhs = xy.scale(zk) - ca.scalar_mv(3, qzk1.scale(Fraction(1, k)).to_radialexpr())
        return _mv_cell(params, lhs, rhs)
    raise ValueError(f"unknown check {check!r}")


# ---------------------------------------------------------------------------
# suite: monogenicity
# ---------------------------------------------------------------------------

def _cells_monogenic(args: SuiteArgs) -> list[dict]:
    return [{"n": 3, "k": k} for k in range(args.kmax + 1)]


def _run_monogenic(params: dict) -> Cell:
    rep = ca.monogenicity_check(params["k"], params["n"])
    d, dbar = rep.d_annihilates, rep.dbar_annihilates
    return _cell({**params, "lap_power": rep.lap_power,
                  "D_annihilates": d, "Dbar_annihilates": dbar},
                 dbar, _digest_text(repr((d, dbar))), _digest_text("Dbar annihilates"),
                 {"kind": "operator_survives", "D": d, "Dbar": dbar})


# ---------------------------------------------------------------------------
# suites: poisson / reproducing (numeric)
# ---------------------------------------------------------------------------

def _cells_poisson(args: SuiteArgs) -> list[dict]:
    cells = []
    for n in range(2, args.nmax + 1):
        for i in range(5):
            cells.append({"check": "series", "n": n, "point": i, "seed": args.seed,
                          "terms": 200, "tol": 1e-10})
        cells.append({"check": "operator", "n": n, "points": 100, "seed": args.seed,
                      "tol": 1e-12})
    return cells


def _run_poisson(params: dict) -> Cell:
    import numpy as np

    n = params["n"]
    dim = n + 1
    if params["check"] == "series":
        rng = np.random.default_rng(params["seed"] * 1009 + 17 * params["point"] + n)
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        x *= 0.9 / np.linalg.norm(x)
        y *= (0.1 + 0.45 * rng.random()) / np.linalg.norm(y)  # |x||y| <= 0.5
        lhs = zr.poisson_series(x, y, params["terms"])
        rhs = zr.poisson_closed(x, y)
        return _float_cell(params, lhs, rhs, params["tol"])
    rng = np.random.default_rng(params["seed"] * 7919 + n)
    lam = (dim - 2) / 2.0
    worst = 0.0
    worst_pt = (0.0, 0.0)
    for _ in range(params["points"]):
        r = 0.05 + 0.9 * rng.random()
        w = -1.0 + 2.0 * rng.random()
        lhs, rhs = zr.poisson_operator_check(r, w, lam)
        err = abs(lhs - rhs)
        if err > worst:
            worst, worst_pt = err, (r, w)
    tol = params["tol"]
    return _cell(params, worst <= tol, _digest_float(worst), _digest_float(tol),
                 {"kind": "float_pair", "worst_error": worst, "at": list(worst_pt), "tol": tol})


_RATIONAL_UNITS = {
    # a small exactly-unit vector per dimension, used as the kernel pole
    3: (Fraction(3, 5), Fraction(4, 5), 0),
    4: (Fraction(3, 5), 0, Fraction(4, 5), 0),
    5: (Fraction(12, 13), Fraction(3, 13), 0, Fraction(4, 13), 0),
}


def _cells_reproducing(args: SuiteArgs) -> list[dict]:
    if args.nmax + 1 > max(_RATIONAL_UNITS):
        raise ValueError(f"reproducing suite: nmax={args.nmax} is out of range; "
                         f"rational unit poles exist for n <= {max(_RATIONAL_UNITS) - 1}")
    if args.samples < 2:
        raise ValueError(f"reproducing suite: samples={args.samples} is out of range; "
                         "the Monte-Carlo standard error needs samples >= 2")
    return [{"n": n, "k": k, "samples": args.samples, "seed": args.seed + 100 * n + k,
             "rel_tol": 0.01}
            for n in range(2, args.nmax + 1) for k in range(args.kmax + 1)]


def _run_reproducing(params: dict) -> Cell:
    import numpy as np

    n, k = params["n"], params["k"]
    dim = n + 1
    pole = _RATIONAL_UNITS[dim]
    test_poly = zonal_direct_invariant(n, k).to_radialexpr(y=pole)
    if not test_poly.laplacian("x").is_zero():
        raise AssertionError("test polynomial must be harmonic")
    y = np.array([float(Fraction(v)) for v in pole])
    res = zr.reproducing_mc(n, k, test_poly, y, params["samples"], params["seed"])
    return _cell({**params, "estimate": res.estimate, "target": res.target,
                  "stderr": res.stderr, "three_sigma": res.three_sigma,
                  "rel_error": res.rel_error},
                 res.rel_error <= params["rel_tol"],
                 _digest_float(res.estimate), _digest_float(res.target),
                 {"kind": "float_pair", "lhs": res.estimate, "rhs": res.target,
                  "rel_error": res.rel_error, "three_sigma": res.three_sigma})


# ---------------------------------------------------------------------------
# the suite table and the runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Suite:
    """One suite: its default ranges, cell builder, cell runner, findings and
    affinity.

    ``affinity`` maps a cell's params to ``(task key, rank)``: the cells of
    one key run as one task, by rank, ties in plan order.  Without it each
    cell is a task of its own.
    """

    defaults: dict[str, int]
    cells: Callable[[SuiteArgs], list[dict]]
    run: Callable[[dict], Cell]
    findings: Callable[[SuiteArgs], list[dict]] | None = None
    affinity: Callable[[dict], tuple[Hashable, int]] | None = None


_SUITES: dict[str, _Suite] = {
    "gegenbauer": _Suite({"kmax": 20}, _cells_gegenbauer, _run_gegenbauer),
    # one chain per n: each cell takes one step of the cached ladder form
    "ladder": _Suite({"nmax": 6, "kmax": 8}, _cells_ladder, _run_ladder,
                     affinity=lambda p: (p["n"], p["k"])),
    # one task per (parity, m), which fixes the dimension of the orbit tables; by k,
    # so the route and fixed_y cells of one (parity, m, k) share the cached Lap_x of
    # their seed, each cell applying the rest of its own Laplacians
    "laplacian": _Suite({"mmax": 3, "kmax": 6}, _cells_laplacian, _run_laplacian,
                        _laplacian_findings,
                        affinity=lambda p: ((p["parity"], p["m"]), p["k"])),
    "clifford": _Suite({"mmax": 2, "kmax": 6}, _cells_clifford, _run_clifford),
    # a case's reference and observed cells share the cached route
    "kelvin": _Suite({"nmax": 7, "kmax": 6}, _cells_kelvin, _run_kelvin, _kelvin_findings,
                     affinity=lambda p: ((p["n"], p["k"]), 0)),
    "eta": _Suite({"mmax": 2, "kmax": 6}, _cells_eta, _run_eta, _eta_findings,
                  affinity=lambda p: ((p.get("m"), p["k"]), 0)),
    "poisson": _Suite({"nmax": 4}, _cells_poisson, _run_poisson),
    "appendixA": _Suite({"kmax": 8}, _cells_appendix_a, _run_appendix_a),
    "appendixB": _Suite({"kmax": 6}, _cells_appendix_b, _run_appendix_b),
    "harmonicity": _Suite({"nmax": 6, "kmax": 8}, _cells_harmonicity, _run_harmonicity),
    "monogenic": _Suite({"kmax": 8}, _cells_monogenic, _run_monogenic),
    "reproducing": _Suite({"nmax": 4, "kmax": 4, "samples": 1_000_000},
                          _cells_reproducing, _run_reproducing),
}

SUITE_NAMES = tuple(_SUITES)


def _error_cell(params: dict, exc: BaseException) -> Cell:
    return Cell(params, "error", "", "",
                {"kind": "exception", "type": type(exc).__name__, "message": str(exc)})


def _execute(item: tuple[str, dict]) -> Cell:
    suite, params = item
    t0 = time.perf_counter()
    try:
        cell = _SUITES[suite].run(params)
    except Exception as exc:  # reported as an error cell; the other cells still run
        cell = _error_cell(params, exc)
    cell.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return cell


def _execute_task(task: list[tuple[str, dict]]) -> list[Cell]:
    """One task's cells, run in order in this process."""
    return [_execute(item) for item in task]


def _tasks(items: list[tuple[str, dict]]) -> list[list[int]]:
    """The plan's items grouped by their suites' affinities, as lists of plan
    indices in run order; the tasks are in the plan order of their first items."""
    tasks: dict[tuple, list[tuple]] = {}
    for i, (name, params) in enumerate(items):
        affinity = _SUITES[name].affinity
        key, rank = affinity(params) if affinity else (i, 0)
        tasks.setdefault((name, key), []).append((rank, i))
    return [[i for _, i in sorted(task)] for task in tasks.values()]


def _filled(name: str, args: SuiteArgs) -> SuiteArgs:
    """``args`` with each range it leaves as None set to suite ``name``'s default."""
    return replace(args, **{key: value for key, value in _SUITES[name].defaults.items()
                            if getattr(args, key) is None})


def plan_suite(suite: str, args: SuiteArgs | None = None) -> list[tuple[str, dict]]:
    """The ``(suite name, cell params)`` items a run of one suite (or 'all') evaluates.

    Raises ValueError for an unknown suite or an out-of-range argument; no
    cell runs here, so a caller can reject bad ranges before it acts on them.
    """
    args = args or SuiteArgs()
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    for key in ("nmax", "kmax", "mmax", "seed"):
        value = getattr(args, key)
        if value is not None and value < 0:
            raise ValueError(f"{key}={value} is out of range; ranges and seeds must be >= 0")
    items: list[tuple[str, dict]] = []
    for name in names:
        filled = _filled(name, args)
        cells = _SUITES[name].cells(filled)
        if not cells:
            ranges = ", ".join(f"{key}={getattr(filled, key)}" for key in ("nmax", "kmax", "mmax")
                               if key in _SUITES[name].defaults)
            raise ValueError(f"suite {name!r} has no cells for {ranges}")
        items.extend((name, params) for params in cells)
    return items


def check_threads(threads: int) -> None:
    """Raise ValueError unless ``threads``, a worker count, is at least 1."""
    if threads < 1:
        raise ValueError(f"threads={threads} is out of range; the worker count must be >= 1")


def run_suite(suite: str, args: SuiteArgs | None = None, threads: int = 1) -> VerificationReport:
    """Run one named suite (or 'all') on up to ``threads`` workers and return
    the merged report; raises ValueError as :func:`plan_suite` and
    :func:`check_threads` do."""
    check_threads(threads)
    args = args or SuiteArgs()
    items = plan_suite(suite, args)
    tasks = _tasks(items)
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # loaded here, so that a run in this process never imports multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_task, [items[i] for i in task]) for task in tasks]
        done = []
        for task, future in zip(tasks, futures):
            try:
                done.append(future.result())
            except BrokenProcessPool as exc:  # a worker died: no result for this task
                done.append([_error_cell(items[i][1], exc) for i in task])
    else:
        done = [_execute_task([items[i] for i in task]) for task in tasks]
    cells = [None] * len(items)
    for task, task_cells in zip(tasks, done):
        for i, cell in zip(task, task_cells):
            cells[i] = cell
    if suite == "all":
        for (name, _), cell in zip(items, cells):
            cell.params = {"suite": name, **cell.params}
    findings: list[dict] = []
    for name in dict.fromkeys(name for name, _ in items):
        if _SUITES[name].findings is not None:
            findings.extend(_SUITES[name].findings(_filled(name, args)))
    return VerificationReport(suite=suite, seed=args.seed, cells=cells, findings=findings)
