"""Command-line front end: expand, eval, verify, coeff, table.

Exit codes: 0 success (all cells pass), 1 identity failure, 2 usage or
parameter-domain error, 3 I/O error, 4 a verify cell raised (an ``error``
cell in the report).  All behaviour is controlled by flags;
there are no configuration files or environment variables, so an invocation
is self-describing and reports are reproducible byte for byte for a fixed
seed (timings are only embedded on request).
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from math import comb, isfinite

import numpy as np

from . import radialexpr as rx
from . import zonalroutes as zr
from .gegenbauer import zonal_direct
from .verify import SUITE_NAMES, SuiteArgs, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ERROR = 4


class UsageError(Exception):
    pass


def _estimate_zonal_terms(nvars: int, deg: int) -> int:
    """Upper bound on the coordinate term count of a degree-(deg,deg) kernel."""
    total = 0
    for j in range(deg // 2 + 1):
        total += comb(deg - 2 * j + nvars - 1, nvars - 1) * comb(j + nvars - 1, nvars - 1) ** 2
    return total


# route name -> builder(n, k, m); each route checks the domain particular to it
_ROUTES = {
    "direct": lambda n, k, m: zonal_direct(n, k),
    "ladder": lambda n, k, m: zr.ladder_route(n, k),
    "laplacian_odd": lambda n, k, m: zr.laplacian_route("odd", m, k),
    "laplacian_even": lambda n, k, m: zr.laplacian_route("even", m, k),
    "clifford": lambda n, k, m: zr.clifford_route(m, k),
    "kelvin": lambda n, k, m: zr.kelvin_route(n, k),
}

# routes whose ambient R^(n+1) is fixed by m, as n = 2m + offset; they
# act on a kernel of degree k+2m
_FORCED_N_OFFSET = {"laplacian_odd": 2, "laplacian_even": 1, "clifford": 1}


def _route_expr(route: str, n: int | None, k: int, m: int, max_terms: int) -> rx.RadialExpr:
    """Build the expanded expression for one route cell, with a size guard."""
    if k < 0:
        raise UsageError(f"degree k must be nonnegative, got {k}")
    if m < 0:
        raise UsageError(f"Laplacian count m must be nonnegative, got {m}")
    deg = k
    offset = _FORCED_N_OFFSET.get(route)
    if offset is not None:
        if n is None:
            n = 2 * m + offset
        elif n != 2 * m + offset:
            raise UsageError(f"{route} route requires n = 2m+{offset}, got n={n}, m={m}")
        deg = k + 2 * m
    if n is None:
        raise UsageError("--n is required for this route")
    if n < 1:
        raise UsageError(f"--n must be >= 1 (ambient R^(n+1)), got {n}")
    estimate = _estimate_zonal_terms(n + 1, deg)
    if estimate > max_terms:
        raise UsageError(
            f"expansion would reach ~{estimate} terms (cap {max_terms}); "
            "reduce k or m, or raise --max-terms"
        )
    return _ROUTES[route](n, k, m)


def _parse_point(text: str, nvars: int, label: str) -> list[Fraction]:
    try:
        values = [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {label} point {text!r}: {exc}") from exc
    if len(values) != nvars:
        raise UsageError(f"{label} point needs {nvars} coordinates, got {len(values)}")
    return values


def _cmd_expand(args: argparse.Namespace) -> int:
    expr = _route_expr(args.route, args.n, args.k, args.m, args.max_terms)
    if args.format == "json":
        sys.stdout.write(expr.to_json() + "\n")
    else:
        print(expr)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    expr = _route_expr(args.route, args.n, args.k, args.m, args.max_terms)
    pt_x = _parse_point(args.x, expr.nx, "x")
    pt_y = _parse_point(args.y, expr.ny, "y")
    value = expr.eval_exact(pt_x, pt_y)
    a, b, c, d = value.as_tuple()
    print(f"exact: {a} + ({b})*sqrt({value.qx}) + ({c})*sqrt({value.qy})"
          f" + ({d})*sqrt({value.qx * value.qy})")
    print(f"float: {value.to_float()!r}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    sargs = SuiteArgs(nmax=args.nmax, kmax=args.kmax, mmax=args.mmax,
                      samples=args.samples, seed=args.seed)
    if args.json not in (None, "-"):
        try:  # fail before the run, not after it; append mode keeps an old report
            open(args.json, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    report = run_suite(args.suite, sargs, threads=args.threads)
    counts = report.counts()
    for cell in report.cells:
        if cell.status == "error":
            print(f"[ERROR] {cell.params} {cell.witness['type']}: {cell.witness['message']}")
        elif cell.status != "pass":
            print(f"[{cell.status.upper()}] {cell.params}")
    for finding in report.findings:
        print(f"[FINDING] {finding}")
    print(f"suite={report.suite} cells={len(report.cells)} "
          f"pass={counts['pass']} fail={counts['fail']} error={counts['error']} "
          f"findings={len(report.findings)} seed={report.seed}")
    if args.json is not None:
        payload = report.to_json(timings=args.timings)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                print(f"cannot write report: {exc}", file=sys.stderr)
                return EXIT_IO
    if counts["error"]:
        return EXIT_ERROR
    return EXIT_OK if report.passed else EXIT_FAIL


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--lambda must be a rational such as 1/2, got {text!r}") from exc


def _coeff_value(args: argparse.Namespace) -> tuple[Fraction, list[str]]:
    which = args.which
    notes: list[str] = []
    if which == "alpha":
        if args.m is None or args.k is None or args.lam is None:
            raise UsageError("alpha needs --m, --k and --lambda")
        return zr.alpha_top(args.m, _parse_lambda(args.lam), args.k), notes
    if which == "c":
        if None in (args.N, args.j, args.ell, args.k):
            raise UsageError("c needs --N, --j, --ell and --k")
        return zr.lap_c(args.N, args.j, args.ell, args.k), notes
    if which == "beta":
        if args.m is None or args.k is None or args.lam is None:
            raise UsageError("beta needs --m, --k and --lambda")
        value = zr.beta(args.m, _parse_lambda(args.lam), args.k)
        notes.append("computed as alpha * c^2 (the composition, not the printed closed form)")
        notes.append("index convention: k is the output degree (the input kernel has "
                     f"degree k+2m = {args.k + 2 * args.m})")
        return value, notes
    if which == "betaTilde":
        if args.m is None or args.k is None:
            raise UsageError("betaTilde needs --m and --k")
        value = zr.beta_tilde(args.m, args.k)
        printed = zr.beta_tilde_printed(args.m, args.k)
        if printed != value:
            notes.append(f"printed closed form gives {printed}; the composed value above "
                         "is the one the symbolic route verifies")
        return value, notes
    if which == "betaHat":
        if args.m is None or args.k is None:
            raise UsageError("betaHat needs --m and --k")
        return zr.beta_hat(args.m, args.k), notes
    if which == "eta":
        if args.m is None or args.k is None:
            raise UsageError("eta needs --m and --k")
        value = zr.eta_reference(args.m, args.k)
        observed = zr.eta_observed(args.m, args.k)
        if observed != value:
            notes.append(f"exact computation yields {observed} "
                         f"(stated/observed ratio {value / observed})")
        return value, notes
    raise UsageError(f"unknown coefficient {which!r}")


def _cmd_coeff(args: argparse.Namespace) -> int:
    try:
        value, notes = _coeff_value(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"{args.which} = {value} (~ {float(value):.12g})")
    for note in notes:
        print(f"note: {note}")
    return EXIT_OK


def _check_table_args(args: argparse.Namespace) -> None:
    """Reject a table request outside its domain, before any output is opened."""
    if args.kind == "zonal_coeffs":
        if args.n is None:
            raise UsageError("zonal_coeffs needs --n")
        if args.n < 1:
            raise UsageError(f"--n must be >= 1 (ambient R^(n+1)), got {args.n}")
        if args.kmax < 0:
            raise UsageError(f"zonal_coeffs needs --kmax >= 0, got {args.kmax}")
    elif args.kind == "poisson_convergence":
        if args.r is None or args.w is None:
            raise UsageError("poisson_convergence needs --r and --w")
        if args.n is None:
            raise UsageError("poisson_convergence needs --n (ambient R^(n+1))")
        if args.n < 1:
            raise UsageError(f"--n must be >= 1 (ambient R^(n+1)), got {args.n}")
        # the series converges for r = |x||y| < 1, and w = <x,y>/r is a cosine
        if not (isfinite(args.r) and 0.0 <= args.r < 1.0):
            raise UsageError(f"--r must be a finite number with 0 <= r < 1, got {args.r}")
        if not (isfinite(args.w) and -1.0 <= args.w <= 1.0):
            raise UsageError(f"--w must be a finite number with -1 <= w <= 1, got {args.w}")
        if args.max_terms < 1:
            raise UsageError(f"--max-terms must be >= 1, got {args.max_terms}")
    else:
        raise UsageError(f"unknown table kind {args.kind!r}")


def _cmd_table(args: argparse.Namespace) -> int:
    _check_table_args(args)
    try:
        fh = open(args.out, "w", newline="", encoding="utf-8") if args.out else None
    except OSError as exc:
        print(f"cannot open output: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        writer = csv.writer(fh if fh else sys.stdout)
        if args.kind == "zonal_coeffs":
            writer.writerow(["n", "k", "xexp", "yexp", "px", "py", "coeff"])
            for k in range(args.kmax + 1):
                z = zonal_direct(args.n, k)
                for xe, ye, px, py, coef in z.sorted_terms():
                    writer.writerow([args.n, k,
                                     " ".join(map(str, xe)), " ".join(map(str, ye)),
                                     px, py, str(coef)])
        else:
            writer.writerow(["terms", "partial_sum", "closed_form", "abs_error"])
            dim = args.n + 1
            x = np.zeros(dim)
            y = np.zeros(dim)
            # place the pair so that |x||y| = r and <x,y> = r w
            x[0] = 1.0
            y[0] = args.r * args.w
            y[1] = args.r * (1.0 - args.w ** 2) ** 0.5
            closed = zr.poisson_closed(x, y)
            for terms in range(1, args.max_terms + 1):
                partial = zr.poisson_series(x, y, terms)
                writer.writerow([terms, repr(partial), repr(closed),
                                 repr(abs(partial - closed))])
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if fh:
            fh.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonalkit",
        description="Exact zonal harmonic kernels by independent routes, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_route_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--route", required=True, choices=tuple(_ROUTES))
        p.add_argument("--n", type=int, default=None, help="ambient space R^(n+1)")
        p.add_argument("--k", type=int, required=True, help="kernel degree")
        p.add_argument("--m", type=int, default=0, help="Laplacian count where applicable")
        p.add_argument("--max-terms", type=int, default=2_000_000,
                       help="refuse expansions estimated beyond this many terms")

    p_expand = sub.add_parser("expand", help="print the canonical term list of a route output")
    add_route_flags(p_expand)
    p_expand.add_argument("--format", choices=("text", "json"), default="text")
    p_expand.set_defaults(func=_cmd_expand)

    p_eval = sub.add_parser("eval", help="evaluate a route output at exact rational points")
    add_route_flags(p_eval)
    p_eval.add_argument("--x", required=True, help="comma-separated rational coordinates")
    p_eval.add_argument("--y", required=True, help="comma-separated rational coordinates")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--kmax", type=int, default=None)
    p_verify.add_argument("--mmax", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--threads", type=int, default=None,
                          help="worker processes (default: available parallelism)")
    p_verify.add_argument("--json", nargs="?", const="-", default=None,
                          help="write the JSON report to PATH ('-' or bare flag: stdout)")
    p_verify.add_argument("--timings", action="store_true",
                          help="embed per-cell timings in the JSON report")
    p_verify.set_defaults(func=_cmd_verify)

    p_coeff = sub.add_parser("coeff", help="print one connection coefficient exactly")
    p_coeff.add_argument("which", choices=("alpha", "c", "beta", "betaTilde", "betaHat", "eta"))
    p_coeff.add_argument("--m", type=int, default=None)
    p_coeff.add_argument("--k", type=int, default=None)
    p_coeff.add_argument("--lambda", dest="lam", default=None,
                         help="rational order, e.g. 1/2")
    p_coeff.add_argument("--N", type=int, default=None)
    p_coeff.add_argument("--j", type=int, default=None)
    p_coeff.add_argument("--ell", type=int, default=None)
    p_coeff.set_defaults(func=_cmd_coeff)

    p_table = sub.add_parser("table", help="emit CSV tables")
    p_table.add_argument("kind", choices=("zonal_coeffs", "poisson_convergence"))
    p_table.add_argument("--n", type=int, default=None)
    p_table.add_argument("--kmax", type=int, default=-1)
    p_table.add_argument("--r", type=float, default=None)
    p_table.add_argument("--w", type=float, default=None)
    p_table.add_argument("--max-terms", type=int, default=50)
    p_table.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "verify" and args.threads is None:
        import os
        args.threads = os.cpu_count() or 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, rx.RadialOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
