#!/usr/bin/env python3
"""Run the full verification battery and write one JSON report per suite.

Thin driver over zonalkit.verify for batch runs; the `zonalkit verify` CLI is
the interactive front end.  The kelvin and eta suites are expected to exit
red on their ``reference_constant`` cells, which check the paper's stated
constants (see the findings inside the reports).  Any other failing cell, in
those suites too, and any cell that raised (an ``error`` cell) fail the batch
with exit 1.  A bad parameter (a worker count below 1, an unknown suite,
``--suites`` with no name, an out-of-range seed or sample count) exits 2
before any suite runs and before the output directory is made.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from zonalkit.verify import SUITE_NAMES, SuiteArgs, check_threads, plan_suite, run_suite

# suites whose reference_constant cells fail by design
STATED_CONSTANT_SUITES = ("kelvin", "eta")


def unexpected_failures(suite: str, report) -> int:
    """Failing cells other than the stated-constant cells that fail by design."""
    return sum(c.status == "fail" and not (suite in STATED_CONSTANT_SUITES
                                           and c.params.get("check") == "reference_constant")
               for c in report.cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports", help="directory for JSON reports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--samples", type=int, default=None,
                        help="Monte-Carlo samples (default: the reproducing suite's own)")
    parser.add_argument("--suites", nargs="+", default=list(SUITE_NAMES))
    args = parser.parse_args()

    sargs = SuiteArgs(seed=args.seed, samples=args.samples)
    try:  # the whole request is checked before any suite runs or any report is written
        check_threads(args.threads)
        for suite in args.suites:
            plan_suite(suite, sargs)
    except ValueError as exc:  # a bad parameter: exit 2 with the message
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    overall_ok = True
    for suite in args.suites:
        t0 = time.perf_counter()
        report = run_suite(suite, sargs, threads=args.threads)
        elapsed = time.perf_counter() - t0
        path = out_dir / f"{suite}.json"
        path.write_text(report.to_json())
        counts = report.counts()
        status = "ok" if report.passed else "FAIL"
        print(f"{suite:12s} {status:4s} cells={len(report.cells):4d} "
              f"pass={counts['pass']:4d} fail={counts['fail']:3d} error={counts['error']:3d} "
              f"findings={len(report.findings):3d} {elapsed:7.1f}s -> {path}")
        unexpected = unexpected_failures(suite, report)
        if unexpected:
            print(f"{suite}: {unexpected} cell(s) fail that should pass", file=sys.stderr)
        if counts["error"] or unexpected:
            overall_ok = False
    return 0 if overall_ok else 1


if __name__ == "__main__":
    sys.exit(main())
