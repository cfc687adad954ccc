"""Check verify reports and kernel expansions against the reference module.

A cell counts as failed when it is missing, when its suite raised or wrote
no report, or when any check on it disagrees with ``reference``:

* its verdict differs from ``reference.expected_status``;
* an exact cell that passes has ``lhs_digest != rhs_digest``, or one that
  fails has equal digests;
* a failing stated-constant cell does not carry the factor 4^m (m!)^2/(2m)!
  between its measured and stated constants (measured/reference for kelvin,
  reference/measured for eta);
* a Monte Carlo cell's ``target`` is not dim H_k, its ``estimate`` is not
  within 1% of dim H_k, or its sampling seed is not the one passed in.

Cells a report holds beyond the expected ones, and kernel expansions that
disagree with the recurrence, are problems of the run as a whole: they make
the run incorrect rather than failing a counted cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import reference


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        self.problems += other.problems


def _cell_problem(key: tuple, cell: dict, seed: int) -> str | None:
    """Why a reported cell disagrees with the reference, or None."""
    suite = key[0]
    params = cell["params"]
    want = reference.expected_status(key)
    if cell["status"] != want:
        return f"verdict {cell['status']}, expected {want}"
    if suite == "reproducing":  # the one float suite
        n, k = params["n"], params["k"]
        dim = reference.dim_harmonics(n, k)
        if abs(params["target"] - dim) > 1e-9 * dim:
            return f"target {params['target']} is not dim H_{k}(R^{n + 1}) = {dim}"
        if abs(params["estimate"] - dim) > 0.01 * dim:
            return f"estimate {params['estimate']} is not within 1% of {dim}"
        if params["seed"] != seed + 100 * n + k:
            return f"sampled with seed {params['seed']}, expected {seed + 100 * n + k}"
        return None
    same = cell["lhs_digest"] == cell["rhs_digest"]
    if same != (want == "pass"):
        return "digests " + ("agree on a failing cell" if same else "differ on a passing cell")
    if want == "fail":
        try:
            measured = Fraction(params["measured"])
            stated = Fraction(params["reference"])
            ratio = measured / stated if suite == "kelvin" else stated / measured
        except (KeyError, ValueError, ZeroDivisionError):
            return "stated-constant cell lacks a usable measured constant"
        m = (key[2] - 1) // 2 if suite == "kelvin" else key[2]
        if ratio != reference.constant_factor(m):
            return f"constant ratio {ratio}, expected {reference.constant_factor(m)}"
    return None


def check_report(suite: str, ranges: dict, report: dict | None, seed: int,
                 error: str | None = None) -> Outcome:
    """Check one suite's report; ``report`` is None when the suite raised."""
    expected = reference.expected_cells(suite, ranges)
    wanted = set(expected)
    out = Outcome(attempted=len(expected))
    if report is None:
        out.failures = [f"{suite}: cell {key}: no report ({error or 'not written'})"
                        for key in expected]
        return out
    cells = {}
    for cell in report.get("cells", []):
        key = reference.cell_key(suite, cell["params"])
        if key in cells or key not in wanted:
            out.problems.append(f"{suite}: unexpected or repeated cell {key}")
        cells[key] = cell
    for key in expected:
        cell = cells.get(key)
        why = "missing" if cell is None else _cell_problem(key, cell, seed)
        if why:
            out.failures.append(f"{suite}: cell {key}: {why}")
    return out


# Points with small-height rational coordinates keep exact evaluation fast.
def _points(n: int) -> tuple[list[Fraction], list[Fraction]]:
    x = [Fraction((-1) ** i * (i + 2), 3 + (i % 2)) for i in range(n + 1)]
    y = [Fraction(2 * i - 3, 2 + (i % 3)) for i in range(n + 1)]
    return x, y


def check_kernels(zonal_direct, kernels: list[tuple[int, int]]) -> list[str]:
    """Compare zonal_direct(n, k).eval_exact with the reference recurrence."""
    problems = []
    for n, k in kernels:
        x, y = _points(n)
        got = zonal_direct(n, k).eval_exact(x, y).as_tuple()
        want = (reference.zonal_value(n, k, x, y), 0, 0, 0)
        if tuple(got) != want:
            problems.append(f"zonal_direct({n}, {k}) at {x}, {y} gave {got[0]}, "
                            f"the recurrence gives {want[0]}")
    return problems
