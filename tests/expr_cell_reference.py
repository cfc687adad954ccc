"""The per-side reference for a cell that compares two RadialExprs.

``verify._expr_cell`` digests the left side before it builds a right side
given as a function, and hands the left side's support order to the right
side's digest and to the witness rows when a failing cell's keys allow it.
This module keeps the comparison without any shared order or build order:
each side is serialised and hashed on its own, and the witness lists the
terms of a freshly built ``lhs - rhs`` sorted by ``(xexp, yexp, px, py)``
with each coefficient as a reduced Fraction.  The cell must equal it.
"""

import hashlib

from zonalkit.verify import Cell


def _digest(expr) -> str:
    return hashlib.sha256(expr.to_json().encode()).hexdigest()


def reference_witness(diff, cap: int = 24) -> dict:
    rows = sorted(diff.terms(), key=lambda t: t[:4])
    return {"kind": "expr_diff", "nonzero_terms": len(rows),
            "terms": [{"xexp": list(xe), "yexp": list(ye), "px": px, "py": py,
                       "num": str(c.numerator), "den": str(c.denominator)}
                      for xe, ye, px, py, c in rows[:cap]],
            "truncated": len(rows) > cap}


def reference_expr_cell(params: dict, lhs, rhs) -> Cell:
    ok = lhs == rhs
    return Cell(params, "pass" if ok else "fail", _digest(lhs), _digest(rhs),
                None if ok else reference_witness(lhs - rhs))
