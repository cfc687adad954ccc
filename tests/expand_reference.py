"""The RadialExpr-arithmetic reference for expanding an invariant into coordinates.

``ZonalInvariant.to_radialexpr`` runs its Horner plan into one dict of
integer numerators.  This module keeps the same plan written with whole
:class:`~zonalkit.radialexpr.RadialExpr` operations instead: every Horner
level is a product with <x,y> (or <x,p> at a pole p, where Q_y and |y| are
1), every c Q_x^i Q_y^j is built as its own expression from Q powers
multiplied one factor at a time, and every partial sum goes through ``+``.
The expander must agree with it on terms, denominator and raised errors.
"""

from fractions import Fraction

from zonalkit import radialexpr as rx


def _floor(powers) -> int:
    low = min(powers)
    return low if low < 0 else low & 1


def _power(table: list, group: str, i: int) -> rx.RadialExpr:
    while len(table) <= i:
        n = table[0].nx
        table.append(table[-1] * rx.quadratic_form(group, n, n))
    return table[i]


def reference_to_radialexpr(inv, y=None) -> rx.RadialExpr:
    """``inv`` in coordinates, with y free or fixed at the pole ``y``."""
    n = inv.dim
    qx = [rx.constant(1, n, n)]
    qy = [rx.constant(1, n, n)]
    if y is None:
        a = rx.inner_xy(n)
    else:
        if len(y) != n:
            raise ValueError(f"point has {len(y)} coordinates, group needs {n}")
        pt = [Fraction(v) for v in y]
        assert sum(v * v for v in pt) == 1, "the reference fixes y at poles only"
        zeros = (0,) * n
        a = rx.from_terms(n, n, [(tuple(int(i == j) for j in range(n)), zeros, 0, 0, v)
                                 for i, v in enumerate(pt) if v])
    groups: dict = {}
    for key, c in inv.terms.items():
        groups.setdefault((key[1] & 1, key[2] & 1), []).append((key, c))
    polys = []
    for members in groups.values():
        r0 = _floor(R for (_, R, _), _ in members)
        s0 = _floor(S for (_, _, S), _ in members)
        by_a: dict = {}
        for (A, R, S), c in members:
            by_a.setdefault(A, []).append(((R - r0) // 2, (S - s0) // 2, c))
        out = rx.RadialExpr.zero(n, n)
        for A in range(max(by_a), -1, -1):
            if out:
                out = out * a
            for i, j, c in by_a.get(A, ()):
                if y is None:
                    out = out + _power(qx, "x", i).scale(c) * _power(qy, "y", j)
                else:
                    out = out + _power(qx, "x", i).scale(c)
        polys.append((r0, s0, out))
    parts = []
    for r0, s0, out in polys:
        if r0:
            out = out * rx.norm_power("x", r0, n, n)
        if s0 and y is None:
            out = out * rx.norm_power("y", s0, n, n)
        parts.append(out)
    if not parts:
        return rx.RadialExpr.zero(n, n)
    return sum(parts[1:], parts[0])
