"""The coordinate-detour reference for building an orbit form from an invariant.

``OrbitForm.from_invariant`` multiplies by <x,y>, Q_x and Q_y orbit by
orbit, by the product rule of monomial symmetric functions.  This module
keeps the same Horner plan with every such product run through the
coordinate engine instead: ``OrbitForm.apply`` multiplies one
representative per orbit by the coordinate expression of <x,y>, Q_x or Q_y
and folds the product back, re-sorting each output term into its orbit.
The builder must agree with it on every orbit numerator, the denominator
and raised errors.

It also keeps the first tables of ``OrbitForm.unfold``: ``reference_orbit``
counts a representative's pairs in a dict, ``reference_placements`` builds
the placements one choice at a time in the order the multiplicities are
given, and ``reference_table_unfold`` unfolds with those two.
"""

import math
from itertools import combinations
from operator import add

from zonalkit import radialexpr as rx
from zonalkit.orbitform import OrbitForm

_MASK = rx._EXP_MASK


def reference_from_invariant(inv) -> OrbitForm:
    """The orbit form of the polynomial invariant ``inv``, products in coordinates."""
    for A, R, S in inv.terms:
        if R < 0 or S < 0 or R % 2 or S % 2:
            raise ValueError(f"orbit form needs a polynomial; term {(A, R, S)}")
    n = inv.dim
    a = rx.inner_xy(n)
    qx = rx.quadratic_form("x", n, n)
    qy = rx.quadratic_form("y", n, n)
    powers = {(0, 0): OrbitForm(n, {rx._layout(n, n).zero_key: 1})}

    def power(i: int, j: int) -> OrbitForm:
        out = powers.get((i, j))
        if out is None:
            if j:
                out = power(i, j - 1).apply(lambda g: g * qy)
            else:
                out = power(i - 1, 0).apply(lambda g: g * qx)
            powers[(i, j)] = out
        return out

    parts = inv._horner(lambda: OrbitForm.zero(n), lambda f: f.apply(lambda g: g * a),
                        lambda f, i, j, c: f + power(i, j).scale(c))
    return parts[0][2] if parts else OrbitForm.zero(n)


def reference_orbit(r: int, dim: int) -> tuple[int, int, int, tuple[tuple[int, int, int], ...]]:
    """``(|Stab r|, x degree, y degree, pairs)`` of a representative, pairs counted in a dict."""
    lay = rx._layout(dim, dim)
    counts: dict[tuple[int, int], int] = {}
    for sx, sy in zip(lay.x_shifts, lay.y_shifts):
        ab = ((r >> sx) & _MASK, (r >> sy) & _MASK)
        counts[ab] = counts.get(ab, 0) + 1
    stab = math.prod(math.factorial(m) for m in counts.values())
    counts.pop((0, 0), None)
    return (stab, sum(a * m for (a, _), m in counts.items()),
            sum(b * m for (_, b), m in counts.items()),
            tuple((a, b, m) for (a, b), m in counts.items()))


def reference_placements(dim: int, mults: tuple[int, ...]
                         ) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
    """Every choice of disjoint position sets of sizes ``mults``, one choice at a time.

    The same ``(sets, idx)`` columns as ``orbitform._placements``, in the
    order of ``mults``.
    """
    placed = [((), (1 << dim) - 1)]
    for m in mults:
        nxt = []
        for masks, free in placed:
            positions = [1 << i for i in range(dim) if free >> i & 1]
            for chosen in combinations(positions, m):
                mask = sum(chosen)
                nxt.append((masks + (mask,), free ^ mask))
        placed = nxt
    columns = tuple(zip(*(masks for masks, _ in placed)))
    lay = rx._layout(dim, dim)
    fields = list(enumerate(zip(lay.x_shifts, lay.y_shifts)))
    sums = {mask: (sum(1 << sx for i, (sx, _) in fields if mask >> i & 1),
                   sum(1 << sy for i, (_, sy) in fields if mask >> i & 1))
            for mask in set().union(*columns)}
    out = []
    for column in columns:
        distinct = list(dict.fromkeys(column))
        index = {mask: i for i, mask in enumerate(distinct)}
        out.append((tuple(map(sums.__getitem__, distinct)), tuple(map(index.__getitem__, column))))
    return tuple(out)


def reference_table_unfold(f: OrbitForm) -> rx.RadialExpr:
    """``f.unfold()`` with the reference tables, one table per multiplicity order."""
    n = f.dim
    zero = rx._layout(n, n).zero_key
    terms: dict[int, int] = {}
    for r, c in f._orbits.items():
        counts = reference_orbit(r, n)[3]
        keys = [zero]
        columns = reference_placements(n, tuple(m for _, _, m in counts))
        for col, ((a, b, _), (sets, idx)) in enumerate(zip(counts, columns)):
            vals = [a * xs + b * ys for xs, ys in sets]
            if col:
                keys = list(map(add, keys, map(vals.__getitem__, idx)))
            else:
                vals = [zero + v for v in vals]
                keys = list(map(vals.__getitem__, idx))
        terms.update(dict.fromkeys(keys, c))
    return rx.RadialExpr._make(n, n, terms, f._den, radial_free_hint=True)
