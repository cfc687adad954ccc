"""Symmetric radial-free polynomials with one coefficient per orbit.

The symmetric group S_N acts on R^N x R^N by permuting the pairs
(x_i, y_i) together.  Every route input (the lifted kernels, the paravector
powers and the constant 1) is a polynomial in <x,y>, Q_x and Q_y, so it is
invariant under this diagonal action, and so is everything the equivariant
operators Lap_x, Lap_y, <y,grad_x>, Kelvin inversion and multiplication by
<x,y>, Q_x, Q_y or |x|^p make of it.  Such a polynomial is sum_O c_O m_O
over the orbits O of monomials x^a y^b, where m_O is the sum of the
distinct monomials of O (MacMahon's monomial multisymmetric functions).
:class:`OrbitForm` keeps the c_O as integer numerators over one
denominator, keyed by a representative: the packed
:mod:`~zonalkit.radialexpr` key of the monomial whose (a_i, b_i) pairs are
sorted in decreasing order.

Seed products act orbit by orbit.  A seed is built by the Horner loop of
the coordinate expander with products by the power sums <x,y>, Q_x and Q_y,
sum_t x_t^da y_t^db, and the product rule of monomial symmetric functions
gives such a product directly on the orbit coefficients: m_r times the
power sum is the sum, over the distinct pairs v of r ((0, 0) included
when r has one), of mult_r'(v + (da, db)) m_r', where r' is r with one v
raised by (da, db).  No coordinate expression is built for a seed.

The operators under test still run in coordinates.  An equivariant ``op``
acts on the small expression g = sum_O (c_O / |Stab r_O|) r_O through the
coordinate engine unchanged; since f = sum over S_N of the images of g,
op(f) is the sum of the images of h = op(g), whose orbit coefficients are
c'_O' = |Stab r'| * (sum of h's coefficients over O').  |Stab r| is the
product of mult! over the distinct pairs of r.  Only polynomials are kept:
``op`` may pass through Laurent intermediates (|x|^p with p negative or
odd) as long as its output is a polynomial, and the fold raises
``ValueError`` on any output that is not.

The layer reads the packed key layout of :mod:`~zonalkit.radialexpr`
directly; dependencies run zonalalg <- orbitform <- zonalroutes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat
from operator import add, itemgetter
from typing import Callable

from . import radialexpr as rx
from .zonalalg import ZonalInvariant

_BITS = rx._EXP_BITS
_MASK = rx._EXP_MASK
# the (0, 0) entry that ends a representative's distinct pairs in OrbitForm._times
_ZERO_PAIR = ((0, 0, 0),)


class OrbitForm:
    """sum_O c_O m_O over R^dim x R^dim, stored as {representative: numerator} / den."""

    __slots__ = ("dim", "_orbits", "_den", "_lay")

    def __init__(self, dim: int, orbits: dict[int, int], den: int = 1):
        """Wrap integer numerators over ``den`` keyed by representatives.

        The keys must already be representatives: pairs in decreasing order.
        """
        self.dim = dim
        self._lay = rx._layout(dim, dim)
        self._orbits, self._den = rx._gcd_reduce({r: c for r, c in orbits.items() if c}, den)

    @classmethod
    def zero(cls, dim: int) -> "OrbitForm":
        return cls(dim, {})

    @classmethod
    def from_invariant(cls, inv: ZonalInvariant) -> "OrbitForm":
        """Build by the Horner scheme of ``to_radialexpr``, orbit by orbit.

        Each product by <x,y>, Q_x or Q_y is :meth:`_times` on the orbit
        coefficients; no coordinate expression is built.  Only polynomials
        have an orbit form here: a term with a negative or odd radial power
        raises ``ValueError``.
        """
        for A, R, S in inv.terms:
            if R < 0 or S < 0 or R % 2 or S % 2:
                raise ValueError(
                    f"orbit form needs a polynomial; term (A, R, S) = {(A, R, S)} "
                    "has a negative or odd radial power")
        n = inv.dim
        powers = {(0, 0): cls(n, {rx._layout(n, n).zero_key: 1})}

        def power(i: int, j: int) -> "OrbitForm":
            # Q_x^i Q_y^j, one factor of Q at a time
            out = powers.get((i, j))
            if out is None:
                out = power(i, j - 1)._times(0, 2) if j else power(i - 1, 0)._times(2, 0)
                powers[(i, j)] = out
            return out

        parts = inv._horner(lambda: cls.zero(n), lambda f: f._times(1, 1),
                            lambda f, i, j, c: f + power(i, j).scale(c))
        # all radial powers are even and nonnegative: one group, radial floor (0, 0)
        return parts[0][2] if parts else cls.zero(n)

    @classmethod
    def fold(cls, expr: rx.RadialExpr) -> "OrbitForm":
        """The orbit form of (1/N!) sum over S_N of the images of ``expr``.

        For a symmetric ``expr`` this is ``expr`` itself, and ``unfold``
        gives it back.
        """
        return cls._summed(expr).scale(Fraction(1, math.factorial(expr.nx)))

    @classmethod
    def _summed(cls, expr: rx.RadialExpr) -> "OrbitForm":
        """The orbit form of sum over S_N of the images of ``expr``."""
        if expr.nx != expr.ny:
            raise ValueError("the pair action needs matching group sizes")
        if not expr._radial_free:
            raise ValueError("orbit form needs a polynomial (no radial powers)")
        n = expr.nx
        pairs = _fields(n)[0]
        zero = expr._lay.zero_key
        sums: dict[int, int] = {}
        get = sums.get
        for key, c in expr._terms.items():
            r = _representative(key, pairs, zero)
            sums[r] = get(r, 0) + c
        return cls(n, {r: c * _orbit(r, n)[0] for r, c in sums.items() if c}, expr._den)

    # -- state ----------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._orbits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbitForm):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._orbits == other._orbits)

    __hash__ = None  # type: ignore[assignment]

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "OrbitForm") -> "OrbitForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d1, d2 = self._den, other._den
        den = d1 * d2 // math.gcd(d1, d2)
        m1, m2 = den // d1, den // d2
        out = {r: c * m1 for r, c in self._orbits.items()}
        get = out.get
        for r, c in other._orbits.items():
            out[r] = get(r, 0) + c * m2
        return OrbitForm(self.dim, out, den)

    def scale(self, c) -> "OrbitForm":
        c = Fraction(c)
        return OrbitForm(self.dim, {r: v * c.numerator for r, v in self._orbits.items()},
                         self._den * c.denominator)

    def _times(self, da: int, db: int) -> "OrbitForm":
        """The orbit form of f * sum_t x_t^da y_t^db, with (da, db) != (0, 0).

        For each orbit r and each distinct pair v of r, (0, 0) included when
        r has one, r' is r with one v raised to w = v + (da, db), and
        c_r * mult_r'(w) is added to c_r'.  Since w sorts before v, r' keeps
        r's pairs before the first one below w, then w, then the pairs from
        there to the first v moved one position on.  Raises
        ``RadialOverflow`` where the coordinate product does: when ``da``
        (or ``db``) is positive and an orbit's degree in x (or y) plus it
        exceeds ``MAX_DEGREE``.
        """
        n = self.dim
        lay = self._lay
        x0, y0 = lay.x_shifts[0], lay.y_shifts[0]
        # a pair raised in place, at position i, adds steps[i] to the key
        steps = [(da << sx) + (db << sy) for sx, sy in zip(lay.x_shifts, lay.y_shifts)]
        out: dict[int, int] = {}
        get = out.get
        for r, c in self._orbits.items():
            _, dx, dy, counts = _orbit(r, n)
            if dx + da > rx.MAX_DEGREE or dy + db > rx.MAX_DEGREE:
                raise rx.RadialOverflow("product would exceed the packed degree cap")
            i = 0  # the position of the first v
            for j, (a, b, m) in enumerate(counts + _ZERO_PAIR):
                if i == n:
                    break  # every pair is nonzero: no (0, 0) to raise
                wa, wb = a + da, b + db
                # w goes after every pair >= w: the pairs before v that sort below w move
                p, mult, q = i, 1, j - 1
                while q >= 0:
                    a2, b2, m2 = counts[q]
                    if a2 > wa or (a2 == wa and b2 > wb):
                        break
                    if a2 == wa and b2 == wb:
                        mult += m2
                        break
                    p -= m2
                    q -= 1
                if p == i:
                    rr = r + steps[i]
                else:
                    sx, sy = x0 + _BITS * p, y0 + _BITS * p
                    moved = (1 << _BITS * (i - p)) - 1  # the fields of positions p .. i-1
                    clear = (moved << _BITS) | _MASK  # and of position i
                    rr = ((r & ~((clear << sx) | (clear << sy)))
                          | ((((r >> sx) & moved) << _BITS | wa) << sx)
                          | ((((r >> sy) & moved) << _BITS | wb) << sy))
                out[rr] = get(rr, 0) + c * mult
                i += m
        return OrbitForm(n, out, self._den)

    # -- operators and coordinates ----------------------------------------------

    def apply(self, op: Callable[[rx.RadialExpr], rx.RadialExpr]) -> "OrbitForm":
        """The orbit form of op(f) for a linear ``op`` that commutes with S_N.

        ``op`` runs on g = sum_O (c_O / |Stab r_O|) r_O, one term per orbit,
        and its output is folded with the stabiliser weights.  It may go
        through Laurent expressions, but its output must be a polynomial:
        ``ValueError`` otherwise.
        """
        full = math.factorial(self.dim)
        terms = {r: c * (full // _orbit(r, self.dim)[0]) for r, c in self._orbits.items()}
        g = rx.RadialExpr._make(self.dim, self.dim, terms, self._den * full,
                                radial_free_hint=True)
        return OrbitForm._summed(op(g))

    def unfold(self) -> rx.RadialExpr:
        """The full coordinate expression: each orbit's distinct monomials.

        The distinct permutations of a representative's pairs are its
        placements: disjoint position sets, one per distinct nonzero pair,
        of the pair's multiplicity; the (0, 0) pairs fill what is left.  The
        placements come from the table of the multiplicities sorted, shared
        by every orbit with the same multiset of them, and each pair takes a
        column of its multiplicity.  A pair (a, b) on a position set with
        field sums (xs, ys) adds a * xs + b * ys to the key, computed once
        per distinct set of its column and picked for each placement by
        index.
        """
        n = self.dim
        zero = self._lay.zero_key
        terms: dict[int, int] = {}
        for r, c in self._orbits.items():
            keys = [zero]
            counts = sorted(_orbit(r, n)[3], key=itemgetter(2))
            columns = _placements(n, tuple(m for _, _, m in counts))
            for col, ((a, b, _), (sets, idx)) in enumerate(zip(counts, columns)):
                vals = [a * xs + b * ys for xs, ys in sets]
                if col:
                    keys = list(map(add, keys, map(vals.__getitem__, idx)))
                else:  # the first column starts every key from the zero key
                    vals = [zero + v for v in vals]
                    keys = list(map(vals.__getitem__, idx))
            terms.update(dict.fromkeys(keys, c))
        return rx.RadialExpr._make(n, n, terms, self._den, radial_free_hint=True)

    def __repr__(self) -> str:
        return f"<OrbitForm dim={self.dim} orbits={len(self._orbits)}>"


def _representative(key: int, pairs: tuple[tuple[int, int], ...], zero: int) -> int:
    """The packed key of ``key``'s (a_i, b_i) pairs sorted in decreasing order."""
    values = sorted([((key >> sx) & _MASK) << _BITS | ((key >> sy) & _MASK)
                     for sx, sy in pairs], reverse=True)
    out = zero
    for v, (sx, sy) in zip(values, pairs):
        if not v:
            break  # the rest are (0, 0)
        out |= ((v >> _BITS) << sx) | ((v & _MASK) << sy)
    return out


@lru_cache(maxsize=None)
def _fields(dim: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The ``(x shift, y shift)`` of each pair position, and 0!, 1!, .., dim!."""
    lay = rx._layout(dim, dim)
    return (tuple(zip(lay.x_shifts, lay.y_shifts)),
            tuple(math.factorial(m) for m in range(dim + 1)))


@lru_cache(maxsize=1 << 16)
def _orbit(r: int, dim: int) -> tuple[int, int, int, tuple[tuple[int, int, int], ...]]:
    """``(|Stab r|, x degree, y degree, pairs)`` of a representative.

    |Stab r| is the product of mult! over the distinct pairs of ``r``, and
    ``pairs`` lists each distinct pair other than (0, 0) as ``(a, b, mult)``,
    in decreasing order.  The pairs of a representative are sorted, so equal
    pairs form runs and the (0, 0) pairs come last: one pass counts the runs
    and stops at the first (0, 0).
    """
    fields, fact = _fields(dim)
    pairs = []
    stab = 1
    dx = dy = 0
    a = b = -1  # the pair of the current run, none yet
    start = 0  # the position where it began
    for i, (sx, sy) in enumerate(fields):
        a2, b2 = (r >> sx) & _MASK, (r >> sy) & _MASK
        if a2 == a and b2 == b:
            continue
        if i:
            m = i - start
            pairs.append((a, b, m))
            stab *= fact[m]
            dx += a * m
            dy += b * m
        if not (a2 or b2):
            return stab * fact[dim - i], dx, dy, tuple(pairs)
        a, b, start = a2, b2, i
    if dim:  # no (0, 0): the last run ends at the last position
        m = dim - start
        pairs.append((a, b, m))
        stab *= fact[m]
        dx += a * m
        dy += b * m
    return stab, dx, dy, tuple(pairs)


@lru_cache(maxsize=1 << 14)
def _choices(free: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``m``-subsets of the position mask ``free``, and the mask each leaves free."""
    bits = [1 << i for i in range(free.bit_length()) if free >> i & 1]
    chosen = tuple(map(sum, combinations(bits, m)))
    return chosen, tuple(map(free.__xor__, chosen))


@lru_cache(maxsize=1 << 10)
def _placements(dim: int, mults: tuple[int, ...]
                ) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
    """Every choice of disjoint position sets of sizes ``mults`` among ``dim``.

    One ``(sets, idx)`` per multiplicity, in the order of ``mults``: ``sets``
    holds the field sums ``(xs, ys)`` of the column's distinct position
    sets, a one in each x and each y field of the set's positions, and the
    i-th choice puts the column's pair on ``sets[idx[i]]``.  Each distinct
    set has one ``(xs, ys)`` entry, shared by every column that holds it.
    Columns of equal multiplicity are interchangeable, so
    :meth:`OrbitForm.unfold` asks for ``mults`` sorted, one table per
    multiset.  Each column is built without a Python loop per choice: every
    partial choice is repeated once per way to place the next column in what
    it leaves free, and those ways are memoised per (free mask, size).
    """
    columns: list[list[int]] = []
    free = [(1 << dim) - 1]
    for m in mults:
        chosen, rest = zip(*map(_choices, free, repeat(m)))
        widths = list(map(len, chosen))
        columns = [list(chain.from_iterable(map(repeat, column, widths))) for column in columns]
        columns.append(list(chain.from_iterable(chosen)))
        free = list(chain.from_iterable(rest))
    bits = {1 << i: (1 << sx, 1 << sy) for i, (sx, sy) in enumerate(_fields(dim)[0])}
    sums = {0: (0, 0)}

    def field_sums(mask: int) -> tuple[int, int]:
        # the sums of the mask without its lowest bit, plus that bit's fields
        out = sums.get(mask)
        if out is None:
            low = mask & -mask
            (xs, ys), (bx, by) = field_sums(mask ^ low), bits[low]
            out = sums[mask] = (xs + bx, ys + by)
        return out

    out = []
    for column in columns:
        distinct = list(dict.fromkeys(column))
        index = {mask: i for i, mask in enumerate(distinct)}
        out.append((tuple(map(field_sums, distinct)), tuple(map(index.__getitem__, column))))
    return tuple(out)
