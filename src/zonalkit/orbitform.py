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

Operators are not rewritten here.  An equivariant ``op`` acts on the small
expression g = sum_O (c_O / |Stab r_O|) r_O through the coordinate engine
unchanged; since f = sum over S_N of the images of g, op(f) is the sum of
the images of h = op(g), whose orbit coefficients are
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
from itertools import combinations
from operator import add
from typing import Callable

from . import radialexpr as rx
from .zonalalg import ZonalInvariant

_BITS = rx._EXP_BITS
_MASK = rx._EXP_MASK


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
        """Build by the Horner scheme of ``to_radialexpr``, folding after each product.

        Only polynomials have an orbit form here: a term with a negative or
        odd radial power raises ``ValueError``.
        """
        for A, R, S in inv.terms:
            if R < 0 or S < 0 or R % 2 or S % 2:
                raise ValueError(
                    f"orbit form needs a polynomial; term (A, R, S) = {(A, R, S)} "
                    "has a negative or odd radial power")
        n = inv.dim
        a = rx.inner_xy(n)
        qx = rx.quadratic_form("x", n, n)
        qy = rx.quadratic_form("y", n, n)
        powers = {(0, 0): cls(n, {rx._layout(n, n).zero_key: 1})}

        def power(i: int, j: int) -> "OrbitForm":
            # Q_x^i Q_y^j, one factor of Q at a time
            out = powers.get((i, j))
            if out is None:
                if j:
                    out = power(i, j - 1).apply(lambda g: g * qy)
                else:
                    out = power(i - 1, 0).apply(lambda g: g * qx)
                powers[(i, j)] = out
            return out

        parts = inv._horner(cls.zero(n), lambda f: f.apply(lambda g: g * a),
                            lambda i, j, c: power(i, j).scale(c))
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
        lay = expr._lay
        pairs = tuple(zip(lay.x_shifts, lay.y_shifts))
        zero = lay.zero_key
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

    # -- operators and coordinates ----------------------------------------------

    def apply(self, op: Callable[[rx.RadialExpr], rx.RadialExpr]) -> "OrbitForm":
        """The orbit form of op(f) for a linear ``op`` that commutes with S_N.

        ``op`` runs on g = sum_O (c_O / |Stab r_O|) r_O, one term per orbit,
        and its output is folded with the stabiliser weights.  It may go
        through Laurent expressions, but its output must be a polynomial:
        ``ValueError`` otherwise.
        """
        full = math.factorial(self.dim)
        degx = degy = 0
        terms = {}
        for r, c in self._orbits.items():
            stab, dx, dy, _ = _orbit(r, self.dim)
            terms[r] = c * (full // stab)
            degx = max(degx, dx)
            degy = max(degy, dy)
        g = rx.RadialExpr._make(self.dim, self.dim, terms, self._den * full, degx, degy,
                                radial_free_hint=True, no_zeros=True)
        return OrbitForm._summed(op(g))

    def unfold(self) -> rx.RadialExpr:
        """The full coordinate expression: each orbit's distinct monomials.

        The distinct permutations of a representative's pairs are its
        placements: disjoint position sets, one per distinct nonzero pair,
        of the pair's multiplicity; the (0, 0) pairs fill what is left.  A
        pair (a, b) on a position set with field sums (xs, ys) adds
        a * xs + b * ys to the key.
        """
        n = self.dim
        zero = self._lay.zero_key
        terms: dict[int, int] = {}
        degx = degy = 0
        for r, c in self._orbits.items():
            _, dx, dy, counts = _orbit(r, n)
            degx = max(degx, dx)
            degy = max(degy, dy)
            columns = _placements(n, tuple(m for _, _, m in counts))
            keys = [zero] * len(columns[0]) if columns else [zero]
            for (a, b, _), sums in zip(counts, columns):
                keys = list(map(add, keys, [a * xs + b * ys for xs, ys in sums]))
            terms.update(dict.fromkeys(keys, c))
        return rx.RadialExpr._make(n, n, terms, self._den, degx, degy,
                                   radial_free_hint=True, no_zeros=True)

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


@lru_cache(maxsize=1 << 16)
def _orbit(r: int, dim: int) -> tuple[int, int, int, tuple[tuple[int, int, int], ...]]:
    """``(|Stab r|, x degree, y degree, pairs)`` of a representative.

    |Stab r| is the product of mult! over the distinct pairs of ``r``, and
    ``pairs`` lists each distinct pair other than (0, 0) as ``(a, b, mult)``.
    """
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


@lru_cache(maxsize=1 << 10)
def _placements(dim: int, mults: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every choice of disjoint position sets of sizes ``mults`` among ``dim``.

    One column per multiplicity: the i-th choice is the i-th entry of each.
    An entry holds its set's field sums ``(xs, ys)``: a one in each x and
    each y field of the set's positions.
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
    # one (xs, ys) per distinct position set, shared by every entry that holds it
    sums = {mask: (sum(1 << sx for i, (sx, _) in fields if mask >> i & 1),
                   sum(1 << sy for i, (_, sy) in fields if mask >> i & 1))
            for mask in set().union(*columns)}
    return tuple(tuple(map(sums.__getitem__, column)) for column in columns)
