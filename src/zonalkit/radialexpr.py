"""The exact symbolic engine.

A :class:`RadialExpr` is a finite rational linear combination of terms

    monomial(x) * monomial(y) * |x|^px * |y|^py

over two coordinate groups x = (x_0, ..., x_n) and y = (y_0, ..., y_n),
with integer (possibly negative) radial exponents.  The module provides the
differential and inversion operators applied to such expressions: partial
derivatives, group Laplacians, the directional operator <y, grad_x>, and the
Kelvin inversion f(x) -> |x|^(1-n) f(x/|x|^2).

Canonical form
--------------
|x|^2 equals the quadratic form Q_x = sum_i x_i^2, so the raw representation
is redundant.  Terms split into four parity sectors by (px mod 2, py mod 2);
within a sector the expression is P(x, y) * |x|^p * |y|^q for a single
exponent pair, normalised so that p is in {0, 1} whenever the sector is
polynomial-like in x (even nonnegative radial powers are absorbed into the
polynomial part) and otherwise p < 0 with P not exactly divisible by the
quadratic form Q_x, and symmetrically in y.  Divisibility is decided by
exact polynomial division, never by randomised evaluation.  Because Q_x and
Q_y are distinct irreducibles, this factorisation is unique: two expressions
are equal as functions away from the origins iff their canonical term maps
are identical.  (A finer per-class normalisation keyed on the other group's
monomial content turns out not to be unique - the relation
Q_x Q_y |x|^-2 |y|^-2 = 1 crosses class boundaries - so the sector-level
form is the one the equality decision procedure rests on.)

Performance notes
-----------------
Exponent vectors are packed into a single integer key (7 bits per exponent,
12-bit biased fields for the radial powers) and coefficients are stored as
integer numerators over one shared denominator.  The identity suites push
polynomials with ~10^6 terms through repeated Laplacians, so the hot loops
below deliberately stay on plain dict/int operations.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .ratnum import sqrt_exact

VarGroup = Literal["x", "y"]

_EXP_BITS = 7
_EXP_MASK = (1 << _EXP_BITS) - 1
_RAD_BITS = 12
_RAD_MASK = (1 << _RAD_BITS) - 1
_RAD_BIAS = 1 << (_RAD_BITS - 1)
_RAD_MIN = -_RAD_BIAS
_RAD_MAX = _RAD_MASK - _RAD_BIAS

MAX_DEGREE = _EXP_MASK

# rows per block of float evaluation; bounds the memory of the power tables
_EVAL_BLOCK = 1 << 15


class RadialOverflow(OverflowError):
    """An exponent left the packed-field range (degree > 127 or |radial| > 2047)."""


class PoleError(ZeroDivisionError):
    """A radial power with no exact value: negative at the origin, or odd of an irrational norm."""


class _Layout:
    """Packed-key bit layout for a fixed pair of group sizes."""

    __slots__ = (
        "nx", "ny", "px_shift", "py_shift", "x_shifts", "y_shifts",
        "zero_key", "px_clear", "py_clear", "exp_fields",
    )

    def __init__(self, nx: int, ny: int):
        self.nx = nx
        self.ny = ny
        self.px_shift = 0
        self.py_shift = _RAD_BITS
        base = 2 * _RAD_BITS
        self.x_shifts = tuple(base + _EXP_BITS * i for i in range(nx))
        self.y_shifts = tuple(base + _EXP_BITS * (nx + j) for j in range(ny))
        self.zero_key = _RAD_BIAS | (_RAD_BIAS << _RAD_BITS)
        self.px_clear = ~_RAD_MASK
        self.py_clear = ~(_RAD_MASK << _RAD_BITS)
        ones = sum(1 << s for s in self.x_shifts + self.y_shifts)
        # (mask, low bits, high bits) of every monomial field
        self.exp_fields = (ones * _EXP_MASK, ones, ones << (_EXP_BITS - 1))

    def pack(self, xexp: Sequence[int], yexp: Sequence[int], px: int, py: int) -> int:
        if not (_RAD_MIN <= px <= _RAD_MAX and _RAD_MIN <= py <= _RAD_MAX):
            raise RadialOverflow(f"radial exponent out of range: px={px}, py={py}")
        key = (px + _RAD_BIAS) | ((py + _RAD_BIAS) << _RAD_BITS)
        for e, s in zip(xexp, self.x_shifts):
            if not 0 <= e <= _EXP_MASK:
                raise RadialOverflow(f"monomial exponent {e} out of range")
            key |= e << s
        for e, s in zip(yexp, self.y_shifts):
            if not 0 <= e <= _EXP_MASK:
                raise RadialOverflow(f"monomial exponent {e} out of range")
            key |= e << s
        return key

    def unpack(self, key: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        px = (key & _RAD_MASK) - _RAD_BIAS
        py = ((key >> _RAD_BITS) & _RAD_MASK) - _RAD_BIAS
        xexp = tuple((key >> s) & _EXP_MASK for s in self.x_shifts)
        yexp = tuple((key >> s) & _EXP_MASK for s in self.y_shifts)
        return xexp, yexp, px, py


_LAYOUTS: dict[tuple[int, int], _Layout] = {}


def _layout(nx: int, ny: int) -> _Layout:
    lay = _LAYOUTS.get((nx, ny))
    if lay is None:
        lay = _LAYOUTS[(nx, ny)] = _Layout(nx, ny)
    return lay


def _dir_deriv_overflows(lay: _Layout, key: int, radial: bool) -> bool:
    """Whether <y,grad_x> applied to one term leaves a packed field."""
    p = ((key & _RAD_MASK) - _RAD_BIAS) if radial else 0
    if p and p - 2 < _RAD_MIN:
        return True
    for sx, sy in zip(lay.x_shifts, lay.y_shifts):
        ex = (key >> sx) & _EXP_MASK
        ey = (key >> sy) & _EXP_MASK
        if (ey == _EXP_MASK and (ex or p)) or (ex == _EXP_MASK and p):
            return True
    return False


def _gcd_reduce(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    if not terms:
        return terms, 1
    g = den
    for v in terms.values():
        g = math.gcd(g, v)
        if g == 1:
            return terms, den
    if g > 1:
        terms = {k: v // g for k, v in terms.items()}
        den //= g
    return terms, den


def _mul_quadratic(terms: dict[int, int], shifts: tuple[int, ...], j: int) -> dict[int, int]:
    """Multiply a class dict by (sum_i v_i^2)^j for the given group's shifts."""
    for _ in range(j):
        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            for s in shifts:
                if ((key >> s) & _EXP_MASK) + 2 > _EXP_MASK:
                    raise RadialOverflow("degree cap exceeded while absorbing radial power")
                k2 = key + (2 << s)
                out[k2] = get(k2, 0) + c
        terms = {k: v for k, v in out.items() if v}
    return terms


def _divide_quadratic(terms: dict[int, int], shifts: tuple[int, ...]) -> dict[int, int] | None:
    """Exact division of a nonempty class dict by sum_i v_i^2; None when not divisible.

    The integer key order is a monomial order with leading term v_last^2, and
    the divisor is monic there, so greedy reduction decides divisibility.
    Each step cancels the largest remainder key and adds only smaller keys,
    so a max-heap yields the keys in order; a key that cancels stays in the
    remainder at 0 and is skipped when popped.
    """
    lead = shifts[-1]
    if ((max(terms) >> lead) & _EXP_MASK) < 2:
        return None  # most indivisible inputs fail here, before the heap is built
    rem = dict(terms)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot: dict[int, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        if ((k >> lead) & _EXP_MASK) < 2:
            return None
        qk = k - (2 << lead)
        quot[qk] = c
        for s in shifts[:-1]:
            kk = qk + (2 << s)
            if kk in rem:
                rem[kk] -= c
            else:
                rem[kk] = -c
                heapq.heappush(heap, -kk)
    return quot


def _normalize_sector(lay: _Layout, members: list[tuple[int, int]],
                      eps_x: int, eps_y: int) -> dict[int, int]:
    """Unique normal form of one parity sector.

    The sector content is P(x, y) * |x|^px * |y|^py for a single exponent
    pair.  The terms are first brought to a common radial pair, then Q_x and
    Q_y factors are divided out of P while the exponent is negative, and
    nonnegative exponents are absorbed into P down to the parity bit.  Since
    Q_x and Q_y are distinct irreducibles, the result is the factorisation
    P0 * Q_x^e * Q_y^f with P0 coprime to both, which is unique.
    """
    pxs = [((key & _RAD_MASK) - _RAD_BIAS) for key, _ in members]
    pys = [(((key >> _RAD_BITS) & _RAD_MASK) - _RAD_BIAS) for key, _ in members]
    px_min = min(pxs)
    py_min = min(pys)
    tx = eps_x if px_min >= 0 else px_min
    ty = eps_y if py_min >= 0 else py_min
    neutral = lay.zero_key
    rad_clear = lay.px_clear & lay.py_clear
    work: dict[int, int] = {}
    for (key, c), px, py in zip(members, pxs, pys):
        k0 = (key & rad_clear) | neutral
        piece = {k0: c}
        if px != tx:
            piece = _mul_quadratic(piece, lay.x_shifts, (px - tx) // 2)
        if py != ty:
            piece = _mul_quadratic(piece, lay.y_shifts, (py - ty) // 2)
        for kk, cc in piece.items():
            work[kk] = work.get(kk, 0) + cc
    work = {k: v for k, v in work.items() if v}
    while tx < 0 and work:
        q = _divide_quadratic(work, lay.x_shifts)
        if q is None:
            break
        work = q
        tx += 2
    while ty < 0 and work:
        q = _divide_quadratic(work, lay.y_shifts)
        if q is None:
            break
        work = q
        ty += 2
    field = ((tx + _RAD_BIAS) | ((ty + _RAD_BIAS) << _RAD_BITS))
    return {(kk & rad_clear) | field: cc for kk, cc in work.items()}


def _canonicalize(lay: _Layout, terms: dict[int, int]) -> tuple[dict[int, int], bool]:
    """Full canonical form; returns (terms, radial_free)."""
    lo = _RAD_BIAS
    hi = _RAD_BIAS + 1
    quick = True
    radial_free = True
    for key in terms:
        px = key & _RAD_MASK
        py = (key >> _RAD_BITS) & _RAD_MASK
        if not (lo <= px <= hi and lo <= py <= hi):
            quick = False
            radial_free = False
            break
        if px != lo or py != lo:
            radial_free = False
    if quick:
        return terms, radial_free
    sectors: dict[int, list[tuple[int, int]]] = {}
    for key, c in terms.items():
        sid = (key & 1) | ((key >> _RAD_BITS) & 1) << 1
        sectors.setdefault(sid, []).append((key, c))
    out: dict[int, int] = {}
    for sid, members in sectors.items():
        for k, v in _normalize_sector(lay, members, sid & 1, sid >> 1).items():
            out[k] = out.get(k, 0) + v
    out = {k: v for k, v in out.items() if v}
    radial_free = all(
        (key & _RAD_MASK) == lo and ((key >> _RAD_BITS) & _RAD_MASK) == lo for key in out
    )
    return out, radial_free


@dataclass(frozen=True)
class ExtendedValue:
    """Exact value a + b*sqrt(qx) + c*sqrt(qy) + d*sqrt(qx*qy) at a rational point.

    Perfect-square radicals are collapsed into the rational part at
    construction time, so e.g. |x| at a Pythagorean point comes out purely
    rational.
    """

    rational: Fraction
    coef_rx: Fraction
    coef_ry: Fraction
    coef_rxy: Fraction
    qx: Fraction
    qy: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.rational, self.coef_rx, self.coef_ry, self.coef_rxy)

    def to_float(self) -> float:
        rx = math.sqrt(self.qx)
        ry = math.sqrt(self.qy)
        return (
            float(self.rational)
            + float(self.coef_rx) * rx
            + float(self.coef_ry) * ry
            + float(self.coef_rxy) * rx * ry
        )


def _collapse(a: Fraction, b: Fraction, c: Fraction, d: Fraction,
              qx: Fraction, qy: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    sx = sqrt_exact(qx)
    if sx is not None:
        a += b * sx
        c += d * sx
        b = Fraction(0)
        d = Fraction(0)
    sy = sqrt_exact(qy)
    if sy is not None:
        a += c * sy
        b += d * sy
        c = Fraction(0)
        d = Fraction(0)
    if d:
        sxy = sqrt_exact(qx * qy)
        if sxy is not None:
            a += d * sxy
            d = Fraction(0)
    return a, b, c, d


class RadialExpr:
    """Canonical rational combination of x/y monomials times radial powers.

    Values are immutable after construction; every operation returns a new
    expression, so sharing across threads or worker processes is safe.
    """

    __slots__ = ("nx", "ny", "_terms", "_den", "_lay", "_radial_free", "_degx", "_degy",
                 "_digest")

    def __init__(self, *args, **kwargs):
        raise TypeError("use the module constructors (constant, coordinate, ...) or from_terms")

    # -- construction ------------------------------------------------------

    @classmethod
    def _make(cls, nx: int, ny: int, terms: dict[int, int], den: int,
              degx: int, degy: int, radial_free_hint: bool = False,
              no_zeros: bool = False) -> "RadialExpr":
        """Wrap a term dict; ``no_zeros`` says it holds no zero coefficient.

        Without it the dict is copied to drop zeros.  Callers whose terms
        cannot cancel (a nonzero scale, negation, Kelvin's one-to-one key
        map) pass ``no_zeros=True`` and skip the copy.
        """
        self = object.__new__(cls)
        lay = _layout(nx, ny)
        if not no_zeros:
            terms = {k: v for k, v in terms.items() if v}
        if radial_free_hint:
            radial_free = True
        else:
            terms, radial_free = _canonicalize(lay, terms)
        terms, den = _gcd_reduce(terms, den)
        self.nx = nx
        self.ny = ny
        self._terms = terms
        self._den = den
        self._lay = lay
        self._radial_free = radial_free
        self._degx = degx
        self._degy = degy
        self._digest = None
        return self

    @classmethod
    def zero(cls, nx: int, ny: int) -> "RadialExpr":
        return cls._make(nx, ny, {}, 1, 0, 0, radial_free_hint=True)

    # -- basic state -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, int, Fraction]]:
        """Iterate canonical terms as (xexp, yexp, px, py, coefficient)."""
        lay = self._lay
        den = self._den
        for key, num in self._terms.items():
            xexp, yexp, px, py = lay.unpack(key)
            yield xexp, yexp, px, py, Fraction(num, den)

    def coefficient(self, xexp: Sequence[int], yexp: Sequence[int], px: int = 0, py: int = 0) -> Fraction:
        key = self._lay.pack(xexp, yexp, px, py)
        return Fraction(self._terms.get(key, 0), self._den)

    def _require_same_shape(self, other: "RadialExpr") -> None:
        if self.nx != other.nx or self.ny != other.ny:
            raise ValueError(
                f"dimension mismatch: ({self.nx},{self.ny}) vs ({other.nx},{other.ny})"
            )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "RadialExpr":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            other = constant(other, self.nx, self.ny)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        self._require_same_shape(other)
        d1, d2 = self._den, other._den
        den = d1 * d2 // math.gcd(d1, d2)
        m1 = den // d1
        m2 = den // d2
        # iterate the smaller dict into a scaled copy of the larger
        if len(self._terms) >= len(other._terms):
            base, badd, mb, ma = self._terms, other._terms, m1, m2
        else:
            base, badd, mb, ma = other._terms, self._terms, m2, m1
        if mb == 1:
            out = dict(base)
        else:
            out = {k: v * mb for k, v in base.items()}
        get = out.get
        for k, v in badd.items():
            out[k] = get(k, 0) + v * ma
        pure = self._radial_free and other._radial_free
        return RadialExpr._make(self.nx, self.ny, out, den,
                                max(self._degx, other._degx), max(self._degy, other._degy),
                                radial_free_hint=pure)

    __radd__ = __add__

    def __neg__(self) -> "RadialExpr":
        out = {k: -v for k, v in self._terms.items()}
        return RadialExpr._make(self.nx, self.ny, out, self._den, self._degx, self._degy,
                                radial_free_hint=self._radial_free, no_zeros=True)

    def __sub__(self, other) -> "RadialExpr":
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        if not isinstance(other, RadialExpr):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "RadialExpr":
        c = Fraction(c)
        if c == 0:
            return RadialExpr.zero(self.nx, self.ny)
        num, cd = c.numerator, c.denominator
        out = {k: v * num for k, v in self._terms.items()}
        return RadialExpr._make(self.nx, self.ny, out, self._den * cd, self._degx, self._degy,
                                radial_free_hint=self._radial_free, no_zeros=True)

    def __mul__(self, other) -> "RadialExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        self._require_same_shape(other)
        if self._degx + other._degx > MAX_DEGREE or self._degy + other._degy > MAX_DEGREE:
            raise RadialOverflow("product would exceed the packed degree cap")
        zero_key = self._lay.zero_key
        if len(self._terms) >= len(other._terms):
            big, small = self._terms, other._terms
        else:
            big, small = other._terms, self._terms
        out: dict[int, int] = {}
        get = out.get
        for k2, c2 in small.items():
            k2z = k2 - zero_key
            for k1, c1 in big.items():
                k = k1 + k2z
                v = get(k, 0) + c1 * c2
                out[k] = v
        pure = self._radial_free and other._radial_free
        return RadialExpr._make(self.nx, self.ny, out, self._den * other._den,
                                self._degx + other._degx, self._degy + other._degy,
                                radial_free_hint=pure)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------------

    def _group_data(self, group: VarGroup):
        lay = self._lay
        if group == "x":
            return lay.x_shifts, lay.px_shift, self.nx
        if group == "y":
            return lay.y_shifts, lay.py_shift, self.ny
        raise ValueError(f"unknown variable group {group!r}")

    def partial(self, group: VarGroup, i: int) -> "RadialExpr":
        """Exact partial derivative in coordinate i of the given group."""
        shifts, rad_shift, n = self._group_data(group)
        if not 0 <= i < n:
            raise ValueError(f"coordinate index {i} out of range for group of size {n}")
        s = shifts[i]
        rad_dec = 2 << rad_shift
        radial_free = self._radial_free
        if not radial_free:
            # the radial branch raises field s by one and lowers p by two;
            # a radial field below 2 holds p < _RAD_MIN + 2
            for key in self._terms:
                field = (key >> rad_shift) & _RAD_MASK
                if field != _RAD_BIAS and (field < 2 or (key >> s) & _EXP_MASK == _EXP_MASK):
                    raise RadialOverflow(
                        f"partial derivative d/d{group}{i} would leave a packed exponent field")
        out: dict[int, int] = {}
        get = out.get
        for key, c in self._terms.items():
            e = (key >> s) & _EXP_MASK
            if e:
                k2 = key - (1 << s)
                out[k2] = get(k2, 0) + c * e
            if not radial_free:
                p = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
                if p:
                    k2 = key + (1 << s) - rad_dec
                    out[k2] = get(k2, 0) + c * p
        dx = self._degx + (1 if group == "x" else 0)
        dy = self._degy + (1 if group == "y" else 0)
        return RadialExpr._make(self.nx, self.ny, out, self._den, dx, dy,
                                radial_free_hint=radial_free)

    def laplacian(self, group: VarGroup) -> "RadialExpr":
        """Sum of second partials over every coordinate of the group.

        Per term x^a |x|^p the radial rule collapses to a two-branch update:
        sum_i a_i(a_i-1) x^(a-2e_i) |x|^p  +  p(2|a| + N + p - 2) x^a |x|^(p-2).
        """
        shifts, rad_shift, n = self._group_data(group)
        rad_dec = 2 << rad_shift
        if not self._radial_free:
            # the radial branch lowers p by two; a radial field below 2 holds
            # p < _RAD_MIN + 2, and the branch is emitted when its factor is nonzero
            for key in self._terms:
                field = (key >> rad_shift) & _RAD_MASK
                if field < 2:
                    p = field - _RAD_BIAS
                    tot = sum((key >> s) & _EXP_MASK for s in shifts)
                    if 2 * tot + n + p - 2:
                        raise RadialOverflow(
                            f"Laplacian in {group} would lower |{group}|^{p} "
                            "below the packed radial range")
        out: dict[int, int] = {}
        get = out.get
        if self._radial_free:
            for key, c in self._terms.items():
                for s in shifts:
                    e = (key >> s) & _EXP_MASK
                    if e >= 2:
                        k2 = key - (2 << s)
                        out[k2] = get(k2, 0) + c * e * (e - 1)
        else:
            for key, c in self._terms.items():
                tot = 0
                for s in shifts:
                    e = (key >> s) & _EXP_MASK
                    if e:
                        tot += e
                        if e >= 2:
                            k2 = key - (2 << s)
                            out[k2] = get(k2, 0) + c * e * (e - 1)
                p = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
                if p:
                    f = p * (2 * tot + n + p - 2)
                    if f:
                        k2 = key - rad_dec
                        out[k2] = get(k2, 0) + c * f
        return RadialExpr._make(self.nx, self.ny, out, self._den, self._degx, self._degy,
                                radial_free_hint=self._radial_free)

    def dir_deriv(self) -> "RadialExpr":
        """The operator <y, grad_x>: sum_j y_j * d/dx_j."""
        if self.nx != self.ny:
            raise ValueError("dir_deriv pairs coordinates; group sizes must match")
        lay = self._lay
        xs = lay.x_shifts
        ys = lay.y_shifts
        rad_shift = lay.px_shift
        rad_dec = 2 << rad_shift
        radial = not self._radial_free
        mask, low, high = lay.exp_fields
        for key in self._terms:
            # v has a zero field exactly where key has a field at the cap, and
            # (v - low) & ~v & high finds a zero field; the exact test runs
            # only on those rare candidates
            v = ~key & mask
            if (((v - low) & ~v & high or (radial and (key & _RAD_MASK) < 2))
                    and _dir_deriv_overflows(lay, key, radial)):
                raise RadialOverflow("<y,grad_x> would leave a packed exponent field")
        out: dict[int, int] = {}
        get = out.get
        for key, c in self._terms.items():
            p = 0 if self._radial_free else ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
            for sx, sy in zip(xs, ys):
                e = (key >> sx) & _EXP_MASK
                if e:
                    k2 = key - (1 << sx) + (1 << sy)
                    out[k2] = get(k2, 0) + c * e
                if p:
                    k2 = key + (1 << sx) + (1 << sy) - rad_dec
                    out[k2] = get(k2, 0) + c * p
        return RadialExpr._make(self.nx, self.ny, out, self._den,
                                self._degx + 1, self._degy + 1,
                                radial_free_hint=self._radial_free)

    def kelvin(self, group: VarGroup = "x") -> "RadialExpr":
        """Kelvin inversion in the given group: f -> |x|^(1-n) f(x/|x|^2).

        Termwise, m(x)|x|^p with deg m = d maps to m(x)|x|^(1-n-2d-p) where
        the ambient space is R^(n+1), i.e. n = group size - 1.
        """
        shifts, rad_shift, nvars = self._group_data(group)
        n = nvars - 1
        rad_clear = self._lay.px_clear if group == "x" else self._lay.py_clear
        out: dict[int, int] = {}
        for key, c in self._terms.items():
            d = 0
            for s in shifts:
                d += (key >> s) & _EXP_MASK
            p = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
            p2 = (1 - n) - 2 * d - p
            if not (_RAD_MIN <= p2 <= _RAD_MAX):
                raise RadialOverflow(f"Kelvin image radial power {p2} out of range")
            out[(key & rad_clear) | ((p2 + _RAD_BIAS) << rad_shift)] = c
        return RadialExpr._make(self.nx, self.ny, out, self._den, self._degx, self._degy,
                                no_zeros=True)

    # -- structure ----------------------------------------------------------

    def homogeneous_degree(self, group: VarGroup) -> int | None:
        """Common (monomial + radial) degree in the group, or None when mixed.

        The zero expression has no distinguished degree and returns None.
        """
        shifts, rad_shift, _ = self._group_data(group)
        deg: int | None = None
        for key in self._terms:
            d = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
            for s in shifts:
                d += (key >> s) & _EXP_MASK
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return deg

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, point_x: Sequence, point_y: Sequence) -> ExtendedValue:
        """Exact evaluation as a 4-component value over sqrt(Qx), sqrt(Qy)."""
        lay = self._lay
        if len(point_x) != self.nx or len(point_y) != self.ny:
            raise ValueError("evaluation point sizes must match the group sizes")
        ptx = [Fraction(v) for v in point_x]
        pty = [Fraction(v) for v in point_y]
        qx = sum(v * v for v in ptx)
        qy = sum(v * v for v in pty)
        sectors = [Fraction(0)] * 4  # indexed by (px parity) + 2*(py parity)
        for key, c in self._terms.items():
            px = (key & _RAD_MASK) - _RAD_BIAS
            py = ((key >> _RAD_BITS) & _RAD_MASK) - _RAD_BIAS
            if px < 0 and qx == 0:
                raise PoleError("pole: negative |x| power at Q_x(point) = 0")
            if py < 0 and qy == 0:
                raise PoleError("pole: negative |y| power at Q_y(point) = 0")
            v = Fraction(c, self._den)
            for coord, s in zip(ptx, lay.x_shifts):
                e = (key >> s) & _EXP_MASK
                if e:
                    v *= coord ** e
            for coord, s in zip(pty, lay.y_shifts):
                e = (key >> s) & _EXP_MASK
                if e:
                    v *= coord ** e
            if v == 0:
                continue
            hx, ox = divmod(px, 2)
            hy, oy = divmod(py, 2)
            if qx == 0 and px > 0:
                continue  # |x|^odd vanishes at the origin
            if qy == 0 and py > 0:
                continue
            v *= qx ** hx * qy ** hy
            sectors[ox + 2 * oy] += v
        a, b, c2, d = _collapse(sectors[0], sectors[1], sectors[2], sectors[3], qx, qy)
        return ExtendedValue(a, b, c2, d, qx, qy)

    def eval_float_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Vectorised float evaluation at rows of X (s, nx) and Y (1 or s, ny).

        Terms are summed in sorted key order, so the value depends on the
        expression and not on the construction that built it.  Rows are
        evaluated in blocks: each distinct coordinate power and radial
        half-power is computed once per block and shared by every term, and
        each term multiplies its factors in the same order as a term-by-term
        evaluation would, so the result does not depend on the block size.
        """
        lay = self._lay
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        qx = np.sum(X * X, axis=1)
        qy = np.sum(Y * Y, axis=1)
        x_origin = bool(np.any(qx == 0.0))
        y_origin = bool(np.any(qy == 0.0))
        den = float(self._den)
        # per term: its value c/den and its factors in multiplication order,
        # each a (column, exponent) pair over the columns x_0.., y_0.., Q_x, Q_y
        nx, ny = self.nx, self.ny
        plan = []
        for key, c in sorted(self._terms.items()):
            px = (key & _RAD_MASK) - _RAD_BIAS
            py = ((key >> _RAD_BITS) & _RAD_MASK) - _RAD_BIAS
            if (px < 0 and x_origin) or (py < 0 and y_origin):
                raise PoleError("pole at the origin")
            factors = [(col, e) for col, s in enumerate(lay.x_shifts + lay.y_shifts)
                       if (e := (key >> s) & _EXP_MASK)]
            if px:
                factors.append((nx + ny, px / 2.0))
            if py:
                factors.append((nx + ny + 1, py / 2.0))
            plan.append((c / den, factors))
        distinct = {f for _, factors in plan for f in factors}
        rows = X.shape[0]
        y_rows = Y.shape[0] != 1
        total = np.zeros(rows)
        buf = np.empty(min(rows, _EVAL_BLOCK))
        for lo in range(0, rows, _EVAL_BLOCK):
            hi = min(lo + _EVAL_BLOCK, rows)
            Yb, qyb = (Y[lo:hi], qy[lo:hi]) if y_rows else (Y, qy)
            cols = ([X[lo:hi, i] for i in range(nx)] + [Yb[:, j] for j in range(ny)]
                    + [qx[lo:hi], qyb])
            table = {(col, e): cols[col] ** e for col, e in distinct}
            v = buf[:hi - lo]
            block_total = total[lo:hi]
            for value, factors in plan:
                v.fill(value)
                for f in factors:
                    np.multiply(v, table[f], out=v)
                block_total += v
        return total

    # -- comparison / serialisation -----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialExpr):
            return NotImplemented
        return (self.nx == other.nx and self.ny == other.ny
                and self._den == other._den and self._terms == other._terms)

    __hash__ = None  # type: ignore[assignment]

    def equals(self, other: "RadialExpr") -> bool:
        """Canonical-form equality (the decision procedure for all identities).

        Equal canonical forms serialise to the same bytes, so equal sides
        share a digest either of them has already computed.
        """
        self._require_same_shape(other)
        if self != other:
            return False
        self._digest = other._digest = self._digest or other._digest
        return True

    def _rows(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]],
                             Iterator[tuple[int, int, int, int, int, int]]]:
        """The canonical term order, shared by every serialisation.

        Returns ``(xexps, yexps, rows)``: the distinct x and y exponent
        tuples in sorted order, and one ``(i, j, px, py, num, den)`` row per
        term, where the term is ``num/den * x^xexps[i] y^yexps[j] |x|^px
        |y|^py`` with ``num/den`` in lowest terms.  Rows come sorted by
        ``(xexp, yexp, px, py)``.  Each term's x and y exponents are one bit
        slice of its key each, so only the few distinct slices are unpacked.
        """
        xbits = _EXP_BITS * self.nx
        base = 2 * _RAD_BITS
        xmask = (1 << xbits) - 1
        yshift = base + xbits
        terms = self._terms

        def ranks(slices: set[int], n: int) -> tuple[list[tuple[int, ...]], dict[int, int]]:
            exps = {s: tuple((s >> (_EXP_BITS * i)) & _EXP_MASK for i in range(n))
                    for s in slices}
            order = sorted(slices, key=exps.__getitem__)
            return [exps[s] for s in order], {s: r for r, s in enumerate(order)}

        xexps, xrank = ranks({(key >> base) & xmask for key in terms}, self.nx)
        yexps, yrank = ranks({key >> yshift for key in terms}, self.ny)
        # sort key: x rank, y rank, biased px, biased py
        jbits = max(len(yexps) - 1, 0).bit_length()
        ishift = base + jbits
        jmask = (1 << jbits) - 1
        by_rank = {
            (xrank[(key >> base) & xmask] << ishift) | (yrank[key >> yshift] << base)
            | ((key & _RAD_MASK) << _RAD_BITS) | ((key >> _RAD_BITS) & _RAD_MASK): num
            for key, num in terms.items()
        }
        den = self._den
        gcd = math.gcd

        def rows() -> Iterator[tuple[int, int, int, int, int, int]]:
            for r in sorted(by_rank):
                num = by_rank[r]
                g = gcd(num, den)
                yield (r >> ishift, (r >> base) & jmask,
                       ((r >> _RAD_BITS) & _RAD_MASK) - _RAD_BIAS, (r & _RAD_MASK) - _RAD_BIAS,
                       num // g, den // g)

        return xexps, yexps, rows()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int, Fraction]]:
        """Terms as (xexp, yexp, px, py, coefficient) in canonical order."""
        xexps, yexps, rows = self._rows()
        return [(xexps[i], yexps[j], px, py, Fraction(num, den))
                for i, j, px, py, num, den in rows]

    def to_json_dict(self) -> dict:
        """The canonical serialisation as a dict; see :meth:`to_json`."""
        xexps, yexps, rows = self._rows()
        return {
            "nx": self.nx,
            "ny": self.ny,
            "terms": [
                {
                    "xexp": list(xexps[i]), "yexp": list(yexps[j]), "px": px, "py": py,
                    "num": str(num), "den": str(den),
                }
                for i, j, px, py, num, den in rows
            ],
        }

    def to_json(self) -> str:
        """The canonical serialisation that :meth:`digest` hashes.

        The bytes are those of ``json.dumps(self.to_json_dict(),
        sort_keys=True, separators=(",", ":"))``: keys in sorted order,
        no whitespace, one ``{"den","num","px","py","xexp","yexp"}`` object
        per term with the coefficient in lowest terms as decimal strings
        (``den`` positive), terms in ``(xexp, yexp, px, py)`` order.  They
        are written directly from :meth:`_rows`, with each distinct
        exponent list formatted once.
        """
        xexps, yexps, rows = self._rows()
        xtext = ["[" + ",".join(map(str, e)) + "]" for e in xexps]
        ytext = ["[" + ",".join(map(str, e)) + "]" for e in yexps]
        body = ",".join([
            f'{{"den":"{den}","num":"{num}","px":{px},"py":{py},'
            f'"xexp":{xtext[i]},"yexp":{ytext[j]}}}'
            for i, j, px, py, num, den in rows
        ])
        return f'{{"nx":{self.nx},"ny":{self.ny},"terms":[{body}]}}'

    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_json().encode()).hexdigest()
        return self._digest

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for xe, ye, px, py, coef in self.sorted_terms():
            atoms = []
            for i, e in enumerate(xe):
                if e:
                    atoms.append(f"x{i}" + (f"^{e}" if e > 1 else ""))
            for j, e in enumerate(ye):
                if e:
                    atoms.append(f"y{j}" + (f"^{e}" if e > 1 else ""))
            if px:
                atoms.append(f"|x|^{px}")
            if py:
                atoms.append(f"|y|^{py}")
            mono = "*".join(atoms) if atoms else "1"
            parts.append(f"{coef} {mono}" if atoms else f"{coef}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<RadialExpr nx={self.nx} ny={self.ny} terms={len(self._terms)}>"


# -- module-level constructors ----------------------------------------------

def from_terms(nx: int, ny: int,
               items: Iterable[tuple[Sequence[int], Sequence[int], int, int, Fraction]]) -> RadialExpr:
    """Build an expression from (xexp, yexp, px, py, coefficient) entries."""
    lay = _layout(nx, ny)
    acc: dict[int, Fraction] = {}
    degx = degy = 0
    for xe, ye, px, py, coef in items:
        key = lay.pack(xe, ye, px, py)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(coef)
        degx = max(degx, sum(xe) + max(px, 0))
        degy = max(degy, sum(ye) + max(py, 0))
    den = 1
    for coef in acc.values():
        den = den * coef.denominator // math.gcd(den, coef.denominator)
    return RadialExpr._make(nx, ny, {k: int(coef * den) for k, coef in acc.items()},
                            den, degx, degy)


def constant(c, nx: int, ny: int) -> RadialExpr:
    c = Fraction(c)
    if c == 0:
        return RadialExpr.zero(nx, ny)
    lay = _layout(nx, ny)
    return RadialExpr._make(nx, ny, {lay.zero_key: c.numerator}, c.denominator, 0, 0,
                            radial_free_hint=True)


def coordinate(group: VarGroup, i: int, nx: int, ny: int) -> RadialExpr:
    lay = _layout(nx, ny)
    shifts = lay.x_shifts if group == "x" else lay.y_shifts
    n = nx if group == "x" else ny
    if not 0 <= i < n:
        raise ValueError(f"coordinate index {i} out of range")
    key = lay.zero_key | (1 << shifts[i])
    dx, dy = (1, 0) if group == "x" else (0, 1)
    return RadialExpr._make(nx, ny, {key: 1}, 1, dx, dy, radial_free_hint=True)


def norm_power(group: VarGroup, p: int, nx: int, ny: int) -> RadialExpr:
    """|x|^p (or |y|^p) as an expression; even nonnegative p absorbs to a polynomial."""
    lay = _layout(nx, ny)
    rad_shift = lay.px_shift if group == "x" else lay.py_shift
    key = (lay.zero_key & (lay.px_clear if group == "x" else lay.py_clear)) \
        | ((p + _RAD_BIAS) << rad_shift)
    dx = max(p, 0) if group == "x" else 0
    dy = max(p, 0) if group == "y" else 0
    return RadialExpr._make(nx, ny, {key: 1}, 1, dx, dy)


def quadratic_form(group: VarGroup, nx: int, ny: int) -> RadialExpr:
    """Q_x = sum_i x_i^2 (resp. Q_y) as a polynomial."""
    lay = _layout(nx, ny)
    shifts = lay.x_shifts if group == "x" else lay.y_shifts
    terms = {lay.zero_key | (2 << s): 1 for s in shifts}
    dx, dy = (2, 0) if group == "x" else (0, 2)
    return RadialExpr._make(nx, ny, terms, 1, dx, dy, radial_free_hint=True)


def inner_xy(nx: int, ny: int | None = None) -> RadialExpr:
    """The pairing <x, y> = sum_i x_i y_i; group sizes must agree."""
    if ny is None:
        ny = nx
    if nx != ny:
        raise ValueError("<x,y> needs matching group sizes")
    lay = _layout(nx, ny)
    terms = {lay.zero_key | (1 << sx) | (1 << sy): 1
             for sx, sy in zip(lay.x_shifts, lay.y_shifts)}
    return RadialExpr._make(nx, ny, terms, 1, 1, 1, radial_free_hint=True)
