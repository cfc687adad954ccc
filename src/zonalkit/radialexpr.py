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
integer numerators over one shared denominator.  The largest coordinate
Laplacian input of a default-range suite is the kernel zonal_direct(6, 8),
218,799 terms (the Laplacian routes apply theirs to orbit representatives),
so the hot loops below deliberately stay on plain dict/int operations.  The
four coordinate operators share one loop (:meth:`RadialExpr._slice_map`)
that decodes each distinct bit slice they read once into ``(key delta,
factor)`` pairs; their per-term forms are the test reference
``tests/operator_reference.py``.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, Sequence

from .ratnum import sqrt_exact

if TYPE_CHECKING:
    import numpy as np

VarGroup = Literal["x", "y"]

_EXP_BITS = 7
_EXP_MASK = (1 << _EXP_BITS) - 1
_RAD_BITS = 12
_RAD_MASK = (1 << _RAD_BITS) - 1
_RAD_BIAS = 1 << (_RAD_BITS - 1)
_RAD_MIN = -_RAD_BIAS
_RAD_MAX = _RAD_MASK - _RAD_BIAS

MAX_DEGREE = _EXP_MASK

# terms per chunk of the canonical serialisation; bounds the text held at once
_JSON_CHUNK = 4096


class RadialOverflow(OverflowError):
    """An exponent left the packed-field range (degree > 127 or |radial| > 2047).

    A product checks the degree cap on what its factors hold: it raises when,
    in one group, both factors have a positive largest monomial degree and
    the two sum above ``MAX_DEGREE``.  Below that no monomial field can
    overflow, so a product that fits is not refused.
    """


class PoleError(ZeroDivisionError):
    """A radial power with no exact value: negative at the origin, or odd of an irrational norm."""


class _Layout:
    """Packed-key bit layout for a fixed pair of group sizes."""

    __slots__ = ("nx", "ny", "x_shifts", "y_shifts", "zero_key", "groups", "pair_mask")

    def __init__(self, nx: int, ny: int):
        self.nx = nx
        self.ny = ny
        base = 2 * _RAD_BITS
        self.x_shifts = tuple(base + _EXP_BITS * i for i in range(nx))
        self.y_shifts = tuple(base + _EXP_BITS * (nx + j) for j in range(ny))
        self.zero_key = _RAD_BIAS | (_RAD_BIAS << _RAD_BITS)
        # per group: monomial shifts, radial shift, size, and the mask of the
        # group's slice of a key (its monomial fields and its radial field)
        self.groups = {name: (shifts, rad, len(shifts),
                              sum(_EXP_MASK << s for s in shifts) | (_RAD_MASK << rad))
                       for name, shifts, rad in (("x", self.x_shifts, 0),
                                                 ("y", self.y_shifts, _RAD_BITS))}
        # the slice <y,grad_x> reads: every monomial field and |x|
        self.pair_mask = sum(_EXP_MASK << s for s in self.x_shifts + self.y_shifts) | _RAD_MASK

    def group(self, group: VarGroup) -> tuple[tuple[int, ...], int, int, int]:
        """(monomial shifts, radial shift, size, slice mask) of a variable group."""
        if group not in ("x", "y"):
            raise ValueError(f"unknown variable group {group!r}")
        return self.groups[group]

    def pack(self, xexp: Sequence[int], yexp: Sequence[int], px: int, py: int) -> int:
        if len(xexp) != self.nx or len(yexp) != self.ny:
            raise ValueError(f"exponent tuples need lengths {self.nx} (x) and {self.ny} (y), "
                             f"got {len(xexp)} and {len(yexp)}")
        if not (_RAD_MIN <= px <= _RAD_MAX and _RAD_MIN <= py <= _RAD_MAX):
            raise RadialOverflow(f"radial exponent out of range: px={px}, py={py}")
        key = (px + _RAD_BIAS) | ((py + _RAD_BIAS) << _RAD_BITS)
        for e, s in zip((*xexp, *yexp), self.x_shifts + self.y_shifts):
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


def _drop_zeros(terms: dict) -> dict:
    """Delete the zero values of ``terms`` in place, after one C-level scan for one."""
    if 0 in terms.values():
        for k in [k for k, v in terms.items() if not v]:
            del terms[k]
    return terms


def _gcd_reduce(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    if not terms:
        return terms, 1
    # one value usually settles it; otherwise one C-level gcd over all of them
    g = math.gcd(den, next(iter(terms.values())))
    if g > 1:
        g = math.gcd(g, *terms.values())
    if g > 1:
        terms = {k: v // g for k, v in terms.items()}
        den //= g
    return terms, den


def _mul_quadratic(terms: dict[int, int], shifts: tuple[int, ...], j: int) -> dict[int, int]:
    """Multiply a class dict by (sum_i v_i^2)^j for the given group's shifts."""
    # the largest field e gains v^(2j) uncancelled: the product overflows iff e + 2j > cap
    if j and max((key >> s) & _EXP_MASK for key in terms for s in shifts) + 2 * j > _EXP_MASK:
        raise RadialOverflow("degree cap exceeded while absorbing radial power")
    for _ in range(j):
        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            for s in shifts:
                k2 = key + (2 << s)
                out[k2] = get(k2, 0) + c
        terms = _drop_zeros(out)
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
    rad_clear = ~((1 << 2 * _RAD_BITS) - 1)
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
    _drop_zeros(work)
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
    _drop_zeros(out)
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
        """The value in floating point; OverflowError when it leaves the float range."""
        rx = math.sqrt(self.qx)
        ry = math.sqrt(self.qy)
        value = (
            float(self.rational)
            + float(self.coef_rx) * rx
            + float(self.coef_ry) * ry
            + float(self.coef_rxy) * rx * ry
        )
        if not math.isfinite(value):
            raise OverflowError("value outside the float range")
        return value


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

    __slots__ = ("nx", "ny", "_terms", "_den", "_lay", "_radial_free", "_deg", "_digest")

    def __init__(self, *args, **kwargs):
        raise TypeError("use the module constructors (constant, coordinate, ...) or from_terms")

    # -- construction ------------------------------------------------------

    @classmethod
    def _make(cls, nx: int, ny: int, terms: dict[int, int], den: int,
              radial_free_hint: bool = False) -> "RadialExpr":
        """Wrap a term dict the caller hands over.  Zeros are deleted from it
        in place (:func:`_drop_zeros`), so it is not copied to drop them."""
        self = object.__new__(cls)
        lay = _layout(nx, ny)
        _drop_zeros(terms)
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
        self._deg = None
        self._digest = None
        return self

    @classmethod
    def zero(cls, nx: int, ny: int) -> "RadialExpr":
        return cls._make(nx, ny, {}, 1, radial_free_hint=True)

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
        return RadialExpr._make(self.nx, self.ny, out, den, radial_free_hint=pure)

    __radd__ = __add__

    def __neg__(self) -> "RadialExpr":
        out = {k: -v for k, v in self._terms.items()}
        return RadialExpr._make(self.nx, self.ny, out, self._den,
                                radial_free_hint=self._radial_free)

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
        return RadialExpr._make(self.nx, self.ny, out, self._den * cd,
                                radial_free_hint=self._radial_free)

    def __mul__(self, other) -> "RadialExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        self._require_same_shape(other)
        big, small = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        # a group's fields overflow only if both factors have degree in it
        sx, sy = small._degrees()
        if sx or sy:
            bx, by = big._degrees()
            if (sx and bx and sx + bx > MAX_DEGREE) or (sy and by and sy + by > MAX_DEGREE):
                raise RadialOverflow("product would exceed the packed degree cap")
        if not (self._radial_free or other._radial_free):
            # a radial sum outside its field would borrow from the next field
            for shift, group in ((0, "x"), (_RAD_BITS, "y")):
                lo, hi = (sum(bound(((k >> shift) & _RAD_MASK) - _RAD_BIAS for k in terms)
                              for terms in (self._terms, other._terms)) for bound in (min, max))
                if lo < _RAD_MIN or hi > _RAD_MAX:
                    raise RadialOverflow(
                        f"product radial exponent |{group}|^{lo if lo < _RAD_MIN else hi} "
                        f"is outside the radial range {_RAD_MIN}..{_RAD_MAX}")
        zero_key = self._lay.zero_key
        out: dict[int, int] = {}
        get = out.get
        for k2, c2 in small._terms.items():
            k2z = k2 - zero_key
            for k1, c1 in big._terms.items():
                k = k1 + k2z
                v = get(k, 0) + c1 * c2
                out[k] = v
        pure = self._radial_free and other._radial_free
        return RadialExpr._make(self.nx, self.ny, out, self._den * other._den,
                                radial_free_hint=pure)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------------

    def _slice_map(self, mask: int, rule: Callable[[int], list[tuple[int, int]]],
                   radial_free_hint: bool = False) -> "RadialExpr":
        """The image of an operator that maps each term by the bit slice ``key & mask``.

        ``rule(s)`` gives slice ``s``'s ``(key delta, factor)`` pairs, and a term
        ``c`` at ``key`` adds ``c * factor`` at ``key + delta`` for each.  It runs
        once per distinct slice, in the order the terms first show it, and
        raises ``RadialOverflow`` where a pair would leave a packed field.
        """
        table: dict[int, list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        get = out.get
        for key, c in self._terms.items():
            pairs = table.get(s := key & mask)
            if pairs is None:
                pairs = table[s] = rule(s)
            for delta, f in pairs:
                k2 = key + delta
                out[k2] = get(k2, 0) + c * f
        return RadialExpr._make(self.nx, self.ny, out, self._den, radial_free_hint)

    def partial(self, group: VarGroup, i: int) -> "RadialExpr":
        """Exact partial derivative in coordinate i of the given group."""
        shifts, rad_shift, n, mask = self._lay.group(group)
        if not 0 <= i < n:
            raise ValueError(f"coordinate index {i} out of range for group of size {n}")
        at = shifts[i]

        def rule(s: int) -> list[tuple[int, int]]:
            e = (s >> at) & _EXP_MASK
            pairs = [(-(1 << at), e)] if e else []
            field = (s >> rad_shift) & _RAD_MASK
            if field != _RAD_BIAS:
                # x_i^e |x|^p also gives p x_i^(e+1) |x|^(p-2); a radial
                # field below 2 holds p < _RAD_MIN + 2
                if field < 2 or e == _EXP_MASK:
                    raise RadialOverflow(
                        f"partial derivative d/d{group}{i} would leave a packed exponent field")
                pairs.append(((1 << at) - (2 << rad_shift), field - _RAD_BIAS))
            return pairs

        return self._slice_map(mask, rule, self._radial_free)

    def laplacian(self, group: VarGroup) -> "RadialExpr":
        """Sum of second partials over every coordinate of the group.

        Per term x^a |x|^p the radial rule collapses to a two-branch update:
        sum_i a_i(a_i-1) x^(a-2e_i) |x|^p  +  p(2|a| + N + p - 2) x^a |x|^(p-2).
        """
        shifts, rad_shift, n, mask = self._lay.group(group)

        def rule(s: int) -> list[tuple[int, int]]:
            pairs = []
            tot = 0
            for at in shifts:
                e = (s >> at) & _EXP_MASK
                tot += e
                if e >= 2:
                    pairs.append((-(2 << at), e * (e - 1)))
            field = (s >> rad_shift) & _RAD_MASK
            p = field - _RAD_BIAS
            f = p * (2 * tot + n + p - 2)
            if f:
                if field < 2:  # p < _RAD_MIN + 2
                    raise RadialOverflow(f"Laplacian in {group} would lower |{group}|^{p} "
                                         "below the packed radial range")
                pairs.append((-(2 << rad_shift), f))
            return pairs

        return self._slice_map(mask, rule, self._radial_free)

    def dir_deriv(self) -> "RadialExpr":
        """The operator <y, grad_x>: sum_j y_j * d/dx_j."""
        if self.nx != self.ny:
            raise ValueError("dir_deriv pairs coordinates; group sizes must match")
        lay = self._lay
        fields = tuple(zip(lay.x_shifts, lay.y_shifts))

        def rule(s: int) -> list[tuple[int, int]]:
            # y_j d/dx_j takes x_j^e |x|^p to e x_j^(e-1) y_j |x|^p + p x_j^(e+1) y_j |x|^(p-2);
            # the |x| field is the lowest, so lowering p by two subtracts 2
            p = (s & _RAD_MASK) - _RAD_BIAS
            if p and p - 2 < _RAD_MIN:
                raise RadialOverflow("<y,grad_x> would leave a packed exponent field")
            pairs = []
            for sx, sy in fields:
                ex = (s >> sx) & _EXP_MASK
                ey = (s >> sy) & _EXP_MASK
                if (ey == _EXP_MASK and (ex or p)) or (ex == _EXP_MASK and p):
                    raise RadialOverflow("<y,grad_x> would leave a packed exponent field")
                if ex:
                    pairs.append(((1 << sy) - (1 << sx), ex))
                if p:
                    pairs.append(((1 << sx) + (1 << sy) - 2, p))
            return pairs

        return self._slice_map(lay.pair_mask, rule, self._radial_free)

    def kelvin(self, group: VarGroup = "x") -> "RadialExpr":
        """Kelvin inversion in the given group: f -> |x|^(1-n) f(x/|x|^2).

        Termwise, m(x)|x|^p with deg m = d maps to m(x)|x|^(1-n-2d-p) where
        the ambient space is R^(n+1), i.e. n = group size - 1.
        """
        shifts, rad_shift, nvars, mask = self._lay.group(group)

        def rule(s: int) -> list[tuple[int, int]]:
            d = sum((s >> at) & _EXP_MASK for at in shifts)
            p = ((s >> rad_shift) & _RAD_MASK) - _RAD_BIAS
            p2 = (2 - nvars) - 2 * d - p
            if not (_RAD_MIN <= p2 <= _RAD_MAX):
                raise RadialOverflow(f"Kelvin image radial power {p2} out of range")
            return [((p2 - p) << rad_shift, 1)]

        return self._slice_map(mask, rule)

    # -- structure ----------------------------------------------------------

    def homogeneous_degree(self, group: VarGroup) -> int | None:
        """Common (monomial + radial) degree in the group, or None when mixed.

        The zero expression has no distinguished degree and returns None.
        """
        shifts, rad_shift, _, mask = self._lay.group(group)
        # a term's degree depends on its group slice only: decode each distinct one once
        degrees = {((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
                   + sum((key >> s) & _EXP_MASK for s in shifts)
                   for key in {key & mask for key in self._terms}}
        return degrees.pop() if len(degrees) == 1 else None

    def _degrees(self) -> tuple[int, int]:
        """The largest monomial degree of a term in x and in y, 0 when none;
        each distinct group slice is decoded once, and the pair is cached."""
        if self._deg is None:
            self._deg = tuple(
                max((sum((s >> at) & _EXP_MASK for at in shifts)
                     for s in {key & mask for key in self._terms}), default=0)
                for shifts, _, _, mask in self._lay.groups.values())
        return self._deg

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
            for coord, s in zip(ptx + pty, lay.x_shifts + lay.y_shifts):
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

    def eval_float_batch(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Float values at the rows of X (s, nx), with y fixed at one point.

        The expression must be radial-free, and ``y`` is one point of the y
        group.  Terms are summed in sorted key order, so the value depends
        on the expression and not on the construction that built it.  This
        is the one-job call of :func:`_float_plan`.
        """
        return _float_plan([(self, y)])(X)[0]

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

    def _order(self) -> tuple[list, list, list, dict[int, int], dict[int, int], int, int]:
        """The canonical order of the support, the one sort rule of every serialisation.

        Returns the distinct x and y exponent tuples and ``(px, py)`` pairs,
        each sorted, and the rank tables of :meth:`_by_rank`: a key's rank is
        ``(i * w + j) * nr + l`` (``w`` y tuples, ``nr`` pairs), so sorted
        ranks are the ``(xexp, yexp, px, py)`` order.  The x exponents, y
        exponents and radial pair are one bit slice of a key each, unpacked
        once per distinct value.  A key is its y slice over its x-and-radial
        part, and the few distinct parts are split into their x and radial
        slices once each, so a rank is the sum of one offset per part and
        one per y slice.  No coefficient is read: the order serves every
        expression whose keys are among this one's, each ranking its own
        numerators; a key outside them raises ``KeyError``.
        """
        base = 2 * _RAD_BITS
        yshift = base + _EXP_BITS * self.nx
        lowmask, rmask = (1 << yshift) - 1, (1 << base) - 1
        terms = self._terms

        def offsets(slices: set[int], fields: list, step: int) -> tuple[list, dict[int, int]]:
            values = {s: tuple(((s >> at) & mask) - bias for at, mask, bias in fields)
                      for s in slices}
            order = sorted(slices, key=values.__getitem__)
            return [values[s] for s in order], {s: r * step for r, s in enumerate(order)}

        lows = {key & lowmask for key in terms}
        radials, roff = offsets({lo & rmask for lo in lows},
                                [(0, _RAD_MASK, _RAD_BIAS), (_RAD_BITS, _RAD_MASK, _RAD_BIAS)], 1)
        yexps, yoff = offsets({key >> yshift for key in terms},
                              [(_EXP_BITS * i, _EXP_MASK, 0) for i in range(self.ny)], len(radials))
        xexps, xoff = offsets({lo >> base for lo in lows},
                              [(_EXP_BITS * i, _EXP_MASK, 0) for i in range(self.nx)],
                              len(yexps) * len(radials))
        loff = {lo: xoff[lo >> base] + roff[lo & rmask] for lo in lows}
        return xexps, yexps, radials, loff, yoff, lowmask, yshift

    def _by_rank(self, order: tuple) -> tuple[list[int], dict[int, int]]:
        """The sorted ranks of this expression's terms under ``order`` (an
        :meth:`_order` of a support holding its keys) and each numerator by
        its rank."""
        loff, yoff, lowmask, yshift = order[3:]
        by_rank = {loff[key & lowmask] + yoff[key >> yshift]: num
                   for key, num in self._terms.items()}
        return sorted(by_rank), by_rank

    def _rows(self, order: tuple | None = None) -> Iterator[
            tuple[tuple[int, ...], tuple[int, ...], int, int, int, int]]:
        """``(xexp, yexp, px, py, num, den)`` per term in canonical order, in
        lowest terms; ``order`` is :meth:`_order` of a support holding this
        expression's keys, when the caller shares one; without it this
        expression ranks its own."""
        order = order or self._order()
        xexps, yexps, radials = order[:3]
        nr, w, den = len(radials), len(yexps), self._den
        ranks, by_rank = self._by_rank(order)
        for r in ranks:
            g = math.gcd(num := by_rank[r], den)
            yield xexps[r // (w * nr)], yexps[r // nr % w], *radials[r % nr], num // g, den // g

    def _json_chunks(self, order: tuple | None = None) -> Iterator[str]:
        """:meth:`to_json` in pieces of ``_JSON_CHUNK`` terms; ``order`` is as
        in :meth:`_rows`.  A term is its coefficient then the texts of its
        radial pair, x and y exponents, each formatted once per distinct
        value; a gcd is taken only when den != 1."""
        order = order or self._order()
        xexps, yexps, radials = order[:3]
        nr, w, den = len(radials), len(yexps), self._den
        wnr = w * nr
        ranks, by_rank = self._by_rank(order)
        del order  # the rank tables are freed before the text is built, unless a caller shares them
        rtext = [f',"px":{px},"py":{py},"xexp":[' for px, py in radials]
        xtext = [",".join(map(str, e)) + '],"yexp":[' for e in xexps]
        ytext = [",".join(map(str, e)) + "]}" for e in yexps]
        yield f'{{"nx":{self.nx},"ny":{self.ny},"terms":['
        for lo in range(0, len(ranks), _JSON_CHUNK):
            part = ranks[lo:lo + _JSON_CHUNK]
            if den == 1:
                rows = [f'{{"den":"1","num":"{by_rank[r]}"'
                        f'{rtext[r % nr]}{xtext[r // wnr]}{ytext[r // nr % w]}' for r in part]
            else:
                rows = [f'{{"den":"{den // g}","num":"{num // g}"'
                        f'{rtext[r % nr]}{xtext[r // wnr]}{ytext[r // nr % w]}'
                        for r in part for num in (by_rank[r],) for g in (math.gcd(num, den),)]
            yield ("," if lo else "") + ",".join(rows)
        yield "]}"

    def sorted_terms(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int, Fraction]]:
        """Terms as (xexp, yexp, px, py, coefficient) in canonical order."""
        return [(xe, ye, px, py, Fraction(num, den))
                for xe, ye, px, py, num, den in self._rows()]

    def to_json(self) -> str:
        """The canonical serialisation that :meth:`digest` hashes: the bytes of
        ``json.dumps({"nx": nx, "ny": ny, "terms": rows}, sort_keys=True,
        separators=(",", ":"))``, one ``{"den","num","px","py","xexp","yexp"}`` row
        per term of :meth:`sorted_terms`, its Fraction as decimal strings."""
        return "".join(self._json_chunks())

    def digest(self, order: tuple | None = None) -> str:
        """sha256 of :meth:`to_json`, fed one chunk at a time; ``order`` is
        as in :meth:`_rows`."""
        if self._digest is None:
            h = hashlib.sha256()
            for chunk in self._json_chunks(order):
                h.update(chunk.encode())
            self._digest = h.hexdigest()
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


# -- float evaluation ---------------------------------------------------------

def _log2_cap(u: float, h: float) -> float:
    """log2 of max(1, u**h) for u >= 0; inf when u is inf or NaN."""
    if u == 0.0:
        return 0.0
    if not 0.0 < u < math.inf:
        return math.inf
    return max(0.0, h * math.log2(u))


def _powers(base: np.ndarray, top: int) -> Iterator[np.ndarray]:
    """Yield base, base^2, ..., base^top, each base^(d-1) * base: correctly
    rounded products, bit for bit those of pure Python on any CPU, unlike
    numpy's SIMD-dispatched ``x ** e`` for e >= 3."""
    power = base
    yield power
    for _ in range(top - 1):
        power = power * base
        yield power


def _float_plan(jobs: Sequence[tuple[RadialExpr, np.ndarray]]
               ) -> Callable[[np.ndarray], list[np.ndarray]]:
    """Float evaluation of polynomials, each with its y group fixed at one point.

    ``jobs`` holds ``(expr, y)`` pairs: a radial-free expression and one
    point of its y group (``ny`` values, or one row of them); anything else
    raises ``ValueError``.  What depends on the jobs alone is done once,
    here: each term's value c/den, its x factors and its y powers.  The
    returned function takes an X of s rows and returns, for each job, its s
    values.  Each call builds one table of the distinct x powers of all
    jobs, shared by every term, from one :func:`_powers` chain per column
    (x_i^d = x_i^(d-1) * x_i, never ``**``); y powers are the same chains.
    Each term starts from its value and multiplies by its x powers, then
    its y powers, in coordinate order, and the terms are summed in sorted
    key order, so the values are those of a term-by-term evaluation, bit
    for bit, and do not depend on the construction that built the
    expression.  Every step is an IEEE multiply or add, so neither do they
    depend on the CPU or on numpy's SIMD dispatch.

    A term with an exact 0.0 y factor (a zero pole coordinate) is skipped.
    A total starts at +0.0 and so is never -0.0, and adding +0.0 or -0.0 to
    it leaves its bits unchanged, so the skip is exact when the term is a
    signed zero and not NaN.  It is taken only when a bound on every partial
    product of the term, from its value, its y factors and the largest
    |x_i| of the call's rows, is below 2^1000: no factor or partial product
    can then be inf or NaN, so no inf * 0 is hidden.  That covers every
    partial power of a chain: |x_i^d| <= max(1, |x_i|)^e for d <= e, up to
    a rounding factor far below the margin from 2^1000 to 2^1024.
    """
    import numpy as np

    # per job, per term: its value, x factors (column, exponent), y powers
    # (one-element arrays, chained by the same products as a column) and,
    # for a term with a 0.0 y power, the log2 bound of its value and y
    # powers and its x degree
    plans = []
    for expr, y in jobs:
        if not expr._radial_free:
            raise ValueError("float evaluation needs a polynomial (no radial powers)")
        y = np.array(y, dtype=float)  # a copy: a y power may be a view of it
        if y.shape not in ((expr.ny,), (1, expr.ny)):
            raise ValueError(f"y must be one point of {expr.ny} coordinates, "
                             f"got an array of shape {y.shape}")
        y = y.reshape(-1)
        lay = expr._lay
        den = float(expr._den)
        plan = []
        for key, c in sorted(expr._terms.items()):
            value = c / den
            x_factors = [(i, e) for i, s in enumerate(lay.x_shifts)
                         if (e := (key >> s) & _EXP_MASK)]
            y_powers = [[*_powers(y[j:j + 1], e)][-1] for j, s in enumerate(lay.y_shifts)
                        if (e := (key >> s) & _EXP_MASK)]
            bound = None
            if any(p[0] == 0.0 for p in y_powers):
                bound = (_log2_cap(abs(value), 1.0)
                         + sum(_log2_cap(abs(float(p[0])), 1.0) for p in y_powers),
                         sum(e for _, e in x_factors))
            plan.append((value, x_factors, y_powers, bound))
        plans.append(plan)
    skips = any(term[3] for plan in plans for term in plan)

    def evaluate(X: np.ndarray) -> list[np.ndarray]:
        X = np.asarray(X, dtype=float)
        rows = X.shape[0]
        kept = plans
        if rows and skips:
            xmax = max(float(X.max()), -float(X.min()))
            kept = [[term for term in plan
                     if term[3] is None or term[3][0] + _log2_cap(xmax, term[3][1]) >= 1000]
                    for plan in plans]
        totals = [np.zeros(rows) for _ in kept]
        v = np.empty(rows)
        needed = {f for plan in kept for term in plan for f in term[1]}
        top: dict[int, int] = {}
        for i, e in needed:
            top[i] = max(top.get(i, 0), e)
        # x_i^1 is copied only where a term takes it; a power no term takes is
        # dropped once the next one is built, so no peak above the needed powers
        table = {}
        for i, e in top.items():
            base = X[:, i].copy() if (i, 1) in needed else X[:, i]
            for d, p in enumerate(_powers(base, e), 1):
                if (i, d) in needed:
                    table[i, d] = p
        for total, plan in zip(totals, kept):
            for value, x_factors, y_powers, _ in plan:
                v.fill(value)
                for f in x_factors:
                    np.multiply(v, table[f], out=v)
                for p in y_powers:
                    np.multiply(v, p, out=v)
                total += v
        return totals

    return evaluate


# -- module-level constructors ----------------------------------------------

def from_terms(nx: int, ny: int,
               items: Iterable[tuple[Sequence[int], Sequence[int], int, int, Fraction]]) -> RadialExpr:
    """Build an expression from (xexp, yexp, px, py, coefficient) entries."""
    lay = _layout(nx, ny)
    acc: dict[int, Fraction] = {}
    for xe, ye, px, py, coef in items:
        key = lay.pack(xe, ye, px, py)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(coef)
    den = 1
    for coef in acc.values():
        den = den * coef.denominator // math.gcd(den, coef.denominator)
    return RadialExpr._make(nx, ny, {k: int(coef * den) for k, coef in acc.items()}, den)


def constant(c, nx: int, ny: int) -> RadialExpr:
    c = Fraction(c)
    if c == 0:
        return RadialExpr.zero(nx, ny)
    lay = _layout(nx, ny)
    return RadialExpr._make(nx, ny, {lay.zero_key: c.numerator}, c.denominator,
                            radial_free_hint=True)


def coordinate(group: VarGroup, i: int, nx: int, ny: int) -> RadialExpr:
    lay = _layout(nx, ny)
    shifts, _, n, _ = lay.group(group)
    if not 0 <= i < n:
        raise ValueError(f"coordinate index {i} out of range")
    key = lay.zero_key | (1 << shifts[i])
    return RadialExpr._make(nx, ny, {key: 1}, 1, radial_free_hint=True)


def norm_power(group: VarGroup, p: int, nx: int, ny: int) -> RadialExpr:
    """|x|^p (or |y|^p) as an expression; even nonnegative p absorbs to a polynomial."""
    lay = _layout(nx, ny)
    _, rad_shift, _, _ = lay.group(group)
    if not _RAD_MIN <= p <= _RAD_MAX:
        # the biased field would carry into its neighbour
        raise RadialOverflow(f"radial exponent out of range: |{group}|^{p}")
    return RadialExpr._make(nx, ny, {lay.zero_key + (p << rad_shift): 1}, 1)


def quadratic_form(group: VarGroup, nx: int, ny: int) -> RadialExpr:
    """Q_x = sum_i x_i^2 (resp. Q_y) as a polynomial."""
    lay = _layout(nx, ny)
    shifts, _, _, _ = lay.group(group)
    terms = {lay.zero_key | (2 << s): 1 for s in shifts}
    return RadialExpr._make(nx, ny, terms, 1, radial_free_hint=True)


def inner_xy(nx: int) -> RadialExpr:
    """The pairing <x, y> = sum_i x_i y_i over R^nx x R^nx."""
    lay = _layout(nx, nx)
    terms = {lay.zero_key | (1 << sx) | (1 << sy): 1
             for sx, sy in zip(lay.x_shifts, lay.y_shifts)}
    return RadialExpr._make(nx, nx, terms, 1, radial_free_hint=True)
