"""Compact exact algebra for rotation-paired expressions.

Everything the kernel routes manipulate lies in the subalgebra generated by
the three invariants a = <x,y>, |x| and |y|, and that subalgebra is closed
under both group Laplacians, the directional operator <y, grad_x> and the
Kelvin inversion.  A :class:`ZonalInvariant` stores terms a^A |x|^R |y|^S
keyed by the integer triple (A, R, S), which is a faithful (and canonical)
representation since the three generators are algebraically independent for
group size >= 2.

Every route input is written here first.  It reaches coordinates through
:meth:`ZonalInvariant.to_radialexpr`, the one expander from invariants to a
:class:`~zonalkit.radialexpr.RadialExpr`, or through
:meth:`zonalkit.orbitform.OrbitForm.from_invariant`, which runs the same
Horner loop (:meth:`ZonalInvariant._horner`) with one coefficient per orbit
of the pair permutations.  The expander also fixes y at a pole, a rational
point with |y| = 1 as in the paper's kernels Z_k(x, y): <x,y> becomes a
linear form in x, and Q_y and every |y|^s become 1.  In coordinates the
loop runs into one dict of integer numerators over one denominator per
parity class, so a constant that multiplies a kernel is best applied to the
few invariant coefficients (:meth:`ZonalInvariant.scale`) before expanding,
not to the expanded numerators.  The invariant form also carries the deepest
iterated-Laplacian cells on its own: a coordinate expansion of three double
Laplacians in R^9 would need on the order of 10^8 monomials, while the
invariant form keeps tens of terms.  The closed-form operator rules used
here are cross-validated monomial by monomial against the coordinate engine
in the test suite.

Modules depend one way: radialexpr <- zonalalg <- gegenbauer <-
cliffordalg / zonalroutes <- verify, with the orbit form between the
invariant algebra and the routes: zonalalg <- orbitform <- zonalroutes.

Operator rules on a^A |x|^R |y|^S over R^N x R^N:

    Lap_x  ->  A(A-1) (A-2, R, S+2)  +  R(2A + N + R - 2) (A, R-2, S)
    Lap_y  ->  A(A-1) (A-2, R+2, S)  +  S(2A + N + S - 2) (A, R, S-2)
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Sequence

from . import radialexpr as rx
from .ratnum import binomial

Key = tuple[int, int, int]


class ZonalInvariant:
    """Exact expression sum c_(A,R,S) <x,y>^A |x|^R |y|^S over R^N x R^N."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[Key, Fraction] | None = None):
        if dim < 2:
            raise ValueError("group size must be at least 2")
        self.dim = dim
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    # -- ring ---------------------------------------------------------------

    def _check(self, other: "ZonalInvariant") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "ZonalInvariant") -> "ZonalInvariant":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return ZonalInvariant(self.dim, out)

    def __sub__(self, other: "ZonalInvariant") -> "ZonalInvariant":
        return self + other.scale(-1)

    def scale(self, c) -> "ZonalInvariant":
        c = Fraction(c)
        return ZonalInvariant(self.dim, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "ZonalInvariant") -> "ZonalInvariant":
        self._check(other)
        out: dict[Key, Fraction] = {}
        for (a1, r1, s1), c1 in self.terms.items():
            for (a2, r2, s2), c2 in other.terms.items():
                k = (a1 + a2, r1 + r2, s1 + s2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return ZonalInvariant(self.dim, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZonalInvariant):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- operators ------------------------------------------------------------

    def lap_x(self) -> "ZonalInvariant":
        return self._lap("x")

    def lap_y(self) -> "ZonalInvariant":
        return self._lap("y")

    def _lap(self, group: rx.VarGroup) -> "ZonalInvariant":
        """Lap_x or Lap_y by the module rules: ``own`` maps (A, R, S) to (A, U, V),
        U the exponent of the group's norm and V the other's, and back."""
        N = self.dim
        own = (lambda A, U, V: (A, U, V)) if group == "x" else (lambda A, U, V: (A, V, U))
        out: dict[Key, Fraction] = {}
        for (A, R, S), c in self.terms.items():
            _, U, V = own(A, R, S)
            if A >= 2:
                k = own(A - 2, U, V + 2)
                out[k] = out.get(k, Fraction(0)) + c * A * (A - 1)
            f = U * (2 * A + N + U - 2)
            if f:
                k = own(A, U - 2, V)
                out[k] = out.get(k, Fraction(0)) + c * f
        return ZonalInvariant(N, out)

    # -- conversion / reporting -----------------------------------------------

    def to_radialexpr(self, y: Sequence | None = None) -> rx.RadialExpr:
        """Expand into coordinates (feasible sizes only), by :meth:`_horner`.

        Each parity group's polynomial is summed into one dict of integer
        numerators over one denominator: a Horner level multiplies it by
        <x,y> with integer coefficients into a fresh dict, and each
        c Q_x^i Q_y^j is added into it from Q powers built once per call.
        Cancelled numerators are deleted once, before the dict becomes a
        :class:`~zonalkit.radialexpr.RadialExpr`; only the radial floor
        |x|^r0 |y|^s0 and the sum over groups use ``RadialExpr`` arithmetic.
        The ``RadialOverflow`` at the packed degree cap is raised before each
        step that could pass it: a level raises the x and y degrees by one,
        and adding c Q_x^i Q_y^j lifts them to at least 2i and 2j.  For
        N >= 2, <x,y>, Q_x and Q_y are algebraically independent, so no sum
        cancels its top degree: these are the degrees the same plan written
        with ``RadialExpr`` products and sums reaches.

        With a pole ``y`` = p, a rational point with |p| = 1 such as e_0 or
        (3/5, 4/5, 0, ...), the y group is fixed at p during the expansion:
        <x,y> becomes the linear form <x,p>, and Q_y and the y radial floor
        |y|^s0 are 1, odd and negative s0 included, so no y monomial is ever
        built.  The result equals the term-by-term substitution of p into
        ``to_radialexpr()``: the same terms over the same denominator.  Any
        other point raises ``ValueError`` before the expansion starts.
        """
        n = self.dim
        lay = rx._layout(n, n)
        if y is None:
            # <x,y> raises one x and one y field per coordinate pair
            inner = [((1 << sx) + (1 << sy), 1) for sx, sy in zip(lay.x_shifts, lay.y_shifts)]
            d = 1
        else:
            if len(y) != n:
                raise ValueError(f"point has {len(y)} coordinates, group needs {n}")
            pt = [Fraction(v) for v in y]
            if sum(v * v for v in pt) != 1:
                raise ValueError("y must be a pole, a point with |y| = 1; "
                                 f"got ({', '.join(map(str, pt))})")
            # <x,p> = (1/d) sum P_i x_i with integers P_i
            d = math.lcm(*(v.denominator for v in pt))
            inner = [(1 << s, int(v * d)) for s, v in zip(lay.x_shifts, pt) if v]
        # one factor of <x,y> raises the x degree by 1, and the y degree unless y is fixed
        step_y = int(y is None)
        den0 = math.lcm(*(c.denominator for c in self.terms.values()))
        powers = {"x": [{0: 1}], "y": [{0: 1}]}

        def power(group: rx.VarGroup, i: int) -> dict[int, int]:
            """Q^i as {key offset: coefficient}, one factor of Q at a time."""
            table = powers[group]
            if 2 * i > rx.MAX_DEGREE:
                raise rx.RadialOverflow("product would exceed the packed degree cap")
            shifts = [2 << s for s in lay.group(group)[0]]
            while len(table) <= i:
                out: dict[int, int] = {}
                get = out.get
                for key, c in table[-1].items():
                    for s in shifts:
                        out[key + s] = get(key + s, 0) + c
                table.append(out)
            return table[i]

        def times_inner(acc: _Numerators) -> _Numerators:
            if acc.degx + 1 > rx.MAX_DEGREE or acc.degy + step_y > rx.MAX_DEGREE:
                raise rx.RadialOverflow("product would exceed the packed degree cap")
            acc.degx += 1
            acc.degy += step_y
            terms = acc.terms
            # the first shift maps keys one to one; a coefficient 1 is not multiplied
            (shift, c), *rest = inner
            out = dict(zip(map(shift.__add__, terms),
                           terms.values() if c == 1 else map(c.__mul__, terms.values())))
            get = out.get
            for shift, c in rest:
                for key, v in (terms.items() if c == 1
                               else zip(terms, map(c.__mul__, terms.values()))):
                    key += shift
                    out[key] = get(key, 0) + v
            acc.terms = out
            acc.den *= d
            return acc

        def add_quadratic(acc: _Numerators, i: int, j: int, c: Fraction) -> _Numerators:
            qx = power("x", i)
            if y is None:
                qy = power("y", j)
                acc.degy = max(acc.degy, 2 * j)
            else:
                qy = powers["y"][0]  # Q_y = 1 at a pole
            acc.degx = max(acc.degx, 2 * i)
            # acc.den is den0 times powers of d, so c's denominator divides it
            num = c.numerator * (acc.den // c.denominator)
            terms = acc.terms
            get = terms.get
            for kx, vx in qx.items():
                base, f = lay.zero_key + kx, num * vx
                for key, v in zip(map(base.__add__, qy), map(f.__mul__, qy.values())):
                    terms[key] = get(key, 0) + v
            return acc

        parts = []
        for r0, s0, acc in self._horner(lambda: _Numerators(den0), times_inner, add_quadratic):
            # deleted in place, so _make's zero scan finds none and copies nothing
            for key in [key for key, v in acc.terms.items() if not v]:
                del acc.terms[key]
            out = rx.RadialExpr._make(n, n, acc.terms, acc.den, radial_free_hint=True)
            if r0:
                out = out * rx.norm_power("x", r0, n, n)
            if s0 and y is None:
                out = out * rx.norm_power("y", s0, n, n)
            parts.append(out)
        if not parts:
            return rx.RadialExpr.zero(n, n)
        return sum(parts[1:], parts[0])

    def _horner(self, start, times_inner, add_quadratic) -> list:
        """The one Horner scheme from invariants to a polynomial representation.

        Terms are grouped by the parities of R and S.  Within a group every
        |x|^R |y|^S is |x|^r0 |y|^s0 Q_x^i Q_y^j for the group's radial floor
        (r0, s0), so the group is one polynomial times one radial monomial.
        The polynomial is built by Horner in a, from ``start()``, the empty
        sum: going down in A, a nonzero ``out`` becomes ``times_inner(out)``,
        then ``add_quadratic(out, i, j, c)`` adds each c Q_x^i Q_y^j of the
        level and returns the sum, so every product has a small factor or
        factors in disjoint variables.  Returns one ``(r0, s0, polynomial)``
        per group; the coordinate expander and the orbit form share this
        loop.
        """
        groups: dict[tuple[int, int], list[tuple[Key, Fraction]]] = {}
        for key, c in self.terms.items():
            groups.setdefault((key[1] & 1, key[2] & 1), []).append((key, c))
        parts = []
        for members in groups.values():
            r0 = _radial_floor(R for (_, R, _), _ in members)
            s0 = _radial_floor(S for (_, _, S), _ in members)
            by_a: dict[int, list[tuple[int, int, Fraction]]] = {}
            for (A, R, S), c in members:
                by_a.setdefault(A, []).append(((R - r0) // 2, (S - s0) // 2, c))
            out = start()
            for A in range(max(by_a), -1, -1):
                if out:
                    out = times_inner(out)
                for i, j, c in by_a.get(A, ()):
                    out = add_quadratic(out, i, j, c)
            parts.append((r0, s0, out))
        return parts

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        return sorted(self.terms.items())

    def to_json(self) -> str:
        data = [
            {"a": A, "rx": R, "ry": S, "num": str(c.numerator), "den": str(c.denominator)}
            for (A, R, S), c in self.sorted_terms()
        ]
        return json.dumps({"dim": self.dim, "terms": data}, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def __repr__(self) -> str:
        return f"<ZonalInvariant dim={self.dim} terms={len(self.terms)}>"


class _Numerators:
    """One group's Horner sum in coordinates: integer numerators over ``den``.

    ``terms`` maps packed keys to numerators and may hold zeros until the sum
    becomes a ``RadialExpr``; ``degx`` and ``degy`` bound the degrees of its
    terms, read before each step to guard the packed degree cap.
    """

    __slots__ = ("terms", "den", "degx", "degy")

    def __init__(self, den: int):
        self.terms: dict[int, int] = {}
        self.den = den
        self.degx = self.degy = 0

    def __bool__(self) -> bool:
        return any(self.terms.values())


def _radial_floor(powers) -> int:
    """Lowest radial power of one parity class that leaves the rest even and >= 0.

    That is the minimum when it is negative and the parity bit otherwise.
    """
    low = min(powers)
    return low if low < 0 else low & 1


# -- constructors -------------------------------------------------------------

def monomial(dim: int, A: int, R: int, S: int, coeff=1) -> ZonalInvariant:
    return ZonalInvariant(dim, {(A, R, S): Fraction(coeff)})


def _xyc_power_part(k: int, dim: int, odd: bool) -> ZonalInvariant:
    """Scalar part (odd=False) or coefficient of v (odd=True) of (a + v)^k.

    x y^c = a + v with a = <x,y> and v^2 = a^2 - |x|^2|y|^2 a scalar, so
    (a + v)^k = sum_r C(k, r) a^(k-r) v^r, and the even (odd) r give the
    scalar part (the coefficient of v) with v^r = v^odd (v^2)^h.
    """
    out: dict[Key, Fraction] = {}
    for h in range((k - odd) // 2 + 1):
        c0 = binomial(k, 2 * h + odd)
        for i in range(h + 1):
            # (a^2 - |x|^2|y|^2)^h expanded
            c = c0 * binomial(h, i) * (-1) ** (h - i)
            key = (k - odd - 2 * h + 2 * i, 2 * (h - i), 2 * (h - i))
            out[key] = out.get(key, Fraction(0)) + c
    return ZonalInvariant(dim, out)


def xyc_power_real_invariant(k: int, dim: int) -> ZonalInvariant:
    """Real part of the k-th power of x y^c in invariant form.

    For k < 0 this is the Laurent form ((x y^c)^|k|)_0 (|x||y|)^(2k), since
    (x y^c)^-1 = y x^c / (|x|^2 |y|^2) and y x^c has the same scalar part.
    """
    if k < 0:
        return xyc_power_real_invariant(-k, dim) * monomial(dim, 0, 2 * k, 2 * k)
    return _xyc_power_part(k, dim, odd=False)


def xyc_spherical_derivative_invariant(k: int, dim: int) -> ZonalInvariant:
    """The coefficient of v in (x y^c)^k = (a + v)^k, k >= 1, in invariant form."""
    if k < 1:
        raise ValueError("spherical derivative of a power needs k >= 1")
    return _xyc_power_part(k, dim, odd=True)
