"""Clifford algebra R_n arithmetic at blade level, and paravector machinery.

Blades are bitmasks over the generators e_1..e_n (empty mask = scalar part)
with the product sign computed by the reordering/contraction rule for
e_j e_k + e_k e_j = -2 delta_jk.  Coefficients may be exact rationals
(constant multivectors) or :class:`~zonalkit.radialexpr.RadialExpr` values
(multivector fields over the paravector coordinates), which is what the
Dirac / generalised Cauchy-Riemann operators act on.

Powers of the paravector product x y^c are written in the invariants:
x y^c = a + v with a = <x,y> scalar and v^2 = a^2 - Q_x Q_y, so every power
stays in span{1, v}.  Its scalar part and its coefficient of v are built in
:mod:`zonalkit.zonalalg` and reach coordinates through
``ZonalInvariant.to_radialexpr``.  The blade-level algebra stays as the
independent certificate of that formula at small n, where the 2^n component
count is harmless.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Literal, Union

from . import radialexpr as rx
from . import zonalalg as za

Coeff = Union[Fraction, rx.RadialExpr]
CROperator = Literal["D", "Dbar"]


def _is_zero(c: Coeff) -> bool:
    if isinstance(c, rx.RadialExpr):
        return c.is_zero()
    return c == 0


def blade_sign(a: int, b: int) -> int:
    """Sign of e_A e_B under reordering with e_i^2 = -1; result blade is a ^ b."""
    swaps = 0
    bb = b
    while bb:
        j = (bb & -bb).bit_length() - 1
        swaps += (a >> (j + 1)).bit_count()
        bb &= bb - 1
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:
        sign = -sign
    return sign


def conjugation_sign(blade: int) -> int:
    """Clifford conjugation multiplies a grade-g blade by (-1)^(g(g+1)/2)."""
    g = blade.bit_count()
    return -1 if (g * (g + 1) // 2) & 1 else 1


class Multivector:
    """Blade-indexed element of R_n; immutable by convention."""

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: dict[int, Coeff]):
        self.n = n
        self.comps = {b: c for b, c in comps.items() if not _is_zero(c)}
        top = (1 << n) - 1
        for b in self.comps:
            if b & ~top:
                raise ValueError(f"blade {b:#x} uses generators beyond e_{n}")

    # -- algebra --------------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.n != other.n:
            raise ValueError(f"generator count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out = dict(self.comps)
        for b, c in other.comps.items():
            out[b] = out[b] + c if b in out else c
        return Multivector(self.n, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + other.scale(-1)

    def scale(self, c) -> "Multivector":
        return Multivector(self.n, {b: v * c for b, v in self.comps.items()})

    def __mul__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        out: dict[int, Coeff] = {}
        for b1, c1 in self.comps.items():
            for b2, c2 in other.comps.items():
                s = blade_sign(b1, b2)
                b = b1 ^ b2
                v = c1 * c2
                if s < 0:
                    v = v * -1
                out[b] = out[b] + v if b in out else v
        return Multivector(self.n, out)

    def power(self, k: int) -> "Multivector":
        if k < 0:
            raise ValueError("negative multivector powers are not supported")
        out = Multivector(self.n, {0: Fraction(1)})
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: e_i -> -e_i extended as an anti-automorphism."""
        out = {}
        for b, c in self.comps.items():
            out[b] = c * conjugation_sign(b)
        return Multivector(self.n, out)

    # -- structure --------------------------------------------------------------

    def scalar_part(self) -> Coeff:
        return self.comps.get(0, Fraction(0))

    def imaginary_part(self) -> "Multivector":
        """Everything but the scalar part (vector plus higher grades)."""
        return Multivector(self.n, {b: c for b, c in self.comps.items() if b})

    def map_coeffs(self, fn: Callable[[Coeff], Coeff]) -> "Multivector":
        return Multivector(self.n, {b: fn(c) for b, c in self.comps.items()})

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.comps == other.comps

    __hash__ = None  # type: ignore[assignment]

    def digest(self) -> str:
        """sha256 of ``json.dumps({"comps": …, "n": n}, sort_keys=True)``, streamed: per
        blade in bitmask order ``{"blade": [generators], "coeff": …}``, a Fraction as
        ``{"den": "…", "num": "…"}``, a RadialExpr as its ``to_json`` text with a space
        after each ``,`` and ``:``.  Exact: there those characters are only separators
        (the keys are fixed names, the values integers or decimal-digit strings)."""
        h = hashlib.sha256(b'{"comps": [')
        for i, b in enumerate(sorted(self.comps)):
            c, blade = self.comps[b], [j + 1 for j in range(self.n) if b >> j & 1]
            h.update(f'{", " if i else ""}{{"blade": {blade}, "coeff": '.encode())
            for chunk in (c._json_chunks() if isinstance(c, rx.RadialExpr)
                          else [f'{{"den":"{c.denominator}","num":"{c.numerator}"}}']):
                h.update(chunk.replace(",", ", ").replace(":", ": ").encode())
            h.update(b"}")
        h.update(f'], "n": {self.n}}}'.encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"<Multivector n={self.n} blades={len(self.comps)}>"


def scalar_mv(n: int, c: Coeff) -> Multivector:
    return Multivector(n, {0: c})


def basis_mv(n: int, i: int) -> Multivector:
    """The generator e_i, 1-indexed."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    return Multivector(n, {1 << (i - 1): Fraction(1)})


def paravector(n: int, coords: Iterable) -> Multivector:
    """c_0 + sum_i c_i e_i from n+1 coefficients (rationals or expressions)."""
    coords = list(coords)
    if len(coords) != n + 1:
        raise ValueError(f"paravector in R_{n} needs {n + 1} coefficients")
    comps: dict[int, Coeff] = {0: coords[0]}
    for i in range(1, n + 1):
        comps[1 << (i - 1)] = coords[i]
    return Multivector(n, comps)


def coordinate_paravector(group: rx.VarGroup, nx: int, ny: int) -> Multivector:
    """The identity paravector field x = x_0 + sum x_i e_i over RadialExpr coords."""
    nvars = nx if group == "x" else ny
    coords = [rx.coordinate(group, i, nx, ny) for i in range(nvars)]
    return paravector(nvars - 1, coords)


# -- generalised Cauchy-Riemann operators -------------------------------------


def _partial_field(f: Multivector, i: int) -> Multivector:
    return f.map_coeffs(lambda c: c.partial("x", i))


def dirac(f: Multivector) -> Multivector:
    """The vector-derivative sum_i e_i d/dx_i, generators acting on the left."""
    out = Multivector(f.n, {})
    for i in range(1, f.n + 1):
        out = out + basis_mv(f.n, i) * _partial_field(f, i)
    return out


def cr_operators(f: Multivector, which: CROperator) -> Multivector:
    """D = d/dx_0 - dirac or Dbar = d/dx_0 + dirac, applied to f.

    The left-multiplication convention makes D Dbar = -Laplacian on scalar
    fields, which the tests pin down.
    """
    d0 = _partial_field(f, 0)
    if which == "D":
        return d0 - dirac(f)
    if which == "Dbar":
        return d0 + dirac(f)
    raise ValueError(f"unknown operator {which!r}")


def laplacian_field(f: Multivector) -> Multivector:
    """Lap_x of every coefficient of ``f``."""
    return f.map_coeffs(lambda c: c.laplacian("x"))


# -- powers of x y^c ---------------------------------------------------------


def xyc_power_real(k: int, nvars: int) -> rx.RadialExpr:
    """((x y^c)^k)_0 symbolically; k < 0 gives the Laurent form over (Q_x Q_y)^k."""
    return za.xyc_power_real_invariant(k, nvars).to_radialexpr()


def xyc_spherical_derivative(k: int, nvars: int) -> rx.RadialExpr:
    """((x y^c)^k)'_s symbolically: the coefficient of v in (a + v)^k, k >= 1.

    Defined as the v-coefficient, which is pole-free even where the imaginary
    part vanishes (x, y parallel); no division by |v| ever happens.
    """
    return za.xyc_spherical_derivative_invariant(k, nvars).to_radialexpr()


def xyc_multivector(nvars: int) -> Multivector:
    """x y^c as a blade-level multivector field (for cross-validation at small n)."""
    x = coordinate_paravector("x", nvars, nvars)
    y = coordinate_paravector("y", nvars, nvars)
    return x * y.conjugate()


# -- slice-power monogenicity check --------------------------------------------


@dataclass(frozen=True)
class MonogenicityReport:
    """Which Cauchy-Riemann operators annihilate Lap^m x^k, recorded per case."""

    n: int
    k: int
    lap_power: int
    d_annihilates: bool
    dbar_annihilates: bool


def monogenicity_check(k: int, n: int) -> MonogenicityReport:
    """Apply Lap^((n-1)/2) to the paravector power x^k and test D and Dbar.

    n must be odd so the Laplacian power is an integer.  Both operators are
    tested and reported rather than hard-coding one convention.
    """
    if n % 2 != 1:
        raise ValueError("the Laplacian power (n-1)/2 must be an integer; n must be odd")
    m = (n - 1) // 2
    nvars = n + 1
    x = coordinate_paravector("x", nvars, 0)
    f = x.power(k) if k else scalar_mv(n, rx.constant(1, nvars, 0))
    for _ in range(m):
        f = laplacian_field(f)
    d = cr_operators(f, "D")
    dbar = cr_operators(f, "Dbar")
    return MonogenicityReport(n, k, m, d.is_zero(), dbar.is_zero())
