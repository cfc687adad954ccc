"""Exact ultraspherical (Gegenbauer) and Chebyshev polynomials.

Coefficient vectors are exact rationals computed from the explicit sum

    C_k^lam(t) = sum_j (-1)^j  Gamma(k-j+lam) / (Gamma(lam) j! (k-2j)!) (2t)^(k-2j),

with every Gamma ratio reduced to a rising factorial.  The lam -> 0 limit
(Chebyshev T_k, up to the factor 2) is a separate constructor built on the
three-term recurrence, mirroring the fact that the zonal normalisation
(k+lam)/lam is singular at lam = 0.

The kernels themselves are written in the invariants <x,y>, |x| and |y|:
replacing t by w = <x,y>/(|x||y|) and multiplying by |x|^p |y|^q turns
t^j into <x,y>^j |x|^(p-j) |y|^(q-j), a :class:`ZonalInvariant` term.
Coordinates come only from ``ZonalInvariant.to_radialexpr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import radialexpr as rx
from .ratnum import factorial, pochhammer
from .zonalalg import ZonalInvariant


@dataclass(frozen=True)
class GegenbauerPoly:
    """Exact coefficient vector of C_k^lam; coeffs[j] multiplies t^j."""

    degree: int
    order: Fraction
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.coeffs) == self.degree + 1

    def derivative_coeffs(self) -> tuple[Fraction, ...]:
        if self.degree == 0:
            return (Fraction(0),)
        return tuple((j + 1) * self.coeffs[j + 1] for j in range(self.degree))


def gegenbauer(k: int, lam) -> GegenbauerPoly:
    """C_k^lam from the explicit sum; lam > -1/2 and lam != 0 (use chebyshev_T)."""
    lam = Fraction(lam)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if lam == 0:
        raise ValueError("order 0 is the Chebyshev limit; use chebyshev_T")
    if 2 * lam <= -1:
        raise ValueError(f"order must exceed -1/2, got {lam}")
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k // 2 + 1):
        # Gamma(k-j+lam)/Gamma(lam) = pochhammer(lam, k-j)
        c = pochhammer(lam, k - j) / (factorial(j) * factorial(k - 2 * j))
        coeffs[k - 2 * j] = (-1) ** j * c * Fraction(2) ** (k - 2 * j)
    return GegenbauerPoly(k, lam, tuple(coeffs))


def chebyshev_T(k: int) -> GegenbauerPoly:
    """First-kind Chebyshev T_k by the recurrence T_{k+1} = 2t T_k - T_{k-1}."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    prev = [Fraction(1)]
    if k == 0:
        return GegenbauerPoly(0, Fraction(0), tuple(prev))
    cur = [Fraction(0), Fraction(1)]
    for d in range(2, k + 1):
        nxt = [Fraction(0)] * (d + 1)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return GegenbauerPoly(k, Fraction(0), tuple(cur))


# -- kernels in the invariants <x,y>, |x|, |y| --------------------------------


def zonal_lift_invariant(poly: GegenbauerPoly, dim: int, deg_x: int, deg_y: int) -> ZonalInvariant:
    """C(w) |x|^deg_x |y|^deg_y over R^dim: sum_j c_j (j, deg_x - j, deg_y - j).

    With deg_x = deg_y = k every term is a polynomial; other degrees give the
    Laurent lifts of the appendix-A identities.
    """
    return ZonalInvariant(dim, {(j, deg_x - j, deg_y - j): c
                                for j, c in enumerate(poly.coeffs) if c})


def zonal_direct_invariant(n: int, k: int) -> ZonalInvariant:
    """The degree-k zonal harmonic kernel on R^(n+1) in invariant form.

    For n >= 2 this is ((k+lam)/lam) C_k^lam(w) (|x||y|)^k with lam = (n-1)/2;
    the plane case n = 1 uses 2 T_k(w) (|x||y|)^k.
    """
    if n < 1:
        raise ValueError("ambient space must be at least R^2 (n >= 1)")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    dim = n + 1
    if k == 0:
        return ZonalInvariant(dim, {(0, 0, 0): Fraction(1)})
    if n == 1:
        return zonal_lift_invariant(chebyshev_T(k), dim, k, k).scale(2)
    lam = Fraction(n - 1, 2)
    return zonal_lift_invariant(gegenbauer(k, lam), dim, k, k).scale((k + lam) / lam)


def zonal_direct(n: int, k: int) -> rx.RadialExpr:
    """The degree-k zonal harmonic kernel on R^(n+1), as an exact polynomial."""
    return zonal_direct_invariant(n, k).to_radialexpr()


def telescoping_coefficients(m: int, lam, k: int) -> list[Fraction]:
    """Coefficients alpha_j writing C_{k+2m}^lam = sum_j alpha_j C_{k+2(m-j)}^(lam+m).

    Computed by m-fold application of the order-raising identity
    ((lam+d)/lam) C_d^lam = C_d^(lam+1) - C_{d-2}^(lam+1), i.e. the telescoping
    the closed form for alpha_m is extracted from.
    """
    lam = Fraction(lam)
    level: dict[int, Fraction] = {k + 2 * m: Fraction(1)}
    for i in range(m):
        mu = lam + i
        nxt: dict[int, Fraction] = {}
        for d, c in level.items():
            f = c * mu / (mu + d)
            nxt[d] = nxt.get(d, Fraction(0)) + f
            if d - 2 >= 0:
                nxt[d - 2] = nxt.get(d - 2, Fraction(0)) - f
        level = nxt
    return [level.get(k + 2 * (m - j), Fraction(0)) for j in range(m + 1)]
