"""Exact rational scalars and the combinatorial coefficient builders.

Every scalar constant in this package is an exact rational.  We use the
stdlib ``fractions.Fraction`` as the rational type (arbitrary precision,
always in lowest terms, positive denominator) and build the shifted-Gamma
machinery on top of it: rising factorials (the Gamma ratios with integer
shift), binomials and factorials.  Gamma is never evaluated at a point; every
Gamma-bearing coefficient is expressed as a ratio with integer shift so the
whole computation stays in the rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int]


def pochhammer(a: RationalLike, j: int) -> Fraction:
    """Rising factorial a(a+1)...(a+j-1); the empty product (j=0) is 1."""
    if j < 0:
        raise ValueError(f"pochhammer needs a nonnegative count, got j={j}")
    out = Fraction(1)
    a = Fraction(a)
    for i in range(j):
        out *= a + i
    return out


def factorial(n: int) -> Fraction:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return Fraction(math.factorial(n))


def binomial(n: int, r: int) -> Fraction:
    """binomial(n, r) with the out-of-range convention: 0 when r < 0 or r > n."""
    if n < 0:
        raise ValueError(f"negative upper index {n} not supported")
    if r < 0 or r > n:
        return Fraction(0)
    return Fraction(math.comb(n, r))


def sqrt_exact(q: RationalLike) -> Fraction | None:
    """Exact rational square root of q >= 0, or None when q is not a perfect square."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
