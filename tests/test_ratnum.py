import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zonalkit.ratnum import binomial, factorial, pochhammer, sqrt_exact

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_pochhammer_examples():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    for k in range(8):
        assert pochhammer(1, k) == factorial(k)


def test_pochhammer_rejects_negative_count():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1), -1)


@given(a=rationals, j=st.integers(0, 8), m=st.integers(0, 8))
def test_pochhammer_splits(a, j, m):
    assert pochhammer(a, j + m) == pochhammer(a, j) * pochhammer(a + j, m)


def test_binomial_conventions():
    assert binomial(4, 3) == 4
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_factorial():
    assert factorial(5) == 120
    with pytest.raises(ValueError):
        factorial(-1)


def test_exact_arithmetic_against_cross_multiplication():
    # p/q + r/s rebuilt by integer cross multiplication, 10^4 random pairs
    rng = random.Random(123)
    for _ in range(10_000):
        p, r = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        q, s = rng.randint(1, 10**4), rng.randint(1, 10**4)
        got = Fraction(p, q) + Fraction(r, s)
        assert got == Fraction(p * s + r * q, q * s)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(25)) == 5
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(Fraction(2)) is None
    assert sqrt_exact(Fraction(-4)) is None
