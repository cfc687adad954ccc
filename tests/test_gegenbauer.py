import random
from fractions import Fraction

import pytest

from zonalkit import radialexpr as rx
from zonalkit.gegenbauer import (
    chebyshev_T,
    gegenbauer,
    telescoping_coefficients,
    zonal_direct,
    zonal_lift_invariant,
)
from zonalkit.ratnum import factorial, pochhammer
from zonalkit.zonalroutes import alpha_top

HALF = Fraction(1, 2)


def test_explicit_coefficients():
    assert gegenbauer(0, Fraction(2)).coeffs == (Fraction(1),)
    assert gegenbauer(1, Fraction(3, 2)).coeffs == (0, 3)  # 2*lam*t
    assert gegenbauer(2, HALF).coeffs == (Fraction(-1, 2), 0, Fraction(3, 2))  # Legendre P2


def test_order_constraints():
    with pytest.raises(ValueError):
        gegenbauer(2, 0)
    with pytest.raises(ValueError):
        gegenbauer(2, Fraction(-1, 2))
    with pytest.raises(ValueError):
        gegenbauer(-1, Fraction(1))


def test_parity_and_leading_coefficient():
    for k in range(9):
        for lam in (HALF, Fraction(1), Fraction(5, 2)):
            p = gegenbauer(k, lam)
            for j, c in enumerate(p.coeffs):
                if (k - j) % 2 == 1:
                    assert c == 0
            assert p.coeffs[-1] == Fraction(2) ** k * pochhammer(lam, k) / factorial(k)


def test_chebyshev_values():
    assert chebyshev_T(0).coeffs == (1,)
    assert chebyshev_T(1).coeffs == (0, 1)
    assert chebyshev_T(2).coeffs == (-1, 0, 2)
    assert chebyshev_T(5).coeffs == (0, 5, 0, -20, 0, 16)


def test_chebyshev_from_order_one_difference():
    # 2 T_k = C_k^1 - C_{k-2}^1
    for k in range(2, 12):
        lhs = tuple(2 * c for c in chebyshev_T(k).coeffs)
        a = gegenbauer(k, Fraction(1)).coeffs
        b = gegenbauer(k - 2, Fraction(1)).coeffs
        rhs = tuple(x - (b[j] if j < len(b) else 0) for j, x in enumerate(a))
        assert lhs == rhs


def test_values_at_one_and_zero():
    # C_k^lam(1) = poch(2 lam, k)/k!, exactly: the value at 1 is the coefficient sum
    for k in (0, 1, 2, 5):
        for lam in (HALF, Fraction(1), Fraction(2)):
            assert sum(gegenbauer(k, lam).coeffs) == pochhammer(2 * lam, k) / factorial(k)
    assert sum(gegenbauer(2, Fraction(1)).coeffs) == 3
    assert gegenbauer(2, HALF).coeffs[0] == Fraction(-1, 2)
    assert sum(chebyshev_T(7).coeffs) == 1


def test_zonal_direct_examples():
    assert zonal_direct(5, 0).equals(rx.constant(1, 6, 6))
    assert zonal_direct(3, 1).equals(rx.inner_xy(4).scale(4))
    # plane case: 2 T_2(w)(|x||y|)^2 = 4<x,y>^2 - 2 QxQy
    z = zonal_direct(1, 2)
    a = rx.inner_xy(2)
    q = rx.quadratic_form("x", 2, 2) * rx.quadratic_form("y", 2, 2)
    assert z.equals((a * a).scale(4) - q.scale(2))


def test_zonal_direct_is_polynomial_and_symmetric_degree():
    for n, k in ((1, 3), (2, 4), (4, 3)):
        z = zonal_direct(n, k)
        assert all((px, py) == (0, 0) for _, _, px, py, _ in z.terms())
        assert z.homogeneous_degree("x") == k
        assert z.homogeneous_degree("y") == k


def test_zonal_direct_harmonic_small():
    for n in (1, 2, 3, 4):
        for k in range(5):
            z = zonal_direct(n, k)
            assert z.laplacian("x").is_zero()
            assert z.laplacian("y").is_zero()


def test_radial_lift_carries_laurent_tail():
    # C(w) |x|^2 with no |y| factor
    f = zonal_lift_invariant(gegenbauer(2, HALF), 5, 2, 0).to_radialexpr()
    # w^2 term contributes |y|^-2
    assert any(py == -2 for _, _, _, py, _ in f.terms())
    # and multiplying by |y|^2 recovers the polynomial kernel lift
    g = f * rx.norm_power("y", 2, 5, 5)
    assert g.equals(zonal_lift_invariant(gegenbauer(2, HALF), 5, 2, 2).to_radialexpr())


def rational_point(dim, rng):
    """A rational point with rational norm: a scaled inverse stereographic image."""
    u = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim - 1)]
    q = sum(v * v for v in u)
    r = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    return [r * (1 - q) / (1 + q)] + [r * 2 * v / (1 + q) for v in u], r


def test_zonal_direct_values_match_gegenbauer_sum():
    # Z_k(x, y) = ((k+lam)/lam) sum_j c_j <x,y>^j (|x||y|)^(k-j), 2 T_k in the plane
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for k in range(6):
            if n == 1:
                poly, scale = chebyshev_T(k), Fraction(2 if k else 1)
            else:
                lam = Fraction(n - 1, 2)
                poly, scale = gegenbauer(k, lam), (k + lam) / lam
            z = zonal_direct(n, k)
            for _ in range(3):
                x, nx = rational_point(n + 1, rng)
                y, ny = rational_point(n + 1, rng)
                a = sum(u * v for u, v in zip(x, y))
                want = scale * sum(c * a ** j * (nx * ny) ** (k - j)
                                   for j, c in enumerate(poly.coeffs))
                assert z.eval_exact(x, y).as_tuple() == (want, 0, 0, 0), (n, k)


def _sympy_zonal_coefficients(sympy, n, k):
    """Coordinate coefficients of the zonal kernel on R^(n+1), expanded by sympy.

    ((k+lam)/lam) C_k^lam(t) (|x||y|)^k with lam = (n-1)/2 and t = <x,y>/(|x||y|);
    2 T_k for n = 1; 1 for k = 0.  C_k has only powers t^j with k - j even,
    and t^j (|x||y|)^k = <x,y>^j (Q_x Q_y)^((k-j)/2).
    """
    xs = sympy.symbols(f"x0:{n + 1}")
    ys = sympy.symbols(f"y0:{n + 1}")
    t = sympy.Symbol("t")
    if k == 0:
        kernel = sympy.Integer(1)
    elif n == 1:
        kernel = 2 * sympy.chebyshevt(k, t)
    else:
        lam = sympy.Rational(n - 1, 2)
        kernel = (k + lam) / lam * sympy.gegenbauer(k, lam, t)
    inner = sum(a * b for a, b in zip(xs, ys))
    qq = sum(a * a for a in xs) * sum(b * b for b in ys)
    coeffs = sympy.Poly(kernel, t).all_coeffs()[::-1]
    assert all(c == 0 for j, c in enumerate(coeffs) if (k - j) % 2)
    expr = sum(c * inner ** j * qq ** ((k - j) // 2) for j, c in enumerate(coeffs))
    poly = sympy.Poly(sympy.expand(expr), *xs, *ys)
    return {(mono[:n + 1], mono[n + 1:]): Fraction(int(c.p), int(c.q))
            for mono, c in poly.as_dict().items()}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_zonal_direct_matches_sympy_expansion(n, k):
    sympy = pytest.importorskip("sympy")
    want = _sympy_zonal_coefficients(sympy, n, k)
    got = {}
    for xe, ye, px, py, coef in zonal_direct(n, k).terms():
        assert (px, py) == (0, 0)
        got[(xe, ye)] = coef
    assert got == want


def test_telescoping_expansion_and_closed_form():
    for lam in (HALF, Fraction(1), Fraction(2)):
        for m in (1, 2, 3):
            for k in (0, 1, 3):
                alphas = telescoping_coefficients(m, lam, k)
                assert alphas[m] == alpha_top(m, lam, k)
                assert alphas[0] != 0
