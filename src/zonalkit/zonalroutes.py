"""The kernel constructions and the coefficient formulas connecting them.

Every route emits an exact expression for comparison against the direct
ultraspherical expansion ``gegenbauer.zonal_direct``:

* ``ladder_route``  - k-fold application of (Kelvin o <y,grad_x> o Kelvin) to 1;
* ``laplacian_route`` - (Lap_y Lap_x)^m acting on the plane/space kernel
  lifted verbatim to the target dimension (``laplacian_route_fixed_y``:
  Lap_x^m only);
* ``clifford_route`` - the same double Laplacians acting on the real part of
  (x y^c)^(k+2m);
* ``kelvin_route``  - Lap_x^((n-1)/2) then Kelvin inversion acting on the real
  part of (x y^(-1))^(-k), odd n only (integer Laplacian power);
* ``eta_relation``  - the bridge identity between the last two.

Each route returns its expression alone.  The constant relating it to the
direct kernel is one of the coefficient functions below: ``ladder_scale``,
``beta_tilde`` (odd) or ``beta_hat`` (even), ``fixed_y_prefactor``,
``beta_hat``/2 for the Clifford route, ``kelvin_constant_*`` and ``eta_*``.
Each domain rule is written once and raises ``ValueError``: m, k >= 0 (the
coefficients, the Laplacian and Clifford routes), odd n >= 1 and k >= 1
(``kelvin_*``), m >= 0 and k >= 1 (``eta_*``), n >= 2 (the ladder).

The routes above run in :mod:`~zonalkit.orbitform` (the m = 3 Laplacian
cells also have ``laplacian_route_invariant``): each input is a polynomial
symmetric under the pair permutations, kept with one coefficient per orbit,
each operator (the unchanged coordinate-level ``RadialExpr`` Laplacian,
Kelvin inversion and ``dir_deriv``) acts on one representative per orbit,
and only the result is unfolded to coordinates.  An operator may pass
through Laurent intermediates as long as its output is a polynomial: the
ladder applies Kelvin o <y,grad_x> o Kelvin as one step, and the inversion
route applies |x|^(-2k), the Laplacians and Kelvin as one composed
operator.  The expressions they are compared with come from the full
coordinate expander: ``zonal_direct_invariant`` scaled by the cell's
constant, then expanded (the kelvin cells expand ``zonal_direct`` unscaled
and measure their constant against it).

Route caches.  The ``kelvin`` and ``eta`` suites check each case twice, once
against the stated constant and once against the observed one, in adjacent
cells.  The two route cores behind them, ``_inversion_route`` (``kelvin_route``
and the eta right-hand side) and ``_paravector_laplacians`` (``clifford_route``
and the eta left-hand side), are ``lru_cache(maxsize=1)`` caches: each keeps
its most recent result, so the second cell of a pair takes the first one's
expression, and a call with other arguments replaces it.  The ladder core
``_ladder_form`` is one too: step k is step k - 1 of the cache, so the
ladder cells, which run n-major with k ascending, take one step each; any
other call steps on from the cached form when it is below, or else from
the constant 1.  ``_seed_form`` holds Lap_x of the lifted seed's orbit
form (the seed itself at m = 0), the first step of both
``laplacian_route`` and ``laplacian_route_fixed_y``, so the route and
fixed-y cells of one (parity, m, k), which the laplacian suite runs
adjacently, take it once; the route goes on with Lap_y, Lap_x, ..., the
fixed-y variant with m - 1 more Lap_x.  The shared step is the
coordinate-level Laplacian under test, not a second implementation of it,
and each cell still compares its own result with the independent
expander, so a wrong Laplacian fails both cells whichever runs first (as
``_ladder_form`` shares step k - 1 among the ladder cells).  The caches are
not scoped to a run, and each holds at most one result, an immutable
``RadialExpr`` or ``OrbitForm`` that the cells sharing it cannot disturb.
The public routes stay plain functions, and ``zonal_direct`` is never
memoised.

Coefficient conventions.  The iterated-Laplacian prefactor is *defined* as
the composition alpha * c^2 of the telescoping coefficient with the squared
radial-Laplacian eigenvalue, which is the form the two underlying lemmas
actually produce; the printed closed forms found in the classical statements
are provided alongside (``*_printed``) strictly for comparison and are
checked, not trusted.  For the inversion-route constant and the bridging
constant eta there is likewise a ``*_reference`` value (the classically
stated one) and an ``*_observed`` closed form matching what exact symbolic
computation yields; the verification suites report both and flag the
disagreement (reference/observed = (2m)! / (4^m (m!)^2)) rather than
silently adopting either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import methodcaller
from typing import TYPE_CHECKING, Literal

from . import radialexpr as rx
from . import zonalalg as za
from .gegenbauer import zonal_direct, zonal_direct_invariant
from .orbitform import OrbitForm
from .ratnum import factorial, pochhammer

if TYPE_CHECKING:
    import numpy as np

Parity = Literal["odd", "even"]


# ---------------------------------------------------------------------------
# coefficient set
# ---------------------------------------------------------------------------

def _check_counts(m: int, k: int) -> None:
    """The coefficients below need a Laplacian count m >= 0 and a degree k >= 0."""
    if m < 0:
        raise ValueError(f"Laplacian count m must be nonnegative, got m={m}")
    if k < 0:
        raise ValueError(f"degree k must be nonnegative, got k={k}")


def _check_inversion(n: int, k: int) -> None:
    """The inversion route and its constants need an odd n >= 1 and a degree k >= 1."""
    if n < 1 or n % 2 != 1 or k < 1:
        raise ValueError(f"inversion route needs odd n >= 1 and k >= 1, got n={n}, k={k}")


def _check_bridge(m: int, k: int) -> None:
    """The bridge identity and its constants need m >= 0 and a degree k >= 1."""
    _check_counts(m, k)
    if k < 1:
        raise ValueError(f"the bridge identity needs k >= 1, got k={k}")


def _check_order(lam: Fraction) -> None:
    """The Gegenbauer order domain of ``gegenbauer``: lam > -1/2 and lam != 0."""
    if lam == 0:
        raise ValueError("order lam = 0 is the Chebyshev limit; "
                         "its coefficient is alpha_hat_top")
    if 2 * lam <= -1:
        raise ValueError(f"Gegenbauer order lam must exceed -1/2, got lam={lam}")


def alpha_top(m: int, lam, k: int) -> Fraction:
    """Top telescoping coefficient: (-1)^m poch(lam, m) / poch(lam+k+m+1, m)."""
    _check_counts(m, k)
    lam = Fraction(lam)
    _check_order(lam)
    return (-1) ** m * pochhammer(lam, m) / pochhammer(lam + k + m + 1, m)


def alpha_hat_top(m: int, k: int) -> Fraction:
    """Chebyshev analogue of alpha_top, for m >= 1."""
    if m < 1:
        raise ValueError("the Chebyshev telescoping coefficient needs m >= 1")
    _check_counts(m, k)
    return (-1) ** m * factorial(m - 1) / pochhammer(Fraction(k + m + 1), m - 1)


def lap_c(N, j: int, ell: int, k: int) -> Fraction:
    """Eigenvalue of Lap^j on |x|^(2 ell) H_k in R^N: 0 for j > ell, else
    4^j ell!/(ell-j)! Gamma(k+ell+N/2)/Gamma(k+ell-j+N/2); j, ell >= 0 only,
    as ell < 0 breaks the rule (on R^3, Lap x_0 |x|^-2 = -2 x_0 |x|^-4), and
    k >= 0, the degree of H_k, in a dimension N >= 1."""
    if N < 1:
        raise ValueError(f"lap_c needs a dimension N >= 1, got N={N}")
    if j < 0 or ell < 0 or k < 0:
        raise ValueError(f"lap_c needs j, ell and k >= 0, got j={j}, ell={ell}, k={k}")
    if j > ell:
        return Fraction(0)
    half = Fraction(N, 2)
    return (Fraction(4) ** j
            * factorial(ell) / factorial(ell - j)
            * pochhammer(k + ell - j + half, j))


def beta(m: int, lam, k: int) -> Fraction:
    """Two-variable iterated-Laplacian prefactor, as the composition alpha * c^2.

    The ambient dimension is forced to N = 2(lam+m)+2 by harmonicity of the
    target kernel; lam must be a half-integer for N to be an integer.
    """
    lam = Fraction(lam)
    _check_order(lam)
    N = 2 * (lam + m) + 2
    if N.denominator != 1:
        raise ValueError(f"2(lam+m)+2 must be an integer dimension, got {N}")
    c = lap_c(int(N), m, m, k)
    return alpha_top(m, lam, k) * c * c


def beta_printed(m: int, lam, k: int) -> Fraction:
    """The printed closed form carrying Gamma(m-1)^2; defined only for m >= 2.

    At m = 1 the printed factor Gamma(0)^2 diverges while the composition is
    finite, which is the first symptom that the printed form is off.
    """
    if m < 2:
        raise ValueError("Gamma(m-1) diverges for m < 2; the printed form is undefined")
    lam = Fraction(lam)
    g = factorial(m - 2)
    return ((-1) ** m * Fraction(4) ** (2 * m) * g * g
            * pochhammer(lam, m) * pochhammer(lam + k + m + 1, m))


def beta_tilde(m: int, k: int) -> Fraction:
    """Odd-target prefactor, from the composition plus kernel normalisations."""
    return (Fraction(2 * k + 4 * m + 1) * Fraction(2 * m + 1, 2 * k + 2 * m + 1)
            * beta(m, Fraction(1, 2), k))


def beta_tilde_printed(m: int, k: int) -> Fraction:
    """The printed odd-target closed form (checked, not trusted); undefined at k + 2m = 0."""
    if k + 2 * m == 0:
        raise ValueError("the printed form divides by 2(k+2m); it is undefined at k + 2m = 0")
    num = (factorial(m) * factorial(2 * m + 1) * factorial(k + m)
           * factorial(2 * k + 4 * m))
    den = (2 * (k + 2 * m) * Fraction(2 * k + 2 * m + 1) ** 2
           * factorial(k + 2 * m) * factorial(2 * k + 2 * m))
    return (-1) ** m * num / den


def beta_hat(m: int, k: int) -> Fraction:
    """Even-target prefactor; the printed closed form, which the composition confirms."""
    _check_counts(m, k)
    if m == 0:
        return Fraction(1)
    return ((-1) ** m * Fraction(4) ** (2 * m) * (k + 2 * m)
            * factorial(m) ** 3 * pochhammer(Fraction(k + m + 1), m)
            / (k + m))


def beta_hat_composed(m: int, k: int) -> Fraction:
    """beta_hat rebuilt as alphaHat * c^2 * (m/(k+m)); equals beta_hat exactly."""
    if m == 0:
        return Fraction(1)
    c = lap_c(2 * m + 2, m, m, k)
    return alpha_hat_top(m, k) * c * c * Fraction(m, k + m)


def eta_reference(m: int, k: int) -> Fraction:
    """The stated bridge constant: 4^(2m) (k+2m) (m!)^3 G(k+2m+1) / (k (2m)! G(k+m+1))."""
    _check_bridge(m, k)
    return (Fraction(4) ** (2 * m) * (k + 2 * m) * factorial(m) ** 3
            * pochhammer(Fraction(k + m + 1), m)
            / (k * factorial(2 * m)))


def eta_observed(m: int, k: int) -> Fraction:
    """Bridge constant actually produced by exact computation: 4^m m! (k+2m) G(k+2m+1)/(k G(k+m+1)).

    eta_reference / eta_observed = 4^m (m!)^2 / (2m)!, which is 1 only at m = 0.
    """
    _check_bridge(m, k)
    return (Fraction(4) ** m * factorial(m) * (k + 2 * m)
            * pochhammer(Fraction(k + m + 1), m) / k)


def kelvin_constant_reference(n: int, k: int) -> Fraction:
    """Stated inversion-route constant (n-1)! (-1)^((n-1)/2) k/(2k+n-1), odd n."""
    _check_inversion(n, k)
    m = (n - 1) // 2
    return factorial(n - 1) * (-1) ** m * Fraction(k, 2 * k + n - 1)


def kelvin_constant_observed(n: int, k: int) -> Fraction:
    """Inversion-route constant from exact computation: (-1)^m 4^m (m!)^2 k/(2(k+m))."""
    _check_inversion(n, k)
    m = (n - 1) // 2
    return (-1) ** m * Fraction(4) ** m * factorial(m) ** 2 * Fraction(k, 2 * (k + m))


def ladder_scale(n: int, k: int) -> Fraction:
    """(-1)^k k! lam/(lam+k) relating the ladder output to the direct kernel."""
    lam = Fraction(n - 1, 2)
    return (-1) ** k * factorial(k) * lam / (lam + k)


def fixed_y_prefactor(parity: Parity, m: int, k: int) -> Fraction:
    """Single-sided (Lap_x only) prefactor for the iterated-Laplacian routes; 1 at m = 0."""
    if parity not in ("odd", "even"):
        raise ValueError(f"unknown parity {parity!r}")
    _check_counts(m, k)
    if m == 0:
        return Fraction(1)
    if parity == "odd":
        return (-1) ** m * Fraction(2 * k + 4 * m + 1, 2 * k + 2 * m + 1) * factorial(2 * m + 1)
    return ((-1) ** m * Fraction(4) ** m * Fraction(k + 2 * m, k + m)
            * factorial(m) ** 2)


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def ladder_route(n: int, k: int) -> rx.RadialExpr:
    """Apply (Kelvin o <y,grad_x> o Kelvin) k times to the constant 1.

    The output equals ladder_scale(n, k) * zonal_direct(n, k); n >= 2 because
    the base step degenerates in the plane.
    """
    if n < 2:
        raise ValueError("ladder route needs n >= 2")
    if k < 0:
        raise ValueError(f"degree k must be nonnegative, got k={k}")
    if k > rx.MAX_DEGREE:
        # the output has x and y degree k: refuse before 127 steps are taken,
        # and before the cached recursion outgrows the interpreter's stack
        raise rx.RadialOverflow(f"ladder degree k={k} exceeds the packed degree cap "
                                f"{rx.MAX_DEGREE}")
    return _ladder_form(n, k).unfold()


@lru_cache(maxsize=1)
def _ladder_form(n: int, k: int) -> OrbitForm:
    """The ladder's k-th step in orbit form, from the cached step k - 1.

    K o D o K maps polynomials to polynomials, so each step folds.  Cells
    that take k in ascending order for one n take one step each.
    """
    if k == 0:
        return OrbitForm.fold(rx.constant(1, n + 1, n + 1))
    return _ladder_form(n, k - 1).apply(lambda g: g.kelvin().dir_deriv().kelvin())


def _laplacian_seed(parity: Parity, m: int, k: int) -> za.ZonalInvariant:
    """The space (odd) or plane (even) kernel of degree k+2m lifted verbatim.

    Lifting keeps the invariant terms and reads them over R^(2m+3) (odd) or
    R^(2m+2) (even), the dimension of the iterated-Laplacian target.
    """
    _check_counts(m, k)
    if parity == "odd":
        low_n, dim = 2, 2 * m + 3
    elif parity == "even":
        low_n, dim = 1, 2 * m + 2
    else:
        raise ValueError(f"unknown parity {parity!r}")
    return za.ZonalInvariant(dim, zonal_direct_invariant(low_n, k + 2 * m).terms)


@lru_cache(maxsize=1)
def _seed_form(parity: Parity, m: int, k: int) -> OrbitForm:
    """Lap_x of ``_laplacian_seed`` in orbit form, or the seed itself at m = 0.

    laplacian_route and its fixed-y variant both take Lap_x first, and
    both go on from here.
    """
    seed = OrbitForm.from_invariant(_laplacian_seed(parity, m, k))
    return seed.apply(methodcaller("laplacian", "x")) if m else seed


def _iterated_laplacians(form: OrbitForm, groups: str) -> rx.RadialExpr:
    """Lap_g for each g of ``groups`` in turn on a polynomial, unfolded to coordinates.

    The form is symmetric under permuting the pairs (x_i, y_i), so the
    Laplacians run in orbit form and only the result is unfolded.
    """
    for group in groups:
        form = form.apply(methodcaller("laplacian", group))
    return form.unfold()


def laplacian_route(parity: Parity, m: int, k: int) -> rx.RadialExpr:
    """(Lap_y Lap_x)^m applied to the low-dimensional kernel lifted verbatim.

    Coordinate-level computation; the result should equal beta_tilde(m, k)
    (odd) or beta_hat(m, k) (even) times zonal_direct(target n, k), with
    target n = 2m+2 (odd) or 2m+1 (even).
    """
    # Lap_y, then (Lap_x, Lap_y) m - 1 times, after the cached Lap_x
    return _iterated_laplacians(_seed_form(parity, m, k), ("yx" * m)[:-1])


def laplacian_route_invariant(parity: Parity, m: int, k: int) -> za.ZonalInvariant:
    """laplacian_route in the compact invariant algebra.

    The laplacian suite runs its m = 3 cells (seeds of degree k+6 over
    R^9 x R^9 odd and R^8 x R^8 even) on this form, although the orbit-form
    ``laplacian_route`` can run them too (all 14 default m = 3 cells in
    1.3-1.6 s serial on a 2-CPU machine).  No report cell checks these rules against the
    coordinate Laplacian; the tier-1 tests do:
    ``test_operator_rules_match_coordinate_engine`` on monomials and
    ``test_laplacian_invariant_agrees_with_coordinates`` on this route at
    m <= 2 and k <= 2.
    """
    out = _laplacian_seed(parity, m, k)
    for _ in range(m):
        out = out.lap_x().lap_y()
    return out


def laplacian_route_fixed_y(parity: Parity, m: int, k: int) -> rx.RadialExpr:
    """Lap_x^m only, for y pinned to the unit sphere.

    Exact two-variable form of the single-sided identity: the result equals
    fixed_y_prefactor(parity, m, k) * Q_y^m * zonal_direct(target n, k); the
    Q_y^m factor is the |y|-degree correction that disappears on |y| = 1.
    """
    return _iterated_laplacians(_seed_form(parity, m, k), "x" * (m - 1))


def clifford_route(m: int, k: int) -> rx.RadialExpr:
    """(Lap_y Lap_x)^m [((x y^c)^(k+2m))_0] over R^(2m+2).

    The result should equal (beta_hat(m, k)/2) * zonal_direct(2m+1, k);
    m = 0 is the plane identity ((x y^c)^k)_0 = Z/2.
    """
    _check_counts(m, k)
    return _paravector_laplacians(m, k)


@lru_cache(maxsize=1)
def _paravector_laplacians(m: int, k: int) -> rx.RadialExpr:
    """(Lap_y Lap_x)^m ((x y^c)^(k+2m))_0 over R^(2m+2): clifford and the bridge's lhs."""
    seed = OrbitForm.from_invariant(za.xyc_power_real_invariant(k + 2 * m, 2 * m + 2))
    return _iterated_laplacians(seed, "xy" * m)


def kelvin_route(n: int, k: int) -> rx.RadialExpr:
    """Kelvin[Lap_x^((n-1)/2) ((x y^(-1))^(-k))_0] over R^(n+1), odd n.

    ((x y^(-1))^(-k))_0 = ((x y^c)^k)_0 |x|^(-2k) after the |y|^(2k)
    rescaling.  The result is a multiple of zonal_direct(n, k); the suites
    compare it with both kelvin_constant_reference and
    kelvin_constant_observed and report both.
    """
    _check_inversion(n, k)
    return _inversion_route((n - 1) // 2, k)


@lru_cache(maxsize=1)
def _inversion_route(m: int, k: int) -> rx.RadialExpr:
    """Kelvin[Lap_x^m ((x y^(-1))^(-k))_0] over R^(2m+2), in orbit form.

    ((x y^(-1))^(-k))_0 = ((x y^c)^k)_0 |x|^(-2k) after the |y|^(2k)
    rescaling.  The polynomial ((x y^c)^k)_0, homogeneous of degree k in x,
    is folded, and |x|^(-2k), the m Laplacians and Kelvin run as one
    operator.  It sends each monomial of the seed to terms x^a |x|^(k-|a|)
    with |a| <= k and |a| = k (mod 2), so every fold sees a polynomial.
    """
    nvars = 2 * m + 2
    weight = rx.norm_power("x", -2 * k, nvars, nvars)

    def invert(g: rx.RadialExpr) -> rx.RadialExpr:
        g = g * weight
        for _ in range(m):
            g = g.laplacian("x")
        return g.kelvin("x")

    return OrbitForm.from_invariant(za.xyc_power_real_invariant(k, nvars)).apply(invert).unfold()


@dataclass(frozen=True)
class EtaRelationResult:
    """Exact data for one bridge-identity cell."""

    m: int
    k: int
    lhs: rx.RadialExpr
    rhs_raw: rx.RadialExpr
    measured: Fraction | None


def proportionality_ratio(lhs: rx.RadialExpr, rhs: rx.RadialExpr) -> Fraction | None:
    """The exact constant c with lhs = c * rhs, or None when not proportional."""
    if rhs.is_zero():
        return Fraction(0) if lhs.is_zero() else None
    xe, ye, px, py, coef = next(iter(rhs.terms()))
    ratio = lhs.coefficient(xe, ye, px, py) / coef
    return ratio if lhs.equals(rhs.scale(ratio)) else None


def eta_relation(m: int, k: int) -> EtaRelationResult:
    """Compare (Lap_y Lap_x)^m ((x y^c)^(k+2m))_0 with Kelvin[Lap^m ((x y^-1)^-k)_0].

    The suites report the measured proportionality constant against both
    closed forms, eta_reference and eta_observed; agreement with one and not
    the other is the structured finding, never a silent fix.
    """
    _check_bridge(m, k)
    lhs = _paravector_laplacians(m, k)
    rhs_raw = _inversion_route(m, k)
    return EtaRelationResult(m, k, lhs, rhs_raw, proportionality_ratio(lhs, rhs_raw))


# ---------------------------------------------------------------------------
# Poisson kernel
# ---------------------------------------------------------------------------

def poisson_closed(x, y) -> float:
    """(1 - |x|^2|y|^2) / (1 - 2<x,y> + |x|^2|y|^2)^(N/2) on R^N."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("points must share a dimension")
    N = x.size
    r2 = float(x @ x) * float(y @ y)
    den = 1.0 - 2.0 * float(x @ y) + r2
    if den == 0.0:
        raise ZeroDivisionError("Poisson kernel pole: denominator vanishes")
    return (1.0 - r2) / den ** (N / 2.0)


def poisson_series(x, y, terms: int) -> float:
    """Partial sum of the kernel expansion sum_k Z_k at (x, y), |x||y| < 1.

    Terms are generated by the three-term recurrence in the degree, so the
    cost is linear in ``terms``.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    N = x.size
    nx = math.sqrt(float(x @ x))
    ny = math.sqrt(float(y @ y))
    r = nx * ny
    if r >= 1.0:
        warnings.warn("|x||y| >= 1: the kernel series diverges", RuntimeWarning)
    w = float(x @ y) / r if r > 0 else 0.0
    if N == 2:
        # 1 + 2 sum_k T_k(w) r^k
        total = 1.0 if terms > 0 else 0.0
        prev, cur = 1.0, w
        rk = r
        for k in range(1, terms):
            total += 2.0 * cur * rk
            rk *= r
            prev, cur = cur, 2.0 * w * cur - prev
        return total
    lam = (N - 2) / 2.0
    total = 1.0 if terms > 0 else 0.0
    prev, cur = 1.0, 2.0 * lam * w
    rk = r
    for k in range(1, terms):
        total += (k + lam) / lam * cur * rk
        rk *= r
        prev, cur = cur, (2.0 * (k + lam) * w * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1.0)
    return total


def poisson_operator_check(r: float, w: float, lam: float) -> tuple[float, float]:
    """Apply (1 + (r/lam) d/dr) to (1-2rw+r^2)^(-lam) and evaluate the closed form.

    The derivative is taken symbolically on the univariate base polynomial
    g(r) = 1 - 2wr + r^2 (g' = 2r - 2w), then both sides are evaluated:
    lhs = g^(-lam) - 2r(r-w) g^(-lam-1), rhs = (1-r^2) g^(-lam-1).
    """
    g = 1.0 - 2.0 * r * w + r * r
    if g == 0.0:
        raise ZeroDivisionError("generating-function pole")
    lhs = g ** (-lam) - 2.0 * r * (r - w) * g ** (-lam - 1.0)
    rhs = (1.0 - r * r) * g ** (-lam - 1.0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# reproducing property (Monte Carlo)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproducingResult:
    estimate: float
    target: float
    stderr: float
    samples: int
    seed: int

    @property
    def three_sigma(self) -> float:
        return 3.0 * self.stderr

    @property
    def rel_error(self) -> float:
        return abs(self.estimate - self.target) / abs(self.target)


# rows per block of Monte-Carlo sampling and evaluation; bounds the memory of
# the points, values and x-power tables a cell holds at once
_SAMPLE_BLOCK = 1 << 15


def uniform_sphere(samples: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on S^(dim-1) from row-normalised Gaussian vectors.

    Each row is normalised on its own, and ``rng.standard_normal`` draws the
    same stream whether it is asked for all rows at once or in consecutive
    parts, so calls for consecutive parts return, bit for bit, the rows of
    one call for all of them.
    """
    import numpy as np

    pts = rng.standard_normal((samples, dim))
    # the row norms summed column by column: the bits of np.linalg.norm(pts, axis=1)
    # (a sequential sum below 8 columns) without its (samples, dim) temporary
    norm = pts[:, 0] * pts[:, 0]
    for j in range(1, dim):
        norm += pts[:, j] * pts[:, j]
    np.sqrt(norm, out=norm)
    pts /= norm[:, None]
    return pts


def reproducing_mc(n: int, k: int, test_poly: rx.RadialExpr, y,
                   samples: int, seed: int) -> ReproducingResult:
    """Monte-Carlo estimate of the sphere average of P * Z_k(., y) against P(y).

    ``test_poly`` must be a degree-k harmonic in the x group (harmonicity is
    the caller's responsibility and is asserted exactly in the suites);
    ``y`` is a unit vector with n+1 components.

    The two expressions are planned for float evaluation once, and the
    samples are drawn and evaluated in blocks of ``_SAMPLE_BLOCK`` rows into
    one products array, so a cell holds one 8-byte value per sample plus
    one block of points, values and x powers.  The generator draws the same
    stream in parts, sampling and evaluation work row by row, and a term the
    evaluator skips in some blocks only is a signed zero there, so the
    products, and the mean and standard error over them, have the bits of
    drawing and evaluating all samples at once.
    """
    import numpy as np

    nvars = n + 1
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    kernel = zonal_direct(n, k)
    origin = np.zeros(test_poly.ny)
    evaluate = rx._float_plan([(kernel, y), (test_poly, origin)])
    prods = np.empty(samples)
    for lo in range(0, samples, _SAMPLE_BLOCK):
        hi = min(lo + _SAMPLE_BLOCK, samples)
        kvals, pvals = evaluate(uniform_sphere(hi - lo, nvars, rng))
        np.multiply(pvals, kvals, out=prods[lo:hi])
    mean = np.true_divide(np.add.reduce(prods, keepdims=True), samples)
    estimate = float(mean[0])
    # the steps of np.std(prods, ddof=1), run in place on prods: the same bits
    # without its full-length temporary
    np.subtract(prods, mean, out=prods)
    np.multiply(prods, prods, out=prods)
    stderr = float(np.sqrt(np.add.reduce(prods) / (samples - 1)) / math.sqrt(samples))
    target = float(test_poly.eval_float_batch(y[None, :], origin)[0])
    return ReproducingResult(estimate, target, stderr, samples, seed)
