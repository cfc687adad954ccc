import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zonalkit import radialexpr as rx
from zonalkit import zonalroutes as zr
from zonalkit.gegenbauer import zonal_direct, zonal_direct_invariant

HALF = Fraction(1, 2)


# -- coefficients ---------------------------------------------------------------

def test_lap_c_values():
    assert zr.lap_c(6, 2, 1, 3) == 0  # j > ell
    assert zr.lap_c(5, 1, 1, 0) == 10
    assert zr.lap_c(6, 1, 1, 2) == 20
    assert zr.lap_c(4, 1, 1, 1) == 4 * (1 + 2)  # 4 poch(k+2,1) = 4(k+2), k=1


@pytest.mark.parametrize("N", [0, -2])
def test_lap_c_rejects_nonpositive_dimension(N):
    with pytest.raises(ValueError, match="N >= 1"):
        zr.lap_c(N, 1, 1, 0)


def test_lap_c_rejects_negative_indices():
    # Lap x0 |x|^-2 = -2 x0 |x|^-4 on R^3: ell = -1 is not annihilated, so no 0 is returned
    f = rx.coordinate("x", 0, 3, 3) * rx.norm_power("x", -2, 3, 3)
    assert f.laplacian("x").equals((f * rx.norm_power("x", -2, 3, 3)).scale(-2))
    with pytest.raises(ValueError):
        zr.lap_c(3, 1, -1, 1)
    with pytest.raises(ValueError):
        zr.lap_c(3, -1, 1, 1)


def test_coefficients_reject_a_negative_degree_or_count():
    # beta_hat(1, -1) divided by k+m = 0; beta_hat(0, k) and lap_c returned values
    for coefficient in (lambda: zr.beta_hat(1, -1), lambda: zr.beta_hat(0, -2),
                        lambda: zr.beta_tilde(1, -1), lambda: zr.alpha_top(1, 1, -3),
                        lambda: zr.alpha_hat_top(1, -1), lambda: zr.lap_c(3, 1, 1, -1),
                        lambda: zr.fixed_y_prefactor("odd", 1, -1)):
        with pytest.raises(ValueError, match="k"):
            coefficient()
    for coefficient in (zr.beta_hat, zr.eta_reference, zr.eta_observed):
        with pytest.raises(ValueError, match="count m must be nonnegative, got m=-1"):
            coefficient(-1, 2)


def test_beta_composition_values():
    # the appendix specialisation: output degree k gives -16(k+3) at (m,lam)=(1,1),
    # i.e. -16(K+1) for input degree K = k+2
    for k in range(0, 7):
        assert zr.beta(1, Fraction(1), k) == -16 * (k + 3)
    assert zr.beta_tilde(1, 0) == -100
    assert zr.beta_tilde(1, 1) == Fraction(-588, 5)


def test_beta_printed_forms_disagree():
    assert zr.beta_tilde_printed(1, 0) == -1  # vs composed -100
    with pytest.raises(ValueError):
        zr.beta_printed(1, Fraction(1), 2)  # Gamma(0) pole
    assert zr.beta_printed(2, HALF, 1) != zr.beta(2, HALF, 1)


def test_beta_tilde_printed_is_undefined_at_degree_zero():
    # the printed form divides by 2(k+2m); the composition is 1 there
    assert zr.beta_tilde(0, 0) == 1
    with pytest.raises(ValueError, match="k \\+ 2m = 0"):
        zr.beta_tilde_printed(0, 0)
    assert zr.beta_tilde_printed(0, 1) == Fraction(1, 18)  # defined, and off, at k = 1


def test_beta_hat_matches_its_composition():
    for m in (0, 1, 2, 3):
        for k in range(0, 7):
            assert zr.beta_hat(m, k) == zr.beta_hat_composed(m, k)
    assert zr.beta_hat(1, 1) == -72


def test_eta_values():
    assert zr.eta_reference(0, 5) == 1
    assert zr.eta_observed(0, 5) == 1
    assert zr.eta_reference(1, 2) == 64
    assert zr.eta_observed(1, 2) == 32
    for m in (1, 2):
        for k in (1, 2, 5):
            ratio = zr.eta_reference(m, k) / zr.eta_observed(m, k)
            assert ratio == Fraction(4 ** m) * Fraction(math.factorial(m)) ** 2 \
                / math.factorial(2 * m)


def test_kelvin_constants():
    assert zr.kelvin_constant_reference(3, 1) == Fraction(-1, 2)
    assert zr.kelvin_constant_reference(5, 2) == 6
    assert zr.kelvin_constant_observed(1, 4) == zr.kelvin_constant_reference(1, 4) == HALF
    with pytest.raises(ValueError):
        zr.kelvin_constant_reference(4, 1)


def test_fixed_y_prefactors():
    assert zr.fixed_y_prefactor("odd", 1, 0) == -10
    assert zr.fixed_y_prefactor("even", 1, 2) == Fraction(-16, 3)


# -- routes ------------------------------------------------------------------------

def test_ladder_route_base_cases():
    n = 3
    assert zr.ladder_route(n, 0).equals(rx.constant(1, 4, 4))
    got = zr.ladder_route(n, 1)
    assert got.equals(rx.inner_xy(4).scale(-(n - 1)))


def test_ladder_route_matches_scaled_kernel():
    for n in (2, 3, 4):
        for k in range(5):
            lhs = zr.ladder_route(n, k)
            rhs = zonal_direct(n, k).scale(zr.ladder_scale(n, k))
            assert lhs.equals(rhs), (n, k)
    # unfold's cost follows its output, not 2^dim: n = 40 has 41 terms
    for n in range(2, 41):
        lhs = zr.ladder_route(n, 1)
        assert lhs == zonal_direct(n, 1).scale(zr.ladder_scale(n, 1)), n
        assert len(lhs) == n + 1


def test_ladder_requires_nontrivial_dimension():
    with pytest.raises(ValueError):
        zr.ladder_route(1, 2)


def test_laplacian_route_small():
    for parity, target in (("odd", 4), ("even", 3)):
        for k in range(4):
            pref = zr.beta_tilde(1, k) if parity == "odd" else zr.beta_hat(1, k)
            out = zr.laplacian_route(parity, 1, k)
            assert out.equals(zonal_direct(target, k).scale(pref)), (parity, k)


def test_laplacian_route_m0_identity():
    assert zr.beta_hat(0, 3) == zr.beta_tilde(0, 3) == 1
    assert zr.laplacian_route("even", 0, 3).equals(zonal_direct(1, 3))
    assert zr.laplacian_route("odd", 0, 0).equals(rx.constant(1, 3, 3))


def test_laplacian_invariant_agrees_with_coordinates():
    for parity in ("odd", "even"):
        for m in (1, 2):
            for k in (0, 1, 2):
                ci = zr.laplacian_route_invariant(parity, m, k)
                cc = zr.laplacian_route(parity, m, k)
                assert ci.to_radialexpr().equals(cc), (parity, m, k)


def test_fixed_y_route_exact_with_degree_correction():
    for parity, target in (("odd", 4), ("even", 3)):
        m = 1
        for k in (0, 1, 2, 3):
            out = zr.laplacian_route_fixed_y(parity, m, k)
            nv = target + 1
            rhs = (zonal_direct(target, k)
                   * rx.quadratic_form("y", nv, nv)).scale(zr.fixed_y_prefactor(parity, m, k))
            assert out.equals(rhs), (parity, k)


def test_fixed_y_route_m0_is_the_kernel():
    for parity, target in (("odd", 2), ("even", 1)):
        for k in range(4):
            assert zr.fixed_y_prefactor(parity, 0, k) == 1
            out = zr.laplacian_route_fixed_y(parity, 0, k)
            assert out.equals(zonal_direct(target, k)), (parity, k)


def test_clifford_route_small():
    for m, k in [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]:
        rhs = zonal_direct(2 * m + 1, k).scale(zr.beta_hat(m, k) / 2)
        assert zr.clifford_route(m, k).equals(rhs), (m, k)


def test_kelvin_route_measured_constants():
    for n in (1, 3, 5):
        for k in (1, 2, 3):
            measured = zr.proportionality_ratio(zr.kelvin_route(n, k), zonal_direct(n, k))
            assert measured == zr.kelvin_constant_observed(n, k), (n, k)
            assert (measured == zr.kelvin_constant_reference(n, k)) == (n == 1), (n, k)


def test_kelvin_route_rejects_even_dimension():
    with pytest.raises(ValueError, match="needs odd n"):
        zr.kelvin_route(4, 2)
    with pytest.raises(ValueError):
        zr.kelvin_route(3, 0)


@pytest.mark.parametrize("route, args, message", [
    (zr.laplacian_route, ("odd", 1, -1), "got k=-1"),
    (zr.laplacian_route_fixed_y, ("odd", 1, -1), "got k=-1"),
    (zr.laplacian_route_invariant, ("odd", 1, -1), "got k=-1"),
    (zr.laplacian_route, ("even", -1, 2), "got m=-1"),
    (zr.clifford_route, (1, -1), "got k=-1"),
    (zr.clifford_route, (-1, 2), "got m=-1"),
    (zr.kelvin_route, (-1, 2), "got n=-1"),
    (zr.eta_relation, (-1, 2), "got m=-1"),
    (zr.eta_relation, (1, 0), "got k=0"),
], ids=["laplacian", "fixed_y", "invariant", "laplacian_m", "clifford", "clifford_m", "kelvin",
        "eta_m", "eta_k"])
def test_routes_reject_arguments_outside_their_domain(route, args, message):
    # each of these returned a value (a zero, an empty invariant) instead of raising,
    # except kelvin_route(-1, 2), which raised IndexError
    with pytest.raises(ValueError, match=message):
        route(*args)


def test_eta_relation_results():
    for m in (0, 1):
        for k in (1, 2):
            res = zr.eta_relation(m, k)
            assert res.measured is not None
            assert res.measured == zr.eta_observed(m, k)
            assert (res.measured == zr.eta_reference(m, k)) == (m == 0), (m, k)


def test_proportionality_ratio():
    a = rx.inner_xy(3)
    assert zr.proportionality_ratio(a.scale(Fraction(7, 3)), a) == Fraction(7, 3)
    assert zr.proportionality_ratio(a, rx.quadratic_form("x", 3, 3)) is None
    zero = rx.RadialExpr.zero(3, 3)
    assert zr.proportionality_ratio(zero, zero) == 0


# -- poisson ------------------------------------------------------------------------

def test_poisson_closed_at_origin():
    assert zr.poisson_closed([0.0, 0.0, 0.0], [0.3, 0.1, 0.2]) == pytest.approx(1.0)


def test_poisson_series_converges_to_closed_form():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        dim = n + 1
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        x *= 0.8 / np.linalg.norm(x)
        y *= 0.5 / np.linalg.norm(y)
        assert abs(zr.poisson_series(x, y, 200) - zr.poisson_closed(x, y)) < 1e-10


def test_poisson_series_empty_sum_is_zero():
    for dim in (2, 3, 4):
        x = np.full(dim, 0.3)
        y = np.full(dim, 0.2)
        assert zr.poisson_series(x, y, 0) == 0.0


def test_poisson_series_warns_on_divergence():
    x = np.array([1.5, 0.0])
    y = np.array([1.0, 0.0])
    with pytest.warns(RuntimeWarning):
        zr.poisson_series(x, y, 3)


def test_poisson_operator_identity():
    rng = np.random.default_rng(11)
    for lam in (0.5, 1.0, 1.5):
        for _ in range(50):
            r = 0.05 + 0.9 * rng.random()
            w = -1.0 + 2.0 * rng.random()
            lhs, rhs = zr.poisson_operator_check(r, w, lam)
            assert abs(lhs - rhs) < 1e-12


# -- reproducing property -------------------------------------------------------------

@pytest.mark.parametrize("dim", [3, 4, 5])
def test_uniform_sphere_matches_linalg_norm_bits(dim):
    for seed in (0, 7):
        g = np.random.default_rng(seed).standard_normal((50_000, dim))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        got = zr.uniform_sphere(50_000, dim, np.random.default_rng(seed))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_uniform_sphere_in_parts_matches_one_draw(dim):
    # reproducing_mc draws its samples block by block; the split is no block multiple
    rng = np.random.default_rng(11)
    parts = np.concatenate([zr.uniform_sphere(12_345, dim, rng),
                            zr.uniform_sphere(40_000, dim, rng)])
    whole = zr.uniform_sphere(52_345, dim, np.random.default_rng(11))
    assert np.array_equal(parts.view(np.int64), whole.view(np.int64))


def test_reproducing_memory_is_one_value_per_sample():
    # the samples are streamed in blocks: the products array and one block of
    # points, values and x powers fit in 3 doubles per sample
    pole = (Fraction(3, 5), 0, Fraction(4, 5), 0)
    P = zonal_direct_invariant(3, 3).to_radialexpr(y=pole)
    samples = 10 ** 6
    tracemalloc.start()
    try:
        res = zr.reproducing_mc(3, 3, P, np.array([0.6, 0.0, 0.8, 0.0]), samples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.rel_error < 0.01
    assert peak < 3 * 8 * samples


def test_reproducing_standard_error_runs_in_place():
    # the standard error runs np.std's steps in place on the products array, so
    # the products and one block of points, values and x powers fit in 2 doubles
    # per sample
    pole = (Fraction(3, 5), 0, Fraction(4, 5), 0)
    P = zonal_direct_invariant(3, 3).to_radialexpr(y=pole)
    samples = 10 ** 6
    tracemalloc.start()
    try:
        zr.reproducing_mc(3, 3, P, np.array([0.6, 0.0, 0.8, 0.0]), samples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * samples


def test_reproducing_trivial_constant():
    P = rx.constant(1, 3, 3)
    res = zr.reproducing_mc(2, 0, P, np.array([0.6, 0.8, 0.0]), 2000, seed=1)
    assert res.estimate == pytest.approx(1.0, abs=1e-12)
    assert res.target == 1.0


def test_reproducing_degree_one():
    # P = x_1, pole along e1: target P(e1) = 1; modest sample count, 3 sigma budget
    P = rx.coordinate("x", 0, 3, 3).scale(Fraction(1))
    y = np.array([1.0, 0.0, 0.0])
    res = zr.reproducing_mc(2, 1, P, y, 200_000, seed=5)
    assert res.target == pytest.approx(1.0)
    assert abs(res.estimate - res.target) < max(3 * res.stderr, 0.02)


def test_reproducing_kernel_value_at_pole():
    pole = (Fraction(3, 5), Fraction(4, 5), 0)
    P = zonal_direct_invariant(2, 2).to_radialexpr(y=pole)
    res = zr.reproducing_mc(2, 2, P, np.array([0.6, 0.8, 0.0]), 150_000, seed=9)
    lam = HALF
    want = float((2 + lam) / lam)  # (k+lam)/lam C_2^(1/2)(1), and C(1) = 1 here
    assert res.target == pytest.approx(want, rel=1e-9)
    assert res.rel_error < 0.03
