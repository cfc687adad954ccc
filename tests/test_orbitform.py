import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from zonalkit import radialexpr as rx
from zonalkit import zonalalg as za
from zonalkit import zonalroutes as zr
from zonalkit.gegenbauer import zonal_direct
from zonalkit.orbitform import OrbitForm


def full_laplacians(seed: za.ZonalInvariant, m: int, groups: str) -> rx.RadialExpr:
    """The full-coordinate reference: expand the whole seed, then differentiate."""
    out = seed.to_radialexpr()
    for _ in range(m):
        for group in groups:
            out = out.laplacian(group)
    return out


def full_ladder(n: int, k: int) -> rx.RadialExpr:
    """The full-coordinate ladder: Kelvin o <y,grad_x> o Kelvin, k times, on 1."""
    f = rx.constant(1, n + 1, n + 1)
    for _ in range(k):
        f = f.kelvin().dir_deriv().kelvin()
    return f


def full_inversion(m: int, k: int) -> rx.RadialExpr:
    """The full-coordinate inversion route: Kelvin[Lap_x^m ((x y^(-1))^(-k))_0]."""
    nvars = 2 * m + 2
    seed = za.xyc_power_real_invariant(k, nvars) * za.monomial(nvars, 0, -2 * k, 0)
    f = seed.to_radialexpr()
    for _ in range(m):
        f = f.laplacian("x")
    return f.kelvin("x")


def reference_unfold(dim: int, orbits: dict[tuple, Fraction]) -> rx.RadialExpr:
    """Every distinct permutation of each representative, by brute force."""
    items = []
    for pairs, c in orbits.items():
        for perm in set(permutations(pairs)):
            items.append(([a for a, _ in perm], [b for _, b in perm], 0, 0, c))
    return rx.from_terms(dim, dim, items)


def orbit_form(dim: int, orbits: dict[tuple, Fraction]) -> OrbitForm:
    lay = rx._layout(dim, dim)
    den = math.lcm(*(c.denominator for c in orbits.values())) if orbits else 1
    return OrbitForm(dim, {lay.pack([a for a, _ in p], [b for _, b in p], 0, 0): int(c * den)
                           for p, c in orbits.items()}, den)


def orbit_size(pairs: tuple) -> int:
    """N! / |Stab|: the number of distinct permutations of the pairs."""
    return math.factorial(len(pairs)) // math.prod(
        math.factorial(c) for c in Counter(pairs).values())


pair = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def orbit_maps(draw):
    dim = draw(st.integers(2, 4))
    reps = draw(st.lists(st.lists(pair, min_size=dim, max_size=dim), max_size=6))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    orbits = {tuple(sorted(p, reverse=True)): draw(coeffs) for p in reps}
    return dim, orbits


@settings(max_examples=60, deadline=None)
@given(data=orbit_maps())
def test_fold_inverts_unfold(data):
    dim, orbits = data
    f = orbit_form(dim, orbits)
    full = f.unfold()
    assert full == reference_unfold(dim, orbits)
    assert OrbitForm.fold(full) == f
    assert len(full) == sum(orbit_size(p) for p in orbits)


def route_seeds():
    for parity in ("odd", "even"):
        for m in (0, 1, 2):
            for k in range(4):
                yield f"{parity} m={m} k={k}", zr._laplacian_seed(parity, m, k)
    for m in (0, 1, 2):
        for k in range(4):
            yield f"paravector m={m} k={k}", za.xyc_power_real_invariant(k + 2 * m, 2 * m + 2)


def test_full_seed_is_constant_on_each_orbit():
    for label, seed in route_seeds():
        full = seed.to_radialexpr()
        values: dict[tuple, list] = {}
        for xe, ye, px, py, c in full.terms():
            assert (px, py) == (0, 0), label
            values.setdefault(tuple(sorted(zip(xe, ye))), []).append(c)
        for rep, cs in values.items():
            assert len(set(cs)) == 1, (label, rep)
            assert len(cs) == orbit_size(rep), (label, rep)
        assert OrbitForm.from_invariant(seed).unfold() == full, label


def test_orbit_routes_match_full_coordinates():
    for parity in ("odd", "even"):
        for m in (0, 1, 2):
            for k in range(4):
                seed = zr._laplacian_seed(parity, m, k)
                out = zr.laplacian_route(parity, m, k)
                assert out == full_laplacians(seed, m, "xy"), (parity, m, k)
                out = zr.laplacian_route_fixed_y(parity, m, k)
                assert out == full_laplacians(seed, m, "x"), (parity, m, k)
    for m in (0, 1, 2):
        for k in range(4):
            seed = za.xyc_power_real_invariant(k + 2 * m, 2 * m + 2)
            assert zr.clifford_route(m, k) == full_laplacians(seed, m, "xy"), (m, k)


def test_laurent_routes_match_full_coordinates():
    for n in range(2, 6):
        for k in range(5):
            assert zr.ladder_route(n, k) == full_ladder(n, k), (n, k)
    for n in (1, 3, 5):
        for k in range(1, 4):
            assert zr.kelvin_route(n, k) == full_inversion((n - 1) // 2, k), (n, k)
    for m in (0, 1, 2):
        for k in range(1, 4):
            assert zr.eta_relation(m, k).rhs_raw == full_inversion(m, k), (m, k)


def test_apply_rejects_a_laurent_output():
    f = OrbitForm.from_invariant(za.xyc_power_real_invariant(2, 3))
    with pytest.raises(ValueError):
        f.apply(lambda g: g.kelvin())


@pytest.mark.parametrize("parity, target", [("odd", 8), ("even", 7)])
def test_m3_route_at_coordinate_level(parity, target):
    # the m = 3 suite cells run in the invariant algebra; this certifies them in coordinates
    for k in range(5):
        pref = zr.beta_tilde(3, k) if parity == "odd" else zr.beta_hat(3, k)
        out = zr.laplacian_route(parity, 3, k)
        assert out.equals(zonal_direct(target, k).scale(pref)), (parity, k)


@pytest.mark.parametrize("inv", [
    za.monomial(3, 0, -2, 0),
    za.monomial(3, 1, 1, 1),
    za.xyc_power_real_invariant(-2, 3),
], ids=["negative", "odd", "laurent_power"])
def test_build_rejects_radial_terms(inv):
    with pytest.raises(ValueError):
        OrbitForm.from_invariant(inv)


def test_fold_rejects_radial_and_unpaired_expressions():
    with pytest.raises(ValueError):
        OrbitForm.fold(rx.norm_power("x", -1, 3, 3))
    with pytest.raises(ValueError):
        OrbitForm.fold(rx.constant(1, 3, 2))


def test_apply_multiplication_matches_coordinates():
    seed = za.xyc_power_real_invariant(3, 4)
    a = rx.inner_xy(4)
    got = OrbitForm.from_invariant(seed).apply(lambda g: g * a).unfold()
    assert got == seed.to_radialexpr() * a
