import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from zonalkit import orbitform
from zonalkit import radialexpr as rx
from zonalkit import zonalalg as za
from zonalkit import zonalroutes as zr
from zonalkit.gegenbauer import zonal_direct
from zonalkit.orbitform import OrbitForm

from orbit_reference import (reference_from_invariant, reference_orbit, reference_placements,
                             reference_table_unfold)


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


def compositions(total: int):
    """Every tuple of positive integers that sums to ``total``."""
    if not total:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def placements_of(table, columns: list[int]) -> list[tuple]:
    """Each placement of ``table`` as the tuple of its sets, column j taken from ``columns[j]``."""
    picked = [[sets[i] for i in idx] for sets, idx in (table[c] for c in columns)]
    return list(zip(*picked))


def test_one_placement_table_per_multiset_matches_the_reference():
    cases = [(dim, mults) for dim in range(1, 8) for total in range(dim + 1)
             for mults in compositions(total)]
    rng = random.Random(8)
    for dim in (8, 9):
        # one choice at a time is slow at dims 8-9: a sample below 8,000 placements each
        small = [mults for total in range(dim + 1) for mults in compositions(total)
                 if math.factorial(dim) // math.factorial(dim - sum(mults))
                 // math.prod(map(math.factorial, mults)) < 8000]
        cases += [(dim, mults) for mults in rng.sample(small, 25)]
    for dim, mults in cases:
        order = sorted(range(len(mults)), key=mults.__getitem__)
        table = orbitform._placements(dim, tuple(mults[j] for j in order))
        want = reference_placements(dim, mults)
        if not mults:
            assert table == want == ()
            continue
        # column j of the reference is column order.index(j) of the shared table
        got = placements_of(table, [order.index(j) for j in range(len(mults))])
        assert len(got) == len(set(got)), (dim, mults)
        assert set(got) == set(placements_of(want, list(range(len(mults))))), (dim, mults)


@st.composite
def representatives(draw):
    """A representative's dimension and packed key: pairs with repeats, (0, 0) and the cap."""
    dim = draw(st.integers(0, 9))
    pool = draw(st.lists(st.tuples(st.sampled_from([0, 1, 2, 5, 127]),
                                   st.sampled_from([0, 1, 3, 127])), min_size=1, max_size=3))
    pairs = sorted(draw(st.lists(st.sampled_from(pool), min_size=dim, max_size=dim)),
                   reverse=True)
    return dim, rx._layout(dim, dim).pack([a for a, _ in pairs], [b for _, b in pairs], 0, 0)


@settings(max_examples=150, deadline=None)
@given(rep=representatives())
def test_orbit_data_matches_the_reference(rep):
    dim, r = rep
    assert orbitform._orbit.__wrapped__(r, dim) == reference_orbit(r, dim)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 7))
def test_unfold_matches_the_reference_tables(data, dim):
    # few distinct pairs, so representatives repeat pairs and share multisets of multiplicities
    pool = data.draw(st.lists(pair, min_size=1, max_size=3))
    reps = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=dim, max_size=dim),
                              max_size=6))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    f = orbit_form(dim, {tuple(sorted(p, reverse=True)): data.draw(coeffs) for p in reps})
    got, want = f.unfold(), reference_table_unfold(f)
    assert got._terms == want._terms and got._den == want._den


def test_placement_tables_are_cached_once_per_multiset(monkeypatch):
    asked = set()
    table = orbitform._placements

    def spy(dim, mults):
        asked.add((dim, mults))
        return table(dim, mults)

    table.cache_clear()
    monkeypatch.setattr(orbitform, "_placements", spy)
    for _, seed in route_seeds():
        OrbitForm.from_invariant(seed).unfold()
    zr.ladder_route(4, 4)
    multisets = {(dim, tuple(sorted(mults))) for dim, mults in asked}
    assert len(asked) == len(multisets) > 10
    assert table.cache_info().currsize == len(asked)


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


def _build(builder, inv):
    """What a builder gives: its numerators and denominator, or the error it raised."""
    try:
        f = builder(inv)
    except rx.RadialOverflow as exc:
        return type(exc), str(exc)
    return f._orbits, f._den


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(2, 7),
       terms=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3),
                                st.fractions(min_value=-20, max_value=20, max_denominator=6)),
                      max_size=5),
       cancel=st.booleans())
@example(dim=3, terms=[], cancel=False)
def test_orbit_products_match_the_coordinate_detour(dim, terms, cancel):
    # even radial powers up to 6; with ``cancel`` a pair c a^(A+2) - c a^A Q_x Q_y,
    # whose coefficients cancel on the orbits of x_i^2 y_i^2 times a common factor
    inv = za.ZonalInvariant(dim)
    for A, R, S, c in terms:
        inv = inv + za.monomial(dim, A, 2 * R, 2 * S, c)
    if cancel and terms:
        A, R, S, c = terms[0]
        A = min(A, 2)
        inv = (inv + za.monomial(dim, A + 2, 2 * R, 2 * S, c or 1)
               - za.monomial(dim, A, 2 * R + 2, 2 * S + 2, c or 1))
    assert _build(OrbitForm.from_invariant, inv) == _build(reference_from_invariant, inv)


def power_sum(dim: int, da: int, db: int) -> rx.RadialExpr:
    """sum_t x_t^da y_t^db in coordinates."""
    return rx.from_terms(dim, dim, [([da * (i == t) for i in range(dim)],
                                     [db * (i == t) for i in range(dim)], 0, 0, 1)
                                    for t in range(dim)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 7), d=st.sampled_from([(1, 1), (2, 0), (0, 2),
                                                                   (1, 0), (0, 3), (2, 1)]))
def test_times_matches_the_coordinate_product(data, dim, d):
    reps = data.draw(st.lists(st.lists(pair, min_size=dim, max_size=dim), max_size=5))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    f = orbit_form(dim, {tuple(sorted(p, reverse=True)): data.draw(coeffs) for p in reps})
    p = power_sum(dim, *d)
    got = f._times(*d)
    assert got == f.apply(lambda g: g * p)
    assert got.unfold() == f.unfold() * p


def test_times_hand_cases():
    # dim 1: one pair, raised
    assert orbit_form(1, {((2, 1),): Fraction(3)})._times(1, 1) \
        == orbit_form(1, {((3, 2),): Fraction(3)})
    # all pairs equal: m of x1 y1 x2 y2 x3 y3 times <x,y> is m of x1^2 y1^2 x2 y2 x3 y3
    assert orbit_form(3, {((1, 1),) * 3: Fraction(1)})._times(1, 1) \
        == orbit_form(3, {((2, 2), (1, 1), (1, 1)): Fraction(1)})
    # (0, 0) pairs are raised too, and a raised pair that meets its equal counts twice:
    # x1^2 y1^2 x2^2 y2^2 comes from x1^2 y1^2 x2 y2 * x2 y2 and x2^2 y2^2 x1 y1 * x1 y1
    got = orbit_form(3, {((2, 2), (1, 1), (0, 0)): Fraction(1, 2)})._times(1, 1)
    assert got == orbit_form(3, {((3, 3), (1, 1), (0, 0)): Fraction(1, 2),
                                 ((2, 2), (2, 2), (0, 0)): Fraction(1),
                                 ((2, 2), (1, 1), (1, 1)): Fraction(1)})
    # a pair raised past others moves before them
    got = orbit_form(3, {((2, 0), (1, 3), (0, 1)): Fraction(1)})._times(2, 0)
    assert got == orbit_form(3, {((4, 0), (1, 3), (0, 1)): Fraction(1),
                                 ((3, 3), (2, 0), (0, 1)): Fraction(1),
                                 ((2, 1), (2, 0), (1, 3)): Fraction(1)})
    assert OrbitForm.zero(4)._times(1, 1) == OrbitForm.zero(4)
    # at the degree cap: from_invariant builds x degree 127 and refuses 128, and y is still free
    assert OrbitForm.from_invariant(za.monomial(2, 1, 126, 0)).unfold().homogeneous_degree("x") \
        == 127
    with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
        OrbitForm.from_invariant(za.monomial(2, 2, 126, 0))
    f = orbit_form(2, {((127, 0), (0, 0)): Fraction(1)})
    assert f._times(0, 127) == orbit_form(2, {((127, 127), (0, 0)): Fraction(1),
                                              ((127, 0), (0, 127)): Fraction(1)})


@pytest.mark.parametrize("key", [(0, 128, 0), (0, 0, 128), (128, 0, 0), (126, 2, 0),
                                 (126, 0, 2), (0, 126, 126), (127, 0, 0)])
def test_products_raise_at_the_degree_cap_where_the_detour_does(key):
    inv = za.monomial(2, *key, Fraction(3, 2))
    got = _build(OrbitForm.from_invariant, inv)
    assert got == _build(reference_from_invariant, inv)
    if max(key[0] + key[1], key[0] + key[2]) > rx.MAX_DEGREE:
        assert got == (rx.RadialOverflow, "product would exceed the packed degree cap")


@pytest.mark.parametrize("key", [(0, 128, 0), (2, 0, 126), (65, 64, 0)])
def test_from_invariant_checks_the_cap_before_any_product(monkeypatch, key):
    # the degrees the Horner plan reaches are read off the terms, not tracked product by product
    calls = []
    times = OrbitForm._times
    monkeypatch.setattr(OrbitForm, "_times", lambda f, *d: calls.append(d) or times(f, *d))
    with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
        OrbitForm.from_invariant(za.monomial(3, *key) + za.monomial(3, 1, 0, 2))
    assert calls == []


def fresh_ladder(n: int, k: int) -> rx.RadialExpr:
    """k ladder steps in orbit form from the constant 1, with no cache."""
    f = OrbitForm.fold(rx.constant(1, n + 1, n + 1))
    for _ in range(k):
        f = f.apply(lambda g: g.kelvin().dir_deriv().kelvin())
    return f.unfold()


def test_ladder_cache_is_independent_of_the_call_order():
    cells = [(n, k) for n in range(2, 7) for k in range(7)]
    want = {cell: fresh_ladder(*cell) for cell in cells}
    for order in (cells, cells[::-1], random.Random(5).sample(cells, len(cells))):
        zr._ladder_form.cache_clear()
        for cell in order:
            assert zr.ladder_route(*cell) == want[cell], cell
    for cell in cells[::5]:
        zr._ladder_form.cache_clear()
        assert zr.ladder_route(*cell) == want[cell], cell
    with pytest.raises(ValueError, match="nonnegative"):
        zr.ladder_route(3, -1)
    with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
        zr.ladder_route(2, 128)
    with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
        zr.ladder_route(2, 10 ** 6)
