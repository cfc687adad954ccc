import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zonalkit import radialexpr as rx
from zonalkit import zonalalg as za
from zonalkit.gegenbauer import zonal_direct, zonal_direct_invariant

from expand_reference import reference_to_radialexpr
from pole_reference import reference_substitute_point

monomials = st.tuples(st.integers(0, 3), st.integers(-5, 5), st.integers(-5, 5),
                      st.fractions(min_value=-20, max_value=20, max_denominator=4))


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(2, 5), mono=monomials)
def test_operator_rules_match_coordinate_engine(dim, mono):
    A, R, S, c = mono
    if c == 0:
        c = Fraction(1)
    m = za.monomial(dim, A, R, S, c)
    mr = m.to_radialexpr()
    assert m.lap_x().to_radialexpr().equals(mr.laplacian("x"))
    assert m.lap_y().to_radialexpr().equals(mr.laplacian("y"))


def test_ring_operations_match_coordinate_engine():
    rng = random.Random(3)
    for _ in range(25):
        dim = rng.choice((2, 3))
        a = za.monomial(dim, rng.randint(0, 2), rng.randint(-3, 3), rng.randint(-3, 3),
                        Fraction(rng.randint(1, 5)))
        b = za.monomial(dim, rng.randint(0, 2), rng.randint(-3, 3), rng.randint(-3, 3),
                        Fraction(rng.randint(-5, -1)))
        s = a + b
        p = a * b
        assert s.to_radialexpr().equals(a.to_radialexpr() + b.to_radialexpr())
        assert p.to_radialexpr().equals(a.to_radialexpr() * b.to_radialexpr())


def naive_expansion(inv: za.ZonalInvariant) -> rx.RadialExpr:
    """Each term as its own product of coordinate factors, summed."""
    n = inv.dim
    out = rx.RadialExpr.zero(n, n)
    for (A, R, S), c in inv.terms.items():
        term = rx.norm_power("x", R, n, n) * rx.norm_power("y", S, n, n)
        for _ in range(A):
            term = term * rx.inner_xy(n)
        out = out + c * term
    return out


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(2, 4),
       terms=st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5), st.integers(-5, 5),
                                st.fractions(min_value=-20, max_value=20, max_denominator=4)),
                      min_size=0, max_size=5))
def test_expander_matches_naive_products(dim, terms):
    inv = za.ZonalInvariant(dim)
    for A, R, S, c in terms:
        inv = inv + za.monomial(dim, A, R, S, c)
    assert inv.to_radialexpr().equals(naive_expansion(inv))


def test_expander_matches_naive_products_on_route_seeds():
    for dim in (3, 4):
        for k in range(-2, 7):
            inv = za.xyc_power_real_invariant(k, dim)
            assert inv.to_radialexpr().equals(naive_expansion(inv)), (dim, k)
    for n in (1, 2, 3):
        for k in range(5):
            inv = zonal_direct_invariant(n, k)
            assert inv.to_radialexpr().equals(naive_expansion(inv)), (n, k)


def _poles(dim: int) -> list[tuple]:
    """The unit pole e_0 and a second rational point of the unit sphere."""
    pad = (0,) * (dim - 2)
    return [(1, 0) + pad, (Fraction(3, 5), Fraction(4, 5)) + pad]


@pytest.mark.parametrize("K", range(11))
def test_pole_expansion_of_paravector_powers(K):
    inv = za.xyc_power_real_invariant(K, 4)
    full = inv.to_radialexpr()
    for p in _poles(4):
        at_pole = inv.to_radialexpr(y=p)
        want = reference_substitute_point(full, p)
        assert at_pole == want, p
        assert at_pole.digest() == want.digest()


def test_pole_expansion_of_direct_kernels():
    for n in (1, 2, 3, 4):
        for k in range(6):
            inv = zonal_direct_invariant(n, k)
            full = inv.to_radialexpr()
            for p in _poles(n + 1):
                assert inv.to_radialexpr(y=p) == reference_substitute_point(full, p), (n, k, p)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 4),
       terms=st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5), st.integers(-5, 5),
                                st.fractions(min_value=-20, max_value=20, max_denominator=4)),
                      min_size=0, max_size=5),
       which=st.integers(0, 1))
def test_pole_expansion_matches_substitution(dim, terms, which):
    # odd and negative |y| floors included: each is the factor 1 at a pole
    inv = za.ZonalInvariant(dim)
    for A, R, S, c in terms:
        inv = inv + za.monomial(dim, A, R, S, c)
    p = _poles(dim)[which]
    assert inv.to_radialexpr(y=p) == reference_substitute_point(inv.to_radialexpr(), p)


def test_pole_expansion_refuses_points_off_the_unit_sphere():
    inv = za.xyc_power_real_invariant(-2, 4)  # |y|^-4 floor
    for p in [(0, 0, 0, 0), (3, 4, 0, 0), (1, 1, 0, 0), (Fraction(3, 10), Fraction(2, 5), 0, 0)]:
        with pytest.raises(ValueError, match=r"\|y\| = 1"):
            inv.to_radialexpr(y=p)
    with pytest.raises(ValueError, match="coordinates"):
        inv.to_radialexpr(y=(1, 0, 0))


def _expansion(expand, inv, y):
    """What an expander gives: the exact state of its result, or the error it raised."""
    try:
        f = expand(inv, y)
    except rx.RadialOverflow as exc:
        return type(exc), str(exc)
    return f._terms, f._den, f._radial_free


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(2, 4),
       terms=st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5), st.integers(-5, 5),
                                st.fractions(min_value=-20, max_value=20, max_denominator=4)),
                      min_size=0, max_size=5),
       which=st.integers(0, 2), cancel=st.booleans())
def test_expander_matches_the_radialexpr_reference(dim, terms, which, cancel):
    # y free and y at the poles; negative and odd floors; with ``cancel`` a pair
    # c |y|^(S+2) - c |y|^S that vanishes at a pole
    p = ([None] + _poles(dim))[which]
    inv = za.ZonalInvariant(dim)
    for A, R, S, c in terms:
        inv = inv + za.monomial(dim, A, R, S, c)
    if cancel and terms:
        A, R, S, c = terms[0]
        inv = za.ZonalInvariant(dim, {(A, R + 1, S + 2): c or 1, (A, R + 1, S): -(c or 1)})
    assert _expansion(za.ZonalInvariant.to_radialexpr, inv, p) \
        == _expansion(reference_to_radialexpr, inv, p)


@pytest.mark.parametrize("key", [(0, 128, 0), (0, 0, 128), (128, 0, 0), (127, 1, 0),
                                 (127, 0, 1), (0, 127, 0), (63, 64, 0), (0, -3, 126)])
@pytest.mark.parametrize("y", [None, (1, 0), (Fraction(3, 5), Fraction(4, 5))])
def test_expander_raises_at_the_degree_cap_where_the_reference_does(key, y):
    inv = za.monomial(2, *key, Fraction(3, 2))
    got = _expansion(za.ZonalInvariant.to_radialexpr, inv, y)
    assert got == _expansion(reference_to_radialexpr, inv, y)
    if key in ((0, 128, 0), (128, 0, 0)):
        assert got == (rx.RadialOverflow, "product would exceed the packed degree cap")


def test_expander_of_route_seeds_matches_the_reference():
    cases = [(zonal_direct_invariant(n, k), n + 1) for n in (1, 2, 5) for k in range(7)]
    cases += [(za.xyc_power_real_invariant(k, 4), 4) for k in range(-3, 6)]
    cases += [(za.xyc_power_real_invariant(2, 3) - za.xyc_power_real_invariant(2, 3), 3)]
    for inv, dim in cases:
        for p in [None] + _poles(dim):
            assert _expansion(za.ZonalInvariant.to_radialexpr, inv, p) \
                == _expansion(reference_to_radialexpr, inv, p), (inv, p)


@pytest.mark.parametrize("inv, y", [
    (zonal_direct_invariant(4, 6), None),  # 60 coordinate terms cancel in the Horner sum
    (za.ZonalInvariant(3, {(1, 0, 2): Fraction(3), (1, 0, 0): Fraction(-3)}), (1, 0, 0)),
], ids=["kernel", "pole"])
def test_expander_drops_cancelled_terms_before_make(monkeypatch, inv, y):
    # the expander deletes zeros from the dict it owns, so _make's scan finds none to copy
    make = rx.RadialExpr._make.__func__
    calls = []

    def spy(cls, nx, ny, terms, *args, **kwargs):
        calls.append(sum(not v for v in terms.values()))
        return make(cls, nx, ny, terms, *args, **kwargs)

    monkeypatch.setattr(rx.RadialExpr, "_make", classmethod(spy))
    f = inv.to_radialexpr(y=y)
    assert calls == [0]
    assert 0 not in f._terms.values()


def test_expander_names_a_radial_floor_outside_the_range():
    # the floor |x|^-2049 used to borrow from the |y| field and fail in canonicalisation
    with pytest.raises(rx.RadialOverflow, match="radial exponent out of range"):
        za.monomial(2, 0, -2049, 0).to_radialexpr()


def test_largest_default_kernel_is_pinned():
    # zonal_direct(6, 8), the largest kernel of a default suite: 218,799 terms over 128
    z = zonal_direct(6, 8)
    assert (len(z), z._den) == (218_799, 128)
    assert z.digest() == "48ead2e1ad8fa0ddf6d41ea4410324be26992621e7049db342eb7bf133d789d1"


def test_direct_kernel_past_the_degree_cap_raises():
    with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
        zonal_direct(1, 128)
    assert zonal_direct(1, 127).homogeneous_degree("x") == 127


def test_invariant_harmonicity():
    for n in (2, 3, 5):
        for k in (1, 2, 4):
            z = zonal_direct_invariant(n, k)
            assert z.lap_x().is_zero()
            assert z.lap_y().is_zero()


def test_serialization_digest_stable():
    z = zonal_direct_invariant(3, 4)
    assert z.digest() == zonal_direct_invariant(3, 4).digest()
    assert z.to_json() == zonal_direct_invariant(3, 4).to_json()
