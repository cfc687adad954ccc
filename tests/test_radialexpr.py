import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonalkit import radialexpr as rx
from zonalkit.gegenbauer import zonal_direct
from zonalkit.zonalroutes import ladder_route

from operator_reference import (reference_dir_deriv, reference_kelvin, reference_laplacian,
                                reference_partial)
from pole_reference import reference_substitute_point

NX = NY = 3  # work in R^3 unless a case needs otherwise


def power(f, k):
    """f^k by repeated products."""
    out = rx.constant(1, f.nx, f.ny)
    for _ in range(k):
        out = out * f
    return out


def expr_strategy(nx=NX, ny=NY, max_terms=4, max_exp=2, rad_range=(-4, 2)):
    coeff = st.fractions(min_value=-40, max_value=40, max_denominator=6)
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * nx),
        st.tuples(*[st.integers(0, max_exp)] * ny),
        st.integers(*rad_range),
        st.integers(*rad_range),
        coeff,
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda items: rx.from_terms(nx, ny, items)
    )


# -- construction and canonical form ------------------------------------------

def test_norm_square_absorbs_to_quadratic_form():
    n1 = rx.norm_power("x", 1, NX, NY)
    assert (n1 * n1).equals(rx.quadratic_form("x", NX, NY))


def test_quadratic_times_inverse_norm_is_one():
    q = rx.quadratic_form("x", NX, NY)
    assert (q * rx.norm_power("x", -2, NX, NY)).equals(rx.constant(1, NX, NY))


@given(f=expr_strategy(), group=st.sampled_from(("x", "y")))
def test_divide_then_multiply_by_quadratic_form_round_trips(f, group):
    inverse = rx.norm_power(group, -2, NX, NY)
    assert ((f * inverse) * rx.quadratic_form(group, NX, NY)).equals(f)


def test_add_cancellation():
    f = power(rx.inner_xy(NX), 2) + rx.quadratic_form("y", NX, NY).scale(Fraction(3, 7))
    assert (f - f).is_zero()


def test_cancelled_terms_leave_no_zero_coefficient():
    # _make copies a term dict only when it holds a zero; results that cancel
    # must still come out without one
    x0, x1 = (rx.coordinate("x", i, NX, NY) for i in (0, 1))
    y0 = rx.coordinate("y", 0, NX, NY)
    cases = [
        (x0 - x0, 0),
        ((x0 + y0) * (x0 - y0), 2),  # the x0 y0 terms cancel
        (rx.constant(5, NX, NY).partial("x", 0), 0),
        ((x0 * x0 - x1 * x1).laplacian("x"), 0),  # 2 - 2 at the constant term
    ]
    for f, size in cases:
        assert 0 not in f._terms.values()
        assert len(f) == size
    assert cases[1][0].equals(x0 * x0 - y0 * y0)


@pytest.mark.parametrize("hint", [False, True])
def test_make_keeps_a_zero_free_dict_and_drops_zeros(hint):
    lay = rx._layout(2, 2)
    keys = [lay.pack((i, 0), (0, 1), 0, 0) for i in range(3)]
    terms = dict(zip(keys, (3, -1, 2)))
    # no zero and no common factor with the denominator: the dict is kept as it is
    assert rx.RadialExpr._make(2, 2, terms, 5, radial_free_hint=hint)._terms is terms
    # zeros are deleted from the dict it is handed, not from a copy
    with_zero = {**terms, keys[1]: 0}
    got = rx.RadialExpr._make(2, 2, with_zero, 5, radial_free_hint=hint)
    assert got._terms is with_zero
    assert got._terms == {keys[0]: 3, keys[2]: 2}


def test_canonical_form_unique_across_constructions():
    # Q_x Q_y |x|^-2 |y|^-2 built two ways
    q = rx.quadratic_form("x", NX, NY) * rx.quadratic_form("y", NX, NY)
    f = q * rx.norm_power("x", -2, NX, NY) * rx.norm_power("y", -2, NX, NY)
    assert f.equals(rx.constant(1, NX, NY))


@settings(max_examples=60, deadline=None)
@given(f=expr_strategy())
def test_canonicalisation_idempotent(f):
    rebuilt = rx.from_terms(NX, NY, list(f.terms()))
    assert rebuilt.equals(f)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        rx.constant(1, 3, 3) + rx.constant(1, 4, 4)
    with pytest.raises(ValueError):
        rx.inner_xy(3) * rx.inner_xy(4)


@pytest.mark.parametrize("group", ["x", "y"])
@pytest.mark.parametrize("length", [1, 3])
def test_exponent_tuples_of_the_wrong_length_raise(group, length):
    # a tuple of the wrong length raises; it is not cut short or padded with zeros
    xe, ye = ((0,) * length, (0, 0)) if group == "x" else ((0, 0), (0,) * length)
    with pytest.raises(ValueError, match=r"lengths 2 \(x\) and 2 \(y\)"):
        rx.from_terms(2, 2, [(xe, ye, 0, 0, 1)])
    with pytest.raises(ValueError, match=r"lengths 2 \(x\) and 2 \(y\)"):
        rx.inner_xy(2).coefficient(xe, ye)


@pytest.mark.parametrize("call", [
    lambda g: rx.coordinate(g, 0, 2, 2),
    lambda g: rx.quadratic_form(g, 2, 2),
    lambda g: rx.norm_power(g, -1, 2, 2),
    lambda g: rx.inner_xy(2).partial(g, 0),
    lambda g: rx.inner_xy(2).laplacian(g),
    lambda g: rx.inner_xy(2).kelvin(g),
    lambda g: rx.inner_xy(2).homogeneous_degree(g),
], ids=["coordinate", "quadratic_form", "norm_power", "partial", "laplacian", "kelvin",
        "homogeneous_degree"])
@pytest.mark.parametrize("group", ["z", "X", None])
def test_unknown_group_raises(call, group):
    # a group other than "x" and "y" raises; it is not read as "y"
    with pytest.raises(ValueError, match="unknown variable group"):
        call(group)


# -- derivatives ---------------------------------------------------------------

def test_partial_radial_rule():
    # d/dx1 |x|^-1 = -x1 |x|^-3
    d = rx.norm_power("x", -1, NX, NY).partial("x", 1)
    want = rx.from_terms(NX, NY, [((0, 1, 0), (0, 0, 0), -3, 0, Fraction(-1))])
    assert d.equals(want)


def test_partial_of_angle_variable():
    # d/dx_i w with w = <x,y>/(|x||y|)
    w = rx.inner_xy(NX) * rx.norm_power("x", -1, NX, NY) * rx.norm_power("y", -1, NX, NY)
    got = w.partial("x", 1)
    y1 = rx.coordinate("y", 1, NX, NY)
    x1 = rx.coordinate("x", 1, NX, NY)
    want = y1 * rx.norm_power("x", -1, NX, NY) * rx.norm_power("y", -1, NX, NY) \
        - rx.inner_xy(NX) * x1 * rx.norm_power("x", -3, NX, NY) * rx.norm_power("y", -1, NX, NY)
    assert got.equals(want)


def test_partial_constant_is_zero():
    assert rx.constant(5, NX, NY).partial("x", 0).is_zero()


@settings(max_examples=50, deadline=None)
@given(f=expr_strategy(max_terms=3), g=expr_strategy(max_terms=3), i=st.integers(0, NX - 1))
def test_partial_is_a_derivation(f, g, i):
    lhs = (f * g).partial("x", i)
    rhs = f.partial("x", i) * g + f * g.partial("x", i)
    assert lhs.equals(rhs)


def test_partial_is_a_derivation_bulk():
    # 10^3 seeded random pairs, cheap two-term operands
    rng = random.Random(2024)

    def small():
        items = []
        for _ in range(2):
            xe = tuple(rng.randint(0, 2) for _ in range(NX))
            ye = tuple(rng.randint(0, 2) for _ in range(NY))
            items.append((xe, ye, rng.randint(-3, 2), rng.randint(-3, 2),
                          Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))))
        return rx.from_terms(NX, NY, items)

    for _ in range(1000):
        f, g = small(), small()
        grp = "x" if rng.random() < 0.5 else "y"
        i = rng.randint(0, 2)
        lhs = (f * g).partial(grp, i)
        rhs = f.partial(grp, i) * g + f * g.partial(grp, i)
        assert lhs.equals(rhs)


def test_laplacian_examples():
    assert rx.inner_xy(NX).laplacian("x").is_zero()
    got = rx.quadratic_form("x", NX, NY).laplacian("x")
    assert got.equals(rx.constant(2 * NX, NX, NY))
    # |x|^p harmonic iff p = 0 or p = 2 - N
    assert rx.norm_power("x", 2 - NX, NX, NY).laplacian("x").is_zero()
    assert not rx.norm_power("x", -4, NX, NY).laplacian("x").is_zero()


@settings(max_examples=40, deadline=None)
@given(f=expr_strategy(max_terms=3), g=expr_strategy(max_terms=3),
       c=st.fractions(min_value=-20, max_value=20, max_denominator=5))
def test_laplacian_linear(f, g, c):
    lhs = (f + g.scale(c)).laplacian("x")
    rhs = f.laplacian("x") + g.laplacian("x").scale(c)
    assert lhs.equals(rhs)
    assert (f + g).laplacian("y").equals(f.laplacian("y") + g.laplacian("y"))


def test_dir_deriv_examples():
    a = rx.inner_xy(NX)
    assert a.dir_deriv().equals(rx.quadratic_form("y", NX, NY))
    assert rx.constant(1, NX, NY).dir_deriv().is_zero()
    n = NX - 1
    got = rx.norm_power("x", 1 - n, NX, NY).dir_deriv()
    want = (a * rx.norm_power("x", -1 - n, NX, NY)).scale(1 - n)
    assert got.equals(want)


# -- kelvin inversion -----------------------------------------------------------

def test_kelvin_of_one():
    n = NX - 1
    assert rx.constant(1, NX, NY).kelvin().equals(rx.norm_power("x", 1 - n, NX, NY))


def test_kelvin_homogeneous_image():
    # degree-k homogeneous polynomial maps to |x|^(2-(n+1)-2k) times itself
    n = NX - 1
    p = power(rx.inner_xy(NX), 2)  # degree 2 in x
    got = p.kelvin()
    want = p * rx.norm_power("x", 2 - (n + 1) - 4, NX, NY)
    assert got.equals(want)


@settings(max_examples=50, deadline=None)
@given(f=expr_strategy(max_terms=3))
def test_kelvin_involution(f):
    assert f.kelvin().kelvin().equals(f)


@settings(max_examples=40, deadline=None)
@given(f=expr_strategy(max_terms=2))
def test_kelvin_homogeneity_shift(f):
    d = f.homogeneous_degree("x")
    if d is None:
        return
    n = NX - 1
    img = f.kelvin().homogeneous_degree("x")
    assert img == 1 - n - d


def test_kelvin_preserves_harmonicity_on_kernels():
    for n, k in ((2, 1), (2, 2), (3, 2), (3, 3)):
        z = zonal_direct(n, k)
        assert z.laplacian("x").is_zero()
        assert z.kelvin().laplacian("x").is_zero()


# -- structure -------------------------------------------------------------------

def test_homogeneous_degree():
    assert rx.inner_xy(NX).homogeneous_degree("x") == 1
    f = rx.coordinate("x", 1, NX, NY) * rx.norm_power("x", -3, NX, NY)
    assert f.homogeneous_degree("x") == -2
    mixed = rx.coordinate("x", 0, NX, NY) + rx.quadratic_form("x", NX, NY)
    assert mixed.homogeneous_degree("x") is None
    # degrees mixed only through the radial field, in the y group, and the zero expression
    assert (rx.norm_power("y", 2, NX, NY) + rx.norm_power("y", 3, NX, NY)
            ).homogeneous_degree("y") is None
    g = (rx.coordinate("y", 2, NX, NY) * rx.norm_power("y", 1, NX, NY)
         + rx.quadratic_form("y", NX, NY))
    assert g.homogeneous_degree("y") == 2 and g.homogeneous_degree("x") == 0
    assert rx.RadialExpr.zero(NX, NY).homogeneous_degree("x") is None


def test_reference_substitution_unit_sphere():
    f = rx.inner_xy(NX) * rx.norm_power("y", 1, NX, NY)
    got = reference_substitute_point(f, (Fraction(3, 5), Fraction(4, 5), 0))
    want = rx.coordinate("x", 0, NX, NY).scale(Fraction(3, 5)) \
        + rx.coordinate("x", 1, NX, NY).scale(Fraction(4, 5))
    assert got.equals(want)


def test_reference_substitution_raises_pole_error():
    with pytest.raises(rx.PoleError):
        reference_substitute_point(rx.norm_power("y", -2, NX, NY), (0, 0, 0))
    with pytest.raises(rx.PoleError):
        reference_substitute_point(rx.norm_power("y", 1, NX, NY), (1, 1, 0))
    # an even power needs no square root, and a positive one is finite at the origin
    assert reference_substitute_point(rx.norm_power("y", -2, NX, NY), (1, 1, 0)) \
        == rx.constant(Fraction(1, 2), NX, NY)
    assert reference_substitute_point(rx.norm_power("y", 1, NX, NY), (0, 0, 0)).is_zero()


# -- evaluation -------------------------------------------------------------------

def test_eval_exact_examples():
    ev = rx.norm_power("x", 1, NX, NY).eval_exact((3, 4, 0), (1, 0, 0))
    assert ev.as_tuple() == (Fraction(5), 0, 0, 0)
    assert rx.constant(1, NX, NY).eval_exact((1, 1, 1), (2, 2, 2)).as_tuple() == (1, 0, 0, 0)
    a2 = rx.inner_xy(2)
    assert a2.eval_exact((1, 2), (3, -1)).as_tuple() == (1, 0, 0, 0)


def test_eval_exact_irrational_radical():
    ev = rx.norm_power("x", 1, NX, NY).eval_exact((1, 1, 0), (1, 0, 0))
    assert ev.as_tuple() == (0, 1, 0, 0)
    assert ev.qx == 2


def test_eval_exact_positive_norm_power_vanishes_at_the_origin():
    ev = rx.norm_power("x", 1, NX, NY).eval_exact((0, 0, 0), (1, 0, 0))
    assert ev.as_tuple() == (0, 0, 0, 0)


def test_eval_exact_folds_a_rational_product_of_radicals():
    # neither sqrt(2) nor sqrt(8) is rational, but sqrt(2) sqrt(8) = 4 is
    f = rx.norm_power("x", 1, NX, NY) * rx.norm_power("y", 1, NX, NY)
    assert f.eval_exact((1, 1, 0), (2, 2, 0)).as_tuple() == (4, 0, 0, 0)


def test_eval_exact_pole():
    with pytest.raises(rx.PoleError):
        rx.norm_power("x", -2, NX, NY).eval_exact((0, 0, 0), (1, 0, 0))


@settings(max_examples=30, deadline=None)
@given(f=expr_strategy(max_terms=3))
def test_eval_exact_matches_eval_float(f):
    # the float evaluator takes polynomials only; Laurent terms are checked
    # against the term-by-term float reference
    rng = random.Random(9)
    for _ in range(4):
        ptx = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(NX)]
        pty = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(NY)]
        exact = f.eval_exact(ptx, pty).to_float()
        approx = reference_eval_float_batch(f, np.array([ptx], dtype=float),
                                            np.array([pty], dtype=float))[0]
        if abs(exact) > 1e-12:
            assert abs(exact - approx) / abs(exact) < 1e-10
        else:
            assert abs(exact - approx) < 1e-9


def test_eval_float_batch_matches_pointwise():
    f = zonal_direct(2, 3)
    X = np.array([[0.3, -0.2, 0.5], [1.0, 0.0, 2.0]])
    y = np.array([0.1, 0.7, -0.4])
    batch = f.eval_float_batch(X, y)
    for i in range(2):
        assert batch[i] == f.eval_float_batch(X[i:i + 1], y[None, :])[0]


def reference_eval_float_batch(f, X, Y):
    """Term-by-term float evaluation: every term raises whole columns itself."""
    lay = f._lay
    qx = np.sum(X * X, axis=1)
    qy = np.sum(Y * Y, axis=1)
    total = np.zeros(X.shape[0])
    den = float(f._den)
    for key, c in sorted(f._terms.items()):
        px = (key & rx._RAD_MASK) - rx._RAD_BIAS
        py = ((key >> rx._RAD_BITS) & rx._RAD_MASK) - rx._RAD_BIAS
        v = np.full(X.shape[0], c / den)
        for i, s in enumerate(lay.x_shifts):
            e = (key >> s) & rx._EXP_MASK
            if e:
                v = v * X[:, i] ** e
        for j, s in enumerate(lay.y_shifts):
            e = (key >> s) & rx._EXP_MASK
            if e:
                v = v * Y[:, j] ** e
        if px:
            v = v * qx ** (px / 2.0)
        if py:
            v = v * qy ** (py / 2.0)
        total += v
    return total


def _laurent_expr():
    # negative and odd radial powers in both groups, with mixed monomials
    return rx.from_terms(4, 4, [
        ((3, 0, 1, 0), (0, 2, 0, 0), -3, 1, Fraction(7, 3)),
        ((0, 1, 0, 4), (1, 0, 0, 1), 1, -5, Fraction(-2, 9)),
        ((2, 2, 0, 0), (0, 0, 3, 0), -2, -1, 5),
        ((0, 0, 0, 0), (1, 1, 1, 0), 3, -4, Fraction(1, 7)),
    ])


def _polynomial_expr():
    # the monomials of _laurent_expr without its radial powers
    return rx.from_terms(4, 4, [
        ((3, 0, 1, 0), (0, 2, 0, 0), 0, 0, Fraction(7, 3)),
        ((0, 1, 0, 4), (1, 0, 0, 1), 0, 0, Fraction(-2, 9)),
        ((2, 2, 0, 0), (0, 0, 3, 0), 0, 0, 5),
        ((0, 0, 0, 0), (1, 1, 1, 0), 0, 0, Fraction(1, 7)),
    ])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("make", [lambda: zonal_direct(3, 3), _polynomial_expr],
                         ids=["zonal_direct(3,3)", "polynomial"])
def test_eval_float_batch_is_bit_identical_across_blocks(make):
    # reproducing_mc evaluates its samples block by block: a split of the rows
    # that is no block multiple gives the bits of one call and of the reference
    f = make()
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2 * 4096 + 7, 4))
    y = rng.standard_normal(4)
    want = _bits(reference_eval_float_batch(f, X, y[None, :]))
    assert np.array_equal(_bits(f.eval_float_batch(X, y)), want)
    parts = [f.eval_float_batch(X[lo:lo + 3000], y) for lo in range(0, X.shape[0], 3000)]
    assert np.array_equal(_bits(np.concatenate(parts)), want)


# poles with exact zero coordinates, as the reproducing suite uses, and a -0.0
_ZERO_POLES = [np.array([[0.6, 0.0, 0.8, 0.0]]), np.array([[0.0, -0.0, 1.0, 0.0]])]


def test_float_plan_jobs_match_one_job_evaluations():
    f, g = zonal_direct(3, 3), _polynomial_expr()
    rng = np.random.default_rng(8)
    X = rng.standard_normal((1000, 4))
    jobs = [(f, _ZERO_POLES[0]), (g, rng.standard_normal(4)), (g, _ZERO_POLES[1]),
            (f, rng.standard_normal((1, 4)))]
    values = rx._float_plan(jobs)(X)
    assert len(values) == len(jobs)
    for (expr, y), got in zip(jobs, values):
        assert np.array_equal(_bits(got), _bits(reference_eval_float_batch(expr, X, y.reshape(1, 4))))
        assert np.array_equal(_bits(got), _bits(expr.eval_float_batch(X, y)))


@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan, 1e200, 1e-200],
                         ids=["inf", "-inf", "nan", "1e200", "1e-200"])
@pytest.mark.parametrize("make", [lambda: zonal_direct(3, 3), _polynomial_expr],
                         ids=["zonal_direct(3,3)", "polynomial"])
def test_zero_pole_terms_skip_only_when_exact(make, special):
    # a term with a zero pole factor is +-0.0 unless another factor or partial product
    # is inf or NaN (an inf coordinate, or x^3 overflowing at 1e200): then inf * 0 = NaN
    f = make()
    rows = 4096 + 5
    X = np.random.default_rng(3).standard_normal((rows, 4))
    X[3, 0] = X[rows - 2, 1] = special
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = [reference_eval_float_batch(f, X, y) for y in _ZERO_POLES]
        got = [f.eval_float_batch(X, y) for y in _ZERO_POLES]
        # a plan evaluated at several X bounds the skip by the rows of each call
        evaluate = rx._float_plan([(f, y) for y in _ZERO_POLES])
        clean = X[5:12]
        planned = evaluate(clean) + evaluate(X)
        want_planned = [reference_eval_float_batch(f, clean, y) for y in _ZERO_POLES] + want
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))
    for a, b in zip(planned, want_planned):
        assert np.array_equal(_bits(a), _bits(b))
    if not np.isfinite(special) or special > 1:
        assert np.isnan(want[0][3]) and np.isnan(got[0][3])


def test_float_evaluation_rejects_a_radial_term():
    X = np.ones((3, 4))
    with pytest.raises(ValueError, match="radial"):
        _laurent_expr().eval_float_batch(X, np.ones(4))
    # one job with one radial term is enough
    g = zonal_direct(3, 3) + rx.norm_power("x", 1, 4, 4)
    with pytest.raises(ValueError, match="radial"):
        rx._float_plan([(zonal_direct(3, 3), np.ones(4)), (g, np.ones(4))])


@pytest.mark.parametrize("shape", [(3, 4), (2, 4), (0, 4), (3,), (1, 5)])
def test_float_evaluation_takes_one_y_point(shape):
    with pytest.raises(ValueError, match="one point of 4 coordinates"):
        zonal_direct(3, 3).eval_float_batch(np.ones((3, 4)), np.ones(shape))


# -- serialization -----------------------------------------------------------------

def test_json_roundtrip_and_term_order():
    f = power(rx.inner_xy(NX), 2) - rx.quadratic_form("x", NX, NY).scale(Fraction(1, 3)) \
        + rx.norm_power("y", -1, NX, NY)
    data = json.loads(f.to_json())
    keys = [(tuple(t["xexp"]), tuple(t["yexp"]), t["px"], t["py"]) for t in data["terms"]]
    assert keys == sorted(keys)
    back = rx.from_terms(data["nx"], data["ny"], [
        (t["xexp"], t["yexp"], t["px"], t["py"], Fraction(int(t["num"]), int(t["den"])))
        for t in data["terms"]])
    assert back.equals(f)
    assert back.digest() == f.digest()


def reference_to_json(f):
    """The canonical serialisation by its definition: Fraction terms through json.dumps."""
    terms = sorted(f.terms(), key=lambda t: (t[0], t[1], t[2], t[3]))
    data = {"nx": f.nx, "ny": f.ny, "terms": [
        {"xexp": list(xe), "yexp": list(ye), "px": px, "py": py,
         "num": str(c.numerator), "den": str(c.denominator)}
        for xe, ye, px, py, c in terms]}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


_SERIALISATION_CASES = {
    "zero": lambda: rx.RadialExpr.zero(NX, NY),
    "nx!=ny": lambda: rx.from_terms(2, 4, [
        ((1, 0), (0, 2, 0, 1), 0, 0, 3),
        ((0, 3), (1, 0, 0, 0), 1, -1, Fraction(-5, 2)),
        ((2, 1), (0, 0, 0, 0), -3, 0, Fraction(1, 6)),
    ]),
    "laurent": _laurent_expr,
    "negative numerators": lambda: (power(rx.inner_xy(NX), 2)).scale(-7)
    - rx.quadratic_form("x", NX, NY).scale(Fraction(11, 3)),
    # one shared denominator 12; the terms reduce to 1/12, 1/6, 1/4, 1/3, 1/2 and 1
    "shared denominator": lambda: rx.from_terms(NX, NY, [
        ((i, 0, 0), (0, 0, 1), 0, 0, Fraction(n, 12)) for i, n in enumerate((1, 2, 3, 4, 6, 12))
    ] + [((0, 1, 0), (0, 0, 0), 0, -3, Fraction(-8, 12))]),
}


@pytest.mark.parametrize("make", list(_SERIALISATION_CASES.values()),
                         ids=list(_SERIALISATION_CASES))
def test_to_json_matches_reference_serialisation(make):
    f = make()
    assert f.to_json() == reference_to_json(f)
    assert json.dumps(json.loads(f.to_json()), sort_keys=True, separators=(",", ":")) \
        == reference_to_json(f)
    assert f.sorted_terms() == sorted(f.terms(), key=lambda t: t[:4])


def test_shared_denominator_case_reduces_per_term():
    f = _SERIALISATION_CASES["shared denominator"]()
    assert f._den == 12
    assert {t["den"] for t in json.loads(f.to_json())["terms"]} == {"12", "6", "4", "3", "2", "1"}


def _chunk_case(count, integral):
    """``count`` canonical terms with nx=2, ny=3: under each x monomial, four y
    monomials each with four (px, py) pairs, one per parity sector, and
    coefficients over 12 (or 1) that reduce per term."""
    radials = [(0, 0), (1, 0), (-1, 1), (0, -3)]
    items = []
    for t in range(count):
        a, j, l = t // 16, t // 4 % 4, t % 4
        coef = Fraction((-1) ** t * (t % 11 + 1), 1 if integral else 12)
        items.append(((a % 50, a // 50), (j, 3 - j, j % 2), *radials[l], coef))
    return rx.from_terms(2, 3, items)


_C = rx._JSON_CHUNK
_CHUNK_COUNTS = {"0": 0, "1": 1, "C-1": _C - 1, "C": _C, "C+1": _C + 1, "2C+1": 2 * _C + 1}


@pytest.mark.parametrize("integral", [False, True], ids=["den=12", "den=1"])
@pytest.mark.parametrize("count", list(_CHUNK_COUNTS.values()), ids=list(_CHUNK_COUNTS))
def test_serialisation_at_chunk_boundaries(count, integral):
    f = _chunk_case(count, integral)
    assert len(f) == count
    assert f._den == (1 if integral or count == 0 else 12)
    assert len(list(f._json_chunks(f._order()))) == 2 + -(-count // _C)
    ref = reference_to_json(f)
    # equal strings, compared term by term: a failure then reports the first
    # differing term, where a diff of two long one-line strings takes minutes
    assert f.to_json().split("},{") == ref.split("},{")
    assert f.digest() == hashlib.sha256(ref.encode()).hexdigest()


@settings(max_examples=60, deadline=None)
@given(f=expr_strategy(max_terms=8, max_exp=3, rad_range=(-5, 5)))
def test_to_json_matches_reference_serialisation_hypothesis(f):
    assert f.to_json() == reference_to_json(f)


def test_digests_are_pinned():
    # the serialisation is the digest contract: these values must never move
    assert zonal_direct(3, 3).digest() \
        == "e2ff1eb91bcfb14a9b44895d74cc125366d1e3b461e0fe29735dfd391511aecf"
    assert ladder_route(3, 2).kelvin().digest() \
        == "aa93cc4a858a79be1ced6d352e6624e0019d74e7588a05eeff0ed165792c5673"


def test_equal_sides_share_one_digest():
    f = zonal_direct(2, 3)
    g = rx.from_terms(3, 3, list(f.terms()))
    d = f.digest()
    assert f.equals(g)
    assert g.digest() == d == rx.from_terms(3, 3, list(f.terms())).digest()


def test_equals_distinguishes():
    a2 = power(rx.inner_xy(NX), 2)
    qq = rx.quadratic_form("x", NX, NY) * rx.quadratic_form("y", NX, NY)
    assert not a2.equals(qq)


def test_degree_cap_guard():
    f = power(rx.inner_xy(2), 40)
    with pytest.raises(rx.RadialOverflow):
        (f * f) * (f * f)


def test_dir_deriv_raises_instead_of_carrying():
    # x0 y0^127: the x0 derivative would carry y0^128 into the y1 field
    with pytest.raises(rx.RadialOverflow):
        rx.from_terms(2, 2, [((1, 0), (127, 0), 0, 0, 1)]).dir_deriv()
    # x0^127 |x|^-1: the radial branch raises x0 to 128
    with pytest.raises(rx.RadialOverflow):
        rx.from_terms(2, 2, [((127, 0), (0, 0), -1, 0, 1)]).dir_deriv()
    # a field at the cap that the operator does not raise is fine
    got = rx.from_terms(2, 2, [((0, 1), (127, 0), 0, 0, 1)]).dir_deriv()
    assert got.equals(rx.from_terms(2, 2, [((0, 0), (127, 1), 0, 0, 1)]))


def test_partial_raises_instead_of_carrying():
    # x0^127 |x|^-1: the radial branch raises x0 to 128, into the x1 field
    with pytest.raises(rx.RadialOverflow, match="partial derivative d/dx0"):
        rx.from_terms(3, 3, [((127, 0, 0), (0, 0, 0), -1, 0, 1)]).partial("x", 0)
    # |y|^-2047: the radial branch would lower the power to -2049
    with pytest.raises(rx.RadialOverflow, match="partial derivative d/dy1"):
        rx.from_terms(3, 3, [((0, 0, 0), (0, 0, 0), 0, -2047, 1)]).partial("y", 1)
    # a field at the cap with no radial power in its group is fine
    got = rx.from_terms(3, 3, [((127, 0, 0), (0, 0, 0), 0, -1, 1)]).partial("x", 0)
    assert got.equals(rx.from_terms(3, 3, [((126, 0, 0), (0, 0, 0), 0, -1, 127)]))


@pytest.mark.parametrize("group", ["x", "y"])
@pytest.mark.parametrize("p", [2048, 2050, 4097, -2049, -3000])
def test_norm_power_outside_the_radial_range_raises(group, p):
    # the biased 12-bit field holds -2048..2047; 2048 used to carry into |y|^1
    with pytest.raises(rx.RadialOverflow, match="radial exponent out of range"):
        rx.norm_power(group, p, 2, 2)


def test_norm_power_at_the_radial_range_ends():
    assert list(rx.norm_power("y", -2048, 2, 2).terms()) == [((0, 0), (0, 0), 0, -2048, 1)]
    assert list(rx.norm_power("x", -2047, 2, 2).terms()) == [((0, 0), (0, 0), -2047, 0, 1)]


def test_product_at_the_radial_range_end():
    half = rx.norm_power("x", -1024, 2, 2)
    assert (half * half).equals(rx.norm_power("x", -2048, 2, 2))


@pytest.mark.parametrize("product", [
    # |x|^-4000 would borrow from the |y| field (Q_x^48 |y|^-1)
    lambda: rx.norm_power("x", -2000, 2, 2) * rx.norm_power("x", -2000, 2, 2),
    # |y|^-4000 would borrow from the x0 field and drop the x0 factor
    lambda: rx.norm_power("y", -2000, 2, 2) * (rx.norm_power("y", -2000, 2, 2)
                                               * rx.coordinate("x", 0, 2, 2)),
    # |x|^-2049 is one past the end of the field
    lambda: rx.norm_power("x", -1024, 2, 2) * rx.norm_power("x", -1025, 2, 2),
], ids=["x_sum_borrows", "y_sum_borrows", "one_past_the_end"])
def test_product_outside_the_radial_range_raises(product):
    with pytest.raises(rx.RadialOverflow, match="outside the radial range"):
        product()


def test_laplacian_raises_instead_of_borrowing():
    # |x|^-2047 |y|: the radial branch would borrow from the |y| field
    with pytest.raises(rx.RadialOverflow, match="Laplacian in x"):
        rx.from_terms(3, 3, [((0, 0, 0), (0, 0, 0), -2047, 1, 1)]).laplacian("x")
    # the other group's Laplacian never lowers |x|
    got = rx.from_terms(3, 3, [((0, 0, 0), (2, 0, 0), -2047, 0, 1)]).laplacian("y")
    assert got.equals(rx.from_terms(3, 3, [((0, 0, 0), (0, 0, 0), -2047, 0, 2)]))


# -- the operators against the per-term reference ------------------------------

# (exponent, radial power) alphabets: polynomials, small odd and negative
# radial powers, and fields at the ends of their ranges (126 and 127 of 7
# bits, and both ends of the biased 12-bit radial field)
_ALPHABETS = [
    (st.integers(0, 3), st.just(0)),
    (st.integers(0, 3), st.integers(-5, 3)),
    (st.sampled_from([0, 1, 2, 126, 127]),
     st.sampled_from([-2048, -2047, -2046, -3, -1, 0, 1, 2046, 2047])),
]


@st.composite
def operator_inputs(draw):
    """An expression of group sizes 1-4; its terms are canonicalised when they
    can be, and otherwise taken as they are, so every packed field can sit at
    an end of its range."""
    nx = draw(st.integers(1, 4))
    ny = nx if draw(st.integers(0, 3)) else draw(st.integers(1, 4))
    exps, radials = draw(st.sampled_from(_ALPHABETS))
    items = draw(st.lists(st.tuples(st.tuples(*[exps] * nx), st.tuples(*[exps] * ny),
                                    radials, radials,
                                    st.integers(-5, 5).filter(bool)), min_size=1, max_size=6))
    den = draw(st.integers(1, 4))
    if draw(st.booleans()):
        try:
            return rx.from_terms(nx, ny, [(*t[:4], Fraction(t[4], den)) for t in items])
        except rx.RadialOverflow:
            pass
    lay = rx._layout(nx, ny)
    terms = {lay.pack(xe, ye, px, py): c for xe, ye, px, py, c in items}
    f = rx.RadialExpr._make(nx, ny, terms, den, radial_free_hint=True)
    f._radial_free = all((k & rx._RAD_MASK) == ((k >> rx._RAD_BITS) & rx._RAD_MASK) == rx._RAD_BIAS
                         for k in f._terms)
    return f


def _outcome(call):
    """What a call gives: its expression's terms, denominator and radial-free
    flag, or the type and message of what it raised."""
    try:
        g = call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return g._terms, g._den, g._radial_free


@settings(max_examples=400, deadline=None)
@given(f=operator_inputs(), group=st.sampled_from(["x", "y"]),
       i=st.sampled_from([0, 1, 0, 1, 2, 3, -1, 4]))
def test_operators_match_the_per_term_reference(f, group, i):
    pairs = [
        (lambda: f.partial(group, i), lambda: reference_partial(f, group, i)),
        (lambda: f.laplacian(group), lambda: reference_laplacian(f, group)),
        (lambda: f.dir_deriv(), lambda: reference_dir_deriv(f)),
        (lambda: f.kelvin(group), lambda: reference_kelvin(f, group)),
    ]
    for new, ref in pairs:
        assert _outcome(new) == _outcome(ref)


# -- the degree cap on products ------------------------------------------------

def _x0(e: int, c=1) -> rx.RadialExpr:
    return rx.from_terms(2, 2, [((e, 0), (0, 0), 0, 0, c)])


@pytest.mark.parametrize("f, g, want", [
    # Lap_x x0^100 = 9900 x0^98: the cap reads the degree the Laplacian leaves, 98
    (_x0(100).laplacian("x"), _x0(28), _x0(126, 9900)),
    (_x0(101).laplacian("x"), _x0(28), _x0(127, 10100)),
    # |x|^3 = (x0^2 + x1^2) |x| has monomial degree 2, not 3
    (rx.norm_power("x", 3, 2, 2), _x0(125),
     rx.from_terms(2, 2, [((127, 0), (0, 0), 1, 0, 1), ((125, 2), (0, 0), 1, 0, 1)])),
], ids=["laplacian", "laplacian_at_the_cap", "norm_power"])
def test_products_that_fit_the_degree_cap_compute(f, g, want):
    assert (f * g).equals(want)
    assert (g * f).equals(want)


@pytest.mark.parametrize("f, g", [
    (_x0(102).laplacian("x"), _x0(28)),
    (_x0(101).laplacian("x"), _x0(29)),
    (rx.norm_power("x", 3, 2, 2) * rx.coordinate("x", 1, 2, 2), _x0(125)),
    (rx.norm_power("x", 3, 2, 2), _x0(126)),
], ids=["laplacian", "laplacian_other", "norm_power", "norm_power_other"])
def test_products_one_degree_past_the_cap_raise(f, g):
    for a, b in ((f, g), (g, f)):
        with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
            a * b


@st.composite
def radial_free_pair(draw):
    """Two polynomials of the same group sizes.  Each group of each takes its
    exponent fields from one of the operator alphabets (0-3, or 0-2 with the
    cap fields 126 and 127) or is absent, so one factor's degree can pass the
    cap in a group where the other has none."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    alphabets = st.sampled_from([st.just(0)] + [exps for exps, _ in _ALPHABETS])

    def poly():
        ex, ey = draw(alphabets), draw(alphabets)
        return draw(st.lists(st.tuples(st.tuples(*[ex] * nx), st.tuples(*[ey] * ny),
                                       st.integers(-5, 5).filter(bool)), max_size=4))

    return nx, ny, poly(), poly()


@settings(max_examples=300, deadline=None)
@given(pair=radial_free_pair())
def test_product_raises_exactly_when_both_degrees_pass_the_cap(pair):
    nx, ny, f_items, g_items = pair
    f, g = (rx.from_terms(nx, ny, [(xe, ye, 0, 0, c) for xe, ye, c in items])
            for items in (f_items, g_items))

    def degrees(h):
        return [max((sum(t[i]) for t in h.terms()), default=0) for i in (0, 1)]

    over = any(a and b and a + b > rx.MAX_DEGREE for a, b in zip(degrees(f), degrees(g)))
    if over:
        with pytest.raises(rx.RadialOverflow, match="packed degree cap"):
            f * g
        return
    want = rx.from_terms(nx, ny, [(tuple(map(sum, zip(xf, xg))), tuple(map(sum, zip(yf, yg))),
                                   0, 0, cf * cg)
                                  for xf, yf, _, _, cf in f.terms()
                                  for xg, yg, _, _, cg in g.terms()])
    assert (f * g).equals(want)
