"""The coordinate-detour reference for building an orbit form from an invariant.

``OrbitForm.from_invariant`` multiplies by <x,y>, Q_x and Q_y orbit by
orbit, by the product rule of monomial symmetric functions.  This module
keeps the same Horner plan with every such product run through the
coordinate engine instead: ``OrbitForm.apply`` multiplies one
representative per orbit by the coordinate expression of <x,y>, Q_x or Q_y
and folds the product back, re-sorting each output term into its orbit.
The builder must agree with it on every orbit numerator, the denominator
and raised errors.
"""

from zonalkit import radialexpr as rx
from zonalkit.orbitform import OrbitForm


def reference_from_invariant(inv) -> OrbitForm:
    """The orbit form of the polynomial invariant ``inv``, products in coordinates."""
    for A, R, S in inv.terms:
        if R < 0 or S < 0 or R % 2 or S % 2:
            raise ValueError(f"orbit form needs a polynomial; term {(A, R, S)}")
    n = inv.dim
    a = rx.inner_xy(n)
    qx = rx.quadratic_form("x", n, n)
    qy = rx.quadratic_form("y", n, n)
    powers = {(0, 0): OrbitForm(n, {rx._layout(n, n).zero_key: 1})}

    def power(i: int, j: int) -> OrbitForm:
        out = powers.get((i, j))
        if out is None:
            if j:
                out = power(i, j - 1).apply(lambda g: g * qy)
            else:
                out = power(i - 1, 0).apply(lambda g: g * qx)
            powers[(i, j)] = out
        return out

    parts = inv._horner(lambda: OrbitForm.zero(n), lambda f: f.apply(lambda g: g * a),
                        lambda f, i, j, c: f + power(i, j).scale(c))
    return parts[0][2] if parts else OrbitForm.zero(n)
