"""The term-by-term reference for fixing the y group of an expression at a point.

The pole expander (``ZonalInvariant.to_radialexpr(y=p)``) is checked against
this substitution in Fraction arithmetic: every term's y part is evaluated on
its own, with no shared powers or common denominators.
"""

from fractions import Fraction

from zonalkit import radialexpr as rx
from zonalkit.ratnum import sqrt_exact


def reference_substitute_point(f: rx.RadialExpr, point) -> rx.RadialExpr:
    """f with y fixed at ``point``: each term's y monomial and |y| power as a number.

    Raises PoleError for a negative |y| power at the origin and for an odd
    |y| power where |point|^2 is not a rational square.
    """
    lay = f._lay
    pt = [Fraction(v) for v in point]
    q = sum(v * v for v in pt)
    sq = sqrt_exact(q)
    items = []
    for key, c in f._terms.items():
        xe, _, px, py = lay.unpack(key)
        if py < 0 and q == 0:
            raise rx.PoleError("negative |y| power at the origin")
        if py % 2 and sq is None:
            raise rx.PoleError(f"odd |y| power needs a perfect-square |pt|^2; got {q}")
        v = Fraction(c, f._den)
        for coord, s in zip(pt, lay.y_shifts):
            v *= coord ** ((key >> s) & rx._EXP_MASK)
        v *= q ** (py // 2) * (sq if py % 2 else 1)
        items.append((xe, (0,) * f.ny, px, 0, v))
    return rx.from_terms(f.nx, f.ny, items)
