"""The term-by-term reference for the four coordinate operators.

``RadialExpr.partial``, ``laplacian``, ``dir_deriv`` and ``kelvin`` decode
each distinct bit slice of their input keys once and apply its pairs to
every term that shows it.  These are the operators as they were written
before that: every exponent field of every term is decoded on its own, a
radial-free input takes its own loop, and a pre-scan over the terms raises
``RadialOverflow`` before any output is built.  The operators are checked
against them, exception messages included.
"""

from zonalkit import radialexpr as rx
from zonalkit.radialexpr import _EXP_MASK, _RAD_BIAS, _RAD_MASK, _RAD_MAX, _RAD_MIN, RadialOverflow


def _group_data(f: rx.RadialExpr, group):
    lay = f._lay
    if group == "x":
        return lay.x_shifts, 0, f.nx
    if group == "y":
        return lay.y_shifts, rx._RAD_BITS, f.ny
    raise ValueError(f"unknown variable group {group!r}")


def _dir_deriv_overflows(lay, key: int, radial: bool) -> bool:
    """Whether <y,grad_x> applied to one term leaves a packed field."""
    p = ((key & _RAD_MASK) - _RAD_BIAS) if radial else 0
    if p and p - 2 < _RAD_MIN:
        return True
    for sx, sy in zip(lay.x_shifts, lay.y_shifts):
        ex = (key >> sx) & _EXP_MASK
        ey = (key >> sy) & _EXP_MASK
        if (ey == _EXP_MASK and (ex or p)) or (ex == _EXP_MASK and p):
            return True
    return False


def reference_partial(f: rx.RadialExpr, group, i: int) -> rx.RadialExpr:
    """Exact partial derivative in coordinate i of the given group."""
    shifts, rad_shift, n = _group_data(f, group)
    if not 0 <= i < n:
        raise ValueError(f"coordinate index {i} out of range for group of size {n}")
    s = shifts[i]
    rad_dec = 2 << rad_shift
    radial_free = f._radial_free
    if not radial_free:
        # the radial branch raises field s by one and lowers p by two;
        # a radial field below 2 holds p < _RAD_MIN + 2
        for key in f._terms:
            field = (key >> rad_shift) & _RAD_MASK
            if field != _RAD_BIAS and (field < 2 or (key >> s) & _EXP_MASK == _EXP_MASK):
                raise RadialOverflow(
                    f"partial derivative d/d{group}{i} would leave a packed exponent field")
    out: dict[int, int] = {}
    get = out.get
    for key, c in f._terms.items():
        e = (key >> s) & _EXP_MASK
        if e:
            k2 = key - (1 << s)
            out[k2] = get(k2, 0) + c * e
        if not radial_free:
            p = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
            if p:
                k2 = key + (1 << s) - rad_dec
                out[k2] = get(k2, 0) + c * p
    dx = f._degx + (1 if group == "x" else 0)
    dy = f._degy + (1 if group == "y" else 0)
    return rx.RadialExpr._make(f.nx, f.ny, out, f._den, dx, dy,
                               radial_free_hint=radial_free)


def reference_laplacian(f: rx.RadialExpr, group) -> rx.RadialExpr:
    """Sum of second partials over every coordinate of the group.

    Per term x^a |x|^p the radial rule collapses to a two-branch update:
    sum_i a_i(a_i-1) x^(a-2e_i) |x|^p  +  p(2|a| + N + p - 2) x^a |x|^(p-2).
    """
    shifts, rad_shift, n = _group_data(f, group)
    rad_dec = 2 << rad_shift
    if not f._radial_free:
        # the radial branch lowers p by two; a radial field below 2 holds
        # p < _RAD_MIN + 2, and the branch is emitted when its factor is nonzero
        for key in f._terms:
            field = (key >> rad_shift) & _RAD_MASK
            if field < 2:
                p = field - _RAD_BIAS
                tot = sum((key >> s) & _EXP_MASK for s in shifts)
                if 2 * tot + n + p - 2:
                    raise RadialOverflow(
                        f"Laplacian in {group} would lower |{group}|^{p} "
                        "below the packed radial range")
    out: dict[int, int] = {}
    get = out.get
    if f._radial_free:
        for key, c in f._terms.items():
            for s in shifts:
                e = (key >> s) & _EXP_MASK
                if e >= 2:
                    k2 = key - (2 << s)
                    out[k2] = get(k2, 0) + c * e * (e - 1)
    else:
        for key, c in f._terms.items():
            tot = 0
            for s in shifts:
                e = (key >> s) & _EXP_MASK
                if e:
                    tot += e
                    if e >= 2:
                        k2 = key - (2 << s)
                        out[k2] = get(k2, 0) + c * e * (e - 1)
            p = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
            if p:
                fac = p * (2 * tot + n + p - 2)
                if fac:
                    k2 = key - rad_dec
                    out[k2] = get(k2, 0) + c * fac
    return rx.RadialExpr._make(f.nx, f.ny, out, f._den, f._degx, f._degy,
                               radial_free_hint=f._radial_free)


def reference_dir_deriv(f: rx.RadialExpr) -> rx.RadialExpr:
    """The operator <y, grad_x>: sum_j y_j * d/dx_j."""
    if f.nx != f.ny:
        raise ValueError("dir_deriv pairs coordinates; group sizes must match")
    lay = f._lay
    xs = lay.x_shifts
    ys = lay.y_shifts
    rad_dec = 2
    radial = not f._radial_free
    ones = sum(1 << s for s in xs + ys)
    # (mask, low bits, high bits) of every monomial field
    mask, low, high = ones * _EXP_MASK, ones, ones << (rx._EXP_BITS - 1)
    for key in f._terms:
        # v has a zero field exactly where key has a field at the cap, and
        # (v - low) & ~v & high finds a zero field; the exact test runs
        # only on those rare candidates
        v = ~key & mask
        if (((v - low) & ~v & high or (radial and (key & _RAD_MASK) < 2))
                and _dir_deriv_overflows(lay, key, radial)):
            raise RadialOverflow("<y,grad_x> would leave a packed exponent field")
    out: dict[int, int] = {}
    get = out.get
    for key, c in f._terms.items():
        p = 0 if f._radial_free else (key & _RAD_MASK) - _RAD_BIAS
        for sx, sy in zip(xs, ys):
            e = (key >> sx) & _EXP_MASK
            if e:
                k2 = key - (1 << sx) + (1 << sy)
                out[k2] = get(k2, 0) + c * e
            if p:
                k2 = key + (1 << sx) + (1 << sy) - rad_dec
                out[k2] = get(k2, 0) + c * p
    return rx.RadialExpr._make(f.nx, f.ny, out, f._den, f._degx + 1, f._degy + 1,
                               radial_free_hint=f._radial_free)


def reference_kelvin(f: rx.RadialExpr, group="x") -> rx.RadialExpr:
    """Kelvin inversion in the given group: f -> |x|^(1-n) f(x/|x|^2).

    Termwise, m(x)|x|^p with deg m = d maps to m(x)|x|^(1-n-2d-p) where
    the ambient space is R^(n+1), i.e. n = group size - 1.
    """
    shifts, rad_shift, nvars = _group_data(f, group)
    n = nvars - 1
    rad_clear = ~(_RAD_MASK << rad_shift)
    out: dict[int, int] = {}
    for key, c in f._terms.items():
        d = 0
        for s in shifts:
            d += (key >> s) & _EXP_MASK
        p = ((key >> rad_shift) & _RAD_MASK) - _RAD_BIAS
        p2 = (1 - n) - 2 * d - p
        if not (_RAD_MIN <= p2 <= _RAD_MAX):
            raise RadialOverflow(f"Kelvin image radial power {p2} out of range")
        out[(key & rad_clear) | ((p2 + _RAD_BIAS) << rad_shift)] = c
    return rx.RadialExpr._make(f.nx, f.ny, out, f._den, f._degx, f._degy,
                               no_zeros=True)
