"""Exact reference arithmetic for measuring the library's rounding error.

Every float input is read as the rational number it is, and a complex number
is a pair (re, im) of ``Fraction``s, so sums and products carry no rounding
at all.  Nothing here takes a square root: where a chain takes one, the
caller compares squared forms.  Like ``reference.py``, this module uses
neither numpy nor the library's own code paths.

Inner products are linear in the first argument: <x, y> = sum_k w_k x_k conj(y_k),
and the coefficients of x are c_i = <x, e_i>.  The weights w are an optional
list of ``Fraction``s (see ``weights``); without them every w_k is 1.
"""

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def exact(z):
    """The float (or complex float) ``z`` as an exact pair of Fractions."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def vector(values):
    return [exact(z) for z in values]


def weights(values):
    """Float weights as exact Fractions; None (no weights) stays None."""
    return None if values is None else [Fraction(float(w)) for w in values]


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def mul_conj(a, b):
    """a * conj(b)."""
    return a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]


def modulus_sq(z):
    return z[0] * z[0] + z[1] * z[1]


def inner(x, y, w=None):
    if w is not None:
        x = [(wk * a[0], wk * a[1]) for wk, a in zip(w, x)]
    total = ZERO
    for a, b in zip(x, y):
        total = add(total, mul_conj(a, b))
    return total


def coefficients(x, rows, w=None):
    return [inner(x, e, w) for e in rows]


def combination(coeffs, rows):
    """sum_i coeffs_i e_i."""
    out = [ZERO] * len(rows[0])
    for c, e in zip(coeffs, rows):
        for k, entry in enumerate(e):
            product = (c[0] * entry[0] - c[1] * entry[1], c[0] * entry[1] + c[1] * entry[0])
            out[k] = add(out[k], product)
    return out


def residual(x, rows, w=None):
    """||x||^2 - sum_i |c_i|^2."""
    return inner(x, x, w)[0] - sum(modulus_sq(c) for c in coefficients(x, rows, w))


def slack_inner(x, rows, lower, upper, w=None):
    """Re <S(upper) - x, x - S(lower)>, S(a) = sum_i a_i e_i."""
    above = [sub(u, v) for u, v in zip(combination(upper, rows), x)]
    below = [sub(v, l) for v, l in zip(x, combination(lower, rows))]
    return inner(above, below, w)[0]


def half_diameter_sq(lower, upper):
    """(1/4) sum_i |upper_i - lower_i|^2."""
    return sum(modulus_sq(sub(u, l)) for u, l in zip(upper, lower)) / 4


def deviation(x, y, rows, w=None):
    """<x, y> - sum_i c_i(x) conj(c_i(y))."""
    truncated = ZERO
    for a, b in zip(coefficients(x, rows, w), coefficients(y, rows, w)):
        truncated = add(truncated, mul_conj(a, b))
    return sub(inner(x, y, w), truncated)
