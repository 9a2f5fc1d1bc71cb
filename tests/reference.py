"""Independent reference arithmetic for cross-checking the library.

Everything here is written with plain Python loops over built-in complex
numbers, deliberately avoiding numpy and the library's own code paths, so
the tests compare two genuinely different evaluation routes.
"""

import math


def ref_inner(x, y, weights=None):
    total = 0j
    for k, (a, b) in enumerate(zip(x, y)):
        term = complex(a) * complex(b).conjugate()
        if weights is not None:
            term *= weights[k]
        total += term
    return total


def ref_norm(x, weights=None):
    return math.sqrt(ref_inner(x, x, weights).real)


def ref_combination(members, indices, coeffs):
    dim = len(members[0])
    out = [0j] * dim
    for c, i in zip(coeffs, indices):
        for k in range(dim):
            out[k] += complex(c) * complex(members[i][k])
    return out


def ref_coefficients(x, members, indices, weights=None):
    return {i: ref_inner(x, members[i], weights) for i in indices}


def ref_residual(x, members, indices, weights=None):
    coeffs = ref_coefficients(x, members, indices, weights)
    return ref_norm(x, weights) ** 2 - sum(abs(c) ** 2 for c in coeffs.values())


def ref_slack_inner(x, members, indices, lower, upper, weights=None):
    a = ref_combination(members, indices, lower)
    big = ref_combination(members, indices, upper)
    diff_hi = [u - xv for u, xv in zip(big, x)]
    diff_lo = [xv - l for xv, l in zip(x, a)]
    return ref_inner(diff_hi, diff_lo, weights).real


def ref_slack_norm(x, members, indices, lower, upper, weights=None):
    half = 0.5 * math.sqrt(sum(abs(u - l) ** 2 for u, l in zip(upper, lower)))
    mids = [(u + l) / 2 for u, l in zip(upper, lower)]
    mid_comb = ref_combination(members, indices, mids)
    return half - ref_norm([xv - mv for xv, mv in zip(x, mid_comb)], weights)


def ref_deviation(x, y, members, indices, weights=None):
    cx = ref_coefficients(x, members, indices, weights)
    cy = ref_coefficients(y, members, indices, weights)
    truncated = sum(cx[i] * cy[i].conjugate() for i in indices)
    return ref_inner(x, y, weights) - truncated


def ref_coefficient_term(x, members, indices, lower, upper, weights=None):
    """sum_F Re[(Phi_i - <x,e_i>)(conj(<x,e_i>) - conj(phi_i))]."""
    coeffs = ref_coefficients(x, members, indices, weights)
    return sum(
        ((u - coeffs[i]) * (coeffs[i] - l).conjugate()).real
        for i, l, u in zip(indices, lower, upper)
    )


def ref_half_diameter_sq(lower, upper):
    return 0.25 * sum(abs(u - l) ** 2 for u, l in zip(upper, lower))
