"""Random vectors and families that only the tests draw.

Both come from the streams of ``generate.rng_from_seed`` with the numbers
the library's own draws would give: a Gaussian vector is its real parts,
then (complex field) its imaginary parts, from one ``standard_normal`` call;
a family is one ``standard_normal`` call of all its members' normals,
orthonormalized by CGS2 and drawn again while CGS2 rejects it: the draw
plan's replay rule for a stream whose only draw is a family.
"""

import numpy as np

from orthobounds.generate import _complex
from orthobounds.space import OrthonormalFamily, _cgs2, _rejected


def gaussian(rng, count: int, complex_field: bool) -> np.ndarray:
    """A complex128 vector of ``count`` standard Gaussian scalars."""
    return _complex(rng.standard_normal((2 if complex_field else 1, count)))


def family(rng, ctx, size: int) -> OrthonormalFamily:
    """A random orthonormal family of ``size`` members in ``ctx``."""
    if size > ctx.dimension:
        raise ValueError("family size cannot exceed the dimension")
    shape = (1, size, 2 if ctx.is_complex else 1, ctx.dimension)
    while True:
        members, pivots, drop, defect = _cgs2(ctx, _complex(rng.standard_normal(shape)))
        if not _rejected(pivots, drop, defect)[0]:
            return OrthonormalFamily(members[0], float(defect[0]))
