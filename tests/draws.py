"""Random vectors and families that only the tests draw.

Both come from the streams of ``generate.rng_from_seed`` with the numbers
the library's own draws would give: a Gaussian vector is its real parts,
then (complex field) its imaginary parts, from one ``standard_normal`` call;
a family is the draw plan's family-only source, orthonormalized by CGS2 and
drawn again while CGS2 rejects it.
"""

import numpy as np

from orthobounds.generate import _FAMILY, _drawn
from orthobounds.space import OrthonormalFamily


def gaussian(rng, count: int, complex_field: bool) -> np.ndarray:
    """A complex128 vector of ``count`` standard Gaussian scalars."""
    draws = rng.standard_normal((2 if complex_field else 1, count))
    z = draws[0].astype(np.complex128)
    if complex_field:
        z = z + 1j * draws[1]
    return z


def family(rng, ctx, size: int) -> OrthonormalFamily:
    """A random orthonormal family of ``size`` members in ``ctx``."""
    _, built = _drawn([rng], ctx, size, ((_FAMILY,),))
    return OrthonormalFamily(built.members[0, 0], float(built.gram_defect[0, 0]))
