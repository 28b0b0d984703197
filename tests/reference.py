"""Element-level references the tests check the engine-built products against.

They are written from the definitions with ``bin_mul`` alone and share no
code with the engine.  Every caller passes homogeneous elements (basis
vectors or products of them), so the Koszul sign is read off the operands.
"""

from superbol.core import apply_map, parity_of
from superbol.structures import bin_mul


def koszul(x, y):
    """(-1)^{|x||y|} for homogeneous x and y."""
    return -1 if parity_of(x) == 1 and parity_of(y) == 1 else 1


def graded(binary, factor, flip, x, y):
    """factor (x*y + flip (-1)^{|x||y|} y*x): the Jordan product at flip = 1, the bracket at -1."""
    return (bin_mul(binary, x, y) + bin_mul(binary, y, x).scale(flip * koszul(x, y))).scale(factor)


def associator(algebra, x, y, z):
    """(x*y)*a(z) - a(x)*(y*z); the ordinary associator when the twist is the identity."""
    a, star = algebra.twist, algebra.binary
    return bin_mul(star, bin_mul(star, x, y), apply_map(a, z)) - bin_mul(star, apply_map(a, x), bin_mul(star, y, z))


def jordan_triple(jordan, x, y, z):
    """(xy)a(z) + a(x)(yz) - (-1)^{|x||y|} a(y)(xz) in a twisted Jordan product."""
    a, star = jordan.twist, jordan.binary
    return (
        bin_mul(star, bin_mul(star, x, y), apply_map(a, z))
        + bin_mul(star, apply_map(a, x), bin_mul(star, y, z))
        - bin_mul(star, apply_map(a, y), bin_mul(star, x, z)).scale(koszul(x, y))
    )
