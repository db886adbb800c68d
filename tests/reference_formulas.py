"""Reference formulas the tests check the package against; no package code
reads them."""

import operator
from fractions import Fraction


def polygon_corner_limit(n) -> Fraction:
    """Total corner weight n*psi((n-2)pi/n) of the regular n-gon.

    Converges to 1/6 as n grows, which is the constant a smooth convex
    boundary contributes; the remainder is O(1/n).
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError("a polygon needs at least 3 corners")
    r = Fraction(n - 2, n)
    return n * Fraction(1, 24) * (Fraction(1) / r - r)


def smooth_count(rc, t):
    """A*t + B*sqrt(.) + C of RefinedAsymptotics rc; works on scalars and
    numpy arrays."""
    arg = t + 0.25 if rc.sqrt_shift else t
    return float(rc.A) * t + float(rc.B) * arg ** 0.5 + float(rc.C)
