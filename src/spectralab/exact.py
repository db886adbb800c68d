"""Exact arithmetic helpers.

Rational combinations of sqrt(s) * pi^p (s squarefree, p an integer) cover
every refined-asymptotics constant in the catalog, so they get a tiny exact
ring here instead of floats.  The module also carries integer floor/sqrt
utilities used by the closed-form counting functions, and a rational
enclosure of pi tight enough to decide every comparison the package makes.
"""

from __future__ import annotations

import math
from fractions import Fraction

# pi truncated to 100 digits after the point; validated against mpmath in the
# test suite.  PI_LO <= pi < PI_HI.
_PI_DIGITS = (
    "3"
    "1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)
PI_LO = Fraction(int(_PI_DIGITS), 10**100)
PI_HI = PI_LO + Fraction(1, 10**100)


def _split_square(n: int) -> tuple[int, int]:
    """Return (k, m) with n == k*k*m and m squarefree."""
    if n <= 0:
        raise ValueError("positive integers only")
    k = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            k *= d
        d += 1
    return k, n


def _sqrt_bounds(s: int) -> tuple[Fraction, Fraction]:
    if s == 1:
        return Fraction(1), Fraction(1)
    scale = 10**60
    r = math.isqrt(s * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _pi_pow_bounds(p: int) -> tuple[Fraction, Fraction]:
    if p == 0:
        return Fraction(1), Fraction(1)
    if p > 0:
        return PI_LO**p, PI_HI**p
    return 1 / PI_HI ** (-p), 1 / PI_LO ** (-p)


class ExactConst:
    """Sum of terms coeff * sqrt(root) * pi^power with Fraction coeffs.

    Terms with distinct (root, power) are linearly independent over Q, so
    equality testing is exact coefficient comparison.  Numeric comparisons go
    through interval bounds and raise instead of guessing when the interval
    straddles zero (which cannot happen for a nonzero element at the working
    precision unless coefficients reach ~1e95).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (root, power), coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                k, m = _split_square(root)
                key = (m, power)
                cur = clean.get(key, Fraction(0)) + coeff * k
                if cur == 0:
                    clean.pop(key, None)
                else:
                    clean[key] = cur
        self._terms = clean

    # --- constructors ---

    @classmethod
    def term(cls, coeff, root: int = 1, pi_pow: int = 0) -> "ExactConst":
        return cls({(root, pi_pow): Fraction(coeff)})

    @classmethod
    def rational(cls, q) -> "ExactConst":
        return cls.term(Fraction(q))

    # --- predicates / extraction ---

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(key == (1, 0) for key in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self._terms[(1, 0)]

    def as_pi_multiple(self) -> Fraction:
        """Return q with self == q*pi (angles are always rational multiples)."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {(1, 1)}:
            raise ValueError(f"not a rational multiple of pi: {self}")
        return self._terms[(1, 1)]

    # --- ring ops ---

    @staticmethod
    def _coerce(other) -> "ExactConst | None":
        if isinstance(other, ExactConst):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactConst.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in o._terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return ExactConst(terms)

    __radd__ = __add__

    def __neg__(self):
        return ExactConst({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (s1, p1), c1 in self._terms.items():
            for (s2, p2), c2 in o._terms.items():
                k, m = _split_square(s1 * s2)
                key = (m, p1 + p2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * k
        return ExactConst(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return ExactConst({k: c / q for k, c in self._terms.items()})
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # --- numerics ---

    def bounds(self) -> tuple[Fraction, Fraction]:
        lo = Fraction(0)
        hi = Fraction(0)
        for (root, power), coeff in self._terms.items():
            slo, shi = _sqrt_bounds(root)
            plo, phi = _pi_pow_bounds(power)
            if coeff >= 0:
                lo += coeff * slo * plo
                hi += coeff * shi * phi
            else:
                lo += coeff * shi * phi
                hi += coeff * slo * plo
        return lo, hi

    def sign(self) -> int:
        if not self._terms:
            return 0
        lo, hi = self.bounds()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        raise ArithmeticError(f"interval straddles zero: {self}")

    def __float__(self) -> float:
        lo, hi = self.bounds()
        return float((lo + hi) / 2)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # --- presentation ---

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (root, power), coeff in sorted(self._terms.items()):
            body = str(abs(coeff))
            if root != 1:
                body += f"*sqrt{root}"
            if power == 1:
                body += "*pi"
            elif power > 1:
                body += f"*pi^{power}"
            elif power == -1:
                body += "/pi"
            elif power < -1:
                body += f"/pi^{-power}"
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExactConst({self._terms!r})"


ZERO = ExactConst()


def isqrt_frac_floor(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative Fraction."""
    if x < 0:
        raise ValueError("negative argument")
    return math.isqrt(x.numerator * x.denominator) // x.denominator


def floor_affine_sqrt(x: Fraction, a: Fraction = Fraction(1), c: Fraction = Fraction(0)) -> int:
    """floor(a*sqrt(x) + c), exact, for Fractions with a >= 0 and x >= 0."""
    x = Fraction(x)
    a = Fraction(a)
    c = Fraction(c)
    if a < 0 or x < 0:
        raise ValueError("need a >= 0 and x >= 0")
    a2x = a * a * x

    def le(n: int) -> bool:
        # n <= a*sqrt(x) + c ?
        d = n - c
        if d <= 0:
            return True
        return d * d <= a2x

    n = isqrt_frac_floor(a2x) + math.floor(c)
    while le(n + 1):
        n += 1
    while not le(n):
        n -= 1
    return n


def floor_div_pi2(x: Fraction) -> int:
    """floor(x / pi^2) for a nonnegative Fraction, exact.

    x/pi^2 is irrational for rational x > 0, so the enclosure always decides.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative argument")
    if x == 0:
        return 0
    lo = math.floor(x / PI_HI**2)
    hi = math.floor(x / PI_LO**2)
    if lo != hi:
        raise ArithmeticError("pi enclosure too loose for this argument")
    return lo


def flat_rho_bounds(T: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure bounds (lo, hi) for T / pi^2.

    A flat eigenvalue rho * pi^2 is certainly <= T when rho <= lo and
    certainly > T when rho > hi; a rational rho strictly between would mean T
    sits within 10^-96 of the level, which no rational cutoff used in this
    package can do.
    """
    T = Fraction(T)
    if T < 0:
        raise ValueError("negative cutoff")
    return T / PI_HI**2, T / PI_LO**2


def floor_sqrt_shift_pi(x: Fraction, c: Fraction = Fraction(0)) -> int:
    """floor(sqrt(x)/pi + c), exact, for rational x >= 0.

    Decidable because (n - c)^2 * pi^2 is irrational for rational n - c != 0,
    so the 100-digit pi enclosure always separates the two sides.
    """
    x = Fraction(x)
    c = Fraction(c)
    if x < 0:
        raise ValueError("need x >= 0")

    def le(n: int) -> bool:
        # n <= sqrt(x)/pi + c ?
        d = n - c
        if d <= 0:
            return True
        if d * d * PI_HI * PI_HI <= x:
            return True
        if d * d * PI_LO * PI_LO > x:
            return False
        raise ArithmeticError("pi enclosure too coarse for %s" % x)

    n = math.floor(c) + isqrt_frac_floor(x / PI_LO / PI_LO)
    while le(n + 1):
        n += 1
    while not le(n):
        n -= 1
    return n
