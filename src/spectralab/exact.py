"""Exact arithmetic helpers.

Rational combinations of sqrt(s) * pi^p (s squarefree, p an integer) cover
every refined-asymptotics constant in the catalog, so they get a tiny exact
ring here instead of floats.  The module also carries an exact integer
square root of a Fraction and a rational enclosure of pi tight enough to
decide every comparison the package makes.
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
    equality testing is exact coefficient comparison.  The sign goes through
    interval bounds and raises instead of guessing when the interval
    straddles zero (which cannot happen for a nonzero element at the working
    precision unless coefficients reach ~1e95).
    """

    __slots__ = ("_terms", "_float")

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

    # --- extraction ---

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

    def __bool__(self) -> bool:
        """sign() != 0: terms with distinct (root, power) are independent,
        so a constant is zero exactly when it has none."""
        return bool(self._terms)

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
        """The middle of `bounds`, taken once: a constant never changes."""
        if not hasattr(self, "_float"):
            lo, hi = self.bounds()
            try:
                self._float = float((lo + hi) / 2)
            except OverflowError:
                # a bad input, such as a surface area of 1e400, not a failed run
                raise ValueError("constant beyond the float range") from None
        return self._float

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


def isqrt_frac_floor(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative Fraction."""
    if x < 0:
        raise ValueError("negative argument")
    return math.isqrt(x.numerator * x.denominator) // x.denominator


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
