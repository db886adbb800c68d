"""Round surfaces, both routes: the sphere, hemisphere, projective sphere
and lunes (whole, half and glued), whose eigenvalues are N(N+1).

`spectrum` imports this module with the first round table: `_RoundTable`
is the round kind of `spectrum._Table`.  Both routes read one formula,
the window counts (`_sph_cum`): the table's prefix sums are those that
step, and the closed form at t is the count of t's window.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import isqrt

from .catalog import Family, SurfaceSpec
from .spectrum import _NEGATIVE, _Table, _t_ends


class _RoundTable(_Table):
    """A round surface's levels: key N, written as the integer, is the
    degree of the eigenvalue N(N+1), and its multiplicity is the step of
    the window counts `_sph_cum` from window N to N + 1, which are also
    the closed form: window N + 1 counts the eigenvalues <= t for N the
    largest degree with N(N+1) <= t."""

    __slots__ = ()

    def build(self, qcap: int):
        """(keys, prefix) of the degrees <= qcap of nonzero multiplicity,
        each window count that steps appended as it is made."""
        keys, prefix = array("q"), array("q", [0])
        for N in range(qcap + 1):
            n = _sph_cum(self.spec, N + 1)
            if n != prefix[-1]:
                if n < prefix[-1]:
                    raise ArithmeticError(_NEGATIVE)
                keys.append(N)
                prefix.append(n)
        return keys, prefix

    def bound(self, q: int, stop=None) -> int:
        """The number of eigenvalues of degree <= q, exactly: window q + 1."""
        return _sph_cum(self.spec, q + 1)

    @staticmethod
    def fits(q: int) -> bool:
        """True: a degree whose bound is under the cap is far below 2^63."""
        return True

    ends = staticmethod(_t_ends)

    @staticmethod
    def key_at(P: int, Q: int) -> int:
        """k - 1 for the window k >= 1 of t = P / Q, k^2 - k <= t < k^2 + k:
        the largest degree N with N(N+1) <= t."""
        # k = floor((sqrt((4P + Q) Q) + Q) / 2Q)
        return (isqrt((4 * P + Q) * Q) + Q) // (2 * Q) - 1

    @staticmethod
    def value(N):
        """The eigenvalue N(N+1) in float64 of a number or array N."""
        return N * (N + 1.0)

    @staticmethod
    def key(N):
        return N

    printed = key

    def closed_count(self, t) -> tuple:
        """(q, N(t)) for q the largest degree with q(q+1) <= t: the closed
        form is the window count of window q + 1."""
        q = self.qmax(t)
        return q, _sph_cum(self.spec, q + 1)


def _sph_cum(spec: SurfaceSpec, k: int) -> int:
    """Exact count of eigenvalues <= t for any t in window k.

    Window k is [k^2 - k, k^2 + k); the count there is the number of
    harmonics of degree N <= k - 1 and is constant in t.  The lune
    families' counts are rational quadratics in k: they are computed as
    the integer den * N(k) and divided once.
    """
    if k <= 0:
        return 0
    f = spec.family
    if f == Family.SPHERE:
        return k * k
    if f == Family.HEMISPHERE:
        return (k * k + k) // 2 if spec.bc == "N" else (k * k - k) // 2
    if f == Family.PROJECTIVE_SPHERE:
        return (k * k + k) // 2 if k % 2 == 1 else (k * k - k) // 2
    m = spec.m
    p = k % m
    if f == Family.LUNE:
        den = 2 * m
        v = k * k + p * (m - p) + (m * k if spec.bc == "N" else -m * k)
    elif f == Family.GLUED_LUNE:
        den = m
        v = k * k + p * (m - p)
    elif f == Family.HALF_LUNE:
        den = 4 * m
        v = _half_lune_cum(m, spec.bc_side, spec.bc_equator, k)
    else:
        raise ValueError("no spherical count for %s" % (spec,))
    if v % den or v < 0:
        raise ArithmeticError(
            "window count for %s at k=%d came out %s" % (spec, k, Fraction(v, den)))
    return v // den


def _half_lune_cum(m: int, side: str, eq: str, k: int) -> int:
    """4m times the half lune's window count at k."""
    p = k % m
    base = k * k + p * (m - p)
    if m % 2 == 0:
        if p % 2 == 0:
            return base + m * k if side == "N" else base - m * k
        if side == "N":
            if eq == "N":
                return base + (m + 2) * k + 2 * (m - p)
            return base + (m - 2) * k - 2 * (m - p)
        if eq == "N":
            return base - (m - 2) * k - 2 * p
        return base - (m + 2) * k + 2 * p
    n = k // m
    if n % 2 == 1:
        h = 0
    else:
        h = m if p % 2 == 1 else -m
    nplus = base + (m + 1) * k + (m - p) + h
    nminus = base + (m - 1) * k - (m - p) - h
    if side == "N":
        return nplus if eq == "N" else nminus
    if eq == "N":
        return nplus - 4 * m * -(-k // 2)  # ceil(k/2)
    return nminus - 4 * m * (k // 2)
