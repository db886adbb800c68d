"""Level tables and exact counting identities for the cataloged surfaces.

Two routes live here and are kept deliberately separate so they can check
each other.  The table route enumerates eigenvalues on an integer grid
(every flat family has eigenvalues unit * q * pi^2 for integers q; every
spherical family has eigenvalues N(N+1)) and answers counting questions by
prefix sums.  Each surface has one cached table.  A round table is its
list of window counts on Python integers; a flat table (`lattice`) holds
the occupied integer keys, in stdlib `array('q')` when it is small and in
int64 numpy arrays when it is large, so its memory follows the number of
levels, not the size of the grid up to the cutoff.  The closed-form route evaluates the
floor-bracket identities for N(t), jump discontinuities included.  Each
flat surface's identity is compiled once, on first use, into an integer
linear form cached on its table: a common denominator, a constant, counts
of tables (tori, the hexagonal lattice) at fixed rational rescalings of
the cutoff, and brackets floor(sqrt(c2 rho) + shift),
rho = t / pi^2, with c2 and shift held as integer pairs.  A query is then
integer isqrt and floor division only.  A round closed form is the
window count itself.
`closed_form_identity` reports both numbers side by side;
`oracle.check_equivalence` compares them against a third, structurally
different enumeration.

`level_columns` hands the CLI's writer the levels in chunks; a flat table
writes chunks of lattice._CHUNK rows formatted from its integer keys, so
that a dump holds little beyond the table however many levels it writes.

Cutoffs may be given as plain numbers (int, float, Fraction) or as an
`ExactTime`, which pins down cutoffs of the form rho * pi^2 that no float
can represent.  A query turns its cutoff once into rho exactly, or into
the enclosure T / PI_HI^2 < rho < T / PI_LO^2 with a 100-digit pi, and
evaluates every count and bracket at both ends; a genuinely ambiguous
cutoff (one within 1e-96 of a level) gives two different values and raises
ArithmeticError rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import catalog
from .catalog import Family, SurfaceSpec
from .exact import PI_HI, PI_LO

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class ExactTime:
    """Exact spectral cutoff rho * pi^2."""

    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.rho < 0:
            raise ValueError("negative cutoff")

    @property
    def value(self) -> float:
        return float(self.rho) * (math.pi * math.pi)


@dataclass(frozen=True)
class CountReport:
    """Eigenvalue count at cutoff t by table and by closed-form identity."""

    t: float
    count: int
    closed_form: int


# ---------------------------------------------------------------------------
# cutoff handling


_TOO_CLOSE = "cutoff %r is too close to a level to classify"


def _pq(x: Fraction):
    return x.numerator, x.denominator


_LO2 = _pq(PI_LO * PI_LO)
_HI2 = _pq(PI_HI * PI_HI)


def _t_float(t) -> float:
    if isinstance(t, ExactTime):
        return t.value
    return float(t)


def _rational_cutoff(t) -> Fraction:
    tv = Fraction(t)
    if tv < 0:
        raise ValueError("negative cutoff")
    return tv


def _rho_ends(t) -> tuple:
    """rho = t / pi^2 as exact integer pairs (P, Q), rho = P / Q.

    One pair for an ExactTime in units of pi^2; otherwise the two ends
    T / PI_HI^2 < rho < T / PI_LO^2 of the enclosure.
    """
    if isinstance(t, ExactTime):
        return (_pq(t.rho),)
    n, d = _pq(_rational_cutoff(t))
    return (n * _HI2[1], d * _HI2[0]), (n * _LO2[1], d * _LO2[0])


def _decided(t, ends, value):
    """value(P, Q), which must come out the same at every end of ends."""
    v = value(*ends[0])
    for P, Q in ends[1:]:
        if value(P, Q) != v:
            raise ArithmeticError(_TOO_CLOSE % (t,))
    return v


# ---------------------------------------------------------------------------
# level tables (the table route)


class _RoundTable:
    """A round surface's levels: cums[k] = _sph_cum(spec, k) counts the
    eigenvalues of degree N <= k - 1 (eigenvalue N(N+1)), and the levels
    are its nonzero differences.  The window counts are also the round
    closed form, so the table is its own `_form`: den 1 and numerator the
    window count of t."""

    __slots__ = ("spec", "cums", "form")
    den = 1

    def __init__(self, spec):
        self.spec, self.cums, self.form = spec, [0], self

    def grow(self, qneed: int) -> None:
        """Hold every degree <= qneed, at least doubling a short list."""
        n = len(self.cums)
        if n < qneed + 2:
            new = [_sph_cum(self.spec, k) for k in range(n, max(qneed + 2, 256, 2 * n))]
            if any(b < a for a, b in zip(self.cums[-1:] + new, new)):
                raise ArithmeticError("negative multiplicity in level table")
            self.cums += new

    def qmax(self, t, ends=None) -> int:
        """k - 1 for t's window k >= 1, k^2 - k <= t < k^2 + k: the largest
        degree N with N(N+1) <= t, decided exactly."""
        if isinstance(t, ExactTime):
            n, d = _pq(t.rho)
            tends = (n * _LO2[0], d * _LO2[1]), (n * _HI2[0], d * _HI2[1])
        else:
            tends = (_pq(_rational_cutoff(t)),)
        # at t = P/Q: k = floor((sqrt((4P + Q) Q) + Q) / 2Q)
        return _decided(t, tends, lambda P, Q: (isqrt((4 * P + Q) * Q) + Q) // (2 * Q)) - 1

    def count_upto(self, q: int) -> int:
        self.grow(q)
        return self.cums[q + 1]

    def numerator(self, t, ends) -> int:
        return _sph_cum(self.spec, self.qmax(t) + 1)

    def levels(self, q: int) -> list:
        """(degree, multiplicity) pairs of the levels of degree <= q."""
        self.grow(q)
        c = self.cums
        return [(N, c[N + 1] - c[N]) for N in range(q + 1) if c[N + 1] != c[N]]

    def columns(self, q: int):
        pairs = self.levels(q)
        yield {"value": [float(N * (N + 1)) for N, _ in pairs],
               "key": [N for N, _ in pairs], "multiplicity": [m for _, m in pairs]}

    def arrays(self, q: int):
        import numpy as np

        pairs = np.array(self.levels(q), dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0] * (pairs[:, 0] + 1.0), pairs[:, 1].copy()


_TABLES: dict = {}


def _table(spec, qneed: int = -1):
    """The cached table of spec, holding every level with key <= qneed.

    spec is a catalog surface (validated when its table is made) or an
    internal lattice key such as ("mobius_even", a, b).
    """
    tb = _TABLES.get(spec)
    if tb is None:
        tb = _TABLES[spec] = _new_table(spec)
    tb.grow(qneed)
    return tb


def _new_table(spec):
    if not isinstance(spec, tuple):
        catalog.validate(spec)
        if catalog.is_spherical(spec):
            return _RoundTable(spec)
    from . import lattice

    return lattice._LevelTable(*lattice._plan_flat(spec))


# ---------------------------------------------------------------------------
# spherical window counts


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


# ---------------------------------------------------------------------------
# closed-form identities (the formula route)

_ONE = ("one",)


def _closed_terms(spec: SurfaceSpec, r: Fraction = Fraction(1)) -> list:
    """The closed form of N(r t) on a flat surface, as (coefficient, term).

    A term is _ONE, ("count", sub, s), the number of eigenvalues <= s t of
    the table of sub, or ("floor", c2, shift), the bracket
    floor(sqrt(c2 rho) + shift) with rho = t / pi^2.
    """
    f, bc = spec.family, spec.bc
    a, b = spec.a, spec.b

    def C(sub, s=1):
        return ("count", sub, r * s)

    def tor(aa, bb):
        # the aa x bb torus is the 1 x (bb/aa) one read at aa^2 times the
        # cutoff: tori of one lattice shape share a table
        aa, bb = sorted((Fraction(aa), Fraction(bb)))
        return C(catalog.flat_torus_rect(1, bb / aa), aa * aa)

    def fl(c2, shift=0):
        return ("floor", r * c2, Fraction(shift))

    if f in (Family.FLAT_TORUS_RECT, Family.FLAT_TORUS_HEX):
        # reference families: the lattice count is the closed form
        return [(1, C(spec))]

    if f == Family.RECTANGLE:
        if bc in ("N", "D", "ND"):
            sa = -1 if bc == "D" else 1
            sb = 1 if bc == "N" else -1
            return [(QUARTER, tor(a, b)), (sa * HALF, fl(a * a)),
                    (sb * HALF, fl(b * b)),
                    (Fraction(3, 4) if bc == "N" else -QUARTER, _ONE)]
        if bc in ("NM", "DM"):
            return [(QUARTER, tor(a, 2 * b)), (-QUARTER, tor(a, b)),
                    (HALF if bc == "NM" else -HALF, fl(b * b, HALF))]
        # MM by four-torus inclusion-exclusion
        return [(QUARTER, tor(2 * a, 2 * b)), (-QUARTER, tor(a, 2 * b)),
                (-QUARTER, tor(2 * a, b)), (QUARTER, tor(a, b))]

    if f == Family.RIGHT_ISO_TRIANGLE:
        a2 = a * a
        if bc in ("MN", "MD"):
            mm = _closed_terms(catalog.rectangle(a, a, "MM"), r)
            return [(HALF * c, term) for c, term in mm] + [
                (HALF if bc == "MN" else -HALF, fl(a2 / 2, HALF))]
        # C/8 + s1 (fl(a^2) + 1/2)/2 + s2 (fl(a^2/2) + 1/2)/2 + const
        s1 = 1 if bc in ("N", "ND") else -1
        s2 = 1 if bc in ("N", "DN") else -1
        const = Fraction(3, 8) if bc in ("N", "D") else Fraction(-1, 8)
        return [(Fraction(1, 8), tor(a, a)), (s1 * HALF, fl(a2)),
                (s2 * HALF, fl(a2 / 2)), ((s1 + s2) * QUARTER + const, _ONE)]

    if f == Family.EQUILATERAL_TRIANGLE:
        # C/6 + s (fl(9/16) + 1/2) + 1/3
        s = 1 if bc == "N" else -1
        return [(Fraction(1, 6), C(catalog.flat_torus_hex())),
                (s, fl(Fraction(9, 16))), (s * HALF + Fraction(1, 3), _ONE)]

    if f == Family.TRIANGLE_306090:
        # C/12 + s3 (fl(3/16) + 1/2)/2 + s9 (fl(9/16) + 1/2)/2 + const
        s3 = 1 if bc in ("N", "DN") else -1
        s9 = 1 if bc in ("N", "ND") else -1
        const = Fraction(5, 12) if bc in ("N", "D") else Fraction(-1, 12)
        return [(Fraction(1, 12), C(catalog.flat_torus_hex())),
                (s3 * HALF, fl(Fraction(3, 16))), (s9 * HALF, fl(Fraction(9, 16))),
                ((s3 + s9) * QUARTER + const, _ONE)]

    if f == Family.CYLINDER:
        # tor(a/2, b) is the a x 2b torus
        if bc == "M":
            return [(HALF, tor(a / 2, 2 * b)), (-HALF, tor(a / 2, b))]
        s = 1 if bc == "N" else -1
        return [(HALF, tor(a / 2, b)), (s, fl(a * a / 4)), (s * HALF, _ONE)]

    if f == Family.MOBIUS_BAND:
        even = C(("mobius_even", a, b))
        if bc == "N":
            return [(HALF, even), (1, fl(a * a / 4)), (HALF, _ONE)]
        return [(HALF, tor(a, b)), (-HALF, even), (-1, fl(a * a / 4, HALF))]

    if f == Family.FLAT_PROJECTIVE_PLANE:
        # C/4 + 1/4 + eps/2 with eps = (-1)^fl(1); as floor(floor(x)/2) =
        # floor(x/2), eps/2 = 1/2 - fl(1) + 2 fl(1/4)
        return [(QUARTER, tor(1, 1)), (-1, fl(1)), (2, fl(QUARTER)),
                (Fraction(3, 4), _ONE)]

    if f in (Family.TETRAHEDRON_SURFACE, Family.HALF_TETRAHEDRON):
        # the hexagonal lattice with keys in units of 4/3: the hex torus
        # (unit 16/9) at 4/3 times the cutoff
        ch = C(catalog.flat_torus_hex(), Fraction(4, 3))
        if f == Family.TETRAHEDRON_SURFACE:
            return [(HALF, ch), (HALF, _ONE)]
        s = 1 if bc == "N" else -1
        return [(QUARTER, ch), (s * HALF, fl(Fraction(3, 4))), (s * HALF, fl(QUARTER)),
                (Fraction(3, 4) if bc == "N" else -QUARTER, _ONE)]

    if f == Family.SYMMETRY_SECTOR:
        if spec.irrep != "2":
            domain, s = catalog.sector_domain(spec)
            return _closed_terms(domain, r / s)
        if spec.base == "square_torus":
            return [(HALF, C(catalog.base_spec(spec.base))), (-HALF, _ONE)]
        return [(sign * c, term) for part, sign in catalog.sector_parts(spec.base)
                for c, term in _closed_terms(part, r)]

    raise ValueError("no closed form for %s" % (spec,))


class _Form:
    """A flat surface's closed form, compiled once into an integer linear form.

    den * N(t) = const + sum c * (eigenvalues of tb with key <= rho num / dnm)
                       + sum c * floor(sqrt(p rho / q) + s / r)
    with rho = t / pi^2.  A bracket is kept as (c, m, q, s, r), m = r^2 p q:
    at rho = P/Q it is (isqrt(m P Q) // (q Q) + s) // r, since
    floor(sqrt(x) + s/r) = floor((floor(r sqrt(x)) + s) / r).
    """

    __slots__ = ("den", "const", "counts", "floors")

    def __init__(self, terms):
        coef: dict = {}
        for c, term in terms:
            coef[term] = coef.get(term, 0) + Fraction(c)
        coef = {term: c for term, c in coef.items() if c}
        self.den = math.lcm(*(c.denominator for c in coef.values()))
        self.const = 0
        self.counts = []
        self.floors = []
        for term, c in coef.items():
            c = int(c * self.den)
            if term == _ONE:
                self.const = c
            elif term[0] == "count":
                tb = _table(term[1])
                num, dnm = _pq(term[2] / tb.unit)
                self.counts.append((c, tb, num, dnm))
            else:
                (p, q), (s, r) = _pq(term[1]), _pq(term[2])
                self.floors.append((c, r * r * p * q, q, s, r))

    def numerator(self, t, ends) -> int:
        """den * N(t), every term decided on the ends of rho."""
        counts, floors = self.counts, self.floors

        def values(P, Q):
            return ([P * num // (Q * dnm) for _, _, num, dnm in counts],
                    [(isqrt(m * P * Q) // (q * Q) + s) // r
                     for _, m, q, s, r in floors])

        keys, brackets = _decided(t, ends, values)
        total = self.const
        for (c, tb, _, _), q in zip(counts, keys):
            total += c * tb.count_upto(q)
        for (c, *_), v in zip(floors, brackets):
            total += c * v
        return total


def _form(spec: SurfaceSpec, tb):
    """The compiled closed form of spec, cached on its table tb; a round
    table is its own."""
    if tb.form is None:
        tb.form = _Form(_closed_terms(spec))
    return tb.form


# ---------------------------------------------------------------------------
# public interface


def levels(spec: SurfaceSpec, T) -> list[tuple]:
    """All levels <= T as sorted (exact key, multiplicity) pairs.

    The key is the exact coordinate of the eigenvalue on the family's level
    grid: a Fraction rho (eigenvalue rho * pi^2) for flat families, an
    integer degree N (eigenvalue N(N+1)) for spherical ones.
    """
    tb = _table(spec)
    return tb.levels(tb.qmax(T))


def level_columns(spec: SurfaceSpec, T):
    """The levels <= T as chunks of value, key and multiplicity lists.

    A round table gives one chunk, a flat one `lattice._CHUNK` levels a
    chunk and one empty chunk when there are none.
    """
    tb = _table(spec)
    return tb.columns(tb.qmax(T))


def level_arrays(spec: SurfaceSpec, T):
    """(values, multiplicities) as numpy arrays, for bulk numerics."""
    tb = _table(spec)
    return tb.arrays(tb.qmax(T))


def count(spec: SurfaceSpec, t) -> int:
    """Number of eigenvalues <= t, from the enumerated level table."""
    tb = _table(spec)
    return tb.count_upto(tb.qmax(t))


def closed_form_identity(spec: SurfaceSpec, t) -> CountReport:
    """Table count and closed-form count at t, side by side.

    Both numbers are exact.  The cutoff is turned once into rho = t / pi^2,
    exact or enclosed.  A flat surface's compiled form is evaluated on it
    in integers and must land on an integer, else ArithmeticError.  A
    round surface's closed form is the window count of t (`_RoundTable`).
    """
    tb = _table(spec)
    ends = _rho_ends(t)
    form = _form(spec, tb)
    v = form.numerator(t, ends)
    if v % form.den:
        raise ArithmeticError(
            "closed form for %s at %r is non-integral: %s"
            % (spec, t, Fraction(v, form.den)))
    return CountReport(_t_float(t), tb.count_upto(tb.qmax(t, ends)), v // form.den)


def symmetry_counts(base: str, t) -> dict:
    """Eigenvalue counts of every symmetry sector of a base surface at t."""
    return {
        ir: count(catalog.symmetry_sector(base, ir), t)
        for ir in catalog.sector_irreps(base)
    }
