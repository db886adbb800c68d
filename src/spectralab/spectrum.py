"""Level tables and exact counting identities for the cataloged surfaces.

Two routes live here and are kept deliberately separate so they can check
each other.  The table route enumerates eigenvalues on an integer grid
(every flat family has eigenvalues unit * q * pi^2 for integers q; every
spherical family has eigenvalues N(N+1)) and answers counting questions by
prefix sums.  Each surface has one cached table (`_Table`), and both kinds
hold keys, multiplicities and counts and are read one way: a round key is
a degree N, a flat one (`lattice`) an integer q.  Only occupied keys are
held, in stdlib `array('q')` or, for a large flat table, numpy arrays of
int32 keys and counts (int64 keys where a key passes 2^31), so memory
follows the number of levels, 12 bytes each on numpy, not the size of the
grid up to the cutoff.  Every table grows in `_Table.grow`, which refuses
one whose `bound`, the count it would hold, is over _LEVEL_CAP, or whose
keys do not fit int64, before building it: the bound is a round table's
window count, or the weights of a flat table's own lattice rows summed
without expanding them.  The closed-form route evaluates the floor-bracket
identities for N(t), jump discontinuities included.  Each flat surface's
identity is compiled once, on first use, into an integer linear form
cached on its table: a common denominator, a constant, counts of tables
(tori, the hexagonal lattice) at fixed rational rescalings of the cutoff,
and brackets floor(sqrt(c2 rho) + shift), rho = t / pi^2, with c2 and
shift held as integer pairs.  A query is then integer isqrt and floor
division only, and one method sums the form (`_Form.total`).  A round
closed form is the window count itself.
`closed_form_identity` reports both numbers side by side;
`oracle.check_equivalence` compares them against a third, structurally
different enumeration.

`level_columns` hands the CLI's writer the levels in chunks of _CHUNK
rows formatted from the integer keys, so that a dump holds little beyond
the table however many levels it writes.  The averaged error and heat
trace read float64 sums made from the arrays on each call (`level_blocks`,
`level_lists`), so the arrays are a table's one copy.  All readers take
their values from one formula per kind (`value`).

Cutoffs may be given as plain numbers (int, float, Fraction) or as an
`ExactTime`, which pins down cutoffs of the form rho * pi^2 that no float
can represent.  A query decides its cutoff once: the table's `ends` turn
it into exact integer pairs, for a flat table rho exactly or the enclosure
T / PI_HI^2 < rho < T / PI_LO^2 with a 100-digit pi, for a round one t
exactly or enclosed the same way for an ExactTime.  `closed_form_identity`
reads the table's largest key and every count and bracket of the closed
form off those same ends, at each of them; a genuinely ambiguous cutoff
(one within 1e-96 of a level) gives two different values and raises
ArithmeticError rather than guessing.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import mul

from . import catalog
from .catalog import Family, SurfaceSpec
from .exact import PI_HI, PI_LO

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class ExactTime(namedtuple("ExactTime", "rho")):
    """Exact spectral cutoff rho * pi^2, rho a nonnegative Fraction."""

    __slots__ = ()

    def __new__(cls, rho):
        if not isinstance(rho, Fraction):
            rho = Fraction(rho)
        if rho.numerator < 0:
            raise ValueError("negative cutoff")
        return tuple.__new__(cls, (rho,))

    @property
    def value(self) -> float:
        return _t_float(self.rho) * (math.pi * math.pi)


class CountReport(namedtuple("CountReport", "t count closed_form")):
    """Eigenvalue count at cutoff t (a float) by table and by closed-form
    identity, both ints."""

    __slots__ = ()


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
    if isinstance(t, Fraction):  # float(t), without the generic Rational route
        return t.numerator / t.denominator
    return float(t)


def _rational_cutoff(t) -> Fraction:
    tv = t if isinstance(t, Fraction) else Fraction(t)
    if tv.numerator < 0:
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


# Levels per chunk of `level_columns`: a chunk's lists and the CSV writer's
# rows take about 300 B a level, 5 MB at this size (20 MB at 65536).
_CHUNK = 16384
# Levels per block of `level_blocks`.  A block's arrays take tens of kB,
# well below the Fourier scan's two 256 kB buffers (on its 60001 samples
# and 901 frequencies); no reader's results depend on the size.
_LEVELS = 1 << 12
_NEGATIVE = "negative multiplicity in level table"
# Most eigenvalues a table may be built to hold, by its `bound`: the
# largest roster table that `conjecture` builds, flat_torus_rect:a=2,b=3/2
# at t = 1e7, holds 9549313, and `spectrum flat_torus_rect:a=101/100,b=1
# --max-t 6e7` 19289699.
_LEVEL_CAP = 25_000_000


class _Table:
    """The levels of one surface: sorted integer keys, their nonzero
    multiplicities mults and prefix[i], the sum of the first i of them, all
    `array('q')` or all numpy arrays, with every key <= qcap present.  A
    numpy table holds each array in int32 where its values fit (counts
    always under _LEVEL_CAP, keys below 2^31), else int64, so its readers
    cast keys to float64 or hand them out through `tolist()`.
    A kind supplies `build(qcap)` (the arrays), `bound(q, stop)` (the
    number of eigenvalues with key <= q, or None where a flat table has
    too many rows to sum or passes stop before its last row), `fits(q)`
    (whether the keys <= q fit int64), `ends(t)` (t's
    cutoff as exact integer pairs, `_decided`), `key_at(P, Q)` (the
    largest key whose eigenvalue is <= the cutoff at one end), `value(k)`
    (that eigenvalue in float64), `key(k)` (the exact key) and
    `printed(k)` (the key as written)."""

    __slots__ = ("spec", "keys", "mults", "prefix", "qcap", "form")

    def __init__(self, spec):
        self.spec, self.qcap, self.form = spec, -1, None
        self.keys, self.mults, self.prefix = array("q"), array("q"), array("q", [0])

    def grow(self, qneed: int, t=None) -> None:
        """Hold every level with key <= qneed, rebuilt at twice the size or
        qneed: the arrays are replaced, never resized, so views handed out
        before stay as they were.  A doubled size that cannot be built
        (`_refusal`) falls back to qneed, and qneed itself, when it cannot
        be built either, is refused with ValueError naming the surface, the
        cutoff t asked for (else qneed's eigenvalue) and what is past its
        limit."""
        if self.qcap < qneed:
            qcap = max(qneed, 256, 2 * self.qcap)
            why = self._refusal(qcap)
            if why and qcap > qneed:
                qcap = qneed
                why = self._refusal(qcap)
            if why:
                try:
                    cutoff = "%g" % (self.value(qneed) if t is None else _t_float(t))
                except OverflowError:  # past the float range
                    cutoff = "inf" if t is None else str(t)
                raise ValueError(
                    f"{catalog.short_label(self.spec)} {why[0]} below {cutoff}, {why[1]}")
            self.keys, self.mults, self.prefix = self.build(qcap)
            self.qcap = qcap

    def _refusal(self, q: int):
        """None when build(q) can be made, else what is past its limit and
        the limit: a `bound` over _LEVEL_CAP (or None: too many rows to
        sum, or over the cap before the last), or keys that do not fit
        int64 (`fits`)."""
        bound = self.bound(q, _LEVEL_CAP)
        if bound is None:
            return "has too many levels to count", f"over the cap of {_LEVEL_CAP:g}"
        if bound > _LEVEL_CAP:
            return f"may have up to {bound} eigenvalues", f"over the cap of {_LEVEL_CAP:g}"
        if not self.fits(q):
            return f"has level keys up to {q}", "which do not fit int64 beside their weights"
        return None

    def decided(self, t, value):
        """value(P, Q) at every end of t's cutoff (`_decided`).  When the
        ends disagree, the table is first grown to the key at the first
        end, so that a cutoff past the cap is refused as such (`grow`)
        rather than as too close to a level."""
        ends = self.ends(t)
        try:
            return _decided(t, ends, value)
        except ArithmeticError:
            self.grow(self.key_at(*ends[0]), t)
            raise

    def qmax(self, t) -> int:
        """The largest key whose eigenvalue is <= t, the same at every end."""
        return self.decided(t, self.key_at)

    def index(self, q: int, t=None) -> int:
        """The number of levels with key <= q, growing the table to q; t,
        the cutoff q was decided from, names a refusal."""
        self.grow(q, t)
        return bisect_right(self.keys, q)

    def count_upto(self, q: int, t=None) -> int:
        """The number of eigenvalues with key <= q (t as for `index`)."""
        self.grow(q, t)  # may replace the arrays: read them after
        return int(self.prefix[bisect_right(self.keys, q)])


class _RoundTable(_Table):
    """A round surface's levels: key N, written as the integer, is the
    degree of the eigenvalue N(N+1), and its multiplicity is the step of
    the window counts `_sph_cum` from window N to N + 1, which are also
    the closed form: window N + 1 counts the eigenvalues <= t for N the
    largest degree with N(N+1) <= t."""

    __slots__ = ()

    def build(self, qcap: int):
        """(keys, mults, prefix) of the degrees <= qcap of nonzero
        multiplicity, appended step by step from the window counts."""
        keys, mults, prefix = array("q"), array("q"), array("q", [0])
        for N in range(qcap + 1):
            step = _sph_cum(self.spec, N + 1) - prefix[-1]
            if step:
                if step < 0:
                    raise ArithmeticError(_NEGATIVE)
                keys.append(N)
                mults.append(step)
                prefix.append(prefix[-1] + step)
        return keys, mults, prefix

    def bound(self, q: int, stop=None) -> int:
        """The number of eigenvalues of degree <= q, exactly: window q + 1."""
        return _sph_cum(self.spec, q + 1)

    @staticmethod
    def fits(q: int) -> bool:
        """True: a degree whose bound is under the cap is far below 2^63."""
        return True

    @staticmethod
    def ends(t) -> tuple:
        """t itself as exact integer pairs (P, Q), t = P / Q: one pair for
        a number, the ends of the enclosure of rho * pi^2 for an ExactTime."""
        if isinstance(t, ExactTime):
            n, d = _pq(t.rho)
            return (n * _LO2[0], d * _LO2[1]), (n * _HI2[0], d * _HI2[1])
        return (_pq(_rational_cutoff(t)),)

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


_TABLES: dict = {}


def _table(spec: SurfaceSpec):
    """The cached table of a catalog surface, made empty on first use; its
    readers grow it to the keys they need."""
    tb = _TABLES.get(spec)
    if tb is None:
        tb = _TABLES[spec] = _new_table(spec)
    return tb


def _new_table(spec: SurfaceSpec):
    if catalog.is_spherical(spec):
        return _RoundTable(spec)
    from . import lattice

    return lattice._LevelTable(spec)


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
        # E, the torus points with j + k even: all of them, less those with
        # j even and those with k even, plus twice those with both even
        even = [(1, tor(a, b)), (-1, tor(a / 2, b)), (-1, tor(a, b / 2)),
                (2, tor(a / 2, b / 2))]
        if bc == "N":  # E/2 + fl(a^2/4) + 1/2
            return [(HALF * c, term) for c, term in even] + [
                (1, fl(a * a / 4)), (HALF, _ONE)]
        # T(a, b)/2 - E/2 - fl(a^2/4, 1/2)
        return [(HALF, tor(a, b))] + [(-HALF * c, term) for c, term in even] + [
            (-1, fl(a * a / 4, HALF))]

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

    den * N(t) = const + sum c * (eigenvalues of sub with key <= rho a / b)
                       + sum c * floor(sqrt(p rho / q) + s / r)
    with rho = t / pi^2.  Each term is a tuple of ints in `terms`, beside
    its (c, sub) in `weights`: a count term is (a, b, None, None), and a
    bracket (m, q, s, r) with sub None, m = r^2 p q, since at rho = P/Q it is
    (isqrt(m P Q) // (q Q) + s) // r, as
    floor(sqrt(x) + s/r) = floor((floor(r sqrt(x)) + s) / r).  `key` is the
    (a, b) of the form's own table, of level spacing unit.  Tables are held,
    not their arrays, which growth replaces.
    """

    __slots__ = ("den", "const", "key", "terms", "weights")

    def __init__(self, terms, unit):
        coef: dict = {}
        for c, term in terms:
            coef[term] = coef.get(term, 0) + Fraction(c)
        coef = {term: c for term, c in coef.items() if c}
        self.den = math.lcm(*(c.denominator for c in coef.values()))
        self.const = 0
        self.key = unit.denominator, unit.numerator
        self.terms, self.weights = [], []
        for term, c in coef.items():
            c = int(c * self.den)
            if term == _ONE:
                self.const = c
                continue
            if term[0] == "count":
                sub = _table(term[1])
                self.terms.append((*_pq(term[2] / sub.unit), None, None))
            else:
                sub = None
                (p, q), (s, r) = _pq(term[1]), _pq(term[2])
                self.terms.append((r * r * p * q, q, s, r))
            self.weights.append((c, sub))

    def total(self, ks) -> int:
        """den * N at the term integers ks of `ints`: the constant plus each
        term's coefficient times its bracket or its torus's count at its
        key k.  A torus reads its table where the table holds k or can grow
        to k within _LEVEL_CAP, and its `bound` at k, the same count summed
        over its rows, where the table would pass the cap; a torus whose
        rows are too many to sum is refused by its table (`_Table.grow`)."""
        v = self.const
        for (c, sub), k in zip(self.weights, ks):
            if sub is not None:
                n = sub.bound(k) if sub.qcap < k else 0
                k = sub.count_upto(k) if n is None or n <= _LEVEL_CAP else n
            v += c * k
        return v

    def ints(self, P: int, Q: int) -> tuple:
        """At rho = P / Q: the largest key of the form's own table, and the
        list of every term's integer, a table key or a bracket."""
        ka, kb = self.key
        return P * ka // (Q * kb), [
            P * a // (Q * b) if s is None else (isqrt(a * P * Q) // (b * Q) + s) // r
            for a, b, s, r in self.terms]


def _form(spec: SurfaceSpec, tb):
    """The compiled closed form of a flat spec, cached on its table tb."""
    if tb.form is None:
        tb.form = _Form(_closed_terms(spec), tb.unit)
    return tb.form


# ---------------------------------------------------------------------------
# public interface


def _upto(spec: SurfaceSpec, T) -> tuple:
    """The table of spec grown to hold the levels <= T, and their number."""
    tb = _table(spec)
    return tb, tb.index(tb.qmax(T), T)


def levels(spec: SurfaceSpec, T) -> list[tuple]:
    """All levels <= T as sorted (exact key, multiplicity) pairs.

    The key is the exact coordinate of the eigenvalue on the family's level
    grid: a Fraction rho (eigenvalue rho * pi^2) for flat families, an
    integer degree N (eigenvalue N(N+1)) for spherical ones.
    """
    tb, i = _upto(spec, T)
    return list(zip(map(tb.key, tb.keys[:i].tolist()), tb.mults[:i].tolist()))


def level_columns(spec: SurfaceSpec, T):
    """The levels <= T as chunks of value, key and multiplicity lists.

    Each chunk holds _CHUNK levels, the last one fewer, and there is one
    empty chunk when there are none.
    """
    tb, i = _upto(spec, T)
    keys, mults = tb.keys[:i], tb.mults[:i]
    value, printed = tb.value, tb.printed
    for lo in range(0, max(i, 1), _CHUNK):
        ks = keys[lo:lo + _CHUNK].tolist()
        yield {"value": [value(k) for k in ks], "key": [printed(k) for k in ks],
               "multiplicity": mults[lo:lo + _CHUNK].tolist()}


def level_arrays(spec: SurfaceSpec, T):
    """(values, multiplicities) as numpy arrays, for bulk numerics; the
    multiplicities are a read-only view of the table's."""
    import numpy as np

    tb, i = _upto(spec, T)
    mults = np.asarray(tb.mults)[:i]
    mults.flags.writeable = False
    return tb.value(np.asarray(tb.keys)[:i].astype(np.float64)), mults


def level_blocks(spec: SurfaceSpec, T):
    """The float64 prefix sums of the levels <= T, one block of _LEVELS
    levels at a time, straight from the table's integer keys.

    Yields ((vals, n_pref, l_pref), edge) per block: the block's level
    values, and the sums of mult and of mult * value over every level
    before the block's k-th one, k = 0 .. len(vals): the table's prefix,
    exact in float64, and a sequential sum from the previous block's total,
    np.cumsum's over the whole table bit for bit.  A time t takes its sums
    from the first block whose edge (its last value, infinity on the last
    block) is above it, at np.searchsorted(vals, t, side="right").  There
    is one empty block when there are no levels.
    """
    import numpy as np

    tb, i = _upto(spec, T)
    keys, mults, prefix = map(np.asarray, (tb.keys, tb.mults, tb.prefix))
    l_run = 0.0
    for lo in range(0, max(i, 1), _LEVELS):
        hi = min(lo + _LEVELS, i)
        vals = tb.value(keys[lo:hi].astype(np.float64))
        n_pref = prefix[lo:hi + 1].astype(np.float64)
        l_pref = np.empty(hi - lo + 1)
        l_pref[0] = l_run
        np.multiply(mults[lo:hi], vals, out=l_pref[1:])
        np.cumsum(l_pref, out=l_pref)
        l_run = l_pref[-1]
        yield (vals, n_pref, l_pref), vals[-1] if hi < i else np.inf


def level_lists(spec: SurfaceSpec, T, most: int):
    """`level_blocks`'s sums of the levels <= T as Python lists, the same
    floats, made on each call; None past most levels, or for a table held
    on numpy, where the lists would save no import."""
    tb, i = _upto(spec, T)
    if i > most or not isinstance(tb.keys, array):
        return None
    vals = list(map(tb.value, map(float, tb.keys[:i].tolist())))
    return (vals, list(map(float, tb.prefix[:i + 1].tolist())),
            list(accumulate(map(mul, tb.mults[:i].tolist(), vals), initial=0.0)))


def count(spec: SurfaceSpec, t, q=None) -> int:
    """Number of eigenvalues <= t, from the enumerated level table; q is
    t's largest key (`_Table.qmax`) when the caller has decided it."""
    tb = _table(spec)
    return tb.count_upto(tb.qmax(t) if q is None else q, t)


def closed_form_identity(spec: SurfaceSpec, t) -> CountReport:
    """Table count and closed-form count at t, side by side.

    Both numbers are exact, and t is decided once: its ends (`_Table.ends`)
    give the table's largest key q, and the table count is
    `count(spec, t, q)`.  A flat surface's compiled form reads q and every
    term's integer off the same ends of rho = t / pi^2 (`_Form.ints`), and
    must land on an integer, else ArithmeticError.  Only the surface's own
    table is held to the cap, by the table count, before `_Form.total`
    reads a term: a torus over the cap is read by its `bound`, the sum of
    its rows.  A round surface's closed form is the window count of t,
    `_sph_cum` of window q + 1.
    """
    tb = _table(spec)
    if isinstance(tb, _RoundTable):
        q = tb.qmax(t)
        return CountReport(_t_float(t), count(spec, t, q), _sph_cum(spec, q + 1))
    form = _form(spec, tb)
    q, ks = tb.decided(t, form.ints)
    n = count(spec, t, q)
    v = form.total(ks)
    if v % form.den:
        raise ArithmeticError(
            "closed form for %s at %r is non-integral: %s"
            % (spec, t, Fraction(v, form.den)))
    return CountReport(_t_float(t), n, v // form.den)


def symmetry_counts(base: str, t) -> dict:
    """Eigenvalue counts of every symmetry sector of a base surface at t."""
    return {ir: count(catalog.symmetry_sector(base, ir), t) for ir in catalog.sector_irreps(base)}
