"""Level tables and exact counting identities for the cataloged surfaces.

Two routes live here and are kept deliberately separate so they can check
each other.  The table route enumerates eigenvalues on an integer grid
(every flat family has eigenvalues unit * q * pi^2 for integers q; every
spherical family has eigenvalues N(N+1)) and answers counting questions by
prefix sums.  Each surface has one cached table holding only the occupied
integer keys, so its memory follows the number of levels, not the size of
the grid up to the cutoff.  The closed-form route evaluates the
floor-bracket identities for N(t), jump discontinuities included.  Each
flat surface's identity is compiled once, on first use, into an integer
linear form cached on its table: a common denominator, a constant, counts
of tables (tori, the hexagonal lattice, sector sources) at fixed rational
rescalings of the cutoff, and brackets floor(sqrt(c2 rho) + shift),
rho = t / pi^2, with c2 and shift held as integer pairs.  A query is then
integer isqrt and floor division only.  Round surfaces use their window
counts.
`closed_form_identity` reports both numbers side by side;
`oracle.check_equivalence` compares them against a third, structurally
different enumeration.

`level_columns` hands the CLI's writer the levels in chunks of _CHUNK rows
formatted from the table's int64 keys, so that a dump holds little beyond
the table however many levels it writes.

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
from math import gcd, isqrt

import numpy as np

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


def _sph_window(t) -> int:
    """The k >= 1 with k^2 - k <= t < k^2 + k, i.e. floor(sqrt(t+1/4)+1/2)."""
    if isinstance(t, ExactTime):
        n, d = _pq(t.rho)
        ends = (n * _LO2[0], d * _LO2[1]), (n * _HI2[0], d * _HI2[1])
    else:
        ends = (_pq(_rational_cutoff(t)),)
    # at t = P/Q: floor((sqrt((4P + Q) Q) + Q) / 2Q)
    return _decided(t, ends, lambda P, Q: (isqrt((4 * P + Q) * Q) + Q) // (2 * Q))


# ---------------------------------------------------------------------------
# level tables (the table route)


class _LevelTable:
    """The levels of one surface or internal lattice, grown by `grow`.

    keys are the sorted integer level keys of nonzero multiplicity: key q
    is the eigenvalue unit * q * pi^2 on a flat table and q(q+1), q the
    degree, on a round one (unit None).  mults are the multiplicities and
    prefix[i] is the sum of the first i of them.  Every level with key <=
    qcap is present; build(qcap) makes (keys, mults) for a larger qcap.
    form is the surface's compiled closed form, made on first use.
    """

    __slots__ = ("unit", "build", "keys", "mults", "prefix", "qcap", "form")

    def __init__(self, unit, build):
        self.unit = unit
        self.build = build
        self.keys = self.mults = np.empty(0, dtype=np.int64)
        self.prefix = np.zeros(1, dtype=np.int64)
        self.qcap = -1
        self.form = None

    def grow(self, qneed: int) -> None:
        """Hold every level with key <= qneed: a table that is too short is
        rebuilt at twice its size or qneed, whichever is larger."""
        if self.qcap < qneed:
            qcap = max(qneed, 256, 2 * self.qcap)
            keys, mults = self.build(qcap)
            if mults.min(initial=0) < 0:
                raise ArithmeticError("negative multiplicity in level table")
            prefix = np.zeros(len(mults) + 1, dtype=np.int64)
            np.cumsum(mults, out=prefix[1:])
            self.keys, self.mults, self.prefix, self.qcap = keys, mults, prefix, qcap

    def qmax(self, t, ends=None) -> int:
        """Largest key whose eigenvalue is <= t, decided exactly; a flat
        table may be handed the ends of t's rho (`_rho_ends`)."""
        if self.unit is None:
            return _sph_window(t) - 1
        un, ud = _pq(self.unit)
        return _decided(t, ends or _rho_ends(t), lambda P, Q: P * ud // (Q * un))

    def index(self, q: int) -> int:
        """The number of levels with key <= q, growing the table to q."""
        self.grow(q)
        return int(self.keys.searchsorted(q, side="right"))

    def count_upto(self, q: int) -> int:
        """The number of eigenvalues with key <= q."""
        i = self.index(q)  # may replace self.prefix
        return int(self.prefix[i])

    def upto(self, q: int):
        """(keys, mults) views of the levels with key <= q."""
        i = self.keys.searchsorted(q, side="right")
        return self.keys[:i], self.mults[:i]


_TABLES: dict = {}


def _table(spec, qneed: int = -1) -> _LevelTable:
    """The cached table of spec, holding every level with key <= qneed.

    spec is a catalog surface (validated when its table is made) or an
    internal lattice key such as ("mobius_even", a, b).
    """
    tb = _TABLES.get(spec)
    if tb is None:
        tb = _TABLES[spec] = _new_table(spec)
    tb.grow(qneed)
    return tb


def _lookup(spec, t):
    """(table, i): the table of spec covers t and its first i levels are <= t."""
    tb = _table(spec)
    return tb, tb.index(tb.qmax(t))


def _reduce(qcap: int, rows=(), arrays=()):
    """Sorted (keys, sums) of weighted integer keys in [0, qcap], exactly.

    A row (c0, c1, c2, ks, w) puts the weight w on the key c0 + c1 k + c2 k^2
    for each k in the range ks; arrays holds (keys, weights) array pairs.
    Keys whose weights sum to zero are dropped.

    When the key span qcap + 1 is no larger than the number of lattice
    points (the summed absolute weights), the weights are counted into a
    span-sized array, the cheapest route for unit-shaped tables.  Otherwise
    each weight is packed into the low bits of its key, the packed keys are
    sorted in place and runs of equal keys are summed, so that memory
    follows the number of points and not the span.  Rows are expanded one
    at a time on both routes.
    """
    n = sum(len(r[3]) for r in rows) + sum(len(k) for k, _ in arrays)
    points = (sum(len(r[3]) * abs(r[4]) for r in rows)
              + sum(int(np.abs(w).sum()) for _, w in arrays))
    wts = [r[4] for r in rows if len(r[3])]
    wts += [int(f(w)) for _, w in arrays if len(w) for f in (np.min, np.max)]
    wlo = min(wts, default=0)
    shift = (max(wts, default=0) - wlo).bit_length()
    if qcap >> (62 - shift):
        raise ArithmeticError(
            "level keys up to %d do not fit int64 with %d weight bits"
            % (qcap, shift))

    def chunks():
        for c0, c1, c2, ks, w in rows:
            if len(ks):
                k = np.arange(ks.start, ks.stop, ks.step, dtype=np.int64)
                yield c0 + k * (c1 + c2 * k), w
        yield from arrays

    if qcap + 1 <= points:
        counts = np.zeros(qcap + 1, dtype=np.int64)
        for keys, w in chunks():
            np.add.at(counts, keys, w)
        keys = np.flatnonzero(counts)
        return keys, counts[keys]

    if not n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    packed = np.empty(n, dtype=np.int64)
    i = 0
    for keys, w in chunks():
        packed[i:i + len(keys)] = (keys << shift) | (w - wlo)
        i += len(keys)
    packed.sort()
    low = packed & ((1 << shift) - 1)
    packed >>= shift
    starts = np.flatnonzero(packed[1:] != packed[:-1]) + 1
    starts = np.concatenate(([0], starts))
    sums = np.add.reduceat(low, starts)
    sums += wlo * np.diff(starts, append=n)
    keep = sums != 0
    return packed[starts][keep], sums[keep]


def _axis_rows(c0: int, c2: int, lo: int, step: int, full: bool, kmax: int,
               w: int) -> list:
    """Rows c0 + c2 k^2 over k = lo, lo+step, ... <= kmax; a full circle
    counts +-k, so k > 0 carries twice the weight of k = 0."""
    ks = range(lo, kmax + 1, step)
    if full and lo == 0:
        return [(c0, 0, c2, ks[:1], w), (c0, 0, c2, ks[1:], 2 * w)]
    return [(c0, 0, c2, ks, 2 * w if full else w)]


# per axis kind: first (doubled) index, index step, full circle
_AXES = {
    "torus": (0, 1, True),
    "cos": (0, 1, False),
    "sin": (1, 1, False),
    "mix": (1, 2, False),  # odd doubled indices 1, 3, 5, ...
    "circ": (0, 1, True),  # a circle on its own grid
}


def _plan_product(a: Fraction, b: Fraction, xset: str, yset: str):
    """Table plan for separable modes on an a x b box.

    xset/yset: 'torus' (full circle j in Z), 'cos' (j >= 0), 'sin' (j >= 1),
    'mix' (half-integer j + 1/2, stored as odd 2j+1), 'circ' (circle of
    circumference a: frequencies 2 pi j / a, stored as j in Z).
    Eigenvalue contribution of index j on axis a: (j/a)^2 pi^2 for
    torus/cos/sin, ((2j+1)/(2a))^2 pi^2 for mix, (2j/a)^2 pi^2 for circ.
    """
    pa, qa = _pq(Fraction(a))
    pb, qb = _pq(Fraction(b))
    # numerators over the common denominator (2 pa pb)^2, doubled indices
    scale = {"torus": 2, "cos": 2, "sin": 2, "mix": 1, "circ": 4}
    U = (scale[xset] * qa * pb) ** 2
    V = (scale[yset] * qb * pa) ** 2
    # mix keeps odd doubled indices, so its own factor stays inside the index
    g = gcd(U, V)
    unit = Fraction(g, 4 * pa * pa * pb * pb)
    Ug, Vg = U // g, V // g
    xlo, xstep, xtor = _AXES[xset]
    ylo, ystep, ytor = _AXES[yset]

    def build(qcap):
        rows = []
        for j in range(xlo, isqrt(qcap // Ug) + 1, xstep):
            c0 = Ug * j * j
            rows += _axis_rows(c0, Vg, ylo, ystep, ytor,
                               isqrt((qcap - c0) // Vg), 2 if xtor and j else 1)
        return _reduce(qcap, rows)

    return unit, build


def _plan_mobius(a: Fraction, b: Fraction, parity: int, kmin):
    """Modes e^{i pi j x / a} * trig(pi k y / b) with (j + k) % 2 == parity.

    kmin is an int for the band families (k >= kmin) or 'torus' for the
    internal parity-split torus table (k in Z).
    """
    pa, qa = _pq(Fraction(a))
    pb, qb = _pq(Fraction(b))
    U = (qa * pb) ** 2
    V = (qb * pa) ** 2
    g = gcd(U, V)
    unit = Fraction(g, pa * pa * pb * pb)
    Ug, Vg = U // g, V // g
    torus_y = kmin == "torus"
    klo = 0 if torus_y else int(kmin)

    def build(qcap):
        rows = []
        for j in range(isqrt(qcap // Ug) + 1):
            c0 = Ug * j * j
            k0 = klo if (j + klo) % 2 == parity else klo + 1
            rows += _axis_rows(c0, Vg, k0, 2, torus_y,
                               isqrt((qcap - c0) // Vg), 2 if j else 1)
        return _reduce(qcap, rows)

    return unit, build


def _hex_norm_table(qcap: int):
    """Levels of n1^2 - n1 n2 + n2^2 over (n1, n2) in Z^2, up to qcap."""
    rows = []
    for n1 in range(-isqrt(4 * qcap // 3), isqrt(4 * qcap // 3) + 1):
        # q <= qcap  <=>  |2 n2 - n1| <= sqrt(4 qcap - 3 n1^2)
        s = isqrt(4 * qcap - 3 * n1 * n1)
        rows.append((n1 * n1, -n1, 1, range(-((s - n1) // 2), (n1 + s) // 2 + 1), 1))
    return _reduce(qcap, rows)


def _hex_pair_table(qcap: int, lo: int, diag):
    """Levels m^2 + mn + n^2 <= qcap of pairs m >= lo with n >= lo (diag
    None), n >= m (diag 0) or n > m (diag 1)."""
    rows = []
    m = lo
    while True:
        n0 = lo if diag is None else m + diag
        if m * m + m * n0 + n0 * n0 > qcap:
            break
        # m^2 + mn + n^2 <= qcap  <=>  n <= (sqrt(4 qcap - 3 m^2) - m) / 2
        nmax = (isqrt(4 * qcap - 3 * m * m) - m) // 2
        rows.append((m * m, m, 1, range(n0, nmax + 1), 1))
        m += 1
    return _reduce(qcap, rows)


def _plan_right_iso(a: Fraction, bc: str):
    """Symmetrized square modes on legs-a right isosceles triangles.

    Doubled indices M = 2j (+1 for mixed legs), eigenvalue
    (M^2 + N^2) * qa^2 / (4 pa^2) * pi^2 over pairs M <= N, strict when the
    hypotenuse condition kills the diagonal.
    """
    pa, qa = _pq(Fraction(a))
    unit = Fraction(qa * qa, 4 * pa * pa)
    if bc in ("MN", "MD"):
        start, step = 1, 2
    elif bc in ("N", "ND"):
        start, step = 0, 2
    else:  # D, DN: sine modes, doubled indices 2, 4, ...
        start, step = 2, 2
    strict = bc in ("D", "ND", "MD")

    def build(qcap):
        rows = []
        m = start
        while True:
            n0 = m + step if strict else m
            if m * m + n0 * n0 > qcap:
                break
            rows.append((m * m, 0, 1, range(n0, isqrt(qcap - m * m) + 1, step), 1))
            m += step
        return _reduce(qcap, rows)

    return unit, build


def _fpp_table(qcap: int):
    """Flat projective plane: r2(q)/4 plus +1 at even and -1 at odd squares,
    with r2 the square-lattice shell sizes (the unit square torus table)."""
    keys, r2 = _table(catalog.flat_torus_rect(1, 1), qcap).upto(qcap)
    if np.any(r2[keys > 0] % 4):
        raise ArithmeticError("square-lattice shell size not in 4Z")
    s = isqrt(qcap)
    rows = [(0, 0, 4, range(s // 2 + 1), 1),  # (2i)^2
            (1, 4, 4, range((s + 1) // 2), -1)]  # (2i+1)^2
    return _reduce(qcap, rows, [(keys, r2 // 4)])


def _tetra_table(qcap: int):
    """Tetrahedron surface: half of each hexagonal shell, key 0 once."""
    keys, r = _table(catalog.flat_torus_hex(), qcap).upto(qcap)
    m = r // 2
    m[0] = 1  # key 0, the constant mode
    return keys, m


def _plan_half_tetra(bc: str):
    sign = 1 if bc == "N" else -1

    def build(qcap):
        # four times the count: r(q), plus 1 at q = 0, plus sign * 2 on the
        # squares and three times the squares (sign * 1 each at q = 0)
        rows = [(0, 0, 0, range(1), 1 + 2 * sign),
                (0, 0, 1, range(1, isqrt(qcap) + 1), 2 * sign),
                (0, 0, 3, range(1, isqrt(qcap // 3) + 1), 2 * sign)]
        keys, tot = _reduce(qcap, rows,
                            [_table(catalog.flat_torus_hex(), qcap).upto(qcap)])
        if np.any(tot % 4):
            raise ArithmeticError("symmetry average came out non-integral")
        return keys, tot // 4

    return Fraction(4, 3), build


def _sector_source(spec: SurfaceSpec):
    """Fundamental-domain surface and eigenvalue scale for a 1-dim sector."""
    bc = catalog.SECTOR_DOMAIN_BC[spec.base][spec.irrep]
    if spec.base in ("square_torus", "square_n", "square_d"):
        return catalog.right_iso_triangle(Fraction(1, 2), bc), Fraction(1)
    if spec.base == "hex_torus":
        return catalog.equilateral_triangle(bc), Fraction(1)
    return catalog.triangle_306090(bc), Fraction(3)


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


def _plan_sector2(spec: SurfaceSpec):
    """The 2-dim isotypic table: base minus all 1-dim sector tables."""
    parts = [(catalog.base_spec(spec.base), 1)] + [
        (catalog.symmetry_sector(spec.base, ir), -1)
        for ir in catalog.sector_irreps(spec.base)
        if ir != "2"
    ]
    units = [_table(s).unit for s, _ in parts]
    common = units[0]
    for u in units[1:]:
        common = _frac_gcd(common, u)
    factors = [(u / common, s, sign) for u, (s, sign) in zip(units, parts)]
    if any(f.denominator != 1 for f, _, _ in factors):
        raise ArithmeticError("sector level grids do not align")

    def build(qcap):
        arrays = []
        for f, s, sign in factors:
            keys, ms = _table(s, qcap // int(f)).upto(qcap // int(f))
            arrays.append((keys * int(f), sign * ms))
        keys, ms = _reduce(qcap, arrays=arrays)
        if ms.min(initial=0) < 0:
            raise ArithmeticError("sector tables exceed the base count")
        if np.any(ms % 2):
            raise ArithmeticError("2-dim isotypic count came out odd")
        return keys, ms

    return common, build


def _plan_flat(spec: SurfaceSpec):
    """(unit, build) of a flat surface's table."""
    f = spec.family
    a, b = spec.a, spec.b
    if f == Family.FLAT_TORUS_RECT:
        return _plan_product(a, b, "torus", "torus")
    if f == Family.FLAT_TORUS_HEX:
        return Fraction(16, 9), _hex_norm_table
    if f == Family.RECTANGLE:
        xset, yset = {
            "N": ("cos", "cos"), "D": ("sin", "sin"), "ND": ("sin", "cos"),
            "NM": ("cos", "mix"), "DM": ("sin", "mix"), "MM": ("mix", "mix"),
        }[spec.bc]
        return _plan_product(a, b, xset, yset)
    if f == Family.CYLINDER:
        yset = {"N": "cos", "D": "sin", "M": "mix"}[spec.bc]
        return _plan_product(a, b, "circ", yset)
    if f == Family.MOBIUS_BAND:
        if spec.bc == "N":
            return _plan_mobius(a, b, 0, 0)
        return _plan_mobius(a, b, 1, 1)
    if f == Family.RIGHT_ISO_TRIANGLE:
        return _plan_right_iso(a, spec.bc)
    if f == Family.EQUILATERAL_TRIANGLE:
        lo = 0 if spec.bc == "N" else 1
        return Fraction(16, 9), lambda qcap: _hex_pair_table(qcap, lo, None)
    if f == Family.TRIANGLE_306090:
        lo = 0 if spec.bc in ("N", "ND") else 1
        diag = 1 if spec.bc in ("ND", "D") else 0
        return Fraction(16, 9), lambda qcap: _hex_pair_table(qcap, lo, diag)
    if f == Family.FLAT_PROJECTIVE_PLANE:
        return Fraction(1), _fpp_table
    if f == Family.TETRAHEDRON_SURFACE:
        return Fraction(4, 3), _tetra_table
    if f == Family.HALF_TETRAHEDRON:
        return _plan_half_tetra(spec.bc)
    if f == Family.SYMMETRY_SECTOR:
        if spec.irrep == "2":
            return _plan_sector2(spec)
        src, scale = _sector_source(spec)
        return _table(src).unit * scale, lambda qcap: _table(src, qcap).upto(qcap)
    raise ValueError("no flat table plan for %s" % (spec,))


def _sph_table(spec: SurfaceSpec, ncap: int):
    """Degrees N <= ncap and their multiplicities, from the window counts."""
    cums = [_sph_cum(spec, k) for k in range(ncap + 2)]
    ms = np.diff(np.asarray(cums, dtype=np.int64))
    keys = np.flatnonzero(ms)
    return keys, ms[keys]


def _new_table(spec) -> _LevelTable:
    if isinstance(spec, tuple):  # ("mobius_even", a, b): k in Z, j + k even
        return _LevelTable(*_plan_mobius(spec[1], spec[2], 0, "torus"))
    catalog.validate(spec)
    if catalog.is_spherical(spec):
        return _LevelTable(None, lambda ncap: _sph_table(spec, ncap))
    return _LevelTable(*_plan_flat(spec))


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
        base = spec.base
        if spec.irrep != "2":
            src, scale = _sector_source(spec)
            return _closed_terms(src, r / scale)
        if base == "square_torus":
            return [(HALF, C(catalog.base_spec(base))), (-HALF, _ONE)]
        # the base surface minus its 1-dim sectors
        terms = _closed_terms(catalog.base_spec(base), r)
        for j in catalog.sector_irreps(base):
            if j != "2":
                sector = _closed_terms(catalog.symmetry_sector(base, j), r)
                terms += [(-c, term) for c, term in sector]
        return terms

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


def _form(spec: SurfaceSpec, tb: _LevelTable) -> _Form:
    """The compiled closed form of spec, cached on its table tb."""
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
    tb, i = _lookup(spec, T)
    pairs = zip(tb.keys[:i].tolist(), tb.mults[:i].tolist())
    if tb.unit is None:
        return list(pairs)
    return [(tb.unit * q, m) for q, m in pairs]


_CHUNK = 65536  # levels per chunk of level_columns


def level_columns(spec: SurfaceSpec, T):
    """The levels <= T as chunks of value, key and multiplicity lists.

    At most _CHUNK levels a chunk, and one empty chunk when there are none.
    A flat key prints as its Fraction rho; a flat value is unit * q rounded
    once to float64 by Python integer division, then times pi^2.
    """
    tb, i = _lookup(spec, T)
    keys, mults = tb.keys[:i], tb.mults[:i]
    pi2 = math.pi * math.pi
    for lo in range(0, max(i, 1), _CHUNK):
        qs = keys[lo:lo + _CHUNK].tolist()
        if tb.unit is None:
            vals = [float(N * (N + 1)) for N in qs]
        else:
            un, ud = _pq(tb.unit)
            vals = [q * un / ud * pi2 for q in qs]
            qs = [str(Fraction(q * un, ud)) for q in qs]
        yield {"value": vals, "key": qs,
               "multiplicity": mults[lo:lo + _CHUNK].tolist()}


def level_arrays(spec: SurfaceSpec, T):
    """(values, multiplicities) as numpy arrays, for bulk numerics."""
    tb, i = _lookup(spec, T)
    keys = tb.keys[:i]
    if tb.unit is None:
        vals = keys.astype(np.float64) * (keys + 1)
    else:
        vals = (keys.astype(np.float64) * tb.unit.numerator / tb.unit.denominator
                * (math.pi * math.pi))
    return vals, tb.mults[:i].copy()


def count(spec: SurfaceSpec, t) -> int:
    """Number of eigenvalues <= t, from the enumerated level table."""
    tb, i = _lookup(spec, t)
    return int(tb.prefix[i])


def closed_form_identity(spec: SurfaceSpec, t) -> CountReport:
    """Table count and closed-form count at t, side by side.

    Both numbers are exact.  On a flat surface the cutoff is turned once
    into rho = t / pi^2, exact or enclosed, and the compiled form is
    evaluated in integers; it must land on an integer, else
    ArithmeticError.  A round surface's window k is found once and gives
    both the table count and the window count.
    """
    tb = _table(spec)
    if tb.unit is None:
        k = _sph_window(t)
        cf = _sph_cum(spec, k)
        c = tb.count_upto(k - 1)
    else:
        ends = _rho_ends(t)
        form = _form(spec, tb)
        v = form.numerator(t, ends)
        if v % form.den:
            raise ArithmeticError(
                "closed form for %s at %r is non-integral: %s"
                % (spec, t, Fraction(v, form.den)))
        cf = v // form.den
        c = tb.count_upto(tb.qmax(t, ends))
    return CountReport(_t_float(t), c, cf)


def symmetry_counts(base: str, t) -> dict:
    """Eigenvalue counts of every symmetry sector of a base surface at t."""
    return {
        ir: count(catalog.symmetry_sector(base, ir), t)
        for ir in catalog.sector_irreps(base)
    }
