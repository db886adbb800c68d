"""Level tables and exact counting identities for the cataloged surfaces.

Two routes live here and are kept deliberately separate so they can check
each other.  The table route enumerates eigenvalues on an integer grid
(every flat family has eigenvalues unit * q * pi^2 for integers q; every
spherical family has eigenvalues N(N+1)) and answers counting questions by
prefix sums.  The closed-form route evaluates the floor-bracket identities
for N(t) directly, jump discontinuities included, using exact rational
arithmetic throughout.  `closed_form_identity` reports both numbers side by
side; `oracle.check_equivalence` compares them against a third, structurally
different enumeration.

Cutoffs may be given as plain numbers (int, float, Fraction) or as an
`ExactTime`, which pins down cutoffs of the form rho * pi^2 that no float
can represent.  Rational cutoffs are located relative to the level grid by
interval arithmetic with a 100-digit pi; a genuinely ambiguous cutoff (one
within 1e-96 of a level) raises ArithmeticError rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import catalog
from .catalog import Family, SurfaceSpec
from .exact import (
    PI_HI,
    PI_LO,
    flat_rho_bounds,
    floor_affine_sqrt,
    floor_sqrt_shift_pi,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class ExactTime:
    """Exact spectral cutoff: rho * pi^2 if pi2 is True, else just rho."""

    rho: Fraction
    pi2: bool = True

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.rho < 0:
            raise ValueError("negative cutoff")

    @property
    def value(self) -> float:
        return float(self.rho) * (math.pi * math.pi if self.pi2 else 1.0)


@dataclass(frozen=True)
class EigenLevel:
    """One eigenvalue: float value, exact key, multiplicity.

    The key is the exact coordinate of the eigenvalue on the family's level
    grid: a Fraction rho (eigenvalue rho * pi^2) for flat families, an
    integer degree N (eigenvalue N(N+1)) for spherical ones.
    """

    value: float
    key: object
    multiplicity: int


@dataclass(frozen=True)
class CountReport:
    """Eigenvalue count at cutoff t by table and by closed-form identity."""

    t: float
    count: int
    closed_form: int


# ---------------------------------------------------------------------------
# cutoff handling


def _t_float(t) -> float:
    if isinstance(t, ExactTime):
        return t.value
    return float(t)


def _rational_cutoff(t) -> Fraction:
    if isinstance(t, ExactTime):
        tv = t.rho  # pi2 handled by callers
    else:
        tv = Fraction(t)
    if tv < 0:
        raise ValueError("negative cutoff")
    return tv


def _flat_qmax(unit: Fraction, t) -> int:
    """Largest integer q with unit * q * pi^2 <= t, exactly."""
    if isinstance(t, ExactTime) and t.pi2:
        return math.floor(t.rho / unit)
    tv = _rational_cutoff(t)
    lo, hi = flat_rho_bounds(tv)
    qlo = math.floor(lo / unit)
    qhi = math.floor(hi / unit)
    if qlo != qhi:
        raise ArithmeticError(
            "cutoff %r is too close to a level to classify" % (t,))
    return qlo


def _sph_window(t) -> int:
    """The k >= 1 with k^2 - k <= t < k^2 + k, i.e. floor(sqrt(t+1/4)+1/2)."""
    if isinstance(t, ExactTime) and t.pi2:
        lo = t.rho * PI_LO * PI_LO
        hi = t.rho * PI_HI * PI_HI
        klo = floor_affine_sqrt(lo + QUARTER, 1, HALF)
        khi = floor_affine_sqrt(hi + QUARTER, 1, HALF)
        if klo != khi:
            raise ArithmeticError(
                "cutoff %r is too close to a level to classify" % (t,))
        return klo
    tv = _rational_cutoff(t)
    return floor_affine_sqrt(tv + QUARTER, 1, HALF)


def _scale_time(t, r: Fraction):
    """The cutoff t * r, preserving exactness."""
    if isinstance(t, ExactTime):
        return ExactTime(t.rho * r, t.pi2)
    return _rational_cutoff(t) * r


class _FlatTime:
    """Exact floor brackets of sqrt-affine expressions in a flat cutoff."""

    __slots__ = ("rho", "t")

    def __init__(self, t):
        if isinstance(t, ExactTime) and t.pi2:
            self.rho = t.rho
            self.t = None
        else:
            self.rho = None
            self.t = _rational_cutoff(t)

    def fl(self, c2: Fraction, shift: Fraction = Fraction(0)) -> int:
        """floor(sqrt(c2 * t)/pi + shift) == floor(sqrt(c2 * rho) + shift)."""
        if self.rho is not None:
            return floor_affine_sqrt(c2 * self.rho, 1, shift)
        return floor_sqrt_shift_pi(c2 * self.t, shift)


# ---------------------------------------------------------------------------
# integer-grid enumeration (the table route)

_TABLES: dict = {}
_VALIDATED: set = set()


def _checked(spec: SurfaceSpec) -> SurfaceSpec:
    if spec not in _VALIDATED:
        catalog.validate(spec)
        _VALIDATED.add(spec)
    return spec


def _dense_to_levels(counts: np.ndarray):
    if counts.min(initial=0) < 0:
        raise ArithmeticError("negative multiplicity in level table")
    qs = np.nonzero(counts)[0].astype(np.int64)
    return qs, counts[qs].astype(np.int64)


def _get_table(key, unit, builder, qneed: int) -> dict:
    tb = _TABLES.get(key)
    if tb is None or tb["qcap"] < qneed:
        qcap = max(qneed, 256, 2 * (tb["qcap"] if tb else 0))
        qs, ms = builder(qcap)
        tb = {
            "unit": unit,
            "qs": qs,
            "ms": ms,
            "prefix": np.cumsum(ms, dtype=np.int64),
            "qcap": qcap,
        }
        _TABLES[key] = tb
    return tb


def _pq(x: Fraction):
    return x.numerator, x.denominator


def _build_sum_of_two(U: int, V: int, g: int, jgen, kgen, qcap: int):
    """Counts over q = (U j^2 + V k^2) / g for index generators.

    jgen yields (j, weight); kgen(j) yields an integer array of k values and
    a matching weight array.  Everything lands on one dense array.
    """
    counts = np.zeros(qcap + 1, dtype=np.int64)
    Ug, Vg = U // g, V // g
    for j, wj in jgen(qcap, Ug):
        qj = Ug * j * j
        if qj > qcap:
            break
        ks, wk = kgen(j, (qcap - qj) // Vg)
        if len(ks) == 0:
            continue
        qs = qj + Vg * ks * ks
        np.add.at(counts, qs, wj * wk)
    return _dense_to_levels(counts)


def _gen_nonneg(lo: int, step: int = 1, torus: bool = False):
    """Index generator over j = lo, lo+step, ...; torus doubles j > 0."""

    def gen(qcap, Ug):
        j = lo
        while Ug * j * j <= qcap:
            yield j, (2 if torus and j > 0 else 1)
            j += step
        return

    return gen


def _ks_range(lo: int, step: int, torus: bool):
    def kgen(j, kq):
        if kq < 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        kmax = isqrt(kq)
        ks = np.arange(lo, kmax + 1, step, dtype=np.int64)
        w = np.full(len(ks), 2 if torus else 1, dtype=np.int64)
        if torus and len(ks) and ks[0] == 0:
            w[0] = 1
        return ks, w

    return kgen


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

    def axis(kind):
        if kind == "torus":
            return 0, 1, True
        if kind == "cos":
            return 0, 1, False
        if kind == "sin":
            return 1, 1, False
        if kind == "mix":
            return 1, 2, False  # odd doubled indices 1, 3, 5, ...
        return 0, 1, True  # circ behaves like torus on its own grid

    xlo, xstep, xtor = axis(xset)
    ylo, ystep, ytor = axis(yset)

    def build(qcap):
        return _build_sum_of_two(
            U, V, g,
            _gen_nonneg(xlo, xstep, xtor),
            _ks_range(ylo, ystep, ytor),
            qcap,
        )

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
        counts = np.zeros(qcap + 1, dtype=np.int64)
        j = 0
        while Ug * j * j <= qcap:
            wj = 2 if j > 0 else 1
            kq = (qcap - Ug * j * j) // Vg
            kmax = isqrt(kq)
            k0 = klo if (j + klo) % 2 == parity else klo + 1
            ks = np.arange(k0, kmax + 1, 2, dtype=np.int64)
            if len(ks):
                w = np.full(len(ks), 2 if torus_y else 1, dtype=np.int64)
                if torus_y and ks[0] == 0:
                    w[0] = 1
                qs = Ug * j * j + Vg * ks * ks
                np.add.at(counts, qs, wj * w)
            j += 1
        return _dense_to_levels(counts)

    return unit, build


def _hex_norm_counts(qcap: int) -> np.ndarray:
    """r[q] = #{(n1, n2) in Z^2 : n1^2 - n1 n2 + n2^2 = q}, q <= qcap."""
    counts = np.zeros(qcap + 1, dtype=np.int64)
    M = isqrt(max(4 * qcap, 0) // 3) + 1
    n2s = np.arange(-M, M + 1, dtype=np.int64)
    for n1 in range(-M, M + 1):
        qs = n1 * n1 - n1 * n2s + n2s * n2s
        sel = qs <= qcap
        np.add.at(counts, qs[sel], 1)
    return counts


def _square_norm_counts(qcap: int) -> np.ndarray:
    """r2[q] = #{(j, k) in Z^2 : j^2 + k^2 = q}, q <= qcap."""
    counts = np.zeros(qcap + 1, dtype=np.int64)
    for j in range(isqrt(qcap) + 1):
        rem = qcap - j * j
        kmax = isqrt(rem)
        ks = np.arange(kmax + 1, dtype=np.int64)
        w = np.full(kmax + 1, 2 if j else 1, dtype=np.int64) * 2
        if len(w):
            w[0] //= 2
        np.add.at(counts, j * j + ks * ks, w)
    return counts


def _hex_pair_rows(qcap: int, lo: int, nfloor) -> np.ndarray:
    """Dense counts of pairs m >= lo, n >= nfloor(m) with m^2+mn+n^2 <= qcap."""
    counts = np.zeros(qcap + 1, dtype=np.int64)
    m = lo
    while True:
        n0 = nfloor(m)
        if m * m + m * n0 + n0 * n0 > qcap:
            break
        # m^2 + mn + n^2 <= qcap  <=>  n <= (sqrt(4 qcap - 3 m^2) - m) / 2
        nmax = (isqrt(4 * qcap - 3 * m * m) - m) // 2
        ns = np.arange(n0, nmax + 1, dtype=np.int64)
        if len(ns):
            np.add.at(counts, m * m + m * ns + ns * ns, 1)
        m += 1
    return counts


def _plan_eq_pairs(lo: int):
    """Ordered pairs m, n >= lo on the hexagonal quadratic form."""

    def build(qcap):
        return _dense_to_levels(_hex_pair_rows(qcap, lo, lambda m: lo))

    return Fraction(16, 9), build


def _plan_half_eq(mode: str):
    """Pairs on the hexagonal form with m <= n ('le') or m < n ('lt'),
    starting from lo encoded in the mode string: 'le0', 'lt0', 'le1', 'lt1'.
    """
    lo = int(mode[2])
    strict = mode[:2] == "lt"

    def build(qcap):
        nf = (lambda m: m + 1) if strict else (lambda m: m)
        counts = _hex_pair_rows(qcap, lo, nf)
        return _dense_to_levels(counts)

    return Fraction(16, 9), build


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
        counts = np.zeros(qcap + 1, dtype=np.int64)
        m = start
        while True:
            n0 = m + step if strict else m
            if m * m + n0 * n0 > qcap:
                break
            ns = np.arange(n0, isqrt(qcap - m * m) + 1, step, dtype=np.int64)
            if len(ns):
                np.add.at(counts, m * m + ns * ns, 1)
            m += step
        return _dense_to_levels(counts)

    return unit, build


def _plan_fpp():
    def build(qcap):
        r2 = _square_norm_counts(qcap)
        if np.any(r2[1:] % 4):
            raise ArithmeticError("square-lattice shell size not in 4Z")
        qs = np.arange(qcap + 1, dtype=np.int64)
        s = np.sqrt(qs.astype(np.float64)).round().astype(np.int64)
        corr = np.where(s * s == qs, np.where(s % 2 == 0, 1, -1), 0)
        m = r2 // 4 + corr
        m[0] = 1
        return _dense_to_levels(m)

    return Fraction(1), build


def _plan_tetra():
    def build(qcap):
        r = _hex_norm_counts(qcap)
        m = r // 2
        m[0] = 1
        return _dense_to_levels(m)

    return Fraction(4, 3), build


def _plan_half_tetra(bc: str):
    sign = 1 if bc == "N" else -1

    def build(qcap):
        r = _hex_norm_counts(qcap)
        qs = np.arange(qcap + 1, dtype=np.int64)
        s = np.sqrt(qs.astype(np.float64)).round().astype(np.int64)
        fsw = np.where(s * s == qs, 2, 0)
        s3 = np.sqrt((qs / 3.0)).round().astype(np.int64)
        fnsw = np.where(3 * s3 * s3 == qs, 2, 0)
        fsw[0] = 1
        fnsw[0] = 1
        z = np.zeros_like(qs)
        z[0] = 1
        tot = r + z + sign * (fsw + fnsw)
        if np.any(tot % 4):
            raise ArithmeticError("symmetry average came out non-integral")
        return _dense_to_levels(tot // 4)

    return Fraction(4, 3), build


def _sector_source(spec: SurfaceSpec):
    """Fundamental-domain surface and eigenvalue scale for a 1-dim sector."""
    bc = catalog.SECTOR_DOMAIN_BC[spec.base][spec.irrep]
    if spec.base in ("square_torus", "square_n", "square_d"):
        return catalog.right_iso_triangle(Fraction(1, 2), bc), Fraction(1)
    if spec.base == "hex_torus":
        return catalog.equilateral_triangle(bc), Fraction(1)
    return catalog.triangle_306090(bc), Fraction(3)


def _plan_flat(spec: SurfaceSpec):
    """(unit, builder) for every flat family except the 2-dim sectors."""
    f = spec.family
    a, b = spec.a, spec.b
    if f == Family.FLAT_TORUS_RECT:
        return _plan_product(a, b, "torus", "torus")
    if f == Family.FLAT_TORUS_HEX:
        unit = Fraction(16, 9)

        def build(qcap):
            return _dense_to_levels(_hex_norm_counts(qcap))

        return unit, build
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
        return _plan_eq_pairs(0 if spec.bc == "N" else 1)
    if f == Family.TRIANGLE_306090:
        mode = {"N": "le0", "ND": "lt0", "DN": "le1", "D": "lt1"}[spec.bc]
        return _plan_half_eq(mode)
    if f == Family.FLAT_PROJECTIVE_PLANE:
        return _plan_fpp()
    if f == Family.TETRAHEDRON_SURFACE:
        return _plan_tetra()
    if f == Family.HALF_TETRAHEDRON:
        return _plan_half_tetra(spec.bc)
    raise ValueError("no flat table plan for %s" % (spec,))


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


def _plan_sector2(spec: SurfaceSpec):
    """The 2-dim isotypic table: base minus all 1-dim sector tables."""
    base_spec = catalog.base_spec(spec.base)
    one_dims = [
        catalog.symmetry_sector(spec.base, ir)
        for ir in catalog.sector_irreps(spec.base)
        if ir != "2"
    ]
    unit_b = _unit_of(base_spec)
    units_s = [_unit_of(s) for s in one_dims]
    common = unit_b
    for u in units_s:
        common = _frac_gcd(common, u)

    factors = [(unit_b / common, base_spec, 1)]
    factors += [(u / common, s, -1) for s, u in zip(one_dims, units_s)]
    if any(f.denominator != 1 for f, _, _ in factors):
        raise ArithmeticError("sector level grids do not align")

    def build(qcap):
        dense = np.zeros(qcap + 1, dtype=np.int64)
        for f, s, sign in factors:
            f = int(f)
            qs, ms = _table_arrays(s, qcap // f)
            sel = qs * f <= qcap
            np.add.at(dense, qs[sel] * f, sign * ms[sel])
        if dense.min(initial=0) < 0:
            raise ArithmeticError("sector tables exceed the base count")
        if np.any(dense % 2):
            raise ArithmeticError("2-dim isotypic count came out odd")
        return _dense_to_levels(dense)

    return common, build


def _unit_of(spec: SurfaceSpec) -> Fraction:
    if spec.family == Family.SYMMETRY_SECTOR:
        if spec.irrep == "2":
            base_spec = catalog.base_spec(spec.base)
            common = _unit_of(base_spec)
            for ir in catalog.sector_irreps(spec.base):
                if ir != "2":
                    common = _frac_gcd(
                        common,
                        _unit_of(catalog.symmetry_sector(spec.base, ir)))
            return common
        src, scale = _sector_source(spec)
        return _unit_of(src) * scale
    return _plan_flat(spec)[0]


def _table_arrays(spec: SurfaceSpec, qneed: int):
    """(qs, ms) arrays for spec, valid at least up to integer key qneed."""
    if spec.family == Family.SYMMETRY_SECTOR and spec.irrep != "2":
        src, _ = _sector_source(spec)
        return _table_arrays(src, qneed)
    if spec.family == Family.SYMMETRY_SECTOR:
        unit, builder = _plan_sector2(spec)
        tb = _get_table(spec, unit, builder, qneed)
        return tb["qs"], tb["ms"]
    unit, builder = _plan_flat(spec)
    tb = _get_table(spec, unit, builder, qneed)
    return tb["qs"], tb["ms"]


def _flat_table(spec: SurfaceSpec, qneed: int):
    """(unit, qs, ms, prefix) with prefix sums, cached."""
    unit = _unit_of(spec)
    if spec.family == Family.SYMMETRY_SECTOR and spec.irrep != "2":
        src, scale = _sector_source(spec)
        u2, qs, ms, prefix = _flat_table(src, qneed)
        return u2 * scale, qs, ms, prefix
    if spec.family == Family.SYMMETRY_SECTOR:
        tb = _get_table(spec, unit, _plan_sector2(spec)[1], qneed)
    else:
        tb = _get_table(spec, unit, _plan_flat(spec)[1], qneed)
    return unit, tb["qs"], tb["ms"], tb["prefix"]


def _internal_count(key: str, t, a=None, b=None) -> int:
    """Counts for helper lattices that are not cataloged surfaces."""
    if key == "mobius_even":
        unit, builder = _plan_mobius(a, b, 0, "torus")
        cache_key = ("mobius_even", a, b)
    elif key == "hexlat43":
        unit = Fraction(4, 3)

        def builder(qcap):
            return _dense_to_levels(_hex_norm_counts(qcap))

        cache_key = ("hexlat43",)
    else:
        raise ValueError(key)
    qm = _flat_qmax(unit, t)
    if qm < 0:
        return 0
    tb = _get_table(cache_key, unit, builder, qm)
    idx = np.searchsorted(tb["qs"], qm, side="right")
    return int(tb["prefix"][idx - 1]) if idx else 0


# ---------------------------------------------------------------------------
# spherical tables


def _sph_cum(spec: SurfaceSpec, k: int) -> int:
    """Exact count of eigenvalues <= t for any t in window k.

    Window k is [k^2 - k, k^2 + k); the count there is the number of
    harmonics of degree N <= k - 1 and is constant in t.
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
        v = Fraction(k * k, 2 * m) + Fraction(p * (m - p), 2 * m)
        v += Fraction(k, 2) if spec.bc == "N" else -Fraction(k, 2)
    elif f == Family.GLUED_LUNE:
        v = Fraction(k * k, m) + Fraction(p * (m - p), m)
    elif f == Family.HALF_LUNE:
        v = _half_lune_cum(m, spec.bc_side, spec.bc_equator, k)
    else:
        raise ValueError("no spherical count for %s" % (spec,))
    if v.denominator != 1 or v < 0:
        raise ArithmeticError(
            "window count for %s at k=%d came out %s" % (spec, k, v))
    return int(v)


def _half_lune_cum(m: int, side: str, eq: str, k: int) -> Fraction:
    p = k % m
    base = Fraction(k * k, 4 * m) + Fraction(p * (m - p), 4 * m)
    if m % 2 == 0:
        if p % 2 == 0:
            slope = Fraction(k, 4) if side == "N" else -Fraction(k, 4)
            return base + slope
        if side == "N":
            if eq == "N":
                return (base + (QUARTER + Fraction(1, 2 * m)) * k
                        + Fraction(m - p, 2 * m))
            return (base + (QUARTER - Fraction(1, 2 * m)) * k
                    - Fraction(m - p, 2 * m))
        if eq == "N":
            return (base - (QUARTER - Fraction(1, 2 * m)) * k
                    - Fraction(p, 2 * m))
        return (base - (QUARTER + Fraction(1, 2 * m)) * k
                + Fraction(p, 2 * m))
    n = k // m
    if n % 2 == 1:
        h = Fraction(0)
    else:
        h = QUARTER if p % 2 == 1 else -QUARTER
    nplus = (base + (QUARTER + Fraction(1, 4 * m)) * k
             + Fraction(m - p, 4 * m) + h)
    nminus = (base + (QUARTER - Fraction(1, 4 * m)) * k
              - Fraction(m - p, 4 * m) - h)
    if side == "N":
        return nplus if eq == "N" else nminus
    if eq == "N":
        return nplus - Fraction(-(-k // 2))  # ceil(k/2)
    return nminus - Fraction(k // 2)


def _sph_table(spec: SurfaceSpec, nmax: int) -> dict:
    tb = _TABLES.get(spec)
    if tb is None or tb["ncap"] < nmax:
        ncap = max(nmax, 64, 2 * (tb["ncap"] if tb else 0))
        cums = [_sph_cum(spec, kk) for kk in range(ncap + 2)]
        ms = np.diff(np.asarray(cums, dtype=np.int64))
        if ms.min(initial=0) < 0:
            raise ArithmeticError("negative multiplicity in level table")
        tb = {"ms": ms, "prefix": np.cumsum(ms, dtype=np.int64),
              "ncap": ncap}
        _TABLES[spec] = tb
    return tb


# ---------------------------------------------------------------------------
# closed-form identities (the formula route)


def _closed_flat(spec: SurfaceSpec, t) -> Fraction:
    f = spec.family
    ft = _FlatTime(t)
    a, b = spec.a, spec.b

    def tor(aa, bb):
        return count(catalog.flat_torus_rect(aa, bb), t)

    if f in (Family.FLAT_TORUS_RECT, Family.FLAT_TORUS_HEX):
        # reference families: the lattice count is the closed form
        return Fraction(count(spec, t))

    if f == Family.RECTANGLE:
        bc = spec.bc
        if bc in ("N", "D", "ND"):
            C = tor(a, b)
            fa = ft.fl(a * a)
            fb = ft.fl(b * b)
            if bc == "N":
                return Fraction(C, 4) + Fraction(fa + fb, 2) + Fraction(3, 4)
            if bc == "D":
                return Fraction(C, 4) - Fraction(fa + fb, 2) - QUARTER
            return Fraction(C, 4) + Fraction(fa - fb, 2) - QUARTER
        if bc in ("NM", "DM"):
            Cd = tor(a, 2 * b) - tor(a, b)
            g = ft.fl(b * b, HALF)
            return Fraction(Cd, 4) + (HALF * g if bc == "NM" else -HALF * g)
        # MM by four-torus inclusion-exclusion
        return Fraction(
            tor(2 * a, 2 * b) - tor(a, 2 * b) - tor(2 * a, b) + tor(a, b), 4)

    if f == Family.RIGHT_ISO_TRIANGLE:
        bc = spec.bc
        a2 = Fraction(a) * Fraction(a)
        if bc in ("N", "D", "ND", "DN"):
            C = tor(a, a)
            f1 = Fraction(ft.fl(a2)) + HALF
            f2 = Fraction(ft.fl(a2 / 2)) + HALF
            s1 = 1 if bc in ("N", "ND") else -1
            s2 = 1 if bc in ("N", "DN") else -1
            const = Fraction(3, 8) if bc in ("N", "D") else Fraction(-1, 8)
            return Fraction(C, 8) + s1 * HALF * f1 + s2 * HALF * f2 + const
        mm = _closed_flat(catalog.rectangle(a, a, "MM"), t)
        g = Fraction(ft.fl(a2 / 2, HALF))
        return HALF * mm + (HALF * g if bc == "MN" else -HALF * g)

    if f == Family.EQUILATERAL_TRIANGLE:
        C = count(catalog.flat_torus_hex(), t)
        fe = Fraction(ft.fl(Fraction(9, 16))) + HALF
        if spec.bc == "N":
            return Fraction(C, 6) + fe + Fraction(1, 3)
        return Fraction(C, 6) - fe + Fraction(1, 3)

    if f == Family.TRIANGLE_306090:
        C = count(catalog.flat_torus_hex(), t)
        f3 = Fraction(ft.fl(Fraction(3, 16))) + HALF
        f9 = Fraction(ft.fl(Fraction(9, 16))) + HALF
        bc = spec.bc
        if bc == "N":
            return Fraction(C, 12) + HALF * (f3 + f9) + Fraction(5, 12)
        if bc == "D":
            return Fraction(C, 12) - HALF * (f3 + f9) + Fraction(5, 12)
        if bc == "ND":
            return Fraction(C, 12) + HALF * (f9 - f3) - Fraction(1, 12)
        return Fraction(C, 12) + HALF * (f3 - f9) - Fraction(1, 12)

    if f == Family.CYLINDER:
        C3 = tor(a / 2, b)  # the a x 2b torus
        if spec.bc == "M":
            C4 = tor(a / 2, 2 * b)
            return Fraction(C4 - C3, 2)
        fl = Fraction(ft.fl(Fraction(a) * Fraction(a) / 4))
        if spec.bc == "N":
            return Fraction(C3, 2) + fl + HALF
        return Fraction(C3, 2) - fl - HALF

    if f == Family.MOBIUS_BAND:
        Ce = _internal_count("mobius_even", t, a, b)
        fl4 = Fraction(a) * Fraction(a) / 4
        if spec.bc == "N":
            return Fraction(Ce, 2) + ft.fl(fl4) + HALF
        Co = tor(a, b) - Ce
        return Fraction(Co, 2) - ft.fl(fl4, HALF)

    if f == Family.FLAT_PROJECTIVE_PLANE:
        C = tor(Fraction(1), Fraction(1))
        eps = 1 if ft.fl(Fraction(1)) % 2 == 0 else -1
        return Fraction(C, 4) + QUARTER + Fraction(eps, 2)

    if f == Family.TETRAHEDRON_SURFACE:
        return Fraction(_internal_count("hexlat43", t), 2) + HALF

    if f == Family.HALF_TETRAHEDRON:
        Ch = _internal_count("hexlat43", t)
        fn = Fraction(ft.fl(Fraction(3, 4)))
        fo = Fraction(ft.fl(QUARTER))
        if spec.bc == "N":
            return Fraction(Ch, 4) + HALF * (fn + fo) + Fraction(3, 4)
        return Fraction(Ch, 4) - HALF * (fn + fo) - QUARTER

    if f == Family.SYMMETRY_SECTOR:
        return _closed_sector(spec, t)

    raise ValueError("no closed form for %s" % (spec,))


def _closed_sector(spec: SurfaceSpec, t) -> Fraction:
    base, ir = spec.base, spec.irrep
    if ir != "2":
        src, scale = _sector_source(spec)
        return _closed_flat(src, _scale_time(t, 1 / scale))
    if base == "square_torus":
        C = count(catalog.base_spec(base), t)
        return Fraction(C, 2) - HALF
    if base == "hex_torus":
        tot = Fraction(count(catalog.flat_torus_hex(), t))
    elif base in ("square_n", "square_d"):
        tot = _closed_flat(
            catalog.rectangle(1, 1, "N" if base == "square_n" else "D"), t)
    else:
        tot = _closed_flat(
            catalog.equilateral_triangle(
                "N" if base == "equilateral_n" else "D"), t)
    for j in catalog.sector_irreps(base):
        if j != "2":
            tot -= _closed_sector(catalog.symmetry_sector(base, j), t)
    return tot


# ---------------------------------------------------------------------------
# public interface


def levels(spec: SurfaceSpec, T) -> list[EigenLevel]:
    """All eigenvalues <= T as (value, exact key, multiplicity), sorted."""
    _checked(spec)
    if catalog.is_spherical(spec):
        nmax = _sph_window(T) - 1
        if nmax < 0:
            return []
        tb = _sph_table(spec, nmax)
        out = []
        for N in range(nmax + 1):
            mN = int(tb["ms"][N])
            if mN:
                out.append(EigenLevel(float(N * (N + 1)), N, mN))
        return out
    unit = _unit_of(spec)
    qm = _flat_qmax(unit, T)
    if qm < 0:
        return []
    _, qs, ms, _ = _flat_table(spec, qm)
    idx = np.searchsorted(qs, qm, side="right")
    pi2 = math.pi * math.pi
    return [
        EigenLevel(float(unit * int(q)) * pi2, unit * int(q), int(m))
        for q, m in zip(qs[:idx], ms[:idx])
    ]


def level_arrays(spec: SurfaceSpec, T):
    """(values, multiplicities) as numpy arrays, for bulk numerics."""
    _checked(spec)
    if catalog.is_spherical(spec):
        nmax = _sph_window(T) - 1
        if nmax < 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        tb = _sph_table(spec, nmax)
        Ns = np.arange(nmax + 1, dtype=np.int64)
        ms = tb["ms"][: nmax + 1]
        keep = ms > 0
        Ns, ms = Ns[keep], ms[keep]
        return Ns.astype(np.float64) * (Ns + 1), ms.astype(np.int64)
    unit = _unit_of(spec)
    qm = _flat_qmax(unit, T)
    if qm < 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    _, qs, ms, _ = _flat_table(spec, qm)
    idx = np.searchsorted(qs, qm, side="right")
    vals = (qs[:idx].astype(np.float64) * unit.numerator / unit.denominator
            * (math.pi * math.pi))
    return vals, ms[:idx].copy()


def count(spec: SurfaceSpec, t) -> int:
    """Number of eigenvalues <= t, from the enumerated level table."""
    _checked(spec)
    if catalog.is_spherical(spec):
        nmax = _sph_window(t) - 1
        if nmax < 0:
            return 0
        tb = _sph_table(spec, nmax)
        return int(tb["prefix"][nmax])
    unit = _unit_of(spec)
    qm = _flat_qmax(unit, t)
    if qm < 0:
        return 0
    _, qs, _, prefix = _flat_table(spec, qm)
    idx = np.searchsorted(qs, qm, side="right")
    return int(prefix[idx - 1]) if idx else 0


def closed_form_identity(spec: SurfaceSpec, t) -> CountReport:
    """Table count and closed-form count at t, side by side.

    Both numbers are exact; the closed form is evaluated in rational
    arithmetic and must land on an integer, else ArithmeticError.
    """
    _checked(spec)
    c = count(spec, t)
    if catalog.is_spherical(spec):
        cf = _sph_cum(spec, _sph_window(t))
    else:
        v = _closed_flat(spec, t)
        if v.denominator != 1:
            raise ArithmeticError(
                "closed form for %s at %r is non-integral: %s"
                % (spec, t, v))
        cf = int(v)
    return CountReport(_t_float(t), c, cf)


def symmetry_counts(base: str, t) -> dict:
    """Eigenvalue counts of every symmetry sector of a base surface at t."""
    return {
        ir: count(catalog.symmetry_sector(base, ir), t)
        for ir in catalog.sector_irreps(base)
    }
