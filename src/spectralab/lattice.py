"""Flat level tables: keys q of eigenvalues unit * q * pi^2 and their
multiplicities, sorted, with prefix sums.

`spectrum` imports this module for the first flat table.  `_reduce` makes
every table on one of two engines, picked by the number of entries it
must expand: a small table is summed in a dict and held in stdlib
`array('q')`, a large one in int64 numpy arrays.  The table answers
through what both types share (bisect, indexing, slicing, `tolist`), so
numpy is imported only by the numpy engine and by `arrays`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt

from . import catalog
from .catalog import Family, SurfaceSpec
from .spectrum import _decided, _pq, _rho_ends, _table

_CHUNK = 65536  # levels per chunk of _LevelTable.columns
# Entries up to which _reduce sums in a dict, where importing numpy would
# cost more than the table: every table of `verify` at t = 1e4 (at most
# 4619 entries) and of `count` and `spectrum` in the shapes benchmark (5618
# over seeds 1-20).  A dict sums 31608 entries in 12 ms, the numpy engine
# in 31 ms after a 150 ms import; on the 796782 entries of
# rectangle:a=1,b=1,bc=N at t = 1e7 numpy takes 0.04 s, a dict 0.55 s.
_PY_ENTRIES = 1 << 15


class _LevelTable:
    """The levels of one flat surface or internal lattice, grown by `grow`.

    keys are the sorted integer level keys of nonzero multiplicity: key q
    is the eigenvalue unit * q * pi^2.  mults are the multiplicities and
    prefix[i] is the sum of the first i of them, all three `array('q')` or
    all three int64 numpy arrays, as `_reduce` made them.  Every level
    with key <= qcap is present; build(qcap) makes (keys, mults, prefix)
    for a larger qcap.  form is the surface's compiled closed form, made
    on first use.
    """

    __slots__ = ("unit", "build", "keys", "mults", "prefix", "qcap", "form")

    def __init__(self, unit, build):
        self.unit = unit
        self.build = build
        self.keys = self.mults = array("q")
        self.prefix = array("q", [0])
        self.qcap = -1
        self.form = None

    def grow(self, qneed: int) -> None:
        """Hold every level with key <= qneed: a table that is too short is
        rebuilt at twice its size or qneed, whichever is larger."""
        if self.qcap < qneed:
            qcap = max(qneed, 256, 2 * self.qcap)
            self.keys, self.mults, self.prefix = self.build(qcap)
            self.qcap = qcap

    def qmax(self, t, ends=None) -> int:
        """Largest key whose eigenvalue is <= t, decided on t's `_rho_ends`."""
        un, ud = _pq(self.unit)
        return _decided(t, ends or _rho_ends(t), lambda P, Q: P * ud // (Q * un))

    def index(self, q: int) -> int:
        """The number of levels with key <= q, growing the table to q."""
        self.grow(q)
        return bisect_right(self.keys, q)

    def count_upto(self, q: int) -> int:
        """The number of eigenvalues with key <= q."""
        i = self.index(q)  # may replace self.prefix
        return int(self.prefix[i])

    def upto(self, q: int):
        """(keys, mults, prefix) of the levels with key <= q, growing the
        table to q: views of a numpy table, copies of a small one."""
        i = self.index(q)
        return self.keys[:i], self.mults[:i], self.prefix[:i + 1]

    def levels(self, q: int) -> list:
        """The levels with key <= q as (rho, multiplicity) pairs."""
        i = self.index(q)
        return [(self.unit * k, m)
                for k, m in zip(self.keys[:i].tolist(), self.mults[:i].tolist())]

    def columns(self, q: int):
        """`spectrum.level_columns` chunks: a key prints as its Fraction rho,
        a value is unit * q rounded once to float64, then times pi^2."""
        i = self.index(q)
        keys, mults = self.keys[:i], self.mults[:i]
        un, ud = _pq(self.unit)
        pi2 = math.pi * math.pi
        for lo in range(0, max(i, 1), _CHUNK):
            qs = keys[lo:lo + _CHUNK].tolist()
            yield {"value": [k * un / ud * pi2 for k in qs],
                   "key": [str(Fraction(k * un, ud)) for k in qs],
                   "multiplicity": mults[lo:lo + _CHUNK].tolist()}

    def arrays(self, q: int):
        """(values, multiplicities) arrays of the levels with key <= q."""
        import numpy as np

        i = self.index(q)
        vals = (np.asarray(self.keys[:i]).astype(np.float64) * self.unit.numerator
                / self.unit.denominator * (math.pi * math.pi))
        return vals, np.array(self.mults[:i], dtype=np.int64)


def _reduce(qcap: int, rows, parts, div: int):
    """Sorted (keys, mults, prefix) of weighted integer keys in [0, qcap].

    A row (c0, c1, c2, ks, w) puts the weight w on the key c0 + c1 k + c2 k^2
    for each k in the range ks.  A part (slice, f, w) puts w times each
    multiplicity of a table slice (`_LevelTable.upto`) on f times its key.
    Each key's summed weight must be a nonnegative multiple of div, and
    its multiplicity is that sum over div; keys whose weights sum to zero
    are dropped.  Anything else is refused with ArithmeticError, as are
    keys whose packing (`_reduce_np`) would not fit int64.

    Up to _PY_ENTRIES row and slice entries are summed on Python integers
    (`_reduce_py`), more on numpy (`_reduce_np`); both give the same table.
    """
    n = sum(len(r[3]) for r in rows) + sum(len(p[0][0]) for p in parts)
    engine = _reduce_py if n <= _PY_ENTRIES else _reduce_np
    return engine(qcap, rows, parts, div)


def _weight_shift(qcap: int, wts) -> tuple:
    """(lowest weight, bits of the weight span) for the packed route,
    refusing keys up to qcap that would not fit int64 beside them."""
    wlo = min(wts, default=0)
    shift = (max(wts, default=0) - wlo).bit_length()
    if qcap >> (62 - shift):
        raise ArithmeticError(
            "level keys up to %d do not fit int64 with %d weight bits"
            % (qcap, shift))
    return wlo, shift


_NEGATIVE = "negative multiplicity in level table"
_NOT_WHOLE = "level weights sum to %d at key %d, not a multiple of %d"


def _reduce_py(qcap: int, rows, parts, div: int):
    """`_reduce` summed in a dict and returned as `array('q')`."""
    rows = [r for r in rows if len(r[3])]
    parts = [(keys.tolist(), ms.tolist(), f, w) for (keys, ms, _), f, w in parts]
    wts = [r[4] for r in rows]
    wts += [w * m for _, ms, _, w in parts if ms for m in (min(ms), max(ms))]
    _weight_shift(qcap, wts)
    acc: dict = {}
    get = acc.get
    for c0, c1, c2, ks, w in rows:
        for k in ks:
            q = c0 + k * (c1 + c2 * k)
            acc[q] = get(q, 0) + w
    for keys, ms, f, w in parts:
        for k, m in zip(keys, ms):
            q = k * f
            acc[q] = get(q, 0) + w * m
    keys = sorted(q for q, v in acc.items() if v)
    sums = [acc[q] for q in keys]
    if min(sums, default=0) < 0:
        raise ArithmeticError(_NEGATIVE)
    for q, v in zip(keys, sums):
        if v % div:
            raise ArithmeticError(_NOT_WHOLE % (v, q, div))
    mults = [v // div for v in sums]
    return (array("q", keys), array("q", mults),
            array("q", accumulate(mults, initial=0)))


def _reduce_np(qcap: int, rows, parts, div: int):
    """`_reduce` on int64 numpy arrays.

    When the key span qcap + 1 is no larger than the number of lattice
    points (the summed absolute weights), the weights are counted into a
    span-sized array, the cheapest route for unit-shaped tables.  Otherwise
    each weight is packed into the low bits of its key, the packed keys are
    sorted in place and runs of equal keys are summed, so that memory
    follows the number of points and not the span.  Rows are expanded one
    at a time on both routes.
    """
    import numpy as np

    arrays = [(np.asarray(keys) * f, np.asarray(ms) * w)
              for (keys, ms, _), f, w in parts]
    n = sum(len(r[3]) for r in rows) + sum(len(k) for k, _ in arrays)
    points = (sum(len(r[3]) * abs(r[4]) for r in rows)
              + sum(int(np.abs(w).sum()) for _, w in arrays))
    wts = [r[4] for r in rows if len(r[3])]
    wts += [int(f(w)) for _, w in arrays if len(w) for f in (np.min, np.max)]
    wlo, shift = _weight_shift(qcap, wts)

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
        sums = counts[keys]
    elif not n:
        keys = sums = np.empty(0, dtype=np.int64)
    else:
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
        keys, sums = packed[starts][keep], sums[keep]
    if sums.min(initial=0) < 0:
        raise ArithmeticError(_NEGATIVE)
    if div != 1:
        bad = np.flatnonzero(sums % div)
        if len(bad):
            i = bad[0]
            raise ArithmeticError(_NOT_WHOLE % (sums[i], keys[i], div))
        sums //= div
    prefix = np.zeros(len(sums) + 1, dtype=np.int64)
    np.cumsum(sums, out=prefix[1:])
    return keys, sums, prefix


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
        return _reduce(qcap, rows, (), 1)

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
        return _reduce(qcap, rows, (), 1)

    return unit, build


def _hex_norm_table(qcap: int):
    """Levels of n1^2 - n1 n2 + n2^2 over (n1, n2) in Z^2, up to qcap."""
    rows = []
    for n1 in range(-isqrt(4 * qcap // 3), isqrt(4 * qcap // 3) + 1):
        # q <= qcap  <=>  |2 n2 - n1| <= sqrt(4 qcap - 3 n1^2)
        s = isqrt(4 * qcap - 3 * n1 * n1)
        rows.append((n1 * n1, -n1, 1, range(-((s - n1) // 2), (n1 + s) // 2 + 1), 1))
    return _reduce(qcap, rows, (), 1)


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
    return _reduce(qcap, rows, (), 1)


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
        return _reduce(qcap, rows, (), 1)

    return unit, build


def _fpp_table(qcap: int):
    """Flat projective plane: r2(q)/4 plus +1 at even and -1 at odd squares,
    with r2 the square-lattice shell sizes (the unit square torus table).
    Summed four times over: r2, +-4 on the squares and 3 more at key 0,
    whose shell is the origin alone."""
    s = isqrt(qcap)
    rows = [(0, 0, 0, range(1), 3),
            (0, 0, 4, range(1, s // 2 + 1), 4),  # (2i)^2
            (1, 4, 4, range((s + 1) // 2), -4)]  # (2i+1)^2
    torus = _table(catalog.flat_torus_rect(1, 1)).upto(qcap)
    return _reduce(qcap, rows, [(torus, 1, 1)], 4)


def _tetra_table(qcap: int):
    """Tetrahedron surface: half of each hexagonal shell, key 0 (the
    constant mode, the origin's shell of one) once."""
    hexes = _table(catalog.flat_torus_hex()).upto(qcap)
    return _reduce(qcap, [(0, 0, 0, range(1), 1)], [(hexes, 1, 1)], 2)


def _plan_half_tetra(bc: str):
    sign = 1 if bc == "N" else -1

    def build(qcap):
        # four times the count: r(q), plus 1 at q = 0, plus sign * 2 on the
        # squares and three times the squares (sign * 1 each at q = 0)
        rows = [(0, 0, 0, range(1), 1 + 2 * sign),
                (0, 0, 1, range(1, isqrt(qcap) + 1), 2 * sign),
                (0, 0, 3, range(1, isqrt(qcap // 3) + 1), 2 * sign)]
        hexes = _table(catalog.flat_torus_hex()).upto(qcap)
        return _reduce(qcap, rows, [(hexes, 1, 1)], 4)

    return Fraction(4, 3), build


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


def _plan_sector2(spec: SurfaceSpec):
    """The 2-dim isotypic table: base minus all 1-dim sector tables."""
    parts = catalog.sector_parts(spec.base)
    units = [_table(s).unit for s, _ in parts]
    common = units[0]
    for u in units[1:]:
        common = _frac_gcd(common, u)
    factors = [(u / common, s, sign) for u, (s, sign) in zip(units, parts)]
    if any(f.denominator != 1 for f, _, _ in factors):
        raise ArithmeticError("sector level grids do not align")
    factors = [(int(f), s, sign) for f, s, sign in factors]

    def build(qcap):
        signed = [(_table(s).upto(qcap // f), f, sign) for f, s, sign in factors]
        # the 2-dim irrep's levels come in pairs: an odd or negative count
        # is refused when the pairs are counted, then each pair is two levels
        pairs = _reduce(qcap, (), signed, 2)
        return _reduce(qcap, (), [(pairs, 1, 2)], 1)

    return common, build


def _plan_flat(spec):
    """(unit, build) of a flat surface's or internal lattice's table."""
    if isinstance(spec, tuple):  # ("mobius_even", a, b): k in Z, j + k even
        return _plan_mobius(spec[1], spec[2], 0, "torus")
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
        domain, s = catalog.sector_domain(spec)
        tb = _table(domain)
        return tb.unit * s, tb.upto
    raise ValueError("no flat table plan for %s" % (spec,))
