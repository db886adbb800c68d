"""Flat level tables: keys q of eigenvalues unit * q * pi^2 and their
multiplicities, sorted, with prefix sums.

`spectrum` imports this module for the first flat table: `_LevelTable`
is the flat kind of `spectrum._Table`, which grows and reads it.  Every
table is reduced from its own weighted lattice rows (`_plan_flat`): one
that counts on another surface's lattice (the flat projective plane, the
tetrahedra, the symmetry sectors) adds rows to that lattice's rows rather
than reading its table.  A plan yields its rows lazily, along the side
with fewer indices, and the same rows both bound a table (`bound`, their
weights summed unexpanded, what the cap is held to) and build it.
`_reduce` picks one of two engines by the number of entries it must
expand: a small table is summed in a dict into stdlib `array('q')`, a
large one on int64 numpy arrays.  `_Table` reads both types through what
they share, so only the numpy engine and `_Table.arrays` import numpy.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, isqrt

from . import catalog
from .catalog import Family, SurfaceSpec
from .spectrum import _NEGATIVE, _Table, _pq, _rho_ends

# Entries up to which _reduce sums in a dict, where importing numpy would
# cost more than the table: every table of `verify` at t = 1e4 (at most
# 4619 entries) and of `count` and `spectrum` in the shapes benchmark (5618
# over seeds 1-20).  A dict sums 31608 entries in 12 ms, the numpy engine
# in 31 ms after a 150 ms import; on the 796782 entries of
# rectangle:a=1,b=1,bc=N at t = 1e7 numpy takes 0.04 s, a dict 0.55 s.
_PY_ENTRIES = 1 << 15

# Most rows a table's `bound` sums before it refuses the table.  Rows run
# along the side with fewer indices, so a plan of r rows holds at least
# 0.043 r^2 eigenvalues on every flat roster surface and thin shape tried,
# and refusing past 2^16 rows needs only r^2 * _LEVEL_CAP / 2^32, 0.0058 r^2.
_BOUND_ROWS = 1 << 16


class _LevelTable(_Table):
    """The levels of one flat surface: key q is the eigenvalue
    unit * q * pi^2, written as its Fraction rho, and a build reduces
    rows(qcap) over div (`_plan_flat`)."""

    __slots__ = ("unit", "rows", "div", "terms")

    def __init__(self, spec):
        super().__init__(spec)
        self.unit, self.rows, self.div = _plan_flat(spec)
        n, d = self.unit.numerator, self.unit.denominator
        if max(n, d) >= 2**1024 - 2**970:  # past float(): the unit as one float
            n, d = (n / d if n < d << 1023 else 2.0**1023), 1
        self.terms = n, d

    def build(self, qcap: int):
        # a 2-dim sector's levels come in pairs: an odd count is refused
        return _reduce(qcap, self.rows(qcap), self.div, 2 if self.spec.irrep == "2" else 1)

    def bound(self, q: int):
        """The number of eigenvalues with key <= q, exactly what build(q)
        would hold: the weights of rows(q) summed over their entries, over
        div.  None past _BOUND_ROWS rows, which hold more than the cap."""
        n = 0
        for i, (_, _, _, ks, w) in enumerate(self.rows(q)):
            if i == _BOUND_ROWS:
                return None
            # len() of a row past sys.maxsize entries would overflow
            n += w * max(0, -((ks.start - ks.stop) // ks.step))
        return n // self.div

    ends = staticmethod(_rho_ends)

    def key_at(self, P: int, Q: int) -> int:
        """The largest key q with unit * q <= rho = P / Q."""
        return P * self.unit.denominator // (Q * self.unit.numerator)

    def value(self, k):
        """The eigenvalue unit * k * pi^2 of a key k in float64, one number
        or an array: k times the unit's numerator, over its denominator,
        times pi^2, each step rounded (an int k: float(rho) * pi^2); a unit
        whose terms float() refuses is rounded to one float, 2^1023 at most,
        past which only key 0 lies below a float cutoff."""
        n, d = self.terms
        return k * n / d * (math.pi * math.pi)

    def key(self, k):
        return self.unit * k

    def printed(self, k) -> str:
        # str(Fraction(k * unit)), without building the Fraction
        num, den = k * self.unit.numerator, self.unit.denominator
        g = gcd(num, den)
        return str(num // g) if den == g else f"{num // g}/{den // g}"


def _reduce(qcap: int, rows, div: int, pair: int = 1):
    """Sorted (keys, mults, prefix) of weighted integer keys in [0, qcap].

    A row (c0, c1, c2, ks, w) puts the weight w on the key
    c0 + c1 k + c2 k^2 for each k in the range ks.  Each key's summed
    weight must be a nonnegative multiple of pair * div (pair 2 for levels
    that come in pairs), and its multiplicity is that sum over div; keys
    whose weights sum to zero are dropped.  Anything else is refused with
    ArithmeticError, as are keys whose packing (`_reduce_np`) would not
    fit int64.

    Up to _PY_ENTRIES row entries are summed on Python integers
    (`_reduce_py`), more on numpy (`_reduce_np`); both give the same table.
    """
    rows = list(rows)
    n = sum(len(r[3]) for r in rows)
    engine = _reduce_py if n <= _PY_ENTRIES else _reduce_np
    return engine(qcap, rows, div, pair)


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


_NOT_WHOLE = "level weights sum to %d at key %d, not a multiple of %d"


def _reduce_py(qcap: int, rows, div: int, pair: int = 1):
    """`_reduce` summed in a dict and returned as `array('q')`."""
    rows = [r for r in rows if len(r[3])]
    _weight_shift(qcap, [r[4] for r in rows])
    acc: dict = {}
    get = acc.get
    for c0, c1, c2, ks, w in rows:
        for k in ks:
            q = c0 + k * (c1 + c2 * k)
            acc[q] = get(q, 0) + w
    keys = sorted(q for q, v in acc.items() if v)
    sums = [acc[q] for q in keys]
    if min(sums, default=0) < 0:
        raise ArithmeticError(_NEGATIVE)
    whole = pair * div
    for q, v in zip(keys, sums):
        if v % whole:
            raise ArithmeticError(_NOT_WHOLE % (v, q, whole))
    mults = [v // div for v in sums]
    return (array("q", keys), array("q", mults),
            array("q", accumulate(mults, initial=0)))


def _reduce_np(qcap: int, rows, div: int, pair: int = 1):
    """`_reduce` on int64 numpy arrays.

    When the key span qcap + 1 is no larger than the number of lattice
    points (the summed absolute weights), the weights are counted into a
    span-sized array, the cheapest route for unit-shaped tables.  Otherwise
    each weight is packed into the low bits of its key and the packed keys
    are sorted in place, so that memory follows the number of points and
    not the span.  The runs of equal keys are then summed a block of
    _RUN_BLOCK entries at a time (`_runs`) in two passes: the first checks
    the sums and counts the keys kept, which sizes the multiplicities and
    prefix sums exactly; the second writes the keys into the front of the
    packed array, which is then shrunk in place to hold them.  The packed
    array is the only one sized by the number of entries, and a build
    holds little beyond it and the table.  Rows are expanded one at a time
    on both routes.
    """
    import numpy as np

    n = sum(len(r[3]) for r in rows)
    points = sum(len(r[3]) * abs(r[4]) for r in rows)
    wlo, shift = _weight_shift(qcap, [r[4] for r in rows if len(r[3])])

    def chunks():
        for c0, c1, c2, ks, w in rows:
            if len(ks):
                k = np.arange(ks.start, ks.stop, ks.step, dtype=np.int64)
                yield c0 + k * (c1 + c2 * k), w

    whole = pair * div
    if qcap + 1 <= points:
        counts = np.zeros(qcap + 1, dtype=np.int64)
        for keys, w in chunks():
            np.add.at(counts, keys, w)
        keys = np.flatnonzero(counts)
        sums = counts[keys]
        del counts
        _check_sums([(keys, sums)], whole)
    else:
        packed = np.empty(n, dtype=np.int64)
        i = 0
        for keys, w in chunks():
            packed[i:i + len(keys)] = (keys << shift) | (w - wlo)
            i += len(keys)
        packed.sort()
        m = _check_sums(_runs(packed, shift, wlo), whole)
        sums = np.empty(m, dtype=np.int64)
        i = 0
        for ks, ss in _runs(packed, shift, wlo):
            # the block's keys are already copied out of packed, and every
            # kept run ends inside it: the writes stay behind the reads
            packed[i:i + len(ks)] = ks
            sums[i:i + len(ss)] = ss
            i += len(ks)
        # no view of packed outlives the loop (its blocks are consumed, the
        # keys given out are copies), so the refcheck, which a profiler's
        # own reference to the array trips, is not needed
        packed.resize(m, refcheck=False)
        keys = packed
    if div != 1:
        sums //= div
    prefix = np.zeros(len(sums) + 1, dtype=np.int64)
    np.cumsum(sums, out=prefix[1:])
    return keys, sums, prefix


_RUN_BLOCK = 1 << 16  # packed entries per block of _runs


def _runs(packed, shift: int, wlo: int):
    """(keys, sums) of the runs of equal keys in the sorted packed array,
    in key order, one block of _RUN_BLOCK entries at a time, the runs whose
    sum is zero dropped.  A block's last run may go on in the next block,
    so it is carried there rather than given out."""
    import numpy as np

    mask = (1 << shift) - 1
    ckey = csum = None
    for lo in range(0, len(packed), _RUN_BLOCK):
        block = packed[lo:lo + _RUN_BLOCK]
        keys = block >> shift
        starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.concatenate(([0], starts))
        sums = np.add.reduceat(block & mask, starts)
        sums += wlo * np.diff(starts, append=len(block))
        keys = keys[starts]
        if ckey == keys[0]:
            sums[0] += csum
        elif ckey is not None:
            keys = np.concatenate(([ckey], keys))
            sums = np.concatenate(([csum], sums))
        ckey, csum = keys[-1], sums[-1]
        keep = sums[:-1] != 0
        yield keys[:-1][keep], sums[:-1][keep]
    if csum:
        yield np.array([ckey]), np.array([csum])


def _check_sums(blocks, whole: int) -> int:
    """The number of keys in the (keys, sums) blocks, whose sums must all be
    nonnegative multiples of whole: a negative sum anywhere is refused
    first, then the first key whose sum is not a multiple."""
    m, negative, bad = 0, False, None
    for keys, sums in blocks:
        m += len(sums)
        negative = negative or sums.min(initial=0) < 0
        if bad is None and whole != 1:
            i = (sums % whole).nonzero()[0]
            if len(i):
                bad = sums[i[0]], keys[i[0]]
    if negative:
        raise ArithmeticError(_NEGATIVE)
    if bad is not None:
        raise ArithmeticError(_NOT_WHOLE % (bad[0], bad[1], whole))
    return m


def _axis_rows(c0: int, c2: int, lo: int, step: int, full: bool, kmax: int,
               w: int) -> list:
    """Rows c0 + c2 k^2 over k = lo, lo+step, ... <= kmax; a full circle
    counts +-k, so k > 0 carries twice the weight of k = 0."""
    ks = range(lo, kmax + 1, step)
    if full and lo == 0:
        return [(c0, 0, c2, ks[:1], w), (c0, 0, c2, ks[1:], 2 * w)]
    return [(c0, 0, c2, ks, 2 * w if full else w)]


# per axis kind: index scale, first (doubled) index, index step, full circle
_AXES = {
    "torus": (2, 0, 1, True),
    "cos": (2, 0, 1, False),
    "sin": (2, 1, 1, False),
    "mix": (1, 1, 2, False),  # odd doubled indices 1, 3, 5, ...
    "circ": (4, 0, 1, True),  # a circle on its own grid
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
    xscale, xlo, xstep, xtor = _AXES[xset]
    yscale, ylo, ystep, ytor = _AXES[yset]
    # numerators over the common denominator (2 pa pb)^2, doubled indices;
    # mix keeps odd doubled indices, so its own factor stays inside the index
    U = (xscale * qa * pb) ** 2
    V = (yscale * qb * pa) ** 2
    g = gcd(U, V)
    unit = Fraction(g, 4 * pa * pa * pb * pb)
    x, y = (U // g, xlo, xstep, xtor), (V // g, ylo, ystep, ytor)
    # the keys U j^2 + V k^2 are symmetric in the axes: rows run along the
    # one with fewer indices j <= sqrt(qcap / U) in steps of step
    if x[0] * x[2] ** 2 < y[0] * y[2] ** 2:
        x, y = y, x
    (Ug, xlo, xstep, xtor), (Vg, ylo, ystep, ytor) = x, y

    def rows(qcap):
        for j in range(xlo, isqrt(qcap // Ug) + 1, xstep):
            c0 = Ug * j * j
            yield from _axis_rows(c0, Vg, ylo, ystep, ytor,
                                  isqrt((qcap - c0) // Vg), 2 if xtor and j else 1)

    return unit, rows, 1


def _plan_mobius(a: Fraction, b: Fraction, klo: int):
    """Modes e^{i pi j x / a} * trig(pi k y / b) over j in Z and k >= klo
    with k = klo + j mod 2: klo is 0 for the N band and 1 for the D band."""
    pa, qa = _pq(Fraction(a))
    pb, qb = _pq(Fraction(b))
    U = (qa * pb) ** 2
    V = (qb * pa) ** 2
    g = gcd(U, V)
    unit = Fraction(g, pa * pa * pb * pb)
    Ug, Vg = U // g, V // g

    def rows(qcap):
        # along the axis with fewer indices, j <= sqrt(qcap / Ug) or
        # k <= sqrt(qcap / Vg)
        if Ug >= Vg:
            for j in range(isqrt(qcap // Ug) + 1):
                c0 = Ug * j * j
                ks = range(klo + j % 2, isqrt((qcap - c0) // Vg) + 1, 2)
                yield c0, 0, Vg, ks, 2 if j else 1
        else:  # j = k - klo mod 2, over +-j
            for k in range(klo, isqrt(qcap // Vg) + 1):
                c0 = Vg * k * k
                yield from _axis_rows(c0, Ug, (k - klo) % 2, 2, True,
                                      isqrt((qcap - c0) // Ug), 1)

    return unit, rows, 1


def _hex_norm_rows(qcap: int):
    """Rows of n1^2 - n1 n2 + n2^2 <= qcap over (n1, n2) in Z^2."""
    for n1 in range(-isqrt(4 * qcap // 3), isqrt(4 * qcap // 3) + 1):
        # q <= qcap  <=>  |2 n2 - n1| <= sqrt(4 qcap - 3 n1^2)
        s = isqrt(4 * qcap - 3 * n1 * n1)
        yield n1 * n1, -n1, 1, range(-((s - n1) // 2), (n1 + s) // 2 + 1), 1


def _pair_rows(qcap: int, c: int, lo: int, step: int, diag):
    """Rows of m^2 + c mn + n^2 <= qcap over m = lo, lo+step, ... and n from
    lo (diag None) or from m + diag, in steps of step."""
    for m in range(lo, isqrt(qcap) + 1, step):
        # m^2 + c mn + n^2 <= qcap  <=>
        # n <= (sqrt(4 qcap - (4 - c^2) m^2) - c m) / 2
        nmax = (isqrt(4 * qcap - (4 - c * c) * m * m) - c * m) // 2
        n0 = lo if diag is None else m + diag
        yield m * m, c * m, 1, range(n0, nmax + 1, step), 1


def _plan_right_iso(a: Fraction, bc: str):
    """Symmetrized square modes on legs-a right isosceles triangles.

    Doubled indices M = 2j (+1 for mixed legs), eigenvalue
    (M^2 + N^2) * qa^2 / (4 pa^2) * pi^2 over pairs M <= N, strict when the
    hypotenuse condition kills the diagonal.
    """
    pa, qa = _pq(Fraction(a))
    if bc in ("MN", "MD"):
        lo = 1
    elif bc in ("N", "ND"):
        lo = 0
    else:  # D, DN: sine modes, doubled indices 2, 4, ...
        lo = 2
    diag = 2 if bc in ("D", "ND", "MD") else 0
    return (Fraction(qa * qa, 4 * pa * pa),
            lambda qcap: _pair_rows(qcap, 0, lo, 2, diag), 1)


def _fpp_rows(qcap: int):
    """Flat projective plane, four times over: the unit square torus's
    shells r2(q), +-4 on the even and odd squares and 3 more at key 0,
    whose shell is the origin alone."""
    s = isqrt(qcap)
    return chain(_plan_flat(catalog.flat_torus_rect(1, 1))[1](qcap), [
        (0, 0, 0, range(1), 3),
        (0, 0, 4, range(1, s // 2 + 1), 4),  # (2i)^2
        (1, 4, 4, range((s + 1) // 2), -4)])  # (2i+1)^2


def _plan_half_tetra(bc: str):
    sign = 1 if bc == "N" else -1

    def rows(qcap):
        # four times the count: r(q), plus 1 at q = 0, plus sign * 2 on the
        # squares and three times the squares (sign * 1 each at q = 0)
        return chain(_hex_norm_rows(qcap), [
            (0, 0, 0, range(1), 1 + 2 * sign),
            (0, 0, 1, range(1, isqrt(qcap) + 1), 2 * sign),
            (0, 0, 3, range(1, isqrt(qcap // 3) + 1), 2 * sign)])

    return Fraction(4, 3), rows, 4


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


def _plan_sector2(spec: SurfaceSpec):
    """The 2-dim isotypic table: the base's rows minus every 1-dim sector's,
    on their common level grid.  Every part is a lattice table (div 1)."""
    parts = [(*_plan_flat(s)[:2], sign) for s, sign in catalog.sector_parts(spec.base)]
    common = parts[0][0]
    for u, _, _ in parts[1:]:
        common = _frac_gcd(common, u)
    factors = [(u / common, rows, sign) for u, rows, sign in parts]
    if any(f.denominator != 1 for f, _, _ in factors):
        raise ArithmeticError("sector level grids do not align")
    factors = [(int(f), rows, sign) for f, rows, sign in factors]

    def rows(qcap):
        return ((f * c0, f * c1, f * c2, ks, sign * w) for f, part, sign in factors
                for c0, c1, c2, ks, w in part(qcap // f))

    return common, rows, 1


def _plan_flat(spec: SurfaceSpec):
    """(unit, rows, div) of a flat surface's table: its levels are the keys
    of rows(qcap) with their weights summed over div (`_reduce`)."""
    f = spec.family
    a, b = spec.a, spec.b
    if f == Family.FLAT_TORUS_RECT:
        return _plan_product(a, b, "torus", "torus")
    if f == Family.FLAT_TORUS_HEX:
        return Fraction(16, 9), _hex_norm_rows, 1
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
        return _plan_mobius(a, b, 0 if spec.bc == "N" else 1)
    if f == Family.RIGHT_ISO_TRIANGLE:
        return _plan_right_iso(a, spec.bc)
    if f == Family.EQUILATERAL_TRIANGLE:
        lo = 0 if spec.bc == "N" else 1
        return Fraction(16, 9), lambda qcap: _pair_rows(qcap, 1, lo, 1, None), 1
    if f == Family.TRIANGLE_306090:
        lo = 0 if spec.bc in ("N", "ND") else 1
        diag = 1 if spec.bc in ("ND", "D") else 0
        return Fraction(16, 9), lambda qcap: _pair_rows(qcap, 1, lo, 1, diag), 1
    if f == Family.FLAT_PROJECTIVE_PLANE:
        return Fraction(1), _fpp_rows, 4
    if f == Family.TETRAHEDRON_SURFACE:
        # half of each hexagonal shell, key 0 (the constant mode, the
        # origin's shell of one) once
        return (Fraction(4, 3),
                lambda qcap: chain(_hex_norm_rows(qcap), [(0, 0, 0, range(1), 1)]), 2)
    if f == Family.HALF_TETRAHEDRON:
        return _plan_half_tetra(spec.bc)
    if f == Family.SYMMETRY_SECTOR:
        if spec.irrep == "2":
            return _plan_sector2(spec)
        domain, s = catalog.sector_domain(spec)
        unit, rows, div = _plan_flat(domain)
        return unit * s, rows, div
    raise ValueError("no flat table plan for %s" % (spec,))
