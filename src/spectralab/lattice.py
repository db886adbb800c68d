"""Flat surfaces, both routes: level tables of keys q of eigenvalues
unit * q * pi^2 with the prefix sums of their multiplicities, and the closed
forms of N(t) that the oracle checks them against.

`spectrum` imports this module with the first flat table: `_LevelTable`
is the flat kind of `spectrum._Table`, which grows and reads it.  Every
table is reduced from its own weighted lattice rows (`_plan_flat`): one
that counts on another surface's lattice (the flat projective plane, the
tetrahedra, the symmetry sectors) adds rows to that lattice's rows rather
than reading its table.  A plan yields its rows lazily, along the side
with fewer indices, and the same rows both bound a table (`bound`, their
weights summed unexpanded, what the cap is held to and a count past it)
and build it.
`_reduce` picks one of two engines by the number of entries it must
expand: a small table is summed in a dict into stdlib `array('q')`, a
large one packed with its weights, sorted and summed run by run on numpy
into arrays of the narrowest integers that hold them, int32 keys and
counts wherever they fit.  `_Table` reads both types
through what they share, so only the numpy engine and spectrum's array
readers import numpy.

The closed forms (`_closed_terms`, also read by `asymptotics`) are a
constant, torus counts at rational rescalings of the cutoff and brackets
floor(sqrt(c2 rho) + shift), rho = t / pi^2, compiled once per surface
into an integer linear form cached on its table (`_Form`), so that a
query is integer isqrt and floor division only (`closed_count`).
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, isqrt

from . import catalog, spectrum
from .catalog import Family, SurfaceSpec
from .spectrum import _NEGATIVE, _Table, _pq, _rho_ends

# Entries up to which _reduce sums in a dict, where importing numpy would
# cost more than the table: every table of `verify` at t = 1e4 (at most
# 3248 entries, on the MM rectangle and the mixed right triangles) and of
# `count` and `spectrum` in the shapes benchmark (5618 over seeds 1-20).
# On rectangle:a=1,b=1,bc=N in a fresh interpreter, a dict sums its 32039
# entries at t = 4e5 in 8 ms, the numpy engine in 3 ms after a 55-76 ms
# import; at t = 1e7, 796782 entries, numpy takes 0.036 s and a dict
# 0.41 s (2-vCPU VM, medians of 5 to 7 runs).
_PY_ENTRIES = 1 << 15

# Most rows a table's `bound` sums before it refuses the table.  Rows run
# along the side with fewer indices, so a plan of r rows holds at least
# 0.042 r^2 eigenvalues on every flat roster surface and thin shape tried
# (0.24 r^2 and more on the folded hexagonal plans), and refusing past 2^16
# rows needs only r^2 * _LEVEL_CAP / 2^32, 0.0058 r^2.  It also bounds the
# time of a count past the cap, which sums the rows: 0.31-0.52 s cold at
# worst, on `half_tetrahedron:bc=D` at t = 4.23e10 (2-vCPU VM).
_BOUND_ROWS = 1 << 16


class _LevelTable(_Table):
    """The levels of one flat surface: key q is the eigenvalue
    unit * q * pi^2, written as its Fraction rho, and a build reduces
    rows(qcap) over div (`_plan_flat`)."""

    __slots__ = ("unit", "rows", "div", "terms", "signed", "form")

    def __init__(self, spec):
        super().__init__(spec)
        self.form = None
        self.unit, self.rows, self.div = _plan_flat(spec)
        self.signed = _signed(spec)
        n, d = self.unit.numerator, self.unit.denominator
        if max(n, d) >= 2**1024 - 2**970:  # past float(): the unit as one float
            n, d = (n / d if n < d << 1023 else 2.0**1023), 1
        self.terms = n, d

    def build(self, qcap: int):
        # a 2-dim sector's levels come in pairs: an odd count is refused
        return _reduce(qcap, self.rows(qcap), self.div, 2 if self.spec.irrep == "2" else 1)

    def bound(self, q: int, stop=None):
        """The number of eigenvalues with key <= q, exactly what build(q)
        would hold: the weights of rows(q) summed over their entries, over
        div.  None past _BOUND_ROWS rows, which hold more than the cap, and,
        given stop, where a plan with no negative weight has passed stop
        and has rows left: its count can only grow."""
        n = 0
        for i, (_, _, _, ks, w) in enumerate(self.rows(q)):
            if i == _BOUND_ROWS or (stop is not None and not self.signed
                                    and n // self.div > stop):
                return None
            # len() of a row past sys.maxsize entries would overflow
            n += w * max(0, -((ks.start - ks.stop) // ks.step))
        return n // self.div

    def fits(self, q: int) -> bool:
        """Whether build(q) can pack the keys <= q into int64 beside the
        weights of its nonempty rows, as `_weight_shift` asks."""
        try:
            _weight_shift(q, [w for _, _, _, ks, w in self.rows(q) if ks])
        except ArithmeticError:
            return False
        return True

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

    def closed_count(self, t) -> tuple:
        """(q, N(t)) by the compiled closed form (`_form`): the table's
        largest key q and every term's integer read off the same ends of
        rho = t / pi^2 (`_Form.ints`), each torus counted at its key as the
        table count is (`_Table.count_upto`), a refusal naming this surface
        and t.  The sum must land on a multiple of the form's denominator,
        else ArithmeticError."""
        form = _form(self.spec, self)
        q, ks = self.decided(t, form.ints)
        v = form.total(ks, t, self.spec)
        if v % form.den:
            raise ArithmeticError(
                "closed form for %s at %r is non-integral: %s"
                % (self.spec, t, Fraction(v, form.den)))
        return q, v // form.den


def _reduce(qcap: int, rows, div: int, pair: int = 1):
    """Sorted keys in [0, qcap] of weighted rows, and the prefix sums of
    their multiplicities.

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
    refusing keys up to qcap that would not fit int64 beside them; a
    table asks first (`_LevelTable.fits`), so that `_Table.grow` refuses
    such keys as it refuses a table over the cap."""
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
    return array("q", keys), array("q", accumulate((v // div for v in sums), initial=0))


def _reduce_np(qcap: int, rows, div: int, pair: int = 1):
    """`_reduce` on numpy arrays of the narrowest integers that hold them:
    keys in int32 when qcap < 2^31, else int64, and prefix sums in int32
    when the table's count is below 2^31, as under _LEVEL_CAP, else int64.

    Each of the n row entries, expanded a row at a time, is packed with its
    weight in the low bits, in int32 when (qcap << shift) | mask < 2^31,
    else int64.  The packed entries are sorted in place, so that memory
    follows their number and not the span, and their runs of equal keys are
    summed a block of _RUN_BLOCK entries at a time (`_runs`) in two passes:
    the first checks the sums and counts the keys and the eigenvalues,
    which sizes the prefix sums and picks their type; the second writes the
    prefix sums, and the keys into the front of the packed array, which is
    then shrunk in place to hold them.  A build holds little beyond the
    packed array and the table.
    """
    import numpy as np

    n = sum(len(r[3]) for r in rows)
    wlo, shift = _weight_shift(qcap, [r[4] for r in rows if len(r[3])])
    packed = np.empty(n, dtype=np.int32 if (qcap + 1) << shift <= 1 << 31 else np.int64)
    i = 0
    for c0, c1, c2, ks, w in rows:
        if len(ks):
            k = np.arange(ks.start, ks.stop, ks.step, dtype=np.int64)
            packed[i:i + len(k)] = ((c0 + k * (c1 + c2 * k)) << shift) | (w - wlo)
            i += len(k)
    packed.sort()
    m, total = _check_sums(_runs(packed, shift, wlo), pair * div)
    prefix = np.zeros(m + 1, dtype=np.int32 if total // div < 1 << 31 else np.int64)
    i = 0
    for ks, ss in _runs(packed, shift, wlo):
        # the block's keys are already copied out of packed, and every kept
        # run ends inside it: the writes stay behind the reads
        packed[i:i + len(ks)] = ks
        prefix[i + 1:i + 1 + len(ks)] = np.cumsum(ss // div) + prefix[i]
        i += len(ks)
    # no view of packed outlives the loop (its blocks are consumed, the keys
    # given out are copies), so the refcheck, which a profiler's own
    # reference to the array trips, is not needed
    packed.resize(m, refcheck=False)
    return packed.astype(np.int32 if qcap < 1 << 31 else np.int64, copy=False), prefix


_RUN_BLOCK = 1 << 14  # packed entries per block of _runs: 128 kB an int64 temporary


def _runs(packed, shift: int, wlo: int):
    """(keys, sums) of the runs of equal keys in the sorted packed array,
    in key order, one block of _RUN_BLOCK entries at a time, the runs whose
    sum is zero dropped.  Keys keep the packed array's type and sums are
    int64, which a run of int32 entries may need.  A block's last run may
    go on in the next block, so it is carried there rather than given
    out."""
    import numpy as np

    mask = (1 << shift) - 1
    ckey = csum = None
    for lo in range(0, len(packed), _RUN_BLOCK):
        block = packed[lo:lo + _RUN_BLOCK]
        keys = block >> shift
        starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.concatenate(([0], starts))
        sums = np.add.reduceat(block & mask, starts, dtype=np.int64)
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


def _check_sums(blocks, whole: int) -> tuple:
    """(number of keys, summed weight) of the (keys, sums) blocks, whose
    sums must all be nonnegative multiples of whole: a negative sum
    anywhere is refused first, then the first key whose sum is not a
    multiple."""
    m, total, negative, bad = 0, 0, False, None
    for keys, sums in blocks:
        m += len(sums)
        total += int(sums.sum())
        negative = negative or sums.min(initial=0) < 0
        if bad is None and whole != 1:
            i = (sums % whole).nonzero()[0]
            if len(i):
                bad = sums[i[0]], keys[i[0]]
    if negative:
        raise ArithmeticError(_NEGATIVE)
    if bad is not None:
        raise ArithmeticError(_NOT_WHOLE % (bad[0], bad[1], whole))
    return m, total


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
    """Rows of n1^2 - n1 n2 + n2^2 <= qcap over Z^2 folded by its six
    rotations, the powers of (n1, n2) -> (n1 - n2, n1): the origin once, and
    at weight 6 the sector n1 > n2 >= 0, which meets every other orbit once."""
    yield 0, 0, 0, range(1), 1
    for n1 in range(1, isqrt(4 * qcap // 3) + 1):
        # q <= qcap  <=>  |2 n2 - n1| <= sqrt(4 qcap - 3 n1^2)
        s = isqrt(4 * qcap - 3 * n1 * n1)
        yield n1 * n1, -n1, 1, range(max(0, (n1 - s + 1) // 2), min(n1, (n1 + s) // 2 + 1)), 6


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


def _signed(spec: SurfaceSpec) -> bool:
    """Whether a flat surface's plan (`_plan_flat`) has rows of negative
    weight: the 2-dim sectors' subtracted parts and the corrections of the
    flat projective plane and the half tetrahedron."""
    if spec.family == Family.SYMMETRY_SECTOR:
        return spec.irrep == "2" or _signed(catalog.sector_domain(spec)[0])
    return spec.family in (Family.FLAT_PROJECTIVE_PLANE, Family.HALF_TETRAHEDRON)


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


# --- closed forms ---


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
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
                sub = spectrum._table(term[1])
                self.terms.append((*_pq(term[2] / sub.unit), None, None))
            else:
                sub = None
                (p, q), (s, r) = _pq(term[1]), _pq(term[2])
                self.terms.append((r * r * p * q, q, s, r))
            self.weights.append((c, sub))

    def total(self, ks, t, spec) -> int:
        """den * N at the term integers ks of `ints`: the constant plus each
        term's coefficient times its bracket or its torus's count at its
        key k (`_Table.count_upto`), a refusal naming spec and t."""
        v = self.const
        for (c, sub), k in zip(self.weights, ks):
            v += c * (k if sub is None else sub.count_upto(k, t, spec))
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
