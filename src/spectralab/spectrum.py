"""Level tables and exact counting identities for the cataloged surfaces.

Two routes are kept deliberately separate so they can check each other:
the table route enumerates eigenvalues on an integer grid and answers
counting questions by prefix sums, and the closed-form route evaluates
the floor-bracket identities for N(t), jump discontinuities included.
Each kind of surface keeps both of its routes in its own module, loaded
with its first table, so that a command compiles only the kind it counts:
`spherical` the round kind (`_RoundTable`, key N for the eigenvalue
N(N+1), built from the window counts, which are also its closed form),
`lattice` the flat kind (`_LevelTable`, key q for unit * q * pi^2,
reduced from lattice rows, its closed form compiled once into an integer
linear form, `_Form`).  This module is the shared core: the cutoffs,
`_Table`, the cache of one table per surface, the readers, `count`, and
`closed_form_identity`, which asks the table's kind for its closed form
and reports both numbers side by side; `oracle.check_equivalence`
compares them against a third, structurally different enumeration.

Only occupied keys are held, with their prefix sums, whose steps are the
multiplicities, in stdlib `array('q')` or, for a large flat table, numpy
arrays of int32 keys and counts (int64 keys where a key passes 2^31), so
memory follows the number of levels, 8 bytes each on numpy, not the size
of the grid up to the cutoff.  Every table grows in `_Table.grow`, which
refuses one whose `bound`, the count it would hold, is over _LEVEL_CAP, or
whose keys do not fit int64, before building it: the bound is a round
table's window count, or the weights of a flat table's own lattice rows
summed without expanding them.

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
T / PI_HI^2 < rho < T / PI_LO^2 with a 100-digit pi (`_rho_ends`), for a
round one t exactly or enclosed the same way for an ExactTime
(`_t_ends`).  `closed_form_identity`
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
from operator import mul, sub

from . import catalog
from .catalog import SurfaceSpec
from .exact import PI_HI, PI_LO


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


def _t_ends(t) -> tuple:
    """t itself as exact integer pairs (P, Q), t = P / Q: one pair for a
    number, the ends of the enclosure of rho * pi^2 for an ExactTime."""
    if isinstance(t, ExactTime):
        n, d = _pq(t.rho)
        return (n * _LO2[0], d * _LO2[1]), (n * _HI2[0], d * _HI2[1])
    return (_pq(_rational_cutoff(t)),)


def _decided(t, ends, value):
    """value(P, Q), which must come out the same at every end of ends."""
    v = value(*ends[0])
    for P, Q in ends[1:]:
        if value(P, Q) != v:
            raise ArithmeticError(_TOO_CLOSE % (t,))
    return v


# ---------------------------------------------------------------------------
# level tables (the table route)


# Rows per chunk of every streamed table: the levels of `level_columns`
# and the grid points of `average.avg_chunks` and `average.profile_chunks`,
# and the frequencies `cli.cmd_freq` writes.  A chunk's lists and the CSV
# writer's rows take about 300 B a row, 0.3 MB at this size, so a 4001-row
# grid spans four chunks.
_CHUNK = 1024
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
    """The levels of one surface: sorted integer keys and prefix[i], the
    number of eigenvalues on the first i of them, both `array('q')` or both
    numpy arrays, with every key <= qcap present.  A numpy table holds each
    array in int32 where its values fit (counts always under _LEVEL_CAP,
    keys below 2^31), else int64, so its readers cast keys to float64 or
    hand them out through `tolist()`.
    A kind supplies `build(qcap)` (the arrays), `bound(q, stop)` (the
    number of eigenvalues with key <= q, or None where a flat table has
    too many rows to sum or passes stop before its last row), `fits(q)`
    (whether the keys <= q fit int64), `ends(t)` (t's
    cutoff as exact integer pairs, `_decided`), `key_at(P, Q)` (the
    largest key whose eigenvalue is <= the cutoff at one end), `value(k)`
    (that eigenvalue in float64), `key(k)` (the exact key), `printed(k)`
    (the key as written) and `closed_count(t)` (t's largest key q and the
    count at t by the kind's closed form)."""

    __slots__ = ("spec", "keys", "prefix", "qcap")

    def __init__(self, spec):
        self.spec, self.qcap = spec, -1
        self.keys, self.prefix = array("q"), array("q", [0])

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
            self.keys, self.prefix = self.build(qcap)
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
            return (f"may have up to {catalog.short_number(bound)} eigenvalues",
                    f"over the cap of {_LEVEL_CAP:g}")
        if not self.fits(q):
            return (f"has level keys up to {catalog.short_number(q)}",
                    "which do not fit int64 beside their weights")
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
        from . import spherical

        return spherical._RoundTable(spec)
    from . import lattice

    return lattice._LevelTable(spec)


# ---------------------------------------------------------------------------
# public interface


def _upto(spec: SurfaceSpec, T) -> tuple:
    """The table of spec grown to hold the levels <= T, and their number."""
    tb = _table(spec)
    return tb, tb.index(tb.qmax(T), T)


def _steps(prefix, lo: int, hi: int):
    """The multiplicities of levels lo to hi - 1, in prefix's own type."""
    if isinstance(prefix, array):
        return array("q", map(sub, prefix[lo + 1:hi + 1], prefix[lo:hi]))
    return prefix[lo + 1:hi + 1] - prefix[lo:hi]


def levels(spec: SurfaceSpec, T) -> list[tuple]:
    """All levels <= T as sorted (exact key, multiplicity) pairs.

    The key is the exact coordinate of the eigenvalue on the family's level
    grid: a Fraction rho (eigenvalue rho * pi^2) for flat families, an
    integer degree N (eigenvalue N(N+1)) for spherical ones.
    """
    tb, i = _upto(spec, T)
    return list(zip(map(tb.key, tb.keys[:i].tolist()), _steps(tb.prefix, 0, i).tolist()))


def level_columns(spec: SurfaceSpec, T):
    """The levels <= T as chunks of value, key and multiplicity lists.

    Each chunk holds _CHUNK levels, the last one fewer, and there is one
    empty chunk when there are none.
    """
    tb, i = _upto(spec, T)
    keys, prefix, value, printed = tb.keys, tb.prefix, tb.value, tb.printed
    for lo in range(0, max(i, 1), _CHUNK):
        ks = keys[lo:min(lo + _CHUNK, i)].tolist()
        yield {"value": [value(k) for k in ks], "key": [printed(k) for k in ks],
               "multiplicity": _steps(prefix, lo, lo + len(ks)).tolist()}


def level_arrays(spec: SurfaceSpec, T):
    """(values, multiplicities) as numpy arrays, for bulk numerics; the
    multiplicities, the steps of the table's prefix sums, are read-only."""
    import numpy as np

    tb, i = _upto(spec, T)
    mults = _steps(np.asarray(tb.prefix), 0, i)
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
    keys, prefix = np.asarray(tb.keys), np.asarray(tb.prefix)
    l_run = 0.0
    for lo in range(0, max(i, 1), _LEVELS):
        hi = min(lo + _LEVELS, i)
        vals = tb.value(keys[lo:hi].astype(np.float64))
        n_pref = prefix[lo:hi + 1].astype(np.float64)
        l_pref = np.empty(hi - lo + 1)
        l_pref[0] = l_run
        np.multiply(_steps(prefix, lo, hi), vals, out=l_pref[1:])
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
            list(accumulate(map(mul, _steps(tb.prefix, 0, i), vals), initial=0.0)))


def count(spec: SurfaceSpec, t, q=None) -> int:
    """Number of eigenvalues <= t, from the enumerated level table; q is
    t's largest key (`_Table.qmax`) when the caller has decided it."""
    tb = _table(spec)
    return tb.count_upto(tb.qmax(t) if q is None else q, t)


def closed_form_identity(spec: SurfaceSpec, t) -> CountReport:
    """Table count and closed-form count at t, side by side.

    Both numbers are exact, and t is decided once: the table's kind reads
    t's largest key q and its closed form off the same ends of t
    (`closed_count`), and the table count is `count(spec, t, q)`.
    """
    q, closed = _table(spec).closed_count(t)
    return CountReport(_t_float(t), count(spec, t, q), closed)


def symmetry_counts(base: str, t) -> dict:
    """Eigenvalue counts of every symmetry sector of a base surface at t."""
    return {ir: count(catalog.symmetry_sector(base, ir), t) for ir in catalog.sector_irreps(base)}
