"""Averaged counting error A(t) = (1/t) * integral of N(s) - smooth(s).

The step-function integral of N is the sum of mult * (t - level) over
levels below t, the smooth part integrates in closed form, and their
scaled difference is the averaged error (on the sphere the tests hold it
against its closed form, tests/reference_formulas.py).  `_g_est` turns it
into the conjecture's profile g_est: A(x^2 - 1/4) on a round surface,
A(x^2) sqrt(x) on a flat one.

Every averaged error comes from float64 prefix sums that `spectrum`
makes from the level table on each call, so this module holds no copy
of a table: numpy blocks (`spectrum.level_blocks`) or Python lists
(`spectrum.level_lists`), by one engine rule (`_lists`): Python floats
for at most _PY_POINTS times and levels over a table in `array('q')`,
where importing numpy would cost more than the sums.  Both run the same
correctly rounded steps in the same order (t^{3/2} is t * sqrt(t),
t^{1/4} is sqrt(sqrt(t))), so they agree bit for bit.  The numpy engine
streams the table a block of levels at a time, never holding an array
as long as the table; numpy is imported where it is used.  Each engine
is one walk forward over the table (`_engine`) that takes ascending
times a chunk at a time, so the grid commands hold one chunk of their
grid and rows (`avg_chunks`, `profile_chunks`), `avg_error_grid` and
`avg_error_list` join its chunks, and `profile` copies them into one
pair of outputs.  The decade
sups and the decay fit share one reducer (`_window_peaks`).  A window
mean of g_est is read from the level sums with no sampling
(`exact_window_mean`): a closed form on a flat surface, Gauss between
the kinks on a round one.

On a round surface the averaged error tends to `leading_profile`, whose
sawtooth weight (`_alternating_weight`) and Fourier lines (`profile_lines`)
are closed-form; `line_check` measures a sampled profile at each line.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, islice
from operator import le, lt, mul, sub

from . import asymptotics, catalog, spectrum
from .catalog import SurfaceSpec


def grid(lo: float, hi: float, n: int, log: bool) -> list:
    """n floats from lo to hi, as np.linspace(lo, hi, n) gives them, or
    with log as np.geomspace does: 10 ** x over the linear grid of the
    log10 of the ends, and the ends themselves.  The linear grid is
    np.linspace's bit for bit; libm's log10 and pow may round differently
    from numpy's, so a log grid's inner points may differ from
    np.geomspace's in the last bits."""
    return list(chain.from_iterable(_grid_chunks(lo, hi, n, log, False)))


def _grid_chunks(lo: float, hi: float, n: int, log: bool, arrays: bool):
    """`grid`'s floats in chunks of `spectrum._CHUNK`: lists, or with
    arrays float64 arrays, a linear grid's made by numpy in the same
    correctly rounded steps (j * step + a, as np.linspace takes them), a
    log grid's by Python's pow."""
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    step = (b - a) / max(n - 1, 1)
    size = spectrum._CHUNK
    for i in range(0, n, size):
        e = min(i + size, n)
        if arrays and not log:
            import numpy as np

            xs = np.arange(i, e, dtype=np.float64)
            xs *= step
            xs += a
        else:
            xs = [j * step + a for j in range(i, e)]
            if log:
                xs = [10.0 ** x for x in xs]
            if arrays:
                import numpy as np

                xs = np.array(xs)
        if not i:
            xs[0] = lo
        if e == n > 1:
            xs[-1] = hi
        yield xs


def _top(chunks, strict: bool) -> float:
    """The last of the times in chunks, lists or float64 arrays, read in
    one pass that stores nothing: ValueError where one is not > 0 or
    where they do not ascend, strictly with strict; a NaN fails one of
    the two."""
    order = lt if strict else le
    positive = ascending = True
    last = None
    for ts in chunks:
        if isinstance(ts, list):
            positive = positive and min(ts) > 0
            ascending = ascending and all(map(order, ts, islice(ts, 1, None)))
        else:
            import numpy as np

            positive = positive and bool(np.all(ts > 0))
            ascending = ascending and bool(np.all(order(ts[:-1], ts[1:])))
        ascending = ascending and (last is None or order(last, ts[0]))
        last = ts[-1]
    if not positive:
        raise ValueError("averaged error needs t > 0")
    if not ascending:
        raise ValueError("grid must be strictly ascending" if strict else "grid must be ascending")
    return float(last)


def _tilde_integral(rc: asymptotics.RefinedAsymptotics, sqrt):
    """The closed-form integral of the smooth estimate from 0 to t, as a
    function of t: a float with sqrt = math.sqrt, a float64 array with
    sqrt = np.sqrt.  Its square-root term integrates to (2/3)(s^{3/2} - c)
    with s = t + shift, taken as s * sqrt(s) - c: (shift, c) is (1/4, 1/8)
    in the shifted form, so that it vanishes at t = 0, else (0, 0): adding
    and subtracting 0.0 change no float."""
    A, B, C = float(rc.A), float(rc.B), float(rc.C)
    shift, c = (0.25, 0.125) if rc.sqrt_shift else (0.0, 0.0)

    def integral(t):
        s = t + shift
        return 0.5 * A * t * t + (2.0 / 3.0) * B * (s * sqrt(s) - c) + C * t

    return integral


def _smooth(spec: SurfaceSpec, sqrt, top: float):
    """`_tilde_integral` of the surface's constants, refused with
    ValueError where it is not finite at the largest time top: every one
    of its terms grows with t, so one that overflows below top overflows
    at top.  The check runs in Python floats, whose steps numpy's match."""
    rc = asymptotics.surface_constants(spec)
    if not math.isfinite(_tilde_integral(rc, math.sqrt)(top)):
        raise ValueError(f"the smooth integral overflows the float range at t = {top:g}")
    return _tilde_integral(rc, sqrt)


# Most times, and most levels below the last time, that the Python engine
# sums: about 0.5 us a time, 2.3-4.1 ms at 4001 times and 29-30 ms at
# 65536 (sphere and a rational rectangle), against about 165 ms for the
# numpy import, so the crossover lies past 10^5 times.
_PY_POINTS = 1 << 16


def _lists(spec: SurfaceSpec, T: float, n: int):
    """The engine rule: n times up to T run on Python floats where n and
    the number of levels <= T are both at most _PY_POINTS and the table is
    held in `array('q')`.  Then the table's (vals, n_pref, l_pref) lists
    of those levels (`spectrum.level_lists`); None sends the times to
    numpy.  `_smooth`'s refusal at T comes first, before any table read."""
    _smooth(spec, math.sqrt, T)
    return spectrum.level_lists(spec, T, _PY_POINTS) if n <= _PY_POINTS else None


def _engine(spec: SurfaceSpec, T: float, sums):
    """The averaged error as one walk forward over the levels <= T:
    avg(ts) at each next chunk ts of ascending times, none above T, each
    chunk's times at or after the last chunk's.

    With `_lists`' sums, lists of Python floats in `_avg_block`'s
    operations and order: the level index j (searchsorted(side="right"))
    moves on by bisect_right only when t reaches the next level, and
    `_tilde_integral`'s terms are written out, their constant factors
    taken first as it takes them.  With sums None, float64 arrays at
    float64 arrays ts, from one pass over `spectrum.level_blocks`, a
    chunk's times taking their sums from the first block whose edge is
    above them.  `_smooth`'s refusal at T and the table's come here,
    before any rows."""
    if sums is None:
        import numpy as np

        tilde = _smooth(spec, np.sqrt, T)
        blocks = spectrum.level_blocks(spec, T)
        block, edge = next(blocks)

        def avg(ts):
            nonlocal block, edge
            out = np.empty_like(ts)
            i = 0
            while True:
                k = int(np.searchsorted(ts, edge))
                if k > i:
                    _avg_block(ts[i:k], block, tilde, out[i:k])
                if k == ts.size:
                    return out
                i = k
                block, edge = next(blocks)

        return avg
    vals, n_pref, l_pref = sums
    rc = asymptotics.surface_constants(spec)
    hA, tB, C = 0.5 * float(rc.A), (2.0 / 3.0) * float(rc.B), float(rc.C)
    shift, c = (0.25, 0.125) if rc.sqrt_shift else (0.0, 0.0)
    top = len(vals)
    j, n, l = 0, n_pref[0], l_pref[0]
    nxt = vals[0] if top else math.inf

    def avg(ts):
        nonlocal j, n, l, nxt
        sqrt, out = math.sqrt, []
        for t in ts:
            if t >= nxt:
                j = bisect_right(vals, t, j)
                n, l, nxt = n_pref[j], l_pref[j], vals[j] if j < top else math.inf
            s = t + shift
            out.append((t * n - l - (hA * t * t + tB * (s * sqrt(s) - c) + C * t)) / t)
        return out

    return avg


def _avg_block(t, block, tilde, out) -> None:
    """The averaged error at the times t, none of them at or above the
    block's edge, into out: t N(t) less the level sum, less the smooth
    integral, over t."""
    import numpy as np

    vals, n_pref, l_pref = block
    idx = np.searchsorted(vals, t, side="right")
    np.multiply(t, n_pref[idx], out=out)
    out -= l_pref[idx]
    out -= tilde(t)
    out /= t


def avg_error_grid(spec: SurfaceSpec, ts):
    """Averaged error over an ascending grid, one spectrum fetch, on numpy:
    the numpy `_engine` over the grid's chunks of `spectrum._CHUNK` times,
    joined, so the temporaries stay chunk- and block-sized however long
    the table and the grid are.  The sums are float64, and the absolute
    error grows with t: below 1e-12 up to t = 3000, 4.3e-10 on [1e5, 1e6]
    and 1.4e-8 at t = 1e7 (unit torus, against exact sums).
    avg_error_list gives the same floats.
    """
    import numpy as np

    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return ts.copy()
    avg, size = _engine(spec, _top([ts], False), None), spectrum._CHUNK
    return np.concatenate([avg(ts[i:i + size]) for i in range(0, ts.size, size)])


def avg_error_list(spec: SurfaceSpec, ts) -> list:
    """avg_error_grid as a list of floats, bit for bit, on the engine
    `_lists` picks: Python floats where it can, else avg_error_grid."""
    ts = list(map(float, ts))
    if not ts:
        return []
    sums = _lists(spec, _top([ts], False), len(ts))
    if sums is None:
        return avg_error_grid(spec, ts).tolist()
    return _engine(spec, ts[-1], sums)(ts)


def _lead(spec: SurfaceSpec):
    """`leading_profile` at one Python float x: A g(x) plus the sawtooth,
    + on odd k, of weight w = `_alternating_weight`; w = 0 adds +-0.0."""
    if not catalog.is_spherical(spec):
        return lambda x: 0.0
    A = float(asymptotics.surface_constants(spec).A)
    w = _alternating_weight(spec)
    floor = math.floor

    def lead(x):
        k = floor(x + 0.5)
        r = x - k
        return A * (1.0 / 6.0 - 2.0 * r * r) + (w if k & 1 else -w) * r

    return lead


def residual(spec: SurfaceSpec, ts, avg):
    """|avg - leading_profile| at the times ts, avg the averaged error
    there: a list for lists, else written into the array avg.  On flat
    surfaces the leading term is zero."""
    if isinstance(avg, list):
        lead, sqrt = _lead(spec), math.sqrt
        return [abs(a - lead(sqrt(t + 0.25))) for t, a in zip(ts, avg)]
    import numpy as np

    if catalog.is_spherical(spec):
        avg -= leading_profile(spec, np.sqrt(ts + 0.25))
    return np.abs(avg, out=avg)


def _alternating_weight(spec: SurfaceSpec) -> float:
    """Amplitude w of the alternating sawtooth in the leading profile.

    On window k the exact count `spherical._sph_cum` is W(k) = a k^2 +
    beta(k) k + gamma(k), beta and gamma periodic in k.  A deviation
    c (-1)^{k+1} of beta from its mean integrates to c (-1)^{k+1} k
    (t - k^2 + 1) / t in the running average, a sawtooth tending to
    w (-1)^{k+1} (x - k), w = 2c.  The projective sphere's slope is +-1/2
    by k's parity: w = 1.  On a half lune of even m, k and p = k mod m
    share a parity, and `_half_lune_cum`'s k-coefficient at odd p is 2/4m
    above the one at even p with bc_equator N, below with D: w = +-1/(2m).
    Every other round slope is constant: w = 0.  The tests walk a period
    of window counts to the same floats (tests/reference_formulas.py).
    """
    if spec.family is catalog.Family.PROJECTIVE_SPHERE:
        return 1.0
    if spec.family is catalog.Family.HALF_LUNE and spec.m % 2 == 0:
        return (1 if spec.bc_equator == "N" else -1) / (2 * spec.m)
    return 0.0


def leading_profile(spec: SurfaceSpec, x):
    """Almost-periodic leading profile of the averaged error at x = sqrt(t+1/4).

    A_weyl * g(x) plus the alternating sawtooth of `_alternating_weight`
    on the projective sphere and the half lunes of even m.  Zero for flat
    surfaces, whose averaged error already decays.  A Python float for a
    number, a float64 array shaped as x for an array: `_lead` at each x.
    """
    if isinstance(x, (int, float)):
        return _lead(spec)(float(x))
    import numpy as np

    return np.vectorize(_lead(spec), otypes=[np.float64])(x)


def profile_lines(spec: SurfaceSpec, omega_max: float) -> list:
    """The Fourier lines of `leading_profile` up to omega_max, as
    (m, coefficient, quadrature): the term coefficient * cos(m pi x) for
    quadrature 1, coefficient * sin(m pi x) for quadrature -1j, m an
    integer, in ascending m.

    A g(x) = sum over n of 2 A (-1)^{n+1} / (pi^2 n^2) cos(2 pi n x), from
    r^2 = 1/12 + sum (-1)^n cos(2 pi n r) / (pi^2 n^2) on [-1/2, 1/2].  The
    sawtooth w (-1)^{k+1} (x - k), w = `_alternating_weight`, is -w times
    the triangle wave of period 2 and peak 1/2, whose sine series has
    4 (-1)^j / (pi^2 m^2) at the odd m = 2j + 1.  None on a flat surface.
    """
    if not catalog.is_spherical(spec):
        return []
    A = float(asymptotics.surface_constants(spec).A)
    w = _alternating_weight(spec)
    out = []
    for m in range(1, int(omega_max / math.pi) + 1):
        if m % 2 == 0:
            n = m // 2
            out.append((m, 2.0 * A * (-1) ** (n + 1) / (math.pi ** 2 * n * n), 1))
        elif w:
            out.append((m, -4.0 * w * (-1) ** (m // 2) / (math.pi ** 2 * m * m), -1j))
    return out


def line_check(spec: SurfaceSpec, xs: list, gs: list, omega_max: float):
    """The profile gs sampled at xs against the lines of `profile_lines`.

    xs must be a uniform grid over a whole number of periods 2 with a
    whole number of samples per unit length, P per period.  At every
    multiple m pi up to omega_max the measured coefficient is
    c = (2/L) sum_j w_j g_j e^{-i m pi x_j}, the trapezoid rule over the
    window of length L, which should be the lines' closed-form coefficient
    times its quadrature there, zero where there is no line.  The profile
    is the leading profile plus e = g - lead: e adds at most 2 max|e_j| to
    c, and the sampled leading profile adds its lines at m' = +-m (mod P),
    m' != m, the aliases, which share m's parity, P being even.  Each
    parity's lines are K / m'^2 in size (`profile_lines`), so the aliases
    add at most K (pi^2 / (P^2 sin^2(pi m / P)) - 1 / m^2).  The two sum to
    the tolerance at m.

    Returns the rows (m, coefficient, measured) of the lines, the measured
    one the real part of c over the quadrature, and the deviation
    |c - closed form| and tolerance of the multiple of pi with the least
    room between them.
    """
    import cmath

    lo, hi, n = xs[0], xs[-1], len(xs)
    L = Fraction(hi) - Fraction(lo)
    per_unit = (n - 1) / L
    if L.denominator != 1 or L % 2 or per_unit.denominator != 1:
        raise ValueError("line_check needs a whole number of periods 2 and "
                         "of samples per unit length")
    P = 2 * int(per_unit)  # samples per period 2
    err = max(map(abs, map(sub, gs, map(_lead(spec), xs))))
    # the samples over the trapezoid weights' dx, folded by their phase in
    # a period: e^{-i m pi x_j} = e^{-i m pi lo} e^{-2 pi i m j / P}
    fold = [math.fsum(gs[p::P]) for p in range(P)]
    fold[0] -= 0.5 * gs[0]
    fold[(n - 1) % P] -= 0.5 * gs[-1]
    lines = profile_lines(spec, omega_max)
    want, K = {}, [0.0, 0.0]
    for m, coef, quad in lines:
        want[m] = want.get(m, 0.0) + coef * quad
        K[m % 2] = max(K[m % 2], abs(coef) * m * m)
    got, worst = {}, (-math.inf, 0.0, 0.0)
    for m in sorted(want.keys() | set(range(1, int(omega_max / math.pi) + 1))):
        c = sum(f * cmath.exp(-2j * math.pi * (m * p % P) / P) for p, f in enumerate(fold))
        c *= cmath.exp(-1j * math.pi * float(m * Fraction(lo) % 2)) * (2.0 / (n - 1))
        alias = K[m % 2] * (math.pi ** 2 / (P * math.sin(math.pi * m / P)) ** 2 - 1.0 / m ** 2)
        dev, tol = abs(c - want.get(m, 0.0)), 2.0 * err + alias
        got[m] = c
        if dev - tol > worst[0]:
            worst = (dev - tol, dev, tol)
    rows = [(m, coef, (got[m] / quad).real) for m, coef, quad in lines]
    return rows, worst[1], worst[2]


def profile(spec: SurfaceSpec, lo: float, hi: float, n: int):
    """(xs, g_est) at the n points of np.linspace(lo, hi, n): the chunks of
    `profile_chunks` copied into one pair of outputs as each comes, lists
    of `grid` on Python floats, else np.linspace's float64 arrays, which
    hold no Python float, so no more than one chunk is held beside them."""
    out, at = None, 0
    for xs, gs in profile_chunks(spec, lo, hi, n):
        if out is None:
            if isinstance(xs, list):
                out = [], []
            else:
                import numpy as np

                out = np.empty(n), np.empty(n)
        end = at + len(xs)
        out[0][at:end], out[1][at:end] = xs, gs
        at = end
    return out


def profile_chunks(spec: SurfaceSpec, lo: float, hi: float, n: int):
    """(xs, g_est) over the n points of np.linspace(lo, hi, n), one chunk
    of `spectrum._CHUNK` points at a time, on the engine `_lists` picks
    for the whole grid: lists on Python floats, else float64 arrays.
    Refused before the first chunk, and before any table is read: a window
    not positive and ascending, n < 2, x <= 1/2 on a round surface, an x^2
    that underflows or overflows, and a smooth integral that does
    (`_smooth`); after, xs not strictly ascending (`_top`)."""
    lo, hi = float(lo), float(hi)
    if not 0 < lo < hi:
        raise ValueError("window must be positive and ascending")
    if n < 2:
        raise ValueError("need at least two samples")
    spherical = catalog.is_spherical(spec)
    if spherical and lo <= 0.5:
        raise ValueError("spherical grid values must exceed 1/2")
    if not lo * lo > 0:
        raise ValueError(f"grid value {lo:g} is too small: its square underflows to 0")
    if not math.isfinite(hi * hi):
        raise ValueError(f"grid value {hi:g} is too large: its square overflows the float range")
    shift = 0.25 if spherical else 0.0  # x * x - 0.0 is x * x
    sums = _lists(spec, hi * hi - shift, n)
    arrays = sums is None
    _top(_grid_chunks(lo, hi, n, False, arrays), True)
    avg = _engine(spec, hi * hi - shift, sums)
    for xs in _grid_chunks(lo, hi, n, False, arrays):
        ts = xs * xs - shift if arrays else [x * x - shift for x in xs]
        yield xs, _g_est(spherical, xs, avg(ts))


def _g_est(spherical: bool, xs, avg):
    """g_est at xs from the averaged error avg: avg itself on a round surface
    (t = x^2 - 1/4), avg sqrt(x) = A(t) t^{1/4} on a flat one (t = x^2)."""
    if spherical:
        return avg
    if isinstance(avg, list):
        return list(map(mul, avg, map(math.sqrt, xs)))
    import numpy as np

    return avg * np.sqrt(xs)


def avg_chunks(spec: SurfaceSpec, lo: float, hi: float, n: int, log: bool):
    """The averaged error on `grid(lo, hi, n, log)`, one chunk of
    `spectrum._CHUNK` times at a time, on the engine `_lists` picks for the
    whole grid: per chunk (ts, avg, xs, g_est), x = sqrt(t + 1/4) on a
    round surface and sqrt(t) on a flat one, and g_est at x (`_g_est`),
    lists on Python floats, else float64 arrays.  Refused before the first
    chunk: a time not > 0 or not ascending (`_top`, over lists up to
    _PY_POINTS times, else over arrays), then by `_lists`."""
    T = _top(_grid_chunks(lo, hi, n, log, n > _PY_POINTS), False)
    sums = _lists(spec, T, n)
    spherical = catalog.is_spherical(spec)
    shift = 0.25 if spherical else 0.0  # + 0.0 is exact
    avg = _engine(spec, T, sums)
    for ts in _grid_chunks(lo, hi, n, log, sums is None):
        if isinstance(ts, list):
            xs = [math.sqrt(t + shift) for t in ts]
        else:
            import numpy as np

            xs = np.sqrt(ts + shift)
        a = avg(ts)
        yield ts, a, xs, _g_est(spherical, xs, a)


# the 8-node Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights (Golub & Welsch, Math. Comp. 23, 1969)
_GAUSS8 = ((0.18343464249564980494, 0.36268378337836198297),
           (0.52553240991632898582, 0.31370664587788728734),
           (0.79666647741362673959, 0.22238103445337447054),
           (0.96028985649753623168, 0.10122853629037625915))
_U = 2.0 ** -53  # the unit roundoff of float64


def exact_window_mean(spec: SurfaceSpec, lo: float, hi: float) -> tuple:
    """(mean, err): g_est's mean over [lo, hi] from the level sums, and a
    bound err on its distance from the exact mean over the table's levels.

    Round: 8-node Gauss on each piece between half-integers x = N + 1/2,
    which hold every kink sqrt(lambda + 1/4), at nodes `avg_error_list`
    sums.  On a piece g is n - (l + S(t)) / t, a quadratic in x plus terms
    with poles at x = +-1/2 only: for lo >= 10 the rule's error is below
    1e-25 of them.  A node is within 16u of (t n + l + |S|) / t, bounded
    through t <= T = hi^2 - 1/4, n <= N(T) and l <= T N(T).
    Flat: t = x^2 makes it half the integral of (t n - l - S(t)) t^{-5/4}
    over [a, b] = [lo^2, hi^2], which is (4/3)(b^{3/4} n_b - a^{3/4} n_a) +
    4 (l_b b^{-1/4} - l_a a^{-1/4}) - (16/3) q less (2A/7) t^{7/4} + (8B/15)
    t^{5/4} + (4C/3) t^{3/4} from a to b; n_a and l_a sum m and m lambda over
    the levels <= a, q sums m lambda^{3/4} over (a, b].  Each is summed
    correctly rounded over the blocks of `spectrum.level_blocks`, so each
    term is within 8u, and err is 16u of the terms' absolute sum.
    """
    lo, hi = float(lo), float(hi)
    if not 0 < lo < hi or catalog.is_spherical(spec) and lo < 10:
        raise ValueError("a window mean needs 0 < lo < hi, and lo >= 10 on a round surface")
    rc = asymptotics.surface_constants(spec)
    A, B, C = float(rc.A), float(rc.B), float(rc.C)
    if catalog.is_spherical(spec):
        cuts = [lo, *(k + 0.5 for k in range(math.floor(lo + 0.5), math.ceil(hi - 0.5))), hi]
        rule = [(-z, w) for z, w in reversed(_GAUSS8)] + list(_GAUSS8)
        xs = [0.5 * (u + v) + 0.5 * (v - u) * z for u, v in zip(cuts, cuts[1:]) for z, _ in rule]
        ws = [0.5 * (v - u) * w for u, v in zip(cuts, cuts[1:]) for _, w in rule]
        mean = math.fsum(map(mul, ws, avg_error_list(spec, [x * x - 0.25 for x in xs])))
        T = hi * hi - 0.25
        n = spectrum.count(spec, T)
        size = 2 * T * n + abs(A) * T * T + abs(B) * (T + 1.0) ** 1.5 + abs(C) * T
        if T * n > 2.0 ** 53:  # the prefix sums of l round, by n ulps at most
            size += T * n * n
        return mean / (hi - lo), 16 * _U * size / (lo * lo - 0.25)
    import numpy as np

    a, b = lo * lo, hi * hi
    _smooth(spec, math.sqrt, b)
    n_a, sums = 0.0, ([], [], [])  # per block: l_a, l_b and q
    for (vals, n_pref, _), _ in spectrum.level_blocks(spec, b):
        i = int(np.searchsorted(vals, a, side="right"))
        n_a, n_b = float(n_pref[i]) if i else n_a, float(n_pref[-1])
        m = np.diff(n_pref)
        ml, lam = (m * vals).tolist(), vals[i:]
        q = m[i:] * (lam / np.sqrt(np.sqrt(lam)))
        for part, terms in zip(sums, (ml[:i], ml, q.tolist())):
            part.append(math.fsum(terms))
    l_a, l_b, q = map(math.fsum, sums)
    ra, rb = math.sqrt(math.sqrt(a)), math.sqrt(math.sqrt(b))
    terms = [4.0 / 3.0 * (b / rb) * n_b, -4.0 / 3.0 * (a / ra) * n_a,
             4.0 * l_b / rb, -4.0 * l_a / ra, -16.0 / 3.0 * q]
    for sign, t, r in ((-1.0, b, rb), (1.0, a, ra)):
        terms += [sign * (2.0 * A / 7.0) * (t * (t / r)), sign * (8.0 * B / 15.0) * (t * r),
                  sign * (4.0 * C / 3.0) * (t / r)]
    span = 2.0 * (hi - lo)
    return math.fsum(terms) / span, 16 * _U * math.fsum(map(abs, terms)) / span


def _window_residuals(spec: SurfaceSpec, lo: float, hi: float, grid):
    """(ts, `residual` at ts) over the window [lo, hi], in batches on the
    engine `_lists` picks.  N(t) jumps and the averaged error kinks only at
    levels, so the samples ts are the levels strictly inside (lo, hi), the
    midpoints between neighbouring ones and the grid points in [lo, hi],
    sorted and unique in each batch: one batch of lists on Python floats,
    and on numpy one for each block of `spectrum.level_blocks` with samples
    below its edge, a sample at or above the edge waiting for the next
    block, so that the batches joined are the window's samples made
    unique."""
    lo, hi = float(lo), float(hi)
    sums = _lists(spec, hi, len(grid))
    if sums is not None:
        vals = sums[0]
        inside = vals[bisect_right(vals, lo):bisect_left(vals, hi)]
        ts = sorted({*(float(t) for t in grid if lo <= t <= hi), *inside,
                     *(0.5 * (b + a) for a, b in zip(inside, inside[1:]))})
        if ts:
            yield ts, residual(spec, ts, _engine(spec, hi, sums)(ts))
        return
    import numpy as np

    tilde = _smooth(spec, np.sqrt, hi)
    wait = np.asarray(grid, dtype=np.float64)
    wait = wait[(wait >= lo) & (wait <= hi)]
    last = np.empty(0)  # the last level inside the window so far
    for block, edge in spectrum.level_blocks(spec, hi):
        vals = block[0]
        inside = vals[(vals > lo) & (vals < hi)]
        ends = np.concatenate((last, inside))
        mids = 0.5 * (ends[1:] + ends[:-1])
        last = ends[-1:]
        ts = np.sort(np.concatenate((wait, inside, mids)))
        now = int(np.searchsorted(ts, edge))
        wait, ts = ts[now:].copy(), ts[:now]
        if ts.size:  # drop repeats: np.unique would load numpy.ma
            ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
            avg = np.empty_like(ts)
            _avg_block(ts, block, tilde, avg)
            yield ts, residual(spec, ts, avg)  # the sorted array above is not held


def _window_peaks(spec: SurfaceSpec, edges: list, grid, quarter: bool) -> list:
    """The largest `residual` over the window samples of [edges[0],
    edges[-1]] (`_window_residuals`) in each bucket [edges[i], edges[i + 1])
    and last at edges[-1], -inf in an empty one; with quarter, of each
    residual times t^{1/4}, sqrt(sqrt(t)) on both engines.  A batch is
    sorted, so a bucket is the slice between the bisections of its edges."""
    peaks = [-math.inf] * len(edges)
    for ts, r in _window_residuals(spec, edges[0], edges[-1], grid):
        if isinstance(r, list):
            top = max
            if quarter:
                r = [x * math.sqrt(math.sqrt(t)) for x, t in zip(r, ts)]
        else:
            import numpy as np

            top = np.max
            if quarter:
                r = r * np.sqrt(np.sqrt(ts))
        cuts = [bisect_left(ts, e) for e in edges] + [len(ts)]
        peaks = [max(p, float(top(r[a:b]))) if a < b else p
                 for p, a, b in zip(peaks, cuts, cuts[1:])]
        del ts, r  # else held while the next batch is made
    return peaks


def window_sup(spec: SurfaceSpec, lo: float, hi: float, grid) -> float:
    """The largest `residual` times t^{1/4} over the window samples of
    [lo, hi] with the caller's grid, on the engine `_lists` picks."""
    return max(_window_peaks(spec, [float(lo), float(hi)], grid, True))


def _slope(xs: list, ys: list) -> float:
    """The least-squares slope of ys against xs, its sums correctly rounded."""
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    return (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / math.fsum((x - mx) * (x - mx) for x in xs))


def remainder_exponent(spec: SurfaceSpec, t_lo, t_hi) -> float:
    """Fitted decay slope of the residual averaged error.

    Splits [t_lo, t_hi] into full dyadic windows [edges[i], edges[i+1]),
    takes the max of `residual` over each (at the window samples with a
    log grid, on the engine `_lists` picks), and least-squares fits
    log(max) against log(window center).  The leading term is the scaled
    sphere profile A * g(sqrt(t + 1/4)) for positively curved surfaces and
    zero for flat ones, whose averaged error already decays like t^{-1/4}.
    """
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not 0 < t_lo:
        raise ValueError("need t_lo > 0")
    if not math.isfinite(t_hi):
        raise ValueError("need a finite t_hi")
    n_win = 0  # the largest n with t_lo * 2^n <= t_hi: doubling is exact
    while t_lo * 2.0 ** (n_win + 1) <= t_hi:
        n_win += 1
    if n_win < 3:
        raise ValueError(
            f"only {n_win} full dyadic windows in [{t_lo:g}, {t_hi:g}]; need 3")
    edges = [t_lo * 2.0 ** i for i in range(n_win + 1)]
    peaks = _window_peaks(spec, edges, grid(t_lo, edges[-1], 160 * n_win, True), False)
    xs = [0.5 * (math.log(edges[i]) + math.log(edges[i + 1])) for i in range(n_win)]
    return _slope(xs, [math.log(max(peak, 1e-300)) for peak in peaks[:-1]])


# --- the conjecture's checks ---

_FREQ_TOL = 0.05
# the peak sets asserted on flat surfaces; the others only report theirs
_ASSERTED_PEAKS = {
    "flat_torus_rect:a=1,b=1": (2.0, 2.0 * math.sqrt(2.0), 4.0),
}


def conjecture_checks(spec: SurfaceSpec, seed: int):
    """The conjecture's checks on spec: (lines, checks), the report's lines
    and one record (name, value, bound, ok) per check, in report order.
    ok is lo <= value <= hi for a bound (lo, hi), else |value| <= bound,
    and the check's line `check <name>...` ends in `-> ok` or `-> FAIL` by
    it.  `mean [X,2X]` is g_est's mean over [X, 2X] (`exact_window_mean`),
    `decay` the residual's fitted exponent (round) or its first/last decade
    sups' ratio (flat), `probes` the largest scaled residual at 64 seeded
    times, and `freq` `line_check`'s worst deviation on the [100, 200]
    profile, infinite where a line is off the geodesic lengths (round), or
    the largest distance from an asserted length to the nearest top peak
    (flat surfaces of _ASSERTED_PEAKS)."""
    import random

    label = spec.label()
    spherical = catalog.is_spherical(spec)
    decades = [10.0 ** d for d in range(3, 7 if spherical else 8)]
    # build the table once, at its largest cutoff, refused there past the
    # cap (a count would answer by rows); most=0 copies no level out
    spectrum.level_lists(spec, decades[-1], 0)
    lines, checks = [f"label: {label}"], []

    def check(name: str, text: str, value: float, bound) -> None:
        ok = bound[0] <= value <= bound[1] if isinstance(bound, tuple) else abs(value) <= bound
        checks.append((name, value, bound, ok))
        lines.append(f"check {name}{text} -> {'ok' if ok else 'FAIL'}")

    # window means of the normalized profile, from the level sums
    for X in (100, 200, 400):
        mean = exact_window_mean(spec, X, 2 * X)[0]
        check(f"mean [{X},{2 * X}]", f": {mean:+.6g} within {5.0 / X:g}", mean, 5.0 / X)

    # decay of the residual
    sups = [window_sup(spec, lo, hi, grid(lo, hi, 1200, True))
            for lo, hi in zip(decades, decades[1:])]
    if spherical:
        slope = remainder_exponent(spec, 1e3, 1e6)
        check("decay", f": exponent {slope:+.6g} in [-0.65,-0.35]", slope, (-0.65, -0.35))
    else:
        lo, hi = sorted((sups[0], sups[-1]))
        ratio = hi / lo if lo > 0 else math.inf
        check("decay", f": scaled sups per decade {' '.join('%.6g' % s for s in sups)}, "
              f"first/last ratio {ratio:.6g} within 2", ratio, 2.0)

    # seeded residual probes at unsampled times
    rng = random.Random(seed)
    probes = sorted({1e3 * (decades[-1] / 1e3) ** rng.random() for _ in range(64)})
    resid = residual(spec, probes, avg_error_list(spec, probes))
    worst = max(r * math.sqrt(math.sqrt(t)) for t, r in zip(probes, resid))
    allowed = 1.5 * max(sups)
    check("probes", f" (seed {seed}): worst scaled residual {worst:.6g} "
          f"within {allowed:.6g}", worst, allowed)

    # frequency content against geodesic lengths
    if spherical:
        # the [100, 200] profile at each multiple of pi up to 30 against the
        # leading profile's closed-form lines, each at a geodesic length
        step = asymptotics.orbit_step(spec)
        lines.append(f"geodesic lengths: multiples of {float(step) * math.pi:.6g} up to 30")
        rows, dev, tol = line_check(spec, *profile(spec, 100, 200, 8001), 30.0)
        lines += [f"freq line {m * math.pi:.6g}: closed form {coef:+.6g}, measured {got:+.6g}"
                  for m, coef, got in rows]
        on = all(m % step == 0 for m, _, _ in rows)
        check("freq", f": {len(rows)} lines {'at' if on else 'not all at'} geodesic "
              f"lengths; the worst multiple of pi up to 30 deviates {dev:.6g} within "
              f"{tol:.6g}", dev if on else math.inf, tol)
    else:
        import numpy as np

        from . import analysis

        omega = np.linspace(1.0, 10.0, 901)
        # the lengths read the dual tori (on the hexagonal torus its own
        # table), so they come while the table is held; the scan reads only
        # the profile, so the table goes before it
        lengths = asymptotics.geodesic_lengths(spec, float(omega[-1]))
        prof = analysis.make_profile(spec, 200, 800, n=60001)
        spectrum.release(spec)
        prof = analysis.frequency_spectrum(prof, omega)
        # the rectangular window sprays sidelobes around each strong line, so
        # only the largest few maxima carry structure worth reporting
        top = sorted(prof.frequencies[:8, 0].tolist())
        matched = analysis.match_geodesics(top, lengths, _FREQ_TOL)
        lines.append("freq top peaks: " + (" ".join("%.6g" % f for f in top) or "none"))
        lines.append("geodesic lengths: " + " ".join("%.6g" % l for l in lengths))
        lines.append(f"freq matched {len(matched)} of {len(top)} top peaks")
        targets = _ASSERTED_PEAKS.get(label)
        if targets is None:
            lines.append("freq comparison: report only for this surface")
        else:
            miss = max(min((abs(f - t) for f in top), default=math.inf) for t in targets)
            check("freq", ": geodesic lengths " + " ".join("%.6g" % t for t in targets)
                  + f" each seen within {_FREQ_TOL:g}", miss, _FREQ_TOL)
    return lines, checks
