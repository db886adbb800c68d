"""Averaged counting error A(t) = (1/t) * integral of N(s) - smooth(s).

The step-function integral of N is the sum of mult * (t - level) over
levels below t, the smooth part integrates in closed form, and their
scaled difference is the averaged error.  For the sphere the averaged
error also has a piecewise-algebraic closed form and an exact three-term
decomposition g(x) + g1(x) x/t + g2(x)/t with x = sqrt(t + 1/4), whose
leading profile g is `sphere_g`; the tests hold both against
avg_error_grid and each other (tests/reference_formulas.py).

Every averaged error comes from float64 prefix sums of the level table,
on one of two engines: avg_error_grid on numpy arrays, and Python floats.
avg_error_list picks the engine: Python floats for a grid of at most
_PY_POINTS times over a table held in `array('q')`, where importing numpy
would cost more than the sums, else avg_error_grid.  Both run the same
operations in the same order, and their powers t^{3/2} are t * sqrt(t),
whose steps are correctly rounded in both (numpy's `power` is not libm's
`pow`), so they agree bit for bit.  The rounding grows with t;
avg_error_grid's docstring gives the measured bound.  The numpy engine
streams its sums from the table's integer keys a block of levels at a
time (`_prefix_blocks`), carrying the running sums from block to block,
and so do the decade sups, the decay fit and the sector fit, which take
their window samples from window_blocks: beside the table, each holds a
few blocks and its grid, never an array as long as the table.  numpy is
imported by the functions that use it, so that the Python engine runs
without it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import mul

from . import asymptotics, catalog, spectrum
from .catalog import SurfaceSpec


def _tilde_integral(rc: asymptotics.RefinedAsymptotics, sqrt):
    """The closed-form integral of the smooth estimate from 0 to t, as a
    function of t: a float with sqrt = math.sqrt, a float64 array with
    sqrt = np.sqrt.

    The square-root term integrates to (2/3) s^{3/2}, taken as s * sqrt(s);
    in the shifted form the antiderivative is (2/3)(s + 1/4)^{3/2} and the
    constant is fixed so the integral vanishes at t = 0.
    """
    A, B, C = float(rc.A), float(rc.B), float(rc.C)
    shift = rc.sqrt_shift

    def integral(t):
        if shift:
            s = t + 0.25
            broot = s * sqrt(s) - 0.125
        else:
            broot = t * sqrt(t)
        return 0.5 * A * t * t + (2.0 / 3.0) * B * broot + C * t

    return integral


_BLOCK = 65536  # times per block of the averaged error's temporaries
_LEVELS = 1 << 15  # levels per block of `_prefix_blocks`
# Most times that avg_error_list sums in Python floats: about 1 us a time,
# 4.1-4.6 ms at 4001 times and 62-65 ms at 65536 (sphere and a rational
# rectangle), against about 165 ms for the numpy import, so the crossover
# lies past 10^5 times.
_PY_POINTS = 1 << 16


def _prefix_blocks(spec: SurfaceSpec, T: float):
    """The float64 prefix sums of the levels <= T, one block of _LEVELS
    levels at a time, straight from the table's integer keys.

    Yields ((vals, n_pref, l_pref), edge) per block: the block's level
    values, and the sums of mult and of mult * value over every level
    before the block's k-th one, k = 0 .. len(vals).  The first are the
    table's prefix, exact in float64; the second start from the previous
    block's total and add sequentially, as np.cumsum over the whole table
    does, bit for bit.  A time t takes its sums from the first block whose
    edge is above it: edge is the block's last value, or infinity on the
    last block, so that np.searchsorted(vals, t, side="right") indexes
    the block's sums.
    """
    import numpy as np

    tb = spectrum._table(spec)
    i = tb.index(tb.qmax(T))
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
    """Averaged error over an ascending grid, one spectrum fetch, on numpy.

    The level prefix sums are streamed a block of levels at a time
    (`_prefix_blocks`), and each block's times are evaluated in blocks of
    at most _BLOCK into one output array, so the temporaries stay
    block-sized however long the table and the grid are.  The sums are
    float64, and the absolute error grows with t: below 1e-12 up to
    t = 3000, 4.3e-10 on [1e5, 1e6] and 1.4e-8 at t = 1e7 (unit torus,
    against exact sums).  avg_error_list gives the same floats.
    """
    import numpy as np

    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return ts.copy()
    if not np.all(ts > 0):
        raise ValueError("averaged error needs t > 0")
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("grid must be ascending")
    tilde = _tilde_integral(asymptotics.surface_constants(spec), np.sqrt)
    out = np.empty_like(ts)
    j = 0
    for block, edge in _prefix_blocks(spec, float(ts[-1])):
        k = int(np.searchsorted(ts, edge))
        for i in range(j, k, _BLOCK):
            e = min(i + _BLOCK, k)
            _avg_block(ts[i:e], block, tilde, out[i:e])
        j = k
    return out


def avg_error_list(spec: SurfaceSpec, ts) -> list:
    """avg_error_grid as a list of floats, bit for bit, without numpy
    where it can: a grid of at most _PY_POINTS times over a table held in
    `array('q')` is summed in Python floats, anything else by
    avg_error_grid.

    The values and counts are the table's, as `_prefix_blocks` takes them;
    the sums of mult * value are sequential, as numpy's cumsum is,
    bisect_right stands for searchsorted(side="right") and each time runs
    avg_error_grid's operations in its order.
    """
    ts = list(map(float, ts))
    if not all(t > 0 for t in ts):
        raise ValueError("averaged error needs t > 0")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("grid must be ascending")
    if not ts:
        return []
    tb = spectrum._table(spec)
    i = tb.index(tb.qmax(ts[-1]))
    if len(ts) > _PY_POINTS or not isinstance(tb.keys, array):
        return avg_error_grid(spec, ts).tolist()
    value, mults = tb.value, tb.mults[:i]
    vals = [value(float(k)) for k in tb.keys[:i]]
    n_pref = list(map(float, tb.prefix[:i + 1]))
    l_pref = list(accumulate(map(mul, mults, vals), initial=0.0))
    tilde = _tilde_integral(asymptotics.surface_constants(spec), math.sqrt)
    out = []
    for t in ts:
        j = bisect_right(vals, t)
        out.append((t * n_pref[j] - l_pref[j] - tilde(t)) / t)
    return out


def residual(spec: SurfaceSpec, ts, avg):
    """|avg - leading_profile| at the times ts, avg the averaged error
    there, written into avg; on flat surfaces the leading term is zero."""
    import numpy as np

    if catalog.is_spherical(spec):
        avg -= leading_profile(spec, np.sqrt(ts + 0.25))
    return np.abs(avg, out=avg)


def _offset(x):
    # signed distance to the nearest integer, in [-1/2, 1/2)
    import numpy as np

    return x - np.floor(x + 0.5)


def sphere_g(x):
    """Leading profile 1/6 - 2 r^2, r the offset of x from its nearest integer."""
    import numpy as np

    r = _offset(np.asarray(x, dtype=np.float64))
    return 1.0 / 6.0 - 2.0 * r * r


_WEIGHTS: dict = {}


def _alternating_weight(spec: SurfaceSpec) -> float:
    """Amplitude of the alternating sawtooth in the leading profile.

    On window k the exact count is W(k) = a k^2 + beta(k) k + gamma(k) with
    beta and gamma periodic in k; a period P = 4m covers every family here.
    When beta deviates from its mean by c (-1)^{k+1} the running average of
    that deviation integrates to c (-1)^{k+1} k (t - k^2 + 1) / t, an
    order-one sawtooth tending to 2c (-1)^{k+1} (x - k) instead of a
    decaying term.  a and beta are read off the window counts
    (`spectrum._sph_cum`) over one period from k = 4P, exactly:
    a = (W(k + 2P) - 2 W(k + P) + W(k)) / 2P^2 and
    beta(k) = (W(k + P) - W(k)) / P - a (2k + P).  On every family here
    the deviation is alternating or zero; any other shape raises
    ArithmeticError.  A constant of the surface, cached per spec.
    """
    w = _WEIGHTS.get(spec)
    if w is not None:
        return w
    P = 4 * spec.m
    k0 = 4 * P
    W = [spectrum._sph_cum(spec, k) for k in range(k0, k0 + 2 * P + 1)]
    a = Fraction(W[2 * P] - 2 * W[P] + W[0], 2 * P * P)
    beta = [Fraction(W[i + P] - W[i], P) - a * (2 * (k0 + i) + P) for i in range(P)]
    mean = sum(beta) / P
    dev = [b - mean for b in beta]
    if any(d != dev[0] * (-1) ** i for i, d in enumerate(dev)):
        raise ArithmeticError(
            "the window counts of %s deviate from their mean slope by more "
            "than an alternating sign" % (spec,))
    # dev = c (-1)^{k+1} is -c at k = k0, even
    w = _WEIGHTS[spec] = float(-2 * dev[0])
    return w


def leading_profile(spec: SurfaceSpec, x):
    """Almost-periodic leading profile of the averaged error at x = sqrt(t+1/4).

    A_weyl * g(x) plus, where the window counts force one, the alternating
    sawtooth described in _alternating_weight.  Zero for flat surfaces,
    whose averaged error already decays.  numpy values: a float64 array
    shaped as x, 0-dim or a numpy float64 for a number.
    """
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    if not catalog.is_spherical(spec):
        return np.zeros_like(x)
    out = float(asymptotics.surface_constants(spec).A) * sphere_g(x)
    w = _alternating_weight(spec)
    if w:
        k = np.floor(x + 0.5)
        sign = np.where(np.mod(k, 2.0) == 1.0, 1.0, -1.0)
        out = out + w * sign * (x - k)
    return out


def g_samples(spec: SurfaceSpec, x_grid):
    """Conjecture-normalized profile g_est over an ascending grid, one per x.

    Flat surfaces: g_est = A(x^2) * sqrt(x).  Spherical surfaces:
    g_est = A(x^2 - 1/4).
    """
    import numpy as np

    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.size == 0:
        return np.empty(0)
    if not np.all(xs > 0):
        raise ValueError("grid values must be positive")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly ascending")
    if catalog.is_spherical(spec):
        if xs[0] <= 0.5:
            raise ValueError("spherical grid values must exceed 1/2")
        return avg_error_grid(spec, xs * xs - 0.25)
    return avg_error_grid(spec, xs * xs) * np.sqrt(xs)


def window_blocks(spec: SurfaceSpec, lo: float, hi: float, grid):
    """The samples of a sup or a fit over the window [lo, hi], a block of
    levels at a time: N(t) jumps and the averaged error kinks only at
    levels, so they are the levels strictly inside (lo, hi), the midpoints
    between neighbouring ones and the grid points in [lo, hi].

    Yields (ts, block) for each block of `_prefix_blocks` with samples
    below its edge, ts sorted and unique.  A sample at or above the edge
    waits for the next block, so a time that comes twice comes in one
    batch, and the batches joined are the window's samples made unique.
    """
    import numpy as np

    lo, hi = float(lo), float(hi)
    wait = np.asarray(grid, dtype=np.float64)
    wait = wait[(wait >= lo) & (wait <= hi)]
    last = np.empty(0)  # the last level inside the window so far
    for block, edge in _prefix_blocks(spec, hi):
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
            yield ts, block  # the sorted array above is not held meanwhile


def _window_residuals(spec: SurfaceSpec, lo: float, hi: float, grid):
    """(ts, `residual` at ts) for each batch of `window_blocks`."""
    import numpy as np

    tilde = _tilde_integral(asymptotics.surface_constants(spec), np.sqrt)
    for ts, block in window_blocks(spec, lo, hi, grid):
        avg = np.empty_like(ts)
        _avg_block(ts, block, tilde, avg)
        yield ts, residual(spec, ts, avg)


def window_sup(spec: SurfaceSpec, lo: float, hi: float, grid) -> float:
    """The largest `residual` times t^{1/4} over the `window_blocks`
    samples of [lo, hi] with the caller's grid."""
    best = -math.inf
    for ts, r in _window_residuals(spec, lo, hi, grid):
        best = max(best, float((r * ts ** 0.25).max()))
        del ts, r  # else held while the next batch is made
    return best


def remainder_exponent(spec: SurfaceSpec, t_lo, t_hi) -> float:
    """Fitted decay slope of the residual averaged error.

    Splits [t_lo, t_hi] into full dyadic windows [edges[i], edges[i+1]),
    takes the max of `residual` over each (at the `window_blocks` samples
    with a log grid, a batch at a time), and least-squares fits log(max)
    against log(window center).  The leading term is the scaled sphere
    profile A * g(sqrt(t + 1/4)) for positively curved surfaces and zero
    for flat ones, whose averaged error already decays like t^{-1/4}.
    """
    import numpy as np

    t_lo = float(t_lo)
    t_hi = float(t_hi)
    if not 0 < t_lo:
        raise ValueError("need t_lo > 0")
    if t_hi < 4.0 * t_lo:
        raise ValueError("need t_hi >= 4 * t_lo")
    n_win = 0  # the largest n with t_lo * 2^n <= t_hi: doubling is exact
    while t_lo * 2.0 ** (n_win + 1) <= t_hi:
        n_win += 1
    if n_win < 3:
        raise ValueError(
            f"only {n_win} full dyadic windows in [{t_lo:g}, {t_hi:g}]; need 3")
    edges = t_lo * 2.0 ** np.arange(n_win + 1)
    peaks = np.zeros(n_win + 1)  # the last takes the samples at edges[-1]
    grid = np.geomspace(t_lo, edges[-1], 160 * n_win)
    for ts, r in _window_residuals(spec, t_lo, edges[-1], grid):
        np.maximum.at(peaks, np.searchsorted(edges, ts, side="right") - 1, r)
    xs = [0.5 * (math.log(edges[i]) + math.log(edges[i + 1])) for i in range(n_win)]
    ys = [math.log(max(float(peak), 1e-300)) for peak in peaks[:-1]]
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)
