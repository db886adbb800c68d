"""Reference formulas the tests check the package against; no package code
reads them."""

import math
import operator
from fractions import Fraction

import numpy as np

from spectralab import asymptotics, average, catalog, spectrum, spherical


def polygon_corner_limit(n) -> Fraction:
    """Total corner weight n*psi((n-2)pi/n) of the regular n-gon.

    Converges to 1/6 as n grows, which is the constant a smooth convex
    boundary contributes; the remainder is O(1/n).
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError("a polygon needs at least 3 corners")
    r = Fraction(n - 2, n)
    return n * Fraction(1, 24) * (Fraction(1) / r - r)


def smooth_count(rc, t):
    """A*t + B*sqrt(.) + C of RefinedAsymptotics rc; works on scalars and
    numpy arrays."""
    arg = t + 0.25 if rc.sqrt_shift else t
    return float(rc.A) * t + float(rc.B) * arg ** 0.5 + float(rc.C)


def _offset(x):
    # signed distance to the nearest integer, in [-1/2, 1/2)
    return x - np.floor(x + 0.5)


def sphere_avg_closed_form(t):
    """Piecewise-algebraic averaged error of the round sphere.

    Valid for t > 0; vectorizes over arrays.  On the multiplicity window
    [k^2-k, k^2+k), k = floor(sqrt(t + 1/4) + 1/2).
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(t > 0):
        raise ValueError("closed form needs t > 0")
    k = np.floor(np.sqrt(t + 0.25) + 0.5)
    k2 = k * k
    out = (k2 - (k2 - t) ** 2) / (2.0 * t) - 1.0 / 3.0
    return float(out) if out.ndim == 0 else out


def sphere_g(x):
    """Leading profile 1/6 - 2r^2, r the offset of x from its nearest integer."""
    r = _offset(np.asarray(x, dtype=np.float64))
    out = 1.0 / 6.0 - 2.0 * r * r
    return float(out) if out.ndim == 0 else out


def sphere_g1(x):
    """First correction profile -r(1 - 4r^2)/2."""
    r = _offset(np.asarray(x, dtype=np.float64))
    out = -r * (1.0 - 4.0 * r * r) / 2.0
    return float(out) if out.ndim == 0 else out


def sphere_g2(x):
    """Second correction profile (4r^2 + 3)(1 - 4r^2)/32."""
    r = _offset(np.asarray(x, dtype=np.float64))
    r2 = r * r
    out = (4.0 * r2 + 3.0) * (1.0 - 4.0 * r2) / 32.0
    return float(out) if out.ndim == 0 else out


def sphere_avg_decomposed(t):
    """g(x) + g1(x) x/t + g2(x)/t at x = sqrt(t + 1/4).

    Algebraically identical to sphere_avg_closed_form; kept as a separate
    route so the identity stays testable.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(t > 0):
        raise ValueError("decomposition needs t > 0")
    x = np.sqrt(t + 0.25)
    out = sphere_g(x) + sphere_g1(x) * x / t + sphere_g2(x) / t
    return float(out) if np.ndim(out) == 0 else out


def avg_error_grid_whole(spec, ts):
    """The averaged error over an ascending grid from prefix sums cumulated
    over the whole table at once, as `average.avg_error_grid` computed it
    before it streamed them a block of levels at a time."""
    ts = np.asarray(ts, dtype=np.float64)
    vals, mults = spectrum.level_arrays(spec, float(ts[-1]))
    n_pref = np.zeros(vals.size + 1)
    np.cumsum(mults, dtype=np.float64, out=n_pref[1:])
    l_pref = np.zeros(vals.size + 1)
    np.multiply(mults, vals, out=l_pref[1:])
    np.cumsum(l_pref[1:], out=l_pref[1:])
    tilde = average._tilde_integral(asymptotics.surface_constants(spec), np.sqrt)
    idx = np.searchsorted(vals, ts, side="right")
    out = ts * n_pref[idx]
    out -= l_pref[idx]
    out -= tilde(ts)
    out /= ts
    return out


def window_mean_gauss(spec, lo, hi):
    """(mean, err): g_est's mean over [lo, hi] by 16-node Gauss-Legendre
    (numpy's leggauss) on each interval between the kinks inside it,
    x = sqrt(lambda) flat and sqrt(lambda + 1/4) round, where N is
    constant, all in np.longdouble, as `average.exact_window_mean` does it
    by other routes.  g is smooth on each interval, with its singularities
    at x = 0 or +-1/2, so the rule's error is negligible for lo >= 100;
    err bounds the rounding: 32 + k ulps of longdouble (k levels, for the
    cumulative sum of m lambda) of the size of g's terms at each node."""
    ld = np.longdouble
    shift = ld(0.25 if catalog.is_spherical(spec) else 0.0)
    vals, mults = spectrum.level_arrays(spec, hi * hi - float(shift))
    vals = vals.astype(ld)
    kinks = np.sqrt(vals + shift)
    edges = np.concatenate(([ld(lo)], kinks[(kinks > lo) & (kinks < hi)], [ld(hi)]))
    z, w = (c.astype(ld) for c in np.polynomial.legendre.leggauss(16))
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    x = (mid[:, None] + half[:, None] * z).ravel()
    wx = (half[:, None] * w).ravel()
    t = x * x - shift
    idx = np.searchsorted(vals, t, side="right")
    n = np.concatenate(([ld(0)], np.cumsum(mults, dtype=ld)))[idx]
    l = np.concatenate(([ld(0)], np.cumsum(mults * vals)))[idx]
    rc = asymptotics.surface_constants(spec)
    A, B, C = (ld(float(c)) for c in (rc.A, rc.B, rc.C))
    s = t + shift
    smooth = (A * t * t / 2, 2 * B * (s * np.sqrt(s) - shift * np.sqrt(shift)) / 3, C * t)
    scale = 1 if shift else np.sqrt(x)  # g_est is A(t) sqrt(x) on a flat surface
    g = (t * n - l - sum(smooth)) / t * scale
    size = (t * n + l + sum(map(abs, smooth))) / t * scale
    eps = np.finfo(ld).eps
    return (float(np.sum(wx * g) / ld(hi - lo)),
            float((32 + vals.size) * eps * np.sum(wx * size) / ld(hi - lo)))


def window_samples(vals, lo, hi, grid):
    """Sorted sample times for a sup or a fit over the window [lo, hi],
    all at once: the levels vals strictly inside (lo, hi), the midpoints
    between neighbouring ones and the grid, made unique and clipped to
    [lo, hi], as `average._window_residuals` yields them a block at a time."""
    inside = vals[(vals > lo) & (vals < hi)]
    mids = 0.5 * (inside[1:] + inside[:-1])
    ts = np.unique(np.concatenate((inside, mids, grid)))
    return ts[(ts >= lo) & (ts <= hi)]


def _residual_whole(spec, ts):
    avg = avg_error_grid_whole(spec, ts)
    if catalog.is_spherical(spec):
        avg -= average.leading_profile(spec, np.sqrt(ts + 0.25))
    return np.abs(avg)


def window_sup_whole(spec, lo, hi, grid):
    """`average.window_sup` over the sorted, unique `window_samples`, all
    held at once."""
    vals, _ = spectrum.level_arrays(spec, hi)
    ts = window_samples(vals, lo, hi, grid)
    return float(np.max(_residual_whole(spec, ts) * np.sqrt(np.sqrt(ts))))


def remainder_exponent_whole(spec, t_lo, t_hi):
    """`average.remainder_exponent` on the whole window's samples at once,
    each dyadic window's max over its slice of the sorted samples, with
    its log grid and its least-squares slope (`average._slope`, held
    against np.polyfit in tests/test_average.py)."""
    n_win = int(math.floor(math.log(t_hi / t_lo, 2) + 1e-9))
    edges = t_lo * 2.0 ** np.arange(n_win + 1)
    vals, _ = spectrum.level_arrays(spec, float(edges[-1]))
    ts = window_samples(vals, t_lo, edges[-1],
                        average.grid(t_lo, float(edges[-1]), 160 * n_win, True))
    resid = _residual_whole(spec, ts)
    bounds = np.searchsorted(ts, edges)
    xs, ys = [], []
    for i in range(n_win):
        chunk = resid[bounds[i]:bounds[i + 1]]
        xs.append(0.5 * (math.log(edges[i]) + math.log(edges[i + 1])))
        ys.append(math.log(max(float(chunk.max()) if chunk.size else 0.0, 1e-300)))
    return average._slope(xs, ys)


def frequency_peaks_loop(coef, omega):
    """`analysis.frequency_spectrum`'s peaks, one index at a time: the
    (omega, amplitude, phase) of each amplitude strictly above its left
    neighbour, at least its right one and above the floor (three times
    the median, at least 1e-9 times the largest), in a stable sort by
    amplitude descending."""
    amp = np.abs(coef)
    srt = np.sort(amp)
    median = 0.5 * (srt[(srt.size - 1) // 2] + srt[srt.size // 2])
    floor = max(3.0 * float(median), 1e-9 * float(srt[-1]))
    peaks = []
    for i in range(1, amp.size - 1):
        if amp[i] > amp[i - 1] and amp[i] >= amp[i + 1] and amp[i] > floor:
            peaks.append((float(omega[i]), float(amp[i]), float(np.angle(coef[i]))))
    peaks.sort(key=lambda p: -p[1])
    return peaks


def round_sweep():
    """The round surfaces the sawtooth weight's closed form and the round
    lengths' integer loop are held against their Fraction references on:
    the 36 round roster surfaces and every lune, half lune and glued lune
    of order m <= 60 and m = 1000, once each."""
    out = [s for s in catalog.verification_roster() if catalog.is_spherical(s)]
    for m in [*range(1, 61), 1000]:
        out += [catalog.lune(m, bc) for bc in "ND"]
        out += [catalog.half_lune(m, side, eq) for side in "ND" for eq in "ND"]
        out.append(catalog.glued_lune(m))
    return list(dict.fromkeys(out))


def alternating_weight_fractions(spec):
    """`average._alternating_weight` walked in Fractions over lists of one
    period, from the window counts alone: the 2P + 1 counts W from k0 = 4P,
    P = 4m, a = (W(k0 + 2P) - 2 W(k0 + P) + W(k0)) / 2P^2, the P slopes
    beta(k) = (W(k + P) - W(k)) / P - a (2k + P) and their deviations from
    the mean slope, which must alternate (else ArithmeticError); the weight
    is -2 times the first deviation."""
    P = 4 * spec.m
    k0 = 4 * P
    W = [spherical._sph_cum(spec, k) for k in range(k0, k0 + 2 * P + 1)]
    a = Fraction(W[2 * P] - 2 * W[P] + W[0], 2 * P * P)
    beta = [Fraction(W[i + P] - W[i], P) - a * (2 * (k0 + i) + P) for i in range(P)]
    mean = sum(beta) / P
    dev = [b - mean for b in beta]
    if any(d != dev[0] * (-1) ** i for i, d in enumerate(dev)):
        raise ArithmeticError("not an alternating sawtooth: %s" % (spec,))
    return float(-2 * dev[0])


def round_geodesic_lengths_fractions(spec, L_max):
    """`asymptotics.geodesic_lengths` of a round surface from Fraction
    products: float(step * j) * pi for j = 1, 2, ... up to L_max, step the
    great-circle orbit (`asymptotics.orbit_step`)."""
    step = asymptotics.orbit_step(spec)
    out = []
    j = 1
    while float(step * j) * math.pi <= L_max + 1e-12:
        out.append(float(step * j) * math.pi)
        j += 1
    return out
