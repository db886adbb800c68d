"""Averaged counting error A(t) = (1/t) * integral of N(s) - smooth(s).

The step-function integral of N is exact (sum of mult * (t - level) over
levels below t), the smooth part integrates in closed form, and their
scaled difference is the averaged error.  For the sphere the averaged
error also has a piecewise-algebraic closed form and an exact three-term
decomposition g(x) + g1(x) x/t + g2(x)/t with x = sqrt(t + 1/4); both are
implemented and must agree to the last bit, which the tests assert.

Scalar entry points use compensated summation; the grid entry point uses
float64 prefix sums, which costs at most ~1e-8 absolute on the averaged
error at the largest supported cutoffs and is what the window and slope
estimators are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, catalog, spectrum
from .catalog import Family, SurfaceSpec

@dataclass(frozen=True)
class AvgErrorSample:
    t: float
    avg: float
    n_integral: float
    tilde_integral: float


def integral_counting(spec: SurfaceSpec, t) -> float:
    """Integral of the counting function from 0 to t, exactly.

    N is a step function, so the integral is sum(mult * (t - level)) over
    levels <= t; summed with math.fsum so the only rounding is the final
    one.
    """
    t = float(t)
    if t < 0:
        raise ValueError("integral needs t >= 0")
    if t == 0:
        return 0.0
    vals, mults = spectrum.level_arrays(spec, t)
    return math.fsum(float(m) * (t - v) for v, m in zip(vals, mults))


def _tilde_integral(rc: asymptotics.RefinedAsymptotics, t):
    """Closed-form integral of the smooth estimate from 0 to t.

    The square-root term integrates to (2/3) s^{3/2}; in the shifted form
    the antiderivative is (2/3)(s + 1/4)^{3/2} and the constant is fixed so
    the integral vanishes at t = 0.  Works on scalars and arrays.
    """
    A, B, C = float(rc.A), float(rc.B), float(rc.C)
    if rc.sqrt_shift:
        broot = (t + 0.25) ** 1.5 - 0.125
    else:
        broot = t ** 1.5
    return 0.5 * A * t * t + (2.0 / 3.0) * B * broot + C * t


def avg_error(spec: SurfaceSpec, t) -> AvgErrorSample:
    """The averaged error sample at one time."""
    t = float(t)
    if not t > 0:
        raise ValueError("averaged error needs t > 0")
    n_int = integral_counting(spec, t)
    tilde = float(_tilde_integral(asymptotics.surface_constants(spec), t))
    return AvgErrorSample(t=t, avg=(n_int - tilde) / t,
                          n_integral=n_int, tilde_integral=tilde)


_BLOCK = 65536  # times per block of avg_error_grid's temporaries


def avg_error_grid(spec: SurfaceSpec, ts) -> np.ndarray:
    """Averaged error over an ascending grid, one spectrum fetch.

    The level prefix sums are made once; the times are then evaluated in
    blocks of _BLOCK into one output array, so the temporaries stay
    block-sized however long the grid is.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return ts.copy()
    if not np.all(ts > 0):
        raise ValueError("averaged error needs t > 0")
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("grid must be ascending")
    vals, mults = spectrum.level_arrays(spec, float(ts[-1]))
    m = mults.astype(np.float64)
    n_pref = np.concatenate(([0.0], np.cumsum(m)))
    l_pref = np.concatenate(([0.0], np.cumsum(m * vals)))
    rc = asymptotics.surface_constants(spec)
    out = np.empty_like(ts)
    for i in range(0, ts.size, _BLOCK):
        t = ts[i:i + _BLOCK]
        o = out[i:i + _BLOCK]
        idx = np.searchsorted(vals, t, side="right")
        np.multiply(t, n_pref[idx], out=o)
        o -= l_pref[idx]
        o -= _tilde_integral(rc, t)
        o /= t
    return out


def _window_index(t):
    """Index k of the sphere's multiplicity window [k^2-k, k^2+k)."""
    return np.floor(np.sqrt(t + 0.25) + 0.5)


def sphere_avg_closed_form(t):
    """Piecewise-algebraic averaged error of the round sphere.

    Valid for t > 0; vectorizes over arrays.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(t > 0):
        raise ValueError("closed form needs t > 0")
    k = _window_index(t)
    k2 = k * k
    out = (k2 - (k2 - t) ** 2) / (2.0 * t) - 1.0 / 3.0
    return float(out) if out.ndim == 0 else out


def _offset(x):
    # signed distance to the nearest integer, in [-1/2, 1/2)
    return x - np.floor(x + 0.5)


def sphere_g(x):
    """Leading profile 1/6 - 2 r^2, r the offset of x from its nearest integer."""
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


def _alternating_weight(spec: SurfaceSpec) -> float:
    """Amplitude of the alternating sawtooth in the leading profile.

    On window k the exact count is a k^2 + beta(k) k + bounded, and when
    beta deviates from its mean by c (-1)^{k+1} the running average of
    that deviation integrates to c (-1)^{k+1} k (t - k^2 + 1) / t, an
    order-one sawtooth tending to 2c (-1)^{k+1} (x - k) instead of a
    decaying term.  The projective sphere has c = 1/2 (only even degrees
    survive); half-lunes with even m have c = 1/(4m), with the sign tied
    to the equator condition.  Every other family here has beta constant
    per residue class with mean-zero remainder, which does decay.
    """
    if spec.family is Family.PROJECTIVE_SPHERE:
        return 1.0
    if spec.family is Family.HALF_LUNE and spec.m % 2 == 0:
        sign = 1.0 if spec.bc_equator == "N" else -1.0
        return sign / (2.0 * spec.m)
    return 0.0


def leading_profile(spec: SurfaceSpec, x):
    """Almost-periodic leading profile of the averaged error at x = sqrt(t+1/4).

    A_weyl * g(x) plus, where the window counts force one, the alternating
    sawtooth described in _alternating_weight.  Zero for flat surfaces,
    whose averaged error already decays.
    """
    x = np.asarray(x, dtype=np.float64)
    if not catalog.is_spherical(spec):
        out = np.zeros_like(x)
        return float(out) if out.ndim == 0 else out
    out = float(asymptotics.surface_constants(spec).A) * sphere_g(x)
    w = _alternating_weight(spec)
    if w:
        k = np.floor(x + 0.5)
        sign = np.where(np.mod(k, 2.0) == 1.0, 1.0, -1.0)
        out = out + w * sign * (x - k)
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


def g_samples(spec: SurfaceSpec, x_grid, order: int = 1) -> np.ndarray:
    """Conjecture-normalized profile g_est over an ascending grid, one per x.

    Flat surfaces: g_est = avg_error(x^2) * sqrt(x).  Spherical surfaces:
    g_est = avg_error(x^2 - 1/4).  Orders 2 and 3 subtract the known
    lower-order sphere profiles and rescale to expose the next one; they
    are defined for the sphere only.
    """
    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.size == 0:
        return np.empty(0)
    if not np.all(xs > 0):
        raise ValueError("grid values must be positive")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly ascending")
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    if order > 1 and spec.family is not Family.SPHERE:
        raise ValueError("higher-order profiles are defined for the sphere only")
    if catalog.is_spherical(spec):
        if xs[0] <= 0.5:
            raise ValueError("spherical grid values must exceed 1/2")
        ts = xs * xs - 0.25
        avg = avg_error_grid(spec, ts)
        if order == 1:
            est = avg
        elif order == 2:
            est = (avg - sphere_g(xs)) * ts / xs
        else:
            est = (avg - sphere_g(xs) - sphere_g1(xs) * xs / ts) * ts
    else:
        ts = xs * xs
        est = avg_error_grid(spec, ts) * np.sqrt(xs)
    return est


def window_samples(vals: np.ndarray, lo, hi, grid: np.ndarray) -> np.ndarray:
    """Sorted sample times for a sup or a fit over the window [lo, hi].

    N(t) jumps and the averaged error kinks only at levels, so the samples
    are the levels vals strictly inside (lo, hi), the midpoints between
    neighbouring ones and the caller's grid, made unique and clipped to
    [lo, hi].
    """
    inside = vals[(vals > lo) & (vals < hi)]
    mids = 0.5 * (inside[1:] + inside[:-1])
    # sort and drop repeats: np.unique would load numpy.ma
    ts = np.sort(np.concatenate((inside, mids, grid)))
    ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
    return ts[(ts >= lo) & (ts <= hi)]


def remainder_exponent(spec: SurfaceSpec, t_lo, t_hi,
                       subtract_leading: bool = True) -> float:
    """Fitted decay slope of the residual averaged error.

    Splits [t_lo, t_hi] into full dyadic windows, takes the max of
    |avg_error - leading| over each (sampled at every level, at midpoints
    between levels, and on a log grid), and least-squares fits log(max)
    against log(window center).  The leading term is the scaled sphere
    profile A * g(sqrt(t + 1/4)) for positively curved surfaces and zero
    for flat ones, whose averaged error already decays like t^{-1/4}.
    """
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    if not 0 < t_lo:
        raise ValueError("need t_lo > 0")
    if t_hi < 4.0 * t_lo:
        raise ValueError("need t_hi >= 4 * t_lo")
    n_win = int(math.floor(math.log(t_hi / t_lo, 2) + 1e-9))
    if n_win < 3:
        raise ValueError(
            f"only {n_win} full dyadic windows in [{t_lo:g}, {t_hi:g}]; need 3")
    edges = t_lo * 2.0 ** np.arange(n_win + 1)
    vals, _ = spectrum.level_arrays(spec, float(edges[-1]))
    ts = window_samples(vals, t_lo, edges[-1],
                        np.geomspace(t_lo, edges[-1], 160 * n_win))
    resid = avg_error_grid(spec, ts)
    if subtract_leading and catalog.is_spherical(spec):
        resid = resid - leading_profile(spec, np.sqrt(ts + 0.25))
    resid = np.abs(resid)
    xs = []
    ys = []
    bounds = np.searchsorted(ts, edges)
    for i in range(n_win):
        chunk = resid[bounds[i]:bounds[i + 1]]
        peak = float(chunk.max()) if chunk.size else 0.0
        xs.append(0.5 * (math.log(edges[i]) + math.log(edges[i + 1])))
        ys.append(math.log(max(peak, 1e-300)))
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)
