"""Structural probes of the averaged-error profile g.

Four claims are tested here: g has mean value zero, g is (almost)
periodic, its trigonometric frequency content lines up with lengths of
closed geodesics, and symmetry sectors of a base surface fill the
spectrum in proportion d^2 / |G| with a definite sign on the sqrt term.

Frequencies are reported on the x axis (the argument of g, x ~ sqrt(t)),
where the observed peaks sit directly at the geodesic lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import asymptotics, average, catalog, spectrum
from .catalog import SurfaceSpec

# |fitted sqrt coefficient| below this maps to sign 0; half the smallest
# nonzero |B| among the sector tables, which is (2 - sqrt2)/(8 pi) ~ 0.0233
B_SIGN_FLOOR = 0.011


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class APProfile:
    """Samples g_est(x) on an ascending x grid, with the window they cover.

    `frequencies` holds (omega, amplitude, phase) peaks once
    frequency_spectrum has filled them in.
    """
    xs: np.ndarray
    gs: np.ndarray
    window: tuple
    frequencies: tuple = ()


@dataclass(frozen=True)
class ProportionReport:
    irrep: str
    measured: float
    predicted: float
    b_sign: int
    b_hat: float


@dataclass(frozen=True)
class MatchReport:
    matched: tuple
    unmatched_freqs: tuple
    unmatched_lengths: tuple


def make_profile(spec: SurfaceSpec, x_lo, x_hi, n: int = 4001,
                 order: int = 1) -> APProfile:
    """Sample the normalized profile on a uniform grid over [x_lo, x_hi]."""
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    if not 0 < x_lo < x_hi:
        raise ValueError("window must be positive and ascending")
    if n < 2:
        raise ValueError("need at least two samples")
    xs = np.linspace(x_lo, x_hi, int(n))
    return APProfile(xs=xs, gs=average.g_samples(spec, xs, order=order),
                     window=(x_lo, x_hi))


def window_mean(profile: APProfile) -> float:
    """Trapezoidal mean of g_est over the profile's window."""
    if profile.xs.size < 100:
        raise ValueError("need at least 100 samples for a stable mean")
    xs = profile.xs
    gs = profile.gs
    return float(np.trapezoid(gs, xs) / (xs[-1] - xs[0]))


def _uniform_step(grid: np.ndarray, other_max: float, name: str) -> float:
    """Spacing of an evenly spaced grid, or ValueError if it is not one.

    The grid counts as uniform when its worst deviation from
    grid[0] + j * step, times the largest magnitude on the other grid,
    stays within 1e-9 rad of phase.
    """
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    dev = float(np.max(np.abs(grid - (grid[0] + step * np.arange(grid.size)))))
    if dev * other_max > 1e-9:
        raise ValueError(f"{name} grid must be uniform: a point sits {dev:.3g} "
                         f"off the line, {dev * other_max:.3g} rad of phase")
    return float(step)


def fourier_coefficients(profile: APProfile, omega_grid) -> np.ndarray:
    """Complex (2/L) sum_j w_j g_j e^{-i omega_k x_j}, one value per omega.

    The trapezoid rule over the plain (untapered) window: w_j are the
    trapezoid weights of the x grid and L its length.  Both grids must be
    uniform, x_j = x0 + j dx and omega_k = w0 + k dw, so that

        omega_k x_j = w0 x0 + w0 j dx + x0 k dw + dw dx (k^2 + j^2 - (k-j)^2) / 2

    and the sum over j becomes one convolution with the chirp
    e^{+i dw dx m^2 / 2}, done with zero-padded FFTs (Bluestein's chirp-z
    transform): O((n + m) log(n + m)) instead of n * m complex exponentials.

    Guards: omega ascending and positive, spacing no coarser than the
    window resolution 2*pi/L, the window at least 10 periods of the
    smallest candidate frequency, and both grids uniform to 1e-9 rad.
    """
    omega = np.asarray(omega_grid, dtype=np.float64)
    if omega.size < 3 or np.any(np.diff(omega) <= 0):
        raise ValueError("omega grid must be ascending with >= 3 points")
    if np.any(omega <= 0):
        raise ValueError("omega grid must be positive")
    xs = profile.xs
    gs = profile.gs
    L = xs[-1] - xs[0]
    if np.max(np.diff(omega)) > 2.0 * math.pi / L + 1e-12:
        raise ValueError("omega grid spacing exceeds the window resolution "
                         f"2*pi/L = {2.0 * math.pi / L:.6g}")
    if L < 10.0 * (2.0 * math.pi / omega[0]):
        raise ValueError("window shorter than 10 periods of the smallest "
                         "candidate frequency")
    dx = _uniform_step(xs, float(omega[-1]), "x")
    dw = _uniform_step(omega, float(np.max(np.abs(xs))), "omega")
    w = np.empty_like(xs)
    w[1:-1] = 0.5 * (xs[2:] - xs[:-2])
    w[0] = 0.5 * (xs[1] - xs[0])
    w[-1] = 0.5 * (xs[-1] - xs[-2])
    n, m = xs.size, omega.size
    x0, w0 = float(xs[0]), float(omega[0])
    half = 0.5 * dw * dx
    j = np.arange(n, dtype=np.float64)
    k = np.arange(m, dtype=np.float64)
    lag = np.arange(-(n - 1), m, dtype=np.float64)  # k - j
    size = 1 << (n + m - 2).bit_length()  # a power of two >= n + m - 1
    chirp = np.exp(1j * half * lag * lag)
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:m] = chirp[n - 1:]
    kernel[size - (n - 1):] = chirp[:n - 1]
    pre = gs * w * np.exp(-1j * (w0 * dx * j + half * j * j))
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kernel))[:m]
    return conv * np.exp(-1j * (w0 * x0 + x0 * dw * k + half * k * k)) * (2.0 / L)


def frequency_spectrum(profile: APProfile, omega_grid) -> APProfile:
    """Fill in the trigonometric frequency content of a profile.

    Local maxima of |fourier_coefficients| above three times the median
    amplitude are reported as frequencies, sorted by amplitude descending.
    """
    omega = np.asarray(omega_grid, dtype=np.float64)
    coef = fourier_coefficients(profile, omega)
    amp = np.abs(coef)
    # the relative term keeps pure rounding noise out when the background
    # is exactly zero (synthetic on-bin tones)
    floor = max(3.0 * float(np.median(amp)), 1e-9 * float(np.max(amp)))
    peaks = []
    for i in range(1, amp.size - 1):
        if amp[i] > amp[i - 1] and amp[i] >= amp[i + 1] and amp[i] > floor:
            peaks.append((float(omega[i]), float(amp[i]),
                          float(np.angle(coef[i]))))
    peaks.sort(key=lambda p: -p[1])
    return replace(profile, frequencies=tuple(peaks))


def match_geodesics(freqs, lengths, tol) -> MatchReport:
    """Greedy nearest matching of observed frequencies to geodesic lengths."""
    freqs = [float(f) for f in freqs]
    lengths = [float(l) for l in lengths]
    if any(b < a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be sorted ascending")
    if any(b < a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be sorted ascending")
    tol = float(tol)
    free = list(range(len(lengths)))
    matched = []
    unmatched_f = []
    for f in freqs:
        best = None
        for j in free:
            d = abs(lengths[j] - f)
            if d <= tol and (best is None or d < abs(lengths[best] - f)):
                best = j
        if best is None:
            unmatched_f.append(f)
        else:
            matched.append((f, lengths[best]))
            free.remove(best)
    return MatchReport(matched=tuple(matched),
                       unmatched_freqs=tuple(unmatched_f),
                       unmatched_lengths=tuple(lengths[j] for j in free))


def almost_period_check(profile: APProfile, period) -> float:
    """Sup of |g_est(x + period) - g_est(x)| over the overlap."""
    period = float(period)
    if period <= 0:
        raise ValueError("period must be positive")
    xs = profile.xs
    gs = profile.gs
    span = xs[-1] - xs[0]
    if span < 3.0 * period:
        raise ValueError("window must cover at least 3 periods")
    keep = xs <= xs[-1] - period
    shifted = np.interp(xs[keep] + period, xs, gs)
    return float(np.max(np.abs(shifted - gs[keep])))


def _sector_b_hat(sector: SurfaceSpec, T: float) -> float:
    """Constant least-squares fit of (N_j(t) - A_j t)/sqrt(t) on [T/10, T]."""
    a_j = float(asymptotics.surface_constants(sector).A)
    vals, mults = spectrum.level_arrays(sector, T)
    prefix = np.concatenate(([0.0], np.cumsum(mults.astype(np.float64))))
    lo = T / 10.0
    inside = vals[(vals > lo) & (vals < T)]
    mids = 0.5 * (inside[1:] + inside[:-1]) if inside.size > 1 else np.empty(0)
    ts = np.unique(np.concatenate((inside, mids, np.linspace(lo, T, 2001))))
    ts = ts[(ts >= lo) & (ts <= T)]
    counts = prefix[np.searchsorted(vals, ts, side="right")]
    y = (counts - a_j * ts) / np.sqrt(ts)
    return float(np.mean(y))


def symmetry_proportions(base: str, T) -> list[ProportionReport]:
    """Sector shares of the spectrum and signs of their sqrt terms."""
    T = float(T)
    if T < 1e3:
        raise ValueError("need T >= 1e3 for stable proportions")
    irreps = catalog.sector_irreps(base)
    dims = catalog.sector_dims(base)
    order = sum(d * d for d in dims.values())
    counts = spectrum.symmetry_counts(base, T)
    total = spectrum.count(catalog.base_spec(base), T)
    if sum(counts.values()) != total:
        raise ArithmeticError(
            "sector counts for %r do not partition the base spectrum" % base)
    out = []
    for ir in irreps:
        b_hat = _sector_b_hat(catalog.symmetry_sector(base, ir), T)
        if abs(b_hat) < B_SIGN_FLOOR:
            sign = 0
        else:
            sign = 1 if b_hat > 0 else -1
        out.append(ProportionReport(
            irrep=ir,
            measured=counts[ir] / total,
            predicted=float(Fraction(dims[ir] ** 2, order)),
            b_sign=sign,
            b_hat=b_hat))
    return out
