"""Structural probes of the averaged-error profile g.

Three claims are tested here: g has mean value zero, its trigonometric
frequency content lines up with lengths of closed geodesics, and symmetry
sectors of a base surface fill the spectrum in proportion d^2 / |G|.

Frequencies are reported on the x axis (the argument of g, x ~ sqrt(t)),
where the observed peaks sit directly at the geodesic lengths
(`asymptotics.geodesic_lengths`).  A sector's two-term share and its
sqrt-term sign come from its verified constants and the base's
(`asymptotics.surface_constants`); nothing is fitted.  A profile holds
`average.profile`'s samples in arrays; numpy and `average` are imported
where they are used, so the proportions load neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import asymptotics, catalog, spectrum
from .catalog import SurfaceSpec, _Frozen

class APProfile(_Frozen):
    """Samples g_est(x) on an ascending x grid: arrays xs and gs.

    `frequencies` is an (n, 3) float64 array of (omega, amplitude, phase)
    peaks once frequency_spectrum has filled them in, empty before.  A
    profile is immutable and, its fields being arrays, equals only itself.
    """

    __slots__ = ("xs", "gs", "frequencies")

    def __init__(self, xs: np.ndarray, gs: np.ndarray, frequencies=None):
        import numpy as np

        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "gs", gs)
        object.__setattr__(self, "frequencies",
                           np.empty((0, 3)) if frequencies is None else frequencies)


class ProportionReport(namedtuple(
        "ProportionReport", "irrep measured predicted two_term b_sign")):
    """One sector's share of the base spectrum: its irrep, the measured
    share, d^2 / |G|, the two-term share from the exact constants of the
    sector and the base, and b_sign, the sign of the sector's B."""

    __slots__ = ()


def make_profile(spec: SurfaceSpec, x_lo, x_hi, n: int) -> APProfile:
    """`average.profile` over [x_lo, x_hi], with its refusals, in arrays."""
    import numpy as np

    from . import average

    return APProfile(*map(np.asarray, average.profile(spec, x_lo, x_hi, n)))


def window_mean(profile: APProfile) -> float:
    """Trapezoidal mean of g_est over the profile's window: its samples,
    arrays or lists (read as lists), give the terms of
    np.trapezoid(gs, xs), (b - a)(h + g) / 2, summed correctly rounded
    (`math.fsum`) over xs[-1] - xs[0]."""
    xs, gs = profile.xs, profile.gs
    if len(xs) < 100:
        raise ValueError("need at least 100 samples for a stable mean")
    xs, gs = (v if isinstance(v, list) else v.tolist() for v in (xs, gs))
    terms = [(b - a) * (h + g) / 2.0 for a, b, g, h in zip(xs, xs[1:], gs, gs[1:])]
    return math.fsum(terms) / (xs[-1] - xs[0])


def _uniform_step(grid: np.ndarray, other_max: float, name: str, block: int) -> float:
    """Spacing of an evenly spaced grid, or ValueError if it is not one.

    The grid counts as uniform when its worst deviation from
    grid[0] + j * step, times the largest magnitude on the other grid,
    stays within 1e-9 rad of phase.  The deviation is taken block points
    at a time.
    """
    import numpy as np

    step = (grid[-1] - grid[0]) / (grid.size - 1)
    dev = 0.0
    for lo in range(0, grid.size, block):
        off = np.arange(lo, min(lo + block, grid.size), dtype=np.float64)
        off *= step
        off += grid[0]
        np.subtract(grid[lo:lo + block], off, out=off)
        dev = max(dev, float(np.max(np.abs(off, out=off))))
    if dev * other_max > 1e-9:
        raise ValueError(f"{name} grid must be uniform: a point sits {dev:.3g} "
                         f"off the line, {dev * other_max:.3g} rad of phase")
    return float(step)


def _trapezoid_weights(xs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The trapezoid weights of the grid xs at its points lo .. hi - 1."""
    import numpy as np

    n = xs.size
    w = np.empty(hi - lo)
    a, b = max(lo, 1), min(hi, n - 1)  # the inner points
    inner = w[a - lo:b - lo]
    np.subtract(xs[a + 1:b + 1], xs[a - 1:b - 1], out=inner)
    inner *= 0.5
    if lo == 0:
        w[0] = 0.5 * (xs[1] - xs[0])
    if hi == n:
        w[-1] = 0.5 * (xs[-1] - xs[-2])
    return w


def fourier_coefficients(profile: APProfile, omega_grid) -> np.ndarray:
    """Complex (2/L) sum_j w_j g_j e^{-i omega_k x_j}, one value per omega.

    The trapezoid rule over the plain (untapered) window: w_j are the
    trapezoid weights of the x grid and L its length.  Both grids must be
    uniform, x_j = x0 + j dx and omega_k = w0 + k dw, so that

        omega_k x_j = w0 x0 + w0 j dx + x0 k dw + dw dx (k^2 + j^2 - (k-j)^2) / 2

    and the sum over j becomes one convolution with the chirp
    e^{+i dw dx l^2 / 2} at the lags l = k - j, done with zero-padded FFTs
    (Bluestein's chirp-z transform) instead of n * m complex exponentials.

    The convolution runs by overlap-add: the FFT size S is the smallest
    power of two at least min(n + m - 1, max(2^14, 2m)), set by the m
    frequencies and not by the n samples once n passes S, and the samples
    go in blocks of B = S - m + 1.  A block starting at sample lo is the
    same sum with x0 moved to x0 + lo dx, so one transformed kernel serves
    every block, and the blocks' m coefficients add up.  Beside the
    profile the scan holds two S-long complex buffers and a few B- and
    m-long temporaries, O(n log S) work in all; with a single block (n + m
    - 1 <= S) it is the one-transform chirp-z.  The floor 2m keeps B above
    S/2, where S near m would take many blocks, and a floor of 4m would
    double the buffers on a million frequencies; the floor 2^14 keeps the
    blocks few when m is small (four on the flat conjecture's 60001
    samples and 901 frequencies).

    Guards: omega ascending and positive, spacing no coarser than the
    window resolution 2*pi/L, the window at least 10 periods of the
    smallest candidate frequency, and both grids uniform to 1e-9 rad.
    """
    import numpy as np

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
    n, m = xs.size, omega.size
    size = 1 << (min(n + m - 1, max(1 << 14, 2 * m)) - 1).bit_length()
    block = size - m + 1  # samples per block
    dx = _uniform_step(xs, float(omega[-1]), "x", block)
    dw = _uniform_step(omega, max(abs(float(xs[0])), abs(float(xs[-1]))), "omega", block)
    x0, w0 = float(xs[0]), float(omega[0])
    half = 0.5 * dw * dx
    # the chirp e^{i half lag^2} at lags k - j = 0 .. m-1 and -(span-1) ..
    # -1, wrapped around, span the longest block, transformed in place
    span = min(block, n)
    kernel = np.zeros(size, dtype=np.complex128)
    for lag, part in ((np.arange(m, dtype=np.float64), kernel[:m]),
                      (np.arange(-(span - 1), 0, dtype=np.float64), kernel[size - (span - 1):])):
        np.multiply(1j * half, lag, out=part)
        part *= lag
        np.exp(part, out=part)
    np.fft.fft(kernel, out=kernel)
    k = np.arange(m, dtype=np.float64)
    kk = half * k * k
    conv = np.empty(size, dtype=np.complex128)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # the block's weighted, pre-chirped samples in the front of the
        # buffer, zeros behind them, in the float order of
        # gs * w * np.exp(-1j * (w0 * dx * j + half * j * j))
        pre = conv[:hi - lo]
        conv[hi - lo:] = 0.0
        j = np.arange(hi - lo, dtype=np.float64)
        arg = half * j
        arg *= j
        j *= w0 * dx
        arg += j
        del j
        np.multiply(-1j, arg, out=pre)
        del arg
        np.exp(pre, out=pre)
        w = _trapezoid_weights(xs, lo, hi)
        w *= gs[lo:hi]
        pre *= w
        del w
        np.fft.fft(conv, out=conv)
        conv *= kernel
        np.fft.ifft(conv, out=conv)
        x = x0 + lo * dx  # the block's first sample on the line
        part = conv[:m] * np.exp(-1j * (w0 * x + x * dw * k + kk))
        if lo:
            coef += part
        else:
            coef = part
    return coef * (2.0 / L)


def frequency_spectrum(profile: APProfile, omega_grid) -> APProfile:
    """Fill in the trigonometric frequency content of a profile.

    Local maxima of |fourier_coefficients| above three times the median
    amplitude (strictly above the left neighbour, at least the right one)
    are reported as frequencies, sorted by amplitude descending, ties in
    omega order.
    """
    import numpy as np

    omega = np.asarray(omega_grid, dtype=np.float64)
    coef = fourier_coefficients(profile, omega)
    amp = np.abs(coef)
    # the median as the middle of a sort: np.median would load numpy.ma
    srt = np.sort(amp)
    median = 0.5 * (srt[(srt.size - 1) // 2] + srt[srt.size // 2])
    # the relative term keeps pure rounding noise out when the background
    # is exactly zero (synthetic on-bin tones)
    floor = max(3.0 * float(median), 1e-9 * float(srt[-1]))
    mid = amp[1:-1]
    i = np.flatnonzero((mid > amp[:-2]) & (mid >= amp[2:]) & (mid > floor)) + 1
    i = i[np.argsort(-amp[i], kind="stable")]
    return APProfile(profile.xs, profile.gs,
                     np.column_stack((omega[i], amp[i], np.angle(coef[i]))))


def match_geodesics(freqs, lengths, tol) -> tuple:
    """Greedy nearest matching of observed frequencies to geodesic lengths:
    the (frequency, length) pairs, in the order of freqs."""
    freqs = [float(f) for f in freqs]
    lengths = [float(l) for l in lengths]
    if any(b < a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be sorted ascending")
    if any(b < a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be sorted ascending")
    tol = float(tol)
    free = list(range(len(lengths)))
    matched = []
    for f in freqs:
        best = None
        for j in free:
            d = abs(lengths[j] - f)
            if d <= tol and (best is None or d < abs(lengths[best] - f)):
                best = j
        if best is not None:
            matched.append((f, lengths[best]))
            free.remove(best)
    return tuple(matched)


def symmetry_proportions(base: str, T) -> list[ProportionReport]:
    """Sector shares of the spectrum, their one- and two-term predictions
    and the signs of their exact sqrt terms."""
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

    def smooth(rc):  # the two-term count A T + B sqrt(T) + C
        return float(rc.A) * T + float(rc.B) * math.sqrt(T) + float(rc.C)

    whole = smooth(asymptotics.surface_constants(catalog.base_spec(base)))
    out = []
    for ir in irreps:
        rc = asymptotics.surface_constants(catalog.symmetry_sector(base, ir))
        out.append(ProportionReport(
            irrep=ir, measured=counts[ir] / total, predicted=float(Fraction(dims[ir] ** 2, order)),
            two_term=smooth(rc) / whole, b_sign=rc.B.sign()))
    return out
