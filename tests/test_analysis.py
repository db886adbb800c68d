"""Profile structure: means, periodicity, frequencies, sector proportions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spectralab import analysis, average, catalog
from spectralab.analysis import APProfile


def spec(label):
    return catalog.parse_spec(label)


def synthetic_profile(xs, values):
    xs = np.asarray(xs, dtype=np.float64)
    return APProfile(xs=xs, gs=np.asarray(values, dtype=np.float64),
                     window=(float(xs[0]), float(xs[-1])))


# ---------------------------------------------------------------------------
# window_mean


def test_window_mean_constant():
    xs = np.linspace(5.0, 25.0, 301)
    p = synthetic_profile(xs, np.full_like(xs, 0.37))
    assert analysis.window_mean(p) == pytest.approx(0.37, abs=1e-14)


def test_window_mean_needs_samples():
    xs = np.linspace(5.0, 25.0, 50)
    p = synthetic_profile(xs, np.zeros_like(xs))
    with pytest.raises(ValueError):
        analysis.window_mean(p)


def test_window_mean_single_period_of_profile():
    # one full period of the sphere profile integrates to zero; sample the
    # two smooth halves so the trapezoid rule sees no kink
    xs = np.linspace(3.0, 4.0, 4001)
    p = synthetic_profile(xs, average.sphere_g(xs))
    assert abs(analysis.window_mean(p)) < 1e-7


def test_window_mean_sphere_small():
    p = analysis.make_profile(spec("sphere"), 100.0, 200.0, n=20001)
    assert abs(analysis.window_mean(p)) <= 0.01


def test_window_mean_decay_across_windows():
    # kink-aligned spacing keeps the quadrature bias below the true mean,
    # which decays even faster than the O(1/window) envelope being tested
    sph = spec("sphere")
    means = {}
    for X in (100, 200, 400):
        xs = np.linspace(float(X), float(2 * X), X * 2000 + 1)
        g = average.avg_error_grid(sph, xs * xs - 0.25)
        means[X] = float(np.trapezoid(g, xs) / (xs[-1] - xs[0]))
    for X in (100, 200, 400):
        assert abs(means[X]) * X <= 1.0
    assert abs(means[200]) <= 1.5 * abs(means[100])
    assert abs(means[400]) <= 1.5 * abs(means[200])


# ---------------------------------------------------------------------------
# fourier_coefficients


def reference_coefficients(xs, gs, omega):
    """(2/L) trapezoid sum of g e^{-i omega x}, one cos and one sin dot per omega."""
    w = np.empty_like(xs)
    w[1:-1] = 0.5 * (xs[2:] - xs[:-2])
    w[0] = 0.5 * (xs[1] - xs[0])
    w[-1] = 0.5 * (xs[-1] - xs[-2])
    wg = w * gs
    out = np.array([complex(np.dot(wg, np.cos(om * xs)),
                            -np.dot(wg, np.sin(om * xs))) for om in omega])
    return out * (2.0 / (xs[-1] - xs[0]))


@pytest.mark.parametrize("x0, L, n, omega", [
    # n not a power of two
    (0.5, 60.0, 3001, np.linspace(1.5, 9.0, 250)),
    # n + m - 1 = 4097, one above a power of two, and x0 far from 0
    (1000.0, 200.0, 3841, np.linspace(0.5, 4.0, 257)),
    (12345.678, 150.0, 2049, np.arange(0.7, 6.3, 0.02)),
    # arange grid with n + m - 1 = 8193
    (500.0, 100.0, 8034, np.arange(1.0, 5.0, 0.025)),
])
def test_fourier_coefficients_match_direct_sum(x0, L, n, omega):
    rng = np.random.default_rng(n)
    xs = np.linspace(x0, x0 + L, n)
    gs = rng.standard_normal(n)
    for w in rng.uniform(omega[0], omega[-1], 3):
        gs += rng.uniform(0.5, 2.0) * np.cos(w * xs + rng.uniform(0.0, 6.3))
    want = reference_coefficients(xs, gs, omega)
    got = analysis.fourier_coefficients(synthetic_profile(xs, gs), omega)
    assert got.shape == omega.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_fourier_coefficients_need_uniform_grids():
    xs = np.linspace(10.0, 70.0, 3001)
    p = synthetic_profile(xs, np.sin(2.0 * xs))
    omega = np.linspace(1.5, 9.0, 250)
    analysis.fourier_coefficients(p, omega)
    bent = xs.copy()
    bent[1000] += 1e-6
    with pytest.raises(ValueError):
        analysis.fourier_coefficients(synthetic_profile(bent, p.gs), omega)
    with pytest.raises(ValueError):
        analysis.fourier_coefficients(
            synthetic_profile(np.geomspace(10.0, 70.0, 3001), p.gs), omega)
    skewed = omega.copy()
    skewed[100] += 1e-7
    with pytest.raises(ValueError):
        analysis.fourier_coefficients(p, skewed)


# ---------------------------------------------------------------------------
# frequency_spectrum


def test_pure_tone_recovery():
    # window an exact number of periods and put the tone on the grid, so
    # the rectangular window leaks nothing into the other bins
    L = 100.0 * 2.0 * math.pi / 3.0
    xs = np.linspace(10.0, 10.0 + L, 20001)
    p = synthetic_profile(xs, np.sin(3.0 * xs))
    omega = np.arange(11, 200) * (2.0 * math.pi / L)
    out = analysis.frequency_spectrum(p, omega)
    assert len(out.frequencies) == 1
    w, a, _ = out.frequencies[0]
    assert w == pytest.approx(3.0, abs=1e-9)
    assert a == pytest.approx(1.0, rel=1e-3)


def test_trig_sum_recovery():
    # omega spacing at 1/8 of the window resolution keeps the rectangular
    # window's scalloping loss below a fraction of a percent
    rng = np.random.default_rng(23)
    L = 300.0
    dw = 2.0 * math.pi / L / 8.0
    for _ in range(3):
        tones = []
        k = int(rng.integers(2, 5))
        freqs = np.sort(rng.uniform(1.0, 9.0, k))
        while np.min(np.diff(freqs), initial=2.0) < 0.8:
            freqs = np.sort(rng.uniform(1.0, 9.0, k))
        amps = rng.uniform(0.3, 1.0, k)
        phases = rng.uniform(0.0, 2.0 * math.pi, k)
        xs = np.linspace(0.0, L, 15001)
        sig = np.zeros_like(xs)
        for w, a, ph in zip(freqs, amps, phases):
            sig += a * np.sin(w * xs + ph)
            tones.append((w, a))
        p = synthetic_profile(xs, sig)
        out = analysis.frequency_spectrum(p, np.arange(0.8, 9.5, dw))
        for w, a in tones:
            hits = [f for f in out.frequencies if abs(f[0] - w) <= dw]
            assert hits, f"tone at {w} not recovered"
            assert abs(hits[0][1] - a) <= 0.05 * a + 1e-9


def test_frequencies_sorted_by_amplitude():
    p = analysis.make_profile(spec("sphere"), 100.0, 200.0, n=8001)
    out = analysis.frequency_spectrum(p, np.arange(1.0, 30.0, 0.02))
    amps = [f[1] for f in out.frequencies]
    assert amps == sorted(amps, reverse=True)
    assert len(out.frequencies) >= 2


def test_sphere_peaks_at_multiples_of_two_pi():
    p = analysis.make_profile(spec("sphere"), 100.0, 200.0, n=8001)
    out = analysis.frequency_spectrum(p, np.arange(1.0, 30.0, 0.02))
    for target, amp in [(2.0 * math.pi, 2.0 / math.pi ** 2),
                        (4.0 * math.pi, 0.5 / math.pi ** 2)]:
        hits = [f for f in out.frequencies if abs(f[0] - target) <= 0.05]
        assert hits
        assert hits[0][1] == pytest.approx(amp, rel=0.05)


def test_flat_torus_peaks_at_geodesic_lengths():
    ftr = spec("flat_torus_rect:a=1,b=1")
    p = analysis.make_profile(ftr, 200.0, 800.0, n=60001)
    out = analysis.frequency_spectrum(p, np.arange(1.0, 10.0, 0.01))
    for target in [2.0, 2.0 * math.sqrt(2.0), 4.0]:
        assert any(abs(f[0] - target) <= 0.05 for f in out.frequencies), target


def test_frequency_grid_validation():
    p = analysis.make_profile(spec("sphere"), 100.0, 200.0, n=2001)
    with pytest.raises(ValueError):
        analysis.frequency_spectrum(p, np.arange(1.0, 30.0, 0.2))
    with pytest.raises(ValueError):
        # smallest candidate period 2pi/0.1 needs a 628-long window
        analysis.frequency_spectrum(p, np.arange(0.1, 30.0, 0.02))
    with pytest.raises(ValueError):
        analysis.frequency_spectrum(p, np.array([3.0, 2.0, 4.0]))


# ---------------------------------------------------------------------------
# match_geodesics


def test_match_basic():
    rep = analysis.match_geodesics([2.01, 2.83],
                                   [2.0, 2.0 * math.sqrt(2.0), 4.0], 0.05)
    assert len(rep.matched) == 2
    assert rep.unmatched_freqs == ()
    assert rep.unmatched_lengths == (4.0,)


def test_match_empty_freqs():
    rep = analysis.match_geodesics([], [1.0, 2.0], 0.1)
    assert rep.matched == ()
    assert rep.unmatched_lengths == (1.0, 2.0)


def test_match_sphere_lengths():
    lengths = catalog.geodesic_lengths(spec("sphere"), 15.0)
    rep = analysis.match_geodesics([6.28, 12.57], lengths, 0.05)
    assert len(rep.matched) == 2
    assert rep.unmatched_freqs == ()


def test_match_requires_sorted():
    with pytest.raises(ValueError):
        analysis.match_geodesics([3.0, 2.0], [1.0], 0.1)
    with pytest.raises(ValueError):
        analysis.match_geodesics([2.0], [4.0, 1.0], 0.1)


def test_match_prefers_nearest():
    rep = analysis.match_geodesics([2.1], [2.0, 2.15], 0.2)
    assert rep.matched == ((2.1, 2.15),)


# ---------------------------------------------------------------------------
# almost_period_check


def test_almost_period_sphere():
    p = analysis.make_profile(spec("sphere"), 100.0, 200.0, n=40001)
    assert analysis.almost_period_check(p, 1.0) <= 0.02
    assert analysis.almost_period_check(p, 0.5) >= 0.2


def test_almost_period_constant_signal():
    xs = np.linspace(0.0, 50.0, 5001)
    p = synthetic_profile(xs, np.full_like(xs, 1.25))
    assert analysis.almost_period_check(p, 7.3) == 0.0


def test_almost_period_window_guard():
    xs = np.linspace(0.0, 5.0, 501)
    p = synthetic_profile(xs, np.zeros_like(xs))
    with pytest.raises(ValueError):
        analysis.almost_period_check(p, 2.0)
    with pytest.raises(ValueError):
        analysis.almost_period_check(p, -1.0)


# ---------------------------------------------------------------------------
# symmetry proportions


EXPECTED_SIGNS = {
    "square_torus": {"++": 1, "+-": -1, "-+": 1, "--": -1, "2": 0},
    "square_n": {"++": 1, "+-": 1, "-+": 1, "--": -1, "2": 1},
    "square_d": {"++": 1, "+-": -1, "-+": -1, "--": -1, "2": -1},
    "hex_torus": {"+": 1, "-": -1, "2": 0},
    "equilateral_n": {"+": 1, "-": -1, "2": 1},
    "equilateral_d": {"+": 1, "-": -1, "2": -1},
}


@pytest.mark.parametrize("base", sorted(EXPECTED_SIGNS))
def test_symmetry_proportions(base):
    reps = analysis.symmetry_proportions(base, 2e4)
    assert sum(Fraction(r.measured).limit_denominator(10 ** 9)
               for r in reps) == 1
    for r in reps:
        assert abs(r.measured - r.predicted) <= 0.02
        assert r.b_sign == EXPECTED_SIGNS[base][r.irrep], r.irrep


def test_proportions_sum_exactly():
    # the raw counts partition the spectrum; check the integer identity
    from spectralab import spectrum
    for base in ("square_torus", "equilateral_d"):
        counts = spectrum.symmetry_counts(base, 5e3)
        total = spectrum.count(catalog.base_spec(base), 5e3)
        assert sum(counts.values()) == total


def test_b_hat_tracks_true_coefficient():
    reps = analysis.symmetry_proportions("square_torus", 1e5)
    true_b = {
        "++": (2 + math.sqrt(2)) / (8 * math.pi),
        "+-": (math.sqrt(2) - 2) / (8 * math.pi),
        "-+": (2 - math.sqrt(2)) / (8 * math.pi),
        "--": -(2 + math.sqrt(2)) / (8 * math.pi),
        "2": 0.0,
    }
    for r in reps:
        assert abs(r.b_hat - true_b[r.irrep]) <= 0.01, r.irrep


def test_proportions_validation():
    with pytest.raises(ValueError):
        analysis.symmetry_proportions("square_torus", 500.0)
    with pytest.raises(ValueError):
        analysis.symmetry_proportions("pentagon", 1e4)
