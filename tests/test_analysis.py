"""Profile structure: means, periodicity, frequencies, sector proportions."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectralab import analysis, asymptotics, average, catalog
from spectralab.analysis import APProfile

from reference_formulas import (frequency_peaks_loop, round_geodesic_lengths_fractions,
                                round_sweep, sphere_g)


def spec(label):
    return catalog.parse_spec(label)


def synthetic_profile(xs, values):
    xs = np.asarray(xs, dtype=np.float64)
    return APProfile(xs=xs, gs=np.asarray(values, dtype=np.float64))


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
    p = synthetic_profile(xs, sphere_g(xs))
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
    # blocks of B = S - m + 1 samples: m = 8000 near S/2 = 8192 gives B =
    # 8385, and n = 2B + 1 three blocks, the last of one sample
    (10000.0, 2000.0, 2 * 8385 + 1, np.linspace(0.5, 3.0, 8000)),
    # the flat conjecture's grid, S = 2^14 and B = 15484, over five blocks
    (200.0, 600.0, 4 * 15484 + 1, np.linspace(1.0, 10.0, 901)),
])
def test_fourier_coefficients_match_direct_sum(x0, L, n, omega):
    rng = np.random.default_rng(n)
    xs = np.linspace(x0, x0 + L, n)
    gs = rng.standard_normal(n)
    for w in rng.uniform(omega[0], omega[-1], 3):
        gs += rng.uniform(0.5, 2.0) * np.cos(w * xs + rng.uniform(0.0, 6.3))
    got = analysis.fourier_coefficients(synthetic_profile(xs, gs), omega)
    assert got.shape == omega.shape
    pick = slice(None, None, max(1, omega.size // 256))  # the direct sum at up to 511 omegas
    want = reference_coefficients(xs, gs, omega[pick])
    assert np.max(np.abs(got[pick] - want)) <= 1e-10 * np.max(np.abs(want))


def test_fourier_scan_holds_its_buffers_not_the_window():
    # the flat conjecture's scan, 60001 samples and 901 frequencies, holds
    # about four of its S = 2^14 long complex buffers (two, the FFT plan
    # and a few block temporaries); one transform over all the samples
    # held two buffers of 2^16 and n-long temporaries, 4.6 MB
    xs = np.linspace(200.0, 800.0, 60001)
    p = synthetic_profile(xs, np.sin(2.0 * xs))
    omega = np.linspace(1.0, 10.0, 901)
    tracemalloc.start()
    try:
        analysis.fourier_coefficients(p, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 16 * 2**14


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


def test_frequency_peaks_follow_the_neighbour_rule(monkeypatch):
    # a peak is strictly above its left neighbour, at least its right one
    # and above the floor (3 times the median, 0.3 here); the first of a
    # plateau counts, the grid's ends do not, and equal amplitudes keep
    # their omega order.  The peaks are an (n, 3) float64 array, an empty
    # profile's a (0, 3) one.
    amp = np.full(40, 0.1)
    amp[[0, 5, 6, 10, 20, 30, 39]] = [4.0, 2.0, 2.0, 3.0, 3.0, 0.2, 4.0]
    coef = amp * np.array([1, 1j, -1, -1j])[np.arange(40) % 4]  # |coef| is amp
    monkeypatch.setattr(analysis, "fourier_coefficients", lambda p, omega: coef)
    xs = np.linspace(0.0, 1.0, 5)
    empty = synthetic_profile(xs, xs)
    assert empty.frequencies.shape == (0, 3)
    omega = np.linspace(1.0, 4.9, 40)
    peaks = analysis.frequency_spectrum(empty, omega).frequencies
    assert peaks.dtype == np.float64
    i = [10, 20, 5]
    assert np.array_equal(peaks, np.column_stack((omega[i], amp[i], np.angle(coef[i]))))


@pytest.mark.parametrize("label, window, omega", [
    ("sphere", (100.0, 200.0, 8001), np.arange(1.0, 30.0, 0.02)),
    ("flat_torus_rect:a=1,b=1", (200.0, 800.0, 60001), np.linspace(1.0, 10.0, 901)),
])
def test_frequency_peaks_match_the_loop(label, window, omega):
    # the array comparisons pick the loop's peaks in its order; omega and
    # amplitude are the same floats, the phase to the rounding of arctan2
    p = analysis.make_profile(spec(label), *window)
    ref = np.array(frequency_peaks_loop(analysis.fourier_coefficients(p, omega), omega))
    got = analysis.frequency_spectrum(p, omega).frequencies
    assert got.shape == ref.shape and len(ref) >= 2
    assert np.array_equal(got[:, :2], ref[:, :2])
    assert np.allclose(got[:, 2], ref[:, 2], rtol=0, atol=1e-15)


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
    matched = analysis.match_geodesics([2.01, 2.83],
                                       [2.0, 2.0 * math.sqrt(2.0), 4.0], 0.05)
    assert matched == ((2.01, 2.0), (2.83, 2.0 * math.sqrt(2.0)))


def test_match_empty_freqs():
    assert analysis.match_geodesics([], [1.0, 2.0], 0.1) == ()


def test_match_sphere_lengths():
    lengths = asymptotics.geodesic_lengths(spec("sphere"), 15.0)
    matched = analysis.match_geodesics([6.28, 12.57], lengths, 0.05)
    assert matched == ((6.28, 2 * math.pi), (12.57, 4 * math.pi))


def test_match_requires_sorted():
    with pytest.raises(ValueError):
        analysis.match_geodesics([3.0, 2.0], [1.0], 0.1)
    with pytest.raises(ValueError):
        analysis.match_geodesics([2.0], [4.0, 1.0], 0.1)


def test_match_prefers_nearest():
    assert analysis.match_geodesics([2.1], [2.0, 2.15], 0.2) == ((2.1, 2.15),)


# ---------------------------------------------------------------------------
# geodesic_lengths


def squares(spec, L):
    """geodesic_lengths as exact squares, each checked to be a float sqrt."""
    got = asymptotics.geodesic_lengths(spec, L)
    sq = [Fraction(round(x * x, 9)).limit_denominator(64) for x in got]
    assert got == [math.sqrt(float(q)) for q in sq]
    return sq


def test_geodesic_lengths_fixtures():
    got = asymptotics.geodesic_lengths(catalog.flat_torus_rect(1, 1), 5.0)
    want = [2.0, 2 * math.sqrt(2), 4.0, 2 * math.sqrt(5)]
    assert len(got) == len(want)
    assert all(abs(x - y) < 1e-12 for x, y in zip(got, want))

    got = asymptotics.geodesic_lengths(catalog.sphere(), 15.0)
    assert len(got) == 2
    assert abs(got[0] - 2 * math.pi) < 1e-12
    assert abs(got[1] - 4 * math.pi) < 1e-12

    got = asymptotics.geodesic_lengths(catalog.projective_sphere(), 10.0)
    assert [round(x / math.pi) for x in got] == [1, 2, 3]

    got = asymptotics.geodesic_lengths(catalog.lune(2, "N"), 13.0)
    assert [round(x / math.pi) for x in got] == [1, 2, 3, 4]

    # symmetry sectors: the domain triangle's lengths over sqrt(s), with
    # s = 3 for the equilateral bases; a 2-dimensional sector keeps the
    # lines its siblings' closed forms do not cancel
    F = Fraction
    for (base, irrep), L, want in [
        (("square_n", "++"), 2.0, [F(1, 2), F(1), F(2), F(4)]),
        (("square_torus", "2"), 2.0, [F(1), F(2), F(4)]),
        (("equilateral_n", "+"), 2.0, [F(1, 4), F(3, 4), F(1), F(9, 4), F(3), F(4)]),
        (("equilateral_d", "2"), 2.0, [F(1, 4), F(1), F(9, 4), F(3), F(4)]),
        (("hex_torus", "-"), 3.5, [F(9, 4), F(3), F(9), F(12)]),
    ]:
        assert squares(catalog.symmetry_sector(base, irrep), L) == want, (base, irrep)

    # Moebius bands: the even and the odd cosets of the cover lattice
    # {(ma, nb) : m = n mod 2} and the core circle's odd multiples of a
    for b, L, want in [(1, 3.2, [F(1), F(2), F(4), F(8), F(9), F(10)]),
                       (F(1, 2), 1.9, [F(1), F(5, 4), F(13, 4)])]:
        assert squares(catalog.mobius_band(1, b, "D"), L) == want, b

    # a length whose count weights sum to zero carries no line: the two
    # tori of the M cylinder cancel at 4 and those of the NM rectangle at
    # 20; the right isosceles triangle has no line at |a(3, 1)|^2 = 10,
    # which no period of its unfolding lattice 2aZ^2 reaches
    for label, L, want in [
        ("cylinder:a=1,b=1,bc=M", 3.0, [1, 5, 8, 9]),
        ("rectangle:a=1,b=1,bc=NM", 5.0, [4, 8, 16]),
        ("right_iso_triangle:a=1,bc=N", 3.5, [2, 4, 8]),
    ]:
        assert squares(spec(label), L) == want, label


def test_round_geodesic_lengths_match_the_fraction_products():
    # a round surface's lengths read only its orbit step, so one surface
    # per step of the round sweep covers them all
    steps = {asymptotics.orbit_step(s): s for s in round_sweep()}
    for s in steps.values():
        for L in (30.0, 2 * math.pi, 100.0):
            assert asymptotics.geodesic_lengths(s, L) == round_geodesic_lengths_fractions(s, L), \
                (s.label(), L)


def test_round_geodesic_lengths_refuse_a_long_list():
    # a lune of order 10^10 has 4.8e10 multiples of 2 pi / m up to 30: the
    # count is refused before one is listed, naming the surface and L_max
    start = time.perf_counter()
    for L in (30.0, math.inf):
        with pytest.raises(ValueError, match=r"^lune:m=10000000000,bc=D: its geodesic "
                           r"lengths up to (30|inf) number more than 1e\+06$"):
            asymptotics.geodesic_lengths(catalog.lune(10**10, "D"), L)
    assert time.perf_counter() - start < 1.0
    assert len(asymptotics.geodesic_lengths(catalog.lune(10**5, "D"), 30.0)) == 477464


def test_geodesic_lengths_flat_unfoldings():
    # equilateral: hex lattice sqrt(3q) plus the closed bounce family 3j/2
    got = asymptotics.geodesic_lengths(catalog.equilateral_triangle("N"), 3.2)
    assert any(abs(x - 1.5) < 1e-12 for x in got)
    assert any(abs(x - math.sqrt(3)) < 1e-12 for x in got)
    assert any(abs(x - 3.0) < 1e-12 for x in got)
    # right isosceles legs 1: shortest families sqrt2 and 2
    got = asymptotics.geodesic_lengths(catalog.right_iso_triangle(1, "N"), 2.5)
    assert abs(got[0] - math.sqrt(2)) < 1e-12
    assert any(abs(x - 2.0) < 1e-12 for x in got)
    # 30-60-90: includes the short altitude bounce sqrt3/2
    got = asymptotics.geodesic_lengths(catalog.triangle_306090("N"), 2.0)
    assert abs(got[0] - math.sqrt(3) / 2) < 1e-12
    # cylinder circumference first
    got = asymptotics.geodesic_lengths(catalog.cylinder(1, 1, "N"), 2.1)
    assert abs(got[0] - 1.0) < 1e-12
    # Mobius core circle of length a closes
    got = asymptotics.geodesic_lengths(catalog.mobius_band(1, 1, "N"), 2.1)
    assert abs(got[0] - 1.0) < 1e-12
    # flat projective plane: odd glide lengths alongside the 2Z^2 lattice
    got = asymptotics.geodesic_lengths(catalog.flat_projective_plane(), 3.0)
    assert abs(got[0] - 1.0) < 1e-12
    assert any(abs(x - 2.0) < 1e-12 for x in got)
    assert any(abs(x - 3.0) < 1e-12 for x in got)


def test_geodesic_lengths_monotone_and_bounded():
    for s in (
        catalog.flat_torus_hex(),
        catalog.tetrahedron_surface(),
        catalog.symmetry_sector("equilateral_d", "-"),
        catalog.glued_lune(3),
    ):
        got = asymptotics.geodesic_lengths(s, 9.0)
        assert got == sorted(got)
        assert all(0 < x <= 9.0 + 1e-9 for x in got)
        assert len(set(round(x, 9) for x in got)) == len(got)


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


@pytest.mark.parametrize("base", sorted(EXPECTED_SIGNS))
def test_b_sign_is_exact_below_the_share_bound(base):
    # the sign is the verified B's at any T, also where the share bound
    # above does not hold yet
    reps = analysis.symmetry_proportions(base, 1e3)
    assert {r.irrep: r.b_sign for r in reps} == EXPECTED_SIGNS[base]


def test_proportions_sum_exactly():
    # the raw counts partition the spectrum; check the integer identity
    from spectralab import spectrum
    for base in ("square_torus", "equilateral_d"):
        counts = spectrum.symmetry_counts(base, 5e3)
        total = spectrum.count(catalog.base_spec(base), 5e3)
        assert sum(counts.values()) == total


def test_two_term_share_tracks_measured_share():
    # at T = 1e5 the share (A_j T + B_j sqrt(T) + C_j) / (A T + B sqrt(T) + C)
    # of the exact constants is within 2e-5 of the measured share on every
    # sector (1.4e-5 at most); with the sector's B flipped it misses each
    # 1-dim sector by more than 1e-3 (1.9e-3 to 1.1e-2), so the sqrt term
    # is what it measures
    T = 1e5
    for base in ("square_torus", "hex_torus"):
        whole = asymptotics.surface_constants(catalog.base_spec(base))
        n = float(whole.A) * T + float(whole.B) * math.sqrt(T) + float(whole.C)
        for r in analysis.symmetry_proportions(base, T):
            assert abs(r.measured - r.two_term) <= 2e-5, (base, r)
            rc = asymptotics.surface_constants(catalog.symmetry_sector(base, r.irrep))
            flipped = (float(rc.A) * T - float(rc.B) * math.sqrt(T) + float(rc.C)) / n
            if r.irrep != "2":
                assert abs(r.measured - flipped) > 1e-3, (base, r)


@pytest.mark.parametrize("base", sorted(EXPECTED_SIGNS))
def test_two_term_shares_sum_to_one(base):
    # the sectors' constants add up to the base's, so their shares do
    reps = analysis.symmetry_proportions(base, 1e3)
    assert abs(sum(r.two_term for r in reps) - 1.0) <= 1e-12


def test_proportions_validation():
    with pytest.raises(ValueError):
        analysis.symmetry_proportions("square_torus", 500.0)
    with pytest.raises(ValueError):
        analysis.symmetry_proportions("pentagon", 1e4)
