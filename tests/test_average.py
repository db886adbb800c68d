"""Averaged-error module: step integrals, closed forms, profiles, decay."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spectralab import asymptotics, average, catalog, spectrum


def spec(label):
    return catalog.parse_spec(label)


SPHERE = spec("sphere")


# ---------------------------------------------------------------------------
# integral of the counting function


def test_integral_counting_sphere_small():
    assert average.integral_counting(SPHERE, 0) == 0.0
    assert average.integral_counting(SPHERE, 2) == 2.0
    assert average.integral_counting(SPHERE, 3) == 6.0


def test_integral_counting_piecewise_linear():
    # between consecutive levels the integral grows linearly with slope N(t)
    rng = np.random.default_rng(7)
    for _ in range(40):
        t = float(rng.uniform(1.0, 400.0))
        h = float(rng.uniform(1e-4, 1e-3))
        n_t = spectrum.count(SPHERE, t)
        lo = average.integral_counting(SPHERE, t)
        hi = average.integral_counting(SPHERE, t + h)
        jumps = spectrum.count(SPHERE, t + h) - n_t
        if jumps == 0:
            assert hi - lo == pytest.approx(n_t * h, rel=1e-9, abs=1e-12)


def test_integral_counting_rejects_negative_t():
    with pytest.raises(ValueError):
        average.integral_counting(SPHERE, -1.0)


# ---------------------------------------------------------------------------
# averaged error samples


def test_avg_error_sphere_fixed_points():
    s = average.avg_error(SPHERE, Fraction(2, 3))
    assert s.avg == pytest.approx(1.0 / 3.0, abs=1e-15)
    s = average.avg_error(SPHERE, 2.0)
    assert s.avg == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_avg_error_sample_invariant():
    rng = np.random.default_rng(3)
    for label in ["sphere", "rectangle:a=1,b=1,bc=N", "glued_lune:m=3"]:
        sp = spec(label)
        for _ in range(25):
            t = float(rng.uniform(0.5, 2000.0))
            s = average.avg_error(sp, t)
            assert s.avg * s.t == pytest.approx(
                s.n_integral - s.tilde_integral, rel=1e-12)


def test_avg_error_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        average.avg_error(SPHERE, 0.0)
    with pytest.raises(ValueError):
        average.avg_error(SPHERE, -3.0)


def test_tilde_integral_vanishes_at_zero_and_differentiates_back():
    # d/dt of the closed-form integral is the smooth count itself
    for label in ["sphere", "hemisphere:bc=D", "rectangle:a=2,b=1,bc=ND",
                  "mobius_band:a=1,b=2,bc=N"]:
        sp = spec(label)
        rc = asymptotics.surface_constants(sp)
        assert average._tilde_integral(rc, 0.0) == 0.0
        for t in [0.7, 13.0, 450.0]:
            h = 1e-5 * max(t, 1.0)
            num = (average._tilde_integral(rc, t + h)
                   - average._tilde_integral(rc, t - h)) / (2 * h)
            assert num == pytest.approx(rc.smooth_count(t), rel=1e-7)


def test_avg_error_grid_matches_scalar():
    rng = np.random.default_rng(11)
    for label in ["sphere", "flat_torus_rect:a=1,b=1", "lune:m=2,bc=N"]:
        sp = spec(label)
        ts = np.sort(rng.uniform(1.0, 3000.0, 60))
        grid = average.avg_error_grid(sp, ts)
        for t, g in zip(ts, grid):
            assert g == pytest.approx(average.avg_error(sp, float(t)).avg,
                                      rel=1e-10, abs=1e-12)


def test_avg_error_grid_validates_input():
    with pytest.raises(ValueError):
        average.avg_error_grid(SPHERE, [2.0, 1.0])
    with pytest.raises(ValueError):
        average.avg_error_grid(SPHERE, [0.0, 1.0])
    assert average.avg_error_grid(SPHERE, []).size == 0


def test_independent_quadrature_rectangle():
    # step integral summed interval by interval, smooth part integrated by
    # composite Simpson in the variable u = sqrt(s); nothing shared with
    # the closed-form antiderivative inside avg_error.
    sp = spec("rectangle:a=1,b=1,bc=N")
    t = 100.0
    vals, mults = spectrum.level_arrays(sp, t)
    knots = [0.0] + [float(v) for v in vals] + [t]
    cum = 0
    step_int = 0.0
    for i, (lo, hi) in enumerate(zip(knots[:-1], knots[1:])):
        if i > 0:
            cum += int(mults[i - 1])
        step_int += cum * (hi - lo)
    rc = asymptotics.surface_constants(sp)
    n = 2000
    us = np.linspace(0.0, math.sqrt(t), 2 * n + 1)
    fs = rc.smooth_count(us * us) * 2.0 * us
    h = us[1] - us[0]
    simpson = h / 3.0 * (fs[0] + fs[-1] + 4.0 * fs[1:-1:2].sum()
                         + 2.0 * fs[2:-2:2].sum())
    s = average.avg_error(sp, t)
    assert s.avg * t == pytest.approx(step_int - simpson, abs=1e-6)


# ---------------------------------------------------------------------------
# sphere closed form and its decomposition


def test_sphere_closed_form_matches_avg_error():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(2000):
        t = float(rng.uniform(1.0, 1e6))
        worst = max(worst, abs(average.avg_error(SPHERE, t).avg
                               - average.sphere_avg_closed_form(t)))
    assert worst <= 1e-9


def test_sphere_closed_form_window_endpoints():
    for k in [1, 2, 5, 30]:
        t = float(k * k + k)
        left = average.sphere_avg_closed_form(t - 1e-9)
        right = average.sphere_avg_closed_form(t + 1e-9)
        assert left == pytest.approx(right, abs=1e-7)


def test_decomposition_identity_float():
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(0.5, 1e6, 4000))
    closed = average.sphere_avg_closed_form(ts)
    dec = average.sphere_avg_decomposed(ts)
    assert np.max(np.abs(closed - dec)) <= 1e-12


def test_decomposition_identity_exact():
    # at rational x the whole identity lives in exact arithmetic
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = Fraction(int(rng.integers(7, 4000)), int(rng.integers(1, 60)))
        if x <= Fraction(1, 2):
            continue
        t = x * x - Fraction(1, 4)
        k = (2 * x + 1) // 2
        closed = (k * k - (k * k - t) ** 2) / (2 * t) - Fraction(1, 3)
        r = x - k
        g = Fraction(1, 6) - 2 * r * r
        g1 = -r * (1 - 4 * r * r) / 2
        g2 = (4 * r * r + 3) * (1 - 4 * r * r) / 32
        assert closed == g + g1 * x / t + g2 / t


def test_g_profile_values_and_mean():
    assert average.sphere_g(7.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert average.sphere_g(7.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    # exact mean over one period: 1/6 - 2 * (integral of r^2) = 1/6 - 2/12
    assert Fraction(1, 6) - 2 * Fraction(1, 12) == 0
    # numerical check: Simpson over each smooth half of [k, k+1]
    for k in [3, 11]:
        total = 0.0
        for lo, hi in [(k, k + 0.5), (k + 0.5, k + 1.0)]:
            xs = np.linspace(lo, hi, 2001)
            fs = average.sphere_g(xs)
            h = xs[1] - xs[0]
            total += h / 3.0 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum()
                                + 2 * fs[2:-2:2].sum())
        assert abs(total) < 1e-12


def test_sphere_window_means_shrink():
    for window in [100.0, 200.0, 400.0]:
        ts = np.linspace(window, 2 * window, 20001)
        mean = float(np.mean(average.sphere_avg_closed_form(ts)))
        assert abs(mean) <= 5.0 / window


def test_closed_form_rejects_nonpositive():
    with pytest.raises(ValueError):
        average.sphere_avg_closed_form(0.0)
    with pytest.raises(ValueError):
        average.sphere_avg_decomposed(-2.0)


# ---------------------------------------------------------------------------
# profile samples


def test_g_samples_sphere_near_profile():
    xs = np.array([10.0, 10.5])
    out = average.g_samples(SPHERE, xs)
    assert abs(out[0] - 1.0 / 6.0) <= 1.5 / 10.0
    assert abs(out[1] + 1.0 / 3.0) <= 1.5 / 10.0
    # order 1 on the sphere is the averaged error itself, bit for bit
    assert np.array_equal(out, average.avg_error_grid(SPHERE, xs * xs - 0.25))


def test_g_samples_higher_orders_converge():
    x = 30.3
    t = x * x - 0.25
    second = average.g_samples(SPHERE, [x], order=2)[0]
    assert abs(second - average.sphere_g1(x)) <= 1.2 * abs(
        average.sphere_g2(x)) / x + 1e-6
    third = average.g_samples(SPHERE, [x], order=3)[0]
    # order 3 strips everything known, so only rounding noise remains
    assert abs(third - average.sphere_g2(x)) <= 1e-8 * t


def test_g_samples_flat_torus_bound():
    # regression bound: measured sup was 1.423 on this grid
    ftr = spec("flat_torus_rect:a=1,b=1")
    xs = np.linspace(100.0, 200.0, 4001)
    out = average.g_samples(ftr, xs)
    assert np.max(np.abs(out)) <= 2.9


def test_g_samples_validation():
    assert average.g_samples(SPHERE, []).size == 0
    with pytest.raises(ValueError):
        average.g_samples(SPHERE, [2.0, 2.0])
    with pytest.raises(ValueError):
        average.g_samples(SPHERE, [-1.0, 2.0])
    with pytest.raises(ValueError):
        average.g_samples(SPHERE, [0.4, 0.45])
    with pytest.raises(ValueError):
        average.g_samples(SPHERE, [3.0], order=4)
    with pytest.raises(ValueError):
        average.g_samples(spec("hemisphere:bc=N"), [3.0], order=2)
    with pytest.raises(ValueError):
        average.g_samples(spec("flat_torus_rect:a=1,b=1"), [3.0], order=2)


# ---------------------------------------------------------------------------
# leading profiles and decay exponents


def test_leading_profile_flat_is_zero():
    r = spec("rectangle:a=1,b=1,bc=N")
    assert np.all(average.leading_profile(r, np.array([3.0, 8.25])) == 0.0)


def test_leading_profile_scales_with_area_share():
    xs = np.array([12.2, 19.7, 33.1])
    full = average.leading_profile(SPHERE, xs)
    hemi = average.leading_profile(spec("hemisphere:bc=N"), xs)
    assert np.allclose(hemi, 0.5 * full)
    lune = average.leading_profile(spec("lune:m=3,bc=D"), xs)
    assert np.allclose(lune, full / 6.0)


def test_leading_profile_projective_sawtooth():
    # the even-degree count injects (-1)^{k+1}(x - k) on top of g/2
    ps = spec("projective_sphere")
    x = np.array([7.2, 8.2])
    want = 0.5 * average.sphere_g(x) + np.array([1.0, -1.0]) * 0.2
    assert np.allclose(average.leading_profile(ps, x), want, atol=1e-12)


def test_projective_profile_tracks_measured_average():
    ps = spec("projective_sphere")
    ts = np.linspace(900.0, 1100.0, 2000)
    a = average.avg_error_grid(ps, ts)
    resid = a - average.leading_profile(ps, np.sqrt(ts + 0.25))
    # raw averaged error swings with amplitude ~ 1/2; the residual is
    # t^{-1/2} sized
    assert np.max(np.abs(a)) > 0.3
    assert np.max(np.abs(resid)) < 0.05


def test_half_lune_even_m_sawtooth_weight():
    assert average._alternating_weight(
        spec("half_lune:m=2,bc_side=N,bc_equator=N")) == 0.25
    assert average._alternating_weight(
        spec("half_lune:m=2,bc_side=D,bc_equator=D")) == -0.25
    assert average._alternating_weight(
        spec("half_lune:m=3,bc_side=N,bc_equator=N")) == 0.0
    assert average._alternating_weight(spec("glued_lune:m=2")) == 0.0


SLOPE_LABELS = [
    "sphere",
    "projective_sphere",
    "hemisphere:bc=N",
    "hemisphere:bc=D",
    "glued_lune:m=2",
    "lune:m=2,bc=N",
    "half_lune:m=2,bc_side=N,bc_equator=D",
    "half_lune:m=3,bc_side=D,bc_equator=N",
]


@pytest.mark.parametrize("label", SLOPE_LABELS)
def test_remainder_exponent_spherical(label):
    slope = average.remainder_exponent(spec(label), 1e3, 1e6)
    assert -0.65 <= slope <= -0.35


def test_remainder_exponent_sphere_unsubtracted_is_flatline():
    slope = average.remainder_exponent(SPHERE, 1e3, 1e6,
                                       subtract_leading=False)
    assert abs(slope) <= 0.1


def test_remainder_exponent_flat_envelope():
    slope = average.remainder_exponent(spec("rectangle:a=1,b=1,bc=N"),
                                       1e3, 1e6)
    assert -0.4 <= slope <= -0.1


def test_remainder_exponent_validation():
    with pytest.raises(ValueError):
        average.remainder_exponent(SPHERE, 1000.0, 3000.0)
    with pytest.raises(ValueError):
        # ratio 5 gives only two full dyadic windows
        average.remainder_exponent(SPHERE, 1000.0, 5000.0)
    with pytest.raises(ValueError):
        average.remainder_exponent(SPHERE, 0.0, 1000.0)


# ---------------------------------------------------------------------------
# boundedness of the scaled error (regression bounds, 2x safety margin)


def sup_scaled(label, t_lo, t_hi, power):
    sp = spec(label)
    vals, _ = spectrum.level_arrays(sp, t_hi)
    inside = vals[(vals > t_lo) & (vals < t_hi)]
    mids = 0.5 * (inside[1:] + inside[:-1]) if inside.size > 1 else np.empty(0)
    ts = np.unique(np.concatenate((inside, mids,
                                   np.geomspace(t_lo, t_hi, 4000))))
    ts = ts[(ts >= t_lo) & (ts <= t_hi)]
    a = average.avg_error_grid(sp, ts)
    return float(np.max(np.abs(a) * ts ** power))


FLAT_SUP_BOUNDS = {
    # measured sup of |avg| * t^{1/4} on [1e3, 1e6], then doubled
    "rectangle:a=1,b=1,bc=N": 0.85,
    "rectangle:a=1,b=1,bc=D": 0.78,
    "flat_torus_rect:a=1,b=1": 3.25,
    "equilateral_triangle:bc=N": 0.70,
    "flat_projective_plane": 1.20,
    "tetrahedron_surface": 1.75,
}


@pytest.mark.parametrize("label", sorted(FLAT_SUP_BOUNDS))
def test_flat_scaled_error_bounded(label):
    assert sup_scaled(label, 1e3, 1e6, 0.25) <= FLAT_SUP_BOUNDS[label]


def test_spherical_error_bounded():
    # sphere averaged error lives in [-1/3, 1/6] up to O(1/t)
    assert sup_scaled("sphere", 1e3, 1e6, 0.0) <= 0.68
    assert sup_scaled("hemisphere:bc=N", 1e3, 1e6, 0.0) <= 0.35
