"""Averaged-error module: the grid route, closed forms, profiles, decay."""

import math
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest

from spectralab import analysis, asymptotics, average, catalog, exact, oracle, spectrum, spherical

from reference_formulas import (alternating_weight_fractions, avg_error_grid_whole,
                                remainder_exponent_whole, round_sweep, smooth_count,
                                sphere_avg_closed_form, sphere_avg_decomposed, sphere_g,
                                window_mean_gauss, window_samples, window_sup_whole)
from mutations import MUTATION_SEED, WEIGHT_MUTATIONS, WEIGHT_SURFACES


def spec(label):
    return catalog.parse_spec(label)


SPHERE = spec("sphere")


# ---------------------------------------------------------------------------
# the averaged error on a grid


def test_integral_counting_sphere_small():
    # t * A(t) plus the smooth integral is the step integral of N: 2 at
    # t = 2 (one level 0) and 6 at t = 3 (levels 0 and 3 x 2)
    ts = np.array([2.0, 3.0])
    rc = asymptotics.surface_constants(SPHERE)
    step = average.avg_error_grid(SPHERE, ts) * ts + average._tilde_integral(rc, np.sqrt)(ts)
    assert step == pytest.approx([2.0, 6.0], abs=1e-12)


def test_avg_error_sphere_fixed_points():
    a = average.avg_error_grid(SPHERE, [2.0 / 3.0, 2.0])
    assert a[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert a[1] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_avg_error_rejects_nonpositive_t():
    for bad in ([0.0], [-3.0], [-1.0, 2.0]):
        with pytest.raises(ValueError):
            average.avg_error_grid(SPHERE, bad)


def test_tilde_integral_vanishes_at_zero_and_differentiates_back():
    # d/dt of the closed-form integral is the smooth count itself
    for label in ["sphere", "hemisphere:bc=D", "rectangle:a=2,b=1,bc=ND",
                  "mobius_band:a=1,b=2,bc=N"]:
        sp = spec(label)
        rc = asymptotics.surface_constants(sp)
        tilde = average._tilde_integral(rc, math.sqrt)
        assert tilde(0.0) == 0.0
        for t in [0.7, 13.0, 450.0]:
            h = 1e-5 * max(t, 1.0)
            num = (tilde(t + h) - tilde(t - h)) / (2 * h)
            assert num == pytest.approx(smooth_count(rc, t), rel=1e-7)


def test_smooth_integral_overflow_is_refused():
    # on sides of 1e-300 the smooth integral's t^{3/2} term overflows past
    # t of about 3e205: both engines refuse a grid that reaches there,
    # naming its largest t, rather than return -inf; below, they answer
    sp = spec("rectangle:a=1e-300,b=1e-300,bc=N")
    for avg in (average.avg_error_list, average.avg_error_grid):
        with pytest.raises(ValueError, match=r"overflows .* at t = 1e\+300"):
            avg(sp, [1e250, 1e300])
        assert list(avg(sp, [1e100, 1e200])) == [0.75, 0.75]


def _sqrt_bracket(x: Fraction, digits: int = 40):
    """(lo, hi) with lo <= sqrt(x) <= hi, 10^-digits / denominator apart."""
    p, q = x.numerator, x.denominator
    r = math.isqrt(p * q * 10 ** (2 * digits))
    return Fraction(r, q * 10 ** digits), Fraction(r + 1, q * 10 ** digits)


def _mul(a, b):
    """Product of two intervals (lo, hi)."""
    ends = [x * y for x in a for y in b]
    return min(ends), max(ends)


def _exact_avg(spec, levels, t: Fraction):
    """(lo, hi) enclosing A(t) = (sum m (t - lam) - smooth integral) / t.

    levels are oracle.brute_levels pairs: lam = N(N+1) on round surfaces,
    rho pi^2 bracketed by the 100-digit pi enclosure on flat ones.  The
    smooth integral takes A, B, C from ExactConst.bounds() and brackets
    the 3/2 power with an integer square root.
    """
    step_lo = step_hi = Fraction(0)
    for key, m in levels:
        if catalog.is_spherical(spec):
            lam = (Fraction(key * (key + 1)),) * 2
        else:
            lam = (key * exact.PI_LO ** 2, key * exact.PI_HI ** 2)
        if lam[1] <= t:
            step_lo += m * (t - lam[1])
            step_hi += m * (t - lam[0])
        else:
            assert lam[0] > t, "a level straddles t"
    rc = asymptotics.surface_constants(spec)
    s, s0 = (t + Fraction(1, 4), Fraction(1, 8)) if rc.sqrt_shift else (t, 0)
    root = [Fraction(2, 3) * (s * r - s0) for r in _sqrt_bracket(s)]
    # A t^2 / 2 + B (2/3)(s^{3/2} - s0) + C t
    terms = [_mul(rc.A.bounds(), (t * t / 2,) * 2), _mul(rc.B.bounds(), root),
             _mul(rc.C.bounds(), (t, t))]
    smooth_lo = sum(lo for lo, _ in terms)
    smooth_hi = sum(hi for _, hi in terms)
    return (step_lo - smooth_hi) / t, (step_hi - smooth_lo) / t


@pytest.mark.parametrize("label", ["sphere", "flat_torus_rect:a=1,b=1",
                                   "lune:m=2,bc=N", "rectangle:a=1,b=1,bc=NM"])
def test_avg_error_grid_matches_exact_reference(label):
    # the float64 prefix sums of both engines stay within 1e-12 of exact
    # sums for t <= 3000, their sqrt-built powers included
    sp = spec(label)
    rng = np.random.default_rng(11)
    ts = np.sort(rng.uniform(1.0, 3000.0, 60))
    levels = oracle.brute_levels(sp, Fraction(float(ts[-1])))
    for grid in (average.avg_error_grid(sp, ts), average.avg_error_list(sp, ts)):
        for t, g in zip(ts, grid):
            lo, hi = _exact_avg(sp, levels, Fraction(float(t)))
            assert hi - lo < Fraction(1, 10 ** 20)
            assert lo - Fraction(1, 10 ** 12) <= Fraction(float(g)) <= hi + Fraction(1, 10 ** 12)


def test_avg_error_grid_validates_input():
    with pytest.raises(ValueError):
        average.avg_error_grid(SPHERE, [2.0, 1.0])
    with pytest.raises(ValueError):
        average.avg_error_grid(SPHERE, [0.0, 1.0])
    assert average.avg_error_grid(SPHERE, []).size == 0


@pytest.mark.parametrize("label", [
    "sphere", "flat_torus_rect:a=2,b=3/2", "symmetry_sector:base=hex_torus,irrep=2",
    "mobius_band:a=1,b=1,bc=D", "cylinder:a=13/11,b=11/5,bc=M"])
def test_engines_agree_on_grids(monkeypatch, label):
    # seeded linear and log grids, a single time and times that land on
    # levels: the list engine gives the numpy engine's floats exactly, on
    # a table held in array('q'), which avg_error_list sums in Python
    monkeypatch.setattr(spectrum, "_TABLES", {})
    sp = spec(label)
    rng = np.random.default_rng(7)
    top = 4000.0 / float(asymptotics.surface_constants(sp).A)
    vals, _ = spectrum.level_arrays(sp, top)
    assert isinstance(spectrum._table(sp).keys, array)
    grids = [[float(top)], [float(vals[1])], sorted(vals[1:40].tolist())]
    for log in (False, True):
        for n in (1, 2, 97, 1500):
            lo = top * rng.uniform(1e-4, 0.3)
            grids.append(average.grid(lo, top, n, log))
    grids.append(sorted(grids[-1] + vals[vals > grids[-1][0]].tolist()))
    for ts in grids:
        assert average.avg_error_list(sp, ts) == average.avg_error_grid(sp, ts).tolist()
    for bad in ([0.0], [-3.0], [-1.0, 2.0], [2.0, 1.0], [1.0, 3.0, 2.0]):
        errors = []
        for engine in (average.avg_error_grid, average.avg_error_list):
            with pytest.raises(ValueError) as err:
                engine(sp, bad)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
    assert average.avg_error_list(sp, []) == []


def test_avg_error_list_picks_its_engine(monkeypatch):
    # a short grid over a table in array('q') is summed in Python floats;
    # a grid longer than _PY_POINTS, a table held on numpy, or one with
    # more than _PY_POINTS levels up to the grid's end goes to
    # avg_error_grid, whose floats come back as they are
    monkeypatch.setattr(spectrum, "_TABLES", {})
    calls = []
    grid_engine = average.avg_error_grid

    def counting(sp, ts):
        calls.append(len(ts))
        return grid_engine(sp, ts)

    monkeypatch.setattr(average, "avg_error_grid", counting)
    shape = "rectangle:a=13/11,b=11/5,bc=ND"
    for label, ts in ((shape, average.grid(77.22, 7722.0, 4001, False)),
                      ("sphere", average.grid(10.0, 1e5, 4001, True))):
        average.avg_error_list(spec(label), ts)
        assert isinstance(spectrum._table(spec(label)).keys, array)
    assert calls == []
    for label, ts in ((shape, average.grid(77.22, 7722.0, average._PY_POINTS + 1, False)),
                      ("lune:m=1000,bc=N", average.grid(5e9, 6e9, 5, False)),
                      ("rectangle:a=1,b=1,bc=N", average.grid(1e5, 1e6, 5, False))):
        calls.clear()
        avg = average.avg_error_list(spec(label), ts)
        assert calls == [len(ts)]
        assert avg == grid_engine(spec(label), ts).tolist()
    assert isinstance(spectrum._table(spec("lune:m=1000,bc=N")).keys, array)
    assert type(spectrum._table(spec("rectangle:a=1,b=1,bc=N")).keys).__module__ == "numpy"


def test_engine_rule_counts_levels_as_times(monkeypatch):
    # the Python engine sums at most _PY_POINTS levels as well as times:
    # below a round table's level count, the same times go to numpy, whose
    # floats are the Python engine's bit for bit
    sp = spec("lune:m=5,bc=N")
    ts = average.grid(100.0, 1e4, 50, False)
    want = average.avg_error_list(sp, ts)
    xs, gs = average.profile(sp, 20.0, 100.0, 51)
    assert isinstance(gs, list) and average._lists(sp, 1e4, 51) is not None
    monkeypatch.setattr(average, "_PY_POINTS", 60)
    assert len(spectrum.levels(sp, 1e4)) > 60
    assert average._lists(sp, 1e4, 51) is None
    assert average._lists(sp, 100.0, 51) is not None  # 10 levels
    assert average.avg_error_list(sp, ts) == want
    got_xs, got = average.profile(sp, 20.0, 100.0, 51)
    assert isinstance(got, np.ndarray)
    assert (got_xs.tolist(), got.tolist()) == (xs, gs)


ROSTER = catalog.verification_roster()


def test_streamed_sums_match_the_whole_table_bit_for_bit(monkeypatch):
    # with blocks of 3 levels and 4 times, the streamed averaged error and
    # window sup equal the whole-table computation exactly on every roster
    # surface: at levels, at block edges, next to levels, and below the
    # first positive level
    monkeypatch.setattr(spectrum, "_LEVELS", 3)
    monkeypatch.setattr(spectrum, "_CHUNK", 4)
    monkeypatch.setattr(average, "_PY_POINTS", 0)  # the streamed engine
    for sp in ROSTER:
        top = 1000.0 / float(asymptotics.surface_constants(sp).A)
        vals, _ = spectrum.level_arrays(sp, top)
        first = vals[vals > 0][0]
        ts = np.concatenate((
            np.linspace(first / 4, first, 3, endpoint=False), vals[::5],
            vals[2::3], vals[3::3], np.nextafter(vals[1::7], np.inf),
            np.nextafter(vals[2::7], 0), np.geomspace(top / 1000, top, 50)))
        ts = np.sort(ts[ts > 0])
        assert np.array_equal(average.avg_error_grid(sp, ts),
                              avg_error_grid_whole(sp, ts)), sp
        lo = top / 20
        grid = np.concatenate((np.geomspace(lo, top, 40), vals[(vals > lo)][::4]))
        assert average.window_sup(sp, lo, top, grid) == window_sup_whole(
            sp, lo, top, grid), sp


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_window_blocks_join_to_the_whole_window_samples(monkeypatch, levels):
    # with blocks of 1, 2 and 3 levels, the batches of _window_residuals
    # joined are the sorted, unique samples of the whole window on every
    # roster surface, with grid points on levels, on midpoints, next to
    # both, on block edges and on the window's ends
    monkeypatch.setattr(spectrum, "_LEVELS", levels)
    for sp in ROSTER:
        top = 200.0 / float(asymptotics.surface_constants(sp).A)
        vals, _ = spectrum.level_arrays(sp, top)
        lo = top / 20
        mids = 0.5 * (vals[1:] + vals[:-1])
        grid = np.concatenate((
            np.geomspace(lo, top, 30), vals[::3], mids[1::4], vals[levels - 1::levels],
            np.nextafter(vals[::5], np.inf), np.nextafter(vals[1::5], 0),
            np.nextafter(mids[::6], np.inf), np.nextafter(mids[2::6], 0), [lo, top]))
        ts = np.concatenate([ts for ts, _ in average._window_residuals(sp, lo, top, grid)])
        assert np.array_equal(ts, window_samples(vals, lo, top, grid)), sp


def test_window_fits_match_the_whole_window_bit_for_bit(monkeypatch):
    # the decay fit over blocks of 64 levels (a round table at 1e6 has
    # about a thousand) gives the floats of its whole-table computation
    monkeypatch.setattr(spectrum, "_LEVELS", 64)
    monkeypatch.setattr(average, "_PY_POINTS", 0)  # the streamed engine
    rounds = [sp for sp in ROSTER if catalog.is_spherical(sp)]
    assert len(rounds) == 36
    for sp in rounds:
        assert average.remainder_exponent(sp, 1e3, 1e6) == remainder_exponent_whole(
            sp, 1e3, 1e6), sp
    sp = spec("rectangle:a=1,b=1,bc=N")
    assert average.remainder_exponent(sp, 100.0, 1e4) == remainder_exponent_whole(
        sp, 100.0, 1e4)


def _traced_peak(fn, *args):
    """tracemalloc's peak while fn(*args) runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_streamed_sums_hold_blocks_not_tables(monkeypatch):
    # the averaged error, the window sup and the decay fit over a table of
    # 24k levels allocate a few blocks and the grid, not arrays as long as
    # the table
    monkeypatch.setattr(spectrum, "_LEVELS", 1024)
    monkeypatch.setattr(spectrum, "_CHUNK", 1024)
    sp = spec("rectangle:a=1,b=1,bc=N")
    tb = spectrum._table(sp)
    assert tb.index(tb.qmax(1e6)) > 20000  # built here: the table is not measured
    ts = np.geomspace(1.0, 1e6, 2000)
    grid = np.geomspace(1e5, 1e6, 1200)
    blocks = 32 * 8 * 1024
    assert _traced_peak(average.avg_error_grid, sp, ts) < blocks + 8 * 8 * ts.size
    assert _traced_peak(average.window_sup, sp, 1e5, 1e6, grid) < blocks + 8 * 8 * grid.size
    fit_grid = 160 * 6  # the decay fit's log grid over six dyadic windows
    assert _traced_peak(average.remainder_exponent, sp, 1e4, 1e6) < blocks + 8 * 8 * fit_grid


def test_profile_holds_one_chunk_beside_its_outputs(monkeypatch):
    # the flat conjecture's 60001-point profile fills its two outputs chunk
    # by chunk: above them it holds one chunk's times and one block's sums,
    # never a second copy of the profile
    monkeypatch.setattr(spectrum, "_LEVELS", 1024)
    monkeypatch.setattr(spectrum, "_CHUNK", 1024)
    sp = spec("flat_torus_rect:a=1,b=1")
    spectrum.count(sp, 800.0 ** 2)  # built here: the table is not measured
    xs, gs = average.profile(sp, 200.0, 800.0, 60001)
    assert isinstance(gs, np.ndarray) and gs.size == 60001  # the numpy engine
    outputs = xs.nbytes + gs.nbytes
    assert _traced_peak(average.profile, sp, 200.0, 800.0, 60001) < outputs + 32 * 8 * 1024


def test_top_decade_sup_holds_less_than_the_scan():
    # the flat conjecture's top decade sup on the unit torus streams 219k
    # levels in blocks of 4096, 0.7 MB, where blocks of 32768 took 4.7 MB:
    # below the Fourier scan's four 2^14-long complex buffers (1 MiB)
    sp = spec("flat_torus_rect:a=1,b=1")
    spectrum.count(sp, 1e7)  # built here: the table is not measured
    grid = average.grid(1e6, 1e7, 1200, True)
    assert _traced_peak(average.window_sup, sp, 1e6, 1e7, grid) <= 4 * 16 * 2**14


def test_independent_quadrature_rectangle():
    # step integral summed interval by interval, smooth part integrated by
    # composite Simpson in the variable u = sqrt(s); nothing shared with
    # the closed-form antiderivative inside avg_error_grid.
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
    fs = smooth_count(rc, us * us) * 2.0 * us
    h = us[1] - us[0]
    simpson = h / 3.0 * (fs[0] + fs[-1] + 4.0 * fs[1:-1:2].sum()
                         + 2.0 * fs[2:-2:2].sum())
    avg = average.avg_error_grid(sp, [t])[0]
    assert avg * t == pytest.approx(step_int - simpson, abs=1e-6)


# ---------------------------------------------------------------------------
# sphere closed form and its decomposition


def test_sphere_closed_form_matches_avg_error():
    rng = np.random.default_rng(2026)
    ts = np.sort(rng.uniform(1.0, 1e6, 2000))
    worst = np.max(np.abs(average.avg_error_grid(SPHERE, ts)
                          - sphere_avg_closed_form(ts)))
    assert worst <= 1e-9


def test_sphere_closed_form_window_endpoints():
    for k in [1, 2, 5, 30]:
        t = float(k * k + k)
        left = sphere_avg_closed_form(t - 1e-9)
        right = sphere_avg_closed_form(t + 1e-9)
        assert left == pytest.approx(right, abs=1e-7)


def test_decomposition_identity_float():
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(0.5, 1e6, 4000))
    closed = sphere_avg_closed_form(ts)
    dec = sphere_avg_decomposed(ts)
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
    assert sphere_g(7.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert sphere_g(7.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert average.leading_profile(SPHERE, 7.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    # exact mean over one period: 1/6 - 2 * (integral of r^2) = 1/6 - 2/12
    assert Fraction(1, 6) - 2 * Fraction(1, 12) == 0
    # numerical check: Simpson over each smooth half of [k, k+1]
    for k in [3, 11]:
        total = 0.0
        for lo, hi in [(k, k + 0.5), (k + 0.5, k + 1.0)]:
            xs = np.linspace(lo, hi, 2001)
            fs = sphere_g(xs)
            h = xs[1] - xs[0]
            total += h / 3.0 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum()
                                + 2 * fs[2:-2:2].sum())
        assert abs(total) < 1e-12


def test_sphere_window_means_shrink():
    for window in [100.0, 200.0, 400.0]:
        ts = np.linspace(window, 2 * window, 20001)
        mean = float(np.mean(sphere_avg_closed_form(ts)))
        assert abs(mean) <= 5.0 / window


def test_closed_form_rejects_nonpositive():
    with pytest.raises(ValueError):
        sphere_avg_closed_form(0.0)
    with pytest.raises(ValueError):
        sphere_avg_decomposed(-2.0)


# ---------------------------------------------------------------------------
# profile samples


def test_g_samples_sphere_near_profile():
    xs, out = average.profile(SPHERE, 10.0, 10.5, 2)
    assert xs == [10.0, 10.5]
    assert abs(out[0] - 1.0 / 6.0) <= 1.5 / 10.0
    assert abs(out[1] + 1.0 / 3.0) <= 1.5 / 10.0
    # on the sphere g_est is the averaged error itself, bit for bit
    xs = np.array(xs)
    assert out == average.avg_error_grid(SPHERE, xs * xs - 0.25).tolist()


def test_g_samples_flat_torus_bound():
    # regression bound: measured sup was 1.423 on this grid
    ftr = spec("flat_torus_rect:a=1,b=1")
    xs, out = average.profile(ftr, 100.0, 200.0, 4001)
    assert np.array_equal(xs, np.linspace(100.0, 200.0, 4001))
    assert np.max(np.abs(out)) <= 2.9
    # on a flat surface g_est is A(x^2) sqrt(x), bit for bit
    xs = np.asarray(xs)
    assert np.array_equal(out, average.avg_error_grid(ftr, xs * xs) * np.sqrt(xs))


def test_g_samples_validation(monkeypatch):
    # a grid that does not strictly ascend is refused on either engine
    for py_points in (1 << 16, 0):
        monkeypatch.setattr(average, "_PY_POINTS", py_points)
        with pytest.raises(ValueError, match="strictly ascending"):
            average.profile(SPHERE, 1.0, 1.0000000000000002, 5)
    # the other refusals come before the table is read
    monkeypatch.setattr(spectrum, "_table", None)
    for lo, hi, n, match in [
        (2.0, 2.0, 5, "positive and ascending"),
        (-1.0, 2.0, 5, "positive and ascending"),
        (math.nan, 2.0, 5, "positive and ascending"),
        (2.0, 3.0, 1, "at least two samples"),
        (0.4, 0.45, 5, "must exceed 1/2"),
        (1.0, 1e200, 5, r"grid value 1e\+200 is too large: its square overflows"),
    ]:
        with pytest.raises(ValueError, match=match):
            average.profile(SPHERE, lo, hi, n)
    with pytest.raises(ValueError, match="its square underflows to 0"):
        average.profile(spec("rectangle:a=1,b=1,bc=N"), 1e-300, 1.0, 3)


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
    want = 0.5 * sphere_g(x) + np.array([1.0, -1.0]) * 0.2
    assert np.allclose(average.leading_profile(ps, x), want, atol=1e-12)


@pytest.mark.parametrize("label", ["sphere", "projective_sphere", "mobius_band:a=1,b=1,bc=D"])
def test_leading_profile_of_a_number_is_that_of_an_array(label):
    # a scalar x gives the value a one-element array gives, on the sphere,
    # on the projective sphere's sawtooth and on a flat surface
    for x in (300.0, 300.3, 17.7):
        one = average.leading_profile(spec(label), x)
        assert np.ndim(one) == 0
        assert float(one) == average.leading_profile(spec(label), np.array([x]))[0], x


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


def test_sawtooth_weight_over_the_roster():
    # the weight is nonzero exactly where an alternating slope survives:
    # the projective sphere's even degrees and the half lunes of even m in
    # the roster, signed by the equator
    for s in catalog.verification_roster():
        if not catalog.is_spherical(s):
            continue
        if s.label() == "projective_sphere":
            want = 1.0
        elif s.family is catalog.Family.HALF_LUNE and s.m in (2, 4):
            want = (1.0 if s.bc_equator == "N" else -1.0) / (2 * s.m)
        else:
            want = 0.0
        assert average._alternating_weight(s) == want, s.label()


def test_sawtooth_weight_refuses_other_slopes(monkeypatch):
    # a slope that wobbles with period 3 is no alternating sawtooth: the
    # reference walk refuses it
    cum = spherical._sph_cum
    monkeypatch.setattr(spherical, "_sph_cum", lambda s, k: cum(s, k) + k * (k % 3))
    with pytest.raises(ArithmeticError):
        alternating_weight_fractions(SPHERE)


def test_sawtooth_weight_matches_the_fraction_reference():
    # the closed form is the float of a walk over one period of window
    # counts on every round surface of the sweep, zero and nonzero alike,
    # and on half lunes of odd and even m past 1000
    sweep = round_sweep() + [catalog.half_lune(m, side, eq)
                             for m in (1001, 1002) for side in "ND" for eq in "ND"]
    for s in sweep:
        assert average._alternating_weight(s) == alternating_weight_fractions(s), s.label()


@pytest.mark.parametrize("name", list(WEIGHT_MUTATIONS))
def test_conjecture_catches_a_wrong_sawtooth_weight(monkeypatch, name):
    # each mutant fails exactly its registered records; `freq` misses the
    # sign flip and 1/m, since its tolerance 2 max|g - lead| grows with
    # the wrong lead
    mutate, want = WEIGHT_MUTATIONS[name]
    monkeypatch.setattr(average, "_alternating_weight", mutate(average._alternating_weight))
    for label in WEIGHT_SURFACES:
        checks = average.conjecture_checks(spec(label), MUTATION_SEED)[1]
        failed = {n for n, _, _, ok in checks if not ok}
        assert failed == want.get(label, set()), (label, [
            "%s %.6g against %s" % (n, v, b) for n, v, b, _ in checks])


def test_round_conjecture_reads_as_many_window_counts_at_any_order(monkeypatch):
    # the sawtooth weight and the lengths line are closed forms: a lune of
    # order 10^10 reads the window counts of a table to 1e6 and no more,
    # and prints a report as short as m = 5's
    cum = spherical._sph_cum
    reads, reports = [], []
    for m in (5, 10 ** 10):
        calls = []
        monkeypatch.setattr(spectrum, "_TABLES", {})
        monkeypatch.setattr(spherical, "_sph_cum", lambda s, k: calls.append(k) or cum(s, k))
        reports.append(average.conjecture_checks(catalog.lune(m, "D"), 3)[0])
        reads.append(len(calls))
    assert reads[0] == reads[1] > 0
    assert len(reports[0]) == len(reports[1])
    assert all(len("\n".join(r).encode()) < 2048 for r in reports)


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


def test_sphere_unsubtracted_error_is_flatline():
    # without the leading profile subtracted the sphere's averaged error
    # does not decay: its sup is about 1/3 on an early and a late window
    for lo, hi in [(1e3, 2e3), (5e5, 1e6)]:
        vals, _ = spectrum.level_arrays(SPHERE, hi)
        ts = window_samples(vals, lo, hi, np.geomspace(lo, hi, 1000))
        assert 0.3 <= np.max(np.abs(average.avg_error_grid(SPHERE, ts))) <= 0.4


def test_remainder_exponent_flat_envelope():
    slope = average.remainder_exponent(spec("rectangle:a=1,b=1,bc=N"),
                                       1e3, 1e6)
    assert -0.4 <= slope <= -0.1


def test_remainder_exponent_counts_whole_windows(monkeypatch):
    # the dyadic windows are counted exactly: a hair under 2^10 times t_lo
    # holds nine, none sampled past t_hi, and 2^10 times t_lo holds ten, on
    # the Python engine's samples and on the streamed ones
    top = []
    residuals = average._window_residuals

    def recording(sp, lo, hi, grid):
        for ts, r in residuals(sp, lo, hi, grid):
            top.append(float(ts[-1]))  # a batch is sorted
            yield ts, r

    monkeypatch.setattr(average, "_window_residuals", recording)
    for py_points in (average._PY_POINTS, 0):
        monkeypatch.setattr(average, "_PY_POINTS", py_points)
        for t_hi, n_win in ((1000 * 1024 * (1 - 1e-12), 9), (1000.0 * 1024, 10)):
            top.clear()
            average.remainder_exponent(SPHERE, 1000.0, t_hi)
            assert max(top) == 1000.0 * 2 ** n_win <= t_hi


def test_remainder_exponent_validation():
    with pytest.raises(ValueError):
        average.remainder_exponent(SPHERE, 1000.0, 3000.0)
    with pytest.raises(ValueError):
        # ratio 5 gives only two full dyadic windows
        average.remainder_exponent(SPHERE, 1000.0, 5000.0)
    with pytest.raises(ValueError):
        average.remainder_exponent(SPHERE, 0.0, 1000.0)
    with pytest.raises(ValueError, match="finite"):
        # refused before doubling t_lo past the float range
        average.remainder_exponent(SPHERE, 1000.0, math.inf)


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


# ---------------------------------------------------------------------------
# the Python engine beside numpy, and the lines of the leading profile

ROUND = [sp for sp in ROSTER if catalog.is_spherical(sp)]


def test_window_samplers_agree_across_engines(monkeypatch):
    # the decade sup and the decay fit give the same floats on Python
    # floats and on numpy on every round roster surface, given one grid:
    # their steps are correctly rounded in both, t^{1/4} as sqrt(sqrt(t))
    assert len(ROUND) == 36
    grid = np.geomspace(1e4, 1e5, 1200).tolist()
    for sp in ROUND:
        monkeypatch.setattr(average, "_PY_POINTS", 1 << 16)
        assert average._lists(sp, 1e6, len(grid)) is not None  # the Python engine
        py = [average.window_sup(sp, 1e4, 1e5, grid), average.remainder_exponent(sp, 1e3, 1e6)]
        monkeypatch.setattr(average, "_PY_POINTS", 0)
        assert [average.window_sup(sp, 1e4, 1e5, grid),
                average.remainder_exponent(sp, 1e3, 1e6)] == py, sp


def _joined_chunks_bits(sp, lo, hi, n):
    """The bytes of `profile_chunks`' xs and g_est, each joined whole."""
    xs, gs = zip(*average.profile_chunks(sp, lo, hi, n))
    return [np.concatenate([np.asarray(c, dtype=np.float64) for c in v]).tobytes()
            for v in (xs, gs)]


def test_profile_lists_match_numpy(monkeypatch):
    # the profile on Python floats is the profile on numpy, each engine's
    # the joined chunks of `profile_chunks` bit for bit, and window_mean on
    # its lists and on its arrays is one float, the correctly rounded sum
    # of np.trapezoid's terms over the span
    monkeypatch.setattr(spectrum, "_TABLES", {})  # tables in array('q')
    for label in ("sphere", "projective_sphere", "rectangle:a=1,b=1,bc=N",
                  "mobius_band:a=1,b=1,bc=D"):
        monkeypatch.setattr(average, "_PY_POINTS", 1 << 16)
        xs, gs = average.profile(spec(label), 100.0, 200.0, 8001)
        assert isinstance(gs, list), label  # the Python engine
        assert [np.array(v).tobytes() for v in (xs, gs)] == _joined_chunks_bits(
            spec(label), 100.0, 200.0, 8001), label
        monkeypatch.setattr(average, "_PY_POINTS", 0)
        np_xs, np_gs = average.profile(spec(label), 100.0, 200.0, 8001)
        assert [np_xs.tobytes(), np_gs.tobytes()] == _joined_chunks_bits(
            spec(label), 100.0, 200.0, 8001), label
        assert (np_xs.tolist(), np_gs.tolist()) == (xs, gs), label
        terms = np.diff(np_xs) * (np_gs[1:] + np_gs[:-1]) / 2.0
        want = math.fsum(terms.tolist()) / (xs[-1] - xs[0])
        assert (analysis.window_mean(analysis.APProfile(xs, gs))
                == analysis.window_mean(analysis.APProfile(np_xs, np_gs)) == want), label


def test_window_mean_is_correctly_rounded():
    # terms 1e16, 1/2, 1/2, 0, ..., 0, -1e16 sum exactly to 1: numpy's
    # pairwise sum rounds away the halves it adds to 1e16 and gives 0
    xs = np.arange(200.0)
    gs = np.zeros(200)
    gs[0], gs[2], gs[-1] = 2e16, 1.0, -2e16
    assert float(np.trapezoid(gs, xs)) == 0.0
    assert (analysis.window_mean(analysis.APProfile(xs, gs))
            == analysis.window_mean(analysis.APProfile(xs.tolist(), gs.tolist())) == 1 / 199)


@pytest.mark.parametrize("label", ["hemisphere:bc=D", "sphere", "rectangle:a=1,b=1,bc=D",
                                   "mobius_band:a=1,b=1,bc=N"])
def test_one_walk_sampler_matches_the_grid_engine(monkeypatch, label):
    # the Python engine walks the ascending times once; at a level's own
    # value the level counts (searchsorted's side="right"), and times
    # below the first level, past the last one, repeated and alone give
    # the numpy engine's floats exactly
    monkeypatch.setattr(spectrum, "_TABLES", {})
    sp = spec(label)
    top = 3000.0 / float(asymptotics.surface_constants(sp).A)
    vals = spectrum.level_arrays(sp, top)[0].tolist()
    first, last = next(v for v in vals if v > 0), vals[-1]
    grids = [[first], [first / 2], [last], [0.5 * first, 0.75 * first, first, first],
             sorted(vals[1:40] * 2), [float(np.nextafter(v, 0)) for v in vals[1:40]],
             [float(np.nextafter(v, np.inf)) for v in vals[1:40]],
             [first / 3] + vals[1::7] + [last, last, 1.5 * last, 2.0 * last]]
    for ts in grids:
        assert average._lists(sp, ts[-1], len(ts)) is not None  # the Python engine
        assert average.avg_error_list(sp, ts) == average.avg_error_grid(sp, ts).tolist(), ts


# the window means of `conjecture`, on a round surface with no level in its
# windows (the lune), a unit torus, a thin rectangle and a cylinder whose
# levels are close
EXACT_MEANS = ["sphere", "lune:m=1000,bc=D", "flat_torus_rect:a=1,b=1",
               "rectangle:a=1,b=1/10,bc=N", "cylinder:a=1,b=1,bc=M"]


@pytest.mark.parametrize("label", EXACT_MEANS)
def test_exact_window_means_match_the_gauss_reference(label):
    # the level-sum integrals, a closed form on flat surfaces and 8-node
    # Gauss on round ones, within their stated rounding bound plus the
    # reference's of 16-node Gauss between the kinks in longdouble; the
    # bounds are tight enough to matter (below 1e-7)
    sp = spec(label)
    for X in (100, 200, 400):
        mean, err = average.exact_window_mean(sp, X, 2 * X)
        want, ref_err = window_mean_gauss(sp, X, 2 * X)
        assert abs(mean - want) <= err + ref_err, (X, mean, want, err, ref_err)
        assert err < 1e-7


def test_exact_window_means_of_the_sphere_fall_as_x_squared():
    # the trapezoid read -4.95e-5, -2.08e-4 and -8.33e-4 here: a bias of
    # A h^2 / 3 from samples on the kinks, growing fourfold per window; a
    # window that is empty, starts at 0, or starts below x = 10 on a round
    # surface, where the Gauss rule's stated error does not hold, is refused
    means = [average.exact_window_mean(SPHERE, X, 2 * X)[0] for X in (100, 200, 400)]
    assert [round(m * X * X, 4) for m, X in zip(means, (100, 200, 400))] == [0.026] * 3
    for sp, lo, hi in ((SPHERE, 5.0, 10.0), (SPHERE, 20.0, 20.0),
                       (spec("rectangle:a=1,b=1,bc=N"), 0.0, 10.0)):
        with pytest.raises(ValueError, match="0 < lo < hi, and lo >= 10"):
            average.exact_window_mean(sp, lo, hi)


def test_exact_flat_mean_holds_blocks_not_tables(monkeypatch):
    # the flat window integral streams the levels in blocks, holding no
    # array or list as long as the 24k levels below b = 1e6
    monkeypatch.setattr(spectrum, "_LEVELS", 1024)
    sp = spec("rectangle:a=1,b=1,bc=N")
    tb = spectrum._table(sp)
    assert tb.index(tb.qmax(1e6)) > 20000  # built here: the table is not measured
    assert _traced_peak(average.exact_window_mean, sp, 300.0, 1000.0) < 32 * 8 * 1024


@pytest.mark.parametrize("label, want", [
    ("sphere", [(100.0, 200.0, 8001)]), ("hemisphere:bc=N", [(100.0, 200.0, 8001)]),
    ("flat_torus_rect:a=1,b=1", [(200.0, 800.0, 60001)]),
    ("rectangle:a=1,b=1,bc=N", [(200.0, 800.0, 60001)])])
def test_conjecture_samples_one_profile(monkeypatch, label, want):
    # the mean records read the level sums: a round conjecture samples only
    # its line check's profile, a flat one only its scan's, made through
    # analysis.make_profile
    from spectralab import analysis

    calls, made = [], []
    sampler, maker = average.profile, analysis.make_profile

    def counting(sp, lo, hi, n):
        calls.append((float(lo), float(hi), n))
        return sampler(sp, lo, hi, n)

    def making(sp, lo, hi, n):
        made.append(n)
        return maker(sp, lo, hi, n)

    monkeypatch.setattr(average, "profile", counting)
    monkeypatch.setattr(analysis, "make_profile", making)
    average.conjecture_checks(spec(label), 0)
    assert calls == want
    assert made == ([] if catalog.is_spherical(spec(label)) else [60001])


def test_slope_is_a_least_squares_fit():
    # the decay fit's slope against np.polyfit on seeded data
    rng = np.random.default_rng(9)
    for n in (2, 3, 9, 40):
        xs = np.sort(rng.uniform(5.0, 15.0, n))
        ys = -0.5 * xs + rng.normal(0.0, 0.3, n)
        want = float(np.polyfit(xs, ys, 1)[0])
        assert average._slope(xs.tolist(), ys.tolist()) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("label", ["sphere", "projective_sphere",
                                   "half_lune:m=2,bc_side=N,bc_equator=D", "lune:m=3,bc=D"])
def test_profile_lines_are_the_leading_profile_series(label):
    # sampled from the leading profile itself, the profile's coefficients
    # at the multiples of pi up to 30 are the closed-form lines up to the
    # aliases: the line check's tolerance with no residual term
    sp = spec(label)
    xs = average.grid(100.0, 200.0, 8001, False)
    gs = [average.leading_profile(sp, x) for x in xs]
    rows, dev, tol = average.line_check(sp, xs, gs, 30.0)
    assert dev <= tol + 1e-12
    assert [m for m, _, _ in rows] == (list(range(2, 10, 2)) if not average._alternating_weight(sp)
                                       else list(range(1, 10)))


def test_round_lines_hold_on_the_roster():
    # every line of every round roster surface sits at a geodesic length,
    # decided on exact multiples of pi, and the measured coefficients stay
    # within half their tolerance
    for sp in ROUND:
        rows, dev, tol = average.line_check(sp, *average.profile(sp, 100.0, 200.0, 8001), 30.0)
        step = asymptotics.orbit_step(sp)
        assert all(Fraction(m) % step == 0 for m, _, _ in rows), sp
        assert dev <= 0.5 * tol, sp


def test_line_check_needs_whole_periods():
    for xs in (average.grid(100.0, 201.0, 8081, False), average.grid(100.0, 200.0, 8000, False)):
        with pytest.raises(ValueError, match="whole number"):
            average.line_check(SPHERE, xs, [0.0] * len(xs), 30.0)
