"""Top-level acceptance gate: one test per shipped guarantee.

Each test states its tolerance inline; the regression bounds are pinned
at roughly twice the values measured at the time the suite was written,
so a real change in behavior trips them while grid jitter does not.
"""

import math
import time
from fractions import Fraction

import numpy as np

from spectralab import analysis, asymptotics, average, catalog, oracle, spectrum
from spectralab.exact import ExactConst

from reference_formulas import polygon_corner_limit, sphere_avg_closed_form

F = Fraction
PI = ExactConst.term(F(1), pi_pow=1)


def _rat(q):
    return ExactConst.rational(F(q))


def _decade_sup(spec, t_lo, t_hi):
    vals, _ = spectrum.level_arrays(spec, t_hi)
    inside = vals[(vals > t_lo) & (vals <= t_hi)]
    mids = 0.5 * (inside[1:] + inside[:-1]) if inside.size > 1 else np.empty(0)
    ts = np.unique(np.concatenate((inside, mids, np.geomspace(t_lo, t_hi, 1200))))
    ts = ts[(ts >= t_lo) & (ts <= t_hi)]
    avg = average.avg_error_grid(spec, ts)
    return float(np.max(np.abs(avg) * ts ** 0.25))


def test_01_corner_weight_exact_fixtures():
    start = time.perf_counter()
    assert asymptotics.psi(PI * F(1, 2)) == F(1, 16)
    assert asymptotics.psi(PI * F(1, 4)) == F(5, 32)
    assert asymptotics.psi(PI * F(1, 3)) == F(1, 9)
    assert asymptotics.psi(PI * F(1, 6)) == F(35, 144)
    assert asymptotics.psi(PI) == 0
    assert time.perf_counter() - start < 1.0


def test_02_refined_constant_table_exact():
    # surface_constants derives (A, B, C) from the geometry and compares it
    # against the counting formula (the oracle-verified closed form on flat
    # surfaces, the family's formulas in m on round ones), raising on any
    # mismatch; sweeping it over every (family, bc) combination is the
    # equality check
    start = time.perf_counter()
    combos = (
        [catalog.rectangle(1, 1, bc) for bc in ("N", "D", "ND")]
        + [catalog.right_iso_triangle(1, bc) for bc in ("N", "D", "ND", "DN")]
        + [catalog.equilateral_triangle(bc) for bc in ("N", "D")]
        + [catalog.triangle_306090(bc) for bc in ("N", "D", "ND", "DN")]
        + [catalog.flat_torus_rect(1, 1), catalog.flat_torus_hex()]
        + [catalog.cylinder(1, 1, bc) for bc in ("N", "D", "M")]
        + [catalog.mobius_band(1, 1, bc) for bc in ("N", "D")]
        + [catalog.flat_projective_plane(), catalog.tetrahedron_surface()]
        + [catalog.half_tetrahedron(bc) for bc in ("N", "D")]
        + [catalog.sphere(), catalog.projective_sphere()]
        + [catalog.hemisphere(bc) for bc in ("N", "D")]
        + [catalog.lune(2, bc) for bc in ("N", "D")]
        + [catalog.half_lune(2, s, e) for s in ("N", "D") for e in ("N", "D")]
        + [catalog.glued_lune(2)]
    )
    assert len(combos) >= 25
    rows = {}
    for spec in combos:
        rows[spec.label()] = asymptotics.surface_constants(spec)
    # spot checks of the printed values themselves
    assert rows["sphere"].A == _rat(1)
    assert rows["sphere"].C == _rat(F(1, 3))
    assert rows["hemisphere:bc=N"].B == _rat(F(1, 2))
    assert rows["hemisphere:bc=D"].B == _rat(F(-1, 2))
    assert rows["triangle_306090:bc=ND"].C == _rat(F(-1, 12))
    assert rows["rectangle:a=1,b=1,bc=N"].A == ExactConst.term(F(1, 4), pi_pow=-1)
    assert rows["rectangle:a=1,b=1,bc=N"].B == ExactConst.term(F(1), pi_pow=-1)
    assert rows["rectangle:a=1,b=1,bc=N"].C == _rat(F(1, 4))
    assert rows["equilateral_triangle:bc=N"].A == ExactConst.term(F(1, 16), 3, -1)
    assert rows["equilateral_triangle:bc=N"].C == _rat(F(1, 3))
    assert rows["lune:m=2,bc=N"].C == _rat(F(5, 24))
    assert rows["glued_lune:m=2"].C == _rat(F(5, 12))
    assert rows["tetrahedron_surface"].C == _rat(F(1, 2))
    assert rows["flat_projective_plane"].C == _rat(F(1, 4))
    assert time.perf_counter() - start < 1.0


def test_03_counting_identities_match_brute_force():
    # one representative per family; the check compares the whole level
    # table against brute enumeration, then the table count and the
    # closed-form count at 10000 random jump and midpoint times
    start = time.perf_counter()
    reps = [
        catalog.flat_torus_rect(1, 1),
        catalog.flat_torus_hex(),
        catalog.rectangle(1, 1, "N"),
        catalog.right_iso_triangle(1, "N"),
        catalog.equilateral_triangle("N"),
        catalog.triangle_306090("ND"),
        catalog.cylinder(1, 1, "N"),
        catalog.mobius_band(1, 1, "N"),
        catalog.flat_projective_plane(),
        catalog.tetrahedron_surface(),
        catalog.half_tetrahedron("N"),
        catalog.symmetry_sector("square_torus", "++"),
        catalog.sphere(),
        catalog.hemisphere("N"),
        catalog.projective_sphere(),
        catalog.lune(2, "N"),
        catalog.half_lune(2, "N", "D"),
        catalog.glued_lune(2),
    ]
    for spec in reps:
        T = 10 ** 6 if catalog.is_spherical(spec) else 10 ** 4
        rep = oracle.check_equivalence(spec, T, n_times=10000, seed=11)
        assert rep.ok, f"{spec.label()}: {rep.detail}"
        assert rep.times_checked == 10000
    assert time.perf_counter() - start < 60.0


def test_04_sphere_average_matches_closed_form():
    start = time.perf_counter()
    ts = np.geomspace(1.0, 1e6, 10000)
    avg = average.avg_error_grid(catalog.sphere(), ts)
    closed = sphere_avg_closed_form(ts)
    assert float(np.max(np.abs(avg - closed))) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_05_spherical_decay_exponent_near_minus_half():
    for label in ("sphere", "projective_sphere", "hemisphere:bc=N",
                  "hemisphere:bc=D", "glued_lune:m=2", "lune:m=2,bc=N"):
        spec = catalog.parse_spec(label)
        slope = average.remainder_exponent(spec, 1e3, 1e6)
        assert -0.65 <= slope <= -0.35, f"{label}: slope {slope}"


def test_06_flat_scaled_suprema_bounded_and_stable():
    # sup |avg| t^(1/4) per decade of [1e3, 1e7]: the first and last
    # decades must agree within a factor 2, and the overall sup must stay
    # under a pinned regression bound (about twice the measured value)
    bounds = {
        "rectangle:a=1,b=1,bc=N": 0.85,
        "rectangle:a=1,b=1,bc=D": 0.78,
        "flat_torus_rect:a=1,b=1": 3.25,
        "equilateral_triangle:bc=N": 0.70,
        "equilateral_triangle:bc=D": 0.70,
        "flat_projective_plane": 1.20,
        "tetrahedron_surface": 1.75,
    }
    for label, bound in bounds.items():
        spec = catalog.parse_spec(label)
        sups = [_decade_sup(spec, 10.0 ** d, 10.0 ** (d + 1)) for d in (3, 4, 5, 6)]
        assert max(sups) <= bound, f"{label}: sups {sups}"
        lo, hi = sorted((sups[0], sups[-1]))
        assert hi <= 2.0 * lo, f"{label}: decade drift {sups}"


def test_07_sphere_window_means_vanish():
    # grids aligned with the unit spacing of the kinks so the trapezoid
    # rule does not manufacture a spurious mean
    sph = catalog.sphere()
    for X in (100, 200, 400):
        prof = analysis.make_profile(sph, X, 2 * X, n=2000 * X + 1)
        mean = analysis.window_mean(prof)
        assert abs(mean) <= 5.0 / X, f"window [{X},{2 * X}]: mean {mean}"


def test_08_profile_peaks_at_geodesic_lengths():
    # sphere: both great-circle harmonics; square torus: the three
    # shortest lattice translation lengths; other families report-only
    prof = analysis.make_profile(catalog.sphere(), 100, 200, n=8001)
    prof = analysis.frequency_spectrum(prof, np.linspace(1.0, 30.0, 1451))
    top = [f for f, _, _ in prof.frequencies[:8]]
    for target in (2 * math.pi, 4 * math.pi):
        assert min(abs(f - target) for f in top) <= 0.05
    prof = analysis.make_profile(catalog.flat_torus_rect(1, 1), 200, 800, n=60001)
    prof = analysis.frequency_spectrum(prof, np.linspace(1.0, 10.0, 901))
    top = [f for f, _, _ in prof.frequencies[:8]]
    for target in (2.0, 2.0 * math.sqrt(2.0), 4.0):
        assert min(abs(f - target) for f in top) <= 0.05


def test_09_square_torus_sector_proportions():
    reports = analysis.symmetry_proportions("square_torus", 1e5)
    assert [r.irrep for r in reports] == ["++", "+-", "-+", "--", "2"]
    for r in reports:
        assert abs(r.measured - r.predicted) <= 0.02, r
    assert [r.b_sign for r in reports] == [1, -1, 1, -1, 0]


def test_10_heat_trace_difference_shrinks():
    # binary64 floor: the rectangle's true difference drops below
    # cancellation noise by t = 0.02, so equality at the floor counts
    for label in ("rectangle:a=1,b=1,bc=N", "sphere"):
        spec = catalog.parse_spec(label)
        diffs = []
        for t in (0.1, 0.05, 0.02, 0.01):
            h = asymptotics.heat_trace(spec, t, cutoff=64.0 / t)
            diffs.append(abs(h - asymptotics.smooth_heat_trace(spec, t)))
        for earlier, later in zip(diffs, diffs[1:]):
            assert later <= max(earlier, 1e-12), f"{label}: {diffs}"


def test_11_polygon_corner_weight_limit():
    sixth = F(1, 6)
    worst = max(abs(polygon_corner_limit(n) - sixth) * n
                for n in range(10, 10001))
    assert worst <= 2
