import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectralab import asymptotics, catalog, lattice, spectrum, spherical
from spectralab.asymptotics import (
    ConePoint,
    CornerKind,
    geometry,
    heat_trace,
    psi,
    refined_constants,
    smooth_heat_trace,
    surface_constants,
)
from spectralab.exact import ExactConst

from reference_formulas import polygon_corner_limit, smooth_count


def rat(q):
    return ExactConst.rational(q)


def pi_times(q):
    return ExactConst.term(Fraction(q), pi_pow=1)


def over_pi(q, s=1):
    return ExactConst.term(Fraction(q), root=s, pi_pow=-1)


def root(q, s):
    return ExactConst.term(Fraction(q), root=s)


def test_geometry_flat_tori():
    g = geometry(catalog.flat_torus_rect(1, 1))
    assert g.area == rat(4)
    assert g.len_N == 0 and g.len_D == 0
    assert g.corners == () and g.cone_points == ()
    assert g.K2_total == 0
    g = geometry(catalog.flat_torus_hex())
    assert g.area == root(Fraction(3, 2), 3)


def test_geometry_rectangle_variants():
    g = geometry(catalog.rectangle(1, 1, "N"))
    assert g.len_N == rat(4) and g.len_D == 0
    assert len(g.corners) == 4
    assert all(c.kind == CornerKind.LIKE for c in g.corners)
    assert all(c.angle.as_pi_multiple() == Fraction(1, 2) for c in g.corners)

    g = geometry(catalog.rectangle(2, Fraction(3, 2), "ND"))
    assert g.len_N == rat(4)  # both length-a edges
    assert g.len_D == rat(3)
    assert all(c.kind == CornerKind.MIXED for c in g.corners)

    g = geometry(catalog.rectangle(1, 1, "NM"))
    assert g.len_N == rat(3) and g.len_D == rat(1)
    kinds = sorted(c.kind.value for c in g.corners)
    assert kinds == ["like", "like", "mixed", "mixed"]

    g = geometry(catalog.rectangle(1, 1, "MM"))
    assert g.len_N == rat(2) and g.len_D == rat(2)
    kinds = sorted(c.kind.value for c in g.corners)
    assert kinds == ["like", "like", "mixed", "mixed"]


def test_geometry_triangles():
    g = geometry(catalog.right_iso_triangle(1, "ND"))
    assert g.area == rat(Fraction(1, 2))
    assert g.len_N == rat(2)
    assert g.len_D == root(1, 2)
    # right angle between the Neumann legs is LIKE, the two pi/4 corners MIXED
    by_angle = {c.angle.as_pi_multiple(): c.kind for c in g.corners}
    assert by_angle[Fraction(1, 2)] == CornerKind.LIKE
    assert by_angle[Fraction(1, 4)] == CornerKind.MIXED

    g = geometry(catalog.equilateral_triangle("D"))
    assert g.area == root(Fraction(1, 4), 3)
    assert g.len_D == rat(3)

    g = geometry(catalog.triangle_306090("N"))
    assert g.area == root(Fraction(1, 8), 3)
    assert g.len_N == rat(Fraction(3, 2)) + root(Fraction(1, 2), 3)
    angles = sorted(c.angle.as_pi_multiple() for c in g.corners)
    assert angles == [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]

    g = geometry(catalog.triangle_306090("ND"))
    assert g.len_N == rat(Fraction(3, 2))
    assert g.len_D == root(Fraction(1, 2), 3)


def test_geometry_cylinder_and_band():
    g = geometry(catalog.cylinder(2, 1, "M"))
    assert g.area == rat(2)
    assert g.len_N == rat(2) and g.len_D == rat(2)
    g = geometry(catalog.mobius_band(2, 1, "D"))
    assert g.area == rat(2)
    assert g.len_D == rat(4) and g.len_N == 0


def test_geometry_round_families():
    g = geometry(catalog.sphere())
    assert g.area == pi_times(4) and g.K2_total == pi_times(4)
    g = geometry(catalog.hemisphere("D"))
    assert g.area == pi_times(2) and g.len_D == pi_times(2)
    assert g.len_N == 0 and g.cone_points == ()
    g = geometry(catalog.projective_sphere())
    assert g.area == pi_times(2)

    g = geometry(catalog.lune(3, "D"))
    assert g.area == pi_times(Fraction(2, 3))
    assert g.len_D == pi_times(2)
    assert len(g.corners) == 2
    assert all(c.angle.as_pi_multiple() == Fraction(1, 3) for c in g.corners)
    assert all(c.kind == CornerKind.LIKE for c in g.corners)

    g = geometry(catalog.half_lune(2, "N", "D"))
    assert g.area == pi_times(Fraction(1, 2))
    assert g.len_N == pi_times(1)
    assert g.len_D == pi_times(Fraction(1, 2))
    kinds = sorted(c.kind.value for c in g.corners)
    assert kinds == ["like", "mixed", "mixed"]

    g = geometry(catalog.glued_lune(4))
    assert g.area == pi_times(1)
    assert g.cone_points == (
        ConePoint(pi_times(Fraction(1, 2))),
        ConePoint(pi_times(Fraction(1, 2))),
    )


def test_geometry_polyhedral():
    g = geometry(catalog.flat_projective_plane())
    assert g.area == rat(1)
    assert [c.angle.as_pi_multiple() for c in g.cone_points] == [1, 1]
    g = geometry(catalog.tetrahedron_surface())
    assert g.area == root(1, 3)
    assert len(g.cone_points) == 4
    g = geometry(catalog.half_tetrahedron("N"))
    assert g.area == root(Fraction(1, 2), 3)
    assert g.len_N == rat(1) + root(1, 3)
    assert len(g.corners) == 2 and len(g.cone_points) == 1


def test_geometry_sectors():
    g = geometry(catalog.symmetry_sector("square_d", "++"))
    assert g == geometry(catalog.right_iso_triangle(Fraction(1, 2), "MN"))
    g = geometry(catalog.symmetry_sector("hex_torus", "-"))
    assert g == geometry(catalog.equilateral_triangle("D"))
    g = geometry(catalog.symmetry_sector("equilateral_n", "+"))
    assert g.area == root(Fraction(1, 24), 3)
    assert g.len_N == rat(Fraction(1, 2)) + root(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        geometry(catalog.symmetry_sector("square_torus", "2"))


PSI_FIXTURES = [
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 16)),
    (Fraction(1, 4), Fraction(5, 32)),
    (Fraction(1, 3), Fraction(1, 9)),
    (Fraction(1, 6), Fraction(35, 144)),
]


@pytest.mark.parametrize("mult,value", PSI_FIXTURES)
def test_psi_exact_fixtures(mult, value):
    got = psi(pi_times(mult))
    assert isinstance(got, Fraction)
    assert got == value


def test_psi_domain_errors():
    for bad in (0, -1, 2, Fraction(7, 3)):
        with pytest.raises(ValueError):
            psi(pi_times(bad))
    with pytest.raises(ValueError):
        psi(rat(1))  # exact angles must be multiples of pi


def test_psi_strictly_decreasing_and_signs():
    rng = random.Random(21)
    for _ in range(300):
        lo = Fraction(rng.randint(1, 9999), 10000)
        hi = lo + Fraction(rng.randint(1, 10000), 10000) * (1 - lo)
        assert psi(pi_times(lo)) > psi(pi_times(hi))
    assert psi(pi_times(1)) == 0
    for _ in range(100):
        theta = 1 + Fraction(rng.randint(1, 9999), 10000)
        assert psi(pi_times(theta)) < 0
    # a mixed right angle loses exactly what a like right angle gains
    assert psi(pi_times(1)) - psi(pi_times(Fraction(1, 2))) == Fraction(-1, 16)


def test_polygon_corner_limit_small_cases():
    assert polygon_corner_limit(3) == Fraction(1, 3)
    assert polygon_corner_limit(4) == Fraction(1, 4)
    assert polygon_corner_limit(6) == Fraction(5, 24)
    with pytest.raises(ValueError):
        polygon_corner_limit(2)
    with pytest.raises(TypeError):
        polygon_corner_limit(4.0)


def test_polygon_corner_limit_converges_like_one_over_n():
    sixth = Fraction(1, 6)
    rng = random.Random(3)
    ns = [10, 11, 17, 100, 1000, 10000] + [rng.randint(10, 10000) for _ in range(40)]
    for n in ns:
        gap = abs(polygon_corner_limit(n) - sixth) * n
        assert gap <= 2
    # and the limit really is approached from above, monotonically
    assert polygon_corner_limit(10) > polygon_corner_limit(11) > sixth


def test_every_roster_surface_matches_its_counting_formula():
    for spec in catalog.verification_roster():
        rc = surface_constants(spec)
        assert rc.C == rc.C1 + rc.C2 + rc.C3
        assert rc.sqrt_shift == catalog.is_spherical(spec)


def test_flat_constants_build_no_table(monkeypatch):
    # the closed form is read for its lines only when asked for some
    monkeypatch.setattr(asymptotics, "_CONSTANTS", {})
    monkeypatch.setattr(spectrum, "_TABLES", {})
    for spec in catalog.verification_roster():
        if not catalog.is_spherical(spec):
            surface_constants(spec)
    assert spectrum._TABLES == {}


def test_random_rational_shapes_match_their_closed_forms():
    # the constants read off the closed form against the geometry's, over
    # seeded rational sides and every boundary condition
    F = catalog.Family
    rng = random.Random(17)

    def side():
        return Fraction(rng.randint(1, 60), rng.randint(1, 60))

    makers = [
        (F.RECTANGLE, lambda bc: catalog.rectangle(side(), side(), bc)),
        (F.CYLINDER, lambda bc: catalog.cylinder(side(), side(), bc)),
        (F.MOBIUS_BAND, lambda bc: catalog.mobius_band(side(), side(), bc)),
        (F.RIGHT_ISO_TRIANGLE, lambda bc: catalog.right_iso_triangle(side(), bc)),
    ]
    checked = 0
    for family, make in makers:
        for bc in catalog.BC_CHOICES[family]:
            for _ in range(6):
                spec = make(bc)
                rc = refined_constants(geometry(spec))
                assert asymptotics._read_closed_form(spec)[0] == (rc.A, rc.B, rc.C), spec
                checked += 1
    assert checked == 6 * 17


def test_far_sides_read_their_brackets_at_once():
    # a bracket's sqrt(c2) is a rational times sqrt 1, 2 or 3 however large
    # c2's square part, far past what splitting by trial division can reach
    for spec in (catalog.right_iso_triangle(Fraction(1, 10**200), "MD"),
                 catalog.right_iso_triangle(Fraction(10**150, 7), "ND"),
                 catalog.rectangle(Fraction(1, 10**150), Fraction(10**150, 3), "N")):
        start = time.perf_counter()
        rc = refined_constants(geometry(spec))
        assert asymptotics._read_closed_form(spec)[0] == (rc.A, rc.B, rc.C), spec
        assert time.perf_counter() - start < 0.1, spec


def _window_fit(spec):
    """(A, B, C) of a round surface from its window counts alone: with
    W(k) = a k^2 + beta(k) k + gamma(k), beta and gamma of period 4m, and
    N(t) = W(floor(u)) for u^2 - u = t, A = a, B = mean beta and
    C = a/3 + mean gamma."""
    P = 4 * spec.m

    def W(k):
        return spherical._sph_cum(spec, k)

    leading, betas, gammas = set(), [], []
    for r in range(1, P + 1):
        k0, k1, k2, k3 = (r + j * P for j in range(4))
        a = Fraction(W(k2) - 2 * W(k1) + W(k0), 2 * P * P)
        beta = Fraction(W(k1) - W(k0), P) - a * (k0 + k1)
        gamma = W(k0) - a * k0 * k0 - beta * k0
        assert W(k3) == a * k3 * k3 + beta * k3 + gamma  # period 4m
        leading.add(a)
        betas.append(beta)
        gammas.append(gamma)
    (a,) = leading
    return a, sum(betas) / P, a / 3 + sum(gammas) / P


def test_round_rows_match_the_window_counts():
    for spec in catalog.verification_roster():
        if catalog.is_spherical(spec):
            rc = surface_constants(spec)
            assert (rc.A, rc.B, rc.C) == tuple(map(rat, _window_fit(spec))), spec


def test_constants_spot_values():
    rc = surface_constants(catalog.sphere())
    assert rc.A == rat(1)
    assert rc.B == rat(0)
    assert rc.C == rat(Fraction(1, 3))
    assert rc.C3 == rat(Fraction(1, 3))
    assert rc.sqrt_shift

    rc = surface_constants(catalog.triangle_306090("ND"))
    assert rc.C == rat(Fraction(-1, 12))
    assert rc.B == over_pi(Fraction(3, 8)) - over_pi(Fraction(1, 8), 3)

    rc = surface_constants(catalog.glued_lune(2))
    assert rc.A == rat(Fraction(1, 2))
    assert rc.B == rat(0)
    assert rc.C == rat(Fraction(5, 12))

    rc = surface_constants(catalog.rectangle(1, 2, "ND"))
    assert rc.A == over_pi(Fraction(1, 2))
    assert rc.B == over_pi(Fraction(-1, 2))
    assert rc.C == rat(Fraction(-1, 4))

    rc = surface_constants(catalog.half_lune(3, "N", "D"))
    assert rc.B == rat(Fraction(1, 4) - Fraction(1, 12))
    assert rc.C == rat(Fraction(1, 24) * (3 - Fraction(1, 3)) + Fraction(1, 36)
                       - Fraction(1, 8))


def test_sector_rows_sum_to_their_base():
    for base in catalog.SECTOR_BASES:
        whole = surface_constants(catalog.base_spec(base))
        total_A = rat(0)
        total_B = rat(0)
        total_C = rat(0)
        for irrep in catalog.sector_irreps(base):
            part = surface_constants(catalog.symmetry_sector(base, irrep))
            total_A = total_A + part.A
            total_B = total_B + part.B
            total_C = total_C + part.C
        assert total_A == whole.A
        assert total_B == whole.B
        assert total_C == whole.C


def test_weyl_term_matches_geometry_for_every_surface():
    for spec in catalog.verification_roster():
        if spec.family is catalog.Family.SYMMETRY_SECTOR and spec.irrep == "2":
            continue
        geom = geometry(spec)
        rc = surface_constants(spec)
        assert rc.A * 4 * ExactConst.term(1, pi_pow=1) == geom.area
        assert rc.B * 4 * ExactConst.term(1, pi_pow=1) == geom.len_N - geom.len_D


def _wrong_corner(geom):
    first, *rest = geom.corners
    return geom._replace(corners=(first._replace(angle=first.angle * 2), *rest))


def _lengths_swapped(geom):
    return geom._replace(len_N=geom.len_D, len_D=geom.len_N)


def _cone_dropped(geom):
    return geom._replace(cone_points=geom.cone_points[1:])


def _bracket_flipped(terms):
    return [(-c if term[0] == "floor" else c, term) for c, term in terms]


# each mutation is applied to the top-level call for its surface alone: a
# sector's closed form recurses into its domain's, which must stay intact
GEOMETRY_MUTATIONS = [
    ("right_iso_triangle:a=1,bc=N", asymptotics, "geometry", _wrong_corner),
    ("rectangle:a=1,b=1,bc=N", asymptotics, "geometry", _lengths_swapped),
    ("tetrahedron_surface", asymptotics, "geometry", _cone_dropped),
    ("equilateral_triangle:bc=N", lattice, "_closed_terms", _bracket_flipped),
]


@pytest.mark.parametrize("label,module,name,mutate", GEOMETRY_MUTATIONS,
                         ids=[f"{m[3].__name__[1:]}-{m[0]}" for m in GEOMETRY_MUTATIONS])
def test_mutated_geometry_or_closed_form_is_a_hard_error(monkeypatch, label,
                                                         module, name, mutate):
    spec = catalog.parse_spec(label)
    monkeypatch.setattr(asymptotics, "_CONSTANTS", {})
    surface_constants(spec)  # the unmutated pair agrees
    original = getattr(module, name)

    def mutated(arg, *rest):
        out = original(arg, *rest)
        return mutate(out) if arg == spec else out

    monkeypatch.setattr(asymptotics, "_CONSTANTS", {})
    monkeypatch.setattr(module, name, mutated)
    with pytest.raises(ArithmeticError, match="the counting formula"):
        surface_constants(spec)


def test_round_constants_cost_the_same_at_every_order(monkeypatch):
    monkeypatch.setattr(asymptotics, "_CONSTANTS", {})
    for spec in (catalog.lune(10**6, "N"), catalog.half_lune(10**6, "N", "D"),
                 catalog.glued_lune(10**6)):
        start = time.perf_counter()
        surface_constants(spec)
        assert time.perf_counter() - start < 0.1, spec


def test_constants_are_derived_once_per_surface(monkeypatch):
    # heat asks for a 2-dim sector's constants per cutoff and per time;
    # each surface behind them is derived once
    from spectralab import cli

    calls = []

    def counted(geom):
        calls.append(geom)
        return refined_constants(geom)

    monkeypatch.setattr(asymptotics, "_CONSTANTS", {})
    monkeypatch.setattr(asymptotics, "refined_constants", counted)
    assert cli.main(["heat", "symmetry_sector:base=square_d,irrep=2",
                     "--at", "0.01,0.05,0.1,0.5,1"]) == 0
    assert len(calls) == 5  # the base and its four 1-dim sectors


def test_smooth_count_tracks_the_count():
    # not a tight bound, just that the estimate has the right slope
    for spec in (catalog.rectangle(1, 1, "N"), catalog.sphere(),
                 catalog.lune(3, "D")):
        rc = surface_constants(spec)
        for t in (500.0, 2000.0, 9000.0):
            n = spectrum.count(spec, t)
            assert abs(n - smooth_count(rc, t)) < 4.0 * t ** 0.5


def test_heat_trace_sphere_value():
    manual = sum((2 * k + 1) * math.exp(-k * (k + 1)) for k in range(12))
    got = heat_trace(catalog.sphere(), 1.0, 300.0)
    assert got == pytest.approx(manual, abs=1e-12)
    assert got == pytest.approx(1.4184426, abs=1e-6)


def test_heat_trace_zero_mode_limit():
    assert heat_trace(catalog.sphere(), 50.0, 300.0) == pytest.approx(1.0, abs=1e-15)
    assert heat_trace(catalog.rectangle(1, 1, "N"), 40.0, 600.0) == pytest.approx(1.0, abs=1e-15)
    assert heat_trace(catalog.rectangle(1, 1, "D"), 40.0, 600.0) < 1e-100
    # periodic-antiperiodic mix has no constant mode either
    assert heat_trace(catalog.rectangle(1, 1, "MM"), 40.0, 600.0) < 1e-40


def test_heat_trace_is_correctly_rounded():
    # over 24k levels, a BLAS dot product's last bits depend on its thread
    # count: the trace is the correctly rounded sum of its terms instead
    sp = catalog.rectangle(1, 1, "N")
    vals, mults = spectrum.level_arrays(sp, 1e6)
    assert vals.size > 10**4
    for t in (4e-5, 5e-5, 1e-4):
        terms = [m * e for m, e in zip(mults.tolist(), np.exp(-t * vals).tolist())]
        assert heat_trace(sp, t, 1e6) == math.fsum(terms)


def test_heat_trace_rejects_small_cutoff():
    with pytest.raises(ArithmeticError):
        heat_trace(catalog.sphere(), 0.001, 10.0)
    with pytest.raises(ValueError):
        heat_trace(catalog.sphere(), -1.0, 100.0)
    with pytest.raises(ValueError):
        heat_trace(catalog.sphere(), 1.0, 0.0)


def test_heat_trace_difference_shrinks_toward_zero():
    for spec in (catalog.rectangle(1, 1, "N"), catalog.sphere(),
                 catalog.symmetry_sector("square_n", "2")):
        diffs = []
        for t in (0.1, 0.05, 0.02, 0.01):
            h = heat_trace(spec, t, 6000.0)
            diffs.append(abs(h - smooth_heat_trace(spec, t)))
        # the square's true gap is ~e^{-1/t}, below float resolution for
        # small t, so allow a cancellation floor
        for prev, nxt in zip(diffs, diffs[1:]):
            assert nxt <= max(prev, 1e-12)


def test_heat_trace_difference_decreases_in_high_precision():
    # binary64 cannot see the square's ~1e-22 gap at t=0.02, so redo the
    # comparison with mpmath on both sides
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    old = mp.dps
    mp.dps = 60
    try:
        for spec in (catalog.rectangle(1, 1, "N"), catalog.sphere()):
            rc = surface_constants(spec)
            vals, mults = spectrum.level_arrays(spec, 40000.0)
            # float64 levels carry ~1e-16 relative error, enough to bury the
            # square's ~1e-21 gap; rebuild them exactly from the integer grid
            if catalog.is_spherical(spec):
                lam = [mpmath.mpf(v) for v in vals.tolist()]
            else:
                unit = spectrum._table(spec).unit
                pisq = mpmath.pi ** 2
                lam = []
                for v in vals.tolist():
                    q = int(round(v / math.pi ** 2 / float(unit)))
                    lam.append(pisq * q * unit.numerator / unit.denominator)
            gaps = []
            for t in (mpmath.mpf("0.1"), mpmath.mpf("0.05"),
                      mpmath.mpf("0.02"), mpmath.mpf("0.01")):
                h = mpmath.fsum(int(m) * mpmath.exp(-t * v)
                                for v, m in zip(lam, mults.tolist()))
                ht = (_exact_mp(mpmath, rc.A) / t
                      + mpmath.sqrt(mpmath.pi) / 2 * _exact_mp(mpmath, rc.B)
                      / mpmath.sqrt(t) + _exact_mp(mpmath, rc.C))
                gaps.append(abs(h - ht))
            assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    finally:
        mp.dps = old


def _exact_mp(mpmath, x):
    """ExactConst -> mpf at working precision."""
    total = mpmath.mpf(0)
    for (root, power), coeff in x._terms.items():
        piece = mpmath.mpf(coeff.numerator) / coeff.denominator
        piece *= mpmath.sqrt(root)
        piece *= mpmath.pi ** power
        total += piece
    return total


def test_refined_constants_works_on_raw_geometry():
    geom = geometry(catalog.equilateral_triangle("D"))
    rc = refined_constants(geom)
    assert rc.C1 == rat(Fraction(1, 3))
    assert rc.C2 == rat(0)
    assert rc.C3 == rat(0)
    assert not rc.sqrt_shift


def test_heat_trace_streams_its_table(monkeypatch):
    # the envelope and the sum read the table a block of levels at a time:
    # over 91k levels in blocks of 1024 they allocate a few blocks, where
    # whole-table arrays and the list of terms took 5.1 MB
    monkeypatch.setattr(spectrum, "_LEVELS", 1024)
    sp = catalog.rectangle(1, 1, "N")
    vals, mults = spectrum.level_arrays(sp, 4e6)  # built here: not measured
    assert vals.size > 90000
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        heat = heat_trace(sp, 1e-5, 4e6)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert heat == math.fsum((np.exp(-1e-5 * vals) * mults).tolist())
    assert peak < 400_000, peak
