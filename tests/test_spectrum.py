import math
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from spectralab import catalog, oracle, spectrum
from spectralab.exact import PI_HI, PI_LO
from spectralab.spectrum import (
    CountReport,
    ExactTime,
    closed_form_identity,
    count,
    level_arrays,
    level_columns,
    levels,
    symmetry_counts,
)

F = Fraction


def ET(rho):
    return ExactTime(F(rho))


# Hand-checked first levels.  Each row is (spec, cutoff in units of pi^2,
# cumulative count).  The counts were worked out directly from the mode
# descriptions, not from the formulas under test.
FLAT_FIXTURES = [
    (catalog.flat_torus_rect(1, 1), 2, 9),
    (catalog.rectangle(1, 1, "N"), 1, 3),
    (catalog.rectangle(1, 1, "N"), 2, 4),
    (catalog.rectangle(1, 1, "D"), 2, 1),
    (catalog.rectangle(1, 1, "D"), 5, 3),
    (catalog.rectangle(1, 2, "ND"), 1, 1),
    (catalog.rectangle(1, 1, "NM"), F(1, 4), 1),
    (catalog.rectangle(1, 1, "DM"), F(5, 4), 1),
    (catalog.rectangle(1, 1, "MM"), F(1, 2), 1),
    (catalog.right_iso_triangle(1, "N"), 1, 2),
    (catalog.right_iso_triangle(1, "D"), 5, 1),
    (catalog.right_iso_triangle(1, "ND"), 1, 1),
    (catalog.right_iso_triangle(1, "DN"), 2, 1),
    (catalog.right_iso_triangle(1, "MN"), F(1, 2), 1),
    (catalog.right_iso_triangle(1, "MD"), F(5, 2), 1),
    (catalog.equilateral_triangle("N"), F(16, 9), 3),
    (catalog.equilateral_triangle("D"), F(16, 3), 1),
    (catalog.triangle_306090("N"), F(16, 9), 2),
    (catalog.triangle_306090("ND"), F(16, 9), 1),
    (catalog.cylinder(1, 1, "N"), 1, 2),
    (catalog.cylinder(1, 1, "N"), 4, 5),
    (catalog.cylinder(1, 1, "M"), F(1, 4), 1),
    (catalog.mobius_band(1, 1, "N"), 2, 3),
    (catalog.mobius_band(1, 1, "D"), 1, 1),
    (catalog.flat_projective_plane(), 2, 2),
    (catalog.flat_projective_plane(), 4, 4),
    (catalog.tetrahedron_surface(), F(4, 3), 4),
    (catalog.half_tetrahedron("N"), F(4, 3), 3),
    (catalog.half_tetrahedron("D"), F(4, 3), 1),
]


@pytest.mark.parametrize("spec,rho,want", FLAT_FIXTURES)
def test_flat_fixture(spec, rho, want):
    rep = closed_form_identity(spec, ET(rho))
    assert rep.count == want
    assert rep.closed_form == want


def test_count_steps_at_levels():
    spec = catalog.rectangle(1, 1, "N")
    assert count(spec, ET(F(999, 1000))) == 1
    assert count(spec, ET(1)) == 3
    assert count(spec, ET(F(1001, 1000))) == 3
    # plain rational and float cutoffs agree away from levels
    assert count(spec, 12.0) == count(spec, F(12))


def test_fpp_has_no_level_at_one():
    # the antipodal average kills the whole first torus shell
    assert levels(catalog.flat_projective_plane(), ET(3)) == [(F(0), 1), (F(2), 1)]


def test_ambiguous_cutoff_raises():
    # a rational cutoff within the pi enclosure width of an eigenvalue
    t = PI_LO * PI_LO  # within 1e-96 of the rectangle eigenvalue pi^2
    with pytest.raises(ArithmeticError):
        count(catalog.rectangle(1, 1, "N"), t)


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        count(catalog.sphere(), -1)
    with pytest.raises(ValueError):
        ExactTime(F(-1))


def test_closed_form_matches_count_random_jumps():
    rng = random.Random(7)
    sample = [
        catalog.rectangle(1, 2, "ND"),
        catalog.rectangle(F(3, 2), 1, "MM"),
        catalog.right_iso_triangle(F(1, 2), "MD"),
        catalog.triangle_306090("DN"),
        catalog.cylinder(F(3, 2), 1, "M"),
        catalog.mobius_band(1, F(1, 2), "D"),
        catalog.half_tetrahedron("N"),
    ]
    for spec in sample:
        lv = levels(spec, ET(600))
        for _ in range(40):
            pick = rng.randrange(len(lv))
            rho = lv[pick][0]
            rep = closed_form_identity(spec, ET(rho))
            assert rep.count == rep.closed_form
            if pick + 1 < len(lv):
                mid = (rho + lv[pick + 1][0]) / 2
                rep = closed_form_identity(spec, ET(mid))
                assert rep.count == rep.closed_form


def test_levels_sorted_and_positive():
    for spec in (catalog.equilateral_triangle("D"), catalog.lune(3, "N")):
        lv = levels(spec, 500)
        assert all(m > 0 for _, m in lv)
        assert lv == sorted(lv)
        vals, _ = level_arrays(spec, 500)
        assert np.all(vals[1:] >= vals[:-1])


def test_level_arrays_agree_with_levels():
    # the bulk values and the written ones are the same floats, bit for
    # bit, and a written flat value is float(rho) * pi^2 (on the 3/7 x 5/7
    # torus, unit 49/225, a second rounding moves a quarter of them)
    pi2 = math.pi * math.pi
    for spec in [*catalog.verification_roster(),
                 catalog.flat_torus_rect(F(3, 7), F(5, 7))]:
        T = 1e5 if catalog.is_spherical(spec) else 2e5
        lv = levels(spec, T)
        vals, ms = level_arrays(spec, T)
        chunks = list(level_columns(spec, T))
        assert ms.tolist() == [m for _, m in lv] == sum(
            (c["multiplicity"] for c in chunks), [])
        written = sum((c["value"] for c in chunks), [])
        assert vals.tolist() == written
        if not catalog.is_spherical(spec):
            assert written == [float(k) * pi2 for k, _ in lv]
            assert sum((c["key"] for c in chunks), []) == [str(k) for k, _ in lv]


# --- spherical families ---------------------------------------------------


def test_sphere_counts():
    sph = catalog.sphere()
    assert count(sph, 0) == 1
    assert count(sph, F(3, 2)) == 1
    assert count(sph, 2) == 4
    assert count(sph, 6) == 9
    # squares of the window index at the bottom of each window
    for k in range(1, 30):
        assert count(sph, k * k - k) == k * k


def test_hemisphere_split_reassembles_sphere():
    for t in (0, 2, 5, 17, F(1234, 7), 9000):
        assert (
            count(catalog.hemisphere("N"), t) + count(catalog.hemisphere("D"), t)
            == count(catalog.sphere(), t)
        )


def test_projective_sphere_is_even_degree_part():
    ps = catalog.projective_sphere()
    assert count(ps, 2) == 1
    assert count(ps, 6) == 6
    assert levels(ps, 50) == [(0, 1), (2, 5), (4, 9), (6, 13)]


def test_lune_one_is_hemisphere():
    for bc in "ND":
        for t in (0, 2, 30, F(2000, 3)):
            assert count(catalog.lune(1, bc), t) == count(catalog.hemisphere(bc), t)


def test_glued_lune_one_is_sphere():
    for t in (0, 2, 30, 420):
        assert count(catalog.glued_lune(1), t) == count(catalog.sphere(), t)


def test_lune_window_counts():
    # worked small cases: angle pi/2 lune, azimuthal orders multiples of 2
    assert count(catalog.lune(2, "N"), 2) == 2
    assert count(catalog.lune(2, "D"), 2) == 0
    assert count(catalog.lune(2, "D"), 6) == 1
    assert count(catalog.glued_lune(2), 2) == 2


HALF_LUNE_FIXTURES = [
    # m, side, equator, window k, count of degrees below the window
    (4, "N", "N", 5, 4),
    (4, "N", "D", 5, 2),
    (4, "D", "N", 5, 1),
    (4, "D", "D", 5, 0),
    (1, "N", "D", 2, 1),
    (3, "N", "D", 4, 2),
    (3, "D", "N", 4, 1),
    (3, "D", "D", 4, 0),
]


@pytest.mark.parametrize("m,side,eq,k,want", HALF_LUNE_FIXTURES)
def test_half_lune_fixture(m, side, eq, k, want):
    rep = closed_form_identity(catalog.half_lune(m, side, eq), k * k - k)
    assert rep.count == want
    assert rep.closed_form == want


def test_half_lune_pieces_reassemble_lune():
    # Neumann and Dirichlet equator halves partition each lune's spectrum
    rng = random.Random(11)
    for m in (1, 2, 3, 4, 5):
        for side in "ND":
            for _ in range(25):
                k = rng.randrange(1, 60)
                t = k * k - k + rng.randrange(0, 2 * k) if k > 1 else 0
                whole = count(catalog.lune(m, side), t)
                top = count(catalog.half_lune(m, side, "N"), t)
                bot = count(catalog.half_lune(m, side, "D"), t)
                assert top + bot == whole


def test_spherical_closed_forms_integer_everywhere():
    rng = random.Random(13)
    specs = [catalog.half_lune(m, s, e) for m in (1, 2, 3, 4, 6, 7)
             for s in "ND" for e in "ND"]
    specs += [catalog.lune(m, bc) for m in (1, 2, 3, 4) for bc in "ND"]
    specs += [catalog.glued_lune(m) for m in (1, 2, 5)]
    for spec in specs:
        for _ in range(30):
            t = F(rng.randrange(0, 4 * 10**6), rng.randrange(1, 100))
            rep = closed_form_identity(spec, t)
            assert rep.count == rep.closed_form



def test_window_counts_match_oracle_to_degree_1200():
    # the lune families' window counts are computed as den * N(k) in
    # integers; every window up to degree 1200 against the enumeration
    specs = [catalog.half_lune(m, s, e) for m in range(1, 8)
             for s in "ND" for e in "ND"]
    specs += [catalog.lune(m, bc) for m in range(1, 8) for bc in "ND"]
    specs += [catalog.glued_lune(m) for m in range(1, 8)]
    kmax = 1200
    for spec in specs:
        mult = dict(oracle.brute_levels(spec, kmax * (kmax - 1)))
        cum = 0
        for k in range(1, kmax + 1):
            cum += mult.get(k - 1, 0)
            assert spectrum._sph_cum(spec, k) == cum, (spec.label(), k)


def test_window_count_guard_keeps_its_message(monkeypatch):
    spec = catalog.half_lune(3, "D", "D")
    monkeypatch.setattr(spectrum, "_half_lune_cum", lambda m, side, eq, k: 4 * m * k + 1)
    with pytest.raises(ArithmeticError, match=r"window count for .* at k=5 came out 61/12$"):
        spectrum._sph_cum(spec, 5)
    monkeypatch.setattr(spectrum, "_half_lune_cum", lambda m, side, eq, k: -4 * m)
    with pytest.raises(ArithmeticError, match=r"at k=5 came out -1$"):
        spectrum._sph_cum(spec, 5)

# --- symmetry sectors -----------------------------------------------------


def test_sector_counts_partition_base():
    rng = random.Random(5)
    for base in catalog.SECTOR_BASES:
        base_spec = catalog.base_spec(base)
        dims = catalog.sector_dims(base)
        for _ in range(12):
            t = ET(F(rng.randrange(1, 3000), rng.randrange(1, 8)))
            parts = symmetry_counts(base, t)
            total = sum(parts.values())
            assert total == count(base_spec, t), base


def test_sector_fixture_square_base():
    # unit Neumann square, first shell: constant in ++, the pair in the 2-dim
    got = symmetry_counts("square_n", ET(1))
    assert got == {"++": 1, "+-": 0, "-+": 0, "--": 0, "2": 2}


def test_sector_fixture_square_torus():
    # first shell (\pm 1, 0), (0, \pm 1): one axis-even diag-even combo, one
    # axis-even diag-odd combo, and a two-dim pair
    got = symmetry_counts("square_torus", ET(4))
    assert got == {"++": 2, "+-": 0, "-+": 1, "--": 0, "2": 2}
    rep = closed_form_identity(catalog.symmetry_sector("square_torus", "+-"), ET(8))
    assert rep.count == rep.closed_form == 1


def test_sector_fixture_equilateral():
    got = symmetry_counts("equilateral_n", ET(F(16, 9)))
    assert got == {"+": 1, "-": 0, "2": 2}
    got = symmetry_counts("hex_torus", ET(F(16, 9)))
    assert got == {"+": 3, "-": 0, "2": 4}


def test_sector_closed_forms_match_counts():
    rng = random.Random(23)
    for base in catalog.SECTOR_BASES:
        for ir in catalog.sector_irreps(base):
            spec = catalog.symmetry_sector(base, ir)
            lv = levels(spec, ET(500))
            for _ in range(20):
                rho = lv[rng.randrange(len(lv))][0]
                rep = closed_form_identity(spec, ET(rho))
                assert rep.count == rep.closed_form, (base, ir, rho)


def test_report_types():
    rep = closed_form_identity(catalog.sphere(), 10)
    assert isinstance(rep, CountReport)
    assert rep.t == 10.0
    assert levels(catalog.sphere(), 10)[0] == (0, 1)


# --- level tables: memory and cache ----------------------------------------


def test_table_memory_follows_level_count(monkeypatch):
    # side 101/100 makes the key unit 1/10201, so at this cutoff a table
    # indexed by key would hold about 1e7 entries for 3121 eigenvalues; the
    # table's build may take at most 64 bytes per eigenvalue
    monkeypatch.setattr(spectrum, "_TABLES", {})
    spec = catalog.flat_torus_rect(F(101, 100), 1)
    T = 9675.0
    assert 0.99e7 < T / (F(1, 10201) * math.pi ** 2) < 1.01e7
    tracemalloc.start()
    try:
        vals, mults = level_arrays(spec, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = int(mults.sum())
    assert points == 3121
    assert peak <= 64 * points, (peak, points)


def test_tori_of_one_shape_share_a_table(monkeypatch):
    # MM counts on the 2x2, 1x2, 2x1 and 1x1 tori: two lattice shapes
    monkeypatch.setattr(spectrum, "_TABLES", {})
    closed_form_identity(catalog.rectangle(1, 1, "MM"), 100)
    tori = {(s.a, s.b) for s in spectrum._TABLES
            if getattr(s, "family", None) is catalog.Family.FLAT_TORUS_RECT}
    assert tori == {(1, 1), (1, 2)}


def test_table_keys_beyond_int64_raise():
    # keys of this torus reach about 1e19 at t = 1e8: refused before any
    # array is made
    spec = catalog.flat_torus_rect(F(1000003, 1000000), 1)
    with pytest.raises(ArithmeticError):
        count(spec, 1e8)


def test_few_levels_beyond_int64_raise(capsys, monkeypatch):
    # key unit about 1e-20: qcap is about 1e19 at t = 1, yet the table has
    # a handful of entries and goes to the dict engine, which must refuse
    # the keys as the numpy one does rather than overflow array('q') or
    # keep them as Python integers
    from spectralab import cli, lattice

    def numpy_engine(*args):
        raise AssertionError("a table of a few entries went to numpy")

    label = "flat_torus_rect:a=10000000019/10000000000,b=1"
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_reduce_np", numpy_engine)
    assert spectrum._table(cli.parse_surface(label)).qmax(1) > 2 ** 63
    assert cli.main(["count", label, "--at", "1"]) == 1
    assert "do not fit int64" in capsys.readouterr().err


def test_negative_multiplicity_is_refused(monkeypatch):
    # a build or window count that makes the count fall is refused on both
    # table kinds, and by both flat engines, rather than read as a level
    from spectralab import lattice

    def falling(reduce):
        # minus the squares: negative at every square key
        return lambda qcap: reduce(qcap, [(0, 0, 1, range(isqrt(qcap) + 1), -1)], (), 1)

    monkeypatch.setattr(spectrum, "_sph_cum", lambda spec, k: k * k if k < 5 else 0)
    for reduce in (lattice._reduce_py, lattice._reduce_np):
        monkeypatch.setattr(spectrum, "_TABLES", {})
        monkeypatch.setattr(lattice, "_hex_norm_table", falling(reduce))
        for spec in (catalog.flat_torus_hex(), catalog.sphere()):
            with pytest.raises(ArithmeticError, match="negative multiplicity"):
                count(spec, 100)


def test_tetrahedron_shells_must_halve(monkeypatch):
    # the tetrahedron surface halves each hexagonal shell; an odd shell
    # is refused like the other symmetry averages, not rounded down
    from spectralab import lattice

    hex_table = lattice._hex_norm_table

    def odd_shell(qcap):
        # one more point on the shell of key 3
        return lattice._reduce(qcap, [(3, 0, 0, range(1), 1)],
                               [(hex_table(qcap), 1, 1)], 1)

    monkeypatch.setattr(spectrum, "_TABLES", {})
    assert count(catalog.tetrahedron_surface(), 100) > 0
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_hex_norm_table", odd_shell)
    with pytest.raises(ArithmeticError, match="not a multiple of 2"):
        count(catalog.tetrahedron_surface(), 100)


GROWTH = [(spec, 40000.0) for spec in (
    catalog.rectangle(F(7, 5), F(11, 13), "NM"),
    catalog.mobius_band(F(5, 7), F(11, 5), "N"),
    catalog.symmetry_sector("square_n", "+-"),
    catalog.symmetry_sector("hex_torus", "2"),
)]
# from the dict engine at t = 40 onto numpy at t = 4e6, for the table and
# the hexagonal lattice under it
GROWTH.append((catalog.tetrahedron_surface(), 4e6))


def _answers(spec, T):
    vals, mults = level_arrays(spec, T)
    return (count(spec, T), count(spec, T / 3), vals.tolist(), mults.tolist(),
            levels(spec, T), list(level_columns(spec, T)))


@pytest.mark.parametrize("spec, large", [pytest.param(*g, id=g[0].label()) for g in GROWTH])
def test_table_growth_matches_fresh_tables(spec, large, monkeypatch):
    small = 40.0
    fresh = {}
    for T in (small, large):
        monkeypatch.setattr(spectrum, "_TABLES", {})
        fresh[T] = _answers(spec, T)
    monkeypatch.setattr(spectrum, "_TABLES", {})
    assert _answers(spec, small) == fresh[small]
    tb = spectrum._table(spec)
    first_cap = tb.qcap
    assert _answers(spec, large) == fresh[large]
    assert tb.qcap > first_cap
    keys, qcap = tb.keys, tb.qcap
    assert _answers(spec, small) == fresh[small]
    # answered from the grown table, without a rebuild
    assert spectrum._table(spec) is tb
    assert tb.keys is keys and tb.qcap == qcap


# --- the two flat engines ---------------------------------------------------


def _lists(table):
    return [x.tolist() for x in table]


def _both_engines(ns):
    """A stand-in for lattice._reduce that runs both engines on every call
    of up to twice the dict engine's limit, requires the same table
    from each, records the call's entry count in ns and returns the table
    of the engine _reduce would pick."""
    from spectralab import lattice

    def both(qcap, rows, parts, div):
        n = sum(len(r[3]) for r in rows) + sum(len(p[0][0]) for p in parts)
        ns.append(n)
        npy = lattice._reduce_np(qcap, rows, parts, div)
        assert type(npy[0]).__module__ == "numpy"
        if n > 2 * lattice._PY_ENTRIES:
            return npy
        py = lattice._reduce_py(qcap, rows, parts, div)
        assert _lists(py) == _lists(npy), (qcap, div)
        return py if n <= lattice._PY_ENTRIES else npy

    return both


FLAT_TABLES = [s for s in catalog.verification_roster() if not catalog.is_spherical(s)]
FLAT_TABLES += [("mobius_even", F(1), F(1)), ("mobius_even", F(5, 7), F(11, 5))]


@pytest.mark.parametrize("spec", FLAT_TABLES, ids=lambda s: s.label()
                         if isinstance(s, catalog.SurfaceSpec) else "%s:a=%s,b=%s" % s)
def test_engines_agree_on_flat_tables(spec, monkeypatch):
    # every flat table at qcap 256 and at a qcap past the dict engine's
    # limit, estimated from the first and doubled until it is: both engines
    # give the same table at every reduction on the way
    from spectralab import lattice

    ns = []
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_reduce", _both_engines(ns))
    tb = spectrum._table(spec)
    tb.grow(256)
    assert ns[-1] <= lattice._PY_ENTRIES
    qcap = 256 * (3 * lattice._PY_ENTRIES // (2 * max(ns[-1], 1)) + 1)
    while ns[-1] <= lattice._PY_ENTRIES:
        tb.grow(qcap)
        qcap *= 2
    assert type(tb.keys).__module__ == "numpy"


def test_engines_agree_on_reduce_inputs():
    from array import array

    from spectralab import lattice

    small = spectrum._table(catalog.rectangle(1, 1, "N")).upto(60)
    big = (np.array(small[0]), np.array(small[1]), np.array(small[2]))
    cases = [
        # negative weights that leave a nonnegative sum, and keys whose
        # weights sum to zero, which are dropped
        (100, [(0, 0, 1, range(11), 3), (0, 0, 1, range(1, 11), -2),
               (5, 0, 0, range(1), 7), (5, 0, 0, range(1), -7)], (), 1),
        # table slices of both types, scaled keys, signs and a divisor
        (200, [(0, 0, 0, range(1), 2)], [(small, 2, 2), (big, 3, 0)], 2),
        (60, (), [(small, 1, 1), (big, 1, -1)], 1),
        (60, (), [(small, 1, 3), (big, 1, -1)], 2),
        (50, (), (), 1),
    ]
    for qcap, rows, parts, div in cases:
        py = lattice._reduce_py(qcap, rows, parts, div)
        npy = lattice._reduce_np(qcap, rows, parts, div)
        assert all(isinstance(x, array) for x in py)
        assert _lists(py) == _lists(npy)
    squares = [k * k for k in range(11)]
    assert _lists(lattice._reduce_py(*cases[0])) == [squares, [3] + [1] * 10,
                                                     [0] + list(range(3, 14))]
    assert _lists(lattice._reduce_py(*cases[2])) == [[], [], [0]]
    for reduce in (lattice._reduce_py, lattice._reduce_np):
        with pytest.raises(ArithmeticError, match="negative multiplicity"):
            reduce(60, [(1, 0, 0, range(1), -5)], [(small, 1, 1)], 1)
        with pytest.raises(ArithmeticError, match="sum to 3 at key 0, not a multiple of 2"):
            reduce(60, [(0, 0, 0, range(1), 2)], [(small, 1, 1)], 2)
        with pytest.raises(ArithmeticError, match="do not fit int64 with 3 weight bits"):
            reduce(2 ** 59, [(0, 0, 0, range(1), 1), (2 ** 59, 0, 0, range(1), -3)], (), 1)


# --- compiled closed forms: the enclosure path and the cache ----------------

ENCLOSURE_SPECS = [
    catalog.rectangle(F(3, 2), 1, "NM"),
    catalog.mobius_band(1, F(1, 2), "D"),
    catalog.flat_projective_plane(),
    catalog.symmetry_sector("square_d", "2"),
]


@pytest.mark.parametrize("spec", ENCLOSURE_SPECS, ids=lambda s: s.label())
def test_cutoff_inside_the_pi_enclosure_raises(spec):
    # key * PI_LO * PI_HI lies between key * PI_LO^2 and key * PI_HI^2: the
    # enclosure of t / pi^2 holds the level key and cannot place it
    for key, _ in oracle.brute_levels(spec, 600)[1:6]:
        t = key * PI_LO * PI_HI
        with pytest.raises(ArithmeticError):
            closed_form_identity(spec, t)
        form = spectrum._form(spec, spectrum._table(spec))
        with pytest.raises(ArithmeticError):
            form.numerator(t, spectrum._rho_ends(t))


@pytest.mark.parametrize("spec", ENCLOSURE_SPECS + [
    catalog.triangle_306090("DN"), catalog.half_tetrahedron("D"),
    catalog.sphere(), catalog.half_lune(4, "D", "N")], ids=lambda s: s.label())
def test_cutoffs_just_beside_levels(spec):
    # rational cutoffs 1e-30 relative below and above each level, and for
    # round surfaces ExactTime cutoffs just as close, give the enumerated
    # prefix
    eps = F(1, 10**30)
    brute = oracle.brute_levels(spec, 600)
    for key, mult in brute[1:12]:
        below = sum(m for k, m in brute if k < key)
        if catalog.is_spherical(spec):
            lam = F(key * (key + 1))
            cases = [(lam * (1 - eps), below), (lam * (1 + eps), below + mult),
                     (ET(lam * (1 - eps) / PI_HI**2), below),
                     (ET(lam * (1 + eps) / PI_LO**2), below + mult)]
        else:
            cases = [(key * PI_LO**2 * (1 - eps), below),
                     (key * PI_HI**2 * (1 + eps), below + mult)]
        for t, want in cases:
            rep = closed_form_identity(spec, t)
            assert count(spec, t) == rep.count == rep.closed_form == want, (key, t)


def test_closed_form_is_compiled_once_per_table(monkeypatch):
    built = []
    terms = spectrum._closed_terms
    monkeypatch.setattr(spectrum, "_closed_terms",
                        lambda *args: built.append(args) or terms(*args))
    spec = catalog.right_iso_triangle(1, "MD")
    monkeypatch.setattr(spectrum, "_TABLES", {})
    first = closed_form_identity(spec, ET(F(41, 2)))
    form = spectrum._table(spec).form
    assert built and form is not None
    built.clear()
    assert closed_form_identity(spec, ET(F(41, 2))) == first
    assert closed_form_identity(spec, 1234.5).count == count(spec, 1234.5)
    assert not built and spectrum._table(spec).form is form
    # an emptied cache drops the table and its form together
    monkeypatch.setattr(spectrum, "_TABLES", {})
    assert closed_form_identity(spec, ET(F(41, 2))) == first
    assert built and spectrum._table(spec).form is not form
