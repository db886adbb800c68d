import ast
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from spectralab import catalog, lattice, oracle, spectrum, spherical
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
    # the bulk values, the listed ones and the written ones are the same
    # floats, bit for bit, and a written flat value is float(rho) * pi^2
    # (on the 3/7 x 5/7 torus, unit 49/225, a second rounding moves a
    # quarter of them)
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
        keys = sum((c["key"] for c in chunks), [])
        if catalog.is_spherical(spec):
            assert all(type(k) is int for k in keys)
            assert keys == [N for N, _ in lv]
        else:
            assert written == [float(k) * pi2 for k, _ in lv]
            assert keys == [str(k) for k, _ in lv]


def test_level_arrays_multiplicities_are_a_read_only_view(monkeypatch):
    # the multiplicities are the steps of the table's prefix sums, in their
    # type, and read-only on every table kind
    monkeypatch.setattr(spectrum, "_TABLES", {})
    for spec, T in ((catalog.sphere(), 1e4), (catalog.rectangle(1, 1, "N"), 100.0),
                    (catalog.rectangle(1, 1, "N"), 1e6)):
        _, mults = level_arrays(spec, T)
        assert mults.size and not mults.flags.writeable
        with pytest.raises(ValueError):
            mults[0] = 7
        prefix = np.asarray(spectrum._table(spec).prefix)[:mults.size + 1]
        assert mults.dtype == prefix.dtype
        assert mults.tolist() == np.diff(prefix).tolist()
    assert type(spectrum._table(catalog.rectangle(1, 1, "N")).prefix).__module__ == "numpy"


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
            assert spherical._sph_cum(spec, k) == cum, (spec.label(), k)


def test_window_count_guard_keeps_its_message(monkeypatch):
    spec = catalog.half_lune(3, "D", "D")
    monkeypatch.setattr(spherical, "_half_lune_cum", lambda m, side, eq, k: 4 * m * k + 1)
    with pytest.raises(ArithmeticError, match=r"window count for .* at k=5 came out 61/12$"):
        spherical._sph_cum(spec, 5)
    monkeypatch.setattr(spherical, "_half_lune_cum", lambda m, side, eq, k: -4 * m)
    with pytest.raises(ArithmeticError, match=r"at k=5 came out -1$"):
        spherical._sph_cum(spec, 5)

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
    # keys of this torus reach about 5e18 at t = 5e7, where its bound
    # (2.03e7) is under the level cap: refused as the cap refuses, with
    # ValueError naming the surface, before any array is made
    spec = catalog.flat_torus_rect(F(1000003, 1000000), 1)
    with pytest.raises(ValueError, match=r"flat_torus_rect:a=1000003/1000000,b=1 has "
                       r"level keys up to \d+ below 5e\+07, which do not fit int64"):
        count(spec, 5e7)
    assert spectrum._table(spec).qcap == -1


def test_few_levels_beyond_int64_raise(capsys, monkeypatch):
    # key unit about 1e-20: qcap is about 1e19 at t = 1, yet the table has
    # a handful of entries; its keys are refused where it grows (exit 2),
    # before the dict engine could overflow array('q') or keep them as
    # Python integers, and without the numpy engine
    from spectralab import cli, lattice

    def numpy_engine(*args):
        raise AssertionError("a table of a few entries went to numpy")

    label = "flat_torus_rect:a=10000000019/10000000000,b=1"
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_reduce_np", numpy_engine)
    assert spectrum._table(cli.parse_surface(label)).qmax(1) > 2 ** 63
    assert cli.main(["count", label, "--at", "1"]) == 2
    assert "do not fit int64" in capsys.readouterr().err


# --- the level bound every table is held to where it grows -----------------


def _thin_shape(rng):
    """A seeded rational torus, rectangle, cylinder or Moebius band of side
    ratio up to 1e6."""
    a = F(rng.randint(1, 12), rng.randint(1, 7))
    b = F(rng.randint(1, 10 ** rng.randint(0, 6)), rng.randint(1, 7)) * a
    if rng.random() < 0.5:
        a, b = b, a
    family = rng.choice(("flat_torus_rect", "rectangle", "cylinder", "mobius_band"))
    if family == "flat_torus_rect":
        return catalog.flat_torus_rect(a, b)
    if family == "rectangle":
        return catalog.rectangle(a, b, rng.choice(("N", "D", "ND", "NM", "DM", "MM")))
    if family == "cylinder":
        return catalog.cylinder(a, b, rng.choice("NDM"))
    return catalog.mobius_band(a, b, rng.choice("ND"))


def test_level_bound_holds_every_table_count():
    # the bound that _Table.grow holds to the cap is the count itself: on
    # every roster surface, and on thin shapes whose boundary term
    # outweighs their area term
    for spec in catalog.verification_roster():
        tb = spectrum._table(spec)
        for t in (1e2, 1e4, 1e5):
            q = tb.qmax(t)
            assert tb.bound(q) == count(spec, t, q), (spec, t)
    rng = random.Random(22)
    ratios = []
    for _ in range(48):
        spec = _thin_shape(rng)
        ratios.append(max(spec.a / spec.b, spec.b / spec.a))
        tb = spectrum._table(spec)
        t = 10 ** rng.uniform(1, 5)
        while tb.bound(tb.qmax(t)) > 50000:  # a table of at most 5e4 levels
            t /= 4
        q = tb.qmax(t)
        assert tb.bound(q) == count(spec, t, q), (spec, t)
    assert max(ratios) > 1e5


def test_row_guard_is_sound():
    # a flat table's bound refuses it past _BOUND_ROWS rows unsummed, which
    # holds when r rows carry at least r^2 * _LEVEL_CAP / _BOUND_ROWS^2
    # eigenvalues: rows run along the side with fewer indices, so a thin
    # shape has a few long rows and not many short ones.  The bound is the
    # count the table would hold (test above).
    from spectralab import lattice

    need = spectrum._LEVEL_CAP / lattice._BOUND_ROWS ** 2
    specs = [s for s in catalog.verification_roster() if not catalog.is_spherical(s)]
    rng = random.Random(22)
    specs += [_thin_shape(rng) for _ in range(60)]
    for spec in specs:
        tb = lattice._LevelTable(spec)
        q = 1
        while sum(1 for _ in tb.rows(q)) < 200:
            q *= 4
        for q in (q, 16 * q):
            rows = sum(1 for _ in tb.rows(q))
            assert tb.bound(q) >= rows * rows * need, (spec, q, rows)


@pytest.mark.parametrize("spec", [
    catalog.cylinder(10 ** 5, F(1, 10 ** 5), "N"),
    catalog.mobius_band(10 ** 5, F(1, 10 ** 5), "N"),
], ids=lambda spec: spec.family.value)
def test_surface_long_in_a_is_laid_along_b(spec, monkeypatch):
    # at t = 4000 its 2013169 eigenvalues are the modes along a with none
    # across b: one row on the short side b; laid along a, they would be a
    # million one-entry rows with a key coefficient beyond int64
    monkeypatch.setattr(spectrum, "_TABLES", {})
    tb = spectrum._table(spec)
    q = tb.qmax(4000)
    assert sum(1 for _ in tb.rows(q)) <= 2
    rep = closed_form_identity(spec, 4000)
    assert rep.count == rep.closed_form == tb.bound(q) == 2013169


def test_exact_bound_admits_what_the_box_refused(monkeypatch):
    # the MM rectangle at t = 1e8 has 7957761 eigenvalues, under the cap;
    # its four tori's boxes summed in absolute value gave 91202500, and the
    # table was refused.  Its torus read at 4e8 holds 127324109.
    from array import array

    from spectralab import lattice

    built = []

    def build(self, qcap):
        built.append((self.spec, qcap))
        return array("q"), array("q", [0])

    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice._LevelTable, "build", build)
    mm = catalog.rectangle(1, 1, "MM")
    tb = spectrum._table(mm)
    assert tb.bound(tb.qmax(1e8)) == 7957761
    count(mm, 1e8)
    assert built == [(mm, tb.qmax(1e8))]
    torus = spectrum._table(catalog.flat_torus_rect(1, 1))
    assert torus.bound(torus.qmax(4e8)) == 127324109
    with pytest.raises(ValueError, match="has too many levels to count below 4e"):
        torus.grow(torus.qmax(4e8))


def _rows_read(tb):
    """A list that grows by one for each row tb's plan yields from now on."""
    read, rows = [], tb.rows

    def counted(q):
        for row in rows(q):
            read.append(q)
            yield row

    tb.rows = counted
    return read


def test_bound_stops_at_the_cap():
    # a plan with no negative weight stops summing once its partial sum
    # passes the cap with rows left: two rows of the 1e200 square, whose
    # 65536 rows of 1300-bit square roots each hold more than the cap, and
    # 1975 of the unit torus's 12734 at 4e8; without a stop, the count is
    # exact
    from spectralab import lattice

    cap = spectrum._LEVEL_CAP
    big = lattice._LevelTable(catalog.rectangle(10 ** 200, 10 ** 200, "N"))
    read = _rows_read(big)
    assert big.bound(big.key_at(*big.ends(1)[0]), cap) is None
    assert len(read) == 2
    torus = lattice._LevelTable(catalog.flat_torus_rect(1, 1))
    q = torus.qmax(4e8)
    read = _rows_read(torus)
    assert torus.bound(q, cap) is None
    assert len(read) == 1975
    read.clear()
    assert torus.bound(q) == 127324109 and len(read) == 12734
    # a plan with negative weights sums every row: the flat projective
    # plane's last rows subtract
    fpp = lattice._LevelTable(catalog.flat_projective_plane())
    q = fpp.qmax(4e8)
    read = _rows_read(fpp)
    assert fpp.bound(q, cap) == fpp.bound(q) > cap
    assert len(read) == 2 * sum(1 for _ in lattice._LevelTable(fpp.spec).rows(q))


def test_signed_plans_are_the_ones_with_negative_weights():
    # only a plan marked signed may subtract: the stop at the cap is sound
    # on every other flat roster surface
    from spectralab import lattice

    for spec in catalog.verification_roster():
        if catalog.is_spherical(spec):
            continue
        tb = lattice._LevelTable(spec)
        negative = any(w < 0 for _, _, _, _, w in tb.rows(tb.qmax(2000)))
        assert tb.signed or not negative, spec.label()
        assert negative or spec.family is catalog.Family.HALF_TETRAHEDRON or not tb.signed


@pytest.mark.parametrize("read", [count, level_arrays], ids=lambda f: f.__name__)
def test_thin_surface_is_refused_by_the_library(read, monkeypatch):
    # 55132890 levels, almost all of them the boundary term's: refused by
    # the bound before anything is built
    monkeypatch.setattr(spectrum, "_TABLES", {})
    spec = catalog.rectangle(F(1, 10 ** 6), 10 ** 6, "N")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="may have up to 55132890 eigenvalues "
                                         "below 30000, over the cap of 2.5e"):
        read(spec, 30000)
    assert time.perf_counter() - start < 1.0
    assert all(tb.qcap < 0 for tb in spectrum._TABLES.values())


def test_growth_stops_at_the_requested_key_below_the_cap(monkeypatch):
    # the unit torus's count of j^2 + k^2 <= q first passes 5000 at key
    # 1594 = 2 * 797: doubling stops at the requested key below it, and the
    # key above is refused with the table kept as it was
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(spectrum, "_LEVEL_CAP", 5000)
    tb = spectrum._table(catalog.flat_torus_rect(1, 1))
    assert tb.bound(1593) == 4997 and tb.bound(1594) == 5005
    tb.grow(797)
    assert tb.qcap == 797
    tb.grow(1593)
    assert tb.qcap == 1593
    keys = tb.keys
    with pytest.raises(ValueError, match="up to 5005 eigenvalues below .*cap of 5000"):
        tb.grow(1594)
    assert tb.qcap == 1593 and tb.keys is keys


def test_negative_multiplicity_is_refused(monkeypatch):
    # a build or window count that makes the count fall is refused on both
    # table kinds, and by both flat engines, rather than read as a level
    from spectralab import lattice

    def falling(qcap):
        # minus the squares: negative at every square key
        return [(0, 0, 1, range(isqrt(qcap) + 1), -1)]

    monkeypatch.setattr(spherical, "_sph_cum", lambda spec, k: k * k if k < 5 else 0)
    monkeypatch.setattr(lattice, "_hex_norm_rows", falling)
    for reduce in (lattice._reduce_py, lattice._reduce_np):
        monkeypatch.setattr(spectrum, "_TABLES", {})
        monkeypatch.setattr(lattice, "_reduce", reduce)
        for spec in (catalog.flat_torus_hex(), catalog.sphere()):
            with pytest.raises(ArithmeticError, match="negative multiplicity"):
                count(spec, 100)


def _key_counts(parts, qcap):
    """The weights of the (keys, weight) parts summed at each key <= qcap,
    a bincount over 256 parts at a time."""
    sums = np.zeros(qcap + 1, dtype=np.int64)
    parts = iter(parts)
    while batch := list(islice(parts, 256)):
        keys = np.concatenate([k for k, _ in batch])
        weights = np.concatenate([np.full(len(k), w) for k, w in batch])
        sums += np.bincount(keys, weights, minlength=qcap + 1).astype(np.int64)
    return sums


def _hex_shells(qcap):
    """r(q), the points (n1, n2) of Z^2 with n1^2 - n1 n2 + n2^2 = q, for
    q <= qcap, counted over the whole box |n1|, |n2| <= sqrt(4 qcap / 3)."""
    n = isqrt(4 * qcap // 3)
    n2 = np.arange(-n, n + 1)
    box = (n1 * n1 - n1 * n2 + n2 * n2 for n1 in range(-n, n + 1))
    return _key_counts(((q[q <= qcap], 1) for q in box), qcap)


def _expanded(rows, qcap):
    """The weights of rows summed at each key <= qcap."""
    return _key_counts(((c0 + k * (c1 + c2 * k), w) for c0, c1, c2, ks, w in rows
                        for k in [np.arange(ks.start, ks.stop, ks.step, dtype=np.int64)]),
                       qcap)


def test_hexagonal_rows_fold_the_whole_plane():
    # the origin and the sector n1 > n2 >= 0 six times over count every
    # shell of the plane: at every qcap up to 600, whose last rows are cut
    # near n1 = sqrt(4 qcap / 3) and at n2 = 0, and at three larger ones;
    # no row reaches n1 < 0
    shells = _hex_shells(600)
    for qcap in range(601):
        rows = list(lattice._hex_norm_rows(qcap))
        assert all(c1 <= 0 and (c1 == 0 or 0 <= ks.start and ks.stop <= -c1)
                   for _, c1, _, ks, _ in rows)
        assert _expanded(rows, qcap).tolist() == shells[:qcap + 1].tolist(), qcap
    for qcap in (10 ** 4, 123457, 10 ** 6):
        assert np.array_equal(_expanded(lattice._hex_norm_rows(qcap), qcap), _hex_shells(qcap))


@pytest.mark.parametrize("spec", [
    catalog.flat_torus_hex(), catalog.tetrahedron_surface(), catalog.half_tetrahedron("N"),
    catalog.half_tetrahedron("D")] + [
    catalog.symmetry_sector("hex_torus", ir) for ir in catalog.sector_irreps("hex_torus")],
    ids=lambda s: s.label())
def test_folded_hexagonal_tables_match_the_oracle(spec, monkeypatch):
    monkeypatch.setattr(spectrum, "_TABLES", {})
    assert levels(spec, 1e5) == oracle.brute_levels(spec, 1e5)


def test_tetrahedron_shells_must_halve(monkeypatch):
    # the tetrahedron surface halves each hexagonal shell; an odd shell
    # is refused like the other symmetry averages, not rounded down
    from spectralab import lattice

    hex_rows = lattice._hex_norm_rows

    def odd_shell(qcap):
        # one more point on the shell of key 3
        return list(hex_rows(qcap)) + [(3, 0, 0, range(1), 1)]

    monkeypatch.setattr(spectrum, "_TABLES", {})
    assert count(catalog.tetrahedron_surface(), 100) > 0
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_hex_norm_rows", odd_shell)
    with pytest.raises(ArithmeticError, match="not a multiple of 2"):
        count(catalog.tetrahedron_surface(), 100)


def test_each_table_is_reduced_from_its_own_rows(monkeypatch):
    # a table that counts on another surface's lattice adds rows to that
    # lattice's rows; it reads no other table, so none is built (the tori
    # of its closed form, which its bound reads, stay empty)
    for spec in (catalog.tetrahedron_surface(), catalog.half_tetrahedron("D"),
                 catalog.flat_projective_plane(),
                 catalog.symmetry_sector("square_d", "+-"),
                 catalog.symmetry_sector("hex_torus", "2")):
        monkeypatch.setattr(spectrum, "_TABLES", {})
        count(spec, 1e3)
        assert [s for s, tb in spectrum._TABLES.items() if tb.qcap >= 0] == [spec]


def _torus_terms(spec):
    form = lattice._form(spec, spectrum._table(spec))
    return [sub for _, sub in form.weights if sub not in (None, spectrum._table(spec))]


def test_torus_term_by_rows_equals_its_table(monkeypatch):
    # every flat roster surface whose closed form reads a torus, at seeded
    # jump and midpoint cutoffs below 1e4 as `oracle.check_equivalence`
    # draws them: with the cap lowered to the surface's own count, a torus
    # term over it is counted by rows (`_Form.total`), and the reports are
    # those of its table at the default cap.  There, the closed form at a
    # level is the table's `bound` at its key, the same sum without growth.
    specs = [s for s in catalog.verification_roster()
             if not catalog.is_spherical(s) and _torus_terms(s)]
    assert len(specs) > 40
    for spec in specs:
        levels_ = [k for k, _ in oracle.brute_levels(spec, 10 ** 4)]
        rng = random.Random(spec.label())
        cutoffs = []
        for _ in range(24):
            i = rng.randrange(len(levels_) - 1)
            jump = rng.random() < 0.5
            cutoffs.append(ET(levels_[i] if jump else (levels_[i] + levels_[i + 1]) / 2))
        cutoffs.append(ET(levels_[-1]))
        reports, by_rows = [], []
        for cap in (count(spec, 10 ** 4), spectrum._LEVEL_CAP):
            monkeypatch.setattr(spectrum, "_TABLES", {})
            monkeypatch.setattr(spectrum, "_LEVEL_CAP", cap)
            reports.append([closed_form_identity(spec, t) for t in cutoffs])
            tb = spectrum._table(spec)
            _, ks = tb.form.ints(*spectrum._pq(cutoffs[-1].rho))
            by_rows.append(any(sub is not None and sub.qcap < k
                               for (_, sub), k in zip(tb.form.weights, ks)))
            assert all(int(sub.prefix[-1]) <= cap for sub in _torus_terms(spec)), spec
        assert reports[0] == reports[1], spec
        assert by_rows == [True, False], spec
        for t, rep in zip(cutoffs, reports[1]):
            if t.rho in levels_:
                assert rep.closed_form == tb.bound(tb.qmax(t)), (spec, t)


def test_every_table_belongs_to_a_catalog_surface(monkeypatch):
    # the Moebius closed forms count on catalog tori
    monkeypatch.setattr(spectrum, "_TABLES", {})
    bands = [s for s in catalog.verification_roster()
             if s.family is catalog.Family.MOBIUS_BAND]
    assert bands
    for spec in bands:
        rep = closed_form_identity(spec, 1234.5)
        assert rep.count == rep.closed_form
    assert all(isinstance(key, catalog.SurfaceSpec) for key in spectrum._TABLES)


def test_two_dim_sector_counts_must_pair(monkeypatch):
    # the 2-dim irrep's levels come in pairs: a sector table one point
    # short leaves an odd count, which is refused rather than halved
    from spectralab import lattice

    pair_rows = lattice._pair_rows

    def one_short(qcap, c, *args):
        rows = list(pair_rows(qcap, c, *args))
        if c == 0:
            c0, c1, c2, ks, w = rows[0]
            rows[0] = (c0, c1, c2, ks[1:], w)
        return rows

    spec = catalog.symmetry_sector("square_n", "2")
    monkeypatch.setattr(spectrum, "_TABLES", {})
    assert count(spec, 100) > 0
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_pair_rows", one_short)
    with pytest.raises(ArithmeticError, match="not a multiple of 2"):
        count(spec, 100)


GROWTH = [(spec, 40000.0) for spec in (
    catalog.rectangle(F(7, 5), F(11, 13), "NM"),
    catalog.mobius_band(F(5, 7), F(11, 5), "N"),
    catalog.symmetry_sector("square_n", "+-"),
    catalog.symmetry_sector("hex_torus", "2"),
)]
# from the dict engine at t = 40 onto numpy at t = 4e6, for the table and
# the hexagonal lattice under it; round tables past their first 256
# degrees, two of them with degrees of multiplicity zero
GROWTH += [(spec, 4e6) for spec in (
    catalog.tetrahedron_surface(),
    catalog.sphere(),
    catalog.hemisphere("D"),
    catalog.half_lune(4, "D", "N"),
)]


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
    # held through the growth: a table resized in place under them would
    # change them or refuse to resize (BufferError on an array('q'))
    kept = level_arrays(spec, small)
    assert _answers(spec, large) == fresh[large]
    assert tb.qcap > first_cap
    assert tuple(x.tolist() for x in kept) == fresh[small][2:4]
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

    def both(qcap, rows, div, pair=1):
        rows = list(rows)  # a plan's rows may come as a generator
        n = sum(len(r[3]) for r in rows)
        ns.append(n)
        npy = lattice._reduce_np(qcap, rows, div, pair)
        assert type(npy[0]).__module__ == "numpy"
        if n > 2 * lattice._PY_ENTRIES:
            return npy
        py = lattice._reduce_py(qcap, rows, div, pair)
        assert _lists(py) == _lists(npy), (qcap, div)
        return py if n <= lattice._PY_ENTRIES else npy

    return both


FLAT_TABLES = [s for s in catalog.verification_roster() if not catalog.is_spherical(s)]


@pytest.mark.parametrize("spec", FLAT_TABLES, ids=lambda s: s.label())
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


def _route(qcap, rows):
    """The route `lattice._reduce_np` takes on rows, by bytes, and the item
    size of its packed entries: the span-sized int64 counts when they take
    no more bytes than the packed entries would, else the packed entries."""
    from spectralab import lattice

    n = sum(len(r[3]) for r in rows)
    _, shift = lattice._weight_shift(qcap, [r[4] for r in rows if len(r[3])])
    size = 4 if (qcap << shift) | ((1 << shift) - 1) < 2 ** 31 else 8
    return "count" if 8 * (qcap + 1) <= size * n else "packed", size


def _random_reduce_rows(rng, whole):
    """Seeded rows over keys below 60 whose sums come out nonnegative
    multiples of whole, many of them zero: random rows, runs of one key
    repeated up to a dozen times, and one correcting entry per key, of
    either sign."""
    rows = []
    for _ in range(rng.randint(1, 6)):
        k0 = rng.randrange(4)
        ks = range(k0, k0 + rng.randint(0, 5), rng.choice((1, 2)))
        rows.append((rng.randrange(10), rng.choice((0, 1, 3)), rng.choice((0, 1)), ks,
                     rng.choice((-3, -1, 1, 2, 5))))
    for _ in range(rng.randint(1, 4)):
        rows.append((rng.randrange(60), 0, 0, range(rng.randint(2, 12)), rng.choice((-2, 1, 3))))
    sums: dict = {}
    for c0, c1, c2, ks, w in rows:
        for k in ks:
            q = c0 + k * (c1 + c2 * k)
            sums[q] = sums.get(q, 0) + w
    for q, v in sums.items():
        rows.append((q, 0, 0, range(1), whole * rng.choice((0, 0, 1, 4)) - v))
    rng.shuffle(rows)
    return rows


def _reduced(reduce, *args):
    try:
        return _lists(reduce(*args))
    except ArithmeticError as err:
        return str(err)


def test_blocked_reduce_carries_runs_across_block_edges(monkeypatch):
    # with blocks of 1, 2 and 3 packed entries, runs of one key span many
    # blocks and weights cancel across their edges: the numpy engine's
    # packed route gives the dict engine's table, and the same refusal,
    # naming the same key, when a sum is made negative or not whole
    from spectralab import lattice

    rng = random.Random(24)
    qcap = 10 ** 6  # far above the points: the packed route
    refusals = set()
    for block in (1, 2, 3):
        monkeypatch.setattr(lattice, "_RUN_BLOCK", block)
        for _ in range(40):
            div, pair = rng.choice(((1, 1), (1, 2), (2, 1), (4, 2)))
            rows = _random_reduce_rows(rng, div * pair)
            py = _reduced(lattice._reduce_py, qcap, rows, div, pair)
            assert isinstance(py, list)
            assert _reduced(lattice._reduce_np, qcap, rows, div, pair) == py
            q = rng.randrange(60)
            for w in (-1, 1, -3 * div * pair):
                bad = rows + [(q, 0, 0, range(1), w)]
                py = _reduced(lattice._reduce_py, qcap, bad, div, pair)
                assert _reduced(lattice._reduce_np, qcap, bad, div, pair) == py
                if isinstance(py, str):
                    refusals.add(py.split(" at key")[0].split(" sum to")[0])
    assert refusals == {"negative multiplicity in level table", "level weights"}


def test_packed_build_holds_the_entries_and_the_table(monkeypatch):
    # the packed route's traced peak is one int32 per entry, the table it
    # returns and a few blocks: on rectangle:a=1,b=1,bc=N at t = 1e6, 79.6k
    # entries reduced to 22k levels
    from spectralab import lattice

    monkeypatch.setattr(lattice, "_RUN_BLOCK", 2048)
    tb = lattice._LevelTable(catalog.rectangle(1, 1, "N"))
    qcap = tb.qmax(1e6)
    rows = list(tb.rows(qcap))
    n = sum(len(r[3]) for r in rows)
    assert n > 20 * 2048
    assert _route(qcap, rows) == ("packed", 4)
    tracemalloc.start()
    try:
        table = lattice._reduce_np(qcap, rows, tb.div)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table[0]) > 20000
    assert peak <= 4 * n + sum(a.nbytes for a in table) + 16 * 8 * 2048


def test_packed_build_survives_a_profiler():
    # a profiler that hooks C calls holds a reference to the packed array
    # while it is shrunk in place: the build must give the same table
    import cProfile

    from spectralab import lattice

    tb = lattice._LevelTable(catalog.cylinder(1, 1, "N"))
    qcap = 10 ** 6
    rows = list(tb.rows(qcap))
    assert _route(qcap, rows)[0] == "packed"
    plain = _lists(lattice._reduce_np(qcap, rows, tb.div))
    prof = cProfile.Profile()
    prof.enable()
    try:
        profiled = _lists(lattice._reduce_np(qcap, rows, tb.div))
    finally:
        prof.disable()
    assert profiled == plain


def test_printed_keys_are_their_fractions_written_out():
    # printed(k) writes the key's rho without building it: the same text as
    # str(Fraction) on the keys of flat roster tables and rational shapes
    from spectralab import lattice

    rng = random.Random(87)
    specs = FLAT_TABLES[::4] + [_thin_shape(rng) for _ in range(16)]
    checked = 0
    for spec in specs:
        tb = lattice._LevelTable(spec)
        t = 1e4
        while tb.bound(tb.qmax(t)) > 20000:
            t /= 4
        keys = tb.build(tb.qmax(t))[0].tolist()
        checked += len(keys)
        for k in [0] + keys:
            assert tb.printed(k) == str(F(k * tb.unit.numerator, tb.unit.denominator)), (spec, k)
    assert checked > 20000


def test_engines_agree_on_reduce_inputs():
    from array import array

    from spectralab import lattice

    # m^2 + mn + n^2 <= 60 over m, n >= 0, whose rows use c0, c1 and c2
    hexes = list(lattice._pair_rows(60, 1, 0, 1, None))

    def scaled(f, w):
        return [(f * c0, f * c1, f * c2, ks, w) for c0, c1, c2, ks, _ in hexes]

    cases = [
        # negative weights that leave a nonnegative sum, and keys whose
        # weights sum to zero, which are dropped
        (100, [(0, 0, 1, range(11), 3), (0, 0, 1, range(1, 11), -2),
               (5, 0, 0, range(1), 7), (5, 0, 0, range(1), -7)], 1),
        # scaled keys, signs, a zero weight and a divisor
        (200, [(0, 0, 0, range(1), 2)] + scaled(2, 2) + scaled(3, 0), 2),
        (60, scaled(1, 1) + scaled(1, -1), 1),
        (60, scaled(1, 3) + scaled(1, -1), 2),
        (50, (), 1),
    ]
    for qcap, rows, div in cases:
        py = lattice._reduce_py(qcap, rows, div)
        npy = lattice._reduce_np(qcap, rows, div)
        assert all(isinstance(x, array) for x in py)
        assert _lists(py) == _lists(npy)
    squares = [k * k for k in range(11)]
    assert _lists(lattice._reduce_py(*cases[0])) == [squares, [0] + list(range(3, 14))]
    assert _lists(lattice._reduce_py(*cases[2])) == [[], [0]]
    assert _lists(lattice._reduce_py(*cases[3])) == _lists(
        lattice._reduce_py(60, hexes, 1))
    for reduce in (lattice._reduce_py, lattice._reduce_np):
        with pytest.raises(ArithmeticError, match="negative multiplicity"):
            reduce(60, [(1, 0, 0, range(1), -5)] + hexes, 1)
        with pytest.raises(ArithmeticError, match="sum to 3 at key 0, not a multiple of 2"):
            reduce(60, [(0, 0, 0, range(1), 2)] + hexes, 2)
        with pytest.raises(ArithmeticError, match="do not fit int64 with 3 weight bits"):
            reduce(2 ** 59, [(0, 0, 0, range(1), 1), (2 ** 59, 0, 0, range(1), -3)], 1)


# --- the narrow types of numpy tables --------------------------------------

SIGNED_PLANS = [s for s in FLAT_TABLES
                if s.family in (catalog.Family.FLAT_PROJECTIVE_PLANE,
                                catalog.Family.HALF_TETRAHEDRON)
                or (s.family is catalog.Family.SYMMETRY_SECTOR and s.irrep == "2")]


@pytest.mark.parametrize("spec", SIGNED_PLANS, ids=lambda s: s.label())
def test_signed_plans_agree_on_both_routes(spec):
    # the plans with negative weights, reduced on numpy by the counting
    # route (each row given r times, over r times the divisor) and by the
    # packed route (a wider span, holding the same keys): both give the
    # dict engine's table, in int32
    from spectralab import lattice

    tb = lattice._LevelTable(spec)
    pair = 2 if spec.irrep == "2" else 1
    q = 256
    while sum(len(r[3]) for r in tb.rows(q)) < 4000:
        q *= 4
    rows = list(tb.rows(q))
    n = sum(len(r[3]) for r in rows)
    py = _lists(lattice._reduce_py(q, rows, tb.div, pair))
    r = -(-2 * (q + 1) // n)
    for qcap, rows_, div in ((q, rows * r, tb.div * r), (max(q, n), rows, tb.div)):
        npy = lattice._reduce_np(qcap, rows_, div, pair)
        assert [x.dtype for x in npy] == [np.int32] * 2
        assert _lists(npy) == py, (spec, _route(qcap, rows_))
    assert [_route(q, rows * r)[0], _route(max(q, n), rows)[0]] == ["count", "packed"]


def test_keys_past_int32_are_held_in_int64(monkeypatch):
    # a torus of side 1000003/1000000 has keys of about 5e16 at t = 5e5,
    # where its 40022 entries go to numpy: the keys are int64, the counts
    # int32, and both engines give the same table
    from spectralab import lattice

    ns = []
    monkeypatch.setattr(spectrum, "_TABLES", {})
    monkeypatch.setattr(lattice, "_reduce", _both_engines(ns))
    spec = catalog.flat_torus_rect(F(1000003, 1000000), 1)
    rep = closed_form_identity(spec, 5e5)
    tb = spectrum._table(spec)
    assert lattice._PY_ENTRIES < ns[-1] <= 2 * lattice._PY_ENTRIES
    assert int(tb.keys[-1]) > 2 ** 31
    assert [x.dtype for x in (tb.keys, tb.prefix)] == [np.int64, np.int32]
    assert rep.count == rep.closed_form == int(tb.prefix[-1])


def test_narrow_types_at_their_edges(monkeypatch):
    # on the packed route, cut by a block edge or not: keys below 2^31
    # whose packing with 2 weight bits passes 2^31 (int32 keys, int64
    # packing); a key whose run of 2040 int32 packed entries sums past
    # 2^31 before its weights cancel down to 40 (2^20 - 1); and one whose
    # run sums to 2039 (2^21 - 1) + 1, past 2^31, held in int64 counts
    from spectralab import lattice

    big = 2039 * (2 ** 21 - 1) + 1
    cases = [
        (2 ** 30, [(0, 0, 0, range(1), 1), (2 ** 30, 0, 0, range(1), 3),
                   (5, 0, 1, range(10), 2)], np.int32),
        (1023, [(5, 0, 0, range(1040), 2 ** 20 - 1),
                (5, 0, 0, range(1000), 1 - 2 ** 20)], np.int32),
        (1023, [(5, 0, 0, range(2039), 2 ** 21 - 1), (5, 0, 0, range(1), 1)], np.int64),
    ]
    assert [_route(qcap, rows) for qcap, rows, _ in cases] == [
        ("packed", 8), ("packed", 4), ("packed", 4)]
    for block in (2039, 1 << 16):
        monkeypatch.setattr(lattice, "_RUN_BLOCK", block)
        tables = [lattice._reduce_np(qcap, rows, 1) for qcap, rows, _ in cases]
        for (qcap, rows, counts), table in zip(cases, tables):
            assert _lists(table) == _lists(lattice._reduce_py(qcap, rows, 1))
            assert [x.dtype for x in table] == [np.int32, counts]
        w = 40 * (2 ** 20 - 1)
        assert [_lists(t) for t in tables[1:]] == [[[5], [0, w]], [[5], [0, big]]]


@pytest.mark.parametrize("spec, t", [
    (catalog.rectangle(1, 1, "N"), 1e6),  # a numpy table
    (catalog.rectangle(1, 1, "N"), 1e3),
    (catalog.sphere(), 1e4),
], ids=["numpy", "array", "round"])
def test_level_readers_hand_out_python_ints(spec, t, monkeypatch):
    # counts, multiplicities and keys leave the table as Python numbers,
    # whatever it is held in: a numpy scalar would break --format json
    monkeypatch.setattr(spectrum, "_TABLES", {})
    rep = closed_form_identity(spec, t)
    pairs = levels(spec, t)
    chunks = list(level_columns(spec, t))
    kind = type(spectrum._table(spec).keys).__module__
    assert kind == ("numpy" if t == 1e6 else "array")
    assert {type(rep.count), type(rep.closed_form)} == {int}
    assert {type(m) for _, m in pairs} == {int}
    assert {type(k) for k, _ in pairs} == ({int} if catalog.is_spherical(spec) else {F})
    assert {type(k.numerator) for k, _ in pairs if isinstance(k, F)} <= {int}
    assert {type(m) for c in chunks for m in c["multiplicity"]} == {int}
    assert {type(v) for c in chunks for v in c["value"]} == {float}
    json.dumps([list(rep), chunks])


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
        # the compiled form's own terms, without the table's key, are
        # undecided there too
        form = lattice._form(spec, spectrum._table(spec))
        with pytest.raises(ArithmeticError):
            spectrum._decided(t, spectrum._rho_ends(t), lambda P, Q: form.ints(P, Q)[1])


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
    terms = lattice._closed_terms
    monkeypatch.setattr(lattice, "_closed_terms",
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


@pytest.mark.parametrize("label", ["mobius_band:a=1,b=1,bc=D", "flat_projective_plane", "sphere"])
def test_closed_forms_survive_table_growth(label, monkeypatch):
    # a small cutoff, a large one that rebuilds the table and every table
    # its closed form counts on, and the small one again: the form holds
    # the tables, not their arrays, so each answer is the enumerated prefix
    spec = catalog.parse_spec(label)
    spherical = catalog.is_spherical(spec)
    brute = oracle.brute_levels(spec, 3e5 if spherical else 3e4)
    monkeypatch.setattr(spectrum, "_TABLES", {})
    small, large = brute[8], brute[-3]
    caps = []
    for key, _ in (small, large, small):
        t = key * (key + 1) if spherical else ET(key)
        rep = closed_form_identity(spec, t)
        want = sum(m for k, m in brute if k <= key)
        assert rep.count == rep.closed_form == want, (key, t)
        tables = [spectrum._table(spec)]
        if not spherical:
            tables += [sub for _, sub in spectrum._table(spec).form.weights if sub is not None]
        caps.append([tb.qcap for tb in tables])
    assert spherical or len(caps[0]) > 1  # a flat form counts on other tables
    # the large cutoff grew every table, and the small one after it none
    assert all(c0 < c1 for c0, c1 in zip(caps[0], caps[1])) and caps[1] == caps[2]


def test_closed_form_refusals_keep_their_messages(monkeypatch):
    spec = catalog.rectangle(1, 1, "N")
    monkeypatch.setattr(spectrum, "_TABLES", {})
    with pytest.raises(ArithmeticError, match="too close to a level"):
        closed_form_identity(spec, PI_LO * PI_LO)
    form = lattice._form(spec, spectrum._table(spec))
    assert form.den > 1
    monkeypatch.setattr(form, "const", form.const + 1)
    with pytest.raises(ArithmeticError, match=r"at ExactTime\(rho=Fraction\(5, 1\)\) is "
                                              r"non-integral: \d+/4$"):
        closed_form_identity(spec, ET(5))


def test_round_build_holds_little_beyond_its_arrays(monkeypatch):
    # the round build appends each window count that steps straight into
    # its two array('q')s, 16 B a level: its traced peak stays within 1.5
    # times the arrays' bytes, where lists of every window count, key and
    # step took 4.8 times
    monkeypatch.setattr(spectrum, "_TABLES", {})
    sp = catalog.lune(10000, "N")
    tracemalloc.start()
    try:
        count(sp, 4e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tb = spectrum._table(sp)
    held = sum(len(a) * a.itemsize for a in (tb.keys, tb.prefix))
    assert len(tb.keys) > 60000 and held == 16 * len(tb.keys) + 8
    assert peak <= 1.5 * held, (peak, held)


def test_only_the_table_modules_read_its_arrays():
    # one owner per level table: no module but spectrum and its two kinds,
    # round in spherical and flat in lattice, reads a table's prefix or
    # any mults or imports array, so every other reader takes the table
    # through spectrum's readers
    found = []
    for path in sorted(Path(spectrum.__file__).parent.glob("*.py")):
        if path.name in ("spectrum.py", "spherical.py", "lattice.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("mults", "prefix"):
                found.append((path.name, node.lineno, node.attr))
            elif (isinstance(node, ast.Import) and any(a.name == "array" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "array"):
                found.append((path.name, node.lineno, "import array"))
    assert not found, found
