import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from spectralab import catalog, oracle, spectrum

F = Fraction


def brute_dict(spec, T):
    return dict(oracle.brute_levels(spec, T))


def test_gauss_circle_self_check():
    rng = random.Random(2)
    for _ in range(12):
        oracle.gauss_circle_self_check(rng.randrange(0, 4000))
    oracle.gauss_circle_self_check(0)


def test_equilateral_first_shells():
    # ordered index pairs, worked by hand on the first few shells
    got = brute_dict(catalog.equilateral_triangle("N"), 160.0)
    unit = F(16, 9)
    assert got[unit * 0] == 1
    assert got[unit * 1] == 2
    assert got[unit * 3] == 1
    assert got[unit * 4] == 2
    assert got[unit * 7] == 2
    assert unit * 2 not in got
    got = brute_dict(catalog.equilateral_triangle("D"), 160.0)
    assert unit * 1 not in got
    assert got[unit * 3] == 1  # (1, 1) survives as the first interior mode
    assert got[unit * 7] == 2


def test_306090_shells_split_equilateral():
    # swap-symmetric and swap-antisymmetric halves rebuild the full triangle
    T = 250.0
    for sym, anti, eq_bc in (("N", "ND", "N"), ("DN", "D", "D")):
        whole = brute_dict(catalog.equilateral_triangle(eq_bc), T)
        left = brute_dict(catalog.triangle_306090(sym), T)
        right = brute_dict(catalog.triangle_306090(anti), T)
        for key in set(left) | set(right):
            assert left.get(key, 0) + right.get(key, 0) == whole[key]


def test_flat_projective_plane_shells():
    got = brute_dict(catalog.flat_projective_plane(), 60.0)
    assert got[F(0)] == 1
    assert F(1) not in got  # the first torus shell is antipodally odd
    assert got[F(2)] == 1
    assert got[F(4)] == 2
    assert got[F(5)] == 2


def test_half_tetrahedron_shells():
    unit = F(4, 3)
    gn = brute_dict(catalog.half_tetrahedron("N"), 80.0)
    gd = brute_dict(catalog.half_tetrahedron("D"), 80.0)
    assert gn[unit * 0] == 1 and unit * 0 not in gd
    assert gn[unit * 1] == 2 and gd[unit * 1] == 1
    assert gn[unit * 3] == 2 and gd[unit * 3] == 1
    assert gn[unit * 4] == 2 and gd[unit * 4] == 1
    # the two halves tile the closed surface
    gt = brute_dict(catalog.tetrahedron_surface(), 80.0)
    for key in gt:
        assert gn.get(key, 0) + gd.get(key, 0) == gt[key]


def test_sphere_window_multiplicities():
    got = brute_dict(catalog.sphere(), 500)
    for N, m in got.items():
        assert m == 2 * N + 1
    got = brute_dict(catalog.hemisphere("N"), 500)
    assert all(m == N + 1 for N, m in got.items())
    got = brute_dict(catalog.projective_sphere(), 500)
    assert all(N % 2 == 0 and m == 2 * N + 1 for N, m in got.items())


def test_sector_first_shell_square_torus():
    got = brute_dict(catalog.symmetry_sector("square_torus", "++"), 45.0)
    assert got[F(0)] == 1 and got[F(4)] == 1
    got = brute_dict(catalog.symmetry_sector("square_torus", "2"), 45.0)
    assert got[F(4)] == 2
    got = brute_dict(catalog.symmetry_sector("square_torus", "+-"), 85.0)
    assert min(got) == F(8)


def test_sector_shells_partition_bases():
    for base in catalog.SECTOR_BASES:
        T = 55.0
        whole = brute_dict(catalog.base_spec(base), T)
        parts = [
            brute_dict(catalog.symmetry_sector(base, ir), T)
            for ir in catalog.sector_irreps(base)
        ]
        keys = set().union(*parts)
        assert keys == set(whole)
        for key in keys:
            assert sum(p.get(key, 0) for p in parts) == whole[key], (base, key)


def test_check_equivalence_reports_pass():
    rep = oracle.check_equivalence(catalog.rectangle(1, 1, "N"), 300.0, n_times=150, seed=4)
    assert rep.ok and rep.detail == "pass"
    assert rep.levels_checked > 0 and rep.times_checked == 150
    rep = oracle.check_equivalence(catalog.lune(3, "D"), 900.0, n_times=100, seed=4)
    assert rep.ok


def test_check_equivalence_subset_of_roster():
    rng = random.Random(19)
    roster = catalog.verification_roster()
    for spec in rng.sample(roster, 12):
        T = 150.0 if not catalog.is_spherical(spec) else 350.0
        rep = oracle.check_equivalence(spec, T, n_times=40, seed=7)
        assert rep.ok, (spec, rep.detail)


# --- fault injection: a wrong formula must actually be caught --------------


def test_injected_count_error_detected(monkeypatch):
    spec = catalog.rectangle(1, 1, "D")
    real = spectrum.count
    monkeypatch.setattr(spectrum, "count", lambda s, t: real(s, t) + 1)
    rep = oracle.check_equivalence(spec, 200.0, n_times=30, seed=0)
    assert not rep.ok
    assert "count" in rep.detail


def test_injected_closed_form_error_detected(monkeypatch):
    spec = catalog.right_iso_triangle(1, "N")
    real = spectrum.closed_form_identity

    def tampered(s, t):
        rep = real(s, t)
        return spectrum.CountReport(rep.t, rep.count, rep.closed_form - 1)

    monkeypatch.setattr(spectrum, "closed_form_identity", tampered)
    rep = oracle.check_equivalence(spec, 200.0, n_times=30, seed=0)
    assert not rep.ok
    assert "closed form" in rep.detail


def test_injected_missing_level_detected(monkeypatch):
    spec = catalog.equilateral_triangle("N")
    real = spectrum.levels
    monkeypatch.setattr(spectrum, "levels", lambda s, t: real(s, t)[:-1])
    rep = oracle.check_equivalence(spec, 200.0, n_times=30, seed=0)
    assert not rep.ok
    assert rep.detail.startswith("level")


def test_brute_levels_untouched_by_patching(monkeypatch):
    spec = catalog.cylinder(1, 1, "N")
    before = oracle.brute_levels(spec, 120.0)
    monkeypatch.setattr(spectrum, "count", lambda s, t: 0)
    monkeypatch.setattr(spectrum, "levels", lambda s, t: [])
    assert oracle.brute_levels(spec, 120.0) == before


def test_brute_rejects_ambiguous_cutoff():
    from spectralab.exact import PI_LO

    with pytest.raises(ArithmeticError):
        oracle.brute_levels(catalog.rectangle(1, 1, "N"), PI_LO * PI_LO)


def test_package_checks_survive_optimize():
    # python -O strips assert statements, so no check in the package may be one
    found = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
