import ast
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
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


# --- the sweep: one query per distinct sampled cutoff ------------------------


def _sweep_cutoffs(spec, T, n_times, seed):
    """The enumerated levels and, draw by draw, the (level, jump) drawn,
    its cutoff as closed_form_identity takes it and the enumerated count
    there: the jump at a level's key, the midpoint halfway to the next."""
    brute = oracle.brute_levels(spec, F(T))
    spherical = catalog.is_spherical(spec)
    rhos = [F(key * (key + 1)) if spherical else key for key, _ in brute]
    prefix = list(accumulate(m for _, m in brute))
    rng = random.Random(seed)
    draws = []
    for _ in range(n_times):
        i = rng.randrange(len(brute))
        jump = rng.random() < 0.5 or i == len(brute) - 1
        t = rhos[i] if jump else (rhos[i] + rhos[i + 1]) / 2
        draws.append(((i, jump), t if spherical else spectrum.ExactTime(t), prefix[i]))
    return brute, draws


def _draw_by_draw(spec, T, n_times, seed):
    """check_equivalence as a query at every draw, repeats included."""
    brute, draws = _sweep_cutoffs(spec, T, n_times, seed)
    assert spectrum.levels(spec, F(T)) == brute
    for n, ((i, jump), t, want) in enumerate(draws):
        rep = spectrum.closed_form_identity(spec, t)
        if rep.count != want or rep.closed_form != want:
            where = f"{'jump' if jump else 'midpoint'} {i}: enumerated {want}"
            detail = (f"count at {where}, spectrum {rep.count}" if rep.count != want
                      else f"closed form at {where}, formula {rep.closed_form}")
            return oracle.EquivalenceReport(spec.label(), len(brute), n, False, detail)
    return oracle.EquivalenceReport(spec.label(), len(brute), n_times, True, "pass")


def _sweep_surfaces():
    roster = catalog.verification_roster()
    picked = random.Random(28).sample(roster, 10)
    picked.append(next(s for s in roster if catalog.is_spherical(s)))
    picked.append(next(s for s in roster if s.family == catalog.Family.SYMMETRY_SECTOR
                       and catalog.sector_dims(s.base)[s.irrep] == 2))
    return picked


def _sweep_cutoff_t(spec):
    return 1e5 if catalog.is_spherical(spec) else 1500


@pytest.mark.parametrize("spec", _sweep_surfaces(), ids=lambda s: s.label())
def test_sweep_reports_what_a_query_per_draw_reports(spec):
    T = _sweep_cutoff_t(spec)
    _, draws = _sweep_cutoffs(spec, T, 2000, 3)
    assert len({d[0] for d in draws}) < 2000  # the draws repeat cutoffs
    assert oracle.check_equivalence(spec, T, n_times=2000, seed=3) == _draw_by_draw(spec, T, 2000, 3)


@pytest.mark.parametrize("spec", _sweep_surfaces()[-2:], ids=lambda s: s.label())
def test_sweep_fails_at_the_draw_a_query_per_draw_fails_at(spec, monkeypatch):
    # the closed form is made off by one at the first new cutoff drawn
    # after a repeat, so skipping the repeat must not shift the draw index
    T = _sweep_cutoff_t(spec)
    _, draws = _sweep_cutoffs(spec, T, 2000, 3)
    seen = set()
    for n, (cut, t, _) in enumerate(draws):
        if cut not in seen and len(seen) < n:
            break
        seen.add(cut)
    assert cut not in seen and len(seen) < n
    real = spectrum.closed_form_identity

    def tampered(s, at):
        rep = real(s, at)
        return rep._replace(closed_form=rep.closed_form - 1) if at == t else rep

    monkeypatch.setattr(spectrum, "closed_form_identity", tampered)
    want = _draw_by_draw(spec, T, 2000, 3)
    assert not want.ok and want.times_checked == n and want.detail.startswith("closed form")
    assert oracle.check_equivalence(spec, T, n_times=2000, seed=3) == want


@pytest.mark.parametrize("spec", _sweep_surfaces()[-2:], ids=lambda s: s.label())
def test_sweep_queries_each_distinct_cutoff_once(spec, monkeypatch):
    T = _sweep_cutoff_t(spec)
    _, draws = _sweep_cutoffs(spec, T, 2000, 3)
    real = spectrum.closed_form_identity
    calls = []
    monkeypatch.setattr(spectrum, "closed_form_identity",
                        lambda s, at: calls.append(at) or real(s, at))
    assert oracle.check_equivalence(spec, T, n_times=2000, seed=3).times_checked == 2000
    assert calls == list(dict.fromkeys(t for _, t, _ in draws))


def test_closed_form_tori_are_built_once(monkeypatch):
    # random-order draws grew the MM rectangle's two tori by doubling (two
    # builds and four row sums each at T = 1e4, seed 0); grown to the last
    # level's keys before the draws, every table is built and summed once,
    # and the report is the same
    from spectralab import lattice

    monkeypatch.setattr(spectrum, "_TABLES", {})
    builds, bounds = Counter(), Counter()
    build, bound = lattice._LevelTable.build, lattice._LevelTable.bound
    monkeypatch.setattr(lattice._LevelTable, "build",
                        lambda tb, q: builds.update([tb.spec.label()]) or build(tb, q))
    monkeypatch.setattr(lattice._LevelTable, "bound",
                        lambda tb, q, stop=None: bounds.update([tb.spec.label()])
                        or bound(tb, q, stop))
    rep = oracle.check_equivalence(catalog.rectangle(1, 1, "MM"), 10**4)
    assert rep == ("rectangle:a=1,b=1,bc=MM", 293, 2000, True, "pass")
    once = {"rectangle:a=1,b=1,bc=MM": 1, "flat_torus_rect:a=1,b=1": 1,
            "flat_torus_rect:a=1,b=2": 1}
    assert (builds, bounds) == (once, once)


# --- fault injection: a wrong formula must actually be caught --------------


def test_injected_count_error_detected(monkeypatch):
    spec = catalog.rectangle(1, 1, "D")
    real = spectrum.count
    monkeypatch.setattr(spectrum, "count", lambda s, t, *q: real(s, t, *q) + 1)
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


# module-level names ("module", "name") and class members ("module",
# "Class.member") that no package code reads, each kept on purpose
_NO_PACKAGE_CALLER = {
    ("__init__", "__version__"): "package metadata for users and packaging",
    ("spectrum", "level_arrays"): "whole-table arrays for the tests and their references",
    ("analysis", "window_mean"): "the trapezoidal mean of acceptance test_07 and the tests",
}


def _package_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(Path(oracle.__file__).parent.glob("*.py"))}


def _module_names(tree):
    """Names bound by a module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _names_without_caller():
    """(module, name) of every module-level name that no package code reads.

    A name counts as read when package code reads it as a bare name in its
    own module or in one that imports it by name, or as an attribute
    anywhere; a mention in a docstring or comment does not count.
    """
    trees = _package_trees()
    reads = {mod: set() for mod in trees}
    attrs = set()
    imports = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[mod].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports.setdefault((node.module, alias.name), []).append(
                        (mod, alias.asname or alias.name))
    return {(mod, name) for mod, tree in trees.items()
            for name in _module_names(tree)
            if not (name in reads[mod] or name in attrs
                    or any(local in reads[other]
                           for other, local in imports.get((mod, name), ())))}


def _members_without_reader():
    """(module, "Class.member") of every class member no package code reads.

    The members of a class are its methods and properties, dunders aside,
    and its annotated class-level fields.  A member counts as read when
    package code loads an attribute of that name, or holds a string
    constant equal to it (the name lists the CLI passes to getattr).  The
    rule goes by name, not by owner, so it misses a member whose name any
    other attribute or string also carries: the CLI's metavar "T" would
    hide an unread field named T.
    """
    trees = _package_trees()
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = set()
    for mod, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in reads:
                    unread.add((mod, f"{cls.name}.{name}"))
    return unread


# (reader, owner): the owner's private names that the reader reads.  Each
# pair is a format two modules must both know; a new one is a design change
_PRIVATE_READS = {
    ("analysis", "catalog"): {"_Frozen"},
    ("asymptotics", "lattice"): {"_ONE", "_closed_terms"},
    ("average", "spectrum"): {"_CHUNK"},
    ("cli", "spectrum"): {"_CHUNK"},
    ("lattice", "spectrum"): {"_LEVEL_CAP", "_NEGATIVE", "_Table", "_pq", "_rho_ends",
                              "_table"},
    ("spectrum", "lattice"): {"_LevelTable"},
    ("spectrum", "spherical"): {"_RoundTable"},
    ("spherical", "spectrum"): {"_NEGATIVE", "_Table", "_t_ends"},
}


def _private_reads():
    """{(reader, owner): names} of every private name of one package module
    that another reads, as `owner._name` or `from .owner import _name`."""
    trees = _package_trees()
    found = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in trees):
                owner, names = node.value.id, [node.attr]
            elif (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module in trees):
                owner, names = node.module, [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                if owner != mod and name.startswith("_") and not name.startswith("__"):
                    found.setdefault((mod, owner), set()).add(name)
    return found


def test_private_names_are_read_by_the_known_modules_only():
    assert _private_reads() == _PRIVATE_READS


def test_every_module_name_has_a_caller():
    unread = sorted(f"{mod}.{name}" for mod, name in _names_without_caller()
                    if (mod, name) not in _NO_PACKAGE_CALLER)
    assert not unread, unread


def test_every_class_member_has_a_reader():
    unread = sorted(f"{mod}.{name}" for mod, name in _members_without_reader()
                    if (mod, name) not in _NO_PACKAGE_CALLER)
    assert not unread, unread


def test_caller_allowlist_names_exist_without_callers():
    # an entry goes when its name is deleted or gains a package caller
    stale = sorted(f"{mod}.{name}" for mod, name in set(_NO_PACKAGE_CALLER)
                   - _names_without_caller() - _members_without_reader())
    assert not stale, stale


def test_every_module_import_is_read():
    # a name imported at top level is read in its module, and a name
    # imported inside a function is read in that function
    unread = set()
    for mod, tree in _package_trees().items():
        scopes = [(mod, tree, tree.body)] + [
            (f"{mod}.{node.name}", node, list(ast.walk(node))) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for where, scope, nodes in scopes:
            reads = {node.id for node in ast.walk(scope)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in nodes:
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"):
                    unread |= {f"{where}:{alias.asname or alias.name}"
                               for alias in node.names
                               if (alias.asname or alias.name).split(".")[0] not in reads}
    assert not unread, sorted(unread)


# --- seeded sweeps over random rational shapes ------------------------------


def _random_shape(rng):
    a, b = (F(rng.randint(1, 12), rng.randint(1, 7)) for _ in range(2))
    family = rng.choice(("flat_torus_rect", "rectangle", "cylinder", "mobius_band"))
    if family == "flat_torus_rect":
        return catalog.flat_torus_rect(a, b)
    if family == "rectangle":
        return catalog.rectangle(a, b, rng.choice(("N", "D", "ND", "NM", "DM", "MM")))
    if family == "cylinder":
        return catalog.cylinder(a, b, rng.choice("NDM"))
    return catalog.mobius_band(a, b, rng.choice("ND"))


@pytest.mark.parametrize("seed", range(6))
def test_random_rational_shapes_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(8):
        spec = _random_shape(rng)
        # about a hundred eigenvalues (area * T / 4 pi) whatever the shape
        T = F(round(1200 / float(spec.a * spec.b)) + rng.randrange(50))
        brute = oracle.brute_levels(spec, T)
        assert spectrum.levels(spec, T) == brute, spec
        for key, mult in rng.sample(brute, min(12, len(brute))):
            below = sum(m for k, m in brute if k < key)
            # levels are at least 1/(4 * 12^4) apart: eps stays beside this one
            eps = F(1, 10**9)
            cases = [(key, below + mult), (key + eps, below + mult)]
            if key:
                cases.append((key - eps, below))
            for t, want in cases:
                rep = spectrum.closed_form_identity(spec, spectrum.ExactTime(t))
                assert rep.count == rep.closed_form == want, (spec, t)


def test_every_jump_and_midpoint_matches_oracle():
    # every level of every roster surface below t = 3000 (flat keys rho up
    # to about 300), and every midpoint between two consecutive levels: the
    # table count and the closed form both equal the enumerated prefix
    for spec in catalog.verification_roster():
        spherical = catalog.is_spherical(spec)
        brute = oracle.brute_levels(spec, 3000)
        assert len(brute) > 10, spec

        def at(key):
            if spherical:
                return F(key * (key + 1))
            return spectrum.ExactTime(key)

        def mid(k1, k2):
            if spherical:
                return F(k1 * (k1 + 1) + k2 * (k2 + 1), 2)
            return spectrum.ExactTime((k1 + k2) / 2)

        cases = []
        below = 0
        for i, (key, mult) in enumerate(brute):
            if i:
                cases.append((mid(brute[i - 1][0], key), below))
            below += mult
            cases.append((at(key), below))
        for t, want in cases:
            rep = spectrum.closed_form_identity(spec, t)
            assert spectrum.count(spec, t) == rep.count == rep.closed_form == want, (
                spec.label(), t)


@pytest.mark.parametrize("powers", [
    [(1, 0), (0, 1), (-1, 0)],  # omega^2 = -1: an omega part is left over
    [(1, 0), (0, 1), (0, -1)],  # omega^2 = -omega: a non-integral count
])
def test_equilateral_sector_sums_stay_exact(powers, monkeypatch):
    # the character sums are Eisenstein integers x + y omega; a wrong
    # omega^2 is refused, not rounded
    spec = catalog.symmetry_sector("equilateral_n", "2")
    assert oracle.brute_levels(spec, 400)
    monkeypatch.setattr(oracle, "_OMEGA_POW", powers)
    with pytest.raises(ArithmeticError):
        oracle.brute_levels(spec, 400)


# --- the half-lune count and the projection's exactness ----------------------


def _half_lune_by_steps(spec, N):
    """Reference count: step the azimuthal order mu = m l up to N."""
    want = 0 if spec.bc_equator == "N" else 1
    cnt = 0
    mu = spec.m * (0 if spec.bc_side == "N" else 1)
    while mu <= N:
        if (N + mu) % 2 == want:
            cnt += 1
        mu += spec.m
    return cnt


def test_half_lune_count_matches_stepping():
    for m in range(1, 9):
        for side in "ND":
            for equator in "ND":
                spec = catalog.half_lune(m, side, equator)
                for N in range(400):
                    assert oracle._sph_mult(spec, N) == _half_lune_by_steps(spec, N), (
                        spec.label(), N)


def test_oracle_reads_spectrum_only_to_compare():
    # the enumeration must stay independent of the closed-form machinery:
    # spectrum and the modules of its two table kinds (lattice, and
    # spherical, whose window counts are the round closed form) are
    # imported and read in check_equivalence only
    tree = ast.parse(Path(oracle.__file__).read_text())
    kept = {"spectrum", "lattice", "spherical"}
    compare = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "check_equivalence")
    inside = {id(node) for node in ast.walk(compare)}

    def touches(node):
        if isinstance(node, ast.Import):
            return any(set(alias.name.split(".")) & kept for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (set((node.module or "").split(".")) & kept
                    or any(alias.name in kept for alias in node.names))
        if isinstance(node, ast.Name):
            return node.id in kept
        return isinstance(node, ast.Attribute) and node.attr in kept

    outside = [node.lineno for node in ast.walk(tree) if touches(node) and id(node) not in inside]
    assert not outside, outside
    assert any(touches(node) for node in ast.walk(compare))  # the guard sees the comparison


# A fault in a group table must not go unseen: it is refused as a sum that
# is not a whole multiple of |G|, or the enumerated levels stop agreeing.


def _caught(spec):
    try:
        rep = oracle.check_equivalence(spec, 1000, n_times=20)
    except ArithmeticError:
        return True
    return not rep.ok


def _with_table_fault(monkeypatch, fault):
    real = oracle._project
    monkeypatch.setattr(oracle, "_project",
                        lambda acc, unit, shells, group: real(acc, unit, shells, fault(group)))


def _group_of(spec):
    return oracle._group_table(spec, F(1))[2]


@pytest.mark.parametrize("base", ["square_torus", "square_n", "square_d"])
def test_flipped_square_sector_character_is_caught(base, monkeypatch):
    for irrep in catalog.sector_irreps(base):
        spec = catalog.symmetry_sector(base, irrep)
        assert not _caught(spec)
        for i, (chi, _, _) in enumerate(_group_of(spec)):
            if not chi:
                continue
            with monkeypatch.context() as m:
                _with_table_fault(m, lambda group: [
                    (-c if j == i else c, g, p) for j, (c, g, p) in enumerate(group)])
                assert _caught(spec), (irrep, i)


def test_dropped_group_element_is_caught(monkeypatch):
    specs = [catalog.flat_projective_plane(), catalog.tetrahedron_surface(),
             catalog.half_tetrahedron("N"), catalog.half_tetrahedron("D"),
             catalog.symmetry_sector("square_d", "2"), catalog.symmetry_sector("hex_torus", "-")]
    for spec in specs:
        for i in range(1, len(_group_of(spec))):
            with monkeypatch.context() as m:
                _with_table_fault(m, lambda group: group[:i] + group[i + 1:])
                assert _caught(spec), (spec.label(), i)
    # the projective plane without ST, by name
    with monkeypatch.context() as m:
        m.setattr(oracle, "_FPP", oracle._FPP[:3])
        assert _caught(catalog.flat_projective_plane())


def test_wrong_sign_phase_is_caught(monkeypatch):
    specs = [catalog.flat_projective_plane()] + [
        catalog.symmetry_sector(base, irrep) for base in ("square_n", "square_d")
        for irrep in catalog.sector_irreps(base)]
    for spec in specs:
        _, shells, group = oracle._group_table(spec, F(100))
        modes = [n for shell in shells.values() for n in shell]
        # a sign that is +1 on every mode its element fixes is no fault
        signed = [i for i, (chi, (a, b, c, d), phase) in enumerate(group)
                  if chi and phase and any(phase(n) != (1, 0) for n in modes
                                           if (a * n[0] + b * n[1], c * n[0] + d * n[1]) == n)]
        assert signed, spec.label()
        for i in signed:
            with monkeypatch.context() as m:  # the sign read as +1
                _with_table_fault(m, lambda group: [
                    (c, g, None if j == i else p) for j, (c, g, p) in enumerate(group)])
                assert _caught(spec), (spec.label(), i)


def _hex_shells_by_square_scan(cap):
    """Reference: every index pair of the square that holds the ellipse."""
    out = {}
    qcap = math.floor(cap)
    M = math.isqrt(max(4 * qcap, 0) // 3) + 1
    for n1 in range(-M, M + 1):
        for n2 in range(-M, M + 1):
            q = n1 * n1 - n1 * n2 + n2 * n2
            if q <= qcap:
                out.setdefault(q, []).append((n1, n2))
    return out


def test_hex_shells_match_square_scan():
    for cap in [*range(301), F(7, 2), F(301, 3)]:
        # the same shells, each with its modes in the same order
        assert oracle._hex_shells(cap) == _hex_shells_by_square_scan(cap), cap
