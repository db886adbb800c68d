import pickle
import random
from fractions import Fraction

import pytest

from spectralab import catalog
from spectralab.asymptotics import geometry
from spectralab.catalog import (
    BC_CHOICES,
    Family,
    SECTOR_BASES,
    SurfaceSpec,
    is_spherical,
    sector_irreps,
    verification_roster,
)


def test_factory_validation_errors():
    with pytest.raises(ValueError):
        catalog.rectangle(1, 1, "X")
    with pytest.raises(ValueError):
        catalog.rectangle(0, 1)
    with pytest.raises(ValueError):
        catalog.lune(0)
    with pytest.raises(ValueError):
        catalog.half_lune(2, "N", "Q")
    with pytest.raises(ValueError):
        catalog.symmetry_sector("square_torus", "+")
    with pytest.raises(ValueError):
        catalog.symmetry_sector("cube", "++")
    with pytest.raises(ValueError):
        catalog.mobius_band(1, 1, "M")


def test_validate_rejects_stray_fields():
    with pytest.raises(ValueError):
        SurfaceSpec(Family.SPHERE, bc="D")
    assert SurfaceSpec(Family.SPHERE) == catalog.sphere()


def test_equal_specs_hash_equal():
    # the hash is taken once at construction, from the fields __eq__ compares
    a = catalog.rectangle(Fraction(3, 2), 1, "N")
    b = SurfaceSpec(Family.RECTANGLE, a=Fraction(6, 4), b=1, bc="N")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert catalog.rectangle(Fraction(3, 2), 1, "D") != a
    c = SurfaceSpec(Family.RECTANGLE, a=Fraction(3, 2), b=Fraction(1), bc="D")
    assert c == catalog.rectangle(Fraction(3, 2), 1, "D")
    assert hash(c) == hash(catalog.rectangle(Fraction(3, 2), 1, "D"))
    for spec in verification_roster():
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec and hash(again) == hash(spec)
        assert b"_hash" not in pickle.dumps(spec)
        assert catalog.parse_spec(spec.label()) == spec
        assert hash(catalog.parse_spec(spec.label())) == hash(spec)

def test_short_labels_write_long_sides_as_g():
    # a side of more than 20 digits over or under its bar prints as ~ and
    # its %.6g; the rest, and label() itself, stay exact
    tiny = catalog.parse_spec("rectangle:a=1e-300,b=1e-300,bc=N")
    assert len(tiny.label()) > 600
    assert catalog.short_label(tiny) == "rectangle:a=~1e-300,b=~1e-300,bc=N"
    wide = catalog.flat_torus_rect(Fraction(10**20 + 1, 3), Fraction(3, 7))
    assert catalog.short_label(wide) == "flat_torus_rect:a=~3.33333e+19,b=3/7"
    assert catalog.short_label(catalog.flat_torus_rect(Fraction(10**20 - 1, 3), 1)) == (
        "flat_torus_rect:a=33333333333333333333,b=1")
    for sp in catalog.verification_roster():
        assert catalog.short_label(sp) == sp.label()


def test_short_labels_of_long_sides_name_no_other_surface():
    # a rounded side would read back as another surface, 1 for
    # 1.000000000000000000001: its ~ makes parse_spec refuse the label
    rng = random.Random(5)
    sides = [Fraction("1.000000000000000000001"), Fraction(10**20 + 1, 3),
             Fraction(3, 10**20 + 7), Fraction(1, 10**300), Fraction(10**300 + 1)]
    sides += [Fraction(rng.randrange(1, 10**rng.randrange(21, 60)),
                       rng.randrange(1, 10**rng.randrange(1, 60))) for _ in range(200)]
    long = [s for s in sides if max(s.numerator, s.denominator) >= 10**20]
    assert len(long) > 150
    for side in long:
        for sp in (catalog.rectangle(side, 1, "N"), catalog.flat_torus_rect(1, side),
                   catalog.cylinder(side, side, "M")):
            with pytest.raises(ValueError):
                catalog.parse_spec(catalog.short_label(sp))


def test_labels():
    assert catalog.sphere().label() == "sphere"
    assert catalog.rectangle(1, 2, "ND").label() == "rectangle:a=1,b=2,bc=ND"
    assert catalog.flat_torus_rect(1, Fraction(3, 2)).label() == "flat_torus_rect:a=1,b=3/2"
    assert catalog.half_lune(3, "N", "D").label() == "half_lune:m=3,bc_side=N,bc_equator=D"
    assert catalog.symmetry_sector("hex_torus", "2").label() == "symmetry_sector:base=hex_torus,irrep=2"


def test_roster_covers_catalog():
    roster = verification_roster()
    labels = [s.label() for s in roster]
    assert len(labels) == len(set(labels))
    fams = {s.family for s in roster}
    assert fams == set(Family)
    for spec in roster:
        if spec.family != Family.SYMMETRY_SECTOR or spec.irrep != "2":
            geometry(spec)
    # every boundary-condition variant appears
    for fam, choices in BC_CHOICES.items():
        seen = {s.bc for s in roster if s.family == fam}
        assert seen == set(choices)
    for base in SECTOR_BASES:
        seen = {s.irrep for s in roster if s.family == Family.SYMMETRY_SECTOR and s.base == base}
        assert seen == set(sector_irreps(base))


def test_spherical_and_boundary_flags():
    assert is_spherical(catalog.glued_lune(2))
    assert not is_spherical(catalog.flat_projective_plane())


def test_base_specs():
    assert catalog.base_spec("square_torus") == catalog.flat_torus_rect(Fraction(1, 2), Fraction(1, 2))
    assert catalog.base_spec("square_n") == catalog.rectangle(1, 1, "N")
    assert catalog.base_spec("equilateral_d") == catalog.equilateral_triangle("D")
    with pytest.raises(ValueError):
        catalog.base_spec("octagon")


# --- value classes ---


def _value_objects():
    """One object of every value class of the package."""
    from spectralab import analysis, asymptotics, oracle, spectrum

    geom = geometry(catalog.right_iso_triangle(1, "N"))
    return [
        catalog.rectangle(Fraction(3, 2), 1, "ND"),
        geom,
        geom.corners[0],
        geometry(catalog.tetrahedron_surface()).cone_points[0],
        spectrum.ExactTime(Fraction(7, 2)),
        spectrum.closed_form_identity(catalog.sphere(), 100),
        asymptotics.surface_constants(catalog.hemisphere("D")),
        oracle.check_equivalence(catalog.sphere(), 100, n_times=5),
        analysis.make_profile(catalog.sphere(), 10, 20, 3),
        analysis.symmetry_proportions("square_torus", 1000)[0],
    ]


def _field_names(obj):
    return obj._fields if isinstance(obj, tuple) else type(obj).__slots__


def test_value_classes_are_frozen():
    objs = _value_objects()
    assert len({type(obj) for obj in objs}) == 10
    for obj in objs:
        for name in _field_names(obj) + ("extra",):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, _field_names(obj)[0])


def test_value_classes_survive_pickling():
    for obj in _value_objects():
        again = pickle.loads(pickle.dumps(obj))
        assert type(again) is type(obj)
        if type(obj).__name__ == "APProfile":
            assert again != obj  # arrays: a profile equals only itself
            assert again.xs.tolist() == obj.xs.tolist()
            assert again.gs.tolist() == obj.gs.tolist()
        else:
            assert again == obj and hash(again) == hash(obj)


def test_surface_spec_repr_and_equality():
    spec = catalog.rectangle(Fraction(3, 2), 1, "ND")
    assert repr(spec) == (
        "SurfaceSpec(family=<Family.RECTANGLE: 'rectangle'>, a=Fraction(3, 2), "
        "b=Fraction(1, 1), bc='ND', m=1, bc_side='', bc_equator='', base='', irrep='')")
    assert spec != spec._fields() and spec._fields() != spec
    assert spec == SurfaceSpec(Family.RECTANGLE, Fraction(3, 2), Fraction(1), "ND")
    assert spec != SurfaceSpec(Family.RECTANGLE, Fraction(3, 2), Fraction(1), "NM")


def test_exact_time_and_count_report():
    from spectralab.spectrum import CountReport, ExactTime

    with pytest.raises(ValueError, match="negative cutoff"):
        ExactTime(-1)
    rho = ExactTime(2).rho
    assert type(rho) is Fraction and rho == 2
    assert ExactTime(0.5) == ExactTime(Fraction(1, 2))
    assert CountReport(6.0, 9, 9) == CountReport(6.0, 9, 9)
    assert CountReport(6.0, 9, 9) != CountReport(6.0, 9, 8)


# one refused value per parameter: used by the family, it breaks the field
# rule; unused, it differs from the default
_PARAMS = ("a", "b", "bc", "m", "bc_side", "bc_equator", "base", "irrep")
_INVALID = {"a": "1e400", "b": 0, "bc": "X", "m": 0, "bc_side": "M",
            "bc_equator": "Q", "base": "cube", "irrep": "3"}
_STRAY = {"a": 2, "b": Fraction(1, 2), "bc": "N", "m": 2, "bc_side": "N",
          "bc_equator": "D", "base": "hex_torus", "irrep": "+"}


class _Reduced:
    """Pickles as the given __reduce__ tuple."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_every_construction_path_refuses_a_bad_field(family):
    valid = next(s for s in verification_roster() if s.family is family)
    used = catalog._FIELDS[family]
    factory = getattr(catalog, family.value)
    for name in _PARAMS:
        value = _INVALID[name] if name in used else _STRAY[name]
        fields = {n: getattr(valid, n) for n in used}
        fields[name] = value
        # a factory takes only the parameters its family uses
        with pytest.raises(ValueError if name in used else TypeError):
            factory(**fields)
        with pytest.raises(ValueError):
            SurfaceSpec(family, **fields)
        label = family.value + ":" + ",".join(f"{n}={v}" for n, v in fields.items())
        with pytest.raises(ValueError):
            catalog.parse_spec(label)
        cls, args = valid.__reduce__()
        args = list(args)
        args[1 + _PARAMS.index(name)] = value
        data = pickle.dumps(_Reduced((cls, tuple(args))))
        with pytest.raises(ValueError):
            pickle.loads(data)
    # and the valid spec itself passes every path
    assert factory(**{n: getattr(valid, n) for n in used}) == valid
    assert pickle.loads(pickle.dumps(valid)) == valid
