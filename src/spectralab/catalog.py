"""Surface catalog.

SurfaceSpec names one of the model surfaces: flat tori, flat polygons,
cylinders and bands, round-sphere quotients, lunes, polyhedral surfaces, and
symmetry sectors of the square/hexagonal families.  A spec is valid by
construction, so the modules that take one never check it again.  Beside
the specs, their labels and the verification roster, the catalog holds
only what every route reads: which families are round (`is_spherical`)
and how a symmetry sector splits into domains (`sector_domain`,
`sector_parts`).  Each surface's exact geometry lives with its one reader,
`asymptotics.geometry`, so this module imports no other module of the
package and every command, which parses a surface first, compiles no
geometry it does not use.
"""

from __future__ import annotations

import enum
from fractions import Fraction


class Family(enum.Enum):
    """Surface families with explicitly computable spectra."""

    FLAT_TORUS_RECT = "flat_torus_rect"
    FLAT_TORUS_HEX = "flat_torus_hex"
    RECTANGLE = "rectangle"
    RIGHT_ISO_TRIANGLE = "right_iso_triangle"
    EQUILATERAL_TRIANGLE = "equilateral_triangle"
    TRIANGLE_306090 = "triangle_306090"
    CYLINDER = "cylinder"
    MOBIUS_BAND = "mobius_band"
    SPHERE = "sphere"
    HEMISPHERE = "hemisphere"
    PROJECTIVE_SPHERE = "projective_sphere"
    LUNE = "lune"
    HALF_LUNE = "half_lune"
    GLUED_LUNE = "glued_lune"
    FLAT_PROJECTIVE_PLANE = "flat_projective_plane"
    TETRAHEDRON_SURFACE = "tetrahedron_surface"
    HALF_TETRAHEDRON = "half_tetrahedron"
    SYMMETRY_SECTOR = "symmetry_sector"


# The value classes of the package are namedtuples, or frozen __slots__
# classes (`_Frozen`) where a tuple's equality would be wrong: classes
# generated at import would cost every command about 15 ms of start-up.


class _Frozen:
    """Base of the frozen __slots__ classes: __init__ takes the fields in
    __slots__ order and sets them with object.__setattr__, and any later
    assignment raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, which alone may set the fields
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))


class SurfaceSpec(_Frozen):
    """A surface choice: family tag plus the parameters that family uses.

    A spec is valid by construction: __init__ applies the field rule
    (`_field`) to each parameter the family uses and refuses any other off
    its default, whichever way the spec is made.  A spec is immutable and
    equals only a spec of the same fields.
    """

    __slots__ = ("family", "a", "b", "bc", "m", "bc_side", "bc_equator",
                 "base", "irrep", "_hash")

    def __init__(self, family: Family, a: Fraction = Fraction(1),
                 b: Fraction = Fraction(1), bc: str = "", m: int = 1,
                 bc_side: str = "", bc_equator: str = "", base: str = "",
                 irrep: str = ""):
        used = _FIELDS[family]
        put = object.__setattr__
        put(self, "family", family)
        values = (a, b, bc, m, bc_side, bc_equator, base, irrep)
        for name, value, default in zip(_PARAMS, values, _DEFAULTS):
            if name in used:
                value = _field(self, name, value)
            elif value != default:
                raise ValueError(f"{family.value} takes no {name}, got {name}={value!r}")
            put(self, name, value)
        # Specs key the level tables and are hashed on every counting
        # query, so the hash is taken once, from the fields __eq__ compares.
        put(self, "_hash", hash(self._fields()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # field by field, with keywords: error messages print specs
        fields = zip(self.__slots__, self._fields())
        return "SurfaceSpec(" + ", ".join(f"{name}={value!r}" for name, value in fields) + ")"

    def __reduce__(self):
        # rebuilt through __init__: string hashes differ between processes
        return (SurfaceSpec, self._fields())

    def _fields(self) -> tuple:
        return (self.family, self.a, self.b, self.bc, self.m, self.bc_side,
                self.bc_equator, self.base, self.irrep)

    def label(self, text=str) -> str:
        """Canonical text form, e.g. 'rectangle:a=1,b=2,bc=ND', each value
        written by text (`short_label`)."""
        parts = ",".join(f"{name}={text(getattr(self, name))}" for name in _FIELDS[self.family])
        return f"{self.family.value}:{parts}" if parts else self.family.value


def short_number(v) -> str:
    """An int or Fraction for messages: as written, or, past 20 digits in
    its numerator or denominator, as ~ and its %.6g, which `parse_spec`
    refuses, its exponent read off the integers past the float range."""
    if max(abs(v.numerator), v.denominator) < 10 ** 20:
        return str(v)
    e = (abs(v.numerator).bit_length() - v.denominator.bit_length()) * 30103 // 100000
    if abs(e) < 300:
        return "~%.6g" % v
    m, x = ("%.5e" % (v * Fraction(10) ** -e)).split("e")
    return "~%se%+03d" % (m.rstrip("0").rstrip("."), e + int(x))


def short_label(spec: SurfaceSpec) -> str:
    """`label()` for messages, each side by `short_number`, so that a
    refusal on sides of 1e-300 stays one short line and names no other
    surface."""
    return spec.label(lambda v: short_number(v) if isinstance(v, Fraction) else str(v))


# the parameters after family, in __init__ order, and their defaults
_PARAMS = SurfaceSpec.__slots__[1:-1]
_DEFAULTS = SurfaceSpec.__init__.__defaults__

# Parameters that are meaningful for each family, in canonical label order.
_FIELDS: dict[Family, tuple[str, ...]] = {
    Family.FLAT_TORUS_RECT: ("a", "b"),
    Family.FLAT_TORUS_HEX: (),
    Family.RECTANGLE: ("a", "b", "bc"),
    Family.RIGHT_ISO_TRIANGLE: ("a", "bc"),
    Family.EQUILATERAL_TRIANGLE: ("bc",),
    Family.TRIANGLE_306090: ("bc",),
    Family.CYLINDER: ("a", "b", "bc"),
    Family.MOBIUS_BAND: ("a", "b", "bc"),
    Family.SPHERE: (),
    Family.HEMISPHERE: ("bc",),
    Family.PROJECTIVE_SPHERE: (),
    Family.LUNE: ("m", "bc"),
    Family.HALF_LUNE: ("m", "bc_side", "bc_equator"),
    Family.GLUED_LUNE: ("m",),
    Family.FLAT_PROJECTIVE_PLANE: (),
    Family.TETRAHEDRON_SURFACE: (),
    Family.HALF_TETRAHEDRON: ("bc",),
    Family.SYMMETRY_SECTOR: ("base", "irrep"),
}

BC_CHOICES: dict[Family, tuple[str, ...]] = {
    Family.RECTANGLE: ("N", "D", "ND", "NM", "DM", "MM"),
    Family.RIGHT_ISO_TRIANGLE: ("N", "D", "ND", "DN", "MN", "MD"),
    Family.EQUILATERAL_TRIANGLE: ("N", "D"),
    Family.TRIANGLE_306090: ("N", "D", "ND", "DN"),
    Family.CYLINDER: ("N", "D", "M"),
    Family.MOBIUS_BAND: ("N", "D"),
    Family.HEMISPHERE: ("N", "D"),
    Family.LUNE: ("N", "D"),
    Family.HALF_TETRAHEDRON: ("N", "D"),
}

SECTOR_BASES = ("square_torus", "square_n", "square_d", "hex_torus", "equilateral_n",
                "equilateral_d")

_SQUARE_BASES = ("square_torus", "square_n", "square_d")

# Boundary-condition pattern of the fundamental-domain triangle for each
# one-dimensional symmetry sector.  Square bases live on the right isosceles
# triangle with legs 1/2 (one leg on the symmetry bisector, the hypotenuse on
# the diagonal); hex/equilateral bases live on a third of their surface.
_SECTOR_DOMAIN_BC: dict[str, dict[str, str]] = {
    "square_torus": {"++": "N", "+-": "DN", "-+": "ND", "--": "D"},
    "square_n": {"++": "N", "+-": "MN", "-+": "ND", "--": "MD"},
    "square_d": {"++": "MN", "+-": "DN", "-+": "MD", "--": "D"},
    "hex_torus": {"+": "N", "-": "D"},
    "equilateral_n": {"+": "N", "-": "DN"},
    "equilateral_d": {"+": "ND", "-": "D"},
}


def sector_irreps(base: str) -> tuple[str, ...]:
    if base in _SQUARE_BASES:
        return ("++", "+-", "-+", "--", "2")
    if base in SECTOR_BASES:
        return ("+", "-", "2")
    raise ValueError(f"unknown sector base {base!r}")


def sector_dims(base: str) -> dict[str, int]:
    """Irrep label -> dimension, for the symmetry group of the base."""
    return {ir: (2 if ir == "2" else 1) for ir in sector_irreps(base)}


def base_spec(base: str) -> SurfaceSpec:
    """The surface a symmetry-sector base name refers to."""
    if base == "square_torus":
        return flat_torus_rect(Fraction(1, 2), Fraction(1, 2))
    if base == "square_n":
        return rectangle(1, 1, "N")
    if base == "square_d":
        return rectangle(1, 1, "D")
    if base == "hex_torus":
        return flat_torus_hex()
    if base == "equilateral_n":
        return equilateral_triangle("N")
    if base == "equilateral_d":
        return equilateral_triangle("D")
    raise ValueError(f"unknown sector base {base!r}")


def sector_domain(spec: SurfaceSpec) -> tuple[SurfaceSpec, int]:
    """(triangle, s) for a one-dimensional symmetry sector: the sector's
    eigenvalues are s times the triangle's and its lengths the triangle's
    divided by sqrt(s).  Square and hex bases use the triangle at its own
    size (s = 1); the equilateral bases a 30-60-90 triangle with hypotenuse
    1/sqrt3, which is triangle_306090 shrunk by sqrt3 (s = 3)."""
    if spec.irrep == "2":
        raise ValueError("the 2-dimensional sector has no single fundamental domain; "
                         "derive its asymptotics from the partition of the base surface")
    bc = _SECTOR_DOMAIN_BC[spec.base][spec.irrep]
    if spec.base in _SQUARE_BASES:
        return right_iso_triangle(Fraction(1, 2), bc), 1
    if spec.base == "hex_torus":
        return equilateral_triangle(bc), 1
    return triangle_306090(bc), 3


def sector_parts(base: str) -> list[tuple[SurfaceSpec, int]]:
    """The base surface with sign +1 and its one-dimensional sectors with
    sign -1: the signed sum of their levels is the 2-dimensional sector's."""
    return [(base_spec(base), 1)] + [(symmetry_sector(base, ir), -1)
                                     for ir in sector_irreps(base) if ir != "2"]


def _frac(v, name: str) -> Fraction:
    try:
        f = Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be rational, got {v!r}") from exc
    if f <= 0:
        raise ValueError(f"{name} must be positive, got {v!r}")
    try:  # the decimals of the refined constants read the sides as floats
        float(f)
    except OverflowError:
        raise ValueError(f"{name} must be within the float range, got {v!r}") from None
    return f


def _field(spec: SurfaceSpec, name: str, value):
    """The field rule: a used parameter's value, checked (a side made a
    Fraction).  spec holds its family and the parameters before name."""
    if name in ("a", "b"):
        side = _frac(value, name)
        if name == "b" and spec.family is not Family.FLAT_TORUS_RECT:
            # the closed forms (`lattice._closed_terms`) count on tori of
            # side ratio up to 4 b / a or 4 a / b, each a spec of its own
            try:
                float(4 * max(spec.a, side) / min(spec.a, side))
            except OverflowError:
                raise ValueError(f"a={float(spec.a):g} and b={value} are too far apart: "
                                 "4 times their ratio must be within the float range") from None
        return side
    if name == "m":
        if isinstance(value, int) and value >= 1:
            return value
        raise ValueError(f"m must be a positive integer, got {value!r}")
    # the last choices are a half lune's bc_side and bc_equator
    allowed = (BC_CHOICES[spec.family] if name == "bc" else
               sector_irreps(spec.base) if name == "irrep" else
               SECTOR_BASES if name == "base" else ("N", "D"))
    if value not in allowed:
        raise ValueError(f"{spec.family.value} {name} must be one of {allowed}, got {value!r}")
    return value


# --- factories ---


def flat_torus_rect(a=1, b=1) -> SurfaceSpec:
    """Flat torus with periods 2a and 2b."""
    return SurfaceSpec(Family.FLAT_TORUS_RECT, a, b)


def flat_torus_hex() -> SurfaceSpec:
    """Flat torus on the hexagonal lattice spanned by (sqrt3,0), (sqrt3/2,3/2)."""
    return SurfaceSpec(Family.FLAT_TORUS_HEX)


def rectangle(a=1, b=1, bc: str = "N") -> SurfaceSpec:
    """Rectangle of sides a (horizontal) and b.

    bc: N, D, ND (Neumann on the length-a edges), NM / DM (N resp. D on the
    vertical edges, Neumann bottom and Dirichlet top), MM (Neumann on left
    and bottom, Dirichlet on right and top).
    """
    return SurfaceSpec(Family.RECTANGLE, a, b, bc)


def right_iso_triangle(a=1, bc: str = "N") -> SurfaceSpec:
    """Right isosceles triangle with legs a.

    bc: N, D, ND (Neumann legs, Dirichlet hypotenuse), DN (the reverse),
    MN / MD (one Neumann and one Dirichlet leg, hypotenuse N resp. D).
    """
    return SurfaceSpec(Family.RIGHT_ISO_TRIANGLE, a, bc=bc)


def equilateral_triangle(bc: str = "N") -> SurfaceSpec:
    """Equilateral triangle of side 1."""
    return SurfaceSpec(Family.EQUILATERAL_TRIANGLE, bc=bc)


def triangle_306090(bc: str = "N") -> SurfaceSpec:
    """30-60-90 triangle with hypotenuse 1 (half of the side-1 equilateral).

    bc: N, D, ND (Neumann on hypotenuse and shortest side, Dirichlet on the
    bisecting side), DN (the reverse).
    """
    return SurfaceSpec(Family.TRIANGLE_306090, bc=bc)


def cylinder(a=1, b=1, bc: str = "N") -> SurfaceSpec:
    """Flat cylinder of circumference a and height b (two boundary circles).

    bc: N, D, or M (Neumann on one circle, Dirichlet on the other).
    """
    return SurfaceSpec(Family.CYLINDER, a, b, bc)


def mobius_band(a=1, b=1, bc: str = "N") -> SurfaceSpec:
    """Flat Mobius band of area a*b whose single boundary circle has length 2a."""
    return SurfaceSpec(Family.MOBIUS_BAND, a, b, bc)


def sphere() -> SurfaceSpec:
    """Round unit sphere."""
    return SurfaceSpec(Family.SPHERE)


def hemisphere(bc: str = "N") -> SurfaceSpec:
    """Unit hemisphere, boundary condition on the equator."""
    return SurfaceSpec(Family.HEMISPHERE, bc=bc)


def projective_sphere() -> SurfaceSpec:
    """Unit sphere with antipodal points identified."""
    return SurfaceSpec(Family.PROJECTIVE_SPHERE)


def lune(m: int, bc: str = "N") -> SurfaceSpec:
    """Spherical lune of dihedral angle pi/m between two meridians."""
    return SurfaceSpec(Family.LUNE, m=m, bc=bc)


def half_lune(m: int, bc_side: str = "N", bc_equator: str = "N") -> SurfaceSpec:
    """Half lune: the angle-pi/m lune cut along the equator.

    bc_side applies to the two meridian edges, bc_equator to the equator edge.
    """
    return SurfaceSpec(Family.HALF_LUNE, m=m, bc_side=bc_side, bc_equator=bc_equator)


def glued_lune(m: int) -> SurfaceSpec:
    """Closed surface from gluing two angle-pi/m lunes: a sphere with two
    cone points of angle 2 pi / m.  m=1 is the sphere itself."""
    return SurfaceSpec(Family.GLUED_LUNE, m=m)


def flat_projective_plane() -> SurfaceSpec:
    """Flat projective plane of area 1 (two cone points of angle pi)."""
    return SurfaceSpec(Family.FLAT_PROJECTIVE_PLANE)


def tetrahedron_surface() -> SurfaceSpec:
    """Boundary surface of the regular tetrahedron with unit edges."""
    return SurfaceSpec(Family.TETRAHEDRON_SURFACE)


def half_tetrahedron(bc: str = "N") -> SurfaceSpec:
    """Half of the tetrahedron surface cut along a mirror line."""
    return SurfaceSpec(Family.HALF_TETRAHEDRON, bc=bc)


def symmetry_sector(base: str, irrep: str) -> SurfaceSpec:
    """Eigenfunctions of a base surface restricted to one symmetry type.

    base: one of square_torus, square_n, square_d (dihedral group of order 8)
    or hex_torus, equilateral_n, equilateral_d (order 6).  irrep: '++', '+-',
    '-+', '--', '2' for the square bases, '+', '-', '2' for the others.
    """
    return SurfaceSpec(Family.SYMMETRY_SECTOR, base=base, irrep=irrep)


def parse_spec(text: str) -> SurfaceSpec:
    """Inverse of SurfaceSpec.label(): 'family:k=v,...' back to a spec.

    Raises ValueError on unknown families, unknown or missing parameters,
    and anything the field rule refuses.
    """
    head, _, tail = text.strip().partition(":")
    try:
        family = Family(head)
    except ValueError:
        raise ValueError(f"unknown surface family {head!r}") from None
    names = _FIELDS[family]
    kwargs = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in names:
                raise ValueError(f"bad parameter {item!r} for {head}")
            if key in kwargs:
                raise ValueError(f"duplicate parameter {key!r}")
            kwargs[key] = value.strip()
    if set(kwargs) != set(names):
        missing = sorted(set(names) - set(kwargs))
        raise ValueError(f"{head} needs parameters {missing}")
    if "m" in kwargs:
        try:
            kwargs["m"] = int(kwargs["m"])
        except ValueError:
            raise ValueError(f"m must be an integer, got {kwargs['m']!r}") from None
    return SurfaceSpec(family, **kwargs)


def is_spherical(spec: SurfaceSpec) -> bool:
    """True for the constant-curvature-one families (counting runs in k^2+k windows)."""
    return spec.family in (
        Family.SPHERE,
        Family.HEMISPHERE,
        Family.PROJECTIVE_SPHERE,
        Family.LUNE,
        Family.HALF_LUNE,
        Family.GLUED_LUNE,
    )


# --- roster ---


def verification_roster() -> list[SurfaceSpec]:
    """Every family, each boundary-condition variant, a few parameter shapes:
    the list swept by the counting-identity verification."""
    out = [flat_torus_rect(1, 1), flat_torus_rect(2, Fraction(3, 2)), flat_torus_hex()]
    out += [rectangle(1, 1, bc) for bc in BC_CHOICES[Family.RECTANGLE]]
    out += [rectangle(2, Fraction(3, 2), "ND"), rectangle(Fraction(3, 2), 1, "NM")]
    out += [right_iso_triangle(1, bc) for bc in BC_CHOICES[Family.RIGHT_ISO_TRIANGLE]]
    out.append(right_iso_triangle(Fraction(1, 2), "N"))
    out += [equilateral_triangle(bc) for bc in ("N", "D")]
    out += [triangle_306090(bc) for bc in BC_CHOICES[Family.TRIANGLE_306090]]
    out += [cylinder(1, 1, bc) for bc in ("N", "D", "M")]
    out.append(cylinder(Fraction(3, 2), 1, "M"))
    out += [mobius_band(1, 1, bc) for bc in ("N", "D")]
    out.append(mobius_band(1, Fraction(1, 2), "D"))
    out.append(sphere())
    out += [hemisphere(bc) for bc in ("N", "D")]
    out.append(projective_sphere())
    out += [lune(m, bc) for m in (1, 2, 3, 5) for bc in ("N", "D")]
    out += [half_lune(m, s, e) for m in (1, 2, 3, 4, 5) for s in ("N", "D") for e in ("N", "D")]
    out += [glued_lune(m) for m in (1, 2, 3, 5)]
    out.append(flat_projective_plane())
    out.append(tetrahedron_surface())
    out += [half_tetrahedron(bc) for bc in ("N", "D")]
    out += [symmetry_sector(base, ir) for base in SECTOR_BASES for ir in sector_irreps(base)]
    return out
