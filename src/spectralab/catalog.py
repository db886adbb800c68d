"""Surface catalog.

SurfaceSpec names one of the model surfaces: flat tori, flat polygons,
cylinders and bands, round-sphere quotients, lunes, polyhedral surfaces, and
symmetry sectors of the square/hexagonal families.  A spec is valid by
construction, so the modules that take one never check it again.
geometry() returns the exact data behind the two-term counting asymptotics
(area, boundary length split by condition, corners, cone points, total
curvature).  Every cataloged boundary is a geodesic (a straight edge, an
equator or a meridian), so no geodesic-curvature integral is recorded.  A
one-dimensional symmetry sector owns no geometry of its own: its data are
its domain triangle's, scaled (`sector_domain`).

All geometric quantities are ExactConst values (rational combinations of
sqrt(s) and powers of pi), never floats.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from .exact import ExactConst


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


class CornerKind(enum.Enum):
    """LIKE: both edges at the corner carry the same boundary condition."""

    LIKE = "like"
    MIXED = "mixed"


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


class CornerSpec(namedtuple("CornerSpec", "angle kind")):
    """A corner: its angle (an ExactConst) and its CornerKind."""

    __slots__ = ()


class ConePoint(namedtuple("ConePoint", "angle")):
    """A cone point of the given total angle (an ExactConst)."""

    __slots__ = ()


_ZERO = ExactConst()


class GeometryData(namedtuple(
        "GeometryData", "area len_N len_D corners cone_points K2_total",
        defaults=(_ZERO, _ZERO, (), (), _ZERO))):
    """Exact geometric inputs to the refined counting constants.

    area, len_N, len_D and K2_total are ExactConst values; corners is a
    tuple of CornerSpec and cone_points one of ConePoint.  len_N / len_D
    are the total boundary lengths carrying Neumann resp. Dirichlet
    conditions.  K2_total is the integral of the Gauss curvature over the
    surface.  A field left out is zero.  There is no field for the
    geodesic curvature of the boundary: every cataloged boundary is
    geodesic, so its integral would be zero on every surface.
    """

    __slots__ = ()


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


def short_label(spec: SurfaceSpec) -> str:
    """`label()` for messages: a side whose numerator or denominator has
    more than 20 digits is written as ~ and its %.6g, which `parse_spec`
    refuses, so that a refusal on sides of 1e-300 stays one short line and
    names no other surface; sides are within the float range."""
    def text(v):
        long = isinstance(v, Fraction) and max(abs(v.numerator), v.denominator) >= 10 ** 20
        return "~%.6g" % v if long else str(v)

    return spec.label(text)


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
            # the closed forms (`spectrum._closed_terms`) count on tori of
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


# --- geometry ---


def _rat(q) -> ExactConst:
    return ExactConst.rational(q)


def _pi_times(q) -> ExactConst:
    return ExactConst.term(Fraction(q), pi_pow=1)


def _root(q, s: int) -> ExactConst:
    return ExactConst.term(Fraction(q), root=s)


def _polygon(area: ExactConst, edges: list[tuple[ExactConst, str]],
             corners: list[tuple[Fraction, int, int]]) -> GeometryData:
    """Flat polygon data from edge list [(length, 'N'|'D')] and corner list
    [(angle/pi, edge_i, edge_j)]."""
    len_n = len_d = _ZERO
    for length, bc in edges:
        if bc == "N":
            len_n = len_n + length
        else:
            len_d = len_d + length
    cs = []
    for q, i, j in corners:
        kind = CornerKind.LIKE if edges[i][1] == edges[j][1] else CornerKind.MIXED
        cs.append(CornerSpec(_pi_times(q), kind))
    return GeometryData(area=area, len_N=len_n, len_D=len_d, corners=tuple(cs))


def _closed_flat(area: ExactConst, cone_angles: list[Fraction]) -> GeometryData:
    cones = tuple(ConePoint(_pi_times(q)) for q in cone_angles)
    return GeometryData(area=area, cone_points=cones)


# each edge's condition, one letter an edge: a rectangle's bottom, right,
# top and left; a right isosceles triangle's legs and hypotenuse; a 30-60-90
# triangle's hypotenuse, bisecting (long) side and shortest side
_RECT_EDGE_BC = {"N": "NNNN", "D": "DDDD", "ND": "NDND", "NM": "NNDN", "DM": "NDDD",
                 "MM": "NDDN"}
_RIGHT_ISO_EDGE_BC = {"N": "NNN", "D": "DDD", "ND": "NND", "DN": "DDN", "MN": "NDN",
                      "MD": "NDD"}
_306090_EDGE_BC = {"N": "NNN", "D": "DDD", "ND": "NDN", "DN": "DND"}


def _geom_rectangle(a: Fraction, b: Fraction, bc: str) -> GeometryData:
    e = _RECT_EDGE_BC[bc]
    edges = [(_rat(a), e[0]), (_rat(b), e[1]), (_rat(a), e[2]), (_rat(b), e[3])]
    half = Fraction(1, 2)
    corners = [(half, 0, 1), (half, 1, 2), (half, 2, 3), (half, 3, 0)]
    return _polygon(_rat(a * b), edges, corners)


def _geom_right_iso(a: Fraction, bc: str) -> GeometryData:
    e = _RIGHT_ISO_EDGE_BC[bc]
    edges = [(_rat(a), e[0]), (_rat(a), e[1]), (_root(a, 2), e[2])]
    corners = [(Fraction(1, 2), 0, 1), (Fraction(1, 4), 0, 2), (Fraction(1, 4), 1, 2)]
    return _polygon(_rat(a * a / 2), edges, corners)


def _geom_equilateral(bc: str) -> GeometryData:
    edges = [(_rat(1), bc)] * 3
    third = Fraction(1, 3)
    corners = [(third, 0, 1), (third, 1, 2), (third, 2, 0)]
    return _polygon(_root(Fraction(1, 4), 3), edges, corners)


def _geom_306090(bc: str) -> GeometryData:
    e = _306090_EDGE_BC[bc]
    hyp, long_side, short = _rat(1), _root(Fraction(1, 2), 3), _rat(Fraction(1, 2))
    edges = [(hyp, e[0]), (long_side, e[1]), (short, e[2])]
    corners = [(Fraction(1, 2), 1, 2), (Fraction(1, 3), 0, 2), (Fraction(1, 6), 0, 1)]
    return _polygon(_root(Fraction(1, 8), 3), edges, corners)


def _geom_cylinder(a: Fraction, b: Fraction, bc: str) -> GeometryData:
    n = {"N": 2, "D": 0, "M": 1}[bc]  # Neumann circles of length a
    return GeometryData(area=_rat(a * b), len_N=_rat(n * a), len_D=_rat((2 - n) * a))


def _geom_mobius(a: Fraction, b: Fraction, bc: str) -> GeometryData:
    circle = _rat(2 * a)
    return GeometryData(area=_rat(a * b), len_N=circle if bc == "N" else _ZERO,
                        len_D=circle if bc == "D" else _ZERO)


def _geom_round(area_pi: Fraction, boundary_pi_n: Fraction = Fraction(0),
                boundary_pi_d: Fraction = Fraction(0),
                corners: tuple[CornerSpec, ...] = (), cones: tuple[ConePoint, ...] = ()) -> GeometryData:
    """Unit-curvature surface; area and boundary lengths as multiples of pi."""
    area = _pi_times(area_pi)
    return GeometryData(area=area, len_N=_pi_times(boundary_pi_n),
                        len_D=_pi_times(boundary_pi_d), corners=corners,
                        cone_points=cones, K2_total=area)


def _geom_lune(m: int, bc: str) -> GeometryData:
    pole = CornerSpec(_pi_times(Fraction(1, m)), CornerKind.LIKE)
    return _geom_round(Fraction(2, m), Fraction(2) if bc == "N" else Fraction(0),
                       Fraction(2) if bc == "D" else Fraction(0), corners=(pole, pole))


def _geom_half_lune(m: int, bc_side: str, bc_equator: str) -> GeometryData:
    pole = CornerSpec(_pi_times(Fraction(1, m)), CornerKind.LIKE)
    foot_kind = CornerKind.LIKE if bc_side == bc_equator else CornerKind.MIXED
    foot = CornerSpec(_pi_times(Fraction(1, 2)), foot_kind)
    sides = Fraction(1)  # two meridian edges of length pi/2
    equator = Fraction(1, m)
    return _geom_round(Fraction(1, m),
                       (sides if bc_side == "N" else 0) + (equator if bc_equator == "N" else 0),
                       (sides if bc_side == "D" else 0) + (equator if bc_equator == "D" else 0),
                       corners=(pole, foot, foot))


def _geom_sector(spec: SurfaceSpec) -> GeometryData:
    """The domain triangle's data with area over s and lengths over sqrt(s)."""
    domain, s = sector_domain(spec)
    g = geometry(domain)
    shrink = _root(Fraction(1, s), s)
    return g._replace(area=g.area / s, len_N=g.len_N * shrink,
                      len_D=g.len_D * shrink)


def geometry(spec: SurfaceSpec) -> GeometryData:
    """Exact geometric data for a surface."""
    f = spec.family
    if f == Family.FLAT_TORUS_RECT:
        return _closed_flat(_rat(4 * spec.a * spec.b), [])
    if f == Family.FLAT_TORUS_HEX:
        return _closed_flat(_root(Fraction(3, 2), 3), [])
    if f == Family.RECTANGLE:
        return _geom_rectangle(spec.a, spec.b, spec.bc)
    if f == Family.RIGHT_ISO_TRIANGLE:
        return _geom_right_iso(spec.a, spec.bc)
    if f == Family.EQUILATERAL_TRIANGLE:
        return _geom_equilateral(spec.bc)
    if f == Family.TRIANGLE_306090:
        return _geom_306090(spec.bc)
    if f == Family.CYLINDER:
        return _geom_cylinder(spec.a, spec.b, spec.bc)
    if f == Family.MOBIUS_BAND:
        return _geom_mobius(spec.a, spec.b, spec.bc)
    if f == Family.SPHERE:
        return _geom_round(Fraction(4))
    if f == Family.HEMISPHERE:
        return _geom_round(Fraction(2), Fraction(2) if spec.bc == "N" else Fraction(0),
                           Fraction(2) if spec.bc == "D" else Fraction(0))
    if f == Family.PROJECTIVE_SPHERE:
        return _geom_round(Fraction(2))
    if f == Family.LUNE:
        return _geom_lune(spec.m, spec.bc)
    if f == Family.HALF_LUNE:
        return _geom_half_lune(spec.m, spec.bc_side, spec.bc_equator)
    if f == Family.GLUED_LUNE:
        cone = ConePoint(_pi_times(Fraction(2, spec.m)))
        return _geom_round(Fraction(4, spec.m), cones=(cone, cone))
    if f == Family.FLAT_PROJECTIVE_PLANE:
        return _closed_flat(_rat(1), [Fraction(1), Fraction(1)])
    if f == Family.TETRAHEDRON_SURFACE:
        return _closed_flat(_root(1, 3), [Fraction(1)] * 4)
    if f == Family.HALF_TETRAHEDRON:
        corner = CornerSpec(_pi_times(Fraction(1, 2)), CornerKind.LIKE)
        boundary = _rat(1) + _root(1, 3)  # 1 + sqrt3
        return GeometryData(area=_root(Fraction(1, 2), 3),
                            len_N=boundary if spec.bc == "N" else _ZERO,
                            len_D=boundary if spec.bc == "D" else _ZERO, corners=(corner, corner),
                            cone_points=(ConePoint(_pi_times(Fraction(1))),))
    if f == Family.SYMMETRY_SECTOR:
        return _geom_sector(spec)
    raise ValueError(f"no geometry for {spec}")


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
