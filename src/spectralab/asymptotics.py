"""Refined counting asymptotics: N(t) is tracked by A*t + B*sqrt(t) + C.

A is the area term, B the signed boundary-length term, and C collects three
geometric pieces: corner and cone-point angles (C1), geodesic curvature of
the boundary (C2, zero here: every cataloged boundary is geodesic), and
total Gauss curvature (C3).  Their data live here, with their one reader:
`geometry` gives a surface's area, boundary length split by condition,
corners, cone points and total curvature as ExactConst values (rational
combinations of sqrt(s) and powers of pi), never floats; a
one-dimensional symmetry sector's are its domain triangle's, scaled
(`catalog.sector_domain`).

`refined_constants` derives the triple from a GeometryData alone;
`surface_constants` checks it against the counting formula and raises if
the two disagree, so a slip in either the geometry data or the counting
is a hard error instead of a silent drift.  On a flat surface the other
side is read off the closed form of N(t) that the oracle verifies
(`lattice._closed_terms`); on a round one it is its family's formulas in
the lune order m, which cost the same at every m.

The same closed form, Poisson-summed, gives the lengths at which N(t) -
(A t + B sqrt(t) + C) oscillates: `geodesic_lengths` reads them in the
pass that reads the constants (`_read_closed_form`).  Outside `lattice`,
which compiles and evaluates the closed form, no other module reads its
terms, and only a flat surface's constants or lengths load it.

Positively curved families take the square root at t + 1/4 rather than t
(the `sqrt_shift` flag); the two differ only at order t^{-1/2} but the
constants below are exact only for the shifted form.

Cone points enter C1 through half their cone angle: a cone of angle alpha
counts as 2*psi(alpha/2), consistent with doubling across a corner.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict, namedtuple
from fractions import Fraction

from . import catalog, spectrum
from .catalog import Family, SurfaceSpec
from .exact import ExactConst

_INV_4PI = ExactConst.term(Fraction(1, 4), pi_pow=-1)
_INV_12PI = ExactConst.term(Fraction(1, 12), pi_pow=-1)
GAMMA_3_2 = math.sqrt(math.pi) / 2.0
_HEAT_TOL = 1e-9  # largest tail bound heat_trace accepts


class TailBoundError(ArithmeticError):
    """heat_trace's cutoff leaves too large a tail: a larger one may not."""


# --- geometry ---


class CornerKind(enum.Enum):
    """LIKE: both edges at the corner carry the same boundary condition."""

    LIKE = "like"
    MIXED = "mixed"


class CornerSpec(namedtuple("CornerSpec", "angle kind")):
    """A corner: its angle (an ExactConst) and its CornerKind."""

    __slots__ = ()


class ConePoint(namedtuple("ConePoint", "angle")):
    """A cone point of the given total angle (an ExactConst)."""

    __slots__ = ()


def _rat(q) -> ExactConst:
    return ExactConst.rational(q)


_ZERO = _rat(0)


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
    domain, s = catalog.sector_domain(spec)
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


# --- constants ---


def psi(theta: ExactConst) -> Fraction:
    """Corner weight (1/24)(pi/theta - theta/pi), exactly.

    theta is an ExactConst angle, a rational multiple of pi as every
    catalog angle is, with 0 < theta < 2*pi.
    """
    r = theta.as_pi_multiple()
    if not 0 < r < 2:
        raise ValueError(f"angle {theta} is outside (0, 2*pi)")
    return Fraction(1, 24) * (Fraction(1) / r - r)


class RefinedAsymptotics(namedtuple("RefinedAsymptotics",
                                     "A B C C1 C2 C3 sqrt_shift")):
    """The three constants, with C broken into its geometric pieces.

    A, B and C = C1 + C2 + C3 are ExactConst values: C1 from corners and
    cone points, C2 from the boundary geodesic curvature, C3 from the total
    Gauss curvature.  sqrt_shift (a bool) says that B multiplies
    sqrt(t + 1/4) instead of sqrt(t).
    """

    __slots__ = ()


def refined_constants(geom: GeometryData) -> RefinedAsymptotics:
    """Constants of the refined counting estimate, from the geometry alone."""
    A = geom.area * _INV_4PI
    B = (geom.len_N - geom.len_D) * _INV_4PI
    c1 = Fraction(0)
    for corner in geom.corners:
        if corner.kind is CornerKind.LIKE:
            c1 += psi(corner.angle)
        else:
            c1 += psi(corner.angle * 2) - psi(corner.angle)
    for cone in geom.cone_points:
        c1 += 2 * psi(cone.angle / 2)
    C1 = ExactConst.rational(c1)
    C3 = geom.K2_total * _INV_12PI
    return RefinedAsymptotics(
        A=A,
        B=B,
        C=C1 + C3,
        C1=C1,
        C2=_ZERO,  # every cataloged boundary is geodesic
        C3=C3,
        sqrt_shift=geom.K2_total.sign() > 0,
    )


_CONSTANTS: dict = {}


def surface_constants(spec: SurfaceSpec) -> RefinedAsymptotics:
    """Verified constants for a catalog surface, cached per spec.

    The geometric computation and the counting formula must agree
    exactly; a mismatch raises ArithmeticError rather than picking a side.
    A flat surface's counting formula is read by `_read_closed_form`, a round
    one's `_round_row`.  The two-dimensional symmetry sector has no single
    fundamental domain, so its geometric constants are obtained by
    subtracting the one-dimensional sectors from the base surface (its
    whole C is reported as C1: the split into geometric pieces has no
    meaning for a difference of domains); its closed form needs no such
    step.
    """
    rc = _CONSTANTS.get(spec)
    if rc is not None:
        return rc
    if spec.family is Family.SYMMETRY_SECTOR and spec.irrep == "2":
        parts = [(surface_constants(part), sign)
                 for part, sign in catalog.sector_parts(spec.base)]
        A, B, C = (sum(sign * getattr(consts, name) for consts, sign in parts)
                   for name in "ABC")
        rc = RefinedAsymptotics(A=A, B=B, C=C, C1=C, C2=_ZERO, C3=_ZERO,
                                sqrt_shift=False)
    else:
        rc = refined_constants(geometry(spec))
    want = (_round_row(spec) if catalog.is_spherical(spec)
            else _read_closed_form(spec)[0])
    if (rc.A, rc.B, rc.C) != want:
        raise ArithmeticError(
            "constants for %s: the geometry gives (%s; %s; %s), "
            "the counting formula (%s; %s; %s)"
            % (catalog.short_label(spec), rc.A, rc.B, rc.C, want[0], want[1], want[2]))
    _CONSTANTS[spec] = rc
    return rc


def _root_over_pi(x: Fraction) -> ExactConst:
    """sqrt(x) / pi for a rational x > 0.  Every catalog bracket has x a
    rational square times 1, 2 or 3, read off with one integer square root
    however large the square; ExactConst splits any other x."""
    n, d = x.numerator * x.denominator, x.denominator
    for m in (1, 2, 3):
        k = math.isqrt(n // m)
        if m * k * k == n:
            return ExactConst.term(Fraction(k, d), m, pi_pow=-1)
    return ExactConst.term(Fraction(1, d), n, pi_pow=-1)


def _read_closed_form(spec: SurfaceSpec, L_max=0) -> tuple:
    """((A, B, C), lines) of a flat surface, read in one pass off the
    closed form of N(t) that the oracle verifies (`lattice._closed_terms`);
    lines are the sorted lengths up to L_max at which N(t) - (A t + B
    sqrt(t) + C) oscillates, none when L_max is 0, which reads no table.

    Each term is Poisson-summed:
    - c times the count of a torus sub at s times the cutoff grows as
      c s |sub| t / 4 pi, with no sqrt(t) or constant term, and has lines
      at sqrt(s) times the periods of sub, weight c s |sub| per period
      vector; the squared periods are the level keys of the dual torus;
    - c times the bracket floor(sqrt(c2 t) / pi + sigma) grows as
      c (sqrt(c2 t) / pi + sigma - 1/2) and has lines at 2 n sqrt(c2),
      weight c (-1)^(2 n sigma) / n;
    - c times one is c.
    Line weights are summed by exact squared length, the two kinds apart
    since they decay at different orders, and a length whose weights
    cancel carries no line.
    """
    from . import lattice

    A = B = C = _ZERO
    cap = Fraction(L_max) ** 2
    counts, floors = defaultdict(int), defaultdict(int)
    for c, term in lattice._closed_terms(spec):
        if term == lattice._ONE:
            C += c
        elif term[0] == "count":
            _, sub, s = term
            w = geometry(sub).area * (c * s)
            A += w * _INV_4PI
            if not cap:
                continue
            if sub.family is Family.FLAT_TORUS_HEX:  # norms 3q, keys 16q/9
                torus, scale = sub, Fraction(27, 16)
            else:  # periods 2a, 2b: the keys 4a^2 j^2 + 4b^2 k^2 of the dual
                torus, scale = catalog.flat_torus_rect(1 / (2 * sub.a), 1 / (2 * sub.b)), 1
            for key, n in spectrum.levels(torus, spectrum.ExactTime(cap / (s * scale))):
                if key:
                    counts[s * scale * key] += w * n
        else:
            _, c2, sigma = term
            B += _root_over_pi(c2) * c
            C += c * (sigma - Fraction(1, 2))
            n = 1
            while 4 * c2 * n * n <= cap:
                floors[4 * c2 * n * n] += Fraction(c, n) * (-1) ** int(2 * n * sigma)
                n += 1
    lines = {sq for weights in (counts, floors) for sq, wt in weights.items() if wt != 0}
    return (A, B, C), sorted(math.sqrt(float(sq)) for sq in lines)


# Most lengths a round surface lists, about 32 MB of floats: a lune of
# order 10^10 has 4.8e10 of them up to 30
_ROUND_LENGTHS = 10**6


def geodesic_lengths(spec: SurfaceSpec, L_max: float) -> list[float]:
    """Sorted lengths up to L_max at which the counting remainder oscillates.

    A round surface lists the multiples of its great-circle orbit, refused
    with ValueError past _ROUND_LENGTHS of them; a flat one the lines of
    its closed form (`_read_closed_form`).
    """
    if L_max <= 0:
        return []
    if not catalog.is_spherical(spec):
        try:
            return _read_closed_form(spec, L_max)[1]
        except ValueError:  # name the caller's surface and L_max, not a dual torus's
            raise ValueError(f"{catalog.short_label(spec)}: its geodesic lengths up to "
                             f"{L_max:g} need a level table over the cap or past int64 "
                             "keys") from None
    # p * j / q is float(step * j): Python's int division is correctly rounded
    p, q = orbit_step(spec).as_integer_ratio()
    if L_max + 1e-12 > _ROUND_LENGTHS * math.pi * (p / q):
        raise ValueError(f"{catalog.short_label(spec)}: its geodesic lengths up to {L_max:g} "
                         f"number more than {_ROUND_LENGTHS:g}")
    out = []
    j = 1
    while p * j / q * math.pi <= L_max + 1e-12:
        out.append(p * j / q * math.pi)
        j += 1
    return out


def orbit_step(spec: SurfaceSpec) -> Fraction:
    """The lengths of a round surface's closed geodesics are the multiples
    of this rational times pi: its great-circle orbit."""
    # the sphere and the hemisphere keep the default m = 1
    return Fraction(1) if spec.family is Family.PROJECTIVE_SPHERE else Fraction(2, spec.m)


def _round_row(spec: SurfaceSpec) -> tuple:
    """(A, B, C) of a round surface, from its family's formulas in m."""
    f = spec.family
    if f is Family.SPHERE:
        return (_rat(1), _ZERO, _rat(Fraction(1, 3)))
    if f is Family.PROJECTIVE_SPHERE:
        return (_rat(Fraction(1, 2)), _ZERO, _rat(Fraction(1, 6)))
    if f is Family.HEMISPHERE:
        sign = 1 if spec.bc == "N" else -1
        return (_rat(Fraction(1, 2)), _rat(Fraction(sign, 2)),
                _rat(Fraction(1, 6)))
    m = spec.m
    if f is Family.LUNE:
        sign = 1 if spec.bc == "N" else -1
        cval = Fraction(1, 12) * (m - Fraction(1, m)) + Fraction(1, 6 * m)
        return (_rat(Fraction(1, 2 * m)), _rat(Fraction(sign, 2)), _rat(cval))
    if f is Family.HALF_LUNE:
        side = Fraction(1, 4) if spec.bc_side == "N" else Fraction(-1, 4)
        eq = Fraction(1, 4 * m) if spec.bc_equator == "N" else Fraction(-1, 4 * m)
        corner = Fraction(1, 8) if spec.bc_side == spec.bc_equator else Fraction(-1, 8)
        cval = (Fraction(1, 24) * (m - Fraction(1, m)) + Fraction(1, 12 * m)
                + corner)
        return (_rat(Fraction(1, 4 * m)), _rat(side + eq), _rat(cval))
    cval = Fraction(1, 6) * (m - Fraction(1, m)) + Fraction(1, 3 * m)
    return (_rat(Fraction(1, m)), _ZERO, _rat(cval))  # the glued lune


def smooth_heat_trace(spec: SurfaceSpec, t: float) -> float:
    """Companion value A/t + B*sqrt(pi)/(2*sqrt(t)) + C for the heat trace.

    This is the term-by-term Laplace transform of the counting estimate
    (with the plain sqrt(t) form; the shifted form differs only at orders
    that vanish as t drops to 0, which is the regime the comparison runs in).
    """
    if not t > 0:
        raise ValueError("heat trace needs t > 0")
    rc = surface_constants(spec)
    return float(rc.A) / t + GAMMA_3_2 * float(rc.B) / math.sqrt(t) + float(rc.C)


def heat_trace(spec: SurfaceSpec, t: float, cutoff: float) -> float:
    """Sum of mult * exp(-lambda * t) over eigenvalues lambda <= cutoff.

    Before returning, the dropped tail is bounded: counting-function
    increments beyond the cutoff are enclosed by an envelope
    A*mu + bhat*sqrt(mu) + chat whose square-root coefficient doubles the
    surface's own, verified against every enumerated level below the
    cutoff.  A cutoff whose tail bound exceeds _HEAT_TOL is refused with
    TailBoundError.  The sum is correctly rounded (`math.fsum`), so it is
    the same float on every machine.  The envelope and the sum each stream
    the table's blocks (`spectrum.level_blocks`) in a pass of their own.
    """
    import numpy as np

    if not t > 0:
        raise ValueError("heat trace needs t > 0")
    cut = float(cutoff)
    if not cut > 0:
        raise ValueError("cutoff must be positive")
    rc = surface_constants(spec)
    a = float(rc.A)
    bhat = 2.0 * abs(float(rc.B)) + 1.0
    chat = 8.0
    for (vals, n_pref, _), _ in spectrum.level_blocks(spec, cut):
        # n_pref[1:] counts the eigenvalues <= each level; the last, all
        if vals.size and np.max(n_pref[1:] - a * vals - bhat * np.sqrt(vals) - chat) > 0:
            raise ArithmeticError(
                f"count envelope violated below cutoff {cut:g} for "
                f"{catalog.short_label(spec)}; the tail estimate would be unsound")
    n_cut = float(n_pref[-1])
    tail = math.exp(-cut * t) * (
        a / t + max(0.0, a * cut - n_cut)
        + bhat * (math.sqrt(cut) + 0.5 / (math.sqrt(cut) * t)) + chat)
    if tail > _HEAT_TOL:
        raise TailBoundError(
            f"cutoff {cut:g} leaves a tail bound of {tail:.3g} at t={t:g}; "
            f"need below {_HEAT_TOL:g}")
    # the terms m e^{-t lambda} summed correctly rounded: a BLAS dot
    # product's last bits depend on its thread count
    return math.fsum(x for (vals, n_pref, _), _ in spectrum.level_blocks(spec, cut)
                     for x in (np.exp(-t * vals) * np.diff(n_pref)).tolist())
