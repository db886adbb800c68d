"""Brute-force spectra by direct mode enumeration.

Every level table here is rebuilt from scratch out of explicit eigenbases,
in one of three shapes:

- axis products: one factor of cos, sin, half-integer or exponential
  modes per side, for tori, rectangles and cylinders;
- ordered index pairs: one mode per pair j, k >= lo, every ordered pair or
  only j <= k (j < k when the diagonal is strict), for the right isosceles,
  equilateral and 30-60-90 triangles;
- character projections of lattice shells: the modes of each shell q of a
  square or hex lattice torus that transform by a character chi of a
  finite group G number

      (chi(1) / |G|) * sum over g in G of chi(g) * sum over n with g(n) = n of phase_g(n)

  (Serre 1977, sec. 2.6), summed exactly in the Eisenstein integers; this
  serves the hex torus, the flat projective plane, the tetrahedron surface
  and its half, and every symmetry sector.

The Moebius band keeps the deck map's parity as a filter, and the
spherical families count azimuthal orders.  No counting identity from
spectrum.py is ever called while enumerating, so the closed-form machinery
has something genuinely independent to be wrong against.
check_equivalence() is the comparison driver.

Flat eigenvalues are carried as rho = lambda / pi^2 = n / den, the integer
n over one den per surface, and made a Fraction once per level; spherical
levels are carried by their degree N (eigenvalue N(N+1)).
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate

from . import catalog
from .catalog import Family, SurfaceSpec
from .exact import flat_rho_bounds, isqrt_frac_floor

# --- accumulators ---


class _FlatAcc:
    """Collects flat modes by the integer n of rho = n / den; refuses times
    that sit on the pi-enclosure boundary (cannot happen for the rational
    caps used here).  n / den <= lo exactly when n <= floor(lo den), so
    both ends of the enclosure are held as such integers."""

    def __init__(self, T: Fraction, den: int):
        self.den = den
        self.lo, self.hi = (math.floor(x * den) for x in flat_rho_bounds(T))
        self._d: dict[int, int] = {}

    def over(self, unit: Fraction) -> int:
        """The integer n of rho = unit, which den must be a multiple of."""
        n, r = divmod(unit.numerator * self.den, unit.denominator)
        if r:
            raise ValueError(f"rho {unit} is not a multiple of 1/{self.den}")
        return n

    def add(self, n: int, mult: int = 1) -> None:
        if n > self.hi or mult == 0:
            return
        if n > self.lo:
            raise ArithmeticError(
                f"cutoff indistinguishable from level at rho={Fraction(n, self.den)}")
        self._d[n] = self._d.get(n, 0) + mult

    def levels(self) -> list[tuple[Fraction, int]]:
        den = self.den
        return [(Fraction(n, den), v) for n, v in sorted(self._d.items()) if v]


def _sph_degree_cap(T: Fraction) -> int:
    """Largest N with N(N+1) <= T."""
    if T < 0:
        return -1
    n = isqrt_frac_floor(T)
    while (n + 1) * (n + 2) <= T:
        n += 1
    while n >= 0 and n * (n + 1) > T:
        n -= 1
    return n


# --- spherical families: azimuthal-order counting ---


def _sph_mult(spec: SurfaceSpec, N: int) -> int:
    f = spec.family
    if f == Family.SPHERE:
        return 2 * N + 1
    if f == Family.HEMISPHERE:
        # restriction parity at the equator is (-1)^(N+q)
        return N + 1 if spec.bc == "N" else N
    if f == Family.PROJECTIVE_SPHERE:
        return 2 * N + 1 if N % 2 == 0 else 0
    if f == Family.LUNE:
        if spec.bc == "N":
            return N // spec.m + 1
        return N // spec.m
    if f == Family.GLUED_LUNE:
        return 2 * (N // spec.m) + 1
    if f == Family.HALF_LUNE:
        # azimuthal orders mu = m l, lmin <= l <= N // m, with N + mu of
        # the equator's parity: every l for even m, else l of one parity
        want = 0 if spec.bc_equator == "N" else 1
        lmin = 0 if spec.bc_side == "N" else 1
        lmax = N // spec.m
        if spec.m % 2 == 0:
            return lmax - lmin + 1 if N % 2 == want else 0
        r = (N + want) % 2
        return (lmax - r) // 2 - (lmin - 1 - r) // 2
    raise ValueError(f"not spherical: {spec}")


def _brute_spherical(spec: SurfaceSpec, T: Fraction) -> list[tuple[int, int]]:
    out = []
    for N in range(_sph_degree_cap(T) + 1):
        m = _sph_mult(spec, N)
        if m:
            out.append((N, m))
    return out


# --- flat product families ---


def _axis_indices(kind: str, e: int, cap: int) -> Iterator[tuple[int, int]]:
    """1-d factor levels (n, multiplicity) with n <= cap, where e is the n
    of rho = 1 / (2a)^2.

    kind: 'torus' exp(pi i j x / a) j in Z; 'cos' j>=0; 'sin' j>=1;
    'mix' cos(pi (j+1/2) x / a) j>=0; 'circ' exp(2 pi i j x / a) j in Z.
    """
    if kind == "torus":
        for j in range(math.isqrt(cap // (4 * e)) + 1):
            yield 4 * e * j * j, (1 if j == 0 else 2)
    elif kind == "cos":
        for j in range(math.isqrt(cap // (4 * e)) + 1):
            yield 4 * e * j * j, 1
    elif kind == "sin":
        for j in range(1, math.isqrt(cap // (4 * e)) + 1):
            yield 4 * e * j * j, 1
    elif kind == "mix":
        for j in range((math.isqrt(cap // e) + 1) // 2):
            yield e * (2 * j + 1) ** 2, 1
    elif kind == "circ":
        for j in range(math.isqrt(cap // (16 * e)) + 1):
            yield 16 * e * j * j, (1 if j == 0 else 2)
    else:
        raise ValueError(kind)


_RECT_AXIS_KINDS = {
    # (x factor, y factor); ND is Dirichlet in x (the length-b edges), NM/DM
    # carry the mixed condition in y (Neumann bottom, Dirichlet top)
    "N": ("cos", "cos"),
    "D": ("sin", "sin"),
    "ND": ("sin", "cos"),
    "NM": ("cos", "mix"),
    "DM": ("sin", "mix"),
    "MM": ("mix", "mix"),
}


def _brute_product(acc: _FlatAcc, xk: str, a: Fraction, yk: str, b: Fraction) -> None:
    cap = acc.hi
    ex, ey = acc.over(1 / (4 * a * a)), acc.over(1 / (4 * b * b))
    for nx, mx in _axis_indices(xk, ex, cap):
        for ny, my in _axis_indices(yk, ey, cap - nx):
            acc.add(nx + ny, mx * my)


# --- ordered index pairs ---


def _index_pairs(acc: _FlatAcc, lo: int, ordered: bool, strict: bool, key) -> None:
    """One mode per index pair j, k >= lo: every ordered pair, or only
    j <= k, and j < k when the diagonal is strict.  key(j, k) is the n of
    the mode's rho and grows in both indices, so each row stops at the
    cutoff."""
    hi = acc.hi
    j = lo
    while key(j, lo if ordered else j) <= hi:
        k = lo if ordered else j + strict
        while (rho := key(j, k)) <= hi:
            acc.add(rho)
            k += 1
        j += 1


def _brute_right_iso(acc: _FlatAcc, a: Fraction, bc: str) -> None:
    """Modes of the a x a square (anti)symmetrized across the diagonal:
    pairs j <= k, strict when the hypotenuse is Dirichlet."""
    e = acc.over(1 / (4 * a * a))
    if bc in ("MN", "MD"):  # mixed legs: half-integer indices
        _index_pairs(acc, 0, False, bc == "MD",
                     lambda j, k: e * ((2 * j + 1) ** 2 + (2 * k + 1) ** 2))
    else:
        _index_pairs(acc, 0 if bc in ("N", "ND") else 1, False, bc in ("D", "ND"),
                     lambda j, k: 4 * e * (j * j + k * k))


def _eq_key(acc: _FlatAcc):
    """Side-1 equilateral triangle: eigenvalue (16 pi^2 / 9)(m^2 + mn + n^2),
    as the key of pairs (m, n)."""
    e = acc.over(Fraction(16, 9))
    return lambda m, n: e * (m * m + m * n + n * n)


# The classical eigenbasis of the equilateral triangle has one mode per
# ordered pair (m, n), m, n >= 0 (Neumann) or >= 1 (Dirichlet).  The
# 30-60-90 triangle keeps the swap-symmetric (m <= n) or antisymmetric
# (m < n) combinations across the bisecting altitude: bc -> (lo, strict).
_306090_PAIRS = {"N": (0, False), "ND": (0, True), "DN": (1, False), "D": (1, True)}


# --- deck-quotient families ---


def _brute_mobius(acc: _FlatAcc, a: Fraction, b: Fraction, bc: str) -> None:
    """Invariant modes of the 2a x 2b torus-with-boundary cover: the deck map
    (x, y) -> (x + a, b - y) scales exp(pi i j x / a) cos/sin(pi k y / b)
    by (-1)^(j+k) resp. (-1)^(j+k+1)."""
    cap = acc.hi
    ea, eb = acc.over(1 / (a * a)), acc.over(1 / (b * b))
    want = 0 if bc == "N" else 1
    kmin = 0 if bc == "N" else 1
    jmax = math.isqrt(cap // ea)
    for j in range(-jmax, jmax + 1):
        nj = ea * j * j
        for k in range(kmin, math.isqrt((cap - nj) // eb) + 1):
            if (j + k) % 2 == want:
                acc.add(nj + eb * k * k)


# --- character projections of lattice shells ---
#
# A torus mode e_n goes under g in G to phase_g(n) e_g(n), and the module
# docstring's projection counts a shell.  A phase is a sign or a power of
# omega = e^(2 pi i/3), so each sum is kept exactly as an Eisenstein integer
# x + y omega, the pair (x, y), with omega^2 = -1 - omega.


def _square_shells(cap: Fraction, lo=None) -> dict[int, list[tuple[int, int]]]:
    """q -> modes (j, k) with j^2 + k^2 = q <= cap, over all of Z^2 when lo
    is None, else with j, k >= lo."""
    out: dict[int, list[tuple[int, int]]] = {}
    jmax = isqrt_frac_floor(cap)
    for j in range(-jmax if lo is None else lo, jmax + 1):
        kmax = isqrt_frac_floor(cap - j * j)
        for k in range(-kmax if lo is None else lo, kmax + 1):
            out.setdefault(j * j + k * k, []).append((j, k))
    return out


def _hex_shells(cap: Fraction) -> dict[int, list[tuple[int, int]]]:
    """q -> lattice modes (n1, n2) with n1^2 - n1 n2 + n2^2 = q <= cap."""
    out: dict[int, list[tuple[int, int]]] = {}
    qcap = math.floor(cap)
    M = math.isqrt(4 * qcap // 3)
    for n1 in range(-M, M + 1):
        # q <= qcap  <=>  (2 n2 - n1)^2 <= 4 qcap - 3 n1^2 = s^2
        s = math.isqrt(4 * qcap - 3 * n1 * n1)
        for n2 in range((n1 - s + 1) // 2, (n1 + s) // 2 + 1):
            out.setdefault(n1 * n1 - n1 * n2 + n2 * n2, []).append((n1, n2))
    return out


def _project(acc: _FlatAcc, unit: Fraction, shells, group) -> None:
    """Adds each shell's projection count at rho = unit * q.

    group lists (chi(g), g, phase_g) with the identity first, so that its
    character is the dimension.  g is an integer matrix (a, b, c, d) acting
    as n -> (a n1 + b n2, c n1 + d n2); phase_g maps a mode to an Eisenstein
    pair, or is None for the phase 1.  A sum that is not a whole multiple
    of |G| in Z is refused, not rounded.
    """
    order = len(group)
    dim = group[0][0]
    e = acc.over(unit)
    for q, modes in shells.items():
        x = y = 0
        for chi, g, phase in group:
            if not chi:
                continue
            a, b, c, d = g
            fixed = modes if g == _ID else [
                (n1, n2) for n1, n2 in modes if a * n1 + b * n2 == n1 and c * n1 + d * n2 == n2]
            if phase is None:
                x += chi * len(fixed)
            else:
                for n in fixed:
                    px, py = phase(n)
                    x += chi * px
                    y += chi * py
        if y or x % order:
            raise ArithmeticError((q, (x, y)))
        acc.add(e * q, dim * x // order)


def _sign(c1: int, c2: int, c0: int = 0):
    """The phase (-1)^(c1 n1 + c2 n2 + c0)."""
    return lambda n: (1 - 2 * ((c1 * n[0] + c2 * n[1] + c0) & 1), 0)


def _omega(c: int):
    """The phase omega^(c (n1 + n2)), read from _OMEGA_POW when applied."""
    return lambda n: _OMEGA_POW[c * (n[0] + n[1]) % 3]


def _mul(g: tuple, h: tuple) -> tuple:
    """The matrix of n -> g(h(n))."""
    a, b, c, d = g
    e, f, u, v = h
    return (a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v)


_OMEGA_POW = [(1, 0), (0, 1), (-1, -1)]  # omega^0, omega^1, omega^2 as (x, y)
_HEX_UNIT = Fraction(16, 9)  # rho of the hex torus's q = 1 shell

_ID, _NEG = (1, 0, 0, 1), (-1, 0, 0, -1)
_SWAP, _SWAPNEG = (0, 1, 1, 0), (0, -1, -1, 0)
_FLIP_J, _FLIP_K = (-1, 0, 0, 1), (1, 0, 0, -1)

# The flat projective plane's deck group on the 2 x 2 torus:
# S e(j,k) = (-1)^(j+k) e(j,-k), T e(j,k) = (-1)^(j+k) e(-j,k), ST e(j,k) = e(-j,-k).
_FPP = [(1, _ID, None), (1, _FLIP_K, _sign(1, 1)), (1, _FLIP_J, _sign(1, 1)), (1, _NEG, None)]

# D4 by name: its linear action on the dual indices of the square torus,
# and on the product indices (j, k) of the unit square with Neumann (s = 0)
# or Dirichlet (s = 1) sides, a permutation with the sign
# (-1)^(c1 j + c2 k + cs s), given as (c1, c2, cs).
_D4 = {
    "id": (_ID, _ID, (0, 0, 0)),
    "r90": ((0, -1, 1, 0), _SWAP, (1, 0, 1)),
    "r180": (_NEG, _ID, (1, 1, 0)),
    "r270": ((0, 1, -1, 0), _SWAP, (0, 1, 1)),
    "sv": (_FLIP_J, _ID, (1, 0, 1)),
    "sh": (_FLIP_K, _ID, (0, 1, 1)),
    "diag": (_SWAP, _SWAP, (0, 0, 0)),
    "anti": (_SWAPNEG, _SWAP, (1, 1, 0)),
}


def _d4_char(irrep: str) -> dict[str, int]:
    if irrep == "2":
        return {"id": 2, "r90": 0, "r270": 0, "r180": -2, "sv": 0, "sh": 0, "diag": 0, "anti": 0}
    ed = 1 if irrep[0] == "+" else -1
    ea = 1 if irrep[1] == "+" else -1
    return {"id": 1, "r180": 1, "diag": ed, "anti": ed, "sv": ea, "sh": ea,
            "r90": ed * ea, "r270": ed * ea}


# D3 on the hex torus's dual indices, q = n1^2 - n1 n2 + n2^2: the
# rotations n -> (-n2, n1 - n2) and its square, then the reflections.
_ROT = (0, -1, 1, -1)
_ROT2 = _mul(_ROT, _ROT)
_D3 = [_ID, _ROT, _ROT2, (-1, 0, -1, 1), (1, -1, 0, -1), _SWAP]

# The equilateral triangle's own D3 about its centroid on the hex torus
# modes: (matrix, c) with the phase omega^(c (n1 + n2)) on the rotations.
_D3_CENTROID = [
    (_ID, 0), (_ROT, 1), (_ROT2, 2),
    (_SWAPNEG, 0), (_mul(_ROT, _SWAPNEG), 2), (_mul(_ROT2, _SWAPNEG), 1),
]


def _d3_char(irrep: str) -> list[int]:
    if irrep == "+":
        return [1, 1, 1, 1, 1, 1]
    if irrep == "-":
        return [1, 1, 1, -1, -1, -1]
    return [2, -1, -1, 0, 0, 0]


def _group_table(spec: SurfaceSpec, hi: Fraction) -> tuple:
    """(unit, shells below rho = hi, group) of a family counted by _project."""
    f = spec.family
    if f == Family.FLAT_TORUS_HEX:
        return _HEX_UNIT, _hex_shells(hi / _HEX_UNIT), [(1, _ID, None)]
    if f == Family.FLAT_PROJECTIVE_PLANE:
        return Fraction(1), _square_shells(hi), _FPP
    if f in (Family.TETRAHEDRON_SURFACE, Family.HALF_TETRAHEDRON):
        # hex-lattice torus modes of unit 4 pi^2 / 3 under {+-1}, and for
        # the half under {+-1, +-swap} with the sign character on Dirichlet
        group = [(1, _ID, None), (1, _NEG, None)]
        if f == Family.HALF_TETRAHEDRON:
            sgn = 1 if spec.bc == "N" else -1
            group += [(sgn, _SWAP, None), (sgn, _SWAPNEG, None)]
        return Fraction(4, 3), _hex_shells(hi * Fraction(3, 4)), group
    if f != Family.SYMMETRY_SECTOR:
        raise ValueError(f"no brute enumeration for {spec}")
    base, irrep = spec.base, spec.irrep
    if base == "square_torus":
        ch = _d4_char(irrep)
        return Fraction(4), _square_shells(hi / 4), [
            (ch[g], torus, None) for g, (torus, _, _) in _D4.items()]
    if base in ("square_n", "square_d"):
        s = int(base == "square_d")
        ch = _d4_char(irrep)
        return Fraction(1), _square_shells(hi, s), [
            (ch[g], perm, _sign(c1, c2, cs * s) if c1 or c2 or cs * s else None)
            for g, (_, perm, (c1, c2, cs)) in _D4.items()]
    shells = _hex_shells(hi / _HEX_UNIT)
    if base == "hex_torus":
        return _HEX_UNIT, shells, [(ch, g, None) for ch, g in zip(_d3_char(irrep), _D3)]
    # the equilateral sectors: the base group cutting the triangle out of
    # the hex torus (its sign character on Dirichlet) times the centroid D3
    chi_b = _d3_char("+" if base == "equilateral_n" else "-")
    return _HEX_UNIT, shells, [
        (cb * cc, _mul(g, h), _omega(c))
        for cb, g in zip(chi_b, _D3)
        for cc, (h, c) in zip(_d3_char(irrep), _D3_CENTROID)]


# --- entry points ---


def brute_levels(spec: SurfaceSpec, T) -> list[tuple]:
    """Sorted (key, multiplicity) pairs for eigenvalues <= T.

    Keys are rho = lambda/pi^2 (Fraction) for flat surfaces and the degree N
    (eigenvalue N(N+1)) for spherical ones.
    """
    T = Fraction(T)
    if catalog.is_spherical(spec):
        return _brute_spherical(spec, T)
    # den, a multiple of every rho's denominator: 4 p^2 for a side p / q,
    # 9 for the hex lattice's 16/9, 3 for the tetrahedra's 4/3
    acc = _FlatAcc(T, 36 * math.lcm(spec.a.numerator, spec.b.numerator) ** 2)
    f = spec.family
    if f == Family.FLAT_TORUS_RECT:
        _brute_product(acc, "torus", spec.a, "torus", spec.b)
    elif f == Family.RECTANGLE:
        xk, yk = _RECT_AXIS_KINDS[spec.bc]
        _brute_product(acc, xk, spec.a, yk, spec.b)
    elif f == Family.RIGHT_ISO_TRIANGLE:
        _brute_right_iso(acc, spec.a, spec.bc)
    elif f == Family.EQUILATERAL_TRIANGLE:
        _index_pairs(acc, 0 if spec.bc == "N" else 1, True, False, _eq_key(acc))
    elif f == Family.TRIANGLE_306090:
        lo, strict = _306090_PAIRS[spec.bc]
        _index_pairs(acc, lo, False, strict, _eq_key(acc))
    elif f == Family.CYLINDER:
        yk = {"N": "cos", "D": "sin", "M": "mix"}[spec.bc]
        _brute_product(acc, "circ", spec.a, yk, spec.b)
    elif f == Family.MOBIUS_BAND:
        _brute_mobius(acc, spec.a, spec.b, spec.bc)
    else:
        _project(acc, *_group_table(spec, Fraction(acc.hi, acc.den)))
    return acc.levels()


def gauss_circle_self_check(R: int) -> None:
    """Counts {(j,k) in Z^2 : j^2+k^2 <= R} by row sums and by the divisor
    formula 1 + 4 sum ([R/(4i+1)] - [R/(4i+3)]); raises on disagreement."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    root = math.isqrt(R)
    rows = sum(2 * math.isqrt(R - j * j) + 1 for j in range(-root, root + 1))
    divs = 1
    i = 0
    while 4 * i + 1 <= R:
        divs += 4 * (R // (4 * i + 1))
        if 4 * i + 3 <= R:
            divs -= 4 * (R // (4 * i + 3))
        i += 1
    if rows != divs:
        raise ArithmeticError(f"lattice count mismatch at R={R}: {rows} vs {divs}")


_SQUARE_LATTICE_FAMILIES = (
    Family.FLAT_TORUS_RECT,
    Family.RECTANGLE,
    Family.RIGHT_ISO_TRIANGLE,
    Family.CYLINDER,
    Family.MOBIUS_BAND,
    Family.FLAT_PROJECTIVE_PLANE,
)


class EquivalenceReport(namedtuple(
        "EquivalenceReport", "label levels_checked times_checked ok detail")):
    """Outcome of one closed-form verification sweep: the surface's label,
    the levels and random times checked (ints), ok (a bool) and a
    one-line detail."""

    __slots__ = ()


def check_equivalence(spec: SurfaceSpec, T, n_times: int = 2000, seed: int = 0) -> EquivalenceReport:
    """Compare the brute-force level table against spectrum.levels, then the
    table count and the closed form of spectrum.closed_form_identity at
    random jump and midpoint times.  Stops at the first mismatch.  The
    table's levels are read first, so a cutoff over its level cap is
    refused with ValueError (`spectrum.levels`) before anything is
    enumerated.

    Every draw is taken from the same random stream, but a draw of a
    cutoff (level, jump or midpoint) that has already passed is not
    queried again.  Both sides are fixed integers at a given cutoff, so a
    repeat would pass too: the first failing draw, an error's draw and
    times_checked are those of querying every draw."""
    from . import spectrum

    T = Fraction(T)
    got = spectrum.levels(spec, T)
    brute = brute_levels(spec, T)

    def report(ok: bool, times: int, detail: str) -> EquivalenceReport:
        return EquivalenceReport(spec.label(), len(brute), times, ok, detail)

    if spec.family in _SQUARE_LATTICE_FAMILIES:
        gauss_circle_self_check(int(flat_rho_bounds(T)[0]))

    if got != brute:
        for i in range(max(len(got), len(brute))):
            want = brute[i] if i < len(brute) else None
            have = got[i] if i < len(got) else None
            if want != have:
                return report(False, 0, f"level {i}: enumerated {want}, spectrum {have}")
    if not brute:
        return report(True, 0, "pass (no levels below cutoff)")

    # each time is an integer over one denominator: the eigenvalue N(N+1)
    # of a round level over 1, the rho of a flat one over the keys' lcm
    spherical = catalog.is_spherical(spec)
    if spherical:
        den, nums = 1, [N * (N + 1) for N, _ in brute]
    else:
        den = math.lcm(*(k.denominator for k, _ in brute))
        nums = [k.numerator * (den // k.denominator) for k, _ in brute]
    prefix = list(accumulate(m for _, m in brute))
    exact = spectrum.ExactTime
    identity = spectrum.closed_form_identity
    # one query at the last level's jump, the largest cutoff drawn, grows
    # the closed form's tori once; its outcome is left to the draws
    top = Fraction(nums[-1], den)
    try:
        identity(spec, top if spherical else exact(top))
    except (ValueError, ArithmeticError):
        pass
    last = len(brute) - 1
    passed = set()
    rng = random.Random(seed)
    for n in range(n_times):
        i = rng.randrange(len(brute))
        jump = rng.random() < 0.5 or i == last
        if (i, jump) in passed:
            continue
        t = Fraction(nums[i], den) if jump else Fraction(nums[i] + nums[i + 1], 2 * den)
        rep = identity(spec, t if spherical else exact(t))
        expected = prefix[i]
        if rep.count != expected or rep.closed_form != expected:
            where = f"{'jump' if jump else 'midpoint'} {i}: enumerated {expected}"
            return report(False, n, f"count at {where}, spectrum {rep.count}" if rep.count != expected
                          else f"closed form at {where}, formula {rep.closed_form}")
        passed.add((i, jump))
    return report(True, n_times, "pass")
