"""Brute-force spectra by direct mode enumeration.

Every level table here is rebuilt from scratch out of explicit eigenbases:
product modes on rectangles, symmetrized square modes on the isosceles
triangle, lattice exponentials with finite-group character averaging for the
quotient surfaces, and azimuthal-order counting for the spherical ones.  No
counting identity from spectrum.py is ever called while enumerating, so the
closed-form machinery has something genuinely independent to be wrong
against.  check_equivalence() is the comparison driver.

Flat eigenvalues are carried as rho = lambda / pi^2 (exact Fractions);
spherical levels are carried by their degree N (eigenvalue N(N+1)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import catalog
from .catalog import Family, SurfaceSpec
from .exact import flat_rho_bounds, isqrt_frac_floor

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity


# --- accumulators ---


class _FlatAcc:
    """Collects flat modes by exact rho; refuses times that sit on the
    pi-enclosure boundary (cannot happen for the rational caps used here)."""

    def __init__(self, T: Fraction):
        self.lo, self.hi = flat_rho_bounds(T)
        self._d: dict[Fraction, int] = {}

    def add(self, rho: Fraction, mult: int = 1) -> None:
        if rho > self.hi or mult == 0:
            return
        if rho > self.lo:
            raise ArithmeticError(f"cutoff indistinguishable from level at rho={rho}")
        self._d[rho] = self._d.get(rho, 0) + mult

    def levels(self) -> list[tuple[Fraction, int]]:
        return sorted((k, v) for k, v in self._d.items() if v)


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
        want = 0 if spec.bc_equator == "N" else 1
        lmin = 0 if spec.bc_side == "N" else 1
        cnt = 0
        mu = spec.m * lmin
        while mu <= N:
            if (N + mu) % 2 == want:
                cnt += 1
            mu += spec.m
        return cnt
    raise ValueError(f"not spherical: {spec}")


def _brute_spherical(spec: SurfaceSpec, T: Fraction) -> list[tuple[int, int]]:
    out = []
    for N in range(_sph_degree_cap(T) + 1):
        m = _sph_mult(spec, N)
        if m:
            out.append((N, m))
    return out


# --- flat product families ---


def _axis_indices(kind: str, a: Fraction, cap: Fraction) -> Iterator[tuple[Fraction, int]]:
    """1-d factor levels (rho_x, multiplicity).

    kind: 'torus' exp(pi i j x / a) j in Z; 'cos' j>=0; 'sin' j>=1;
    'mix' cos(pi (j+1/2) x / a) j>=0; 'circ' exp(2 pi i j x / a) j in Z.
    """
    a2 = a * a
    if kind == "torus":
        jmax = isqrt_frac_floor(cap * a2)
        for j in range(jmax + 1):
            yield Fraction(j * j) / a2, (1 if j == 0 else 2)
    elif kind == "cos":
        jmax = isqrt_frac_floor(cap * a2)
        for j in range(jmax + 1):
            yield Fraction(j * j) / a2, 1
    elif kind == "sin":
        jmax = isqrt_frac_floor(cap * a2)
        for j in range(1, jmax + 1):
            yield Fraction(j * j) / a2, 1
    elif kind == "mix":
        jmax = (isqrt_frac_floor(4 * cap * a2) - 1) // 2
        for j in range(jmax + 1):
            yield Fraction((2 * j + 1) ** 2, 4) / a2, 1
    elif kind == "circ":
        jmax = isqrt_frac_floor(cap * a2 / 4)
        for j in range(jmax + 1):
            yield Fraction(4 * j * j) / a2, (1 if j == 0 else 2)
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
    for rx, mx in _axis_indices(xk, a, cap):
        for ry, my in _axis_indices(yk, b, cap - rx):
            acc.add(rx + ry, mx * my)


# --- right isosceles triangle: symmetrized square modes ---


def _brute_right_iso(acc: _FlatAcc, a: Fraction, bc: str) -> None:
    """Modes of the a x a square (anti)symmetrized across the diagonal."""
    a2 = a * a
    cap = acc.hi
    if bc in ("N", "D", "ND", "DN"):
        lo = 0 if bc in ("N", "ND") else 1
        strict = bc in ("D", "ND")  # hypotenuse Dirichlet: drop j == k
        jmax = isqrt_frac_floor(cap * a2)
        for j in range(lo, jmax + 1):
            for k in range(j, jmax + 1):
                if strict and k == j:
                    continue
                rho = Fraction(j * j + k * k) / a2
                acc.add(rho, 1)
    else:  # MN / MD: mixed legs, hypotenuse N keeps j == k, D drops it
        strict = bc == "MD"
        jmax = (isqrt_frac_floor(4 * cap * a2) - 1) // 2
        for j in range(jmax + 1):
            for k in range(j, jmax + 1):
                if strict and k == j:
                    continue
                rho = Fraction((2 * j + 1) ** 2 + (2 * k + 1) ** 2, 4) / a2
                acc.add(rho, 1)


# --- hexagonal-lattice families ---


def _hex_shells(qcap: int) -> dict[int, list[tuple[int, int]]]:
    """q -> lattice modes (n1, n2) with n1^2 - n1 n2 + n2^2 = q <= qcap."""
    out: dict[int, list[tuple[int, int]]] = {}
    if qcap < 0:
        return out
    M = math.isqrt(max(4 * qcap, 0) // 3) + 1
    for n1 in range(-M, M + 1):
        for n2 in range(-M, M + 1):
            q = n1 * n1 - n1 * n2 + n2 * n2
            if q <= qcap:
                out.setdefault(q, []).append((n1, n2))
    return out


def _brute_equilateral(acc: _FlatAcc, bc: str) -> None:
    """Classical eigenbasis of the side-1 equilateral triangle: pairs
    (m, n) with m, n >= 0 (Neumann) or >= 1 (Dirichlet), one eigenfunction
    per ordered pair, eigenvalue (16 pi^2 / 9)(m^2 + mn + n^2)."""
    lo = 0 if bc == "N" else 1
    qcap = int(acc.hi * Fraction(9, 16)) + 1
    M = math.isqrt(qcap) + 1
    for m in range(lo, M + 1):
        for n in range(lo, M + 1):
            q = m * m + m * n + n * n
            acc.add(Fraction(16 * q, 9))


def _brute_306090(acc: _FlatAcc, bc: str) -> None:
    """Equilateral modes split by the swap symmetry m <-> n (the bisecting
    altitude).  Same-type N keeps symmetric Neumann combinations, etc."""
    if bc == "N":
        lo, keep_diag = 0, True
    elif bc == "ND":
        lo, keep_diag = 0, False
    elif bc == "DN":
        lo, keep_diag = 1, True
    else:
        lo, keep_diag = 1, False
    qcap = int(acc.hi * Fraction(9, 16)) + 1
    M = math.isqrt(qcap) + 1
    for m in range(lo, M + 1):
        for n in range(m if keep_diag else m + 1, M + 1):
            q = m * m + m * n + n * n
            acc.add(Fraction(16 * q, 9))


# --- deck-quotient families ---


def _brute_mobius(acc: _FlatAcc, a: Fraction, b: Fraction, bc: str) -> None:
    """Invariant modes of the 2a x 2b torus-with-boundary cover: the deck map
    (x, y) -> (x + a, b - y) scales exp(pi i j x / a) cos/sin(pi k y / b)
    by (-1)^(j+k) resp. (-1)^(j+k+1)."""
    cap = acc.hi
    a2, b2 = a * a, b * b
    want = 0 if bc == "N" else 1
    kmin = 0 if bc == "N" else 1
    jmax = isqrt_frac_floor(cap * a2)
    for j in range(-jmax, jmax + 1):
        rem = cap - Fraction(j * j) / a2
        if rem < 0:
            continue
        kmax = isqrt_frac_floor(rem * b2)
        for k in range(kmin, kmax + 1):
            if (j + k) % 2 == want:
                acc.add(Fraction(j * j) / a2 + Fraction(k * k) / b2)


def _brute_fpp(acc: _FlatAcc) -> None:
    """2 x 2 torus modes averaged over the deck group of the flat projective
    plane: S e(j,k) = (-1)^(j+k) e(j,-k), T e(j,k) = (-1)^(j+k) e(-j,k),
    ST e(j,k) = e(-j,-k)."""
    cap = acc.hi
    jmax = isqrt_frac_floor(cap)
    shells: dict[int, list[tuple[int, int]]] = {}
    for j in range(-jmax, jmax + 1):
        kmax = isqrt_frac_floor(cap - j * j)
        for k in range(-kmax, kmax + 1):
            shells.setdefault(j * j + k * k, []).append((j, k))
    for q, modes in shells.items():
        tr = 0
        for j, k in modes:
            tr += 1  # identity
            if k == -k:
                tr += (-1) ** (j + k)  # S fixes k = 0
            if j == -j:
                tr += (-1) ** (j + k)  # T fixes j = 0
            if j == -j and k == -k:
                tr += 1  # ST fixes the origin only
        if tr % 4 != 0:
            raise ArithmeticError((q, tr))
        acc.add(Fraction(q), tr // 4)


def _brute_tetrahedron(acc: _FlatAcc) -> None:
    """Hex-lattice torus modes (unit 4 pi^2 / 3) paired by n -> -n."""
    qcap = int(acc.hi * Fraction(3, 4)) + 1
    for q, modes in _hex_shells(qcap).items():
        fixed = sum(1 for n in modes if n == (-n[0], -n[1]))
        tot = len(modes) + fixed
        if tot % 2 != 0:
            raise ArithmeticError((q, tot))
        acc.add(Fraction(4 * q, 3), tot // 2)


def _brute_half_tetrahedron(acc: _FlatAcc, bc: str) -> None:
    """Group {+-1, +-swap} on the tetrahedron cover; Dirichlet takes the sign
    character on the reflection coset."""
    sgn = 1 if bc == "N" else -1
    qcap = int(acc.hi * Fraction(3, 4)) + 1
    for q, modes in _hex_shells(qcap).items():
        tr = 0
        for n1, n2 in modes:
            tr += 1
            if (n1, n2) == (-n1, -n2):
                tr += 1
            if (n1, n2) == (n2, n1):
                tr += sgn
            if (n1, n2) == (-n2, -n1):
                tr += sgn
        if tr % 4 != 0:
            raise ArithmeticError((q, tr))
        acc.add(Fraction(4 * q, 3), tr // 4)


# --- symmetry sectors ---

# Dual-index actions on the unit square torus (all eight linear).
_D4_TORUS = {
    "id": lambda j, k: (j, k),
    "r90": lambda j, k: (-k, j),
    "r180": lambda j, k: (-j, -k),
    "r270": lambda j, k: (k, -j),
    "sv": lambda j, k: (-j, k),
    "sh": lambda j, k: (j, -k),
    "diag": lambda j, k: (k, j),
    "anti": lambda j, k: (-k, -j),
}

_D4_AXIS = ("sv", "sh")
_D4_DIAG = ("diag", "anti")
_D4_ROT = ("r90", "r270")


def _d4_char(irrep: str) -> dict[str, int]:
    if irrep == "2":
        return {"id": 2, "r90": 0, "r270": 0, "r180": -2, "sv": 0, "sh": 0, "diag": 0, "anti": 0}
    ed = 1 if irrep[0] == "+" else -1
    ea = 1 if irrep[1] == "+" else -1
    ch = {"id": 1, "r180": 1}
    for g in _D4_DIAG:
        ch[g] = ed
    for g in _D4_AXIS:
        ch[g] = ea
    for g in _D4_ROT:
        ch[g] = ed * ea
    return ch


def _brute_sector_square_torus(acc: _FlatAcc, irrep: str) -> None:
    cap = acc.hi / 4  # rho = 4 (j^2 + k^2)
    jmax = isqrt_frac_floor(cap)
    shells: dict[int, list[tuple[int, int]]] = {}
    for j in range(-jmax, jmax + 1):
        kmax = isqrt_frac_floor(cap - j * j)
        for k in range(-kmax, kmax + 1):
            shells.setdefault(j * j + k * k, []).append((j, k))
    ch = _d4_char(irrep)
    dim = 2 if irrep == "2" else 1
    for q, modes in shells.items():
        tot = 0
        for g, act in _D4_TORUS.items():
            tr = sum(1 for jk in modes if act(*jk) == jk)
            tot += ch[g] * tr
        if tot % 8 != 0:
            raise ArithmeticError((q, tot))
        acc.add(Fraction(4 * q), dim * (tot // 8))


def _brute_sector_square_bc(acc: _FlatAcc, bc: str, irrep: str) -> None:
    """Unit square with Neumann (bc='N') or Dirichlet modes; D4 about the
    center acts on product cos/sin indices with signs."""
    s = 0 if bc == "N" else 1
    lo = 0 if bc == "N" else 1
    cap = acc.hi
    jmax = isqrt_frac_floor(cap)
    shells: dict[int, list[tuple[int, int]]] = {}
    for j in range(lo, jmax + 1):
        kmax = isqrt_frac_floor(cap - j * j)
        for k in range(lo, kmax + 1):
            shells.setdefault(j * j + k * k, []).append((j, k))
    ch = _d4_char(irrep)
    dim = 2 if irrep == "2" else 1
    for q, modes in shells.items():
        diag = [(j, k) for j, k in modes if j == k]
        tr = {
            "id": len(modes),
            "sv": sum((-1) ** (j + s) for j, _ in modes),
            "sh": sum((-1) ** (k + s) for _, k in modes),
            "r180": sum((-1) ** (j + k) for j, k in modes),
            "diag": len(diag),
            "anti": len(diag),
            "r90": sum((-1) ** (j + s) for j, _ in diag),
            "r270": sum((-1) ** (j + s) for j, _ in diag),
        }
        tot = sum(ch[g] * tr[g] for g in tr)
        if tot % 8 != 0:
            raise ArithmeticError((q, tot))
        acc.add(Fraction(q), dim * (tot // 8))


# Hex-torus D3 (linear) in dual lattice coordinates, q = n1^2 - n1 n2 + n2^2.
def _hex_rot(n):
    return (-n[1], n[0] - n[1])


def _hex_refls(n):
    yield (-n[0], n[1] - n[0])
    yield (n[0] - n[1], -n[1])
    yield (n[1], n[0])


def _brute_sector_hex_torus(acc: _FlatAcc, irrep: str) -> None:
    qcap = int(acc.hi * Fraction(9, 16)) + 1
    for q, modes in _hex_shells(qcap).items():
        n_id = len(modes)
        n_rot = sum(1 for n in modes if _hex_rot(n) == n) + sum(
            1 for n in modes if _hex_rot(_hex_rot(n)) == n
        )
        n_ref = sum(1 for n in modes for img in _hex_refls(n) if img == n)
        if irrep == "+":
            tot, dim = n_id + n_rot + n_ref, 1
        elif irrep == "-":
            tot, dim = n_id + n_rot - n_ref, 1
        else:
            tot, dim = 2 * n_id - n_rot, 2
        if tot % 6 != 0:
            raise ArithmeticError((q, tot))
        acc.add(Fraction(16 * q, 9), dim * (tot // 6))


# Equilateral-triangle sectors: double character average.  The base group
# G_b (reflections cutting the triangle out of the hex torus) is linear; the
# triangle's own D3 about its centroid picks up cube-root-of-unity phases
# omega^(n1+n2) on the rotations.
_GB_MATS = [
    lambda n: n,
    _hex_rot,
    lambda n: _hex_rot(_hex_rot(n)),
    lambda n: (-n[0], n[1] - n[0]),
    lambda n: (n[0] - n[1], -n[1]),
    lambda n: (n[1], n[0]),
]
_GB_SIGNS = [1, 1, 1, -1, -1, -1]


def _swapneg(n):
    return (-n[1], -n[0])


# (index map, phase exponent coefficients (c1, c2) meaning omega^(c1 n1 + c2 n2))
_GC_ELEMS = [
    (lambda n: n, (0, 0)),
    (lambda n: _hex_rot(n), (1, 1)),
    (lambda n: _hex_rot(_hex_rot(n)), (2, 2)),
    (_swapneg, (0, 0)),
    (lambda n: _hex_rot(_swapneg(n)), (2, 2)),
    (lambda n: _hex_rot(_hex_rot(_swapneg(n))), (1, 1)),
]
_GC_CLASS = ["id", "rot", "rot", "ref", "ref", "ref"]


def _gc_char(irrep: str) -> list[float]:
    if irrep == "+":
        return [1, 1, 1, 1, 1, 1]
    if irrep == "-":
        return [1, 1, 1, -1, -1, -1]
    return [2, -1, -1, 0, 0, 0]


def _brute_sector_equilateral(acc: _FlatAcc, bc: str, irrep: str) -> None:
    chi_b = [1] * 6 if bc == "N" else _GB_SIGNS
    chi_c = _gc_char(irrep)
    dim = 2 if irrep == "2" else 1
    qcap = int(acc.hi * Fraction(9, 16)) + 1
    for q, modes in _hex_shells(qcap).items():
        total = 0j
        for gi, g in enumerate(_GB_MATS):
            for hi, (h, (c1, c2)) in enumerate(_GC_ELEMS):
                w = chi_b[gi] * chi_c[hi]
                if w == 0:
                    continue
                tr = 0j
                for n in modes:
                    if g(h(n)) == n:
                        tr += _OMEGA ** ((c1 * n[0] + c2 * n[1]) % 3)
                total += w * tr
        val = total.real * dim / 36
        if not (abs(total.imag) < 1e-9 and abs(val - round(val)) < 1e-9):
            raise ArithmeticError((q, total))
        acc.add(Fraction(16 * q, 9), int(round(val)))


def _brute_sector(acc: _FlatAcc, base: str, irrep: str) -> None:
    if base == "square_torus":
        _brute_sector_square_torus(acc, irrep)
    elif base == "square_n":
        _brute_sector_square_bc(acc, "N", irrep)
    elif base == "square_d":
        _brute_sector_square_bc(acc, "D", irrep)
    elif base == "hex_torus":
        _brute_sector_hex_torus(acc, irrep)
    elif base == "equilateral_n":
        _brute_sector_equilateral(acc, "N", irrep)
    elif base == "equilateral_d":
        _brute_sector_equilateral(acc, "D", irrep)
    else:
        raise ValueError(base)


# --- entry points ---


def brute_levels(spec: SurfaceSpec, T) -> list[tuple]:
    """Sorted (key, multiplicity) pairs for eigenvalues <= T.

    Keys are rho = lambda/pi^2 (Fraction) for flat surfaces and the degree N
    (eigenvalue N(N+1)) for spherical ones.
    """
    catalog.validate(spec)
    T = Fraction(T)
    if catalog.is_spherical(spec):
        return _brute_spherical(spec, T)
    acc = _FlatAcc(T)
    f = spec.family
    if f == Family.FLAT_TORUS_RECT:
        _brute_product(acc, "torus", spec.a, "torus", spec.b)
    elif f == Family.FLAT_TORUS_HEX:
        qcap = int(acc.hi * Fraction(9, 16)) + 1
        for q, modes in _hex_shells(qcap).items():
            acc.add(Fraction(16 * q, 9), len(modes))
    elif f == Family.RECTANGLE:
        xk, yk = _RECT_AXIS_KINDS[spec.bc]
        _brute_product(acc, xk, spec.a, yk, spec.b)
    elif f == Family.RIGHT_ISO_TRIANGLE:
        _brute_right_iso(acc, spec.a, spec.bc)
    elif f == Family.EQUILATERAL_TRIANGLE:
        _brute_equilateral(acc, spec.bc)
    elif f == Family.TRIANGLE_306090:
        _brute_306090(acc, spec.bc)
    elif f == Family.CYLINDER:
        yk = {"N": "cos", "D": "sin", "M": "mix"}[spec.bc]
        _brute_product(acc, "circ", spec.a, yk, spec.b)
    elif f == Family.MOBIUS_BAND:
        _brute_mobius(acc, spec.a, spec.b, spec.bc)
    elif f == Family.FLAT_PROJECTIVE_PLANE:
        _brute_fpp(acc)
    elif f == Family.TETRAHEDRON_SURFACE:
        _brute_tetrahedron(acc)
    elif f == Family.HALF_TETRAHEDRON:
        _brute_half_tetrahedron(acc, spec.bc)
    elif f == Family.SYMMETRY_SECTOR:
        _brute_sector(acc, spec.base, spec.irrep)
    else:
        raise ValueError(f"no brute enumeration for {spec}")
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


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one closed-form verification sweep."""

    label: str
    T: float
    levels_checked: int
    times_checked: int
    ok: bool
    detail: str


def check_equivalence(spec: SurfaceSpec, T, n_times: int = 2000, seed: int = 0) -> EquivalenceReport:
    """Compare the brute-force level table against spectrum.levels, then the
    exact count and the closed-form identity at random jump and midpoint
    times.  Stops at the first mismatch."""
    from . import spectrum

    T = Fraction(T)
    brute = brute_levels(spec, T)

    def report(ok: bool, times: int, detail: str) -> EquivalenceReport:
        return EquivalenceReport(spec.label(), float(T), len(brute), times, ok, detail)

    if spec.family in _SQUARE_LATTICE_FAMILIES:
        gauss_circle_self_check(int(flat_rho_bounds(T)[0]))

    got = [(lv.key, lv.multiplicity) for lv in spectrum.levels(spec, T)]
    if got != brute:
        for i in range(max(len(got), len(brute))):
            want = brute[i] if i < len(brute) else None
            have = got[i] if i < len(got) else None
            if want != have:
                return report(False, 0, f"level {i}: enumerated {want}, spectrum {have}")
    if not brute:
        return report(True, 0, "pass (no levels below cutoff)")

    prefix = []
    run = 0
    for _, m in brute:
        run += m
        prefix.append(run)

    spherical = catalog.is_spherical(spec)

    def exact_time(key) -> object:
        if spherical:
            return Fraction(key * (key + 1))
        return spectrum.ExactTime(Fraction(key), True)

    def mid_time(k1, k2) -> object:
        if spherical:
            return Fraction(k1 * (k1 + 1) + k2 * (k2 + 1), 2)
        return spectrum.ExactTime(Fraction(k1 + k2, 2), True)

    rng = random.Random(seed)
    for n in range(n_times):
        i = rng.randrange(len(brute))
        if rng.random() < 0.5:
            t = exact_time(brute[i][0])
            expected = prefix[i]
            where = f"jump {i}"
        elif i + 1 < len(brute):
            t = mid_time(brute[i][0], brute[i + 1][0])
            expected = prefix[i]
            where = f"midpoint {i}"
        else:
            t = exact_time(brute[i][0])
            expected = prefix[i]
            where = f"jump {i}"
        c = spectrum.count(spec, t)
        if c != expected:
            return report(False, n, f"count at {where}: enumerated {expected}, spectrum {c}")
        rep = spectrum.closed_form_identity(spec, t)
        if rep.closed_form != expected:
            return report(
                False, n, f"closed form at {where}: enumerated {expected}, formula {rep.closed_form}"
            )
        if rep.count != expected:
            return report(False, n, f"count report at {where}: {rep.count} != {expected}")
    return report(True, n_times, "pass")
