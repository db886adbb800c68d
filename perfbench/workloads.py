"""Seeded job lists for the three benchmark workloads.

A job is the argv of one `spectralab` command line, as a tuple of strings
of the form (command, surface, --option, value, ...).  Each workload draws
*passes* of jobs from its own `random.Random(seed)`; a run of S seconds
draws round(S / PASS_SECONDS) of them, so a run's work depends only on the
seed and the requested seconds, never on how fast the program is.  Fresh
draws per pass, rather than one pass repeated, put more distinct jobs
behind each quantile a run reports.

The surface pools are copied from `spectralab list` (the verification
roster) so that a change to the roster cannot silently change a workload.
Each pass is stratified: it draws the same number of jobs from each pool,
and the pools group surfaces of similar cost, so passes drawn from
different seeds cost about the same.  Why each workload exists and which
layer metrics it should move is written down in README.md.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# --- pools from `spectralab list` ---

# Flat roster surfaces of unit shape (side lengths 1, no symmetry sectors):
# every one takes the same 60001 x 901 Fourier scan in `conjecture` and
# peaks at 200 to 207 MB.  rectangle:a=1,b=1,bc=DM and flat_projective_plane
# peak 30 MB higher; with them in the pool a run's peak_rss_mb would depend
# on whether the seed drew one.
FLAT_UNIT = (
    "flat_torus_rect:a=1,b=1",
    "flat_torus_hex",
    "rectangle:a=1,b=1,bc=N",
    "rectangle:a=1,b=1,bc=D",
    "rectangle:a=1,b=1,bc=ND",
    "rectangle:a=1,b=1,bc=NM",
    "rectangle:a=1,b=1,bc=MM",
    "right_iso_triangle:a=1,bc=N",
    "right_iso_triangle:a=1,bc=D",
    "right_iso_triangle:a=1,bc=ND",
    "right_iso_triangle:a=1,bc=DN",
    "right_iso_triangle:a=1,bc=MN",
    "right_iso_triangle:a=1,bc=MD",
    "equilateral_triangle:bc=N",
    "equilateral_triangle:bc=D",
    "triangle_306090:bc=N",
    "triangle_306090:bc=D",
    "triangle_306090:bc=ND",
    "triangle_306090:bc=DN",
    "cylinder:a=1,b=1,bc=N",
    "cylinder:a=1,b=1,bc=D",
    "cylinder:a=1,b=1,bc=M",
    "mobius_band:a=1,b=1,bc=N",
    "mobius_band:a=1,b=1,bc=D",
    "tetrahedron_surface",
    "half_tetrahedron:bc=N",
    "half_tetrahedron:bc=D",
)

# The whole roster grouped by family, for `verify`.  The one- and the
# two-dimensional symmetry sectors are separate strata: every pass checks
# one of each.
ROSTER_BY_FAMILY = {
    "flat_torus_rect": ("flat_torus_rect:a=1,b=1", "flat_torus_rect:a=2,b=3/2"),
    "flat_torus_hex": ("flat_torus_hex",),
    "rectangle": (
        "rectangle:a=1,b=1,bc=N", "rectangle:a=1,b=1,bc=D",
        "rectangle:a=1,b=1,bc=ND", "rectangle:a=1,b=1,bc=NM",
        "rectangle:a=1,b=1,bc=DM", "rectangle:a=1,b=1,bc=MM",
        "rectangle:a=2,b=3/2,bc=ND", "rectangle:a=3/2,b=1,bc=NM",
    ),
    "right_iso_triangle": (
        "right_iso_triangle:a=1,bc=N", "right_iso_triangle:a=1,bc=D",
        "right_iso_triangle:a=1,bc=ND", "right_iso_triangle:a=1,bc=DN",
        "right_iso_triangle:a=1,bc=MN", "right_iso_triangle:a=1,bc=MD",
        "right_iso_triangle:a=1/2,bc=N",
    ),
    "equilateral_triangle": ("equilateral_triangle:bc=N", "equilateral_triangle:bc=D"),
    "triangle_306090": (
        "triangle_306090:bc=N", "triangle_306090:bc=D",
        "triangle_306090:bc=ND", "triangle_306090:bc=DN",
    ),
    "cylinder": (
        "cylinder:a=1,b=1,bc=N", "cylinder:a=1,b=1,bc=D",
        "cylinder:a=1,b=1,bc=M", "cylinder:a=3/2,b=1,bc=M",
    ),
    "mobius_band": (
        "mobius_band:a=1,b=1,bc=N", "mobius_band:a=1,b=1,bc=D",
        "mobius_band:a=1,b=1/2,bc=D",
    ),
    "sphere": ("sphere",),
    "hemisphere": ("hemisphere:bc=N", "hemisphere:bc=D"),
    "projective_sphere": ("projective_sphere",),
    "lune": tuple(f"lune:m={m},bc={bc}" for m in (1, 2, 3, 5) for bc in "ND"),
    "half_lune": tuple(
        f"half_lune:m={m},bc_side={s},bc_equator={e}"
        for m in (1, 2, 3, 4, 5) for s in "ND" for e in "ND"),
    "glued_lune": tuple(f"glued_lune:m={m}" for m in (1, 2, 3, 5)),
    "flat_projective_plane": ("flat_projective_plane",),
    "tetrahedron_surface": ("tetrahedron_surface",),
    "half_tetrahedron": ("half_tetrahedron:bc=N", "half_tetrahedron:bc=D"),
    "symmetry_sector": tuple(
        f"symmetry_sector:base={base},irrep={ir}"
        for base, irreps in (
            ("square_torus", ("++", "+-", "-+", "--")),
            ("square_n", ("++", "+-", "-+", "--")),
            ("square_d", ("++", "+-", "-+", "--")),
            ("hex_torus", ("+", "-")),
            ("equilateral_n", ("+", "-")),
            ("equilateral_d", ("+", "-")),
        )
        for ir in irreps),
    # the square-lattice 2-dimensional sectors; the hex and equilateral ones
    # cost half as much, which would make the pass cost depend on the seed
    "symmetry_sector_2d": (
        "symmetry_sector:base=square_n,irrep=2",
        "symmetry_sector:base=square_d,irrep=2",
    ),
}

ROUND = tuple(
    label for family in ("sphere", "hemisphere", "projective_sphere", "lune",
                         "half_lune", "glued_lune")
    for label in ROSTER_BY_FAMILY[family])

# Round surfaces whose `conjecture` costs about the same (within 10% at the
# seed commit); some other lunes and half lunes take up to 1.8 times as
# long, in their table build.  The round conjecture jobs sit at the
# pipeline's median and tail, so a cost that depended on the draw would
# decide those quantiles.
ROUND_CONJECTURE = ("sphere", "hemisphere:bc=N", "hemisphere:bc=D", "projective_sphere",
                    "lune:m=1,bc=N", "lune:m=1,bc=D", "glued_lune:m=1", "glued_lune:m=5")


# Seconds one pass takes, probes and set-up samples included, on the
# machine described in README.md at the probe's nominal speed; a run of S
# seconds draws round(S / PASS_SECONDS) passes.
PASS_SECONDS = {"pipeline": 13.0, "verify": 34.0, "shapes": 13.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _fmt(x: float) -> str:
    return "%.6g" % x


def pipeline(rng: random.Random) -> list[tuple[str, ...]]:
    """The averaged-error pipeline on unit-shaped tables out to t = 1e7.

    A pass is seven jobs: `conjecture` on one flat and four round surfaces,
    one `freq` scan and one `gprofile`.  By cost the four round conjecture
    jobs are the third to sixth of the seven, so the run's median job and
    its tail job fall inside that group of equal-cost jobs, not on the edge
    between two kinds of job, where one slow job would move them a lot.
    """
    jobs = [("conjecture", rng.choice(FLAT_UNIT), "--seed", str(rng.randrange(1000)))]
    for _ in range(4):
        jobs.append(("conjecture", rng.choice(ROUND_CONJECTURE), "--seed",
                     str(rng.randrange(1000))))
    # a flat surface for `freq`, as a user studying it would run; 1201
    # frequencies over [1, 16] are 0.0125 apart, finer than the window
    # resolution 2 pi / 400 that `freq` requires; the scan takes 8149
    # samples.  The profile is of that surface or of a round one.
    flat = rng.choice(FLAT_UNIT)
    x0 = rng.randrange(100, 301)
    jobs.append(("freq", flat, "--window", f"{x0}:{x0 + 400}", "--omega", "1:16:1201"))
    label = flat if rng.random() < 0.5 else rng.choice(ROUND)
    x0 = rng.randrange(100, 301)
    jobs.append(("gprofile", label, "--grid", f"{x0}:{x0 + 500}:20001"))
    rng.shuffle(jobs)
    return jobs


def verify(rng: random.Random) -> list[tuple[str, ...]]:
    """One brute-force equivalence check per family, T = 1e4 flat, 1e6 round."""
    jobs = []
    for family in sorted(ROSTER_BY_FAMILY):
        label = rng.choice(ROSTER_BY_FAMILY[family])
        max_t = "1e6" if label in ROUND else "1e4"
        jobs.append(("verify", label, "--max-t", max_t, "--seed", str(rng.randrange(1000))))
    rng.shuffle(jobs)
    return jobs


# --- rational shapes ---

SHAPE_PRIMES = (5, 7, 11, 13)

# dense table length the draws aim at: about 130 MB of int64 per table,
# under the per-job memory limit at the seed commit
SHAPE_QCAP = 1.6e7

# eigenvalue keys rho (eigenvalue rho * pi^2) of each 1-d factor are
# integer multiples of step / side^2
_AXIS_STEP = {"torus": Fraction(1), "cos": Fraction(1), "sin": Fraction(1),
              "mix": Fraction(1, 4), "circ": Fraction(4)}
_RECT_AXES = {"N": ("cos", "cos"), "D": ("sin", "sin"), "ND": ("sin", "cos"),
              "NM": ("cos", "mix"), "DM": ("sin", "mix"), "MM": ("mix", "mix")}
_SHAPE_FAMILIES = {
    "flat_torus_rect": {"": ("torus", "torus")},
    "rectangle": _RECT_AXES,
    "cylinder": {"N": ("circ", "cos"), "D": ("circ", "sin"), "M": ("circ", "mix")},
    "mobius_band": {"N": ("torus", "cos"), "D": ("torus", "sin")},
}


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(math.gcd(x.numerator * y.denominator, y.numerator * x.denominator),
                    x.denominator * y.denominator)


def _key_unit(family: str, a: Fraction, b: Fraction, bc: str) -> Fraction:
    """Largest u such that every eigenvalue key of the shape is a multiple of u."""
    xk, yk = _SHAPE_FAMILIES[family][bc]
    return _frac_gcd(_AXIS_STEP[xk] / (a * a), _AXIS_STEP[yk] / (b * b))


def _shape(rng: random.Random, family: str) -> tuple[str, str]:
    """A seeded rational shape and the cutoff T whose dense table has about
    SHAPE_QCAP entries, as (label, T)."""
    # distinct numerators, distinct denominators and no side an integer:
    # the key unit is then c / (p1 * p2)^2 with c in {1/4, 1}
    p1, p2 = rng.sample(SHAPE_PRIMES, 2)
    q1 = rng.choice([p for p in SHAPE_PRIMES if p != p1])
    q2 = rng.choice([p for p in SHAPE_PRIMES if p not in (p2, q1)])
    a, b = Fraction(p1, q1), Fraction(p2, q2)
    bc = rng.choice(sorted(_SHAPE_FAMILIES[family]))
    unit = _key_unit(family, a, b, bc)
    max_t = "%.4g" % (SHAPE_QCAP * math.pi ** 2 * float(unit))
    label = f"{family}:a={a},b={b}" + (f",bc={bc}" if bc else "")
    return label, max_t


def shapes(rng: random.Random) -> list[tuple[str, ...]]:
    """Table dump, exact counts and averaged error on rational shapes."""
    jobs = []
    for family in _SHAPE_FAMILIES:
        label, max_t = _shape(rng, family)
        T = float(max_t)
        jobs.append(("spectrum", label, "--max-t", max_t))
        # largest cutoff first: one table build, as in the other two jobs,
        # instead of a growth sequence whose peak depends on the draw
        at = [max_t, _fmt(T * rng.uniform(0.15, 0.4)), _fmt(T * rng.uniform(0.02, 0.12))]
        jobs.append(("count", label, "--at", ",".join(at)))
        jobs.append(("avg", label, "--grid", f"{_fmt(T / 100)}:{max_t}:4001"))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"pipeline": pipeline, "verify": verify, "shapes": shapes}


def passes(workload: str, seed: int, n_passes: int) -> list[list[tuple[str, ...]]]:
    """n_passes passes of the workload's jobs, determined by the seed alone;
    the first pass is the same for every n_passes."""
    rng = random.Random(f"{workload}:{seed}")
    return [GENERATORS[workload](rng) for _ in range(n_passes)]
