"""Mutations the conjecture's records must catch, and the records that do.

Each entry names a defect, a function that builds the defective code
from the sound one, and the records of `average.conjecture_checks` at
seed 3 that fail under it, per surface of the entry's fixed set.  A
surface left out of the expected map passes every record.  A record
that replaces another is stronger when it catches a superset here.
"""

from spectralab import catalog

MUTATION_SEED = 3

# the round surfaces that show the sawtooth: its weight is 1 on the
# projective sphere, -1/4 on the half lune of m = 2 and 0 on m = 3
WEIGHT_SURFACES = ("projective_sphere", "half_lune:m=2,bc_side=N,bc_equator=D",
                   "half_lune:m=3,bc_side=N,bc_equator=D")


def _sign_flipped(weight):
    return lambda s: -weight(s)


def _whole_over_m(weight):
    # 1/m in place of 1/(2m) on the half lunes
    return lambda s: 2 * weight(s) if s.family is catalog.Family.HALF_LUNE else weight(s)


def _odd_m_weighted(weight):
    # the even-m rule +-1/(2m) applied to the half lunes of odd m too
    def mutant(s):
        if s.family is catalog.Family.HALF_LUNE and s.m % 2:
            return (1 if s.bc_equator == "N" else -1) / (2 * s.m)
        return weight(s)

    return mutant


# `average._alternating_weight` mutants: name -> (mutate, failing records)
WEIGHT_MUTATIONS = {
    "sign-flipped": (_sign_flipped, {
        "projective_sphere": {"decay"},
        "half_lune:m=2,bc_side=N,bc_equator=D": {"decay"}}),
    "1/m-for-1/(2m)": (_whole_over_m, {
        "half_lune:m=2,bc_side=N,bc_equator=D": {"decay"}}),
    "odd-m-weighted": (_odd_m_weighted, {
        "half_lune:m=3,bc_side=N,bc_equator=D": {"decay", "freq"}}),
}
