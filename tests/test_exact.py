import math
import random
from fractions import Fraction

import mpmath
import pytest

from spectralab import catalog, lattice, spectrum
from spectralab.exact import PI_HI, PI_LO, ExactConst, isqrt_frac_floor


def test_pi_enclosure_digits():
    mpmath.mp.dps = 130
    scaled = mpmath.floor(mpmath.pi * mpmath.mpf(10) ** 100)
    assert PI_LO == Fraction(int(scaled), 10**100)
    assert PI_HI - PI_LO == Fraction(1, 10**100)
    assert PI_LO < Fraction(mpmath.mp.pi.__float__()) + Fraction(1, 10**9)


def test_term_normalization():
    assert ExactConst.term(1, root=8) == ExactConst.term(2, root=2)
    assert ExactConst.term(1, root=12) == ExactConst.term(2, root=3)
    assert ExactConst.term(Fraction(3, 2), root=9) == ExactConst.rational(Fraction(9, 2))
    assert ExactConst.term(0, root=7) == 0


def test_ring_products():
    r2 = ExactConst.term(1, root=2)
    r3 = ExactConst.term(1, root=3)
    r6 = ExactConst.term(1, root=6)
    assert r2 * r3 == r6
    assert r2 * r2 == ExactConst.rational(2)
    assert r6 * r6 == ExactConst.rational(6)
    assert (r2 + r3) * (r2 - r3) == ExactConst.rational(-1)
    pi = ExactConst.term(1, pi_pow=1)
    assert pi * pi == ExactConst.term(1, pi_pow=2)
    assert (r2 / 2) * (r2 / 2) == ExactConst.rational(Fraction(1, 2))


def test_add_sub_cancellation():
    x = ExactConst.term(Fraction(1, 3), root=5) + ExactConst.rational(2)
    y = x - ExactConst.term(Fraction(1, 3), root=5)
    assert y == ExactConst.rational(2)
    assert x - x == 0
    assert x + 0 == x
    assert 1 - ExactConst.rational(Fraction(1, 4)) == ExactConst.rational(Fraction(3, 4))


def test_float_and_comparisons():
    r2 = ExactConst.term(1, root=2)
    assert abs(float(r2) - math.sqrt(2)) < 1e-15
    pi = ExactConst.term(1, pi_pow=1)
    assert abs(float(pi) - math.pi) < 1e-15
    assert (pi - r2).sign() == 1
    # sign of an exact zero
    assert (r2 - r2).sign() == 0


def test_truth_is_a_nonzero_sign():
    # a constant is false exactly where its sign is 0: the exact B of the
    # square torus's 2-dim sector, and a difference that cancels
    from spectralab import asymptotics

    zero = asymptotics.surface_constants(catalog.symmetry_sector("square_torus", "2")).B
    r2 = ExactConst.term(1, root=2)
    for c in (zero, r2 - r2, ExactConst.rational(0), r2, r2 - ExactConst.term(1, pi_pow=1),
              ExactConst.term(Fraction(1, 10 ** 90), root=3, pi_pow=-2)):
        assert bool(c) is (c.sign() != 0)
    assert not zero and zero.sign() == 0


def test_float_beyond_range_is_a_value_error():
    # the message is short, not the 400-digit coefficient
    huge = ExactConst.term(10**400, pi_pow=-1)
    with pytest.raises(ValueError, match="^constant beyond the float range$"):
        float(huge)
    with pytest.raises(ValueError):
        float(-huge)


def test_as_fraction_and_pi_multiple():
    angle = ExactConst.term(Fraction(1, 6), pi_pow=1)
    assert angle.as_pi_multiple() == Fraction(1, 6)
    with pytest.raises(ValueError):
        ExactConst.rational(1).as_pi_multiple()
    assert ExactConst().as_pi_multiple() == 0


def test_str_rendering():
    c = ExactConst.term(Fraction(1, 4), pi_pow=-1) + ExactConst.term(Fraction(-1, 8), root=2, pi_pow=-1)
    s = str(c)
    assert "pi" in s and "sqrt2" in s
    assert str(ExactConst()) == "0"


def test_isqrt_frac_floor():
    mpmath.mp.dps = 60
    rng = random.Random(0x5EED)
    for _ in range(300):
        num = rng.randrange(0, 10**9)
        den = rng.randrange(1, 10**6)
        x = Fraction(num, den)
        got = isqrt_frac_floor(x)
        assert got * got <= x < (got + 1) * (got + 1)


def bracket(x, a, c=Fraction(0)):
    """floor(a sqrt(x) + c) as a closed form's one floor bracket evaluates
    it at the exact cutoff x pi^2, i.e. at rho = x."""
    rho = spectrum.ExactTime(x).rho
    form = lattice._Form([(1, ("floor", a * a, c))], Fraction(1))
    _, (value,) = form.ints(rho.numerator, rho.denominator)
    return value


def test_floor_affine_sqrt_exact_boundaries():
    # a*sqrt(x) + c hitting an integer exactly
    assert bracket(Fraction(9), Fraction(2), Fraction(5)) == 11
    assert bracket(Fraction(2), Fraction(0), Fraction(-3)) == -3
    assert bracket(Fraction(49, 4), Fraction(2)) == 7
    assert bracket(Fraction(2), Fraction(1)) == 1
    assert bracket(Fraction(0), Fraction(5), Fraction(-1, 2)) == -1


def test_floor_affine_sqrt_random():
    rng = random.Random(0xF100D)
    for _ in range(500):
        x = Fraction(rng.randrange(0, 10**8), rng.randrange(1, 10**4))
        a = Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        c = Fraction(rng.randrange(-400, 400), rng.randrange(1, 30))
        n = bracket(x, a, c)
        # n <= a sqrt x + c  <=>  (n-c) <= a sqrt x, checked by squaring
        d = n - c
        assert d <= 0 or d * d <= a * a * x
        d1 = n + 1 - c
        assert d1 > 0 and d1 * d1 > a * a * x


def test_floor_div_pi2():
    # the unit torus table has unit 1, so its largest key below x is
    # floor(x / pi^2), decided on both ends of the pi enclosure
    tb = spectrum._table(catalog.flat_torus_rect(1, 1))
    assert tb.unit == 1
    mpmath.mp.dps = 60
    rng = random.Random(0xABCD)
    for _ in range(200):
        x = Fraction(rng.randrange(0, 10**7), rng.randrange(1, 10**3))
        got = tb.qmax(x)
        want = int(mpmath.floor(mpmath.mpf(x.numerator) / x.denominator / mpmath.pi**2))
        assert got == want
    assert tb.qmax(Fraction(0)) == 0


def test_floor_affine_sqrt_hundred_digit_operands():
    # n = floor(a sqrt(x) + c) exactly when n <= a sqrt(x) + c < n + 1,
    # decided by squaring in rationals
    rng = random.Random(7)

    def big():
        return Fraction(rng.randrange(10**99, 10**100), rng.randrange(10**99, 10**100))

    def le(n, x, a, c):
        d = n - c
        return d <= 0 or d * d <= a * a * x

    for _ in range(200):
        x, a, c = big() * 10**rng.randrange(-50, 50), big(), big() - big()
        n = bracket(x, a, c)
        assert le(n, x, a, c) and not le(n + 1, x, a, c)
    # a perfect square plus a 100-digit shift lands exactly on an integer
    s = 10**100 + 7
    assert bracket(Fraction(s * s), 1, Fraction(-3, 10**100)) == s - 1
    assert bracket(Fraction(s * s), 1, Fraction(0)) == s
