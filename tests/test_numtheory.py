import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from modunits.numtheory import (
    b2,
    crt_pair,
    divisors,
    euler_phi,
    factorize,
    generator_mod_pm1,
    inv_mod,
    is_prime,
    moebius,
    order_in_units_mod_pm1,
    primitive_root,
    trial_factor,
)


def test_factorize_examples():
    assert factorize(42) == [(2, 1), (3, 1), (7, 1)]
    assert factorize(32) == [(2, 5)]
    assert factorize(180) == [(2, 2), (3, 2), (5, 1)]


def test_factorize_rejects_small():
    for n in (1, 0, -6):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_reconstructs():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_trial_factor_bound():
    assert trial_factor(1) == ([], 1)
    assert trial_factor(180, bound=3) == ([(2, 2), (3, 2), (5, 1)], 1)  # 5 < 5**2
    assert trial_factor(4 * 9 * 49, bound=3) == ([(2, 2), (3, 2)], 49)
    assert trial_factor(2**5 * 101, bound=100) == ([(2, 5), (101, 1)], 1)
    # two primes near 2**60 have no factor below the bound: one cofactor back,
    # where unbounded trial division would run for hours
    p, q = 2**60 - 93, 2**60 - 107
    t0 = time.perf_counter()
    assert trial_factor(12 * p * q, bound=1 << 16) == ([(2, 2), (3, 1)], p * q)
    assert time.perf_counter() - t0 < 1.0
    for n in (97, 2 * 3 * 5 * 7 * 11, 3**9 * 65537):
        assert trial_factor(n)[0] == factorize(n)


def test_phi_moebius_inv():
    assert euler_phi(27) == 18
    assert euler_phi(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    assert inv_mod(7, 13) == 2


def test_inv_mod_rejects_non_coprime():
    with pytest.raises(ValueError):
        inv_mod(6, 9)


def test_inv_mod_random_pairs():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(2, 10**4)
        a = rng.randrange(1, n)
        if gcd(a, n) != 1:
            continue
        assert inv_mod(a, n) * a % n == 1


def test_divisors_radical_crt():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    x = crt_pair(2, 5, 3, 7)
    assert x % 5 == 2 and x % 7 == 3


def test_b2_values():
    assert b2(0) == Fraction(1, 6)
    assert b2(Fraction(1, 13)) == Fraction(97, 1014)
    assert 13 * b2(Fraction(1, 13)) / 2 == Fraction(97, 156)
    assert b2(Fraction(-1, 4)) == Fraction(-1, 48)
    assert b2(Fraction(1, 2)) == Fraction(-1, 12)


def test_b2_periodicity_and_symmetry():
    rng = random.Random(3)
    for _ in range(300):
        x = Fraction(rng.randrange(-500, 500), rng.randrange(1, 60))
        k = rng.randrange(-5, 6)
        assert b2(x + k) == b2(x)
        assert b2(1 - x) == b2(x)


def test_order_in_units_mod_pm1():
    assert order_in_units_mod_pm1(3, 7) == 3
    assert order_in_units_mod_pm1(2, 5) == 2
    assert order_in_units_mod_pm1(11, 1) == 1
    assert order_in_units_mod_pm1(5, 2) == 1
    with pytest.raises(ValueError):
        order_in_units_mod_pm1(6, 9)


def test_generator_mod_pm1_examples():
    assert generator_mod_pm1(27) == 2
    assert generator_mod_pm1(32) == 3
    assert generator_mod_pm1(13) == 2


def test_generator_mod_pm1_rejects():
    for q in (1, 2, 4, 12, 45):
        with pytest.raises(ValueError):
            generator_mod_pm1(q)


def test_generator_powers_cover_quotient():
    for q in (5, 7, 9, 13, 25, 27, 8, 16, 32, 81, 121):
        a = generator_mod_pm1(q)
        target = euler_phi(q) // 2
        classes = {min(x := pow(a, t, q), q - x) for t in range(target)}
        assert len(classes) == target


def test_primitive_root():
    for q in (3, 5, 9, 27, 49, 121):
        g = primitive_root(q)
        phi = euler_phi(q)
        assert len({pow(g, t, q) for t in range(phi)}) == phi


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(-3, 10**5) if is_prime(n) != by_trial(n)] == []
    assert is_prime(2**61 - 1)
    # strong pseudoprimes to the bases 2..31 and 2..37; only base 41 catches the second
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)


def test_p_primary_at_a_large_prime_is_fast():
    from modunits.classgroup import p_primary

    t0 = time.perf_counter()
    assert p_primary(13, 2**61 - 1) == {}
    assert time.perf_counter() - t0 < 0.5
    t0 = time.perf_counter()
    assert p_primary(13, 2**89 - 1) == {}
    assert time.perf_counter() - t0 < 1


def test_is_prime_without_a_pocklington_proof_raises():
    # n = 2**107 - 1 is prime; the 2**16-smooth part of n - 1 is
    # 2 * 3 * 107 * 6361, 22 of 107 bits, so no Pocklington proof, and
    # trial division up to sqrt(n) > 2**53 would never finish
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no Pocklington proof"):
        is_prime(2**107 - 1)
    assert time.perf_counter() - t0 < 1


def test_is_prime_above_the_miller_rabin_bound():
    # 2**89 - 1 is proved by Pocklington from the 2**16-smooth part of n - 1;
    # the bound itself is a strong pseudoprime to every base up to 41
    t0 = time.perf_counter()
    assert is_prime(2**89 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert not is_prime(3317044064679887385961981)
    assert not is_prime((2**89 - 1) ** 2)
    assert time.perf_counter() - t0 < 1
    # primes whose n - 1 is smooth, well above the bound
    rng = random.Random(7)
    found = 0
    while found < 10:
        n = 2
        while n < 10**30:
            n *= rng.choice((2, 3, 5, 7, 11, 13, 101, 65521))
        n += 1
        if all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7)):
            assert is_prime(n), n
            assert not is_prime(n * (2**61 - 1))
            found += 1
