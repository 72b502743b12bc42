"""Elementary number-theoretic utilities shared by the other modules.

Everything here is exact: integers are arbitrary precision and rational
values are `fractions.Fraction` (always in lowest terms, denominator >= 1).
"""

from fractions import Fraction
from math import gcd, log

#: second Bernoulli polynomial constant term
_ONE_SIXTH = Fraction(1, 6)


def trial_factor(n: int, bound: int | None = None) -> tuple[list[tuple[int, int]], int]:
    """Trial division of n >= 1 by 2 and the odd numbers up to `bound`.

    Returns ([(p, e), ...], c) with primes ascending and c * prod(p**e) == n.
    The cofactor c is 1 when n factors completely; otherwise c has no prime
    factor up to `bound` and is above bound**2, so it may be composite.
    Without a bound the division runs to sqrt(n) and c is always 1.

    >>> trial_factor(2**5 * 3 * 1000003, bound=100)
    ([(2, 5), (3, 1)], 1000003)
    >>> trial_factor(2**5 * 3 * 101, bound=100)
    ([(2, 5), (3, 1), (101, 1)], 1)
    """
    if n < 1:
        raise ValueError(f"trial_factor requires n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m and (bound is None or p <= bound):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1 and p * p > m:
        out.append((m, 1))
        m = 1
    return out, m


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 2 by trial division.

    Returns [(p, e), ...] with primes ascending and prod(p**e) == n.  The
    divisions run up to the square root of the second-largest prime factor
    of n: about 2**25 of them, a minute or more, when that factor is near
    2**50, so an n with two large prime factors does not finish in
    practice.  `trial_factor` with a bound returns such a part unfactored.

    >>> factorize(42)
    [(2, 1), (3, 1), (7, 1)]
    >>> factorize(32)
    [(2, 5)]
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    return trial_factor(n)[0]


#: Miller-Rabin to these bases is exact below 3 317 044 064 679 887 385 961 981
#: (Sorenson and Webster, Math. Comp. 86 (2017))
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981

#: trial-division bound for the factored parts of n - 1 in `is_prime` and of
#: |det| / s in `zlinalg.smith_invariants_local`
TRIAL_BOUND = 1 << 16


def is_prime(n: int) -> bool:
    """Exact primality.

    Miller-Rabin to the bases 2, ..., 41 rejects every composite it meets
    and is a proof below the bound of its bases.  Above that bound a number
    that passes every base is proved prime by Pocklington's theorem: with
    n - 1 = F * R, F > sqrt(n) fully factored, n is prime if for each prime
    q | F some a has a^(n-1) = 1 (mod n) and gcd(a^((n-1)/q) - 1, n) = 1.
    F is the part of n - 1 that `trial_factor` factors up to `TRIAL_BOUND`.
    When that part is at most sqrt(n), n goes through Miller-Rabin to every
    base below 2 ln(n)^2 (which, under GRH, rejects every composite; Bach,
    Math. Comp. 55 (1990)); a number that passes has no proof here, and
    `is_prime` raises ValueError rather than divide up to sqrt(n) > 2^40.

    >>> is_prime(2**61 - 1), is_prime(3825123056546413051), is_prime(2**89 - 1)
    (True, False, True)
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43**2 has a prime factor up to 41
        return True
    if not _strong_probable_prime(n, _MILLER_RABIN_BASES):
        return False
    return n < _MILLER_RABIN_EXACT_BELOW or _pocklington(n)


def _strong_probable_prime(n: int, bases) -> bool:
    # Miller-Rabin of an odd n > 2 to each base; False proves n composite
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pocklington(n: int) -> bool:
    # n > 43**2 is odd and passed every Miller-Rabin base
    factors, _ = trial_factor(n - 1, TRIAL_BOUND)
    F = 1
    for q, e in factors:
        F *= q**e
    if F * F <= n:
        if not _strong_probable_prime(n, range(2, int(2 * log(n) ** 2) + 1)):
            return False
        raise ValueError(
            f"{n} passed Miller-Rabin to every base below 2 ln^2 n but has no Pocklington proof"
            f" from the 2^{TRIAL_BOUND.bit_length() - 1}-smooth part of n - 1"
        )
    for q, _ in factors:
        # for prime n this ends at the least q-th power non-residue; for
        # composite n by a = its least prime factor, where a^(n-1) != 1 mod n
        a = 2
        while True:
            if pow(a, n - 1, n) != 1:
                return False
            g = gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False
            a += 1
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    out = [1]
    for p, e in factorize(n) if n > 1 else []:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    """Euler totient.

    >>> euler_phi(27)
    18
    """
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def moebius(n: int) -> int:
    """Moebius function: (-1)^k on squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError(f"moebius requires n >= 1, got {n}")
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def inv_mod(a: int, n: int) -> int:
    """Multiplicative inverse of a modulo n, in range(n).

    >>> inv_mod(7, 13)
    2
    """
    if n < 1:
        raise ValueError(f"inv_mod requires modulus >= 1, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"inv_mod({a}, {n}): arguments are not coprime")
    return pow(a, -1, n)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2."""
    if gcd(m1, m2) != 1:
        raise ValueError(f"crt_pair moduli are not coprime: {m1}, {m2}")
    x = r1 + m1 * ((r2 - r1) * inv_mod(m1, m2) % m2)
    return x % (m1 * m2)


def b2(x: Fraction | int) -> Fraction:
    """Second Bernoulli function {x}^2 - {x} + 1/6, periodic with period 1.

    >>> b2(0)
    Fraction(1, 6)
    >>> b2(Fraction(-1, 4)) == b2(Fraction(3, 4))
    True
    """
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + _ONE_SIXTH


def unit_lead_key(N: int, g: int) -> int:
    """12N * (N/2) * B2(g/N) = 6g^2 - 6gN + N^2, with g reduced into [1, N-1].

    The order of g_h at the width-one cusp a/N is unit_lead_key(N, a*h)/(12N).

    >>> unit_lead_key(13, 1)
    97
    >>> Fraction(unit_lead_key(13, 1), 12 * 13) == Fraction(13, 2) * b2(Fraction(1, 13))
    True
    """
    g %= N
    if g == 0:
        raise ValueError(f"index 0 is not a valid Siegel-unit index mod {N}")
    return 6 * g * g - 6 * g * N + N * N


def order_in_units_mod_pm1(a: int, m: int) -> int:
    """Least t >= 1 with a^t = +-1 (mod m); t = 1 when m <= 2.

    This is the order of a in the quotient group (Z/mZ)^x / {+-1}.
    """
    if m < 1:
        raise ValueError(f"order_in_units_mod_pm1 requires m >= 1, got {m}")
    if gcd(a, m) != 1:
        raise ValueError(f"order_in_units_mod_pm1({a}, {m}): not coprime")
    if m <= 2:
        return 1
    t = 1
    x = a % m
    while x != 1 and x != m - 1:
        x = x * a % m
        t += 1
    return t


def _prime_power_base(q: int) -> tuple[int, int]:
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac[0]


def generator_mod_pm1(q: int) -> int:
    """Smallest a >= 2 generating the cyclic group (Z/qZ)^x / {+-1}.

    Defined for odd prime powers and for 2^k with k >= 3; the group is
    trivial or non-cyclic otherwise.

    >>> generator_mod_pm1(27)
    2
    >>> generator_mod_pm1(32)
    3
    """
    if q in (1, 2, 4):
        raise ValueError(f"(Z/{q}Z)^x/+-1 has no generator convention here")
    p, k = _prime_power_base(q)
    if p == 2 and k < 3:
        raise ValueError(f"generator_mod_pm1 requires 2^k with k >= 3, got {q}")
    target = euler_phi(q) // 2
    for a in range(2, q):
        if gcd(a, q) == 1 and order_in_units_mod_pm1(a, q) == target:
            return a
    raise AssertionError(f"no generator found for q={q}")  # cyclic, cannot happen


def check_generator_mod_pm1(a: int, m: int) -> int:
    """a, if it generates (Z/mZ)^x / {+-1}; ValueError otherwise."""
    if gcd(a, m) != 1 or order_in_units_mod_pm1(a, m) != euler_phi(m) // 2:
        raise ValueError(f"{a} does not generate (Z/{m}Z)^x/+-1")
    return a


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo an odd prime power q (or q in {2, 4})."""
    if q in (2, 4):
        return q - 1
    p, _ = _prime_power_base(q)
    if p == 2:
        raise ValueError(f"(Z/{q}Z)^x is not cyclic")
    phi = euler_phi(q)
    prime_divs = [r for r, _ in factorize(phi)]
    for a in range(2, q):
        if gcd(a, q) != 1:
            continue
        if all(pow(a, phi // r, q) != 1 for r in prime_divs):
            return a
    raise AssertionError(f"no primitive root found for q={q}")
