"""Generalized Bernoulli numbers for the class-number pipeline.

The Bernoulli matrix is the group matrix f(a * b^-1) of G = (Z/NZ)^x/+-1
with f(g) = (N/2) * B2(g/N), so its determinant is the group determinant:
the product over the even characters chi mod N of (1/4) * B_{2,chi}.  The
analytic class number needs that product without the principal character.
`nonprincipal_quarter_product` takes it one Galois orbit of characters at a
time, as the norm from Q(zeta_d) of an integer polynomial C in zeta_d,
that is as the resultant Res(Phi_d, C).  `_orbit_norm` gets it from the
subresultant pseudo-remainder sequence (Cohen, GTM 138, Alg. 3.3.7) in
O(phi(d)^2) exact coefficient operations, where the phi(d) x phi(d)
determinant of multiplication by C would take O(phi(d)^3).  The whole
matrix's fraction-free determinant `bernoulli_matrix_det` stays as the
reference.

One discrete-log table serves both uses of characters: `_unit_logs(N)`
gives each unit mod N its exponent vector on fixed CRT generators, and
`_even_exponents(N)` lists the even characters on the same generators.
`_even_character_orbits` groups them into the Galois orbits of the exact
route.  `DirichletCharacter` reads the same table; it and the
floating-point B_{2,chi} are only the cross-check.  The table holds phi(N)
tuples and is cached for one level at a time: the analytic route reads it
twice per level, back to back, and a sweep meets each level once.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .errors import ConsistencyError
from .numtheory import (
    b2,
    check_generator_mod_pm1,
    crt_pair,
    divisors,
    euler_phi,
    factorize,
    inv_mod,
    moebius,
    order_in_units_mod_pm1,
    primitive_root,
    unit_lead_key,
)
from .siegel import LevelContext
from .zlinalg import det_int

TWO_PI = 2 * cmath.pi


def _bernoulli_keys(N: int, generator: int | None) -> list[list[int]]:
    """12N times `bernoulli_matrix(N, generator)`: entries unit_lead_key(N, g)."""
    if N < 5:
        raise ValueError(f"bernoulli_matrix requires N >= 5, got {N}")
    idx = LevelContext.of(N).cusps
    n = len(idx)
    if generator is None:
        invs = [inv_mod(a, N) for a in idx]
        return [[unit_lead_key(N, a * ainv) for ainv in invs] for a in idx]
    check_generator_mod_pm1(generator, N)
    powers = [pow(generator, k, N) for k in range(2 * n - 1)]
    return [[unit_lead_key(N, powers[i + j]) for j in range(n)] for i in range(n)]


def bernoulli_matrix(N: int, generator: int | None = None) -> list[list[Fraction]]:
    """Square matrix of unit orders whose determinant carries the B_{2,chi}.

    Default ordering: rows/columns indexed by the ascending coprime list
    a_1 < ... < a_n in [1, N/2], entry (i,j) = (N/2) * B2(a_i * a_j^{-1} / N).
    With a generator `a` of (Z/NZ)^x/+-1 (prime powers), the entry is
    (N/2) * B2(a^{i+j-2} / N) instead, matching the worked-example layout.
    """
    scale = 12 * N
    return [[Fraction(k, scale) for k in row] for row in _bernoulli_keys(N, generator)]


def bernoulli_matrix_det(N: int) -> Fraction:
    """Exact determinant of the Bernoulli matrix.

    Equals the product of (1/4)*B_{2,chi} over all even characters mod N,
    up to a sign that depends on the index ordering.  The determinant of
    the integer matrix 12N * M is computed fraction-free and scaled back.
    """
    keys = _bernoulli_keys(N, None)
    return Fraction(det_int(keys), (12 * N) ** len(keys))


def b2_chi0(N: int) -> Fraction:
    """Exact B_2 value for the principal character: N * sum B2(a/N) over (a,N)=1.

    >>> b2_chi0(13)
    Fraction(-2, 1)
    """
    if N < 3:
        raise ValueError(f"b2_chi0 requires N >= 3, got {N}")
    # a and N - a share a key, and for N > 2 the units mod N pair off as (a, N - a)
    # with a one of the cusps, so the sum over the units is twice the sum over the cusps
    ctx = LevelContext.of(N)
    return Fraction(sum(ctx.lead_keys[a] for a in ctx.cusps), 3 * N)


@lru_cache(maxsize=32)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first.

    Phi_d = prod over e | d of (x^(d/e) - 1)^mu(e): multiply by the factors
    with mu = +1, then divide exactly by those with mu = -1.  The 32
    polynomials used last are kept: the character orbits of one level have
    at most 23 distinct orders d for N <= 1024 (at 779).

    >>> cyclotomic(6)
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError(f"cyclotomic requires d >= 1, got {d}")
    factors = [(d // e, moebius(e)) for e in divisors(d) if moebius(e)]
    c = [1] + [0] * d
    for k, mu in factors:
        if mu == 1:  # c * (x^k - 1)
            c = [(c[i - k] if i >= k else 0) - c[i] for i in range(len(c))]
    for k, mu in factors:
        if mu == -1:  # c / (x^k - 1): c[i] = q[i-k] - q[i]
            q = [0] * len(c)
            for i in range(len(c)):
                q[i] = (q[i - k] if i >= k else 0) - c[i]
            c = q
    return tuple(c[: euler_phi(d) + 1])


def _orbit_norm(coeffs: list[int], d: int) -> int:
    """Res(Phi_d, C) for C = sum coeffs[i] x^i: the product of C(zeta) over
    the primitive d-th roots of unity zeta.

    C is reduced mod the monic Phi_d and its content g taken out, so
    Res(Phi_d, C) = g^phi(d) * Res(Phi_d, C/g).  The second factor comes
    from the subresultant pseudo-remainder sequence of Phi_d and C/g
    (Cohen, GTM 138, Alg. 3.3.7).  Pseudo-dividing a by b takes
    delta + 1 passes over at most phi(d) coefficients, delta = deg a -
    deg b, and the degrees fall from phi(d) to 0 along the sequence, so it
    takes O(phi(d)^2) exact integer operations in all; the determinant
    of multiplication by C on Z[x]/Phi_d, which the tests keep as the
    reference, takes O(phi(d)^3).  Each remainder is divided exactly by
    g * h^delta, which keeps its coefficients at the size of the
    subresultants, minors of the Sylvester matrix.  Phi_d is irreducible,
    so the norm is 0 exactly when C reduces to 0, which B_{2,chi} != 0 for
    even chi rules out.
    """
    phi = cyclotomic(d)
    m = len(phi) - 1
    row = list(coeffs)
    for i in range(len(row) - 1, m - 1, -1):
        t = row[i]
        if t:
            for j in range(m):
                row[i - m + j] -= t * phi[j]
    g = gcd(*row[:m])
    if g == 0:
        raise ConsistencyError(f"order-{d} character orbit has norm 0: C = 0 mod Phi_{d}")
    # highest coefficient first from here on
    a = list(reversed(phi))
    b = [x // g for x in reversed(row[:m])]
    b = b[next(i for i, x in enumerate(b) if x) :]
    sign, lead, h = 1, 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) & (len(b) - 1) & 1:  # Res(a, b) = (-1)^(deg a * deg b) Res(b, a)
            sign = -sign
        # the pseudo-remainder r of lead(b)^(delta+1) * a by b, one top term at a time
        lb, r = b[0], a
        for _ in range(delta + 1):
            c = r[0]
            r = [lb * x - c * y for x, y in zip(r[1:], b[1:])] + [lb * x for x in r[len(b) :]]
        nonzero = next((i for i, x in enumerate(r) if x), None)
        if nonzero is None:
            raise ConsistencyError(f"Phi_{d} shares a factor with C, but Phi_{d} is irreducible")
        den = lead * h**delta
        a, b = b, [x // den for x in r[nonzero:]]
        lead = a[0]
        h = lead**delta // h ** (delta - 1)
    k = len(a) - 1
    return sign * g**m * (b[0] ** k // h ** (k - 1))


@lru_cache(maxsize=1)
def _unit_logs(N: int) -> tuple[tuple[int, ...], int, dict[int, tuple[int, ...]]]:
    """(orders, L, logs): the discrete logs of the units mod N.

    The generators come from each q = p^e || N: a primitive root for odd q
    and for q = 4; -1 and 3 for q = 2^e >= 8; none for q = 2.  Each is lifted
    by `crt_pair` to the unit that is 1 mod N/q, and `orders` holds their
    orders.  L is their lcm, the exponent of (Z/NZ)^x.  logs[a] is the
    exponent vector of the unit a with entry i scaled by L / orders[i], so
    the character with exponent vector x has chi(a) = zeta_L^(x . logs[a]).
    """
    gens = []
    for p, e in factorize(N):
        q = p**e
        if p == 2 and e >= 3:
            local = [(q - 1, 2), (3, q // 4)]
        else:  # cyclic: primitive_root(4) = 3
            local = [(primitive_root(q), euler_phi(q))] if q > 2 else []
        gens += [(crt_pair(g, q, 1, N // q), o) for g, o in local]
    orders = tuple(o for _, o in gens)
    L = lcm(*orders)
    logs = {1: ()}
    for g, o in gens:
        step, grown = L // o, {}
        for a, t in logs.items():
            for k in range(o):
                grown[a] = t + (k * step,)
                a = a * g % N
        logs = grown
    return orders, L, logs


def _even_exponents(N: int) -> list[tuple[int, ...]]:
    """The exponent vectors of the even characters mod N, in `product`
    order, so the principal character's zero vector comes first."""
    orders, L, logs = _unit_logs(N)
    minus_one = logs[N - 1]
    vectors = product(*(range(o) for o in orders))
    return [x for x in vectors if sum(a * b for a, b in zip(x, minus_one)) % L == 0]


def _even_character_orbits(N: int) -> list[tuple[int, list[int]]]:
    """One (d, [e(a) for a in the cusps]) per Galois orbit of the even
    non-principal characters chi mod N, where chi has order d and
    chi(a) = zeta_d^e(a).

    The characters are the exponent vectors of `_even_exponents`, read
    against the discrete logs of `_unit_logs`.  The orbit
    {chi^k : gcd(k, d) = 1} has phi(d) members, all marked seen when the
    first is met.
    """
    orders, L, logs = _unit_logs(N)
    cusp_logs = [logs[a] for a in LevelContext.of(N).cusps]
    seen = set()
    out = []
    for exps in _even_exponents(N)[1:]:  # past the principal character
        if exps in seen:
            continue
        d = lcm(*(o // gcd(o, x) for o, x in zip(orders, exps)))
        seen.update(
            tuple(k * x % o for x, o in zip(exps, orders)) for k in range(1, d) if gcd(k, d) == 1
        )
        step = L // d
        out.append((d, [sum(x * t for x, t in zip(exps, u)) % L // step for u in cusp_logs]))
    return out


def nonprincipal_quarter_product(N: int) -> Fraction:
    """|prod over even non-principal chi of (1/4) * B_{2,chi}|, exactly.

    12N * (1/4) * B_{2,chi} = C(chi) = sum over the cusps a of
    unit_lead_key(N, a) * chi(a), so each Galois orbit of characters of order
    d contributes the norm of C(zeta_d) from Q(zeta_d), and the product is
    prod |norms| / (12N)^(n-1) with n the number of cusps.

    >>> nonprincipal_quarter_product(13)
    Fraction(19, 13)
    >>> nonprincipal_quarter_product(13) * yu_prefactor(13)
    Fraction(19, 1)
    """
    ctx = LevelContext.of(N)
    cusps = ctx.cusps
    keys = [ctx.lead_keys[a] for a in cusps]
    orbits = _even_character_orbits(N)
    covered = sum(euler_phi(d) for d, _ in orbits)
    if covered != len(cusps) - 1:
        raise ConsistencyError(f"N={N}: character orbits cover {covered} characters, expected {len(cusps) - 1}")
    num = 1
    for d, exps in orbits:
        coeffs = [0] * d
        for k, e in zip(keys, exps):
            coeffs[e] += k
        num *= abs(_orbit_norm(coeffs, d))
    return Fraction(num, (12 * N) ** (len(cusps) - 1))


def yu_prefactor(N: int) -> Fraction:
    """Euler-type prefactor of the class number formula.

    For each prime p with p^n || N, contributes
    p^L(p) * (1 + p^f_p)^e_p / (1 + p), where f_p is the order of p in
    (Z/(N/p^n)Z)^x/+-1 and e_p the corresponding index.  L uses the
    corrected exponent 2^(n-1) - 2n + 3 for N = 2^n >= 8.
    """
    if N < 5:
        raise ValueError(f"yu_prefactor requires N >= 5, got {N}")
    fac = factorize(N)
    omega = len(fac)
    out = Fraction(1)
    for p, n in fac:
        m = N // p**n
        if omega >= 2:
            L = euler_phi(m) * (p ** (n - 1) - 1) - 2 * n + 2
        elif p != 2:
            L = p ** (n - 1) - 2 * n + 2
        else:
            if n < 3:
                raise ValueError(f"two-power level must be >= 8, got {N}")
            L = 2 ** (n - 1) - 2 * n + 3
        f_p = order_in_units_mod_pm1(p, m)
        group_size = euler_phi(m) // 2 if m > 2 else 1
        e_p = group_size // f_p
        out *= Fraction(p) ** L * (1 + Fraction(p) ** f_p) ** e_p / (1 + p)
    return out


def _root(angle: Fraction | None) -> complex:
    """e^(2*pi*i*angle) in floating point, 0 for None."""
    if angle is None:
        return 0j
    return cmath.exp(TWO_PI * 1j * float(angle))


@dataclass(frozen=True)
class DirichletCharacter:
    """Dirichlet character mod N by its exponent vector on the generators
    of `_unit_logs(N)`; values are the exact roots of unity
    exp(2*pi*i * angle), evaluated in floating point only on demand.
    """

    modulus: int
    exponents: tuple[int, ...]

    def angle(self, a: int) -> Fraction | None:
        """Exact phase in [0, 1) with chi(a) = e^(2*pi*i*angle), or None if gcd > 1."""
        _, L, logs = _unit_logs(self.modulus)
        t = logs.get(a % self.modulus)
        if t is None:
            return None
        return Fraction(sum(x * s for x, s in zip(self.exponents, t)) % L, L)

    def __call__(self, a: int) -> complex:
        return _root(self.angle(a))


def enumerate_even_characters(N: int) -> list[DirichletCharacter]:
    """All even Dirichlet characters mod N; exactly phi(N)/2 of them.

    The principal character (all exponents zero) comes first.
    """
    if N < 3:
        raise ValueError(f"enumerate_even_characters requires N >= 3, got {N}")
    out = [DirichletCharacter(N, x) for x in _even_exponents(N)]
    if len(out) != euler_phi(N) // 2:
        raise ConsistencyError(f"N={N}: {len(out)} even characters, expected {euler_phi(N) // 2}")
    return out


@lru_cache(maxsize=1)
def conductor(chi: DirichletCharacter) -> int:
    """Least f | N such that chi is 1 on the units = 1 mod f, so that chi
    is induced from a character mod f.  Only the last character's
    conductor is kept: `b2_primitive_numeric` reads it through
    `primitive_angle` once per unit mod f, all for one character."""
    N = chi.modulus
    return next(
        f for f in divisors(N) if all(chi.angle(a) == 0 for a in range(1, N + 1, f) if gcd(a, N) == 1)
    )


def primitive_angle(chi: DirichletCharacter, a: int) -> Fraction | None:
    """Phase of the inducing character chi_f at a, for gcd(a, f) = 1.

    chi is 1 on the units = 1 mod f, so it takes one value on the units
    = a mod f: its phase at the least of them.
    """
    N = chi.modulus
    f = conductor(chi)
    if gcd(a, f) != 1:
        return None
    return chi.angle(next(b for b in range(a % f, N, f) if gcd(b, N) == 1))


def primitive_value(chi: DirichletCharacter, a: int) -> complex:
    return _root(primitive_angle(chi, a))


def _b2_sum(f: int, value) -> complex:
    """f * sum value(a) B2(a/f) over the units a mod f, in complex floats."""
    units = (a for a in range(1, f + 1) if gcd(a, f) == 1)
    return f * sum((value(a) * float(b2(Fraction(a, f))) for a in units), 0j)


def b2_chi_numeric(chi: DirichletCharacter) -> complex:
    """B_{2,chi} = N * sum chi(a) B2(a/N), evaluated in complex floats."""
    return _b2_sum(chi.modulus, chi)


def b2_primitive_numeric(chi: DirichletCharacter) -> complex:
    """B_{2,chi_f} for the inducing character mod the conductor f."""
    return _b2_sum(conductor(chi), lambda a: primitive_value(chi, a))
