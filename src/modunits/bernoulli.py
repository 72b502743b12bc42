"""Generalized Bernoulli numbers for the class-number pipeline.

The exact route never touches cyclotomic arithmetic: the product of
(1/4)*B_{2,chi} over all even characters mod N equals (up to sign) the
determinant of the Bernoulli matrix, whose entries are integers over 12N,
so it is computed fraction-free.  Dirichlet characters are enumerated via
CRT generators and used only as a floating-point cross-check.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import ConsistencyError
from .numtheory import (
    b2,
    crt_pair,
    divisors,
    euler_phi,
    factorize,
    inv_mod,
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
    if gcd(generator, N) != 1 or order_in_units_mod_pm1(generator, N) != n:
        raise ValueError(f"{generator} does not generate (Z/{N}Z)^x/+-1")
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


def bernoulli_matrix_det(N: int, generator: int | None = None) -> Fraction:
    """Exact determinant of the Bernoulli matrix.

    Equals the product of (1/4)*B_{2,chi} over all even characters mod N,
    up to a sign that depends on the index ordering.  The determinant of
    the integer matrix 12N * M is computed fraction-free and scaled back.
    """
    keys = _bernoulli_keys(N, generator)
    return Fraction(det_int(keys), (12 * N) ** len(keys))


def b2_chi0(N: int) -> Fraction:
    """Exact B_2 value for the principal character: N * sum B2(a/N) over (a,N)=1.

    >>> b2_chi0(13)
    Fraction(-2, 1)
    """
    if N < 3:
        raise ValueError(f"b2_chi0 requires N >= 3, got {N}")
    keys = (unit_lead_key(N, a) for a in range(1, N) if gcd(a, N) == 1)
    return Fraction(sum(keys), 6 * N)


def nonprincipal_quarter_product(N: int) -> Fraction:
    """|prod over even non-principal chi of (1/4) * B_{2,chi}|, exactly.

    Obtained as |det of the Bernoulli matrix| divided by |(1/4) * B_{2,chi0}|.
    """
    return abs(bernoulli_matrix_det(N)) / abs(Fraction(1, 4) * b2_chi0(N))


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


@dataclass(frozen=True)
class _LocalGroup:
    """Unit group mod a prime power, with fixed generators and a log table."""

    q: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    logs: dict[int, tuple[int, ...]]


@lru_cache(maxsize=None)
def _local_group(q: int) -> _LocalGroup:
    if q == 2:
        return _LocalGroup(2, (), (), {1: ()})
    if q == 4:
        return _LocalGroup(4, (3,), (2,), {1: (0,), 3: (1,)})
    p, k = factorize(q)[0]
    if p == 2:
        gens, orders = (q - 1, 3), (2, 2 ** (k - 2))
    else:
        gens, orders = (primitive_root(q),), (euler_phi(q),)
    logs: dict[int, tuple[int, ...]] = {}
    for exps in product(*(range(o) for o in orders)):
        r = 1
        for g, e in zip(gens, exps):
            r = r * pow(g, e, q) % q
        logs[r] = exps
    return _LocalGroup(q, gens, orders, logs)


@dataclass(frozen=True)
class DirichletCharacter:
    """Dirichlet character mod N via exponents on CRT generators.

    `exponents` holds, for each prime power q || N, the character's integer
    exponents on the generators of (Z/qZ)^x; values are the exact roots of
    unity exp(2*pi*i * angle) evaluated in floating point only on demand.
    """

    modulus: int
    exponents: tuple[tuple[int, ...], ...]

    def _locals(self) -> list[_LocalGroup]:
        return [_local_group(p**e) for p, e in factorize(self.modulus)]

    def angle(self, a: int) -> Fraction | None:
        """Exact phase in [0, 1) with chi(a) = e^(2*pi*i*angle), or None if gcd > 1."""
        a %= self.modulus
        if self.modulus == 1:
            return Fraction(0)
        if gcd(a, self.modulus) != 1:
            return None
        total = Fraction(0)
        for grp, exps in zip(self._locals(), self.exponents):
            logs = grp.logs[a % grp.q]
            for t, e, order in zip(logs, exps, grp.orders):
                total += Fraction(t * e, order)
        return total - (total.numerator // total.denominator)

    def __call__(self, a: int) -> complex:
        ang = self.angle(a)
        if ang is None:
            return 0j
        return cmath.exp(TWO_PI * 1j * float(ang))

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for comp in self.exponents for e in comp)

    @property
    def is_even(self) -> bool:
        return self.angle(self.modulus - 1) == 0

    @property
    def order(self) -> int:
        n = 1
        for grp, exps in zip(self._locals(), self.exponents):
            for e, o in zip(exps, grp.orders):
                d = gcd(e, o)
                sub = o // d
                n = n * sub // gcd(n, sub)
        return n


def enumerate_even_characters(N: int) -> list[DirichletCharacter]:
    """All even Dirichlet characters mod N; exactly phi(N)/2 of them.

    The principal character (all exponents zero) comes first.
    """
    if N < 3:
        raise ValueError(f"enumerate_even_characters requires N >= 3, got {N}")
    groups = [_local_group(p**e) for p, e in factorize(N)]
    component_choices = [
        list(product(*(range(o) for o in grp.orders))) for grp in groups
    ]
    out = []
    for combo in product(*component_choices):
        chi = DirichletCharacter(N, tuple(combo))
        if chi.is_even:
            out.append(chi)
    out.sort(key=lambda c: not c.is_principal)
    if len(out) != euler_phi(N) // 2:
        raise ConsistencyError(f"N={N}: {len(out)} even characters, expected {euler_phi(N) // 2}")
    return out


@lru_cache(maxsize=None)
def conductor(chi: DirichletCharacter) -> int:
    """Least f | N such that chi is induced from a character mod f."""
    N = chi.modulus
    for f in divisors(N):
        if all(
            chi.angle(a) == 0
            for a in range(1, N + 1)
            if a % f == 1 % f and gcd(a, N) == 1
        ):
            return f
    raise AssertionError("conductor search cannot fail")


def primitive_angle(chi: DirichletCharacter, a: int) -> Fraction | None:
    """Phase of the inducing character chi_f at a, for gcd(a, f) = 1.

    Lifts a to b = a (mod f) with gcd(b, N) = 1 and returns chi's phase at b.
    """
    N = chi.modulus
    f = conductor(chi)
    if f == 1:
        return Fraction(0)
    if gcd(a, f) != 1:
        return None
    b, mod = 1, 1
    for p, e in factorize(N):
        q = p**e
        r = a % q if f % p == 0 else 1
        b = crt_pair(b, mod, r, q)
        mod *= q
    return chi.angle(b)


def primitive_value(chi: DirichletCharacter, a: int) -> complex:
    ang = primitive_angle(chi, a)
    if ang is None:
        return 0j
    return cmath.exp(TWO_PI * 1j * float(ang))


def b2_chi_numeric(chi: DirichletCharacter) -> complex:
    """B_{2,chi} = N * sum chi(a) B2(a/N), evaluated in complex floats."""
    N = chi.modulus
    total = 0j
    for a in range(1, N + 1):
        if gcd(a, N) == 1:
            total += chi(a) * float(b2(Fraction(a, N)))
    return N * total


def b2_primitive_numeric(chi: DirichletCharacter) -> complex:
    """B_{2,chi_f} for the inducing character mod the conductor f."""
    f = conductor(chi)
    if f == 1:
        return complex(float(b2(0)))
    total = 0j
    for a in range(1, f + 1):
        if gcd(a, f) == 1:
            total += primitive_value(chi, a) * float(b2(Fraction(a, f)))
    return f * total
