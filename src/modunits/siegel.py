"""Siegel-unit products, cusp orders, and membership predicates.

Units are tracked modulo nonzero scalars throughout: a product of Siegel
units is just a sparse exponent vector over the representative indices
h = 1, ..., floor(N/2) at a fixed level N.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod

from .errors import ConsistencyError
from .numtheory import b2, crt_pair, divisors, euler_phi, factorize, moebius, unit_lead_key

__all__ = [
    "LevelContext",
    "UnitProduct",
    "CuspDivisor",
    "normalize_index",
    "order_at_cusp",
    "divisor_key_rows",
    "divisor_keys",
    "divisor",
    "is_gamma1_modular",
    "orbit",
    "orbit_condition_holds",
    "render_product",
]


def normalize_index(N: int, g: int) -> int:
    """Representative of +-g (mod N) in [1, floor(N/2)].

    >>> normalize_index(13, 15)
    2
    >>> normalize_index(13, 12)
    1
    """
    g %= N
    if g == 0:
        raise ValueError(f"index 0 is not a valid Siegel-unit index mod {N}")
    return g if 2 * g <= N else N - g


def cusp_list(N: int) -> list[int]:
    """Numerators a of the width-one cusps a/N: coprime to N, 1 <= a <= N/2."""
    return [a for a in range(1, N // 2 + 1) if gcd(a, N) == 1]


def genus_x1(N: int) -> int:
    """Genus of X_1(N) for N >= 5 (no elliptic points in this range)."""
    if N < 5:
        raise ValueError(f"genus formula implemented for N >= 5, got {N}")
    index2 = N * N
    for p, _ in factorize(N):
        index2 = index2 // (p * p) * (p * p - 1)
    cusps = sum(euler_phi(d) * euler_phi(N // d) for d in divisors(N)) // 2
    g24 = index2 - 12 * cusps + 24
    if g24 % 24:
        raise ConsistencyError(f"genus of X_1({N}) is not an integer: {g24}/24")
    return g24 // 24


@dataclass(frozen=True)
class LevelContext:
    """Level N with its factorization, cusp numerators, and the tables that
    every unit product at level N reads.  Each table is built on its first
    read, so a level that the basis only scales from builds only its
    `mobius` table.

    `lead_keys[g]` is `unit_lead_key(N, g)` for 1 <= g < N (index 0 is None),
    so the order of g_h at the cusp a/N is lead_keys[a*h % N] / (12N).
    `orbit_classes` holds one table per prime p of `factorization`, in that
    order: entry h (1 <= h <= N/2) is the least index of `orbit(N, h, p)`,
    the class of h under shifts by N/p and sign (Kubert-Lang distribution
    relations); entry 0 is unused.
    `mobius` holds the pairs (e_k, mu(k)) for the divisors k != N of the
    unsquared part of N (the product of the primes p || N), in ascending k:
    e_k is the CRT idempotent, 0 mod k and 1 mod N/k, so the index that is
    0 mod k and g mod N/k is g * e_k.
    """

    N: int
    factorization: tuple[tuple[int, int], ...]
    cusps: tuple[int, ...]

    @classmethod
    def of(cls, N: int) -> "LevelContext":
        return _level_context(N)

    @property
    def num_cusps(self) -> int:
        return len(self.cusps)

    @cached_property
    def lead_keys(self) -> tuple[int | None, ...]:
        return (None, *(unit_lead_key(self.N, g) for g in range(1, self.N)))

    @cached_property
    def orbit_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_orbit_classes(self.N, p) for p, _ in self.factorization)

    @cached_property
    def mobius(self) -> tuple[tuple[int, int], ...]:
        N, unsquared = self.N, prod(p for p, e in self.factorization if e == 1)
        return tuple((crt_pair(0, k, 1, N // k), moebius(k)) for k in divisors(unsquared) if k != N)


def _orbit_classes(N: int, p: int) -> tuple[int, ...]:
    classes = [0] * (N // 2 + 1)
    for h in range(1, N // 2 + 1):
        if not classes[h]:
            for g in orbit(N, h, p):
                classes[g] = h
    return tuple(classes)


@lru_cache(maxsize=None)
def _level_context(N: int) -> LevelContext:
    if N < 3:
        raise ValueError(f"level must be >= 3, got {N}")
    ctx = LevelContext(N=N, factorization=tuple(factorize(N)), cusps=tuple(cusp_list(N)))
    if len(ctx.cusps) != euler_phi(N) // 2:
        raise ConsistencyError(f"N={N}: {len(ctx.cusps)} cusps, expected phi(N)/2")
    return ctx


class UnitProduct:
    """Sparse exponent vector over Siegel-unit indices at a fixed level.

    Immutable value type; indices are always normalized and zero exponents
    are dropped, so two equal products compare equal.
    """

    __slots__ = ("level", "_exps")

    def __init__(self, level: int, exponents=None):
        if level < 2:
            raise ValueError(f"level must be >= 2, got {level}")
        self.level = level
        exps: dict[int, int] = {}
        if exponents:
            items = exponents.items() if hasattr(exponents, "items") else exponents
            for g, e in items:
                h = normalize_index(level, g)
                exps[h] = exps.get(h, 0) + int(e)
        self._exps = {h: e for h, e in sorted(exps.items()) if e}

    @property
    def exponents(self) -> dict[int, int]:
        return dict(self._exps)

    def items(self):
        return self._exps.items()

    def __bool__(self) -> bool:
        return bool(self._exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnitProduct)
            and self.level == other.level
            and self._exps == other._exps
        )

    def __hash__(self) -> int:
        return hash((self.level, tuple(self._exps.items())))

    def __mul__(self, other: "UnitProduct") -> "UnitProduct":
        if self.level != other.level:
            raise ValueError("cannot multiply products of different levels")
        return UnitProduct(self.level, [*self._exps.items(), *other._exps.items()])

    def __pow__(self, e: int) -> "UnitProduct":
        return UnitProduct(self.level, {h: k * e for h, k in self._exps.items()})

    def __truediv__(self, other: "UnitProduct") -> "UnitProduct":
        if self.level != other.level:
            raise ValueError("cannot divide products of different levels")
        return UnitProduct(self.level, [*self._exps.items(), *((h, -e) for h, e in other._exps.items())])

    def __repr__(self) -> str:
        return f"UnitProduct({self.level}, {self._exps})"

    def __str__(self) -> str:
        return render_product(self._exps)


@dataclass(frozen=True)
class CuspDivisor:
    """Exact orders at the width-one cusps, in LevelContext (ascending) order."""

    level: int
    orders: tuple[Fraction, ...]

    @property
    def degree(self) -> Fraction:
        return sum(self.orders, Fraction(0))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.orders)


def order_at_cusp(N: int, g: int, a: int, c: int | None = None) -> Fraction:
    """Order of the unit with index g at the cusp a/c of X_1(N).

    Defaults to the width-one cusps c = N, where the order is
    (N/2) * B2(a*g/N).

    >>> order_at_cusp(13, 1, 1)
    Fraction(97, 156)
    """
    if g % N == 0:
        raise ValueError(f"index 0 is not a valid Siegel-unit index mod {N}")
    if c is None:
        c = N
    if gcd(a, c) != 1:
        raise ValueError(f"cusp {a}/{c} is not in lowest terms")
    w = gcd(c, N)
    return Fraction(w, 2) * b2(Fraction(a * g, w))


def divisor_key_rows(units) -> list[tuple[int, ...]]:
    """`divisor_keys` of each unit product in `units`, all of one level.

    The key row of an index h, (lead_keys[a*h % N] for each cusp a), is
    built once per call and shared by every product that uses h; a unit's
    keys are the sum of e * row over its exponents.

    >>> divisor_key_rows([UnitProduct(13, {1: 1}), UnitProduct(13, {1: 2, 2: -1})])
    [(97, 37, -11, -47, -71, -83), (157, 121, 61, -23, -131, -263)]
    """
    units = list(units)
    if not units:
        return []
    N = units[0].level
    ctx = LevelContext.of(N)
    lead, cusps = ctx.lead_keys, ctx.cusps
    rows: dict[int, list[int]] = {}
    out = []
    for u in units:
        if u.level != N:
            raise ValueError(f"divisor rows need one level, got {N} and {u.level}")
        terms = []
        for h, e in u.items():
            row = rows.get(h)
            if row is None:
                row = rows[h] = [lead[a * h % N] for a in cusps]
            terms.append([e * k for k in row])
        out.append(tuple(map(sum, zip(*terms))) if terms else (0,) * len(cusps))
    return out


def divisor_keys(u: UnitProduct) -> tuple[int, ...]:
    """The integers 12N * ord_{a/N}(u) = sum_h e_h * unit_lead_key(N, a*h), one
    per width-one cusp a/N in ascending order.

    >>> divisor_keys(UnitProduct(13, {1: 1}))
    (97, 37, -11, -47, -71, -83)
    """
    return divisor_key_rows([u])[0]


def divisor(u: UnitProduct) -> CuspDivisor:
    """Divisor of a unit product on the width-one cusps (exact orders)."""
    N = u.level
    return CuspDivisor(N, tuple(Fraction(k, 12 * N) for k in divisor_keys(u)))


def is_gamma1_modular(u: UnitProduct) -> bool:
    """Congruence test for modularity of the product on Gamma_1(N).

    Uses the stored representatives h as exponents' indices.  For odd N the
    parity conditions are dropped and the quadratic condition is mod N.
    """
    N = u.level
    s0 = sum(u._exps.values())
    if s0 % 12:
        return False
    s2 = sum(h * h * e for h, e in u.items())
    if N % 2:
        return s2 % N == 0
    s1 = sum(h * e for h, e in u.items())
    return s1 % 2 == 0 and s2 % (2 * N) == 0


def orbit(N: int, a: int, K: int) -> frozenset[int]:
    """Orbit of a under shifts by N/K, as normalized indices mod +-1.

    Members that land on the zero class are dropped (they are not valid
    unit indices).

    >>> sorted(orbit(21, 1, 3))
    [1, 6, 8]
    """
    if K < 1 or N % K:
        raise ValueError(f"K must divide N, got K={K}, N={N}")
    step = N // K
    out = set()
    for k in range(K):
        g = (a + k * step) % N
        if g:
            out.add(normalize_index(N, g))
    return frozenset(out)


def orbit_condition_holds(u: UnitProduct) -> bool:
    """Orbit-sum test for divisor support on the width-one cusps.

    For every prime p | N and every index class a, the exponents summed
    over the orbit {a + k*N/p} must vanish.  Defined for composite N only;
    for a prime power the test is still meaningful but advisory (orders
    can stay fractional).  The orbits are the level's `orbit_classes`.
    """
    N = u.level
    ctx = LevelContext.of(N)
    if ctx.factorization == ((N, 1),):
        raise ValueError("orbit condition is undefined for prime level")
    for classes in ctx.orbit_classes:
        sums: dict[int, int] = {}
        for h, e in u.items():
            c = classes[h]
            sums[c] = sums.get(c, 0) + e
        if any(sums.values()):
            return False
    return True


def _factor_str(h: int, e: int, level: int | None, scale: int) -> str:
    s = f"E{h}"
    if level is not None:
        s += f"^({level})"
    if scale != 1:
        s += f"({scale}t)"
    if abs(e) != 1:
        s += f"^{abs(e)}"
    return s


def render_product(exponents, level: int | None = None, scale: int = 1) -> str:
    """Render an exponent map in E-notation, e.g. "E1*E3^4/(E6^5)".

    When `level`/`scale` are given the factors carry the sub-level and
    argument markers, e.g. "E1^(12)(3t)/(E5^(12)(3t))".
    """
    items = sorted(exponents.items() if hasattr(exponents, "items") else exponents)
    num = [_factor_str(h, e, level, scale) for h, e in items if e > 0]
    den = [_factor_str(h, e, level, scale) for h, e in items if e < 0]
    if not num and not den:
        return "1"
    head = "*".join(num) if num else "1"
    if den:
        return head + "/(" + "*".join(den) + ")"
    return head
