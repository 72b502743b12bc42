"""Explicit generating sets of the width-one-cusp modular-unit groups.

For every level N >= 5 the construction returns exactly phi(N)/2 - 1
multiplicatively independent unit products.  One construction serves every
prime-power level (primes, odd prime powers and powers of two) and one
every composite level.
Each element is one `UnitProduct` at level N, built from the (index,
exponent) pairs of its factors: an index h at level M | N is h*d at N with
d = N/M, and the Moebius products read the CRT idempotents of M from
`LevelContext.mobius`, so no intermediate product is formed.
An element stores only its level-N unit and the scale d of the level M it
comes from; its level-M exponents, shown by the display and the
machine-readable form, are derived from that unit (h*d at N is h at M).
"""

from dataclasses import dataclass
from itertools import product
from math import gcd, prod

from .errors import ConsistencyError
from .numtheory import (
    check_generator_mod_pm1,
    divisors,
    euler_phi,
    factorize,
    inv_mod,
    generator_mod_pm1,
)
from .siegel import LevelContext, UnitProduct, normalize_index, render_product

__all__ = [
    "BasisElement",
    "basis",
    "mobius_product",
    "orbit_alternating_product",
]


@dataclass(frozen=True)
class BasisElement:
    """One generator: its unit at level N, scaled by `scale` = N/M from level M."""

    unit: UnitProduct
    scale: int

    @property
    def sublevel(self) -> int:
        return self.unit.level // self.scale

    @property
    def sub_exponents(self) -> tuple[tuple[int, int], ...]:
        return tuple((h // self.scale, e) for h, e in self.unit.items())

    @property
    def display(self) -> str:
        level = self.sublevel if self.scale > 1 else None
        return render_product(self.sub_exponents, level=level, scale=self.scale)

    def __str__(self) -> str:
        return self.display


def _resolve_generator(q: int, generator: int | None) -> int:
    return generator_mod_pm1(q) if generator is None else check_generator_mod_pm1(generator, q)


def _checked_count(N: int, out: list[BasisElement], expected: int) -> list[BasisElement]:
    if len(out) != expected:
        raise ConsistencyError(f"N={N}: {len(out)} basis elements, expected {expected}")
    return out


def _prime_power_basis(p: int, k: int, generator: int | None) -> list[BasisElement]:
    """Generators at level p^k: phi(p^k)/2 - 1 elements.

    With a the generator, b = a^-1 mod p and phi[ell] = phi(p^ell)/2
    (phi[0] = 1), let Q_i = E_{a^(i-1)} / E_{a^(i+s-1)} at level p^ell with
    shift s = phi[ell-1].  At level p^k this gives a band Q_i / Q_{i+1}^(b^2)
    and a pivot Q_top^p; then one band of scaled Q_i per lower
    level p^ell, down to ell = 1 for odd p and to ell = 3 (level 8) for
    p = 2.  b^2 is 1 at p = 2; at k = 1 there are no lower bands.
    """
    N = p**k
    a = _resolve_generator(N, generator)
    bsq = normalize_index(p, inv_mod(a, p)) ** 2
    phi = [1] + [euler_phi(p**ell) // 2 for ell in range(1, k + 1)]

    def quotient(M: int, i: int, shift: int, e: int) -> list[tuple[int, int]]:
        """E_{a^(i-1)}^e / E_{a^(i+shift-1)}^e at level M, as level-N pairs."""
        d = N // M
        return [(pow(a, i - 1, M) * d, e), (pow(a, i + shift - 1, M) * d, -e)]

    top, shift = phi[k] - phi[k - 1], phi[k - 1]
    out = [
        BasisElement(UnitProduct(N, quotient(N, i, shift, 1) + quotient(N, i + 1, shift, -bsq)), 1)
        for i in range(1, top)
    ]
    out.append(BasisElement(UnitProduct(N, quotient(N, top, shift, p)), 1))
    for ell in range(k - 1, 2 if p == 2 else 0, -1):
        M = p**ell
        shift = phi[ell - 1]
        for i in range(phi[k] - phi[ell] + 1, phi[k] - shift + 1):
            out.append(BasisElement(UnitProduct(N, quotient(M, i, shift, 1)), N // M))
    return _checked_count(N, out, phi[k] - 1)


def _mobius_pairs(ctx: LevelContext, g: int, d: int = 1, sign: int = 1) -> list[tuple[int, int]]:
    """The Moebius product F_g^sign at level M = ctx.N, as the pairs of its
    indices scaled by d (h at M is h*d at level M*d) with their exponents."""
    if gcd(g, ctx.N) != 1:
        raise ValueError(f"index {g} is not coprime to {ctx.N}")
    gd = g * d
    return [(gd * e, sign * mu) for e, mu in ctx.mobius]


def _alternating_pairs(
    ctx: LevelContext, g: int, shifts: tuple[int, ...], squared: list[int], d: int = 1
) -> list[tuple[int, int]]:
    """The orbit-alternating product at level M = ctx.N, as `_mobius_pairs`
    scaled by d; `squared` are the squared primes of M, one per shift."""
    M = ctx.N
    pairs = []
    for choice in product((0, 1), repeat=len(squared)):
        h = g + sum(n * m * (M // p) for n, m, p in zip(choice, shifts, squared))
        pairs += _mobius_pairs(ctx, h, d, -1 if sum(choice) % 2 else 1)
    return pairs


def mobius_product(M: int, g: int) -> UnitProduct:
    """Moebius-weighted product isolating the coprime index class of g.

    The product over squarefree-compatible divisors k of the unsquared part
    of M (k != M) of E_{g(k)}^mu(k), where g(k) = g * e_k is 0 mod k and
    g mod M/k (e_k from `LevelContext.mobius`).  For squarefree M this runs
    over all proper divisors.
    """
    return UnitProduct(M, _mobius_pairs(LevelContext.of(M), g))


def orbit_alternating_product(M: int, g: int, shifts: tuple[int, ...]) -> UnitProduct:
    """Inclusion-exclusion over orbit translates at the squared primes of M.

    For squared primes p_1 < ... < p_l of M and shift amounts m_i, the
    product over (n_1..n_l) in {0,1}^l of F_{g + sum n_i m_i M/p_i}^((-1)^sum n_i),
    with F the Moebius product.
    """
    ctx = LevelContext.of(M)
    squared = [p for p, e in ctx.factorization if e >= 2]
    if len(shifts) != len(squared):
        raise ValueError(f"expected {len(squared)} shifts for M={M}, got {len(shifts)}")
    return UnitProduct(M, _alternating_pairs(ctx, g, shifts, squared))


def _composite_basis(N: int) -> list[BasisElement]:
    """Generators at composite N: phi(N)/2 - 1 elements.

    Union over the divisors M of N that are multiples of the radical L of a
    level-M block, each scaled by d = N/M.  At M = L the block is the
    consecutive quotients of the Moebius products over the cusps of L;
    otherwise it is the orbit-alternating products over the g <= M/(2P)
    coprime to M and the shifts 1 <= m_i < p_i, with P the product of the
    squared primes p_i of M.
    """
    primes = [p for p, _ in factorize(N)]
    L = prod(primes)
    out = []
    for M in divisors(N):
        if M % L:
            continue
        ctx, d = LevelContext.of(M), N // M
        squared = [p for p in primes if M % (p * p) == 0]
        if not squared:  # M = L
            cusps = ctx.cusps
            out += [
                BasisElement(UnitProduct(N, _mobius_pairs(ctx, g1, d) + _mobius_pairs(ctx, g2, d, -1)), d)
                for g1, g2 in zip(cusps, cusps[1:])
            ]
            continue
        for g in range(1, M // (2 * prod(squared)) + 1):
            if gcd(g, M) != 1:
                continue
            for shifts in product(*(range(1, p) for p in squared)):
                out.append(BasisElement(UnitProduct(N, _alternating_pairs(ctx, g, shifts, squared, d)), d))
    return _checked_count(N, out, euler_phi(N) // 2 - 1)


def basis(N: int, generator: int | None = None) -> list[BasisElement]:
    """Generating set of size phi(N)/2 - 1 at any level N >= 5."""
    if N < 5:
        raise ValueError(f"level must be >= 5, got {N}")
    fac = factorize(N)
    if len(fac) == 1:
        p, k = fac[0]
        return _prime_power_basis(p, k, generator)
    if generator is not None:
        raise ValueError("generator override only applies to prime-power levels")
    return _composite_basis(N)
