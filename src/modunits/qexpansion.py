"""Truncated q-expansions of Siegel units on the exact 1/(12N) grid.

A series is a sparse map from integer keys k to integer coefficients,
where k encodes the exponent k/(12*level).  The leading exponent of a
single unit times 12N is 6g^2 - 6gN + N^2, always an integer, so the grid
is exact and no floating point appears anywhere.  Each series carries a
validity bound `trunc_key`: coefficients are exact (and stored) only for
keys strictly below it.

A unit product u = prod_h g_h^(e_h) is q^lead * prod_{m>=1} (1 - q^m)^(c_m)
with periodic exponents c_m = sum_h e_h ([m = h] + [m = -h] mod N); at
h = N/2 both terms count.  Its coefficients come from one integer
recurrence, the logarithmic derivative (Euler transform) of the product:

    b_k = sum_{d | k} d c_d,        n a_n = -sum_{k=1..n} b_k a_{n-k},

where every division is exact (Apostol, Intro. to Analytic Number Theory
section 14).  Regrouping the sum by the divisor d of k gives

    sum_k b_k a_{n-k} = sum_d d c_d S_d(n),   S_d(n) = sum_{j>=1} a_{n-jd},

over the support of c, the residues +-h mod N of the unit's indices.
With D the number of q-powers needed (the depth), the support elements
d are taken in ascending order, and d keeps S_d as running sums, one per
residue class mod d, when 5 * d <= D (11 * d <= D for the first ring)
and the rings' total size (the sum of their d) stays at most D.  Step n
first adds a_(n-1) to the class of n - 1 mod d, then reads the class of
n.  Every other d still adds d c_d to b_k at its multiples k, and the
sum runs only over the k with b_k != 0.  The rule has no option: the
factors 5 and 11 and the budget D are fixed.  Every d is counted once,
on one side, so each step sums to the same integer as the full
recurrence, divides it by the same n and still raises on a remainder.

The factors are cost ratios.  The multiples of d put up to D / d
nonzero b_k into the sum, about D^2 / (2d) products over all steps,
while a ring costs one interpreted step at each of the D - 1 steps,
and one ring step costs about 2.5 products.  So the ring is cheaper
when 5 d (D - 1) <= D^2, which 5 * d <= D ensures.  The first ring also
gives the ring loop work, which costs about 3 products at every step
whatever the rings hold, so it pays when 2 (2.5 + 3) d <= D, that is
11 * d <= D.  There is one loop over the steps; when no d has
11 * d <= D, the rings stay empty and the ring loop in each step does
nothing.  The budget bounds the memory: the rings hold at most D
integers, no more than the series.
"""

from dataclasses import dataclass
from itertools import compress
from operator import mul

from .errors import ConsistencyError
from .numtheory import unit_lead_key
from .siegel import UnitProduct

__all__ = [
    "QSeries",
    "expand_unit",
    "expand_product",
    "series_mul",
    "to_level",
    "series_equal",
    "unit_lead_key",
]


def _integer(c) -> int:
    n = int(c)
    if n != c:
        raise ValueError(f"q-series coefficient {c} is not an integer")
    return n


@dataclass(frozen=True)
class QSeries:
    level: int
    coeffs: tuple[tuple[int, int], ...]  # sorted (key, coefficient) pairs
    trunc_key: int

    @staticmethod
    def make(level: int, coeffs, trunc_key: int) -> "QSeries":
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        kept = sorted((int(k), _integer(c)) for k, c in items if c and k < trunc_key)
        return QSeries(level, tuple(kept), trunc_key)

    @property
    def lead_key(self) -> int:
        if not self.coeffs:
            raise ValueError("series has no stored terms below its truncation")
        return self.coeffs[0][0]


def expand_unit(N: int, g: int, T: int = 8) -> QSeries:
    """Expansion of a single Siegel unit, exact below exponent T.

    Leading coefficient is 1 (constants are normalized away).
    """
    if T < 1:
        raise ValueError(f"truncation must be >= 1, got {T}")
    return expand_product(UnitProduct(N, {g: 1}), T)


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated product; validity is propagated exactly."""
    if a.level != b.level:
        raise ValueError("cannot multiply series of different levels")
    trunc = min(a.trunc_key + b.lead_key, b.trunc_key + a.lead_key)
    out: dict[int, int] = {}
    for i, x in a.coeffs:
        for j, y in b.coeffs:
            k = i + j
            if k < trunc:
                out[k] = out.get(k, 0) + x * y
    return QSeries.make(a.level, out, trunc)


def to_level(a: QSeries, level: int) -> QSeries:
    """Reinterpret the same function on the finer 1/(12*level) grid."""
    if level % a.level:
        raise ValueError(f"{level} is not a multiple of level {a.level}")
    r = level // a.level
    return QSeries(level, tuple((k * r, c) for k, c in a.coeffs), a.trunc_key * r)


def series_equal(a: QSeries, b: QSeries) -> bool:
    """Equality of all coefficients below the common validity bound."""
    if a.level != b.level:
        raise ValueError("cannot compare series of different levels")
    bound = min(a.trunc_key, b.trunc_key)
    da = {k: c for k, c in a.coeffs if k < bound}
    db = {k: c for k, c in b.coeffs if k < bound}
    return da == db


def expand_product(u: UnitProduct, T: int = 8) -> QSeries:
    """Expansion of a unit product, exact below exponent T.

    The depth in integral q-powers follows from the total leading exponent,
    so cancellation never costs precision.  The support elements d of the
    exponents c enter through running sums, in ascending order, while
    5 * d <= depth (11 * d <= depth for the first) and the rings' sizes d
    sum to at most depth; every other d enters through b (see the module
    docstring).
    """
    N = u.level
    grid = 12 * N
    trunc = T * grid
    lead = sum(e * unit_lead_key(N, h) for h, e in u.items())
    depth = max(0, -((lead - trunc) // grid))  # integral q-powers needed
    c = [0] * N  # c[m % N] is the exponent of (1 - q^m)
    for h, e in u.items():
        c[h % N] += e
        c[-h % N] += e
    rings = []  # (d, d c_d, the running sums S_d by residue class mod d)
    slots = 0  # integers the rings hold, at most depth
    b = [0] * depth
    for d in range(1, depth):
        dc = d * c[d % N]
        if not dc:
            continue
        if (5 if rings else 11) * d <= depth and slots + d <= depth:
            rings.append((d, dc, [0] * d))
            slots += d
        else:
            for k in range(d, depth, d):
                b[k] += dc
    # step n pairs b_k with a_(n-k) for the k <= n where b_k != 0 only
    vals = [x for x in b[1:] if x]
    mask = [x != 0 for x in b[1:]]
    a = [1] if depth else []
    an = 1  # a_0, which step 1 adds to class 0
    for n in range(1, depth):
        s = sum(map(mul, vals, compress(reversed(a), mask)))
        for d, dc, ring in rings:  # add a_(n-1) to its class, read S_d(n)
            ring[(n - 1) % d] += an
            s += dc * ring[n % d]
        an, r = divmod(-s, n)
        if r:
            raise ConsistencyError(f"inexact division by {n} expanding {u!r}")
        a.append(an)
    # the keys ascend and stay below trunc, and each a_n is an int
    return QSeries(N, tuple((lead + grid * j, x) for j, x in enumerate(a) if x), trunc)
