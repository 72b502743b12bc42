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
section 14).  The sum runs only over the k with b_k != 0, found once per
call: b_k is 0 unless some d | k lies in the support of c, the residues
+-h mod N of the unit's indices, so many b_k vanish.
"""

from dataclasses import dataclass
from fractions import Fraction
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
    def grid(self) -> int:
        return 12 * self.level

    @property
    def lead_key(self) -> int:
        if not self.coeffs:
            raise ValueError("series has no stored terms below its truncation")
        return self.coeffs[0][0]

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def is_one(self) -> bool:
        """True when the series is 1 + O(q^trunc)."""
        return self.coeffs == ((0, 1),)

    def __str__(self) -> str:
        if not self.coeffs:
            return f"O(q^({Fraction(self.trunc_key, self.grid)}))"
        parts = []
        for k, c in self.coeffs[:6]:
            e = Fraction(k, self.grid)
            parts.append(f"{c}*q^({e})" if e else f"{c}")
        if len(self.coeffs) > 6:
            parts.append("...")
        return " + ".join(parts)


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
    so cancellation never costs precision.
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
    b = [0] * depth
    for d in range(1, depth):
        dc = d * c[d % N]
        if dc:
            for k in range(d, depth, d):
                b[k] += dc
    # step n pairs b_k with a_(n-k) for the k <= n where b_k != 0 only
    vals = [x for x in b[1:] if x]
    mask = [x != 0 for x in b[1:]]
    a = [1] if depth else []
    for n in range(1, depth):
        an, r = divmod(-sum(map(mul, vals, compress(reversed(a), mask))), n)
        if r:
            raise ConsistencyError(f"inexact division by {n} expanding {u!r}")
        a.append(an)
    # the keys ascend and stay below trunc, and each a_n is an int
    return QSeries(N, tuple((lead + grid * j, x) for j, x in enumerate(a) if x), trunc)
