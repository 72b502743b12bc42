"""Truncated q-expansions of Siegel units on the exact 1/(12N) grid.

A series is a sparse map from integer keys k to rational coefficients,
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
section 14).  Integer powers of a series, negative ones included, come from
J.C.P. Miller's power recurrence over the rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import ConsistencyError
from .numtheory import unit_lead_key
from .siegel import UnitProduct

__all__ = [
    "QSeries",
    "expand_unit",
    "expand_product",
    "series_mul",
    "series_pow",
    "rescale",
    "to_level",
    "series_equal",
    "unit_lead_key",
]


@dataclass(frozen=True)
class QSeries:
    level: int
    coeffs: tuple[tuple[int, Fraction], ...]  # sorted (key, coefficient) pairs
    trunc_key: int

    @staticmethod
    def make(level: int, coeffs, trunc_key: int) -> "QSeries":
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        kept = sorted((int(k), Fraction(c)) for k, c in items if c and k < trunc_key)
        return QSeries(level, tuple(kept), trunc_key)

    @property
    def grid(self) -> int:
        return 12 * self.level

    @property
    def lead_key(self) -> int:
        if not self.coeffs:
            raise ValueError("series has no stored terms below its truncation")
        return self.coeffs[0][0]

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def is_one(self) -> bool:
        """True when the series is 1 + O(q^trunc)."""
        return self.coeffs == ((0, Fraction(1)),)

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
    out: dict[int, Fraction] = {}
    for i, x in a.coeffs:
        for j, y in b.coeffs:
            k = i + j
            if k < trunc:
                out[k] = out.get(k, Fraction(0)) + x * y
    return QSeries.make(a.level, out, trunc)


def series_pow(a: QSeries, e: int) -> QSeries:
    """Integer power by Miller's recurrence, negative exponents included.

    Writing a = q^lead * sum_j c_j x^j, where x = q^step and step is the
    gcd of the key offsets, the power is q^(e*lead) * sum_n p_n x^n with
    p_0 = c_0^e and n c_0 p_n = sum_{k=1..n} ((e+1)k - n) c_k p_{n-k}.
    """
    lead = a.lead_key
    step = gcd(*(k - lead for k, _ in a.coeffs)) or a.grid
    c0 = a.coeffs[0][1]
    tail = [((k - lead) // step, c) for k, c in a.coeffs[1:]]
    depth = -((lead - a.trunc_key) // step)  # ceil((trunc_key - lead) / step)
    out = [c0**e]
    for n in range(1, depth):
        acc = 0
        for k, c in tail:
            if k > n:
                break
            acc += ((e + 1) * k - n) * c * out[n - k]
        out.append(acc / (n * c0))
    trunc = a.trunc_key + (e - 1) * lead
    return QSeries.make(a.level, {e * lead + step * j: c for j, c in enumerate(out)}, trunc)


def rescale(a: QSeries, d: int) -> QSeries:
    """Substitute tau -> d*tau: level becomes d*level, keys scale by d^2."""
    if d < 1:
        raise ValueError(f"scale must be >= 1, got {d}")
    if d == 1:
        return a
    return QSeries(
        a.level * d,
        tuple((k * d * d, c) for k, c in a.coeffs),
        a.trunc_key * d * d,
    )


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
    a = [1] if depth else []
    for n in range(1, depth):
        an, r = divmod(-sum(map(mul, b[1 : n + 1], reversed(a))), n)
        if r:
            raise ConsistencyError(f"inexact division by {n} expanding {u!r}")
        a.append(an)
    return QSeries.make(N, {lead + grid * j: x for j, x in enumerate(a)}, trunc)
