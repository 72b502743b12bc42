"""Divisor matrices, class numbers by two independent routes, and group
structure of the cuspidal divisor class groups.

The lattice route computes the index of the basis-divisor sublattice; the
analytic route multiplies the Euler-type prefactor by the product of the
(1/4) * B_{2,chi} over the even non-principal characters, taken as exact
cyclotomic norms.  Their exact agreement for every level is the system's
primary self-check.
"""

import random
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd
from numbers import Rational
from operator import mul

from .basis import BasisElement, basis
from .bernoulli import nonprincipal_quarter_product, yu_prefactor
from .errors import ConsistencyError
from .numtheory import is_prime
from .siegel import LevelContext, divisor_key_rows, is_gamma1_modular, orbit_condition_holds
from .zlinalg import det_solve, smith_invariants_local, smith_transforms_local

__all__ = [
    "ConsistencyError",
    "DegenerateRankError",
    "GroupStructure",
    "ClassGroupReport",
    "divisor_matrix",
    "class_number_lattice",
    "class_number_yu",
    "structure",
    "analyze",
    "p_primary",
    "primary_notation",
    "generators",
    "class_coordinates",
    "is_principal",
    "conjecture_report",
    "ConjectureReport",
    "IRREGULAR_PRIMES",
]


class DegenerateRankError(RuntimeError):
    """Basis divisors are linearly dependent; the construction is broken."""


@dataclass(frozen=True)
class GroupStructure:
    """Finite abelian group as an ascending divisibility chain (entries >= 2)."""

    invariants: tuple[int, ...]

    def __post_init__(self):
        for d, e in zip(self.invariants, self.invariants[1:]):
            if e % d:
                raise ValueError(f"invariants {self.invariants} violate divisibility")
        if any(d < 2 for d in self.invariants):
            raise ValueError("invariants must all be >= 2")

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def __str__(self) -> str:
        return "[" + ", ".join(str(d) for d in self.invariants) + "]"


@dataclass(frozen=True)
class ClassGroupReport:
    """Everything computed for one level, with per-stage timings."""

    N: int
    h_lattice: int
    h_yu: int
    structure: GroupStructure
    basis: tuple[BasisElement, ...]
    # the divisor rows and the elimination state are derived from the
    # basis, so they stay out of the repr, the equality and the hash; the
    # timings differ from run to run, so they stay out of the last two
    matrix: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    timings: tuple[tuple[str, float], ...] = field(compare=False)
    #: (det A, adj(A)*b) of the partial-sum matrix A, rows in basis order,
    #: and b = `_solve_column`; `_analyze` passes `det_solve` the rows in
    #: another order and multiplies its det and y by the sign of that order
    solve: tuple[int, tuple[int, ...]] = field(repr=False, compare=False)
    #: (block, pivot rows, column order) from that `det_solve`, which the
    #: tracked local step reads; kept only when the step has moduli
    #: (gcd(h, y) > 1), else empty
    kept: tuple = field(repr=False, compare=False)

    @property
    def class_number(self) -> int:
        return self.h_lattice

    @property
    def generators(self) -> list[tuple[list[int], int]]:
        """Generator divisors with orders, computed on first access."""
        diag, _, G = self._quotient
        return [(_coords_to_divisor(g), d) for g, d in zip(G, diag)]

    @cached_property
    def _quotient(self):
        """(invariants d_j, functionals F, generator rows G): x -> x.F[j] mod d_j
        are the coordinates of the class of a partial-sum row x, and G[i] is a
        row of the class with coordinates e_i."""
        coords = _partial_sum_coords(self.matrix)
        if not coords:
            return (), (), ()
        block, rows, cols = self.kept
        diag, F, G = smith_transforms_local(block, *self.solve, rows, cols)
        if tuple(diag) != self.structure.invariants:
            raise ConsistencyError(f"N={self.N}: the tracked local Smith elimination disagrees with the structure")
        d = _nonzero_on_a_row(coords, F, diag)
        if d is not None:
            raise ConsistencyError(f"N={self.N}: a class coordinate mod {d} is nonzero on a relation")
        for i, g in enumerate(G):
            for j, (d, f) in enumerate(zip(diag, F)):
                if (sum(map(mul, g, f)) - (i == j)) % d:
                    raise ConsistencyError(f"N={self.N}: generator {i} does not have coordinates e_{i}")
        return tuple(diag), tuple(tuple(f) for f in F), tuple(tuple(g) for g in G)


def _nonzero_on_a_row(rows, F, moduli) -> int | None:
    """A modulus d_j = moduli[j] with row.F[j] != 0 mod d_j for some row,
    else None.

    One dot product per row gives every row.F[j] (Kronecker substitution):
    F[j] fills a slot of w_j bits in one integer per column, and w_j holds
    |row.F[j]| <= (largest sum of |row|) * max |F[j]| with a sign bit.
    """
    span = max(sum(map(abs, row)) for row in rows)
    widths = [(span * max(map(abs, f))).bit_length() + 1 for f in F]
    packed = [0] * len(rows[0])
    shift = 0
    for w, f in zip(widths, F):
        packed = [p + (x << shift) for p, x in zip(packed, f)]
        shift += w
    for row in rows:
        acc = sum(map(mul, row, packed))
        for w, d in zip(widths, moduli):
            x = acc & ((1 << w) - 1)  # the low slot in two's complement
            if x >> (w - 1):
                x -= 1 << w
            if x % d:
                return d
            acc = (acc - x) >> w
    return None


def _divisor_rows(N: int, elements: tuple[BasisElement, ...]) -> list[list[int]]:
    composite = not is_prime(N)
    rows = []
    for el, keys in zip(elements, divisor_key_rows([el.unit for el in elements])):
        if not is_gamma1_modular(el.unit):
            raise ConsistencyError(f"{el.display} fails the modularity congruences at N={N}")
        if composite and not orbit_condition_holds(el.unit):
            raise ConsistencyError(f"{el.display} violates the orbit condition at N={N}")
        if any(k % (12 * N) for k in keys):
            raise ConsistencyError(f"{el.display} has a non-integral divisor at N={N}")
        if sum(keys):
            raise ConsistencyError(f"{el.display} has divisor of nonzero degree at N={N}")
        rows.append([k // (12 * N) for k in keys])
    return rows


def divisor_matrix(N: int, generator: int | None = None) -> list[list[int]]:
    """(phi/2 - 1) x (phi/2) integer matrix of basis divisors, ascending cusps."""
    return _divisor_rows(N, tuple(basis(N, generator)))


def class_number_lattice(N: int, generator: int | None = None) -> int:
    """Index of the basis-divisor sublattice in the degree-0 cusp lattice."""
    return analyze(N, generator).h_lattice


@lru_cache(maxsize=None)
def class_number_yu(N: int) -> int:
    """Class number by the analytic formula, exactly: Yu's prefactor times
    the product of (1/4) * B_{2,chi} over the even non-principal characters,
    one integer norm per Galois orbit of characters."""
    if N < 5:
        raise ValueError(f"class number requires N >= 5, got {N}")
    h = yu_prefactor(N) * nonprincipal_quarter_product(N)
    if h.denominator != 1 or h <= 0:
        raise ConsistencyError(f"analytic class number for N={N} is not a positive integer: {h}")
    return int(h)


def analyze(N: int, generator: int | None = None) -> ClassGroupReport:
    """Full pipeline for one level, cross-checking every route.

    Cached per (N, generator) however the generator is passed, so
    `analyze(N)` and `analyze(N, None)` share one entry.
    """
    return _analyze(N, generator)


def _is_odd(perm: list[int]) -> bool:
    """Whether a permutation of range(n) is odd: n less its cycle count."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        j, cycles = start, cycles + (not seen[start])
        while not seen[j]:
            seen[j], j = True, perm[j]
    return (len(perm) - cycles) % 2 == 1


def _solve_column(n: int) -> list[int]:
    # a fixed seed makes every run of a level take the same path; an unlucky
    # column only sends more primes to the local step, never a wrong answer
    rng = random.Random(n)
    return [rng.randrange(-(1 << 15), 1 << 15) for _ in range(n)]


@lru_cache(maxsize=None)
def _analyze(N: int, generator: int | None) -> ClassGroupReport:
    if N < 5:
        raise ValueError(f"analyze requires N >= 5, got {N}")
    timings = []
    t0 = time.perf_counter()
    elements = tuple(basis(N, generator))
    timings.append(("basis", time.perf_counter() - t0))

    t0 = time.perf_counter()
    rows = _divisor_rows(N, elements)
    timings.append(("divisors", time.perf_counter() - t0))

    t0 = time.perf_counter()
    h_yu = class_number_yu(N)
    timings.append(("analytic", time.perf_counter() - t0))

    # the partial-sum coordinates of the rows form a square matrix whose
    # |det| is the lattice index; the same elimination solves one system,
    # and with pivots coprime to h it keeps the trailing block that holds
    # the Smith form at every prime of h.  h only steers the pivots: det
    # and y are exact whatever they are, and the block is read only once
    # the two routes agree.  The level-N band Q_i / Q_(i+1)^(b^2) is taken
    # from its pivot end Q_top^p: there the first k rows are a triangular
    # change, of determinant p, of D_top, ..., D_(top-k+1) (D_i the divisor
    # of Q_i), so each leading minor is p times a minor of those D_i.  In
    # basis order the minors carry powers of b^2 that cancel only at the
    # last step, and the Bareiss pivots outgrow h
    t0 = time.perf_counter()
    coords = _partial_sum_coords(rows)
    order = [i for i, el in enumerate(elements) if el.scale == 1][::-1]
    order += [i for i, el in enumerate(elements) if el.scale != 1]
    b = _solve_column(len(coords))
    det, y, block, pivot_rows, cols = det_solve([coords[i] for i in order], [b[i] for i in order], h_yu) if coords else (1, [], [], [], [])
    if _is_odd(order) and det:
        det, y = -det, [-x for x in y]  # (det A, adj(A)*b) of the basis-order A
    timings.append(("det_solve", time.perf_counter() - t0))
    h_lat = abs(det)
    if h_lat == 0:
        raise DegenerateRankError(f"basis divisors at N={N} are linearly dependent")
    if h_lat != h_yu:
        raise ConsistencyError(f"N={N}: lattice index {h_lat} != analytic class number {h_yu}")

    t0 = time.perf_counter()
    invariants = smith_invariants_local(block, det, y)
    timings.append(("local_smith", time.perf_counter() - t0))
    st = GroupStructure(tuple(invariants))
    if st.order != h_yu:
        raise ConsistencyError(f"N={N}: group order {st.order} != class number {h_yu}")

    return ClassGroupReport(
        N=N,
        h_lattice=h_lat,
        h_yu=h_yu,
        structure=st,
        basis=elements,
        matrix=tuple(tuple(r) for r in rows),
        timings=tuple(timings),
        solve=(det, tuple(y)),
        kept=(block, pivot_rows, cols) if gcd(h_yu, *y) > 1 else ((), (), ()),
    )


def structure(N: int) -> GroupStructure:
    """Elementary divisor chain of the cuspidal divisor class group."""
    return analyze(N).structure


def p_primary(N: int, p: int) -> dict[int, int]:
    """Multiset {exponent e: multiplicity} of the p-power parts p^e > 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out: dict[int, int] = {}
    for d in structure(N).invariants:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            out[e] = out.get(e, 0) + 1
    return dict(sorted(out.items()))


def primary_notation(parts: dict[int, int], p: int) -> str:
    """Render a p-primary multiset like (2)(2^2)^3(2^3); (1) when empty."""
    if not parts:
        return "(1)"
    out = []
    for e, mult in sorted(parts.items()):
        base = f"({p})" if e == 1 else f"({p}^{e})"
        out.append(base + (f"^{mult}" if mult > 1 else ""))
    return "".join(out)


def _partial_sum_coords(rows: list[list[int]]) -> list[list[int]]:
    """Coordinates of degree-0 rows in the difference-vector basis."""
    return [list(accumulate(row[:-1])) for row in rows]


def _coords_to_divisor(coords: list[int]) -> list[int]:
    div = []
    prev = 0
    for x in coords:
        div.append(x - prev)
        prev = x
    div.append(-prev)
    return div


def generators(N: int) -> list[tuple[list[int], int]]:
    """Degree-0 divisors generating the class group, with their orders.

    Returns one (divisor, order) pair per invariant, divisors in
    ascending-cusp coordinates.  Coefficients are differences of balanced
    residues mod the exponent d_max (the largest invariant), so none exceeds
    d_max <= h in absolute value.
    """
    return analyze(N).generators


def class_coordinates(N: int, div: list[int]) -> list[tuple[int, int]]:
    """Coordinates of a degree-0 divisor in the class group: (residue, modulus) pairs."""
    n = LevelContext.of(N).num_cusps
    if len(div) != n:
        raise ValueError(f"divisor must have {n} entries, got {len(div)}")
    # Fractions of denominator 1 pass, as `divisor(u).orders` returns them
    bad = [x for x in div if not (isinstance(x, Rational) and x.denominator == 1)]
    if bad:
        raise ValueError(f"divisor entries must be integers, got {bad[0]!r}")
    if sum(div) != 0:
        raise ValueError("divisor must have degree 0")
    diag, F, _ = analyze(N)._quotient
    coords = _partial_sum_coords([[int(x) for x in div]])[0]
    return [(sum(map(mul, coords, f)) % d, d) for d, f in zip(diag, F)]


def is_principal(N: int, div: list[int]) -> bool:
    """Whether a degree-0 divisor on the width-one cusps is a unit divisor."""
    return all(r == 0 for r, _ in class_coordinates(N, div))


#: irregular primes below 800
IRREGULAR_PRIMES = frozenset(
    {37, 59, 67, 101, 103, 131, 149, 157, 233, 257, 263, 271, 283, 293,
     307, 311, 347, 353, 379, 389, 401, 409, 421, 433, 461, 463, 467, 491,
     523, 541, 547, 557, 577, 587, 593, 607, 613, 617, 619, 631, 647, 653,
     659, 673, 677, 683, 691, 727, 751, 757, 761, 773, 797}
)


def predicted_p_rank(p: int, n: int) -> int:
    return (p - 1) * p ** (n - 2) // 2 - 1


def predicted_multiplicity(p: int, n: int, j: int) -> int:
    """Predicted number of Z/p^j factors in the p-primary part at level p^n."""
    if j % 2 == 0:
        k = j // 2
        if (p == 2 and k <= n - 3) or (p >= 3 and k <= n - 2):
            return (p - 1) ** 2 * p ** (n - k - 2) // 2 - 1
        if p >= 5 and k == n - 1:
            return (p - 5) // 2
        return 0
    k = (j + 1) // 2
    if p == 2 and k <= n - 3:
        return 1
    if p == 3 and k <= n - 2:
        return 1
    if p >= 5 and k <= n - 1:
        return 1
    return 0


@dataclass(frozen=True)
class ConjectureReport:
    """Predicted vs computed p-primary shape; reports agreement, never asserts."""

    p: int
    n: int
    regular: bool
    predicted_rank: int
    computed_rank: int
    rows: tuple[tuple[int, int, int], ...]  # (exponent j, predicted, computed)

    @property
    def rank_agrees(self) -> bool:
        return self.predicted_rank == self.computed_rank

    @property
    def multiplicities_agree(self) -> bool:
        return all(pred == comp for _, pred, comp in self.rows)

    @property
    def agrees(self) -> bool:
        return self.rank_agrees and self.multiplicities_agree


def conjecture_report(p: int, n: int) -> ConjectureReport:
    """Compare the predicted p-primary decomposition at level p^n with the
    computed one."""
    if n < 2 or p**n < 8:
        raise ValueError(f"report requires p^n >= 8 with n >= 2, got p={p}, n={n}")
    parts = p_primary(p**n, p)
    computed_rank = sum(parts.values())
    max_j = max(parts.keys(), default=0)
    rows = []
    j = 1
    while True:
        pred = predicted_multiplicity(p, n, j)
        comp = parts.get(j, 0)
        if j > max_j and pred == 0 and j > 2 * n:
            break
        rows.append((j, pred, comp))
        j += 1
    return ConjectureReport(
        p=p,
        n=n,
        regular=p not in IRREGULAR_PRIMES,
        predicted_rank=predicted_p_rank(p, n),
        computed_rank=computed_rank,
        rows=tuple(rows),
    )
