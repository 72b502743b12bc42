"""Exact linear algebra over ZZ and QQ.

Dense row-major matrices are plain lists of lists.  Determinants use
fraction-free (Bareiss) elimination; `det_solve` runs the same elimination
on the matrix extended by one column b and also returns adj(m)*b.  The
class-group pipeline finds Smith invariants from that solve
(`smith_invariants_local`): the denominator s of m^{-1} b divides the
largest invariant, every prime of |det| that misses |det|/s has a cyclic
part, and each prime of |det|/s gets its exponents from an elimination over
Z/p^K (`local_smith_exponents`).  When |det|/s does not factor by bounded
trial division, the caller falls back to the Smith reduction with entries
balanced mod an annihilator D (`smith_invariants_bounded`), which also
tracks column transforms mod D for generators (`smith_transforms_bounded`);
it clears each entry of a pivot column or row with one 2x2 unimodular Bezout
step.  The unbounded Hermite and Smith normal forms (`hnf`,
`snf_with_transforms`) use integer row/column reduction with
smallest-pivot selection and serve as reference routines for the tests.
All results are exact.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ConsistencyError
from .numtheory import trial_factor

IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]


def _copy_int(m) -> IntMatrix:
    rows = [[int(x) for x in row] for row in m]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix must be rectangular and non-empty")
    return rows


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product; works for int or Fraction entries."""
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _bareiss(a: IntMatrix) -> int:
    """Fraction-free forward elimination of the n x m matrix a (m >= n), in
    place; returns the determinant of its leading n x n block.

    Rows may be swapped.  On a nonzero return a is upper triangular in its
    leading block, row i is a rational combination of the input rows, and
    a[i][i] is the leading (i+1) x (i+1) minor of the row-swapped input.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, len(row_i)):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_int(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = _copy_int(m)
    if len(a[0]) != len(a):
        raise ValueError("determinant requires a square matrix")
    return _bareiss(a)


def det_solve(m, b) -> tuple[int, list[int] | None]:
    """(det m, adj(m)*b) for a square integer matrix m and an integer column
    b, from one Bareiss elimination of [m | b]; the second item is None when
    det m == 0.

    adj(m)*b = det(m) * m^{-1} b, found by fraction-free back substitution.

    >>> det_solve([[2, 0], [0, 3]], [1, 1])
    (6, [3, 2])
    """
    if len(b) != len(m):
        raise ValueError("det_solve requires a column as long as the matrix")
    a = _copy_int([list(row) + [x] for row, x in zip(m, b)])
    n = len(a)
    if len(a[0]) != n + 1:
        raise ValueError("det_solve requires a square matrix")
    d = _bareiss(a)
    if d == 0:
        return 0, None
    # the eliminated rows say sum_j a[i][j] x_j = a[i][n]; with y = d' x for
    # d' = a[n-1][n-1] = +-d every division below is exact (Cramer)
    top = a[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = top * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    if top != d:
        y = [-x for x in y]
    return d, y


def det(m) -> Fraction:
    """Exact determinant of a square matrix with Fraction/int entries.

    Denominators are cleared row by row, then the integer determinant is
    computed fraction-free.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    scale = 1
    cleared = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        cleared.append([int(x * mult) for x in row])
    return Fraction(det_int(cleared), scale)


def _row_addmul(m, dst: int, src: int, q: int) -> None:
    if q:
        row_d, row_s = m[dst], m[src]
        for j in range(len(row_d)):
            row_d[j] += q * row_s[j]


def _col_addmul(m, dst: int, src: int, q: int) -> None:
    if q:
        for row in m:
            row[dst] += q * row[src]


def hnf(m) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U*m == H.  Pivots are positive,
    entries above each pivot are reduced into [0, pivot), pivot columns
    strictly increase down the rows, and zero rows sink to the bottom.
    """
    H = _copy_int(m)
    nrows, ncols = len(H), len(H[0])
    U = identity(nrows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # gcd-reduce rows r.. in column c until a single nonzero remains
        while True:
            piv, best = -1, None
            for i in range(r, nrows):
                v = abs(H[i][c])
                if v and (best is None or v < best):
                    piv, best = i, v
            if piv < 0:
                break
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            done = True
            for i in range(r + 1, nrows):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    _row_addmul(H, i, r, -q)
                    _row_addmul(U, i, r, -q)
                    if H[i][c]:
                        done = False
            if done:
                break
        if H[r][c] == 0:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            _row_addmul(H, i, r, -q)
            _row_addmul(U, i, r, -q)
        r += 1
    return H, U


def hnf_pivots(m) -> list[int]:
    """Pivot values of the row Hermite normal form, top row first."""
    H, _ = hnf(m)
    out = []
    for row in H:
        for x in row:
            if x:
                out.append(x)
                break
    return out


def snf_with_transforms(m) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (S, U, V), S == U*m*V.

    S is diagonal with non-negative entries d_1 | d_2 | ...; U and V are
    unimodular.
    """
    A = _copy_int(m)
    nrows, ncols = len(A), len(A[0])
    U = identity(nrows)
    V = identity(ncols)
    for k in range(min(nrows, ncols)):
        while True:
            piv, best = None, None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    v = abs(A[i][j])
                    if v and (best is None or v < best):
                        piv, best = (i, j), v
            if piv is None:
                break
            i0, j0 = piv
            if i0 != k:
                A[k], A[i0] = A[i0], A[k]
                U[k], U[i0] = U[i0], U[k]
            if j0 != k:
                for row in A:
                    row[k], row[j0] = row[j0], row[k]
                for row in V:
                    row[k], row[j0] = row[j0], row[k]
            if A[k][k] < 0:
                A[k] = [-x for x in A[k]]
                U[k] = [-x for x in U[k]]
            dirty = False
            for i in range(k + 1, nrows):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    _row_addmul(A, i, k, -q)
                    _row_addmul(U, i, k, -q)
                    if A[i][k]:
                        dirty = True
            for j in range(k + 1, ncols):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    _col_addmul(A, j, k, -q)
                    _col_addmul(V, j, k, -q)
                    if A[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining submatrix
            p = A[k][k]
            offender = None
            for i in range(k + 1, nrows):
                for j in range(k + 1, ncols):
                    if A[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_addmul(A, k, offender, 1)
            _row_addmul(U, k, offender, 1)
    return A, U, V


def smith_invariants(m) -> list[int]:
    """Nonzero Smith invariants d_1 | d_2 | ... (units included)."""
    S, _, _ = snf_with_transforms(m)
    return [S[i][i] for i in range(min(len(S), len(S[0]))) if S[i][i] != 0]


def snf(m) -> list[int]:
    """Smith invariants with unit entries (d_i == 1) suppressed.

    >>> snf([[2, 0], [0, 3]])
    [6]
    """
    return [d for d in smith_invariants(m) if d != 1]


def _balanced(x: int, D: int) -> int:
    x %= D
    return x - D if 2 * x > D else x


def smith_invariants_bounded(m, annihilator: int) -> list[int]:
    """Smith invariants of Z^n / rowspace(m) when `annihilator` kills the
    quotient (equivalently D*Z^n is contained in the row space).

    Entries are kept in balanced residues mod D throughout, so nothing ever
    grows beyond D/2; this is what makes large levels tractable.  Returns
    one invariant per column (units included), divisibility chain ascending.
    """
    return _smith_mod(m, annihilator, track=False)[0]


def smith_transforms_bounded(m, annihilator: int) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Smith invariants mod D with the column transform: (invariants, V, W).

    Same reduction and invariants as `smith_invariants_bounded`.  V and W
    are n x n, inverse to each other mod D, with balanced entries (at most
    D/2 in absolute value).  Column j of m*V is 0 mod the j-th invariant, so
    x -> x*V mod d_j gives the coordinates of a class of the quotient, and
    row j of W is a class with coordinates e_j.
    """
    return _smith_mod(m, annihilator, track=True)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b >= 0.

    When a | b it is the plain step (|a|, +-1, 0): a Bezout pair there may
    swap the two rows, and the Smith reduction could then cycle.
    """
    if a and b % a == 0:
        return abs(a), (1 if a > 0 else -1), 0
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (r0, s0, t0) if r0 > 0 else (-r0, -s0, -t0)


def _smith_mod(m, annihilator: int, track: bool):
    # Cohen, GTM 138, Alg. 2.4.14 done mod D.  Each nonzero entry b of the
    # pivot column (then row) is cleared by one unimodular 2x2 step
    # [[s, t], [-b/g, a/g]] on rows (columns) k and i, where a is the pivot
    # and s*a + t*b = g; this repeats while a column step refills column k.
    # Then g = gcd(pivot, D) is the invariant, unless it misses an entry of
    # the remainder, whose row is added to row k.  Column steps are mirrored
    # on the columns of V and, inverted as [[a/g, b/g], [-t, s]], on the rows
    # of W; row steps and the implicit D rows (zero rows mod D, so a short
    # matrix is padded with them) leave both alone
    D = int(annihilator)
    if D < 1:
        raise ValueError("annihilator must be a positive integer")
    A = [[_balanced(int(x), D) for x in row] for row in m]
    ncols = len(A[0]) if A else 0
    if any(len(r) != ncols for r in A):
        raise ValueError("matrix must be rectangular")
    A += [[0] * ncols for _ in range(ncols - len(A))]
    nrows = len(A)
    V = W = None
    if track:
        V = [[_balanced(x, D) for x in row] for row in identity(ncols)]
        W = [row[:] for row in V]
    out: list[int] = []
    for k in range(ncols):
        while True:
            for i in range(k + 1, nrows):
                b = A[i][k]
                if b:
                    a = A[k][k]
                    g, s, t = _xgcd(a, b)
                    u, v = -b // g, a // g
                    rk, ri = A[k][k:], A[i][k:]
                    A[k][k:] = [_balanced(s * x + t * y, D) for x, y in zip(rk, ri)]
                    A[i][k:] = [_balanced(u * x + v * y, D) for x, y in zip(rk, ri)]
            for j in range(k + 1, ncols):
                b = A[k][j]
                if b:
                    a = A[k][k]
                    g, s, t = _xgcd(a, b)
                    u, v = -b // g, a // g
                    for row in A[k:] + V if track else A[k:]:
                        x, y = row[k], row[j]
                        row[k] = _balanced(s * x + t * y, D)
                        row[j] = _balanced(u * x + v * y, D)
                    if track:
                        wk, wj = W[k], W[j]
                        W[k] = [_balanced(v * x - u * y, D) for x, y in zip(wk, wj)]
                        W[j] = [_balanced(s * y - t * x, D) for x, y in zip(wk, wj)]
            if any(A[i][k] for i in range(k + 1, nrows)):
                continue
            g = gcd(A[k][k], D)
            offender = next(
                (i for i in range(k + 1, nrows) if any(x % g for x in A[i][k + 1 :])), None
            )
            if offender is None:
                break
            A[k] = [_balanced(x + y, D) for x, y in zip(A[k], A[offender])]
        out.append(g)
    return out, V, W


#: trial-division bound for |det| / s in `smith_invariants_local`
TRIAL_BOUND = 1 << 16


def local_smith_exponents(m, p: int, K: int) -> list[int]:
    """Exponents of the Smith form of a square integer matrix over Z/p^K,
    one per column, ascending; an invariant that vanishes mod p^K counts
    as K.

    Over the local ring an entry of least valuation divides every other
    entry, so one pass per pivot is enough: clear its column with row
    steps, then drop its row and column (the column steps that would clear
    its row change nothing else).

    >>> local_smith_exponents([[4, 0], [0, 6]], 2, 4)
    [1, 2]
    """
    q = p**K
    rows = [[x % q for x in row] for row in _copy_int(m)]
    if len(rows[0]) != len(rows):
        raise ValueError("local_smith_exponents requires a square matrix")
    out: list[int] = []
    v, pv = 0, 1  # every remaining entry is 0 mod pv = p^v
    while rows:
        step = pv * p
        hit = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x % step), None)
        if hit is None:
            if v + 1 < K:
                v, pv = v + 1, step
                continue
            out += [K] * len(rows)
            break
        i, j = hit
        prow = rows.pop(i)
        inv = pow(prow[j] // pv, -1, q)
        for row in rows:
            if row[j]:
                f = row[j] // pv * inv % q
                row[:] = [(x - f * y) % q for x, y in zip(row, prow)]
            del row[j]
        out.append(v)
    return out


def smith_invariants_local(m, det: int, y: list[int]) -> list[int] | None:
    """Nontrivial Smith invariants, ascending, of a nonsingular square
    integer matrix m, given det = det(m) and y = adj(m)*b for some column b.

    s = |det| / gcd(det, y) is the denominator of m^{-1} b, so it divides the
    largest invariant (Eberly-Giesbrecht-Villard); a random b makes it equal
    with high probability.  A prime of |det| that does not divide |det|/s
    therefore has a cyclic part, which goes whole into the largest
    invariant.  Each prime p of |det|/s gets its exponents from
    `local_smith_exponents` mod p^(v_p(det)+1), and the parts are joined by
    CRT.  An unlucky b only adds primes to |det|/s.  Returns None when
    |det|/s keeps a part with no prime factor up to `TRIAL_BOUND`.

    >>> smith_invariants_local([[2, 0], [0, 6]], 12, [6, 2])
    [2, 6]
    """
    h = abs(det)
    s = h // gcd(h, *y)
    factors, rest = trial_factor(h // s, TRIAL_BOUND)
    if rest > 1:
        return None
    cyclic = h
    parts = []
    for p, _ in factors:
        e = 0
        while cyclic % p == 0:
            cyclic //= p
            e += 1
        exps = [x for x in local_smith_exponents(m, p, e + 1) if x]
        if sum(exps) != e:
            raise ConsistencyError(f"local Smith exponents at p={p} sum to {sum(exps)}, not v_p(det) = {e}")
        parts.append((p, exps))
    rank = max([len(exps) for _, exps in parts] + [int(cyclic > 1)])
    out = [1] * rank
    if rank:
        out[-1] = cyclic
    for p, exps in parts:
        for k, e in enumerate(reversed(exps)):
            out[rank - 1 - k] *= p**e
    return out


def lattice_index(rows, size: int | None = None) -> int:
    """Index of the sublattice spanned by `rows` in the degree-0 lattice.

    `rows` must be n-1 integer vectors of length n, each of coordinate sum
    0 (the lattice spanned by difference vectors e_i - e_{i+1}).  A
    supplementary row (1, 0, ..., 0) of nonzero coordinate sum is appended
    and the absolute determinant of the resulting square matrix is the
    index; 0 signals dependent rows.
    """
    rows = [list(r) for r in rows]
    if rows:
        n = len(rows[0])
    elif size is not None:
        n = size
    else:
        raise ValueError("lattice_index needs `size` when no rows are given")
    if len(rows) != n - 1:
        raise ValueError(f"expected {n - 1} rows of length {n}, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise ValueError("rows must all have the same length")
        if sum(row) != 0:
            raise ValueError(f"row {row} has nonzero coordinate sum")
    supplement = [1] + [0] * (n - 1)
    return abs(det_int(rows + [supplement]))
