"""Exact linear algebra over ZZ and QQ.

Dense row-major matrices are plain lists of lists.  Determinants use
fraction-free (Bareiss) elimination.  A pass takes up to three pivots, each
where the one-step loop would take it from the next row: the diagonal
entry, or one that a column swap brings there (done before the later rows
are updated; column and row steps commute).  It then takes each later row
t levels at once with one exact division per entry,
a[i][j] <- (p_t*a[i][j] - sum_m v[m]*a'[k+m][j]) / prev (Bareiss's multistep
update; `_bareiss` defines the terms and the division count that decides
when a third pivot pays).  By Sylvester's identity the entries are the same
minors as in the one-step loop, so every output is the same too.
`det_solve` runs the same elimination on the matrix extended by one column
b and also returns adj(m)*b.  Given a number
`avoid`, that one elimination takes pivots coprime to it while it can
(along the row, else down the column), and at the first step where it
cannot it keeps the trailing block: at every prime of `avoid` the block has
the Smith form of m less its unit part (Sylvester's identity).  The
class-group pipeline passes avoid = |det| (known from the analytic route)
and finds Smith invariants from the solve and that block
(`smith_invariants_local`): the denominator s of m^{-1} b divides the
largest invariant, every prime of |det| that misses |det|/s has a cyclic
part, and |det|/s is covered by moduli r, each with its own elimination over
Z/r^K.  The moduli are the primes found by bounded trial division and the
cofactor left over; a composite modulus is split whenever a pivot's unit
part shares a factor with it (dynamic evaluation), so nothing has to be
factored.  Knowing that the exponents mod r sum to v_r(|det|), each
elimination shrinks its modulus as the exponents it has found bound the
rest.  The same local elimination of the block, with its column steps
mirrored on a transform V and its inverse W, gives the coordinates and
generators of Z^n / rowspace(m) (`smith_transforms_local`): each column
of V is lifted to a column of m by back substitution on the pivot rows
that `det_solve` eliminated before the block, whose diagonals are units
at the primes of |det|, and each row of W is padded with zeros in front.
The unbounded Hermite and Smith normal forms (`hnf`, `snf_with_transforms`)
use integer row/column reduction with smallest-pivot selection and serve
as reference routines for the tests.  All results are exact.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ConsistencyError
from .numtheory import TRIAL_BOUND, trial_factor

IntMatrix = list[list[int]]


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


def _unit(x: int, avoid: int) -> bool:
    return x != 0 and gcd(x, avoid) == 1


def _swap_columns(rows, cols: list[int], k: int, j: int) -> None:
    for row in rows:
        row[k], row[j] = row[j], row[k]
    cols[k], cols[j] = cols[j], cols[k]


def _adjugate(p0, p1, p2, prev: int) -> tuple[int, ...]:
    """adj(p)/prev, row after row, for the 3 x 3 block p with rows p0, p1, p2:
    exact when p is a block of the Bareiss level after the pivot prev, whose
    2 x 2 minors are prev times minors of the input (Sylvester's identity)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = p0, p1, p2
    return ((b1 * c2 - b2 * c1) // prev, (a2 * c1 - a1 * c2) // prev, (a1 * b2 - a2 * b1) // prev,
            (b2 * c0 - b0 * c2) // prev, (a0 * c2 - a2 * c0) // prev, (a2 * b0 - a0 * b2) // prev,
            (b0 * c1 - b1 * c0) // prev, (a1 * c0 - a0 * c1) // prev, (a0 * b1 - a1 * b0) // prev)


def _bareiss(a: IntMatrix, avoid: int = 1) -> tuple[int, list[int], IntMatrix]:
    """Fraction-free forward elimination of the n x m matrix a (m >= n), in
    place; returns (d, cols, block), where d is the determinant of the
    leading n x n block of the input.

    While it can, step k takes a pivot coprime to `avoid`: a[k][k], else the
    first such entry along row k (a swap of two leading columns; cols[j] is
    the input column now at j), else the first down column k (a row swap).
    A column swap keeps the leading rows, so a caller that orders the rows
    to keep the leading minors small keeps that order wherever it can.
    At the first step with none, it copies the trailing block a[k:][k:n] to
    `block` and goes on as plain Bareiss; `block` is [] if no step lacks
    one.  By Sylvester's identity the block is prev*S, where S is the Schur
    complement of the leading k x k block and prev, its determinant, is
    coprime to `avoid`.  So at every prime r of `avoid` the Smith form of
    the input over Z_(r) is I_k + the Smith form of `block`.  With avoid = 1
    every nonzero entry qualifies and the elimination is plain Bareiss.

    On a nonzero d, a is upper triangular in its leading block, row i is a
    rational combination of the input rows, and a[i][i] is the leading
    (i+1) x (i+1) minor of the row- and column-swapped input.

    A pass takes up to three pivots (Bareiss's multistep elimination,
    Math. Comp. 22 (1968)).  With p1 = a[k][k] and prev the pivot before
    it, row k+1 first takes the one-step update
    a[k+1][j] <- (p1*a[k+1][j] - a[k+1][k]*a[k][j]) / prev.  If its diagonal
    p2 is nonzero, and coprime to `avoid` or a block is kept, step k+1
    would take it as its pivot with no swap.  If p2 is nonzero but not
    coprime to `avoid` and no block is kept, step k+1 would swap in the
    first column j > k+1 where row k+1 has an entry coprime to `avoid`; the
    pass swaps it now, in every row and in the saved rows a', and p2
    becomes that entry.  Step k updates columns j and k+1 alike, so the
    swap commutes with it.  In both cases the pass takes p2, and row k+2
    takes the two-step update below; its diagonal p3 is then taken, or
    swapped in, the same way.  With t the pivots taken, p_t the last, P
    the t x t block a[k:k+t][k:k+t] and a' the rows k..k+t-1 as they stood
    before the pass, every later row i goes at once to

        v = a[i][k:k+t] * adj(P) / prev^(t-1)
        a[i][j] <- (p_t*a[i][j] - sum_m v[m]*a'[k+m][j]) / prev,  j >= k+t.

    So v = (a[i][k]) for t = 1, and v = (-c, x) for t = 2, with
    x = (a[i][k+1]*p1 - a[i][k]*a[k][k+1]) / prev and
    c = (a[i][k+1]*a'[k+1][k] - a[i][k]*a'[k+1][k+1]) / prev; for t = 3 the
    pass finds adj(P)/prev once, with nine exact divisions.  Each v[m] and
    each new entry is a minor (Sylvester's identity), as in the one-step
    loop, so a, d, cols and block are too; an entry takes t+1 products and
    one exact division for t levels where one-step updates take 2t and t.
    With R rows below row k+2 and W = m - k, a third pivot costs 9 + R*W
    divisions against R*W + R*(W-3) for a pair pass and a single step, so
    the pass takes it only where R*(W-3) > 9.  A pass stops at a
    zero diagonal, as the one-step loop first returns 0 if that column is 0
    from there down, and a swap would change cols on that singular input;
    and at a row with no entry coprime to `avoid`, as that step then swaps
    a row in or keeps the block.
    """
    n = len(a)
    sign = 1
    prev = 1
    cols = list(range(n))
    block = None
    k = 0
    while k < n:
        if not any(a[i][k] for i in range(k, n)):
            return 0, cols, []  # column k is 0 from row k down
        i = None  # the row to swap in
        if block is None and not _unit(a[k][k], avoid):
            j = next((j for j in range(k + 1, n) if _unit(a[k][j], avoid)), None)
            i = None if j is not None else next((i for i in range(k + 1, n) if _unit(a[i][k], avoid)), None)
            if j is not None:
                _swap_columns(a, cols, k, j)
                sign = -sign
            elif i is None:
                block = [row[k:n] for row in a[k:]]
        if i is None and a[k][k] == 0:
            i = next(i for i in range(k + 1, n) if a[i][k])
        if i is not None:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        if k == n - 1:
            break
        pivot, row_k = a[k][k], a[k]
        ahead = a[k + 1][:]  # row k+1 before its own update
        saved = [ahead]  # and row k+2 before its own, in a pair pass
        width = len(row_k)
        t, top = 1, pivot  # the pivots this pass takes, the last of them
        for i in range(k + 1, n):
            row_i = a[i]
            r0 = row_i[k]
            if t == 1:
                for j in range(k + 1, width):
                    row_i[j] = (top * row_i[j] - r0 * row_k[j]) // prev
            elif t == 2:
                if i == k + 2:
                    saved.append(row_i[:])
                r1 = row_i[k + 1]
                x = (r1 * pivot - r0 * row_k[k + 1]) // prev
                c = (r1 * ahead[k] - r0 * ahead[k + 1]) // prev
                for j in range(k + 2, width):
                    row_i[j] = (top * row_i[j] - x * ahead[j] + c * row_k[j]) // prev
                row_i[k + 1] = 0
            else:
                r1, r2 = row_i[k + 1], row_i[k + 2]
                v0 = (r0 * q00 + r1 * q10 + r2 * q20) // prev
                v1 = (r0 * q01 + r1 * q11 + r2 * q21) // prev
                v2 = (r0 * q02 + r1 * q12 + r2 * q22) // prev
                for j in range(k + 3, width):
                    row_i[j] = (top * row_i[j] - v0 * row_k[j] - v1 * ahead[j] - v2 * behind[j]) // prev
                row_i[k + 1] = row_i[k + 2] = 0
            row_i[k] = 0
            if i == k + t < k + 3 and (t == 1 or (n - i - 1) * (width - i - 1) > 9):
                # step i needs no pivot search, or finds its pivot along row
                # i: fuse it with this pass (a third only if it saves divisions)
                p = row_i[i]
                if block is None and p and not _unit(p, avoid):
                    j = next((j for j in range(i + 1, n) if _unit(row_i[j], avoid)), None)
                    if j is not None:
                        _swap_columns([*a, *saved], cols, i, j)
                        sign, p = -sign, row_i[i]
                if p and (block is not None or _unit(p, avoid)):
                    t, top = t + 1, p
                    if t == 3:
                        behind = saved[1]
                        q00, q01, q02, q10, q11, q12, q20, q21, q22 = _adjugate(row_k[k:k + 3], ahead[k:k + 3], behind[k:k + 3], prev)
        prev, k = top, k + t
    return sign * a[n - 1][n - 1], cols, block or []


def det_int(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = _copy_int(m)
    if len(a[0]) != len(a):
        raise ValueError("determinant requires a square matrix")
    return _bareiss(a)[0]


def det_solve(m, b, avoid: int = 1) -> tuple[int, list[int] | None, IntMatrix | None, IntMatrix | None, list[int] | None]:
    """(det m, adj(m)*b, block, rows, cols) for a square integer matrix m and
    an integer column b, from one Bareiss elimination of [m | b]; the last
    four items are None when det m == 0.

    adj(m)*b = det(m) * m^{-1} b, found by fraction-free back substitution
    and given in the input column order.  Step k takes a pivot coprime to
    the positive integer `avoid` from row k, else from column k, while there
    is one; the trailing block of the elimination at the first step where
    there is none has, at every prime r of `avoid`, the Smith form of m over
    Z_(r) less its unit part, and it is [] if every step finds one.  So with
    avoid = |det m|, `smith_invariants_local(block, det, y)` is the Smith
    structure of m.  With the default avoid = 1 the block is [] and the
    pivots are plain Bareiss.  det and adj(m)*b do not depend on `avoid`.

    rows are the k = n - len(block) pivot rows eliminated before the block,
    which the back substitution reads.  They are upper triangular in their
    first k columns, and each diagonal entry, a leading minor, is coprime to
    `avoid`.  Over Z_(r) at every prime r of `avoid`, they and the block
    with k zero columns in front span the rowspace of m.  Their columns,
    like the block's, are in the order cols: cols[j] is the input column
    now at j.  `smith_transforms_local(block, det, y, rows, cols)` lifts the
    coordinates of the block through them.

    >>> det_solve([[2, 0], [0, 3]], [1, 1])
    (6, [3, 2], [], [[2, 0], [0, 6]], [0, 1])

    Here the first pivot, 2, is even and row 0 has an odd entry in column 1,
    so columns 0 and 1 swap; the second pivot, -4, is even, and the 1 x 1
    block holds the whole 2-part:

    >>> det_solve([[2, 1], [4, 4]], [1, 1], 4)
    (4, [3, -2], [[-4]], [[1, 2]], [1, 0])

    Here steps 0 and 1 fuse: after step 0 row 1 is [0, 5, 3 | 3], and its
    pivot 5 needs no swap, so row 2 goes from [1, 0, 4 | 3] to
    [0, 0, 19 | 14] in one pass (x = -1, c = -3, prev = 1):

    >>> det_solve([[2, 1, 1], [1, 3, 2], [1, 0, 4]], [1, 2, 3])[:3]
    (19, [1, 3, 14], [])
    """
    if len(b) != len(m):
        raise ValueError("det_solve requires a column as long as the matrix")
    if avoid < 1:
        raise ValueError(f"det_solve requires a positive avoid, got {avoid}")
    a = _copy_int([list(row) + [x] for row, x in zip(m, b)])
    n = len(a)
    if len(a[0]) != n + 1:
        raise ValueError("det_solve requires a square matrix")
    d, cols, block = _bareiss(a, avoid)
    if d == 0:
        return 0, None, None, None, None
    # the eliminated rows say sum_j a[i][j] x_j = a[i][n] in the swapped
    # column order; with y = d' x for d' = a[n-1][n-1] = +-d every division
    # below is exact (Cramer)
    top = a[n - 1][n - 1]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = top * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i] = acc // row[i]
    y = _unswap(x if top == d else [-v for v in x], cols)
    return d, y, block, [row[:n] for row in a[: n - len(block)]], cols


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


def _local_smith(m, r: int, K: int, track: bool):
    # Smith elimination of a square matrix over Z/r^K: while every remaining
    # entry is 0 mod r^v, an entry that is not 0 mod r^(v+1) is the pivot.
    # If its unit part shares a factor g with r (r composite), this returns
    # (g, [], None, None).  Otherwise each pivot is a unit times r^v at every
    # prime of r, so the result holds at all of them: (1, pivots, V, W) with
    # one (v, column) per pivot, v ascending.  With `track`, the column steps
    # col_k -= c*col_j that clear the pivot row are mirrored on V (V[k] holds
    # column k) and their inverses row_j += c*row_k on W = V^{-1}; rows of W
    # are written only at their own pivot, so row k is still e_k there.
    # Precondition: K - 1 = v_r(det m), the sum of the exponents.  Once every
    # remaining entry is 0 mod r^v, none of the m' exponents left exceeds
    # K - 1 - (those taken) - (m' - 1) v, so the rest runs mod r to the power
    # one more.  If the exponents of m sum to anything else, those found
    # still miss K - 1, which the caller checks.
    q = r**K
    rows = [[x % q for x in row] for row in _copy_int(m)]
    n = len(rows)
    if len(rows[0]) != n:
        raise ValueError("local Smith elimination requires a square matrix")
    cols = list(range(n))
    V, W = (identity(n), identity(n)) if track else (None, None)
    out: list[tuple[int, int]] = []
    left = K - 1  # the exponents not yet taken sum to this
    v, pv = 0, 1  # every remaining entry is 0 mod pv = r^v
    while rows:
        step = pv * r
        hit = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x % step), None)
        if hit is None:
            if v + 1 < K:
                v, pv = v + 1, step
                top = max(left - (len(rows) - 1) * v, v) + 1
                if top < K:
                    K, q = top, r**top
                    rows = [[x % q for x in row] for row in rows]
                continue
            out += [(K, k) for k in cols]
            break
        i, j = hit
        prow = rows.pop(i)
        unit = prow[j] // pv
        try:
            inv = pow(unit, -1, q)
        except ValueError:
            return gcd(unit, r), [], None, None
        for row in rows:
            if row[j]:
                f = row[j] // pv * inv % q
                row[:] = [(x - f * y) % q for x, y in zip(row, prow)]
            del row[j]
        if track:
            # the column steps change no other row: each is 0 in column j now
            vj, wj = V[cols[j]], W[cols[j]]
            for k, x in enumerate(prow):
                if x and k != j:
                    c = x // pv * inv % q
                    V[cols[k]] = [(a - c * b) % q for a, b in zip(V[cols[k]], vj)]
                    wj[cols[k]] = c
        out.append((v, cols.pop(j)))
        left -= v
    return 1, out, V, W


def _coprime_base(nums: list[int]) -> list[int]:
    # pairwise coprime numbers > 1 whose products give every input: a pair
    # with g = gcd(x, y) > 1 becomes x/g, g, y/g, which lowers the product
    out: list[int] = []
    todo = [x for x in nums if x > 1]
    while todo:
        x = todo.pop()
        for i, y in enumerate(out):
            g = gcd(x, y)
            if g > 1:
                del out[i]
                todo += [z for z in (x // g, g, y // g) if z > 1]
                break
        else:
            out.append(x)
    return out


def _lift(rows, fs, D: int) -> IntMatrix:
    # each column f of the block widened to (-A11^{-1} A12 f, f) mod D, so
    # that it is 0 mod D on the pivot rows [A11 | A12] too: back
    # substitution, whose pivots are units mod D.  The columns are packed
    # into one integer per entry, column c in the w bits from c*w on, so each
    # row is reduced, its pivot inverted and its dot product taken once for
    # all of them (Kronecker substitution); w bits hold a sum of n products
    # of residues mod D
    k, n = len(rows), len(rows) + len(fs[0])
    w = (n * (D - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    packed = [0] * k + [sum((x % D) << (c * w) for c, x in enumerate(entry)) for entry in zip(*fs)]
    for i in range(k - 1, -1, -1):
        pivot, *tail = [x % D for x in rows[i][i:]]
        neg_inv = -pow(pivot, -1, D)
        acc = sum(map(mul, tail, packed[i + 1 :]))
        packed[i] = sum((neg_inv * ((acc >> (c * w)) & mask) % D) << (c * w) for c in range(len(fs)))
    return [[(x >> (c * w)) & mask for x in packed] for c in range(len(fs))]


def _unswap(x: list[int], cols) -> list[int]:
    out = [0] * len(x)
    for c, v in zip(cols, x):
        out[c] = v
    return out


def _smith_local(m, det: int, y: list[int], track: bool, rows=(), cols=None):
    h = abs(det)
    s = h // gcd(h, *y)
    factors, rest = trial_factor(h // s, TRIAL_BOUND)
    # the moduli stay pairwise coprime; each is refined until h = r^e * w
    # with w coprime to r, and again whenever its elimination splits it
    todo = _coprime_base([p for p, _ in factors] + [rest])
    cyclic = h
    pieces = []  # (index from the end, invariant factor, part of h, column, row)
    while todo:
        r = todo.pop()
        e, w = 0, h
        while w % r == 0:
            w, e = w // r, e + 1
        split = gcd(w, r)
        if split == 1:
            split, pivots, V, W = _local_smith(m, r, e + 1, track)
        if split > 1:
            todo = _coprime_base(todo + [split, r // split])
            continue
        pivots = [(v, k) for v, k in pivots if v]
        total = sum(v for v, _ in pivots)
        if total != e:
            raise ConsistencyError(f"local Smith exponents mod {r} sum to {total}, not v_r(det) = {e}")
        cyclic //= r**e
        if track:
            # the columns of V and rows of W that the pivots name, widened
            # from the block to the whole matrix in its input column order:
            # a column is needed mod its own r^v only, so all are lifted mod
            # the largest, the last pivot's, and a row takes k zeros in front
            lifted = _lift(rows, [V[k] for _, k in pivots], r ** pivots[-1][0])
            V = {k: _unswap(f, cols) for (_, k), f in zip(pivots, lifted)}
            W = {k: _unswap([0] * len(rows) + W[k], cols) for _, k in pivots}
        for t, (v, k) in enumerate(reversed(pivots)):
            pieces.append((-1 - t, r**v, r**e, V[k] if track else None, W[k] if track else None))
    if cyclic > 1:
        g = None
        if track:
            # m*y = det*b is 0 mod cyclic, and the row g has g.y = 1 mod
            # cyclic: gcd(cyclic, *y) = 1, as cyclic is coprime to h/s
            g, acc = [0] * len(y), cyclic  # acc = g.y mod cyclic = gcd(cyclic, *y[:i])
            for i, x in enumerate(y):
                d = gcd(acc, x)
                if d < acc:
                    t = pow(x // d, -1, acc // d)
                    u = (d - t * x) // acc  # u*acc + t*x = d
                    g = [u * z % cyclic for z in g]
                    g[i], acc = t % cyclic, d
        pieces.append((-1, cyclic, cyclic, y, g))
    out = [1] * max([-i for i, *_ in pieces], default=0)
    for i, d, *_ in pieces:
        out[i] *= d
    if not track:
        return out, None, None
    # eps is 1 mod its own part of h and 0 mod the rest, so the same
    # idempotents join the columns mod d_j and the rows mod d_max
    F = [[0] * len(y) for _ in out]
    G = [[0] * len(y) for _ in out]
    for i, _, part, f, g in pieces:
        eps = h // part * pow(h // part, -1, part)
        F[i] = [a + eps * b for a, b in zip(F[i], f)]
        G[i] = [a + eps * b for a, b in zip(G[i], g)]
    F = [[x % d for x in f] for f, d in zip(F, out)]
    G = [[_balanced(x, out[-1]) for x in g] for g in G]
    return out, F, G


def smith_invariants_local(m, det: int, y: list[int]) -> list[int]:
    """Nontrivial Smith invariants, ascending, of a nonsingular square
    integer matrix m, given det = det(m) and y = adj(m)*b for some column b.

    s = |det| / gcd(det, y) is the denominator of m^{-1} b, so it divides the
    largest invariant (Eberly-Giesbrecht-Villard); a random b makes it equal
    with high probability.  A prime of |det| that does not divide |det|/s
    therefore has a cyclic part, which goes whole into the largest
    invariant.  |det|/s is covered by moduli r, the primes up to
    `TRIAL_BOUND` and the cofactor, each with one elimination mod
    r^(v_r(det)+1); a modulus is split whenever det or a pivot shows a
    factor of it (dynamic evaluation).  An unlucky b only adds moduli.
    The eliminations read m only at the primes of |det|, so m may as well
    be the block that `det_solve(m, b, abs(det))` keeps.

    >>> smith_invariants_local([[2, 0], [0, 6]], 12, [6, 2])
    [2, 6]
    """
    return _smith_local(m, det, y, track=False)[0]


def smith_transforms_local(m, det: int, y: list[int], rows=(), cols=None) -> tuple[list[int], IntMatrix, IntMatrix]:
    """`smith_invariants_local` with coordinates: (invariants d_j, F, G).

    F[j] is a column with A*F[j] = 0 mod d_j, so x -> x.F[j] mod d_j is the
    j-th coordinate of a class of Z^n / rowspace(A); G[i] is a row with
    G[i].F[j] = delta_ij mod d_j, a class with coordinates e_i.  Here A is
    m itself, or, given the pivot rows and column order that
    `det_solve(A, b, abs(det))` returns with its block m, the matrix A
    that det_solve eliminated.  Each local elimination runs on m and is
    tracked: its column steps are mirrored on a transform V and their
    inverses on W = V^{-1}.  Split A, columns in the order cols, as
    [[A11, A12], [A21, A22]] with A11 the k x k block of the pivot rows.
    Over Z_(r) at a prime r of det those rows are unit pivots, so A is
    equivalent to diag(A11, m) there (Sylvester's identity), and a
    column f of V lifts to F = (-A11^{-1} A12 f, f) mod r^v_r(det) by back
    substitution on the pivot rows; a row of W takes k zeros in front.
    Both go back to the input column order.  With no rows, k = 0 and m is
    A.  Each index joins the columns and rows of the local eliminations by
    CRT; the cyclic part takes F = y and a Bezout row of y.  F[j] is
    reduced mod d_j, and G is balanced mod the largest invariant, so no
    entry of G exceeds |det| / 2.

    >>> smith_transforms_local([[2, 0], [0, 6]], 12, [6, 2])
    ([2, 6], [[1, 0], [0, 5]], [[3, 0], [0, -1]])

    Here the first pivot row [1, 2, 1] (columns 0 and 1 swapped) is a
    unit at 2, and the block [[-4, -2], [0, 2]] holds the 2-part:

    >>> A = [[2, 1, 1], [0, 2, 0], [0, 0, 2]]
    >>> det, y, block, rows, cols = det_solve(A, [1, 2, 3], 8)
    >>> block, rows, cols
    ([[-4, -2], [0, 2]], [[1, 2, 1]], [1, 0, 2])
    >>> smith_transforms_local(block, det, y, rows, cols)
    ([2, 4], [[0, 1, 1], [1, 0, 2]], [[2, 0, 1], [1, 0, 0]])

    A*F[0] = [2, 2, 2] is 0 mod 2 and A*F[1] = [4, 0, 4] is 0 mod 4.
    F[0][1], in the pivot's column, lifts the block's column [0, 1].
    """
    return _smith_local(m, det, y, True, rows, cols or range(len(y)))


def smith_invariants_bounded(m, annihilator: int) -> list[int]:
    """Smith invariants of a nonsingular square integer matrix, one per
    column with units included, ascending, by `det_solve` and
    `smith_invariants_local`; the annihilator is only checked."""
    det, y, *_ = det_solve(m, [1] * len(m))
    if det == 0 or annihilator < 1:
        raise ValueError("requires a nonsingular matrix and a positive annihilator")
    out = smith_invariants_local(m, det, y)
    return [1] * (len(m) - len(out)) + out


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
