import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modunits import zlinalg
from modunits.errors import ConsistencyError
from modunits.zlinalg import (
    det,
    det_int,
    det_solve,
    hnf,
    hnf_pivots,
    identity,
    lattice_index,
    mat_mul,
    smith_invariants,
    smith_invariants_bounded,
    smith_invariants_local,
    smith_transforms_local,
    snf,
    snf_with_transforms,
)


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)]


def _minor_gcds(m):
    """gcd of all k x k minors, k = 1..min(dims); the determinantal oracle."""
    rows, cols = len(m), len(m[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_int(sub)))
        out.append(g)
    return out


def test_det_identity_and_known():
    assert det_int(identity(4)) == 1
    assert det_int([[2, 1], [1, 1]]) == 1
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)

    def naive(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            sub = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * naive(sub)
        return total

    for _ in range(60):
        n = rng.randrange(1, 6)
        m = _random_matrix(rng, n, n)
        assert det_int(m) == naive(m)


def test_hnf_contract():
    rng = random.Random(5)
    for _ in range(80):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = _random_matrix(rng, rows, cols)
        H, U = hnf(m)
        assert mat_mul(U, m) == H
        assert det_int(U) in (1, -1)
        # row echelon with positive pivots, entries above reduced into [0, pivot)
        last_col = -1
        for i, row in enumerate(H):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                assert all(not any(r) for r in H[i:])
                break
            j = nz[0]
            assert j > last_col
            last_col = j
            assert row[j] > 0
            for i2 in range(i):
                assert 0 <= H[i2][j] < row[j]


def test_hnf_zero_matrix():
    H, U = hnf([[0, 0], [0, 0]])
    assert H == [[0, 0], [0, 0]]
    assert U == identity(2)


def test_snf_examples():
    assert snf([[2, 0], [0, 3]]) == [6]
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert snf(identity(3)) == []


def test_snf_transforms_contract():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = _random_matrix(rng, rows, cols)
        S, U, V = snf_with_transforms(m)
        assert mat_mul(U, mat_mul(m, V)) == S
        assert det_int(U) in (1, -1)
        assert det_int(V) in (1, -1)
        diag = [S[i][i] for i in range(min(rows, cols))]
        for i, x in enumerate(S):
            for j, v in enumerate(x):
                if i != j:
                    assert v == 0
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_snf_against_minor_gcd_oracle():
    # determinantal-divisor check on 200 random small matrices
    rng = random.Random(17)
    for _ in range(200):
        rows, cols = rng.choice([(4, 5), (5, 4), (3, 3), (4, 4), (2, 5)])
        m = _random_matrix(rng, rows, cols)
        inv = smith_invariants(m)
        gcds = _minor_gcds(m)
        prod = 1
        for k, d in enumerate(inv):
            prod *= d
            assert prod == gcds[k], (m, inv, gcds)
        for k in range(len(inv), len(gcds)):
            assert gcds[k] == 0


def test_snf_bounded_matches_plain():
    # the wrapper kept for callers of the former reduction mod D
    cases = [
        ([[0, 1], [1, 0]], 1),  # zero top-left pivot
        ([[0, 1], [1, 0]], 4),
        ([[0, 2], [3, 0]], 6),
        ([[-4, 2], [4, 3]], 20),
        ([[2, 0], [0, 3]], 6),
        ([[1, 0], [0, 6]], 6),
        ([[1, 0], [0, 6]], 12),
        ([[200, 198], [303, 300]], 6),  # entries larger than D
        ([[100, 97], [103, 100]], 9),
    ]
    for m, D in cases:
        assert smith_invariants_bounded(m, D) == smith_invariants(m), (m, D)
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = _random_matrix(rng, n, n)
        d = abs(det_int(m))
        if d == 0:
            continue
        assert smith_invariants_bounded(m, d) == smith_invariants(m)
    with pytest.raises(ValueError):
        smith_invariants_bounded([[1, 0], [0, 0]], 1)  # singular


def test_det_solve_is_adjugate_times_column():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = _random_matrix(rng, n, n)
        b = [rng.randrange(-50, 51) for _ in range(n)]
        d, y, block, *_ = det_solve(m, b)
        assert d == det_int(m)
        if d == 0:
            assert y is None and block is None
        else:
            assert [sum(x * v for x, v in zip(row, y)) for row in m] == [d * x for x in b]
    with pytest.raises(ValueError):
        det_solve([[1, 2]], [1])
    with pytest.raises(ValueError):
        det_solve([[1, 0], [0, 1]], [1])


def _local_route(m, b):
    d, y, *_ = det_solve(m, b)
    return smith_invariants_local(m, d, y)


def _local_exponents(m, r, K):
    # Smith exponents over Z/r^K with K - 1 = v_r(det m), one per column,
    # ascending
    split, pivots, _, _ = zlinalg._local_smith(m, r, K, track=False)
    assert split == 1
    return [v for v, _ in pivots]


@st.composite
def nonsingular_with_column(draw):
    n = draw(st.integers(1, 5))
    entry = st.integers(-1000, 1000)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    # small row factors make non-cyclic groups, which send primes to the local step
    scale = draw(st.lists(st.sampled_from([1, 1, 2, 3, 4, 6, 9, 12]), min_size=n, max_size=n))
    m = [[c * x for x in row] for c, row in zip(scale, m)]
    assume(det_int(m))
    return m, draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(nonsingular_with_column())
def test_smith_invariants_local_matches_reference(case):
    m, b = case
    assert _local_route(m, b) == snf(m)


# with no trial division the one modulus is the whole of |det|/s, which
# det and the eliminations split (dynamic evaluation)
@pytest.mark.parametrize("bound", [zlinalg.TRIAL_BOUND, 0])
@settings(max_examples=100, deadline=None)
@given(nonsingular_with_column())
def test_smith_transforms_local_properties(bound, case):
    m, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlinalg, "TRIAL_BOUND", bound)
        inv, F, G = smith_transforms_local(m, *det_solve(m, b)[:2])
    assert inv == [d for d in smith_invariants(m) if d != 1]
    for d, f in zip(inv, F):
        assert all(sum(x * c for x, c in zip(row, f)) % d == 0 for row in m)
    for i, g in enumerate(G):
        for j, (d, f) in enumerate(zip(inv, F)):
            assert (sum(x * c for x, c in zip(g, f)) - (i == j)) % d == 0
        assert all(2 * abs(x) <= inv[-1] for x in g)


def _assert_coordinates(m, inv, F, G):
    # F[j] is 0 mod d_j on every row of m, G pairs with F to the identity,
    # F[j] is reduced mod d_j and G is balanced mod the largest invariant
    for d, f in zip(inv, F):
        assert all(sum(x * c for x, c in zip(row, f)) % d == 0 for row in m)
        assert all(0 <= x < d for x in f)
    for i, g in enumerate(G):
        for j, (d, f) in enumerate(zip(inv, F)):
            assert (sum(x * c for x, c in zip(g, f)) - (i == j)) % d == 0
        assert all(2 * abs(x) <= inv[-1] for x in g)


# the block that det_solve keeps, lifted through its pivot rows, gives
# coordinates and generators of the whole matrix, as the call on the whole
# matrix (no pivot rows, k = 0) does
@pytest.mark.parametrize("bound", [zlinalg.TRIAL_BOUND, 0])
@settings(max_examples=100, deadline=None)
@given(nonsingular_with_column())
def test_smith_transforms_local_lifts_the_kept_block(bound, case):
    m, b = case
    d, y, block, rows, cols = det_solve(m, b, abs(det_int(m)))
    assert len(rows) + len(block) == len(m)
    assert sorted(cols) == list(range(len(m)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlinalg, "TRIAL_BOUND", bound)
        whole = smith_transforms_local(m, d, y)
        lifted = smith_transforms_local(block, d, y, rows, cols)
    assert lifted[0] == whole[0] == snf(m)
    _assert_coordinates(m, *whole)
    _assert_coordinates(m, *lifted)


def test_smith_transforms_local_lift_with_a_column_swap():
    # step 0 swaps columns 0 and 1 for the odd pivot 1, step 1 keeps the
    # 2 x 2 block; both invariants come from the block, so every column of
    # F is a lift through the pivot row [1, 2, 1]
    m = [[2, 1, 1], [0, 2, 0], [0, 0, 2]]
    d, y, block, rows, cols = det_solve(m, [1, 2, 3], 8)
    assert (len(rows), cols) == (1, [1, 0, 2])
    inv, F, G = smith_transforms_local(block, d, y, rows, cols)
    assert inv == snf(m) == [2, 4]
    _assert_coordinates(m, inv, F, G)
    assert all(g[1] == 0 for g in G)  # the pivot's column, padded with 0


# pivots coprime to |det| change neither det nor y, and the block kept at
# the first step without one carries the whole Smith form
@pytest.mark.parametrize("bound", [zlinalg.TRIAL_BOUND, 0])
@settings(max_examples=100, deadline=None)
@given(nonsingular_with_column())
def test_det_solve_kept_block_gives_the_structure(bound, case):
    m, b = case
    d, y, block, *_ = det_solve(m, b, abs(det_int(m)))
    assert (d, y) == det_solve(m, b)[:2]
    if abs(d) == 1:
        assert block == []
    else:
        assert len(block) == len(block[0]) <= len(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlinalg, "TRIAL_BOUND", bound)
        assert smith_invariants_local(block, d, y) == snf(m)


def test_det_solve_swaps_rows_and_columns_for_a_coprime_pivot():
    # avoid = 4: the pivot 2 is even, so step 0 swaps in column 1 (pivot 1)
    # although row 2 also has an odd entry in column 0; step 1 meets
    # a[1][1] = 2 in a row that is even beyond it and swaps in row 2
    # (pivot -1); step 2 meets -4 and keeps it as the block
    m = [[2, 1, 0], [2, 0, 4], [3, 2, 0]]
    b = [1, 2, 3]
    a = [row + [x] for row, x in zip(m, b)]
    d, cols, block = zlinalg._bareiss(a, 4)
    assert (d, cols, block) == (-4, [1, 0, 2], [[-4]])
    assert a == [[1, 2, 0, 1], [0, -1, 0, 1], [0, 0, -4, -4]]
    d, y, block, *_ = det_solve(m, b, 4)
    assert d == det_int(m) == -4
    assert [sum(x * v for x, v in zip(row, y)) for row in m] == [d * x for x in b]
    assert (d, y) == det_solve(m, b)[:2]
    assert smith_invariants_local(block, d, y) == snf(m) == [4]
    with pytest.raises(ValueError):
        det_solve(m, b, 0)


def _one_step_bareiss(a, avoid=1):
    # the one-step Bareiss loop, one level per step for every row below the
    # pivot: the reference that `zlinalg._bareiss`, which fuses pairs of
    # steps, must match entry for entry
    n = len(a)
    sign = 1
    prev = 1
    cols = list(range(n))
    block = None
    for k in range(n):
        if not any(a[i][k] for i in range(k, n)):
            return 0, cols, []  # column k is 0 from row k down
        i = None  # the row to swap in
        if block is None and not zlinalg._unit(a[k][k], avoid):
            j = next((j for j in range(k + 1, n) if zlinalg._unit(a[k][j], avoid)), None)
            i = None if j is not None else next((i for i in range(k + 1, n) if zlinalg._unit(a[i][k], avoid)), None)
            if j is not None:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                cols[k], cols[j] = cols[j], cols[k]
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
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, len(row_i)):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1], cols, block or []


@st.composite
def bareiss_inputs(draw):
    # square or n x (n+1), rows scaled so that pivots share factors with
    # avoid, and one row in three a multiple of another (a singular block).
    # The entries come from a seeded random: lists of drawn integers repeat
    # values so often that most large matrices come out singular
    n = draw(st.integers(1, 7))
    width = n + draw(st.integers(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    scale = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), min_size=n, max_size=n))
    m = [[c * rng.randint(-5, 5) for _ in range(width)] for c in scale]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        f = draw(st.integers(-3, 3))
        m[i] = [f * x for x in m[j]]
    avoid = draw(st.sampled_from([1, 2, 4, 6, 12, None]))
    if avoid is None:
        avoid = abs(_one_step_bareiss([row[:n] for row in m])[0]) or 1
    return m, avoid


@settings(max_examples=500, deadline=None)
@given(bareiss_inputs())
def test_bareiss_matches_the_one_step_loop(case):
    m, avoid = case
    a, ref = [row[:] for row in m], [row[:] for row in m]
    assert zlinalg._bareiss(a, avoid) == _one_step_bareiss(ref, avoid)
    assert a == ref


def _pinned_bareiss(m, avoid, out, eliminated):
    a, ref = [row[:] for row in m], [row[:] for row in m]
    assert zlinalg._bareiss(a, avoid) == out
    assert a == eliminated
    assert _one_step_bareiss(ref, avoid) == out and ref == eliminated


def test_bareiss_fuses_pairs_of_steps():
    # every second diagonal is a unit: steps 0, 1 and 2, 3 fuse, and rows 2-4
    # and row 4 take the two-step update (prev = 1 and prev = -1)
    m = [[1, 2, -1, 1, 2], [2, 3, 1, 0, 1], [2, 3, 2, 3, -2], [1, 2, -1, 0, 1], [-1, -2, 1, 0, -2]]
    eliminated = [[1, 2, -1, 1, 2], [0, -1, 3, -2, -3], [0, 0, -1, -3, 3], [0, 0, 0, 1, 1], [0, 0, 0, 0, -1]]
    _pinned_bareiss(m, 1, (-1, [0, 1, 2, 3, 4], []), eliminated)
    # the det_solve doctest: x = -1 and c = -3 take row 2 to [0, 0, 19 | 14]
    m = [[2, 1, 1, 1], [1, 3, 2, 2], [1, 0, 4, 3]]
    _pinned_bareiss(m, 1, (19, [0, 1, 2], []), [[2, 1, 1, 1], [0, 5, 3, 3], [0, 0, 19, 14]])


def test_bareiss_second_pivot_sharing_a_factor_is_a_single_step():
    # avoid = 2: after step 0 a[1][1] = 2 is even, so rows 2 and 3 take one
    # step; step 1 swaps in column 3 (pivot -1) and fuses with step 2
    m = [[-1, 2, 2, 1], [-1, 0, 0, 2], [0, -2, -1, 1], [1, 1, 0, -2]]
    eliminated = [[-1, 1, 2, 2], [0, -1, 2, 2], [0, 0, -1, 0], [0, 0, 0, -1]]
    _pinned_bareiss(m, 2, (1, [0, 3, 2, 1], []), eliminated)


def test_bareiss_second_pivot_zero_is_a_single_step():
    # avoid = 6: after step 0 row 1 is [0, 0, -2, -3], so rows 2 and 3 take
    # one step; step 1 finds no unit along row 1, swaps in row 3 (pivot 1)
    # and fuses with step 2
    m = [[1, 0, 0, -1], [-2, 0, -2, -1], [-2, -2, -1, 1], [0, 1, 1, 1]]
    eliminated = [[1, 0, 0, -1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, -1]]
    _pinned_bareiss(m, 6, (1, [0, 1, 2, 3], []), eliminated)


class _Counted(int):
    # sums, differences and products stay _Counted; floor divisions count
    divisions = 0

    def __add__(self, other):
        return _Counted(int(self) + other)

    def __sub__(self, other):
        return _Counted(int(self) - other)

    def __mul__(self, other):
        return _Counted(int(self) * other)

    def __floordiv__(self, other):
        _Counted.divisions += 1
        return _Counted(int(self) // other)


def _divisions(bareiss, m, avoid):
    _Counted.divisions = 0
    bareiss([[_Counted(x) for x in row] for row in m], avoid)
    return _Counted.divisions


def test_bareiss_fuses_pairs_after_a_kept_block():
    # avoid = 2: a[1][1] = 6 after step 0, and nothing along row 1 or down
    # column 1 is odd, so step 1 keeps the block; from there every nonzero
    # second diagonal fuses, even or not: steps 1, 2 (rows 3, 4 two-step)
    # and 3, 4.  28 exact divisions against 30 one step at a time
    m = [[-3, -1, 2, 1, -3], [0, -2, 0, 0, -2], [3, -1, -1, -1, 0], [1, 1, -2, -1, 3], [1, 1, -2, -3, 2]]
    block = [[6, 0, 0, 6], [6, -3, 0, 9], [-2, 4, 2, -6], [-2, 4, 8, -3]]
    eliminated = [[-3, -1, 2, 1, -3], [0, 6, 0, 0, 6], [0, 0, 6, 0, -6], [0, 0, 0, -4, 0], [0, 0, 0, 0, 4]]
    _pinned_bareiss(m, 2, (4, [0, 1, 2, 3, 4], block), eliminated)
    assert _divisions(zlinalg._bareiss, m, 2) == 28
    assert _divisions(_one_step_bareiss, m, 2) == 30
    # row 0 and column 0 are even, so step 0 keeps the whole matrix; then
    # a[1][1] = 0 is a single step, and step 1 swaps in row 2
    m = [[-4, -4, 2], [-2, -2, 0], [-2, -1, 0]]
    _pinned_bareiss(m, 2, (-4, [0, 1, 2], m), [[-4, -4, 2], [0, -4, 4], [0, 0, 4]])


def test_bareiss_last_pair():
    # n = 2: the pair (0, 1) ends the loop, or with avoid = 5 the last
    # pivot 5 is kept as the block
    _pinned_bareiss([[2, 1, 1], [1, 3, 2]], 1, (5, [0, 1], []), [[2, 1, 1], [0, 5, 3]])
    _pinned_bareiss([[2, 1, 1], [1, 3, 2]], 5, (5, [0, 1], [[5]]), [[2, 1, 1], [0, 5, 3]])
    # n = 3, avoid = 2: a[1][1] = -2 after step 0 and row 1 and column 1 are
    # even, so step 1 keeps the block and fuses with step 2, the last
    m = [[-1, 1, -1, 1], [1, 1, 3, 1], [2, -2, 3, -1]]
    eliminated = [[-1, 1, -1, 1], [0, -2, -2, -2], [0, 0, -2, -2]]
    _pinned_bareiss(m, 2, (-2, [0, 1, 2], [[-2, -2], [0, -1]]), eliminated)


def test_smith_invariants_local_zero_column_sends_every_prime_local():
    # b = 0 gives y = 0 and s = 1, so every prime of det goes to the local step
    rng = random.Random(37)
    cases = [[[4, 0, 0], [0, 6, 0], [0, 0, 9]], [[2, 4], [6, 8]]]
    cases += [_random_matrix(rng, 4, 4) for _ in range(30)]
    for m in cases:
        if det_int(m):
            assert _local_route(m, [0] * len(m)) == snf(m), m


def test_smith_invariants_local_two_primes_of_high_valuation():
    # diag(2^10 3^7, 2^5 3^9, 2^3) hidden by unimodular row and column steps
    m = [[2**10 * 3**7, 0, 0], [0, 2**5 * 3**9, 0], [0, 0, 2**3]]
    rng = random.Random(41)
    for _ in range(12):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-3, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        i, j = rng.sample(range(3), 2)
        for row in m:
            row[i] += c * row[j]
    assert snf(m) == [2**3, 2**5 * 3**7, 2**10 * 3**9]
    assert _local_route(m, [1, -2, 5]) == snf(m)
    assert _local_route(m, [0, 0, 0]) == snf(m)
    assert _local_exponents(m, 3, 17) == [0, 7, 9]
    assert _local_exponents(m, 2, 19) == [3, 5, 10]
    # a composite modulus serves while every pivot's unit part is a unit;
    # otherwise the elimination names a factor of it
    assert _local_exponents([[6, 0], [0, 36]], 6, 3) == [1, 2]
    assert zlinalg._local_smith([[2, 0], [0, 3]], 6, 2, track=False) == (2, [], None, None)


def test_smith_invariants_local_splits_cofactor_above_trial_bound():
    q = 2**61 - 1  # prime, above TRIAL_BOUND**2, so trial division leaves it
    assert _local_route([[q, 0], [0, q]], [1, 1]) == [q, q]
    # b = 0 leaves the cofactor q^2 r; its elimination meets the pivot q r,
    # which is no unit mod q^2 r, so the modulus splits into q and r
    r = 2**31 - 1
    m = [[q * r, 0], [0, q]]
    assert _local_route(m, [0, 0]) == snf(m) == [q, q * r]
    # a cofactor that trial division can still prove prime goes local
    assert _local_route([[65537, 0], [0, 65537]], [1, 1]) == [65537, 65537]


def test_smith_invariants_local_checks_exponent_sum():
    # a wrong determinant: the local exponents at 2 sum to 2, not v_2(8) = 3
    with pytest.raises(ConsistencyError):
        smith_invariants_local([[2, 0], [0, 2]], 8, [0, 0])


def test_hnf_snf_pivot_products_agree():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = _random_matrix(rng, n, n)
        if det_int(m) == 0:
            continue
        ppiv = 1
        for p in hnf_pivots(m):
            ppiv *= p
        pinv = 1
        for d in smith_invariants(m):
            pinv *= d
        assert ppiv == pinv == abs(det_int(m))


def test_lattice_index_basics():
    # difference vectors themselves span the whole lattice
    rows = [[1, -1, 0], [0, 1, -1]]
    assert lattice_index(rows) == 1
    assert lattice_index([], size=1) == 1
    assert lattice_index([[2, -2]]) == 2
    assert lattice_index([[0, 0, 0], [0, 1, -1]]) == 0  # dependent


def test_lattice_index_validation():
    with pytest.raises(ValueError):
        lattice_index([[1, 0]])  # nonzero coordinate sum
    with pytest.raises(ValueError):
        lattice_index([[1, -1, 0]])  # wrong row count


def test_lattice_index_unimodular_invariance():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randrange(2, 6)
        rows = []
        for _ in range(n - 1):
            row = [rng.randrange(-6, 7) for _ in range(n - 1)]
            rows.append(row + [-sum(row)])
        base = lattice_index(rows)
        mixed = [row[:] for row in rows]
        for _ in range(6):
            i, j = rng.randrange(n - 1), rng.randrange(n - 1)
            if i != j:
                c = rng.choice((-2, -1, 1, 2))
                mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
        assert lattice_index(mixed) == base
