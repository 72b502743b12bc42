import dataclasses
import hashlib
import random
import tracemalloc
from array import array
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits import classgroup, zlinalg
from modunits.basis import BasisElement, basis
from modunits.bernoulli import bernoulli_matrix
from modunits.classgroup import (
    ClassGroupReport,
    ConjectureReport,
    ConsistencyError,
    GroupStructure,
    analyze,
    class_coordinates,
    class_number_lattice,
    class_number_yu,
    conjecture_report,
    divisor_matrix,
    generators,
    is_principal,
    p_primary,
    predicted_multiplicity,
    predicted_p_rank,
    primary_notation,
    structure,
)
from modunits.corpus import mixed_primary_rows
from modunits.numtheory import euler_phi, factorize, order_in_units_mod_pm1
from modunits.siegel import LevelContext, UnitProduct, normalize_index
from modunits.zlinalg import det, hnf_pivots, lattice_index, mat_mul, snf


def _order_of(N, div):
    return lcm(*(d // gcd(d, r) for r, d in class_coordinates(N, div))) if class_coordinates(N, div) else 1


def test_structure_independent_of_generator_override():
    # analyze checks the lattice route against the analytic route for every
    # override, at primes, odd prime powers and powers of two alike.  Every
    # basis spans the same principal lattice, so the queries without an
    # override also decide membership for the generators an override gives
    for N in range(5, 65):
        if len(factorize(N)) != 1:
            continue
        n = euler_phi(N) // 2
        gens = [g for g in range(2, N // 2 + 1) if gcd(g, N) == 1 and order_in_units_mod_pm1(g, N) == n]
        assert gens, N
        for g in gens[:3]:
            report = analyze(N, g)
            assert report.structure == structure(N), (N, g)
            if N in (13, 25, 27, 32):
                for div, d in report.generators:
                    assert is_principal(N, [d * x for x in div]), (N, g, d)
                    assert not is_principal(N, div), (N, g, d)


def test_class_numbers_examples():
    assert class_number_lattice(13) == 19
    assert class_number_yu(13) == 19
    assert class_number_yu(27) == 157491
    assert class_number_yu(49) == 7**3 * 113 * 2437 * 1940454849859
    assert class_number_lattice(32) == 279360
    assert class_number_lattice(36) == 31248
    assert class_number_yu(8) == 1


def test_class_number_yu_pinned_at_large_levels():
    # no lattice route runs at these levels in tier-1, so the full decimal
    # digits of the analytic class number are pinned by their SHA-256
    pinned = {
        729: (681, "9fa0ac7dff05bd611336a37cfd56337ea8acce664a15421c30f14f04ea5fd1de"),
        1024: (782, "684db0bea779fdbd287fcf8d38e2677206d5c7259bbe566d28f8416cf078fbd4"),
        1458: (827, "839bd707489dedabfc88148ea3d346e385a02cdfaa54b0ba0cd15a3f5a9bd473"),
    }
    for N, (digits, digest) in pinned.items():
        h = str(class_number_yu(N))
        assert len(h) == digits, N
        assert hashlib.sha256(h.encode()).hexdigest() == digest, N


def test_analyze_rejects_small_level():
    with pytest.raises(ValueError):
        analyze(4)


def test_analyze_one_cache_entry_per_level():
    report = analyze(13)
    assert analyze(13, None) is report
    assert analyze(13, generator=None) is report
    assert analyze(13, 7) is not report


def _bare_element(unit):
    return BasisElement(unit, 1)


def test_divisor_rows_refuse_a_bad_element(monkeypatch):
    def refused(unit, message):
        with pytest.raises(ConsistencyError, match=message):
            classgroup._divisor_rows(unit.level, (_bare_element(unit),))

    refused(UnitProduct(13, {1: 1}), "fails the modularity congruences")
    # the order of E1 at cusp 1/13 is unit_lead_key(13, 1) / 156 = 97/156
    with monkeypatch.context() as m:
        m.setattr(classgroup, "is_gamma1_modular", lambda unit: True)
        refused(UnitProduct(13, {1: 1}), "non-integral divisor")
    # modular with integral orders, but of degree -78
    refused(UnitProduct(13, {1: 156}), "nonzero degree")
    # modular at the composite level 21, but the orbit sums do not vanish
    refused(UnitProduct(21, {1: 252}), "violates the orbit condition")
    good = _bare_element(UnitProduct(13, {1: 1, 3: 4, 6: -5}))
    assert classgroup._divisor_rows(13, (good,)) == [[3, -5, 1, 1, 2, -2]]


def test_analyze_stage_names():
    stages = ("basis", "divisors", "analytic", "det_solve", "local_smith")
    for N in (13, 36, 72):
        timings = analyze(N).timings
        assert tuple(name for name, _ in timings) == stages
        assert all(t >= 0 for _, t in timings)


def test_report_hashable_with_short_repr():
    # the divisor rows and the elimination state stay out of the hash and
    # the repr; the kept block holds lists, and pytest prints the repr of
    # a report on any failed assertion about it
    for N in (13, 36, 97):
        assert hash(analyze(N)) == hash(analyze(N))
    assert len(repr(analyze(243))) < 15_000
    # nor do the timings count: a second analysis of a level is equal
    first = analyze(13)
    classgroup._analyze.cache_clear()
    again = analyze(13)
    assert again is not first
    assert again == first and hash(again) == hash(first)


def test_report_rebuilds_its_basis_and_packs_its_rows():
    # the report holds no basis: it rebuilds the one its generator gives
    assert "basis" not in {f.name for f in dataclasses.fields(ClassGroupReport)}
    for N, g in ((13, 7), (72, None), (243, None)):
        report = analyze(N, g)
        assert report.basis == tuple(basis(N, g)), (N, g)
    # the generator takes the basis's place in the equality
    assert analyze(13, 7) != analyze(13) and analyze(13, 7).structure == analyze(13).structure
    for N in range(5, 61):
        rows = analyze(N).matrix
        assert all(isinstance(row, array) and row.typecode == "q" for row in rows), N
        assert [list(row) for row in rows] == divisor_matrix(N), N


def test_clearing_the_report_cache_frees_under_1_8_megabytes():
    # the reports of the 5 <= N <= 100 sweep hold about 1.25 MB; with the
    # basis and the rows as tuples of ints in each report they held 2.3 MB
    classgroup._analyze.cache_clear()
    tracemalloc.start()
    try:
        for N in range(5, 101):
            analyze(N)
        held = tracemalloc.get_traced_memory()[0]
        classgroup._analyze.cache_clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 1.8e6, freed


def test_analyze_splits_unfactored_cofactor(monkeypatch):
    # with no trial division h/s at N = 72 is one composite modulus; the
    # local eliminations split it into its 2- and 3-parts
    expected = structure(72)
    splits = []
    local_smith = zlinalg._local_smith

    def spy(*args):
        out = local_smith(*args)
        splits.append(out[0])
        return out

    monkeypatch.setattr(zlinalg, "TRIAL_BOUND", 0)
    monkeypatch.setattr(zlinalg, "_local_smith", spy)
    classgroup._analyze.cache_clear()
    try:
        report = analyze(72)
        assert [name for name, _ in report.timings][-1] == "local_smith"
        assert report.structure == expected
        assert any(g > 1 for g in splits)
        gens = generators(72)
        assert tuple(d for _, d in gens) == expected.invariants
        for div, d in gens:
            assert _order_of(72, div) == d
            assert is_principal(72, [d * x for x in div])
            assert not is_principal(72, div)
    finally:
        classgroup._analyze.cache_clear()


@pytest.mark.parametrize("N", [72, 169, 243])
def test_local_smith_runs_on_the_kept_block(monkeypatch, N):
    # analyze's solve keeps pivots coprime to h, so the local step starts
    # past them, on a trailing block smaller than the partial-sum matrix
    expected = analyze(N)
    sizes = []
    local_smith = zlinalg._local_smith

    def spy(m, *args):
        sizes.append(len(m))
        return local_smith(m, *args)

    monkeypatch.setattr(zlinalg, "_local_smith", spy)
    classgroup._analyze.cache_clear()
    try:
        assert analyze(N).structure == expected.structure
    finally:
        classgroup._analyze.cache_clear()
    assert sizes and max(sizes) < len(expected.matrix), (sizes, len(expected.matrix))


def test_a_wrong_kept_block_fails_the_exponent_sum(monkeypatch):
    # one row of the block times a prime r of h/s = gcd(h, y) adds 1 to the
    # local exponents mod r, which then no longer sum to v_r(h)
    N = 72
    det, y = analyze(N).solve
    r = min(p for p, _ in factorize(gcd(det, *y)))
    det_solve = classgroup.det_solve

    def spoiled(*args):
        d, v, block, *lift = det_solve(*args)
        return d, v, [[r * x for x in block[0]]] + block[1:], *lift

    monkeypatch.setattr(classgroup, "det_solve", spoiled)
    classgroup._analyze.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=f"local Smith exponents mod {r} "):
            analyze(N)
    finally:
        classgroup._analyze.cache_clear()


@pytest.mark.parametrize("N", [72, 169, 243])
def test_quotient_runs_on_the_kept_block(monkeypatch, N):
    # generators and coordinates come from the block that analyze's solve
    # kept, lifted through its pivot rows: the tracked local step never
    # sees the whole partial-sum matrix
    classgroup._analyze.cache_clear()
    try:
        report = analyze(N)
        sizes = []
        local_smith = zlinalg._local_smith

        def spy(m, *args):
            sizes.append(len(m))
            return local_smith(m, *args)

        monkeypatch.setattr(zlinalg, "_local_smith", spy)
        gens = report.generators
    finally:
        classgroup._analyze.cache_clear()
    assert sizes and max(sizes) < len(report.matrix), (sizes, len(report.matrix))
    assert tuple(d for _, d in gens) == report.structure.invariants


@pytest.mark.parametrize("entry", [(0, 1), (-1, -1)])
def test_a_wrong_pivot_row_fails_the_relation_check(monkeypatch, entry):
    # the lift of the block's coordinates reads the pivot rows that the
    # solve kept; one entry of one of them off by 1 (beyond its diagonal)
    # moves a coordinate off the relations, which _quotient checks on all
    # rows of the partial-sum matrix
    i, j = entry
    expected = structure(72)
    det_solve = classgroup.det_solve

    def spoiled(*args):
        d, v, block, rows, cols = det_solve(*args)
        rows[i][j] += 1
        return d, v, block, rows, cols

    monkeypatch.setattr(classgroup, "det_solve", spoiled)
    classgroup._analyze.cache_clear()
    try:
        report = analyze(72)
        assert report.structure == expected  # the block is untouched
        with pytest.raises(ConsistencyError, match="a class coordinate mod [0-9]+ is nonzero on a relation"):
            report.generators
    finally:
        classgroup._analyze.cache_clear()


def _reversed_diagonal(smith_transforms_local):
    def patched(*args):
        diag, F, G = smith_transforms_local(*args)
        return diag[::-1], F, G

    return patched


#: the consistency checks nearest the north star: the classgroup function a
#: row corrupts (given the real one), the level, the call that must raise
#: and the start of its message, which names the level and the check
CONSISTENCY_CHECKS = {
    "group order != h": (
        "smith_invariants_local", lambda real: lambda *args: [2], 11, analyze,
        "N=11: group order 2 != class number 5",
    ),
    "tracked local step != structure": (
        "smith_transforms_local", _reversed_diagonal, 72, lambda N: analyze(N)._quotient,
        "N=72: the tracked local Smith elimination disagrees",
    ),
    "analytic h not a positive integer": (
        "yu_prefactor", lambda real: lambda N: real(N) / 2, 13, class_number_yu,
        "analytic class number for N=13 is not a positive integer: 19/2",
    ),
}


@pytest.mark.parametrize("check", list(CONSISTENCY_CHECKS))
def test_a_consistency_check_fires_and_names_the_level(monkeypatch, check):
    name, corrupt, N, call, message = CONSISTENCY_CHECKS[check]
    monkeypatch.setattr(classgroup, name, corrupt(getattr(classgroup, name)))
    classgroup._analyze.cache_clear()
    class_number_yu.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=f"^{message}"):
            call(N)
    finally:
        classgroup._analyze.cache_clear()
        class_number_yu.cache_clear()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nonzero_on_a_row_matches_the_dot_products(data):
    # the packed relation check against one dot product per row and
    # functional, on signed rows and on functionals that are 0 mod d or not
    n = data.draw(st.integers(1, 6), label="n")
    row = st.lists(st.integers(-60, 60), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=1, max_size=6), label="rows")
    moduli = data.draw(st.lists(st.integers(1, 10**30), max_size=4), label="moduli")
    F = []
    for d in moduli:
        f = data.draw(st.lists(st.integers(-(10**40), 10**40), min_size=n, max_size=n))
        F.append([d * x for x in f] if data.draw(st.booleans()) else f)
    failing = [d for d, f in zip(moduli, F) if any(sum(x * c for x, c in zip(r, f)) % d for r in rows)]
    got = classgroup._nonzero_on_a_row(rows, F, moduli)
    assert (got is None) == (not failing)
    assert got is None or got in failing


@pytest.mark.parametrize("N, p", [(13, 2), (72, 5), (169, 13)])
def test_a_scaled_divisor_row_fails_the_two_routes(monkeypatch, N, p):
    # the lattice side of the two-route check: p times one basis divisor
    # multiplies the lattice index by p and leaves the analytic h as it is
    h = class_number_yu(N)
    divisor_rows = classgroup._divisor_rows

    def scaled(*args):
        rows = divisor_rows(*args)
        return [[p * x for x in rows[0]]] + rows[1:]

    monkeypatch.setattr(classgroup, "_divisor_rows", scaled)
    classgroup._analyze.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=f"N={N}: lattice index {p * h} != analytic class number {h}$"):
            analyze(N)
    finally:
        classgroup._analyze.cache_clear()


@pytest.mark.parametrize("N", [13, 36, 72])
def test_one_det_solve_per_level(monkeypatch, N):
    # generators and coordinates read the solve that analyze kept; every
    # cache of the module starts empty, so nothing is left from other tests
    for obj in vars(classgroup).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    calls = []
    det_solve = classgroup.det_solve

    def spy(*args):
        calls.append(args)
        return det_solve(*args)

    monkeypatch.setattr(classgroup, "det_solve", spy)
    analyze(N)
    assert len(calls) == 1
    gens = generators(N)
    for div, d in gens:
        assert _order_of(N, div) == d
        assert is_principal(N, [d * x for x in div])
        assert not is_principal(N, div)
    assert analyze(N).generators == gens
    assert structure(N) == analyze(N).structure
    assert len(calls) == 1


@pytest.mark.parametrize("N", [13, 37, 61, 97, 127, 169])
def test_det_solve_pivots_stay_within_h(monkeypatch, N):
    # analyze takes the level-N band from its pivot end and the elimination
    # prefers column swaps, so every leading minor is p times a minor of the
    # band's divisors: no Bareiss pivot outgrows h.  In basis order the
    # largest pivot at 127 has 968 bits against 328 for h
    classgroup._analyze.cache_clear()
    calls = []
    det_solve = classgroup.det_solve

    def spy(*args):
        calls.append(args)
        return det_solve(*args)

    monkeypatch.setattr(classgroup, "det_solve", spy)
    report = analyze(N)
    (m, b, h), = calls
    a = [list(row) for row in m]
    zlinalg._bareiss(a, h)
    assert max(abs(a[i][i]).bit_length() for i in range(len(a))) <= h.bit_length()
    coords = classgroup._partial_sum_coords(report.matrix)
    d, y, *_ = det_solve(coords, classgroup._solve_column(len(coords)))
    assert report.solve == (d, tuple(y))


def test_report_generators_property():
    for N in (6, 13, 72):
        assert analyze(N).generators == generators(N)
    assert analyze(6).generators == []


def test_class_coordinates_require_integer_entries():
    D = [19, -19, 0, 0, 0, 0]
    for bad in ([1.5, -1.5, 0, 0, 0, 0], [Fraction(1, 2), Fraction(-1, 2), 0, 0, 0, 0], [float(x) for x in D]):
        with pytest.raises(ValueError, match="integers"):
            class_coordinates(13, bad)
        with pytest.raises(ValueError, match="integers"):
            is_principal(13, bad)
    # divisor(u).orders holds Fractions of denominator 1
    assert class_coordinates(13, [Fraction(x) for x in D]) == class_coordinates(13, D) == [(0, 19)]
    assert is_principal(13, [Fraction(x) for x in D])


def test_divisor_matrix_36_verbatim():
    assert divisor_matrix(36) == [
        [3, -3, -3, 3, 3, -3],
        [6, -4, -2, -2, -4, 6],
        [4, 2, -6, -6, 2, 4],
        [6, 1, 5, -5, -1, -6],
        [5, 6, -1, 1, -6, -5],
    ]


def test_divisor_matrix_rows_sum_zero():
    for N in (13, 27, 36, 42, 60):
        for row in divisor_matrix(N):
            assert sum(row) == 0


def test_prime_13_intermediates_with_override():
    # det(U2 U1 M) = 57/2, last-row sum 3/2, index 19
    M = bernoulli_matrix(13, generator=7)
    n, bsq, p = 6, 4, 13
    U1 = [[0] * n for _ in range(n)]
    U2 = [[0] * n for _ in range(n)]
    for i in range(n):
        U1[i][i] = U2[i][i] = 1
        if i + 1 < n:
            U1[i][i + 1] = -bsq
            U2[i][i + 1] = -1
    U1[n - 1][n - 1] = 1 - bsq
    U2[n - 2][n - 2], U2[n - 2][n - 1], U2[n - 1][n - 1] = p, -p, 1
    P = mat_mul(U2, mat_mul(U1, M))
    assert det(P) == Fraction(57, 2)
    assert sum(P[n - 1]) == Fraction(3, 2)
    assert [int(x) for x in P[0]] == [3, -2, 1, 2, 1, -5]
    rows = [[int(x) for x in r] for r in P[:5]]
    assert lattice_index(rows) == 19
    assert class_number_lattice(13, generator=7) == 19


def _generator_order_matrix(N, a):
    ctx = LevelContext.of(N)
    cusps = [normalize_index(N, pow(a, j, N)) for j in range(len(ctx.cusps))]
    perm = [ctx.cusps.index(c) for c in cusps]
    return [[row[j] for j in perm] for row in analyze(N).matrix]


def test_level_27_intermediates():
    rows = _generator_order_matrix(27, 2)
    assert rows[0] == [0, 2, 0, 1, -2, 4, -1, 0, -4]
    assert rows[5] == [4, -8, -5, -5, 7, 7, 1, 1, -2]
    q = [[Fraction(x) for x in r] for r in rows] + [[Fraction(-3, 4)] * 9]
    assert abs(det(q)) == Fraction(4252257, 4)
    assert lattice_index(rows) == 157491
    assert hnf_pivots(rows) == [1, 1, 1, 1, 1, 1, 3, 52497]
    assert snf(rows) == [3, 52497]


def test_structures_worked_examples():
    assert structure(27).invariants == (3, 52497)
    assert structure(28).invariants == (4, 4, 156)
    assert structure(32).invariants == (2, 12, 11640)
    assert structure(36).invariants == (4, 7812)
    assert structure(42).invariants == (91, 2730)
    assert structure(72).invariants == (4, 12, 36, 144, 9146133360)
    assert structure(13).invariants == (19,)
    assert structure(6).invariants == ()


def test_hnf_pivots_36():
    assert hnf_pivots(divisor_matrix(36)) == [1, 1, 1, 4, 7812]


def test_det_42_with_ones_row():
    m = [[Fraction(x) for x in row] for row in divisor_matrix(42)]
    m.append([Fraction(1)] * 6)
    assert det(m) / 6 == 248430


def test_group_structure_type():
    g = GroupStructure((2, 4, 12))
    assert g.order == 96
    assert len(g.invariants) > 1
    assert str(g) == "[2, 4, 12]"
    assert GroupStructure(()).order == 1
    with pytest.raises(ValueError):
        GroupStructure((3, 4))
    with pytest.raises(ValueError):
        GroupStructure((1, 4))


def test_generators_orders_and_membership():
    for N in (13, 27, 32, 36, 42, 59, 97):
        gens = generators(N)
        orders = sorted(d for _, d in gens)
        assert orders == sorted(structure(N).invariants)
        bits = class_number_yu(N).bit_length()
        prod = 1
        for div, d in gens:
            assert sum(div) == 0
            assert all(abs(x).bit_length() <= bits for x in div)
            assert _order_of(N, div) == d
            assert is_principal(N, [d * x for x in div])
            # trial division cannot factor the 104-bit order at N = 59; the
            # exact order above already rules out every (d/p)*D there
            if d.bit_length() <= 40:
                for e in {q for q, _ in factorize(d)}:
                    assert not is_principal(N, [(d // e) * x for x in div])
            prod *= d
        assert prod == class_number_yu(N)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_class_coordinate_properties(data):
    N = data.draw(st.integers(5, 150), label="N")
    n = LevelContext.of(N).num_cusps

    def degree_zero():
        d = data.draw(st.lists(st.integers(-50, 50), min_size=n - 1, max_size=n - 1))
        return d + [-sum(d)]

    a, b = degree_zero(), degree_zero()
    ca, cb = class_coordinates(N, a), class_coordinates(N, b)
    assert class_coordinates(N, [x + y for x, y in zip(a, b)]) == [
        ((x + y) % d, d) for (x, d), (y, _) in zip(ca, cb)
    ]
    for row in divisor_matrix(N):
        assert all(r == 0 for r, _ in class_coordinates(N, row))
    gens = generators(N)
    h = class_number_yu(N)
    assert prod(d for _, d in gens) == h
    for i, (div, _) in enumerate(gens):
        assert [r for r, _ in class_coordinates(N, div)] == [int(i == j) for j in range(len(gens))]
        assert all(abs(x).bit_length() <= h.bit_length() for x in div)


def _generators_digest(top: int) -> str:
    """SHA-256 of repr((N, generators(N))) concatenated over 5 <= N <= top."""
    h = hashlib.sha256()
    for N in range(5, top + 1):
        h.update(repr((N, generators(N))).encode())
    return h.hexdigest()


def test_generators_pinned_by_hash():
    # the generators read the divisor rows, the solve and the kept block of
    # the report through `_quotient`, so this pins how a report stores them
    assert _generators_digest(200) == "f36f4b3a2079ce9e07fb4973691c8a9260298022c56b0fc95cf4787d9342a709"


@pytest.mark.extended
def test_generators_pinned_by_hash_to_300():
    assert _generators_digest(300) == "4ab615c189dd1eba305fdb4ee66bf3c6d401eb801e03b048bed5543af1d7ecfb"


@pytest.mark.parametrize("N", [343, pytest.param(512, marks=pytest.mark.extended)])
def test_generators_at_large_levels(N):
    # the order and principality checks that perfbench/worker.py makes on
    # each generator item
    gens = generators(N)
    assert tuple(d for _, d in gens) == structure(N).invariants
    cusps = LevelContext.of(N).num_cusps
    for div, d in gens:
        assert len(div) == cusps and sum(div) == 0
        assert is_principal(N, [d * x for x in div])
        assert not is_principal(N, div)
        assert _order_of(N, div) == d


def test_paper_generators_level_27():
    # classes of (P8)-(P9) and (P7)-7415(P8)+7414(P9) have orders 52497 and 3;
    # three times the second is the Hermite row (0,...,0,3,-22245,22242)
    ctx = LevelContext.of(27)
    cusp_pos = {c: i for i, c in enumerate(ctx.cusps)}
    P = [normalize_index(27, pow(2, j, 27)) for j in range(9)]
    v1 = [0] * 9
    v1[cusp_pos[P[7]]] += 1
    v1[cusp_pos[P[8]]] -= 1
    v2 = [0] * 9
    v2[cusp_pos[P[6]]] += 1
    v2[cusp_pos[P[7]]] -= 7415
    v2[cusp_pos[P[8]]] += 7414
    assert _order_of(27, v1) == 52497
    assert _order_of(27, v2) == 3
    assert is_principal(27, [3 * x for x in v2])


def test_paper_generators_level_42():
    # classes of (17/42)-(19/42) and (13/42)+10(17/42)-11(19/42)
    ctx = LevelContext.of(42)
    pos = {c: i for i, c in enumerate(ctx.cusps)}
    v1 = [0] * 6
    v1[pos[17]] = 1
    v1[pos[19]] = -1
    v2 = [0] * 6
    v2[pos[13]] = 1
    v2[pos[17]] = 10
    v2[pos[19]] = -11
    assert _order_of(42, v1) == 2730
    assert _order_of(42, v2) == 91


def test_paper_generators_level_32():
    ctx = LevelContext.of(32)
    pos = {c: i for i, c in enumerate(ctx.cusps)}
    P = [normalize_index(32, pow(3, j, 32)) for j in range(8)]
    v1 = [0] * 8
    v1[pos[P[6]]] = 1
    v1[pos[P[7]]] = -1
    v2 = [0] * 8
    v2[pos[P[5]]] = 1
    v2[pos[P[6]]] = 46
    v2[pos[P[7]]] = -47
    v3 = [0] * 8
    v3[pos[P[4]]] = 1
    v3[pos[P[5]]] = 1
    v3[pos[P[6]]] = -177
    v3[pos[P[7]]] = 175
    assert _order_of(32, v1) == 11640
    assert _order_of(32, v2) == 12
    assert _order_of(32, v3) == 2


def test_membership_criterion_level_13():
    # principal iff degree 0 and 7d1+6d2+17d3+10d4+11d5 = 0 mod 19,
    # coordinates over the cusps P_i = 7^(i-1)/13
    ctx = LevelContext.of(13)
    P = [normalize_index(13, pow(7, j, 13)) for j in range(6)]
    pos = [ctx.cusps.index(c) for c in P]
    rng = random.Random(47)
    agree = 0
    for _ in range(300):
        d = [rng.randrange(-20, 21) for _ in range(5)]
        d.append(-sum(d))
        div = [0] * 6
        for i, x in enumerate(d):
            div[pos[i]] += x
        paper = (7 * d[0] + 6 * d[1] + 17 * d[2] + 10 * d[3] + 11 * d[4]) % 19 == 0
        assert paper == is_principal(13, div)
        agree += paper
    assert 0 < agree < 300  # both outcomes exercised
    # the m = 8 relation: 8(P1) - 9(P2) + (P3) is principal
    div = [0] * 6
    div[pos[0]] += 8
    div[pos[1]] -= 9
    div[pos[2]] += 1
    assert is_principal(13, div)


def test_membership_criterion_level_27():
    ctx = LevelContext.of(27)
    P = [normalize_index(27, pow(2, j, 27)) for j in range(9)]
    pos = [ctx.cusps.index(c) for c in P]
    coef = [-6427, 19882, -2511, 24452, -11942, -7047, 7415, 1]
    rng = random.Random(53)
    agree = 0
    for _ in range(200):
        d = [rng.randrange(-30, 31) for _ in range(8)]
        d.append(-sum(d))
        div = [0] * 9
        for i, x in enumerate(d):
            div[pos[i]] += x
        c1 = sum(c * x for c, x in zip(coef, d))
        c2 = d[0] + d[3] + d[6]
        paper = c1 % 52497 == 0 and c2 % 3 == 0
        assert paper == is_principal(27, div)
        agree += paper
    assert agree < 200


def test_p_primary_examples():
    assert p_primary(32, 2) == {1: 1, 2: 1, 3: 1}
    assert p_primary(27, 3) == {1: 1, 2: 1}
    assert p_primary(25, 5) == {1: 1}
    assert p_primary(42, 7) == {1: 2}
    assert p_primary(13, 7) == {}
    assert primary_notation(p_primary(32, 2), 2) == "(2)(2^2)(2^3)"
    assert primary_notation({}, 3) == "(1)"
    assert primary_notation({2: 5, 4: 1}, 3) == "(3^2)^5(3^4)"
    # unchecked, p = 1 would loop forever, 0 divide by zero and 4 give {}
    for N, p in ((13, 0), (13, 1), (13, 4), (16, 4)):
        with pytest.raises(ValueError):
            p_primary(N, p)


def test_predicted_formulas_spot_values():
    assert predicted_p_rank(3, 4) == 8
    assert predicted_p_rank(2, 5) == 3
    assert predicted_p_rank(5, 2) == 1
    assert predicted_multiplicity(3, 4, 2) == 5
    assert predicted_multiplicity(3, 4, 4) == 1
    assert predicted_multiplicity(2, 5, 2) == 1
    assert predicted_multiplicity(7, 2, 2) == 1
    assert predicted_multiplicity(7, 3, 2) == 17
    assert predicted_multiplicity(3, 4, 6) == 0


def test_conjecture_report_agreement():
    for p, n in ((2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)):
        rep = conjecture_report(p, n)
        assert isinstance(rep, ConjectureReport)
        assert rep.regular
        assert rep.agrees, (p, n, rep)


def test_conjecture_report_rejects():
    with pytest.raises(ValueError):
        conjecture_report(2, 2)  # 4 < 8
    with pytest.raises(ValueError):
        conjecture_report(5, 1)


def test_p_primary_reconstructs_invariants():
    for N in (32, 36, 42, 72):
        st = structure(N)
        acc = [1] * len(st.invariants)
        for p in {q for q, _ in factorize(st.order)}:
            parts = p_primary(N, p)
            expanded = []
            for e, m in sorted(parts.items()):
                expanded.extend([p**e] * m)
            # largest p-parts attach to largest invariants
            for k, v in enumerate(reversed(expanded)):
                acc[len(acc) - 1 - k] *= v
        assert tuple(acc) == st.invariants


# mixed reference rows up to level 768 that the acceptance criteria do not compute
@pytest.mark.parametrize(
    "key",
    ["2*7", "2*3^2", "3*2^3", "6*5", "4*3^2", "6*7", "2*5^2", "3*2^5", "2*7^2",
     "2*3^4", "3*2^6", "2*5^3", "6*7^2", "4*3^4", "3*2^7", "2*3^5", "6*5^3"]
    + [
        pytest.param(key, marks=pytest.mark.extended)
        for key in ("2*7^3", "3*2^8", "2*5^4", "2*3^6", "3*2^9", "6*7^3")
    ],
)
def test_mixed_primary_rows(key):
    row = mixed_primary_rows()[key]
    assert p_primary(row.level, row.p) == row.parts_dict()


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@pytest.mark.extended
def test_level_972_three_part_contradicts_reference_row():
    # the reference row "4*3^5" lists (3^6)^6 where every route here gives
    # (3^6)^4: its 3-exponents sum to 164, above v_3(h) = 152, so the row
    # cannot describe a group of order h and is taken as a table error
    parts = p_primary(972, 3)
    assert parts == {2: 36, 4: 12, 6: 4, 8: 1}
    v3 = sum(e * m for e, m in parts.items())
    assert v3 == 152 == _valuation(class_number_yu(972), 3)
    assert _valuation(class_number_lattice(972), 3) == 152
    row = mixed_primary_rows()["4*3^5"]
    assert row.level == 972
    assert sum(e * m for e, m in row.parts_dict().items()) == 164 > v3
