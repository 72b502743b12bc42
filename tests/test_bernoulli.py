import hashlib
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits import bernoulli, classgroup
from modunits.bernoulli import (
    _even_character_orbits,
    _unit_logs,
    _orbit_norm,
    b2_chi0,
    b2_chi_numeric,
    b2_primitive_numeric,
    bernoulli_matrix,
    bernoulli_matrix_det,
    conductor,
    cyclotomic,
    enumerate_even_characters,
    nonprincipal_quarter_product,
    primitive_angle,
    primitive_value,
    yu_prefactor,
)
from modunits.errors import ConsistencyError
from modunits.numtheory import b2, divisors, euler_phi, factorize, is_prime
from modunits.siegel import LevelContext
from modunits.zlinalg import det, det_int, mat_mul


def test_matrix_entries_generator_ordering():
    m = bernoulli_matrix(13, generator=7)
    assert m[0][0] == Fraction(97, 156)
    assert m[0][1] == Fraction(-83, 156)
    # each row is a cyclic shift of the first in this ordering
    first = m[0]
    for i, row in enumerate(m):
        assert row == first[i:] + first[:i]


def test_matrix_rejects():
    with pytest.raises(ValueError):
        bernoulli_matrix(4)
    with pytest.raises(ValueError):
        bernoulli_matrix(13, generator=4)  # not a generator mod +-1


def test_row_sums_equal_quarter_b2_chi0():
    for N in (13, 21, 27, 32, 36, 40):
        m = bernoulli_matrix(N)
        target = Fraction(1, 4) * b2_chi0(N)
        for row in m:
            assert sum(row) == target


def test_entry_denominators_divide_12N():
    for N in (13, 21, 36):
        for row in bernoulli_matrix(N):
            for x in row:
                assert (12 * N) % x.denominator == 0
    # the integer kernel against (N/2) * B2 through numtheory.b2, both layouts
    for N, gen in ((13, None), (21, None), (36, None), (13, 7), (27, 2)):
        idx = [a for a in range(1, N // 2 + 1) if gcd(a, N) == 1]
        n = len(idx)
        if gen is None:
            args = [[a * pow(c, -1, N) for c in idx] for a in idx]
        else:
            args = [[pow(gen, i + j, N) for j in range(n)] for i in range(n)]
        want = [[Fraction(N, 2) * b2(Fraction(g, N)) for g in row] for row in args]
        assert bernoulli_matrix(N, gen) == want


def test_b2_chi0_values():
    assert b2_chi0(13) == -2
    assert b2_chi0(6) == Fraction(1, 3)
    for N in (4, 6, 8, 9, 10, 12, 36, 100):
        assert b2_chi0(N) == N * sum(b2(Fraction(a, N)) for a in range(1, N) if gcd(a, N) == 1)
    with pytest.raises(ValueError):
        b2_chi0(2)


def test_b2_chi0_prime_via_distribution():
    # direct summation oracle against the M=1 distribution collapse
    for p in (3, 5, 7, 11, 13, 17):
        direct = p * sum(b2(Fraction(a, p)) for a in range(1, p))
        assert b2_chi0(p) == direct
        assert direct == b2(0) - p * b2(0)  # p*sum_{a=0}^{p-1} B2(a/p) = B2(0)


def test_distribution_identity_exact():
    # N * sum_k B2((k*M + a)/N) == M * B2(a/M) for all N = n*M <= 30
    for N in range(2, 31):
        for M in range(1, N):
            if N % M:
                continue
            n = N // M
            for a in range(1, M):
                lhs = N * sum(b2(Fraction(k * M + a, N)) for k in range(n))
                assert lhs == M * b2(Fraction(a, M)), (N, M, a)


def test_enumerate_even_characters_counts():
    assert len(enumerate_even_characters(13)) == 6
    assert len(enumerate_even_characters(21)) == 6
    assert len(enumerate_even_characters(8)) == 2
    for N in range(3, 50):
        chars = enumerate_even_characters(N)
        assert len(chars) == euler_phi(N) // 2
        assert not any(chars[0].exponents)  # the principal character first
        assert all(c.angle(N - 1) == 0 for c in chars)


def test_character_multiplicativity():
    rng = random.Random(31)
    for N in (13, 16, 21, 24, 36, 40):
        for chi in enumerate_even_characters(N):
            for _ in range(20):
                a, b = rng.randrange(1, N), rng.randrange(1, N)
                va, vb, vab = chi(a), chi(b), chi(a * b % N)
                assert abs(va * vb - vab) < 1e-12


def test_unit_logs_table():
    rng = random.Random(25)
    for N in range(3, 400):
        orders, L, logs = _unit_logs(N)
        assert sorted(logs) == [a for a in range(N) if gcd(a, N) == 1], N
        assert prod(orders) == euler_phi(N) and L == lcm(*orders)
        assert len(set(logs.values())) == len(logs)  # a unit is its logs
        assert all(pow(a, L, N) == 1 for a in logs)
        units = list(logs)
        for _ in range(10):
            a, b = rng.choice(units), rng.choice(units)
            assert logs[a * b % N] == tuple((s + t) % L for s, t in zip(logs[a], logs[b])), (N, a, b)


def test_angles_at_non_units_and_conductor_one():
    for N in (12, 21, 36, 40):
        for chi in enumerate_even_characters(N):
            assert all(chi.angle(a) is None for a in range(N) if gcd(a, N) > 1)
            assert chi(N) == 0
            f = conductor(chi)
            if f == 1:
                assert all(primitive_angle(chi, a) == 0 for a in range(N))
            else:
                assert all(primitive_angle(chi, a) is None for a in range(2 * f) if gcd(a, f) > 1)
                assert primitive_value(chi, f) == 0
    chi0 = enumerate_even_characters(36)[0]
    assert conductor(chi0) == 1 and primitive_angle(chi0, 6) == 0


def test_principal_character_numeric():
    chi0 = enumerate_even_characters(13)[0]
    assert abs(b2_chi_numeric(chi0) - (-2)) < 1e-12
    assert conductor(chi0) == 1


def test_det_matches_character_product():
    # |det| of the Bernoulli matrix vs the numeric product over all even chi
    for N in range(5, 61):
        prod = 1 + 0j
        for chi in enumerate_even_characters(N):
            prod *= b2_chi_numeric(chi) / 4
        d = bernoulli_matrix_det(N)
        assert abs(abs(complex(d)) - abs(prod)) <= 1e-9 * abs(prod), N


def test_conductor_relation_numeric():
    # B_{2,chi} = B_{2,chi_f} * prod_{p | N, p !| f} (1 - chi_f(p) p), to 1e-9
    for N in range(3, 61):
        for chi in enumerate_even_characters(N):
            f = conductor(chi)
            expected = b2_primitive_numeric(chi)
            for p, _ in factorize(N):
                if f % p:
                    expected *= 1 - primitive_value(chi, p) * p
            got = b2_chi_numeric(chi)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (N, f)


def test_imprimitive_mod21_example():
    # a character mod 21 induced from conductor 7
    chars = [c for c in enumerate_even_characters(21) if conductor(c) == 7]
    assert chars
    for chi in chars:
        lhs = b2_chi_numeric(chi)
        rhs = b2_primitive_numeric(chi) * (1 - primitive_value(chi, 3) * 3)
        assert abs(lhs - rhs) < 1e-9


def test_yu_prefactor_values():
    for p in (5, 7, 13, 31):
        assert yu_prefactor(p) == p
    assert yu_prefactor(21) == 7
    assert yu_prefactor(27) == 243
    assert yu_prefactor(8) == 2
    with pytest.raises(ValueError):
        yu_prefactor(4)


def test_class_number_assembly_examples():
    assert yu_prefactor(13) * nonprincipal_quarter_product(13) == 19
    assert yu_prefactor(8) * nonprincipal_quarter_product(8) == 1
    assert yu_prefactor(21) * nonprincipal_quarter_product(21) == 182


def test_squarefree_remark_identity_n21():
    # det Q = (1 + 3^3)(1 + 7) * prod_chi (1/4) B_{2,chi}, last-row sum 16
    M21 = bernoulli_matrix(21, generator=2)
    W3 = [[27, 3, 9], [9, 27, 3], [3, 9, 27]]
    V3 = [[Fraction(-W3[i % 3][j % 3], 26) for j in range(6)] for i in range(6)]
    V7 = [[Fraction(-7, 6)] * 6 for _ in range(6)]
    eye = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    sub = lambda A, B: [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]
    upper = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(6):
        upper[i][i] = Fraction(1)
        if i + 1 < 6:
            upper[i][i + 1] = Fraction(-1)
    Q = mat_mul(upper, mat_mul(sub(eye, V3), mat_mul(sub(eye, V7), M21)))
    assert abs(det(Q)) == abs(28 * 8 * bernoulli_matrix_det(21))
    assert sum(Q[5]) == 16
    assert abs(det(Q)) / 16 == 182


def _bareiss_quarter_product(N):
    return abs(bernoulli_matrix_det(N)) / abs(Fraction(1, 4) * b2_chi0(N))


def test_quarter_product_matches_bareiss():
    # the orbit norms against the whole-matrix determinant over B_{2,chi0};
    # G = (Z/NZ)^x/+-1 is not cyclic at N = 24, 60, 84, 120 and 420, among others
    for N in list(range(5, 121)) + [127, 169, 243, 256, 420]:
        assert nonprincipal_quarter_product(N) == _bareiss_quarter_product(N), N


@pytest.mark.extended
def test_quarter_product_matches_bareiss_to_300():
    for N in range(5, 301):
        assert nonprincipal_quarter_product(N) == _bareiss_quarter_product(N), N


def test_character_orbits():
    # (Z/24Z)^x/+-1 = (Z/2)^2: three orbits of one quadratic character each
    assert [d for d, _ in _even_character_orbits(24)] == [2, 2, 2]
    # cyclic G of order 6 at N = 13: one orbit per divisor d > 1 of 6
    assert sorted(d for d, _ in _even_character_orbits(13)) == [2, 3, 6]
    for N in (13, 24, 60, 81):
        orbits = _even_character_orbits(N)
        assert sum(euler_phi(d) for d, _ in orbits) == euler_phi(N) // 2 - 1
        for d, exps in orbits:
            assert all(0 <= e < d for e in exps)
            assert exps[0] == 0  # chi(1) = 1


def _orbits_digest(hi):
    h = hashlib.sha256()
    for N in range(3, hi + 1):
        h.update(repr((N, _even_character_orbits(N))).encode())
    return h.hexdigest()


def test_character_orbits_pinned_to_300():
    # SHA-256 of repr((N, _even_character_orbits(N))) for 3 <= N <= 300
    assert _orbits_digest(300) == "30a71d29891f95afc9fcc5caa23961ae595f14e15201b0d3c57f40bac8c586ab"


@pytest.mark.extended
def test_character_orbits_pinned_to_1200():
    assert _orbits_digest(1200) == "965620fccb85619675e91e4fec2c3c52cd8e912393f16fa948588e42a5e5d74e"


def test_character_angles_pinned_to_60():
    # per even character, in enumeration order: N, the conductor f, the
    # angle at every residue mod N and the primitive angle at every residue mod f
    h = hashlib.sha256()
    for N in range(3, 61):
        for chi in enumerate_even_characters(N):
            f = conductor(chi)
            row = (N, f, [chi.angle(a) for a in range(N)], [primitive_angle(chi, a) for a in range(f)])
            h.update(repr(row).encode())
    assert h.hexdigest() == "10367fcb514703420c5f6e74b7674bf0374ebee0e5fc3cac9f7c3937b7693e21"


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_products():
    for m in range(1, 121):
        prod = [1]
        for d in divisors(m):
            assert len(cyclotomic(d)) == euler_phi(d) + 1 and cyclotomic(d)[-1] == 1
            prod = _poly_mul(prod, cyclotomic(d))
        assert prod == [-1] + [0] * (m - 1) + [1], m
    assert cyclotomic(105)[7] == -2 and min(cyclotomic(105)) == -2
    assert cyclotomic(1) == (-1, 1) and cyclotomic(2) == (1, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_orbit_norm_values():
    # Res(Phi_3, 2 + x) = (2 + w)(2 + w^2) = 4 - 2 + 1 = 3
    assert _orbit_norm([2, 1, 0], 3) == 3
    assert _orbit_norm([4, 2, 0], 3) == 2**2 * 3  # the content comes back as g^phi(d)
    # Res(Phi_4, 1 + x) = (1 + i)(1 - i) = 2, given unreduced
    assert _orbit_norm([1, 1, 0, 0], 4) == 2
    assert _orbit_norm([0, 0, 0, 1], 4) == 1  # x^3 = -i is a unit
    with pytest.raises(ConsistencyError):
        _orbit_norm([0] * 6, 6)
    with pytest.raises(ConsistencyError):
        _orbit_norm([1, 1, 1], 3)  # Phi_3 itself vanishes at zeta_3


def _matrix_orbit_norm(coeffs, d):
    # the reference: the determinant of multiplication by C on Z[x]/Phi_d,
    # whose rows are x^i * C reduced mod the monic Phi_d, for i < phi(d)
    phi = cyclotomic(d)
    m = len(phi) - 1
    row = list(coeffs)
    for i in range(len(row) - 1, m - 1, -1):
        for j in range(m):
            row[i - m + j] -= row[i] * phi[j]
    row, rows = row[:m], []
    for _ in range(m):
        rows.append(row)
        t = row[-1]
        row = [0] + row[:-1]
        row = [r - t * c for r, c in zip(row, phi)]
    return det_int(rows)


# primes, prime powers, and composite d; Phi_105 has a coefficient -2
NORM_ORDERS = (2, 3, 5, 7, 13, 31, 4, 8, 9, 16, 25, 27, 49, 12, 60, 105)


@st.composite
def orbit_polys(draw):
    d = draw(st.sampled_from(NORM_ORDERS))
    g = draw(st.integers(1, 12))
    # mostly zero small entries give remainders whose degree drops by more
    # than one, where the sign and the h-update of the sequence matter
    sparse = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))
    entries = draw(st.sampled_from((sparse, st.integers(-40, 40))))
    coeffs = draw(st.lists(entries, min_size=d, max_size=d))
    return [g * c for c in coeffs], d


@settings(max_examples=120, deadline=None)
@given(orbit_polys())
def test_orbit_norm_matches_matrix_reference(case):
    coeffs, d = case
    ref = _matrix_orbit_norm(coeffs, d)
    if ref == 0:  # C = 0 mod Phi_d
        with pytest.raises(ConsistencyError):
            _orbit_norm(coeffs, d)
    else:
        assert _orbit_norm(coeffs, d) == ref


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_norm_of_a_multiple_of_phi_raises(data):
    d = data.draw(st.sampled_from(NORM_ORDERS))
    m = euler_phi(d)
    q = data.draw(st.lists(st.integers(-9, 9), min_size=d - m, max_size=d - m).filter(any))
    with pytest.raises(ConsistencyError):
        _orbit_norm(_poly_mul(cyclotomic(d), q), d)


def test_orbit_norm_checks_that_phi_is_irreducible(monkeypatch):
    # x^2 - 1 in place of Phi_2 shares the factor x + 1 with C = 1 + x
    monkeypatch.setattr(bernoulli, "cyclotomic", lambda d: (-1, 0, 1))
    with pytest.raises(ConsistencyError, match="irreducible"):
        _orbit_norm([1, 1], 2)


def _orbit_polys(N):
    # (d, C) per orbit, as `nonprincipal_quarter_product` builds them
    ctx = LevelContext.of(N)
    keys = [ctx.lead_keys[a] for a in ctx.cusps]
    for d, exps in _even_character_orbits(N):
        coeffs = [0] * d
        for k, e in zip(keys, exps):
            coeffs[e] += k
        yield d, coeffs


def _assert_norm_mod_primes(coeffs, d):
    # where the matrix is too slow: Res(Phi_d, C) = prod C(w^k) mod q over
    # gcd(k, d) = 1, with w of order d mod a prime q = 1 mod d
    norm = _orbit_norm(coeffs, d)
    q, checked = (1 << 61) // d * d + 1, 0
    while checked < 2:
        q += d
        if not is_prime(q):
            continue
        w = next(
            w
            for w in (pow(x, (q - 1) // d, q) for x in range(2, q))
            if all(pow(w, d // p, q) != 1 for p, _ in factorize(d))
        )
        expected = 1
        for k in range(1, d):
            if gcd(k, d) == 1:
                z, v = pow(w, k, q), 0
                for c in reversed(coeffs):
                    v = (v * z + c) % q
                expected = expected * v % q
        assert norm % q == expected, (d, q)
        checked += 1


def test_orbit_norm_mod_primes_at_729():
    (coeffs,) = [c for d, c in _orbit_polys(729) if d == 243]
    _assert_norm_mod_primes(coeffs, 243)


@pytest.mark.extended
def test_orbit_norm_mod_primes_at_1331():
    (coeffs,) = [c for d, c in _orbit_polys(1331) if d == 605]
    _assert_norm_mod_primes(coeffs, 605)
    h = classgroup.class_number_yu(1331)
    assert isinstance(h, int) and h > 0


def test_no_determinant_on_the_analytic_route(monkeypatch):
    def refuse(rows):
        raise AssertionError("det_int called on the analytic route")

    monkeypatch.setattr(bernoulli, "det_int", refuse)
    assert classgroup.class_number_yu.__wrapped__(243) > 0  # past the cache
    for N in range(5, 101):
        assert nonprincipal_quarter_product(N) > 0


def test_orbit_coverage_check(monkeypatch):
    real = bernoulli._even_character_orbits
    for doctor in (lambda o: o[1:], lambda o: o + o[:1]):
        monkeypatch.setattr(bernoulli, "_even_character_orbits", lambda N, f=doctor: f(real(N)))
        with pytest.raises(ConsistencyError):
            nonprincipal_quarter_product(60)
