import hashlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits.basis import basis
from modunits.qexpansion import (
    QSeries,
    expand_product,
    expand_unit,
    series_equal,
    series_mul,
    to_level,
    unit_lead_key,
)
from modunits.siegel import UnitProduct


def test_leading_exponent_grid():
    # level 5, index 1: leading exponent 11/300 = 1/60 recomputed exactly
    s = expand_unit(5, 1, 8)
    assert s.lead_key == 1  # key 1 on the 1/60 grid
    assert s.coeffs[0][1] == 1
    assert unit_lead_key(5, 1) == 6 - 30 + 25


def test_lead_key_formula_matches_b2():
    from modunits.numtheory import b2

    for N in (5, 8, 13, 36):
        for g in range(1, N):
            assert Fraction(unit_lead_key(N, g), 12 * N) == Fraction(N, 2) * b2(Fraction(g, N))


def test_mirror_index_gives_identical_series():
    assert series_equal(expand_unit(13, 3), expand_unit(13, 10))
    assert series_equal(expand_unit(36, 5), expand_unit(36, 31))


def test_expand_unit_rejects():
    with pytest.raises(ValueError):
        expand_unit(12, 24, 8)
    with pytest.raises(ValueError):
        expand_unit(12, 1, 0)


def test_mul_identity_and_inverse():
    s = expand_unit(13, 1, 8)
    one = expand_product(UnitProduct(13, {}), 8)
    assert one.coeffs == ((0, 1),)
    assert series_equal(series_mul(s, one), s)
    assert series_mul(s, expand_product(UnitProduct(13, {1: -1}), 8)).coeffs == ((0, 1),)


def test_product_power_matches_repeated_mul():
    s = expand_unit(9, 2, 8)
    cube = series_mul(series_mul(s, s), s)
    assert series_equal(expand_product(UnitProduct(9, {2: 3}), 8), cube)


def test_rescale_matches_direct_expansion():
    # g_1 at level 12 under tau -> 3 tau is g_3 at level 36: the exponent
    # grid refines by 3 and the exponents scale by 3, so keys scale by 9
    s = expand_unit(12, 1, 10)
    scaled = QSeries(36, tuple((9 * k, c) for k, c in s.coeffs), 9 * s.trunc_key)
    assert series_equal(scaled, expand_unit(36, 3, 10))


def test_fiber_product_collapses_to_sublevel():
    # prod_{k=0}^{n-1} E^(N)_{kM+a} = E^(M)_a, compared on the level-N grid
    for N, M in ((6, 3), (12, 4), (27, 9)):
        n = N // M
        for a in range(1, M):
            lhs = expand_unit(N, a, 8)
            for k in range(1, n):
                lhs = series_mul(lhs, expand_unit(N, k * M + a, 8))
            rhs = to_level(expand_unit(M, a, 8), N)
            bound = min(lhs.trunc_key, rhs.trunc_key)
            assert bound > max(lhs.lead_key, 0)  # comparison is not vacuous
            assert series_equal(lhs, rhs), (N, M, a)


def test_expand_product_and_nonintegral_flagging():
    u = UnitProduct(13, {1: 1, 2: -1})
    s = expand_product(u, 8)
    assert s.lead_key == 60  # exponent 5/13: not on the integral grid
    assert s.lead_key % (12 * 13) != 0
    assert expand_product(UnitProduct(13, {}), 8).coeffs == ((0, 1),)
    assert series_mul(expand_product(u, 8), expand_product(u**-1, 8)).coeffs == ((0, 1),)


def test_basis_expansions_integral_sample():
    # full sweep over N <= 50 runs in the acceptance suite
    for N in (13, 16, 21, 27, 32, 36):
        grid = 12 * N
        for el in basis(N):
            lead = sum(e * unit_lead_key(N, h) for h, e in el.unit.items())
            assert lead % grid == 0, el.display
            s = expand_product(el.unit, lead // grid + 4)
            assert s.coeffs, el.display
            assert all(k % grid == 0 for k, _ in s.coeffs), el.display


def test_make_drops_beyond_truncation():
    s = QSeries.make(5, {0: 1, 500: 7}, 480)
    assert dict(s.coeffs) == {0: 1}


def test_make_rejects_nonintegral_coefficient():
    with pytest.raises(ValueError, match="not an integer"):
        QSeries.make(5, {0: Fraction(1, 2)}, 60)
    assert type(QSeries.make(5, {0: Fraction(2)}, 60).coeffs[0][1]) is int


def _naive_product(u, depth):
    """First `depth` integral q-power coefficients of prod_h g_h^e_h / q^lead,
    multiplying in the factors (1 - q^m)^e of each unit one at a time."""
    N = u.level
    poly = [int(j == 0) for j in range(depth)]
    for h, e in u.items():
        # (1 - x)^e = sum_j t_j x^j, also for negative e
        t = [(-1) ** j * comb(e, j) if e >= 0 else comb(j - e - 1, j) for j in range(depth)]
        for n in range(1, depth // N + 2):
            for m in ((n - 1) * N + h, n * N - h):  # the same m twice when h = N/2
                for k in range(depth - 1, m - 1, -1):  # descending: in place
                    poly[k] += sum(t[j] * poly[k - m * j] for j in range(1, k // m + 1))
    return poly


@st.composite
def unit_products(draw):
    N = draw(st.integers(2, 14))
    indices = st.integers(1, N // 2)
    exps = draw(st.dictionaries(indices, st.integers(-600, 600), max_size=3))
    return UnitProduct(N, exps)


@settings(max_examples=60, deadline=None)
@given(unit_products(), st.integers(1, 4))
def test_expand_product_matches_naive_oracle(u, T):
    N = u.level
    grid = 12 * N
    lead = sum(e * unit_lead_key(N, h) for h, e in u.items())
    s = expand_product(u, T)
    assert s.level == N and s.trunc_key == T * grid
    got = dict(s.coeffs)
    assert all(lead <= k < T * grid and (k - lead) % grid == 0 for k in got)
    depth = max(0, -((lead - T * grid) // grid))
    # the oracle is quadratic in each factor, so check a bounded prefix
    want = _naive_product(u, min(depth, 60))
    for j, c in enumerate(want):
        assert got.get(lead + grid * j, 0) == c, (u, T, j)


def _dense_reference(u, T):
    """The recurrence n a_n = -sum_{k<=n} b_k a_(n-k) over every b_k, zero
    or not, with the result sorted and checked by QSeries.make."""
    N, grid = u.level, 12 * u.level
    lead = sum(e * unit_lead_key(N, h) for h, e in u.items())
    depth = max(0, -((lead - T * grid) // grid))
    c = [0] * N
    for h, e in u.items():
        c[h % N] += e
        c[-h % N] += e
    b = [sum(d * c[d % N] for d in range(1, k + 1) if k % d == 0) for k in range(depth)]
    a = [1] if depth else []
    for n in range(1, depth):
        a.append(-sum(b[k] * a[n - k] for k in range(1, n + 1)) // n)
    return QSeries.make(N, {lead + grid * j: x for j, x in enumerate(a)}, T * grid)


def _truncation_for_depth(u, depth):
    """The T at which expand_product(u, T) needs exactly `depth` q-powers."""
    lead = sum(e * unit_lead_key(u.level, h) for h, e in u.items())
    return lead // (12 * u.level) + depth


def _assert_well_formed(s):
    keys = [k for k, _ in s.coeffs]
    assert keys == sorted(set(keys)) and all(k < s.trunc_key for k in keys)
    assert all(type(k) is int and type(c) is int and c for k, c in s.coeffs)


@st.composite
def deep_unit_products(draw):
    N = draw(st.integers(20, 60))
    indices = draw(st.lists(st.integers(1, N // 2), min_size=2, max_size=3, unique=True))
    exps = {h: draw(st.integers(-600, 600)) for h in indices}
    return UnitProduct(N, exps)


@settings(max_examples=40, deadline=None)
@given(deep_unit_products(), st.integers(0, 300))
def test_expand_product_matches_dense_reference(u, depth):
    T = _truncation_for_depth(u, depth)
    s = expand_product(u, T)
    assert s == _dense_reference(u, T)
    assert len(s.coeffs) <= depth
    _assert_well_formed(s)


@pytest.mark.parametrize(
    "N, exps, depth",
    [
        (47, {4: 1, 8: -530, 16: 529}, None),  # a deep basis element, in full
        (40, {20: 3, 7: -5}, 250),  # h = N/2 counts twice in c_m
        (22, {11: -600, 3: 1}, 300),
        (30, {15: 1, 4: 2}, 0),
        (30, {15: 1, 4: 2}, 1),
        (47, {4: 1, 8: -530, 16: 529}, 1),
        # depths d^2 and d^2 - 1 for a support element d, where the rings
        # take several members of one residue class mod N
        (10, {1: 7, 5: -3}, 121),  # d = 11; 1, 9, 11 in one class; 5 = N/2
        (10, {1: 7, 5: -3}, 120),
        (13, {3: -40, 1: 2}, 256),  # d = 16, the second member of the class of 3
        (13, {3: -40, 1: 2}, 255),
        (47, {4: 1, 8: -530, 16: 529}, 961),  # d = 31 = 47 - 16, its last ring
        (47, {4: 1, 8: -530, 16: 529}, 960),
        # the 5 * d edge: d = 43 > sqrt(215) joins the rings at depth 215
        # (141 slots), and at 214 it is in b
        (47, {4: 1, 8: -530, 16: 529}, 215),
        (47, {4: 1, 8: -530, 16: 529}, 214),
        # the slot budget: d = 16 fills it exactly at depth 106 (106 slots);
        # at 105 it is in b although 5 * 16 <= 105
        (5, {1: 3, 2: -2}, 106),
        (5, {1: 3, 2: -2}, 105),
        # the first ring also pays for the ring loop: d = 1 opens it at
        # depth 11 = 11 * 1, and at 10 no d has a ring although 5 * 1 and
        # 5 * 2 are at most 10; the same for d = 2 at 22 and 21
        (5, {1: 3, 2: -2}, 11),
        (5, {1: 3, 2: -2}, 10),
        (10, {2: 3, 5: -1}, 22),
        (10, {2: 3, 5: -1}, 21),
    ],
)
def test_expand_product_pinned_against_dense_reference(N, exps, depth):
    u = UnitProduct(N, exps)
    if depth is None:  # the full depth that a truncation at q^1 needs
        T, depth = 1, 1 - _truncation_for_depth(u, 0)
    else:
        T = _truncation_for_depth(u, depth)
    s = expand_product(u, T)
    assert s == _dense_reference(u, T)
    assert len(s.coeffs) <= depth and (depth == 0) == (not s.coeffs)
    _assert_well_formed(s)


@st.composite
def small_level_products(draw):
    # small N put several members of one residue class +-h mod N among
    # the rings, and the slot budget binds; h = 1 and h = N/2 are in range
    N = draw(st.integers(5, 19))
    indices = draw(st.lists(st.integers(1, N // 2), min_size=1, max_size=3, unique=True))
    exps = {h: draw(st.integers(-600, 600).filter(bool)) for h in indices}
    return UnitProduct(N, exps)


@settings(max_examples=40, deadline=None)
@given(small_level_products(), st.integers(0, 400))
def test_running_sums_match_dense_reference(u, depth):
    T = _truncation_for_depth(u, depth)
    s = expand_product(u, T)
    assert s == _dense_reference(u, T)
    _assert_well_formed(s)


def test_deepest_basis_series_at_61_pinned():
    # the three deepest basis elements at N = 61, expanded to q^8 from
    # their leads (about q^-2285); no certify digest reaches this level,
    # so each full coefficient tuple is pinned by its SHA-256
    pinned = {
        "E5*E20^900/(E10^901)": (
            2293,
            "4d05dbd181ed5ca2d4a5debf754bb8e27daf8c90fc5e2339890022277357d42e",
        ),
        "E22^900*E25/(E11^901)": (
            2283,
            "4cc2a41bb4a59229af02cd9203ea449fb45acbee29a0a350bea59eaec0ce0a50",
        ),
        "E18^900*E26/(E9^901)": (
            2269,
            "6e01f67e4510fbcc6dd12c59514d3fd9ab6cf9744cf5e601c7ed20336cbcd31b",
        ),
    }
    elements = {el.display: el for el in basis(61)}
    depths = {k: 8 - _truncation_for_depth(el.unit, 0) for k, el in elements.items()}
    assert set(sorted(depths, key=depths.get)[-3:]) == set(pinned)
    for display, (depth, digest) in pinned.items():
        assert depths[display] == depth
        s = expand_product(elements[display].unit, 8)
        assert hashlib.sha256(repr(s.coeffs).encode()).hexdigest() == digest
