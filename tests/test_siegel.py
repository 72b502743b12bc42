import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits.basis import basis
from modunits.classgroup import _divisor_rows
from modunits.errors import ConsistencyError
from modunits.numtheory import b2, euler_phi, factorize, is_prime, unit_lead_key
from modunits.siegel import (
    LevelContext,
    UnitProduct,
    divisor,
    divisor_key_rows,
    divisor_keys,
    genus_x1,
    is_gamma1_modular,
    normalize_index,
    orbit,
    orbit_condition_holds,
    order_at_cusp,
    render_product,
)


def test_normalize_index():
    assert normalize_index(13, 15) == 2
    assert normalize_index(13, 12) == 1
    assert normalize_index(36, 35) == 1
    assert normalize_index(8, 4) == 4
    with pytest.raises(ValueError):
        normalize_index(13, 26)


def test_level_context():
    ctx = LevelContext.of(13)
    assert ctx.cusps == (1, 2, 3, 4, 5, 6)
    ctx8 = LevelContext.of(8)
    assert ctx8.cusps == (1, 3)
    for N in range(5, 80):
        ctx = LevelContext.of(N)
        assert len(ctx.cusps) == euler_phi(N) // 2


def test_order_at_cusp():
    assert order_at_cusp(13, 1, 1) == Fraction(97, 156)
    assert order_at_cusp(13, 7, 7) == Fraction(-11, 156)
    # boundary index N/2 at cusp 1: (N/2) B2(1/2) = -N/24
    assert order_at_cusp(36, 18, 1) == Fraction(-36, 24)
    # general cusp a/c uses the width gcd(c, N)
    assert order_at_cusp(13, 1, 1, 2) == Fraction(1, 2) * b2(Fraction(1))


def test_unit_product_algebra():
    u = UnitProduct(13, {1: 1, 3: 4, 6: -5})
    v = UnitProduct(13, {15: 1})  # normalizes to index 2
    assert v.exponents == {2: 1}
    assert (u * u**-1).exponents == {}
    assert (u**2).exponents == {1: 2, 3: 8, 6: -10}
    w = u * v
    assert w.exponents == {1: 1, 2: 1, 3: 4, 6: -5}
    with pytest.raises(ValueError):
        u * UnitProduct(11, {1: 1})


def test_divisor_paper_row():
    # orders of E1 E3^4 / E6^5 at the cusps in generator-7 order
    u = UnitProduct(13, {1: 1, 3: 4, 6: -5})
    d = divisor(u)
    ctx = LevelContext.of(13)
    gen_order = [normalize_index(13, pow(7, j, 13)) for j in range(6)]
    row = [d.orders[ctx.cusps.index(c)] for c in gen_order]
    assert row == [3, -2, 1, 2, 1, -5]
    assert d.degree == 0
    assert d.is_integral()


def test_divisor_is_homomorphism():
    rng = random.Random(37)
    for N in (13, 21, 36):
        k = N // 2
        for _ in range(10):
            u1 = UnitProduct(N, {rng.randrange(1, k + 1): rng.randrange(-3, 4) for _ in range(3)})
            u2 = UnitProduct(N, {rng.randrange(1, k + 1): rng.randrange(-3, 4) for _ in range(3)})
            d12 = divisor(u1 * u2)
            d1, d2 = divisor(u1), divisor(u2)
            assert d12.orders == tuple(x + y for x, y in zip(d1.orders, d2.orders))
            assert divisor_keys(u1) == tuple(12 * N * x for x in d1.orders)
            # the integer kernel against the Fraction reference formula
            assert d1.orders == tuple(
                sum(e * order_at_cusp(N, h, a) for h, e in u1.items())
                for a in LevelContext.of(N).cusps
            )


@st.composite
def level_products(draw):
    """A level 5..400 and a few products there; index N/2 is drawn often."""
    N = draw(st.integers(5, 400))
    indices = st.one_of(st.just(N // 2), st.integers(1, N // 2))
    exps = st.dictionaries(indices, st.integers(-2000, 2000), max_size=6)
    return N, [UnitProduct(N, e) for e in draw(st.lists(exps, min_size=1, max_size=4))]


@settings(max_examples=60, deadline=None)
@given(level_products())
def test_divisor_key_rows_match_the_lead_key_and_fraction_references(case):
    N, units = case
    cusps = LevelContext.of(N).cusps
    rows = divisor_key_rows(units)
    assert len(rows) == len(units)
    for u, row in zip(units, rows):
        assert row == tuple(sum(e * unit_lead_key(N, a * h) for h, e in u.items()) for a in cusps)
        assert row == divisor_keys(u)
        assert [Fraction(k, 12 * N) for k in row] == [
            sum((e * order_at_cusp(N, h, a) for h, e in u.items()), Fraction(0)) for a in cusps
        ]


def test_divisor_key_rows_edges():
    assert divisor_key_rows([]) == []
    assert divisor_key_rows(iter([UnitProduct(21, {})])) == [(0,) * 6]
    with pytest.raises(ValueError):
        divisor_key_rows([UnitProduct(21, {1: 1}), UnitProduct(22, {1: 1})])


def test_divisor_empty_product_zero():
    d = divisor(UnitProduct(21, {}))
    assert all(x == 0 for x in d.orders)


def test_is_gamma1_modular():
    assert is_gamma1_modular(UnitProduct(13, {1: 1, 3: 4, 6: -5}))
    assert not is_gamma1_modular(UnitProduct(13, {1: 1, 2: -1}))
    assert is_gamma1_modular(UnitProduct(13, {}))
    # even level needs the parity conditions as well
    assert is_gamma1_modular(UnitProduct(8, {1: 2, 3: -2}))
    assert not is_gamma1_modular(UnitProduct(8, {1: 1, 3: -1}))


def test_orbit_examples():
    assert sorted(orbit(21, 1, 3)) == [1, 6, 8]
    assert sorted(orbit(21, 7, 7)) == [1, 2, 4, 5, 7, 8, 10]
    assert orbit(21, 5, 1) == frozenset({5})
    # zero-class members are dropped
    assert sorted(orbit(21, 3, 7)) == [3, 6, 9]
    with pytest.raises(ValueError):
        orbit(21, 1, 4)


def test_orbit_condition_constrained_family():
    # at level 21 the conditions pin e7 = 0 and three sums; check a sample
    rng = random.Random(41)
    for _ in range(25):
        e1, e2, e4, e5, e8 = (rng.randrange(-4, 5) for _ in range(5))
        e10 = -(e1 + e2 + e4 + e5 + e8)
        exps = {1: e1, 2: e2, 4: e4, 5: e5, 8: e8, 10: e10,
                3: -(e4 + e10), 6: -(e1 + e8), 9: -(e2 + e5)}
        assert orbit_condition_holds(UnitProduct(21, exps))
    assert not orbit_condition_holds(UnitProduct(21, {1: 1}))
    assert not orbit_condition_holds(UnitProduct(21, {7: 1, 1: 1, 6: -1}))
    with pytest.raises(ValueError):
        orbit_condition_holds(UnitProduct(13, {1: 1, 2: -1}))


def _orbit_condition_reference(u):
    N = u.level
    exps = u.exponents
    for p, _ in factorize(N):
        for orb in {orbit(N, h, p) for h in range(1, N // 2 + 1)}:
            if sum(exps.get(g, 0) for g in orb):
                return False
    return True


ORBIT_LEVELS = (6, 10, 12, 21, 27, 30, 32, 36, 45, 49, 60, 64, 72, 81, 84, 90, 100, 105, 125)


@st.composite
def orbit_cases(draw):
    """Products of basis elements (which meet the orbit condition), maybe with
    one exponent moved, and free products (which mostly fail)."""
    N = draw(st.sampled_from(ORBIT_LEVELS))
    k = N // 2
    els = basis(N)  # empty at N = 6
    if not els or draw(st.booleans()):
        return UnitProduct(N, draw(st.dictionaries(st.integers(1, k), st.integers(-9, 9), max_size=5)))
    u = UnitProduct(N, {})
    for i, e in draw(st.dictionaries(st.integers(0, len(els) - 1), st.integers(-5, 5), max_size=4)).items():
        u = u * els[i].unit**e
    if draw(st.booleans()):
        u = u * UnitProduct(N, {draw(st.integers(1, k)): draw(st.sampled_from((-2, -1, 1, 3)))})
    return u


@settings(max_examples=150, deadline=None)
@given(orbit_cases())
def test_orbit_condition_matches_the_orbit_set_reference(u):
    N = u.level
    ctx = LevelContext.of(N)
    for (p, _), classes in zip(ctx.factorization, ctx.orbit_classes):
        assert all(classes[h] == min(orbit(N, h, p)) for h in range(1, N // 2 + 1))
    assert orbit_condition_holds(u) == _orbit_condition_reference(u)


def test_orbit_condition_on_basis_and_moved_exponents():
    for N in ORBIT_LEVELS:
        for el in basis(N)[:6]:
            assert orbit_condition_holds(el.unit)
            moved = el.unit * UnitProduct(N, {N // 2: 1})
            assert not orbit_condition_holds(moved)
            assert not _orbit_condition_reference(moved)


@pytest.mark.parametrize("N", [13, 27, 36, 42, 64])
def test_divisor_rows_reject_a_basis_element_with_one_exponent_changed(N):
    elements = tuple(basis(N))
    assert len(_divisor_rows(N, elements)) == len(elements)
    i = len(elements) // 2
    el = elements[i]
    h = next(iter(el.unit.exponents))
    # +1 breaks the modularity congruences; +24N keeps them, and then the
    # orbit condition (composite N) or the degree (prime N) must fail
    for step, message in ((1, "modularity"), (24 * N, "nonzero degree" if is_prime(N) else "orbit condition")):
        bad = dataclasses.replace(el, unit=el.unit * UnitProduct(N, {h: step}))
        with pytest.raises(ConsistencyError, match=message):
            _divisor_rows(N, elements[:i] + (bad,) + elements[i + 1 :])


def test_degree_zero_under_orbit_condition():
    rng = random.Random(43)
    for _ in range(25):
        e1, e2, e4, e5, e8 = (rng.randrange(-3, 4) for _ in range(5))
        e10 = -(e1 + e2 + e4 + e5 + e8)
        exps = {1: e1, 2: e2, 4: e4, 5: e5, 8: e8, 10: e10,
                3: -(e4 + e10), 6: -(e1 + e8), 9: -(e2 + e5)}
        d = divisor(UnitProduct(21, exps))
        assert d.degree == 0
        assert all((12 * x).denominator == 1 for x in d.orders)


def test_order_distribution_relation():
    # sum over the fiber of order weights collapses to the sub-level order
    for N, M in ((6, 3), (12, 4), (27, 9), (20, 5), (30, 15)):
        n = N // M
        for c in LevelContext.of(N).cusps:
            for a in range(1, M):
                lhs = sum(order_at_cusp(N, k * M + a, c) for k in range(n))
                assert lhs == Fraction(M, 2) * b2(Fraction(c * a, M)), (N, M, a, c)


def test_render_product():
    assert render_product({1: 1, 11: 1, 2: -1, 8: -1}) == "E1*E11/(E2*E8)"
    assert render_product({4: 13, 2: -13}) == "E4^13/(E2^13)"
    assert render_product({1: 1, 5: -1}, level=12, scale=3) == "E1^(12)(3t)/(E5^(12)(3t))"
    assert render_product({}) == "1"
    assert render_product({3: -2}) == "1/(E3^2)"


def test_genus():
    known = {11: 1, 13: 2, 16: 2, 17: 5, 24: 5, 25: 12, 36: 17, 50: 48}
    for N, g in known.items():
        assert genus_x1(N) == g
    for N in (5, 6, 7, 8, 9, 10, 12):
        assert genus_x1(N) == 0
