import hashlib
from math import gcd, prod

import pytest

from modunits.basis import _alternating_pairs, _mobius_pairs, basis
from modunits.bernoulli import bernoulli_matrix
from modunits.numtheory import divisors, euler_phi, factorize, moebius
from modunits.siegel import (
    LevelContext,
    UnitProduct,
    divisor,
    is_gamma1_modular,
    orbit_condition_holds,
)
from modunits.zlinalg import lattice_index


def test_prime_13_generator_7():
    els = basis(13, generator=7)
    assert [e.display for e in els] == [
        "E1*E3^4/(E6^5)",
        "E5^4*E6/(E3^5)",
        "E3*E4^4/(E5^5)",
        "E2^4*E5/(E4^5)",
        "E4^13/(E2^13)",
    ]


@pytest.mark.parametrize("build, N", [(basis, 13), (basis, 32), (bernoulli_matrix, 13)])
def test_a_generator_override_is_checked_in_one_place(build, N):
    # 4 has order 3 in (Z/13)^x/+-1 of order 6, and is not a unit mod 32
    with pytest.raises(ValueError) as exc:
        build(N, generator=4)
    assert str(exc.value) == f"4 does not generate (Z/{N}Z)^x/+-1"


def test_bernoulli_matrix_takes_a_generator_at_a_cyclic_composite_level():
    # (Z/21)^x/+-1 is cyclic of order 6, generated by 2: the check asks for
    # a generator, not for a prime power
    assert len(bernoulli_matrix(21, generator=2)) == 6


def test_prime_5_smallest_case():
    els = basis(5)
    assert len(els) == 1
    rows = [[int(x) for x in divisor(e.unit).orders] for e in els]
    assert lattice_index(rows) == 1


def test_prime_rejects():
    with pytest.raises(ValueError):
        basis(13, generator=4)


def test_odd_prime_power_27():
    els = basis(27)
    assert [e.display for e in els] == [
        "E1*E11/(E2*E8)",
        "E2*E5/(E4*E11)",
        "E4*E10/(E5*E8)",
        "E7*E8/(E10*E11)",
        "E11*E13/(E5*E7)",
        "E5^3/(E13^3)",
        "E1^(9)(3t)/(E2^(9)(3t))",
        "E2^(9)(3t)/(E4^(9)(3t))",
    ]
    # lower-level members carry sub-level data for the machine-readable form
    assert els[-1].sublevel == 9 and els[-1].scale == 3
    assert dict(els[-1].sub_exponents) == {2: 1, 4: -1}


def test_odd_prime_power_band_sizes():
    for p, k in ((3, 2), (3, 3), (5, 2), (3, 4), (7, 2), (5, 3)):
        els = basis(p**k)
        assert len(els) == euler_phi(p**k) // 2 - 1


def test_two_power_32():
    els = basis(32)
    assert [e.display for e in els] == [
        "E1*E13/(E3*E15)",
        "E3*E7/(E9*E13)",
        "E9*E11/(E5*E7)",
        "E5^2/(E11^2)",
        "E1^(16)(2t)/(E7^(16)(2t))",
        "E3^(16)(2t)/(E5^(16)(2t))",
        "E1^(8)(4t)/(E3^(8)(4t))",
    ]


def test_two_power_8_degenerate():
    # the k = 3 bands collapse to the squared pivot with integral divisor
    els = basis(8)
    assert len(els) == 1
    assert els[0].display == "E1^2/(E3^2)"
    rows = [[int(x) for x in divisor(els[0].unit).orders]]
    assert rows == [[1, -1]]
    assert lattice_index(rows) == 1


def test_two_power_16():
    els = basis(16)
    assert len(els) == 3
    rows = [[int(x) for x in divisor(e.unit).orders] for e in els]
    assert lattice_index(rows) == 10
    with pytest.raises(ValueError):
        basis(32, generator=4)


def test_squarefree_21():
    els = basis(21)
    assert UnitProduct(21, _mobius_pairs(LevelContext.of(21), 1, 1)).exponents == {1: 1, 6: -1, 7: -1}
    assert [e.display for e in els] == [
        "E1*E9/(E2*E6)",
        "E2*E3/(E4*E9)",
        "E4*E9/(E3*E5)",
        "E5*E6/(E8*E9)",
        "E3*E8/(E6*E10)",
    ]


def test_squarefree_42_mobius_products():
    exps = UnitProduct(42, _mobius_pairs(LevelContext.of(42), 1, 1)).exponents
    assert exps == {1: 1, 6: 1, 14: 1, 21: 1, 20: -1, 15: -1, 7: -1}
    els = basis(42)
    assert len(els) == 5


def test_general_36():
    els = basis(36)
    assert [e.display for e in els] == [
        "E1^(12)(3t)/(E5^(12)(3t))",
        "E1^(18)(2t)*E2^(18)(2t)/(E7^(18)(2t)*E8^(18)(2t))",
        "E1^(18)(2t)*E4^(18)(2t)/(E5^(18)(2t)*E8^(18)(2t))",
        "E1*E5/(E13*E17)",
        "E1*E7/(E11*E17)",
    ]


def test_general_40():
    els = basis(40)
    assert [e.display for e in els] == [
        "E1^(10)(4t)*E2^(10)(4t)/(E3^(10)(4t)*E4^(10)(4t))",
        "E1^(20)(2t)/(E9^(20)(2t))",
        "E3^(20)(2t)/(E7^(20)(2t))",
        "E1*E5/(E15*E19)",
        "E3*E15/(E5*E17)",
        "E5*E7/(E13*E15)",
        "E5*E9/(E11*E15)",
    ]


def test_general_72():
    els = basis(72)
    assert len(els) == 11
    # the radical block is empty at L = 6 and the top block has four members
    assert [e.display for e in els[-4:]] == [
        "E1*E11/(E25*E35)",
        "E1*E13/(E23*E35)",
        "E5*E7/(E29*E31)",
        "E5*E17/(E19*E31)",
    ]


def test_alternating_product_level_180():
    # G at level 180 with shifts (1, 2): E1 E31 E55 E85 / (E91 E59 E35 E5)
    exps = UnitProduct(180, _alternating_pairs(LevelContext.of(180), 1, (1, 2), [2, 3], 1)).exponents
    assert exps == {1: 1, 31: 1, 55: 1, 85: 1, 89: -1, 59: -1, 35: -1, 5: -1}


def test_dispatch_and_counts():
    for N in range(5, 121):
        assert len(basis(N)) == euler_phi(N) // 2 - 1, N
    with pytest.raises(ValueError):
        basis(4)
    for N, g in ((21, 2), (36, 5)):
        with pytest.raises(ValueError, match="prime-power levels"):
            basis(N, generator=g)


def test_every_element_is_modular_with_integral_divisor():
    for N in range(5, 101):
        for el in basis(N):
            assert is_gamma1_modular(el.unit), (N, el.display)
            d = divisor(el.unit)
            assert d.degree == 0
            assert d.is_integral(), (N, el.display)


def test_orbit_condition_for_composite_levels():
    for N in range(5, 101):
        if len(factorize(N)) == 1 and factorize(N)[0][1] == 1:
            continue  # prime level: condition undefined
        for el in basis(N):
            assert orbit_condition_holds(el.unit), (N, el.display)


def test_one_unit_product_per_element_from_the_mobius_table(monkeypatch):
    for M in range(3, 301):
        unsquared = prod(p for p, e in factorize(M) if e == 1)
        table = LevelContext.of(M).mobius
        # e_k is 0 mod k and 1 mod M/k, so k = gcd(e_k, M)
        assert [gcd(e, M) for e, _ in table] == [k for k in divisors(unsquared) if k != M], M
        for e, mu in table:
            k = gcd(e, M)
            assert 0 < e < M and e % (M // k) == 1 and mu == moebius(k), (M, e)

    built = []
    init = UnitProduct.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnitProduct, "__init__", counting_init)
    for N, count in ((72, 11), (243, 80), (900, 119)):
        built.clear()
        assert len(basis(N)) == count
        assert built == [N] * count


def test_divisor_matrix_full_rank():
    from modunits.classgroup import class_number_lattice

    for N in (13, 25, 27, 32, 36, 42, 72):
        assert class_number_lattice(N) >= 1


def _basis_digest(top: int) -> str:
    """SHA-256 over every element at 5 <= N <= top: its unit, sub-level data and display."""
    h = hashlib.sha256()
    for N in range(5, top + 1):
        for el in basis(N):
            rec = (tuple(el.unit.items()), el.sublevel, el.scale, el.sub_exponents, el.display)
            h.update(repr((N, rec)).encode())
    return h.hexdigest()


def test_bases_pinned_by_hash():
    assert _basis_digest(300) == "b4fb62b283175e3701b51e01e2556ac949e355b23d9c85e98cb1fbba70812e3b"


@pytest.mark.extended
def test_bases_pinned_by_hash_to_1200():
    # reaches 900 = 2^2 * 3^2 * 5^2, the one level up to 1200 with three squared primes
    assert _basis_digest(1200) == "6f2e677d07085e5414bd6f399d2d5b8b79b3e4d9268c8a22349dc60c3083b397"
