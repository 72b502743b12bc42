from modunits.corpus import _raw, mixed_primary_rows, primary_rows, structures, worked_examples


def test_structure_rows_cover_range():
    rows = structures()
    expected = set(range(11, 101)) - {12} | {5, 6, 7, 8, 9, 10, 12}
    assert set(rows) == expected
    for row in rows.values():
        order = 1
        for d in row.invariants:
            order *= d
        assert order == row.class_number
        for a, b in zip(row.invariants, row.invariants[1:]):
            assert b % a == 0


def test_factored_orders_consistent():
    # the bundled table also spells some class numbers as factorizations,
    # which the loader does not read; they must still match
    for row in _raw()["structures"].values():
        if row.get("class_number_factored"):
            assert eval(row["class_number_factored"].replace("^", "**")) == int(row["class_number"])


def test_primary_rows_shapes():
    rows = primary_rows()
    assert rows["2^5"].parts_dict() == {1: 1, 2: 1, 3: 1}
    assert rows["3^5"].parts_dict() == {1: 1, 2: 17, 3: 1, 4: 5, 5: 1, 6: 1}
    assert rows["2^5"].level == 32
    mixed = mixed_primary_rows()
    assert mixed["6*5^2"].level == 150
    assert mixed["2*3^2"].parts_dict() == {}


def test_worked_examples_present():
    wx = worked_examples()
    assert set(wx) == {"13", "27", "32", "36", "42"}
