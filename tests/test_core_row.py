"""Unit tests for row values and the subsumption order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Row, RowValue
from repro.core.row import EMPTY_VALUE


def test_empty_value():
    value = RowValue()
    assert value.is_empty
    assert len(value) == 0
    assert value == EMPTY_VALUE


def test_mapping_interface():
    value = RowValue({"b": 2, "a": 1})
    assert value["a"] == 1
    assert sorted(value) == ["a", "b"]
    assert dict(value) == {"a": 1, "b": 2}
    with pytest.raises(KeyError):
        value["ghost"]


def test_equality_order_insensitive():
    assert RowValue({"a": 1, "b": 2}) == RowValue({"b": 2, "a": 1})


def test_equality_against_plain_mapping():
    assert RowValue({"a": 1}) == {"a": 1}


def test_hashable_and_usable_as_dict_key():
    history = {RowValue({"a": 1}): 3}
    assert history[RowValue({"a": 1})] == 3


def test_subsumes():
    small = RowValue({"a": 1})
    big = RowValue({"a": 1, "b": 2})
    assert big.subsumes(small)
    assert big.subsumes(big)
    assert not small.subsumes(big)
    assert small.issubset(big)


def test_subsumes_requires_equal_values():
    assert not RowValue({"a": 2, "b": 2}).subsumes(RowValue({"a": 1}))


def test_everything_subsumes_empty():
    assert RowValue({"a": 1}).subsumes(EMPTY_VALUE)
    assert EMPTY_VALUE.subsumes(EMPTY_VALUE)


def test_with_value():
    value = RowValue({"a": 1}).with_value("b", 2)
    assert value == RowValue({"a": 1, "b": 2})


def test_with_value_rejects_filled_column():
    with pytest.raises(ValueError):
        RowValue({"a": 1}).with_value("a", 2)


def test_without_column():
    value = RowValue({"a": 1, "b": 2}).without_column("a")
    assert value == RowValue({"b": 2})


def test_merge_compatible():
    merged = RowValue({"a": 1}).merge(RowValue({"b": 2}))
    assert merged == RowValue({"a": 1, "b": 2})


def test_merge_conflicting_raises():
    with pytest.raises(ValueError):
        RowValue({"a": 1}).merge(RowValue({"a": 2}))


def test_compatible_with():
    assert RowValue({"a": 1}).compatible_with(RowValue({"b": 2}))
    assert RowValue({"a": 1}).compatible_with(RowValue({"a": 1, "b": 2}))
    assert not RowValue({"a": 1}).compatible_with(RowValue({"a": 2}))


def test_completeness():
    columns = ("a", "b")
    assert RowValue({"a": 1, "b": 2}).is_complete(columns)
    assert not RowValue({"a": 1}).is_complete(columns)
    assert RowValue().is_complete(())


def test_key_extraction():
    value = RowValue({"a": 1, "b": 2, "c": 3})
    assert value.key(("a", "b")) == (1, 2)
    assert RowValue({"a": 1}).key(("a", "b")) is None


def test_missing_columns_order():
    value = RowValue({"b": 2})
    assert value.missing_columns(("a", "b", "c")) == ("a", "c")


def test_filled_columns():
    assert RowValue({"a": 1, "c": 3}).filled_columns() == frozenset({"a", "c"})


def test_non_string_column_rejected():
    with pytest.raises(TypeError):
        RowValue({1: "x"})


def test_row_snapshot_includes_votes():
    row = Row("r1", RowValue({"a": 1}), upvotes=2, downvotes=1)
    snap = row.snapshot()
    assert snap == ("r1", (("a", 1),), 2, 1)


def test_row_repr_mentions_id():
    assert "r1" in repr(Row("r1"))


# -- the value against a frozenset-of-pairs oracle ---------------------------

COLUMNS = ("a", "b", "c", "d")
#: Scalars with the ``True == 1 == 1.0`` and ``False == 0 == 0.0``
#: collisions a frozenset of pairs and a dict agree on.
cells = st.one_of(
    st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, 2, 2.5, None, "", "x"]),
    st.integers(-3, 3),
    st.text(alphabet="xy", max_size=2),
)
partial_values = st.dictionaries(st.sampled_from(COLUMNS), cells, max_size=4)
column_lists = st.lists(st.sampled_from(COLUMNS + ("e",)), max_size=5).map(tuple)


def _pairs(mapping):
    return frozenset(mapping.items())


@settings(max_examples=300, deadline=None)
@given(partial_values, partial_values, column_lists)
def test_value_agrees_with_a_frozenset_of_pairs(left, right, columns):
    a, b = RowValue(left), RowValue(right)
    pa, pb = _pairs(left), _pairs(right)
    filled = frozenset(left)

    assert a.subsumes(b) == (pb <= pa)
    assert a.issubset(b) == (pa <= pb)
    assert a.filled_columns() == filled
    assert a.filled_columns().isdisjoint(right) == filled.isdisjoint(right)
    assert all((c in a.filled_columns()) == (c in filled) for c in columns)
    assert a.is_complete(columns) == all(column in filled for column in columns)
    assert a.missing_columns(columns) == tuple(c for c in columns if c not in filled)
    assert a.compatible_with(b) == all(
        left[column] == value for column, value in pb if column in left
    )
    assert (a == b) == (pa == pb)
    if pa == pb:
        assert hash(a) == hash(b)

    rebuilt = RowValue.from_sorted_items(a.items_tuple())
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert rebuilt.items_tuple() == a.items_tuple()
    assert not any(
        mine is theirs for mine, theirs in zip(rebuilt.items_tuple(), a.items_tuple())
    )
    assert rebuilt.mapping == left and rebuilt.subsumes(a) and a.subsumes(rebuilt)
    assert RowValue.from_sorted_items(sorted(left.items())) == a


def test_sorted_items_constructor_rejects_a_non_string_column():
    with pytest.raises(TypeError):
        RowValue.from_sorted_items(((1, "x"),))
