import pytest

from conftest import catalog_group, rational_arrangement

from oscount import groups
from oscount.counting import catalog, count_resolutions
from oscount.errors import (
    InvalidInputError,
    MathematicalInconsistencyError,
    UnsupportedFoldingError,
)
from oscount.groups import (
    FOLDING_OVERRIDES,
    NamikawaWeylData,
    minimal_parabolics,
    namikawa_weyl_from_group,
    symplectic_reflections,
)
from oscount.rootdata import weyl_data, wreath_count_closed_form


def test_count_q8d8():
    entry = catalog("q8d8")
    report = count_resolutions(entry.arrangement, entry.weyl_order)
    assert report.os_dimension == 2592
    assert report.weyl_order == 32
    assert report.resolution_count == 81
    assert report.regions == 2592  # regions = |W| * count


def test_count_g4():
    entry = catalog("g4")
    report = count_resolutions(entry.arrangement, entry.weyl_order)
    assert report.os_dimension == 6
    assert report.resolution_count == 2
    assert report.regions is None  # not a real arrangement


def test_count_trivial_kleinian():
    a = rational_arrangement(1, [[1]])
    report = count_resolutions(a, 2)
    assert report.os_dimension == 2 and report.resolution_count == 1


def test_count_requires_central():
    a = rational_arrangement(1, [[1]], offsets=[1])
    with pytest.raises(InvalidInputError):
        count_resolutions(a, 1)


def test_count_divisibility_violation_is_inconsistency():
    entry = catalog("q8d8")
    with pytest.raises(MathematicalInconsistencyError):
        count_resolutions(entry.arrangement, 7)


def test_wreath_closed_form_values():
    assert wreath_count_closed_form(weyl_data("A", 1), 2) == 2
    assert wreath_count_closed_form(weyl_data("A", 1), 3) == 3
    assert wreath_count_closed_form(weyl_data("A", 2), 2) == 5
    assert wreath_count_closed_form(weyl_data("A", 3), 2) == 14
    # a table whose product is not integral is an inconsistency, in lowest terms
    bad = weyl_data("A", 1)._replace(exponents=(2,), coxeter_number=2)
    with pytest.raises(MathematicalInconsistencyError, match="^closed-form product 5/3 is not"):
        wreath_count_closed_form(bad, 2)


@pytest.mark.parametrize(
    "label,rank", [("A", 1), ("A", 4), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
)
def test_wreath_closed_form_n1_is_one(label, rank):
    assert wreath_count_closed_form(weyl_data(label, rank), 1) == 1


def test_wreath_direct_routes_agree():
    cases = [("A", 1, 2, 8, 2), ("A", 1, 3, 12, 3), ("A", 2, 2, 60, 5)]
    for label, rank, n, pi1, count in cases:
        entry = catalog(f"wreath:{label}{rank}:{n}")
        report = count_resolutions(entry.arrangement, entry.weyl_order)
        assert report.os_dimension == pi1
        assert report.resolution_count == count == entry.expected["count"]
        assert report.resolution_count == wreath_count_closed_form(weyl_data(label, rank), n)
        assert report.weyl_order == 2 * weyl_data(label, rank).weyl_order


def test_wreath_catalog_refuses_n1():
    # S_1 wr G is G, whose one resolution `wreath-formula --n 1` gives; the
    # coned n = 1 arrangement keeps a = 0 and would count 2 for A1
    with pytest.raises(InvalidInputError, match=r"need n >= 2; .*wreath-formula --type A1 --n 1"):
        catalog("wreath:A1:1")
    with pytest.raises(InvalidInputError, match="^wreath parameter n must be >= 1$"):
        catalog("wreath:A1:0")


def test_wreath_weyl_data_factors():
    # |W| = 2 |W_G|: an A1 factor for the diagonal leaf and the full W_G
    for label, rank, order in (("A", 2, 12), ("D", 4, 384), ("E", 6, 103_680)):
        assert catalog(f"wreath:{label}{rank}:2").weyl_order == order
        assert order == 2 * weyl_data(label, rank).weyl_order


def test_weyl_orders_of_kleinian_labels_match_the_root_data():
    for letter, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        for rank in ranks:
            assert groups._weyl_order(f"{letter}{rank}") == weyl_data(letter, rank).weyl_order


def test_namikawa_weyl_from_groups(monkeypatch):
    q8 = catalog_group("q8d8")
    q8.enumerate_elements()
    w = namikawa_weyl_from_group(minimal_parabolics(q8, symplectic_reflections(q8)))
    assert w.total_order == 32
    assert w.factors == (("A1", 2),) * 5

    g4 = catalog_group("g4")
    g4.enumerate_elements()
    paras = minimal_parabolics(g4, symplectic_reflections(g4))
    w = namikawa_weyl_from_group(paras)
    assert w.total_order == 3  # paper-sourced override for the folded case
    monkeypatch.setattr(groups, "FOLDING_OVERRIDES", {})
    with pytest.raises(UnsupportedFoldingError):
        namikawa_weyl_from_group(paras)


def test_namikawa_weyl_data_validation():
    # every factor is a Weyl order or a FOLDING_OVERRIDES value, so the
    # record only multiplies them
    w = NamikawaWeylData((("A1", 2), ("A2", 6)))
    assert w.factors == (("A1", 2), ("A2", 6))
    assert w.total_order == 12
    assert NamikawaWeylData(()).total_order == 1


def test_catalog_expected_values():
    q8 = catalog("q8d8")
    assert q8.expected["count"] == 81
    assert q8.expected["poincare"] == (1, 21, 170, 650, 1125, 625)
    assert q8.weyl_order == 32
    g4 = catalog("g4")
    assert g4.expected["count"] == 2 and g4.weyl_order == 3
    w = catalog("wreath:A1:2")
    assert w.expected == {"poincare": (1, 4, 3), "count": 2} and w.weyl_order == 4
    assert len(w.arrangement.hyperplanes) == 4


def test_catalog_unknown_name():
    with pytest.raises(InvalidInputError):
        catalog("nope")
    with pytest.raises(InvalidInputError):
        catalog("wreath:B2:2")


def test_folding_override_table_contents():
    assert FOLDING_OVERRIDES == {("A2", 2): 3}
