import pytest

from conftest import rational_arrangement

from oscount import groups
from oscount.counting import (
    catalog,
    count_resolutions,
    wreath_count_closed_form,
    wreath_weyl_data,
)
from oscount.errors import (
    InvalidInputError,
    MathematicalInconsistencyError,
    UnsupportedFoldingError,
)
from oscount.groups import (
    FOLDING_OVERRIDES,
    NamikawaWeylData,
    diagram_automorphism_order,
    minimal_parabolics,
    namikawa_weyl_from_group,
    symplectic_reflections,
)
from oscount.rootdata import weyl_data


def test_count_q8d8():
    entry = catalog("q8d8")
    report = count_resolutions(entry.arrangement, entry.weyl_data)
    assert report.os_dimension == 2592
    assert report.weyl_order == 32
    assert report.resolution_count == 81
    assert report.regions == 2592  # regions = |W| * count


def test_count_g4():
    entry = catalog("g4")
    report = count_resolutions(entry.arrangement, entry.weyl_data)
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


@pytest.mark.parametrize(
    "label,rank", [("A", 1), ("A", 4), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]
)
def test_wreath_closed_form_n1_is_one(label, rank):
    assert wreath_count_closed_form(weyl_data(label, rank), 1) == 1


def test_wreath_direct_routes_agree():
    cases = [("A", 1, 2, 8, 2), ("A", 1, 3, 12, 3), ("A", 2, 2, 60, 5)]
    for label, rank, n, pi1, count in cases:
        entry = catalog(f"wreath:{label}{rank}:{n}")
        report = count_resolutions(entry.arrangement, entry.weyl_data)
        assert report.os_dimension == pi1
        assert report.resolution_count == count == entry.expected["count"]
        assert report.resolution_count == wreath_count_closed_form(weyl_data(label, rank), n)
        assert report.weyl_order == 2 * weyl_data(label, rank).weyl_order


def test_wreath_direct_n1_uses_plain_weyl_order():
    # the n = 1 arrangement is a different object; no closed-form comparison
    entry = catalog("wreath:A1:1")
    assert "count" not in entry.expected
    report = count_resolutions(entry.arrangement, entry.weyl_data)
    assert report.weyl_order == 2
    assert report.os_dimension == 4
    assert report.resolution_count == 2


def test_wreath_weyl_data_factors():
    w = wreath_weyl_data(weyl_data("A", 2), 2)
    assert w.factors == (("A1", 2), ("A2", 6)) and w.total_order == 12
    w1 = wreath_weyl_data(weyl_data("A", 2), 1)
    assert w1.total_order == 6


def test_diagram_automorphism_orders():
    assert diagram_automorphism_order("A1") == 1
    assert diagram_automorphism_order("A2") == 2
    assert diagram_automorphism_order("D4") == 6
    assert diagram_automorphism_order("D5") == 2
    assert diagram_automorphism_order("E6") == 2
    assert diagram_automorphism_order("E7") == 1
    assert diagram_automorphism_order("E8") == 1


def test_weyl_orders_of_kleinian_labels_match_the_root_data():
    for letter, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        for rank in ranks:
            assert groups._weyl_order(f"{letter}{rank}") == weyl_data(letter, rank).weyl_order


def test_namikawa_weyl_from_groups(monkeypatch):
    q8 = catalog("q8d8")
    q8.group.enumerate_elements()
    w = namikawa_weyl_from_group(minimal_parabolics(q8.group, symplectic_reflections(q8.group)))
    assert w.total_order == 32
    assert w.factors == (("A1", 2),) * 5

    g4 = catalog("g4")
    g4.group.enumerate_elements()
    paras = minimal_parabolics(g4.group, symplectic_reflections(g4.group))
    w = namikawa_weyl_from_group(paras)
    assert w.total_order == 3  # paper-sourced override for the folded case
    monkeypatch.setattr(groups, "FOLDING_OVERRIDES", {})
    with pytest.raises(UnsupportedFoldingError):
        namikawa_weyl_from_group(paras)


def test_namikawa_weyl_data_validation():
    with pytest.raises(InvalidInputError):
        NamikawaWeylData((("A1", 2),), 3)
    w = NamikawaWeylData.from_factors([("A1", 2), ("A2", 6)])
    assert w.total_order == 12
    assert w.total_order <= 2 * 6


def test_catalog_expected_values():
    q8 = catalog("q8d8")
    assert q8.expected["count"] == 81
    assert q8.expected["poincare"] == (1, 21, 170, 650, 1125, 625)
    g4 = catalog("g4")
    assert g4.expected["os_dimension"] == 6 and g4.expected["count"] == 2
    w = catalog("wreath:A1:2")
    assert w.expected["count"] == 2
    assert len(w.arrangement.hyperplanes) == w.expected["num_hyperplanes"] == 4


def test_catalog_unknown_name():
    with pytest.raises(InvalidInputError):
        catalog("nope")
    with pytest.raises(InvalidInputError):
        catalog("wreath:B2:2")


def test_folding_override_table_contents():
    assert FOLDING_OVERRIDES == {("A2", 2): 3}
