"""Mordell-Weil arithmetic: rank count, section heights, pencil classes."""

import pytest

from k3lattice.elliptic import (
    FibrationData,
    fibration_from_json,
    fibration_to_json,
    max_singular_fibers_bound,
    mordell_weil_rank,
    pencil_class_from_sections,
    section_intersection_from_height,
)


def test_fibration_validation():
    with pytest.raises(ValueError):
        FibrationData(1)  # rank too small
    with pytest.raises(ValueError, match="at most 20"):
        FibrationData(21)  # a complex K3 has rho <= 20
    with pytest.raises(ValueError):
        FibrationData(5, [1])  # a reducible fiber has >= 2 components
    with pytest.raises(ValueError):
        FibrationData(3, [2, 2])  # components exceed rho - 2
    with pytest.raises(TypeError):  # every fibration has a section; there is no flag
        FibrationData(3, has_section=False)
    data = FibrationData(5, [2, 3])
    assert data.reducible_fiber_component_counts == (2, 3)


def test_mordell_weil_rank_values():
    assert mordell_weil_rank(FibrationData(3)) == 1
    assert mordell_weil_rank(FibrationData(2)) == 0
    assert mordell_weil_rank(FibrationData(5, [2, 3])) == 0
    assert mordell_weil_rank(FibrationData(10, [2, 2, 2])) == 5
    # an extremal configuration: every free generator eaten by fibers
    assert mordell_weil_rank(FibrationData(20, [9, 9, 3])) == 0


def test_section_intersection_from_height():
    assert section_intersection_from_height(4) == 0
    assert section_intersection_from_height(8) == 2
    assert section_intersection_from_height(10) == 3
    for bad in (3, 7, 2, 0, -4):
        with pytest.raises(ValueError):
            section_intersection_from_height(bad)


def test_pencil_class_from_sections():
    p = pencil_class_from_sections(-2, -2, 2)
    assert p.square == 0 and p.is_pencil
    p = pencil_class_from_sections(-2, -2, 3)
    assert p.square == 2 and not p.is_pencil
    p = pencil_class_from_sections(-2, -2, 0)
    assert p.square == -4 and not p.is_pencil
    with pytest.raises(ValueError):
        pencil_class_from_sections(-2, 0, 2)
    with pytest.raises(ValueError):
        pencil_class_from_sections(2, -2, 2)


def test_max_singular_fibers_bound():
    assert max_singular_fibers_bound() == 24


def test_json_roundtrip():
    data = FibrationData(5, [2, 3])
    out = fibration_to_json(data)
    assert out == {
        "rho": 5,
        "reducible_fiber_component_counts": [2, 3],
        "has_section": True,
    }
    assert fibration_from_json(out) == data
    with pytest.raises(ValueError):
        fibration_from_json({"reducible_fiber_component_counts": []})
    with pytest.raises(ValueError):
        fibration_from_json(None)
    for bad in ("no", 0, None):
        with pytest.raises(ValueError, match="expected true or false"):
            fibration_from_json({"rho": 5, "has_section": bad})
    with pytest.raises(ValueError, match="only fibrations with a section"):
        fibration_from_json({"rho": 5, "has_section": False})


def test_fibration_refuses_non_integers():
    with pytest.raises(ValueError, match="expected an integer, got 20.9"):
        fibration_from_json({"rho": 20.9, "reducible_fiber_component_counts": [2.5]})
    with pytest.raises(ValueError, match="expected an integer, got 2.5"):
        FibrationData(20, [2.5])
    with pytest.raises(ValueError, match="expected an integer"):
        FibrationData("20")
    with pytest.raises(ValueError, match="expected an integer"):
        pencil_class_from_sections(-2, -2, 2.0)
