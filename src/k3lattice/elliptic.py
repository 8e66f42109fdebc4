"""Mordell-Weil arithmetic for elliptic K3 fibrations with a section: the
Shioda rank count, the no-reducible-fibers height specialization, and the
isotropic class built from two consecutive sections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ntheory import exact_int, exact_keys

__all__ = [
    "FibrationData",
    "PencilClass",
    "mordell_weil_rank",
    "section_intersection_from_height",
    "pencil_class_from_sections",
    "max_singular_fibers_bound",
    "fibration_from_json",
    "fibration_to_json",
]


@dataclass(frozen=True)
class FibrationData:
    """rho is the Picard rank; reducible_fiber_component_counts has one entry
    m_v >= 2 per reducible fiber."""

    rho: int
    reducible_fiber_component_counts: tuple[int, ...] = ()

    def __init__(self, rho, reducible_fiber_component_counts=()):
        rho = exact_int(rho)
        comps = tuple(map(exact_int, reducible_fiber_component_counts))
        if rho < 2:
            raise ValueError("a fibration needs Picard rank at least 2")
        if rho > 20:
            raise ValueError(f"a complex K3 has Picard rank at most 20, got rho = {rho}")
        if any(m < 2 for m in comps):
            raise ValueError("a reducible fiber has at least 2 components")
        excess = sum(m - 1 for m in comps)
        if excess > rho - 2:
            raise ValueError(
                f"fiber components contribute {excess} to the Picard rank, "
                f"violating sum(m_v - 1) <= rho - 2 = {rho - 2}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "reducible_fiber_component_counts", comps)


def mordell_weil_rank(data: FibrationData) -> int:
    """Shioda count: rank = rho - 2 - sum of (m_v - 1); never negative."""
    return data.rho - 2 - sum(m - 1 for m in data.reducible_fiber_component_counts)


def section_intersection_from_height(height: int) -> int:
    """Invert height = 4 + 2 (P . O), the no-reducible-fibers height of a
    section on an elliptic K3."""
    if exact_int(height) % 2 != 0 or height < 4:
        raise ValueError("a section height here is an even integer at least 4")
    return (height - 4) // 2


@dataclass(frozen=True)
class PencilClass:
    """Square of the sum of two square(-2) classes; square 0 marks the class
    of an elliptic pencil (the fiber type itself is not determined here)."""

    square: int
    is_pencil = property(lambda self: self.square == 0)


def pencil_class_from_sections(c1_sq: int, c2_sq: int, c1_dot_c2: int) -> PencilClass:
    if exact_int(c1_sq) != -2 or exact_int(c2_sq) != -2:
        raise ValueError("both classes must have self-intersection -2")
    return PencilClass(-4 + 2 * exact_int(c1_dot_c2))


def max_singular_fibers_bound() -> int:
    """An elliptic pencil on a K3 surface has at most 24 singular fibers."""
    return 24


def fibration_from_json(obj) -> FibrationData:
    exact_keys(obj, "fibration", ("rho",), ("reducible_fiber_component_counts", "has_section"))
    has_section = obj.get("has_section", True)
    if type(has_section) is not bool:
        raise ValueError(f"expected true or false, got {has_section!r}")
    if not has_section:
        raise ValueError("only fibrations with a section are supported")
    return FibrationData(obj["rho"], obj.get("reducible_fiber_component_counts", ()))


def fibration_to_json(data: FibrationData) -> dict:
    return {
        "rho": data.rho,
        "reducible_fiber_component_counts": list(data.reducible_fiber_component_counts),
        "has_section": True,
    }
