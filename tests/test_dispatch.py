"""The single form dispatch, the definiteness property, and the layering
rules that keep the shape ladder inside qform."""

import ast
import pathlib
import random

import pytest

from k3lattice import qform
from k3lattice.qform import (
    BinaryForm,
    DiagonalTernaryForm,
    SearchLimits,
    UnaryForm,
    binary_represents,
    represents,
    ternary_represents,
    unary_represents,
)

SRC = pathlib.Path(qform.__file__).parent
FORM_CLASSES = {"UnaryForm", "BinaryForm", "DiagonalTernaryForm"}


def _nonzero(rng, bound):
    while True:
        v = rng.randint(-bound, bound)
        if v:
            return v


def _sample(rng, count):
    """Seeded (form, per-shape verdict function) pairs of every shape."""
    out = []
    for _ in range(count):
        shape = rng.choice(("unary", "binary", "ternary"))
        if shape == "unary":
            out.append((UnaryForm(rng.randint(-20, 20)), lambda q, t, lim: unary_represents(q, t)))
        elif shape == "binary":
            while True:
                q = BinaryForm(*(rng.randint(-30, 30) for _ in range(3)))
                if q.disc != 0:
                    break
            out.append((q, binary_represents))
        else:
            q = DiagonalTernaryForm(*(_nonzero(rng, 30) for _ in range(3)))
            out.append((q, ternary_represents))
    return out


def test_represents_matches_the_shape_decider():
    rng = random.Random(7)
    limits = SearchLimits(search_bound=60)
    for q, decider in _sample(rng, 600):
        for t in (0, -2, rng.randint(-300, 300)):
            assert represents(q, t, limits) == decider(q, t, limits), (q, t)


def test_represents_default_limits():
    q = BinaryForm(2, 0, -16)
    assert represents(q, -2) == binary_represents(q, -2)
    assert represents(UnaryForm(3), 12).witness == (2,)


def test_represents_rejects_unknown_shapes():
    with pytest.raises(TypeError):
        represents((1, 0, 1), 1)
    with pytest.raises(TypeError):
        represents(SearchLimits(), 0)


@pytest.mark.parametrize("t", [2.5, -2.0, True, "3"])
def test_deciders_refuse_a_non_integer_target(t):
    # verify_certificate refuses such a target, so a NO for it could not replay
    forms = (UnaryForm(2), BinaryForm(2, 0, -16), BinaryForm(1, 0, 1), DiagonalTernaryForm(1, 1, -1))
    deciders = (unary_represents, binary_represents, binary_represents, ternary_represents)
    for q, decide in zip(forms, deciders):
        for call in (decide, represents):
            with pytest.raises(ValueError, match="expected an integer"):
                call(q, t)


@pytest.mark.parametrize("bad", [True, 1.5, "3"])
@pytest.mark.parametrize("make", [UnaryForm, lambda x: BinaryForm(x, 0, -7), lambda x: DiagonalTernaryForm(1, x, -1)])
def test_form_constructors_refuse_a_non_integer_coefficient(make, bad):
    # a bool coefficient would otherwise be decided as 1, a float would fail deep in isqrt
    with pytest.raises(ValueError, match=f"expected an integer, got {bad!r}"):
        make(bad)


def test_definite_sign():
    assert UnaryForm(5).definite_sign == 1
    assert UnaryForm(-3).definite_sign == -1
    assert UnaryForm(0).definite_sign is None
    assert BinaryForm(1, 1, 1).definite_sign == 1  # disc -3
    assert BinaryForm(-2, 1, -3).definite_sign == -1  # disc -23
    assert BinaryForm(1, 2, 1).definite_sign is None  # disc 0
    assert BinaryForm(1, 0, -1).definite_sign is None  # disc 4
    assert BinaryForm(0, 1, 0).definite_sign is None  # zero coefficient, disc 1
    assert BinaryForm(1, 0, 0).definite_sign is None  # zero coefficient, disc 0
    assert DiagonalTernaryForm(1, 2, 3).definite_sign == 1
    assert DiagonalTernaryForm(-1, -2, -3).definite_sign == -1
    assert DiagonalTernaryForm(1, -2, 3).definite_sign is None
    for zero in ((1, 0, 3), (-1, -1, 0)):  # no diagonal ternary form has a zero coefficient
        with pytest.raises(ValueError, match="diagonal coefficients must be nonzero"):
            DiagonalTernaryForm(*zero)


def test_definite_sign_agrees_with_values():
    """A sign means every nonzero vector in a small box takes that sign;
    None means the box already shows a zero or both signs."""
    rng = random.Random(11)
    box = range(-3, 4)
    for _ in range(200):
        q = BinaryForm(*(rng.randint(-6, 6) for _ in range(3)))
        values = {q.evaluate((x, y)) for x in box for y in box if x or y}
        sign = q.definite_sign
        if sign is not None:
            assert all(v * sign > 0 for v in values), q
        else:
            assert not all(v > 0 for v in values) and not all(v < 0 for v in values), q


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_qform_imports_only_ntheory_inside_the_package():
    local = set()
    for node in ast.walk(_tree("qform.py")):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            local.add(node.module)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("k3lattice") for a in node.names)
    assert local == {"ntheory"}


def _isinstance_names(node):
    """Class names in the second argument of an isinstance call."""
    target = node.args[1] if len(node.args) > 1 else None
    parts = target.elts if isinstance(target, ast.Tuple) else [target]
    for part in parts:
        if isinstance(part, ast.Name):
            yield part.id
        elif isinstance(part, ast.Attribute):
            yield part.attr


def test_no_form_isinstance_outside_qform():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "qform.py":
            continue
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                if FORM_CLASSES & set(_isinstance_names(node)):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
