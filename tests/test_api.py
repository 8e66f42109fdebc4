"""The package surface: one export rule, integers only at every numeric
entry, and README's examples kept runnable."""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import k3lattice
from k3lattice import catalog, elliptic, embeddings, k3, lattices, qform

ROOT = Path(__file__).resolve().parent.parent
API_MODULES = (lattices, embeddings, qform, k3, elliptic, catalog)

# every name the package exported before the export rule; none may go but
# aut_verdict, deleted on purpose as a copy of classify(data, limits).aut,
# the uncertified chamber proxy g_t_membership_proxy with its helpers
# discriminant_action and DiscriminantAction, SectionPair, a copy of
# section_intersection_from_height, and same_positive_cone_component, the
# sign of one pairing with no caller
EXPORTED_BEFORE = [
    "__version__",
    "AUT_INDEX_FACTOR", "GramLattice", "Signature", "DiscriminantGroup", "standard_lattice",
    "direct_sum", "signature", "det", "discriminant_group", "aut_order_finite_abelian",
    "aut_index_bound", "lattice_from_json", "lattice_to_json",
    "EmbeddedSublattice", "IsometryMap", "induced_gram", "is_primitive",
    "primitive_closure", "orthogonal_complement", "extend_by_identity",
    "sublattice_from_json", "sublattice_to_json",
    "UnaryForm", "BinaryForm", "DiagonalTernaryForm", "SearchLimits", "Certificate",
    "RepresentationVerdict", "represents", "unary_represents", "binary_represents",
    "binary_represents_zero", "ternary_represents", "ternary_represents_zero",
    "enumerate_primitive_zeros", "verify_certificate", "form_from_json", "form_to_json",
    "verdict_to_json",
    "PicardData", "AutReport", "K3Report", "PROVEN", "lattice_form",
    "has_minus2_class", "has_isotropic_class", "classify", "revalidate_report",
    "picard_from_json", "report_to_json",
    "FibrationData", "PencilClass", "mordell_weil_rank",
    "section_intersection_from_height", "pencil_class_from_sections", "max_singular_fibers_bound",
    "fibration_from_json", "fibration_to_json",
    "PAPER_ASSERTED", "Claim3Input", "Claim3Result", "FamilySpec", "Theorem3Example", "SearchExhausted",
    "CatalogMismatch", "claim3_search", "claim3_result_to_json", "family", "certify_family",
    "theorem3_example", "theorem3_to_json", "paper_verification",
]


def _public_top_level(module) -> set[str]:
    """Public names a module defines at top level: functions, classes, and
    assigned constants; imported names do not count."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def test_package_all_is_the_module_lists():
    expected = ["__version__"] + [n for m in API_MODULES for n in m.__all__]
    assert k3lattice.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in API_MODULES:
        for name in module.__all__:
            assert getattr(k3lattice, name) is getattr(module, name), name


def test_module_all_is_exactly_its_public_definitions():
    for module in API_MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        assert set(module.__all__) == _public_top_level(module), module.__name__


def test_every_earlier_export_survives():
    assert len(EXPORTED_BEFORE) == 73
    assert set(EXPORTED_BEFORE) <= set(k3lattice.__all__)
    for name in EXPORTED_BEFORE:
        assert hasattr(k3lattice, name), name


def test_every_certificate_kind_is_exported_and_replayed():
    kinds = [
        "DIVISIBILITY", "SIEVE", "LEGENDRE", "SQUARE_DISC_EXHAUST", "NONSQUARE_DISC",
        "DEFINITE", "DEFINITE_EXHAUST", "CYCLE", "LOCAL",
    ]
    assert [getattr(k3lattice, kind) for kind in kinds] == kinds
    assert set(kinds) == set(qform._VERIFIERS)


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def _trailing_comments(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def _is_print(stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "print"
    )


@pytest.mark.parametrize(
    "call, bad",
    [
        (qform.SearchLimits, 2.5),  # would fail inside range
        (qform.SearchLimits, True),  # would run as a bound of 1
        (lambda h: qform.enumerate_primitive_zeros(qform.DiagonalTernaryForm(1, 1, -2), h), True),
        (lambda h: qform.enumerate_primitive_zeros(qform.DiagonalTernaryForm(1, 1, -2), h), 2.5),
        (elliptic.section_intersection_from_height, 8.0),  # would return the float 2.0
        (lambda c: elliptic.pencil_class_from_sections(c, -2, 2), -2.0),
        (lambda c: elliptic.pencil_class_from_sections(-2, c, 2), -2.0),
    ],
)
def test_numeric_library_arguments_are_exact_ints(call, bad):
    with pytest.raises(ValueError, match="expected an integer"):
        call(bad)


def test_readme_python_blocks_run_and_print_what_they_say():
    """README's python blocks run in one namespace, in order; each print with
    a trailing comment prints exactly that comment."""
    blocks = _readme_python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    checked = 0
    for block in blocks:
        comments = _trailing_comments(block)
        for stmt in ast.parse(block).body:
            code = compile(ast.Module(body=[stmt], type_ignores=[]), "README.md", "exec")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, namespace)
            if _is_print(stmt) and stmt.end_lineno in comments:
                assert out.getvalue().rstrip("\n") == comments[stmt.end_lineno], ast.unparse(stmt)
                checked += 1
    assert checked >= 10
