"""The package's layer order: each module imports only the modules below it,
and the verifier layer (qform) rests on ntheory alone."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "k3lattice"
ORDER = ("ntheory", "matrices", "lattices", "embeddings", "qform", "k3", "elliptic", "catalog", "cli")


def _package_imports(source: str) -> set[str]:
    """Names of the k3lattice modules that the source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.module and node.module.split(".")[0] == "k3lattice":
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "k3lattice" and rest:
                    found.add(rest.split(".")[0])
    return found


def test_every_module_is_in_the_layer_order():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_each_module_imports_only_earlier_layers():
    for i, name in enumerate(ORDER):
        imported = _package_imports((PACKAGE / f"{name}.py").read_text())
        later = imported - set(ORDER[:i])
        assert not later, f"{name} imports {sorted(later)}, which are not below it in {ORDER}"


def test_qform_imports_only_ntheory():
    assert _package_imports((PACKAGE / "qform.py").read_text()) == {"ntheory"}


def test_the_import_scan_sees_every_form():
    source = (
        "import os\n"
        "from . import lattices, qform\n"
        "from .ntheory import exact_int\n"
        "from k3lattice.matrices import det\n"
        "from k3lattice import k3\n"
        "import k3lattice.catalog\n"
        "def f():\n"
        "    from .cli import main\n"
    )
    assert _package_imports(source) == {"lattices", "qform", "ntheory", "matrices", "k3", "catalog", "cli"}
