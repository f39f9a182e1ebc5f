import ast
import importlib
from pathlib import Path

import pytest

import mafrft

# The public surface: a new export is added here on purpose.
PUBLIC = [
    "__version__",
    "counters",
    "EigenBasis",
    "build_eigenbasis",
    "commuting_matrix",
    "load_basis",
    "save_basis",
    "validate_eigenbasis",
    "DegenerateBasis",
    "EigenMismatch",
    "LengthMismatch",
    "NonFiniteSignal",
    "OddWithoutPad",
    "ZeroSignal",
    "dft_matrix",
    "reversal_permutation",
    "frft_apply",
    "change_of_basis",
    "change_of_basis_fast",
    "concentration_profile",
    "ma_frft_full",
    "ma_frft_half",
    "ma_frft_naive",
    "z_matrix",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(mafrft.__all__) == sorted(PUBLIC)
    assert len(mafrft.__all__) == len(set(mafrft.__all__))
    for name in PUBLIC:
        assert getattr(mafrft, name) is not None


@pytest.mark.parametrize("module, name", [
    ("eigenbasis", "index_vector"),
    ("eigenbasis", "ValidationReport"),
    ("frft", "frft_matrix"),
    ("multiangle", "MultiangleResult"),
    ("multiangle", "ZMatrix"),
])
def test_unexported_names_import_from_their_module(module, name):
    assert name not in mafrft.__all__
    assert getattr(importlib.import_module(f"mafrft.{module}"), name) is not None


def _relative_imports(path):
    """``(module, name)`` for each ``from .module import name`` in a file."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_module_layering():
    # frft is the single-order reference: shared helpers live in foundation,
    # and the reference does not lean on the multiangle paths it checks.
    src = Path(mafrft.__file__).parent
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert modules == ["cli", "eigenbasis", "exceptions", "foundation", "frft", "multiangle"]
    for path in src.glob("*.py"):
        for module, name in _relative_imports(path):
            assert not (module == "frft" and name.startswith("_")), (path.name, name)
    assert all(module != "multiangle" for module, _ in _relative_imports(src / "frft.py"))
    assert [name for module, name in _relative_imports(src / "multiangle.py")
            if module == "frft"] == ["frft_apply"]
