import importlib

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
