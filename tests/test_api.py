import mafrft

# The public surface: a new export is added here on purpose.
PUBLIC = [
    "__version__",
    "counters",
    "EigenBasis",
    "ValidationReport",
    "build_eigenbasis",
    "commuting_matrix",
    "index_vector",
    "load_basis",
    "save_basis",
    "validate_eigenbasis",
    "CommutationError",
    "DegenerateBasis",
    "EigenMismatch",
    "LengthMismatch",
    "NonFiniteSignal",
    "OddWithoutPad",
    "ZeroSignal",
    "dft_matrix",
    "reversal_permutation",
    "frft_apply",
    "frft_matrix",
    "MultiangleResult",
    "ZMatrix",
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
