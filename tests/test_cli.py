import builtins
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mafrft
from mafrft import DegenerateBasis, EigenMismatch
from mafrft.cli import EXIT_CODES, main, make_signal, read_signal, write_signal


def run(argv):
    return main([str(a) for a in argv])


def test_gen_delta(tmp_path):
    out = tmp_path / "delta.csv"
    assert run(["gen", "--n", 8, "--kind", "delta", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "1,0"
    assert lines[1:] == ["0,0"] * 7


def test_gen_tone_constant_modulus(tmp_path):
    out = tmp_path / "tone.csv"
    assert run(["gen", "--n", 8, "--kind", "tone", "--f0", 2, "--amplitude",
                1.5, "--out", out]) == 0
    x = read_signal(out)
    assert np.abs(np.abs(x) - 1.5).max() < 1e-15


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["gen", "--n", 16, "--kind", "noise", "--seed", 42,
             "--noise-std", 0.1, "--out", out])
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_small_n(tmp_path):
    assert run(["gen", "--n", 3, "--kind", "delta",
                "--out", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("flag", ["--rate", "--f0", "--amplitude", "--noise-std"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_rejects_non_finite_parameter(tmp_path, flag, value):
    out = tmp_path / "x.csv"
    assert run(["gen", "--n", 8, "--kind", "chirp", flag, value, "--out", out]) == 2
    assert not out.exists()


def test_compute_delta_column_zero(tmp_path):
    sig = tmp_path / "delta.csv"
    run(["gen", "--n", 8, "--kind", "delta", "--out", sig])
    assert run(["compute", "--input", sig, "--variant", "standard",
                "--path", "full", "--out-prefix", tmp_path / "out"]) == 0
    re = np.loadtxt(tmp_path / "out_re.csv", delimiter=",")
    im = np.loadtxt(tmp_path / "out_im.csv", delimiter=",")
    x = re[:, 0] + 1j * im[:, 0]
    expected = np.zeros(8)
    expected[0] = 1
    assert np.abs(x - expected).max() < 1e-9
    orders = np.loadtxt(tmp_path / "out_orders.csv", delimiter=",")
    assert np.allclose(orders, 4 * np.arange(8) / 8)


def test_compute_half_equals_full(tmp_path):
    sig = tmp_path / "sig.csv"
    run(["gen", "--n", 16, "--kind", "chirp", "--rate", 1, "--f0", -7.5,
         "--out", sig])
    run(["compute", "--input", sig, "--path", "full",
         "--out-prefix", tmp_path / "f"])
    run(["compute", "--input", sig, "--path", "half",
         "--out-prefix", tmp_path / "h"])
    for part in ("re", "im"):
        full = np.loadtxt(tmp_path / f"f_{part}.csv", delimiter=",")
        half = np.loadtxt(tmp_path / f"h_{part}.csv", delimiter=",")
        assert np.abs(full - half).max() < 1e-12


def test_compute_half_odd_without_pad_is_conflict(tmp_path):
    sig = tmp_path / "sig.csv"
    run(["gen", "--n", 9, "--kind", "noise", "--noise-std", 1, "--out", sig])
    assert run(["compute", "--input", sig, "--path", "half",
                "--out-prefix", tmp_path / "o"]) == 3
    assert run(["compute", "--input", sig, "--path", "half", "--pad-odd",
                "--out-prefix", tmp_path / "o"]) == 0
    orders = np.loadtxt(tmp_path / "o_orders.csv", delimiter=",")
    assert len(orders) == 10


def test_compute_parse_failure(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,number\n")
    assert run(["compute", "--input", bad, "--out-prefix", tmp_path / "x"]) == 2
    assert run(["compute", "--input", tmp_path / "missing.csv",
                "--out-prefix", tmp_path / "x"]) == 2


def test_compute_non_finite_sample_is_parse_error(tmp_path, capsys):
    sig = tmp_path / "nan.csv"
    run(["gen", "--n", 8, "--kind", "noise", "--out", sig])
    lines = sig.read_text().splitlines()
    lines[2] = "nan,0"
    sig.write_text("\n".join(lines) + "\n")
    assert run(["compute", "--input", sig, "--out-prefix", tmp_path / "x"]) == 2
    assert "NonFiniteSignal" in capsys.readouterr().err
    assert not (tmp_path / "x_re.csv").exists()


VALIDATE_KEYS = {"orthonormality_residual", "eigen_residual", "symmetry_residual",
                 "pass"}


def test_validate_8_standard(capsys):
    assert run(["validate", "--n", 8, "--variant", "standard"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == VALIDATE_KEYS
    assert report["pass"] is True


def test_validate_9_centered(capsys):
    assert run(["validate", "--n", 9, "--variant", "centered"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == VALIDATE_KEYS
    assert report["pass"] is True
    assert report["eigen_residual"] < 1e-8


def test_validate_broken_symmetry_is_validation_failure(capsys, monkeypatch):
    monkeypatch.setattr("mafrft.eigenbasis.reversal_permutation",
                        lambda n, v: np.arange(n))
    assert run(["validate", "--n", 16, "--variant", "centered"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("validate: EigenMismatch: symmetry_residual ")
    assert err.count("\n") == 1


def test_validate_small_n_rejected():
    assert run(["validate", "--n", 3, "--variant", "standard"]) == 2


def test_render_delta(tmp_path):
    sig = tmp_path / "delta.csv"
    run(["gen", "--n", 8, "--kind", "delta", "--out", sig])
    run(["compute", "--input", sig, "--out-prefix", tmp_path / "m"])
    pgm = tmp_path / "m.pgm"
    assert run(["render", "--in-prefix", tmp_path / "m", "--out", pgm]) == 0
    data = pgm.read_bytes()
    assert data.startswith(b"P5\n8 8\n255\n")
    pixels = np.frombuffer(data[len(b"P5\n8 8\n255\n"):], dtype=np.uint8)
    pixels = pixels.reshape(8, 8)
    assert np.unravel_index(pixels.argmax(), (8, 8))[1] == 0


def test_render_zero_matrix_rejected(tmp_path, capsys):
    Z = "\n".join(",".join("0" for _ in range(4)) for _ in range(4)) + "\n"
    (tmp_path / "z_re.csv").write_text(Z)
    (tmp_path / "z_im.csv").write_text(Z)
    assert run(["render", "--in-prefix", tmp_path / "z",
                "--out", tmp_path / "z.pgm"]) == 1
    assert "ZeroSignal" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_render_rejects_non_finite_entry(tmp_path, capsys, value):
    (tmp_path / "m_re.csv").write_text(f"1,2\n3,{value}\n")
    (tmp_path / "m_im.csv").write_text("0,0\n0,0\n")
    pgm = tmp_path / "m.pgm"
    assert run(["render", "--in-prefix", tmp_path / "m", "--out", pgm]) == 2
    assert "infinite" in capsys.readouterr().err
    assert not pgm.exists()


def test_render_missing_input(tmp_path):
    assert run(["render", "--in-prefix", tmp_path / "nope",
                "--out", tmp_path / "n.pgm"]) == 2


def test_render_chirp_brightest_columns(tmp_path):
    sig = tmp_path / "chirp.csv"
    run(["gen", "--n", 8, "--kind", "chirp", "--rate", 1, "--f0", -3.5,
         "--out", sig])
    run(["compute", "--input", sig, "--out-prefix", tmp_path / "c"])
    pgm = tmp_path / "c.pgm"
    run(["render", "--in-prefix", tmp_path / "c", "--out", pgm])
    data = pgm.read_bytes()
    pixels = np.frombuffer(data[len(b"P5\n8 8\n255\n"):], dtype=np.uint8)
    pixels = pixels.reshape(8, 8)
    bright = set(np.flatnonzero(pixels.max(axis=0) == pixels.max()))
    assert bright == {1, 5}


def test_make_signal_checks_n():
    with pytest.raises(TypeError):
        make_signal(8.5, "chirp")
    with pytest.raises(ValueError, match="n must be >= 4"):
        make_signal(3, "chirp")
    assert len(make_signal(np.int64(4), "chirp")) == 4


def test_make_signal_unit_chirp_matches_cli_convention():
    x = make_signal(8, "chirp", rate=1.0, f0=-3.5)
    idx = np.arange(8)
    expected = np.exp(1j * (np.pi * idx**2 / 8 - 2 * np.pi * 3.5 * idx / 8))
    assert np.abs(x - expected).max() < 1e-15


# --- exit-code policy ------------------------------------------------------------


def test_compute_unwritable_out_prefix_is_io_error(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    run(["gen", "--n", 8, "--kind", "delta", "--out", sig])
    capsys.readouterr()
    assert run(["compute", "--input", sig,
                "--out-prefix", tmp_path / "missing" / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compute: FileNotFoundError: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [EigenMismatch, DegenerateBasis])
@pytest.mark.parametrize("command", ["validate", "compute"])
def test_basis_failure_is_validation_failure(tmp_path, capsys, monkeypatch,
                                             exc, command):
    sig = tmp_path / "sig.csv"
    run(["gen", "--n", 8, "--kind", "delta", "--out", sig])

    def broken(n, variant):
        raise exc("broken basis")

    monkeypatch.setattr("mafrft.cli.build_eigenbasis", broken)
    argv = {"validate": ["validate", "--n", 8],
            "compute": ["compute", "--input", sig, "--out-prefix", tmp_path / "o"]}
    capsys.readouterr()
    assert run(argv[command]) == 1
    assert capsys.readouterr().err == f"{command}: {exc.__name__}: broken basis\n"


def test_unmapped_exception_keeps_its_traceback(monkeypatch):
    def broken(n, variant):
        raise RuntimeError("a bug")

    monkeypatch.setattr("mafrft.cli.build_eigenbasis", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        run(["validate", "--n", 8])


# --- signal CSV format -------------------------------------------------------------


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"])
def test_compute_empty_signal_file_is_parse_error(tmp_path, capsys, text):
    sig = tmp_path / "empty.csv"
    sig.write_text(text)
    assert run(["compute", "--input", sig, "--out-prefix", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("compute: ValueError: no rows")


def test_read_signal_skips_whitespace_only_lines(tmp_path):
    sig = tmp_path / "sig.csv"
    sig.write_text("1,2\n   \n3,-4\n\t\n\n5,6\n")
    assert np.array_equal(read_signal(sig), [1 + 2j, 3 - 4j, 5 + 6j])


@pytest.mark.parametrize("text", [
    pytest.param("# comment\n" + "1,0\n" * 4, id="hash-line"),
    pytest.param("1\n0\n0\n0\n", id="one-column"),
    pytest.param("1,0,0\n" * 4, id="three-columns"),
    pytest.param("1,0\n0,0,0\n0,0\n0,0\n", id="ragged"),
])
def test_compute_malformed_signal_is_parse_error(tmp_path, capsys, text):
    sig = tmp_path / "bad.csv"
    sig.write_text(text)
    assert run(["compute", "--input", sig, "--out-prefix", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("compute: ValueError: ")
    assert not (tmp_path / "x_re.csv").exists()


_floats = st.floats(allow_nan=False)


@given(st.lists(st.tuples(_floats, _floats), min_size=1, max_size=16))
@example([(-0.0, 0.0), (5e-324, -2.2250738585072014e-308), (1e308, -1e308)])
@example([(0.0, np.inf), (-0.0, -np.inf)])
def test_signal_round_trip_is_bit_exact(tmp_path_factory, pairs):
    x = np.array(pairs).view(complex)[:, 0]
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_signal(x, path)
    assert read_signal(path).tobytes() == x.tobytes()


def test_readme_exit_code_table_follows_exit_codes():
    # Each backticked exception of a row maps to the row's code by the first
    # match in EXIT_CODES, and each type in EXIT_CODES is named in its row.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {int(code): re.findall(r"`(\w+)`", names) for code, names in
            re.findall(r"^\| (\d) +\|[^|]*\|(.*)\|$", readme, re.MULTILINE)}
    assert set(rows) == {0} | {code for _, code in EXIT_CODES}
    for code, names in rows.items():
        for name in names:
            error = getattr(mafrft, name, None) or getattr(builtins, name)
            assert next(c for types, c in EXIT_CODES if issubclass(error, types)) == code, name
    for types, code in EXIT_CODES:
        for error in types if isinstance(types, tuple) else (types,):
            assert error.__name__ in rows[code], (error, code)
