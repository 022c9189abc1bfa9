import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadamard_forge
from hadamard_forge import (
    bf,
    bf_quartic_roots,
    d6,
    d61,
    d61_family,
    d81,
    dephase,
    lift_roots,
    multiset_match,
)
from hadamard_forge.cli import (
    EXIT_CONSTRAINT,
    EXIT_FALSE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    CliError,
    main,
    parse_matrix,
    parse_phase,
    serialize_matrix,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, M, fmt="json", meta=None):
    path.write_text(serialize_matrix(M, meta or {}, fmt))
    return str(path)


def parse_printed(lines):
    return np.array([complex(ln.replace("i", "j")) for ln in lines])


def doubled_chain(tmp_path, capsys, left, right, doublings):
    """Path of `left` doubled with `right`, then with itself, `doublings` times in all."""
    paths = [str(tmp_path / f"{name}.json") for name in (left, right)]
    for name, path in zip((left, right), paths):
        assert run(capsys, "gen", name, "--out", path)[0] == EXIT_OK
    for k in range(doublings):
        out = str(tmp_path / f"doubled{k}.json")
        assert run(capsys, "double", *paths, "--out", out)[0] == EXIT_OK
        paths = [out, out]
    return paths[0]


class TestPhaseParsing:
    def test_rational_pi(self):
        assert abs(parse_phase("3/4pi") - np.exp(3j * np.pi / 4)) < 1e-15
        assert abs(parse_phase("pi") + 1.0) < 1e-15
        assert abs(parse_phase("-1/2pi") + 1j) < 1e-15
        assert abs(parse_phase("2pi") - 1.0) < 1e-15

    def test_radians(self):
        assert abs(parse_phase("0") - 1.0) < 1e-15
        assert abs(parse_phase("1.5") - np.exp(1.5j)) < 1e-15

    def test_literal_complex(self):
        assert parse_phase("1+2i") == 1 + 2j
        assert parse_phase("-i") == -1j
        assert parse_phase("2.95+0i") == 2.95
        assert parse_phase("2+0i") == 2

    def test_bad_values(self):
        from hadamard_forge.cli import CliError

        for bad in ("", "x/ypi", "1+2k"):
            with pytest.raises(CliError):
                parse_phase(bad)

    @pytest.mark.parametrize("bad", [
        "1e400pi", "1e308pi", "inf", "-inf", "nan", "1e400", "nan+0i", "inf+1i", "1+nanj",
    ])
    def test_non_finite_values_are_usage_errors(self, bad, capsys):
        from hadamard_forge.cli import CliError

        with pytest.raises(CliError) as err:
            parse_phase(bad)
        assert err.value.code == EXIT_USAGE
        code, out, _ = run(capsys, "gen", "h4a", "--params", bad)
        assert (code, out) == (EXIT_USAGE, "")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)


def json_documents():
    """JSON objects near the matrix document: any values under its three keys."""
    numbers = st.integers(-2, 2) | st.floats() | st.integers(-(10**400), 10**400)
    entries = st.lists(st.lists(st.lists(numbers, max_size=3), max_size=3), max_size=3)
    return st.fixed_dictionaries({}, optional={
        "order": _JSON_VALUES | st.integers(-1, 3),
        "entries": _JSON_VALUES | entries,
        "metadata": _JSON_VALUES,
    }).map(json.dumps)


def csv_rows():
    """Lines of comma-separated tokens over the characters of complex literals."""
    token = st.text(alphabet="0123456789.+-eEijnaf# :", max_size=8)
    return st.lists(st.lists(token, min_size=1, max_size=3), max_size=4).map(
        lambda rows: "\n".join(",".join(row) for row in rows))


class TestSerialization:
    def test_json_roundtrip_byte_identical(self):
        M = d81()
        text = serialize_matrix(M, {"family": "d81"}, "json")
        M2, meta = parse_matrix(text)
        assert np.array_equal(M, M2)
        assert meta["family"] == "d81"
        assert serialize_matrix(M2, meta, "json") == text

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
        min_size=2 * n * n, max_size=2 * n * n)))
    def test_json_roundtrip_bit_exact(self, parts):
        n = int(round((len(parts) / 2) ** 0.5))
        M = np.array(parts, dtype=float).view(complex).reshape(n, n)
        M2, _ = parse_matrix(serialize_matrix(M))
        assert M2.tobytes() == M.tobytes()

    def test_csv_roundtrip_byte_identical(self):
        M = bf(bf_quartic_roots()[0])
        text = serialize_matrix(M, {"family": "bf"}, "csv")
        M2, meta = parse_matrix(text)
        assert np.array_equal(M, M2)
        assert serialize_matrix(M2, meta, "csv") == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(CliError) as err:
            parse_matrix("not a matrix at all")
        assert err.value.code == EXIT_PARSE

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), json_documents(), csv_rows()))
    def test_parse_raises_only_cli_error(self, text):
        try:
            M, meta = parse_matrix(text)
        except CliError as exc:
            assert exc.code == EXIT_PARSE
        else:
            assert M.ndim == 2 and M.shape[0] == M.shape[1] and isinstance(meta, dict)


class TestGen:
    def test_gen_d6_verifies(self, tmp_path, capsys):
        out = tmp_path / "d6.json"
        code, _, _ = run(capsys, "gen", "d6", "--out", str(out))
        assert code == EXIT_OK
        M, meta = parse_matrix(out.read_text())
        assert np.array_equal(M, d6())
        assert meta["hadamard"] == "true"

    def test_gen_h4a_with_phase(self, tmp_path, capsys):
        out = tmp_path / "h4a.json"
        code, _, _ = run(capsys, "gen", "h4a", "--params", "0", "--out", str(out))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "verify", str(out))
        assert code == EXIT_OK

    def test_gen_m6_branch_mode(self, tmp_path, capsys):
        # point on the b = -c*d/e surface, where the solved a and f are
        # guaranteed unimodular
        b_angle = np.pi + 0.5 + 1.1 - 2.0
        out = tmp_path / "m6.json"
        code, _, _ = run(
            capsys,
            "gen", "m6",
            "--params", f"{b_angle!r}", "0.5", "1.1", "2.0",
            "--branch", "f+", "a+",
            "--out", str(out),
        )
        assert code == EXIT_OK
        code, _, _ = run(capsys, "verify", str(out))
        assert code == EXIT_OK

    def test_gen_m6s_branch_mode_is_dephased_m6(self, tmp_path, capsys):
        b_angle = np.pi + 0.5 + 1.1 - 2.0
        outs = {}
        for family in ("m6", "m6s"):
            outs[family] = tmp_path / f"{family}.json"
            code, _, _ = run(
                capsys,
                "gen", family,
                "--params", f"{b_angle!r}", "0.5", "1.1", "2.0",
                "--branch", "f-", "a+",
                "--out", str(outs[family]),
            )
            assert code == EXIT_OK
        (M, meta), (Ms, meta_s) = (parse_matrix(outs[f].read_text()) for f in ("m6", "m6s"))
        assert np.array_equal(Ms, dephase(M))
        assert meta_s["solved"] == meta["solved"]

    def test_gen_m6_unknown_branch_label_is_construction_failure(self, capsys):
        code, _, err = run(
            capsys, "gen", "m6", "--params", "0.31,0.7,1.9,2.6", "--branch", "fx", "a+"
        )
        assert code == EXIT_CONSTRAINT
        assert "construction failed" in err

    def test_gen_d8a_zero_parameter_is_construction_failure(self, capsys):
        # a zero g must be caught before the right block divides by it, and
        # each zero is named as d8a names it, not as the blocks' solvers do
        for params, name in [("0i,0,0,0,0,0", "b"), ("0,0,0,0i,0,0", "f"),
                             ("0,0,0,0,0i,0", "g"), ("0,0,0,0,0,0i", "h")]:
            code, out, err = run(capsys, "gen", "d8a", "--params", params)
            assert (code, out) == (EXIT_CONSTRAINT, "")
            assert f"construction failed: parameter {name!r} must be finite and nonzero" in err

    def test_gen_m8_unknown_branch_label_is_construction_failure(self, capsys):
        code, _, err = run(
            capsys, "gen", "m8", "--params", "0,0,0,0,0,0,0", "--branch", "hx"
        )
        assert code == EXIT_CONSTRAINT
        assert "construction failed" in err

    def test_gen_m6_branch_mode_off_surface_is_constraint_failure(
        self, tmp_path, capsys
    ):
        # generic torus points can produce an off-torus a-branch: the file
        # is still written but the exit code reports the failure
        out = tmp_path / "m6.json"
        code, _, _ = run(
            capsys,
            "gen", "m6",
            "--params", "0.31", "0.7", "1.9", "2.6",
            "--branch", "f+", "a+",
            "--out", str(out),
        )
        assert code == EXIT_CONSTRAINT
        M, meta = parse_matrix(out.read_text())
        assert meta["hadamard"] == "false"
        assert M.shape == (6, 6)

    def test_gen_d61f_off_torus_writes_unverified_matrix(self, tmp_path, capsys):
        # neither radical sign verifies off the torus: the principal-branch
        # matrix is written and the exit code reports the failure
        out = tmp_path / "d61f.json"
        code, _, _ = run(capsys, "gen", "d61f", "--params", "2+0i,0,0", "--out", str(out))
        assert code == EXIT_CONSTRAINT
        M, meta = parse_matrix(out.read_text())
        assert meta["hadamard"] == "false"
        assert np.array_equal(M, d61_family(2, 1, 1))

    def test_gen_bf_real_root_writes_file(self, tmp_path, capsys):
        out = tmp_path / "bf3.json"
        code, _, _ = run(capsys, "gen", "bf", "--root", "3", "--out", str(out))
        assert code == EXIT_OK  # bf is not a guaranteed family
        code, _, _ = run(capsys, "verify", str(out))
        assert code == EXIT_FALSE

    def test_gen_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "nosuch")
        assert code == EXIT_USAGE

    def test_gen_wrong_arity(self, capsys):
        code, _, _ = run(capsys, "gen", "h4", "--params", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["gen", "d6", "--branch", "h+"],
        ["gen", "h4a", "--params", "0", "--branch", "f+", "a+"],
        ["gen", "d8a", "--params", "0,0,0,0,0,0", "--branch", "h-"],
        ["gen", "d6", "--root", "1"],
        ["gen", "h4a", "--params", "0", "--root", "2"],
        ["gen", "m6", "--params", "0,0,0,0,0,0", "--root", "1"],
        ["gen", "bf", "--root", "1", "--params", "0.5"],
    ])
    def test_gen_option_the_family_does_not_take_is_usage_error(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "applies to" in err

    def test_gen_csv_format(self, tmp_path, capsys):
        out = tmp_path / "d6.csv"
        code, _, _ = run(capsys, "--format", "csv", "gen", "d6", "--out", str(out))
        assert code == EXIT_OK
        M, _ = parse_matrix(out.read_text())
        assert np.array_equal(M, d6())


class TestVerify:
    def test_d6_passes(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d6())
        code, out, _ = run(capsys, "verify", path)
        assert code == EXIT_OK
        assert "hadamard: true" in out

    def test_bf_real_root_fails_unimodularity(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", bf(bf_quartic_roots()[2]))
        code, out, _ = run(capsys, "verify", path)
        assert code == EXIT_FALSE
        assert "unimodular: false" in out

    def test_corrupted_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "text",
        [
            "[[1, 0], [0, 1]]",
            '{"entries": [[[1, 0]], [[1, 0], [0, 1]]]}',
            '{"entries": [[["1", "0"], ["0", "1"]]]}',
            '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "1,0\n0,one",
        ],
        ids=["non-dict-json", "ragged", "string-entries", "deep-nesting", "csv-token"],
    )
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: cannot parse matrix file")

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/x.json")
        assert code == EXIT_PARSE

    def test_json_report(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d6())
        code, out, _ = run(capsys, "--format", "json", "verify", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["hadamard"] is True
        assert report["residual"] <= 1e-10


class TestSpectrum:
    def test_dephased_bf_prints_plus_minus_ones(self, tmp_path, capsys):
        from hadamard_forge import bf_dephased

        path = write_matrix(tmp_path / "m.json", bf_dephased(bf_quartic_roots()[0]))
        code, out, _ = run(capsys, "spectrum", path)
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 6
        vals = [complex(ln.replace("i", "j")) for ln in lines]
        assert sum(1 for v in vals if abs(v + 1) < 1e-8) == 3
        assert sum(1 for v in vals if abs(v - 1) < 1e-8) == 3

    def test_d61_contains_landmark_value(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d61())
        code, out, _ = run(capsys, "spectrum", path)
        target = (1j - np.sqrt(2)) / np.sqrt(3)
        vals = [complex(ln.replace("i", "j")) for ln in out.splitlines() if ln]
        assert min(abs(v - target) for v in vals) < 1e-8

    def test_d81_reduce_prints_y_roots(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d81())
        code, out, _ = run(capsys, "spectrum", path, "--reduce")
        assert code == EXIT_OK
        assert "reduced-roots:" in out
        tail = out.split("reduced-roots:")[1]
        vals = [complex(ln.replace("i", "j")) for ln in tail.splitlines() if ln]
        assert min(abs(v + 1j * np.sqrt(2)) for v in vals) < 1e-8

    def test_reduce_on_non_reciprocal_notes_it(self, tmp_path, capsys):
        from hadamard_forge import h4a

        path = write_matrix(tmp_path / "m.json", h4a(1j))
        code, out, _ = run(capsys, "spectrum", path, "--reduce")
        assert code == EXIT_OK
        assert "not reciprocal" in out

    def test_m48_reduced_roots_lift_onto_its_eigenvalues(self, tmp_path, capsys):
        # a6/b6 -> m12 -> m24 -> m48, whose eigenvalues pair as (x, -1/x)
        path = doubled_chain(tmp_path, capsys, "a6", "b6", 3)
        code, out, _ = run(capsys, "spectrum", path, "--reduce")
        lines = out.splitlines()
        assert code == EXIT_OK and lines[48] == "reduced-roots:" and len(lines) == 48 + 1 + 24
        eigenvalues, ys = parse_printed(lines[:48]), parse_printed(lines[49:])
        assert multiset_match(lift_roots(ys), eigenvalues, 1e-8)

    def test_d12_reduces_to_six_zero_roots(self, tmp_path, capsys):
        path = doubled_chain(tmp_path, capsys, "d6", "d6", 1)
        code, out, _ = run(capsys, "spectrum", path, "--reduce")
        lines = out.splitlines()
        assert code == EXIT_OK and lines[12] == "reduced-roots:" and len(lines) == 19
        assert np.max(np.abs(parse_printed(lines[13:]))) <= 1e-12

    @pytest.mark.parametrize("M", [
        1j * np.array([[1, 1], [1, -1]]),                           # spectrum {i, -i}
        np.ones((2, 2)),                                            # eigenvalue 0
        np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3),     # odd order
    ])
    def test_unpaired_spectra_are_not_reciprocal_without_warnings(self, M, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "spectrum", path, "--reduce")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[len(M):] == ["reduced: not reciprocal"]

    def test_reduce_uses_no_polynomial(self, tmp_path, capsys, monkeypatch):
        from hadamard_forge import spectra

        calls = []
        for name in ("char_poly", "poly_roots"):
            fn = getattr(spectra, name)
            monkeypatch.setattr(spectra, name,
                                lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
        for M in (d81(), d6(), d61()):
            path = write_matrix(tmp_path / "m.json", M)
            assert run(capsys, "spectrum", path, "--reduce")[0] == EXIT_OK
        assert calls == []

    def test_sorted_by_real_then_imag(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d61())
        _, out, _ = run(capsys, "spectrum", path)
        vals = [complex(ln.replace("i", "j")) for ln in out.splitlines() if ln]
        keys = [(round(v.real / 1e-8), round(v.imag / 1e-8)) for v in vals]
        assert keys == sorted(keys)


class TestEquiv:
    def test_d6_vs_d61_not_equivalent(self, tmp_path, capsys):
        pa = write_matrix(tmp_path / "a.json", d6())
        pb = write_matrix(tmp_path / "b.json", d61())
        code, out, _ = run(capsys, "equiv", pa, pb)
        assert code == EXIT_FALSE
        assert "unitary-equivalent: false" in out

    def test_bf_vs_dephased_not_equivalent(self, tmp_path, capsys):
        from hadamard_forge import bf_dephased, dephase

        d1 = bf_quartic_roots()[0]
        pa = write_matrix(tmp_path / "a.json", bf(d1))
        pb = write_matrix(tmp_path / "b.json", bf_dephased(d1))
        code, _, _ = run(capsys, "equiv", pa, pb)
        assert code == EXIT_FALSE

    def test_self_equivalent(self, tmp_path, capsys):
        pa = write_matrix(tmp_path / "a.json", d6())
        code, out, _ = run(capsys, "equiv", pa, pa)
        assert code == EXIT_OK
        assert "unitary-equivalent: true" in out

    def test_each_matrix_is_diagonalised_once(self, tmp_path, capsys, monkeypatch):
        pa = write_matrix(tmp_path / "a.json", d81())
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda *args: calls.append(1) or eigvals(*args))
        code, out, _ = run(capsys, "equiv", pa, pa)
        assert code == EXIT_OK and out.endswith("unitary-equivalent: true\n")
        assert len(calls) == 2

    def test_order_mismatch(self, tmp_path, capsys):
        from hadamard_forge import h4a

        pa = write_matrix(tmp_path / "a.json", d6())
        pb = write_matrix(tmp_path / "b.json", h4a(1.0))
        code, _, _ = run(capsys, "equiv", pa, pb)
        assert code == EXIT_USAGE


class TestHugeEntries:
    # finite entries whose squares overflow a float
    HUGE = np.array([[1e160, 1e160], [1e160, -1e160]])

    def test_spectrum_reduce_finds_no_pairs(self, tmp_path, capsys):
        # the eigenvalues +-1e160 have partners -+1e-160, so nothing pairs
        path = write_matrix(tmp_path / "m.json", self.HUGE)
        code, out, err = run(capsys, "spectrum", path, "--reduce")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "reduced: not reciprocal"

    def test_equiv_decides_normality(self, tmp_path, capsys):
        pa = write_matrix(tmp_path / "a.json", self.HUGE)
        code, out, _ = run(capsys, "equiv", pa, pa)
        assert code == EXIT_OK
        assert "unitary-equivalent: true" in out
        pb = write_matrix(tmp_path / "b.json", np.triu(self.HUGE))
        code, out, err = run(capsys, "equiv", pb, pb)
        assert code == EXIT_CONSTRAINT
        assert err == "error: spectral equivalence needs normal matrices\n"

    def test_spectrum_near_the_float_limit(self, tmp_path, capsys):
        # printing sorts by value / tau_spec, which overflows these to inf
        path = tmp_path / "m.csv"
        path.write_text("1e308,1e308\n1e308,-1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "spectrum", str(path), "--reduce")
        assert (code, err) == (EXIT_OK, "")
        values = parse_printed(out.splitlines()[:2])
        assert np.allclose(values, [-1e308, 1e308], rtol=1e-12, atol=0)
        assert out.splitlines()[2:] == ["reduced: not reciprocal"]


class TestSubnormalParameters:
    # the reciprocal of a subnormal parameter overflows; the suite turns any
    # RuntimeWarning from that into an error

    def test_m4_is_a_construction_failure(self, capsys):
        code, out, err = run(capsys, "gen", "m4", "--params", "1e-320+0i,1,1,1")
        assert (code, out) == (EXIT_CONSTRAINT, "")
        assert err == "error: construction failed: entries must have finite reciprocals\n"

    def test_d61f_whose_power_underflows_is_a_construction_failure(self, capsys):
        # e**2 = -1e-400 underflows to zero, and Python's complex division raises
        code, out, err = run(capsys, "gen", "d61f", "--params=1e-320,1,1e-200i")
        assert (code, out) == (EXIT_CONSTRAINT, "")
        assert err.startswith("error: construction failed: family parameters out of "
                              "floating-point range")

    def test_h4a_residual_is_not_finite(self, capsys):
        code, out, err = run(capsys, "gen", "h4a", "--params", "1e-320+0i")
        assert code == EXIT_CONSTRAINT
        assert err.startswith("constraint failure: result is not Hadamard")
        _, meta = parse_matrix(out)
        assert meta["hadamard"] == "false"
        assert not np.isfinite(float(meta["residual"]))


class TestSolve:
    def test_order6_f_at_unit_point(self, capsys):
        code, out, _ = run(
            capsys, "solve", "6", "--unknown", "f",
            "--values", "0", "0", "0", "0", "0",
        )
        assert code == EXIT_OK
        assert "-0.267949" in out or "-0.2679491924311" in out
        assert "-3.732050807568" in out
        assert "torus=false" in out  # real roots are off the circle
        assert "hadamard=false" in out

    def test_order6_singular_branch_not_fatal(self, capsys):
        code, out, _ = run(
            capsys, "solve", "6", "--unknown", "a",
            "--values", "0", "0", "0", "0",
        )
        assert code == EXIT_OK
        assert "singular" in out.lower()

    def test_order6_cubic_e_prints_spectra(self, capsys):
        code, out, _ = run(
            capsys, "solve", "6", "--unknown", "e",
            "--values", "0", "2/3pi", "1/3pi", "0",
        )
        assert code == EXIT_OK
        assert out.count("branch e") == 3
        assert "spectrum:" in out
        assert "hadamard=true" in out

    def test_order8_h_all_ones(self, capsys):
        code, out, _ = run(
            capsys, "solve", "8", "--unknown", "h",
            "--values", "0", "0", "0", "0", "0", "0", "0",
        )
        assert code == EXIT_OK
        t = -3 + 2 * np.sqrt(2)
        assert f"{t!r}" in out or "-0.1715728752538" in out
        assert "-5.82842712474" in out

    def test_order4_branches(self, capsys):
        # leading-dash values ride in a single comma-joined token
        code, out, _ = run(
            capsys, "solve", "4", "--unknown", "a",
            "--values", "0,1/2pi,-1/2pi",
        )
        assert code == EXIT_OK
        assert out.count("branch a") == 2
        assert "hadamard=true" in out

    def test_order8_numeric_multi_unknown(self, capsys):
        code, out, _ = run(
            capsys, "--seed", "5", "solve", "8", "--unknown", "f,g,h",
            "--values", "0", "0", "0", "0", "0",
        )
        assert code == EXIT_OK
        assert "restarts:" in out
        assert "solution:" in out

    def test_usage_errors(self, capsys):
        assert run(capsys, "solve", "6", "--unknown", "z", "--values", "0")[0] == EXIT_USAGE
        assert run(capsys, "solve", "6", "--unknown", "f", "--values", "0")[0] == EXIT_USAGE

    @pytest.mark.parametrize("order, unknown, names", [
        ("4", "ab", "a b c d"),
        ("4", "abcd", "a b c d"),
        ("6", "ef", "a b c d e f"),
        ("6", "bc", "a b c d e f"),
    ])
    def test_unknown_must_be_one_name_of_the_order(self, capsys, order, unknown, names):
        # a run of names is not one name, though it is a substring of them
        code, out, err = run(capsys, "solve", order, "--unknown", unknown,
                             "--values", "0,0,0,0")
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: order {order} solves one unknown among {names}\n"

    def test_cubic_roots_do_not_depend_on_the_scale_of_a_b_c(self, capsys):
        code, scaled, _ = run(capsys, "solve", "6", "--unknown", "d",
                              "--values", "1e-4+0i,1e-4i,-1e-4+0i,1+0i")
        assert code == EXIT_OK
        code, unscaled, _ = run(capsys, "solve", "6", "--unknown", "d",
                                "--values", "1+0i,1i,-1+0i,1+0i")
        values = [complex(line.split()[2][len("value="):].replace("i", "j"))
                  for text in (scaled, unscaled)
                  for line in text.splitlines() if line.startswith("branch d")]
        assert len(values) == 6
        assert np.allclose(values[:3], values[3:], rtol=0, atol=1e-12)

    def test_cubic_with_a_leading_term_lost_to_rounding_is_a_constraint_failure(self, capsys):
        code, out, err = run(capsys, "solve", "6", "--unknown", "d",
                             "--values", "1+0i,1i,-1+0i,1e5+0i")
        assert code == EXIT_CONSTRAINT and out == ""
        assert err == "error: cubic in 'd' has a vanishing leading term\n"

    def test_cubic_whose_companion_matrix_overflows_is_a_numeric_failure(self, capsys):
        code, out, err = run(capsys, "solve", "6", "--unknown", "e",
                             "--values=1e-5,1e-320,1e-320+0i,1e-320+0i")
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err.startswith("numeric failure: companion-matrix eigenvalues failed")


class TestSweep:
    @pytest.mark.parametrize("order, samples, seed, hits, distinct", [
        (4, 50, 5, 100, 100),
        (6, 60, 3, 148, 74),
        (8, 10, 1, 10, 10),
    ])
    def test_pinned_counts(self, capsys, order, samples, seed, hits, distinct):
        code, out, _ = run(capsys, "sweep", str(order), "--samples", str(samples),
                           "--seed", str(seed))
        assert code == EXIT_OK
        assert out == (f"samples: {samples}\nhadamard_hits: {hits}\n"
                       f"distinct_spectra: {distinct}\nseed: {seed}\n")

    @pytest.mark.parametrize("seed, hits, distinct", [
        (0, 204, 102), (1, 252, 126), (2, 236, 118), (3, 236, 118), (4, 268, 134),
        (5, 232, 116), (6, 224, 112), (7, 260, 130), (8, 236, 118), (9, 248, 124),
    ])
    def test_pinned_order6_counts_100_samples(self, capsys, seed, hits, distinct):
        # the counts of the solve that took one sample at a time
        code, out, _ = run(capsys, "sweep", "6", "--samples", "100", "--seed", str(seed))
        assert code == EXIT_OK
        assert out == (f"samples: 100\nhadamard_hits: {hits}\n"
                       f"distinct_spectra: {distinct}\nseed: {seed}\n")

    def test_order6_solves_all_samples_in_one_pass(self, capsys, monkeypatch):
        from hadamard_forge import families

        calls = []

        def counted(name):
            solve = getattr(families, name)
            return lambda *args, **kwargs: calls.append(name) or solve(*args, **kwargs)

        for name in ("c6_solve_quadratic", "c6_solve_f"):
            monkeypatch.setattr(families, name, counted(name))
        for samples in (1, 60):
            calls.clear()
            assert run(capsys, "sweep", "6", "--samples", str(samples))[0] == EXIT_OK
            assert calls == ["c6_solve_quadratic", "c6_solve_f"]

    @pytest.mark.parametrize("order, builders", [(4, ["h4", "h44"]), (8, ["d8a"])])
    def test_orders_4_and_8_build_all_samples_in_one_call(self, capsys, monkeypatch,
                                                           order, builders):
        from hadamard_forge import families

        calls = []

        def counted(name):
            build = getattr(families, name)
            return lambda *args, **kwargs: calls.append(name) or build(*args, **kwargs)

        for name in builders:
            monkeypatch.setattr(families, name, counted(name))
        for samples in (1, 60):
            calls.clear()
            assert run(capsys, "sweep", str(order), "--samples", str(samples))[0] == EXIT_OK
            assert calls == builders

    @pytest.mark.parametrize("order", [4, 8])
    def test_orders_4_and_8_stacks_match_the_per_sample_builders(self, order):
        # numpy's array products round differently from Python's complex
        # ones, so the stacks agree to the last bit or so, not exactly
        from hadamard_forge import d8a, h4, h44
        from hadamard_forge.cli import _sweep_matrices
        from hadamard_forge.core import torus_draws

        draws = torus_draws(7, 50, 3 if order == 4 else 6)
        if order == 4:
            want = np.array([f(*p) for p in draws for f in (h4, h44)])
        else:
            want = np.array([d8a(*p) for p in draws])
        got = _sweep_matrices(order, 7, 50)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("order, eigvals_calls", [(4, 1), (6, 0), (8, 1)])
    def test_only_order6_spectra_skip_eigvals(self, capsys, monkeypatch, order, eigvals_calls):
        # order 6 reads its spectra from the circulant blocks' Fourier symbols
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda *args: calls.append(1) or eigvals(*args))
        assert run(capsys, "sweep", str(order), "--samples", "20")[0] == EXIT_OK
        assert len(calls) == eigvals_calls

    def test_order6_drops_points_whose_a_or_f_is_zero_or_not_finite(self, monkeypatch):
        from hadamard_forge import families
        from hadamard_forge.cli import _sweep_matrices

        full = _sweep_matrices(6, 1, 5)
        solve = families.m6_branch_points

        def spoiled(b, c, d, e):
            a, f = (x.copy() for x in solve(b, c, d, e))
            a[0], f[1] = 0, np.inf
            return a, f

        monkeypatch.setattr(families, "m6_branch_points", spoiled)
        assert len(full) == 20
        assert np.array_equal(_sweep_matrices(6, 1, 5), full[8:])

    @pytest.mark.parametrize("order, hits, distinct", [
        (4, 400, 400),
        (6, 480, 240),
        (8, 200, 200),
    ])
    def test_pinned_counts_200_samples(self, capsys, order, hits, distinct):
        # sizes at which the trace-keyed classification window prunes most
        # comparisons; the counts are those of the exhaustive scan
        code, out, _ = run(capsys, "sweep", str(order), "--samples", "200", "--seed", "1")
        assert code == EXIT_OK
        assert out == (f"samples: 200\nhadamard_hits: {hits}\n"
                       f"distinct_spectra: {distinct}\nseed: 1\n")

    def test_order6_finds_hadamards_and_is_deterministic(self, capsys):
        code, out1, _ = run(capsys, "--seed", "9", "sweep", "6", "--samples", "40")
        assert code == EXIT_OK
        report = dict(
            ln.split(": ") for ln in out1.splitlines() if ": " in ln
        )
        assert int(report["hadamard_hits"]) > 0
        assert int(report["samples"]) == 40
        code, out2, _ = run(capsys, "--seed", "9", "sweep", "6", "--samples", "40")
        assert out1 == out2

    def test_distinct_spectra_from_branch_pairs(self, capsys):
        code, out, _ = run(capsys, "--seed", "3", "sweep", "6", "--samples", "60")
        report = dict(ln.split(": ") for ln in out.splitlines() if ": " in ln)
        assert int(report["distinct_spectra"]) >= 2

    def test_order8_always_hits(self, capsys):
        code, out, _ = run(capsys, "--seed", "1", "sweep", "8", "--samples", "10")
        report = dict(ln.split(": ") for ln in out.splitlines() if ": " in ln)
        assert int(report["hadamard_hits"]) == 10


class TestDouble:
    def test_two_order2_files(self, tmp_path, capsys):
        H2 = np.array([[1, 1], [1, -1]], dtype=complex)
        pa = write_matrix(tmp_path / "a.json", H2)
        pb = write_matrix(tmp_path / "b.json", H2)
        out = tmp_path / "c.json"
        code, _, _ = run(capsys, "double", pa, pb, "--out", str(out))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "verify", str(out))
        assert code == EXIT_OK

    def test_order12_from_a6_b6(self, tmp_path, capsys):
        from hadamard_forge import a6, b6

        pa = write_matrix(tmp_path / "a.json", a6())
        pb = write_matrix(tmp_path / "b.json", b6())
        out = tmp_path / "m12.json"
        code, _, _ = run(capsys, "double", pa, pb, "--out", str(out))
        assert code == EXIT_OK
        M, meta = parse_matrix(out.read_text())
        assert M.shape == (12, 12)
        assert meta["hadamard"] == "true"

    def test_rejects_non_hadamard_input(self, tmp_path, capsys):
        pa = write_matrix(tmp_path / "a.json", np.eye(2))
        code, _, _ = run(capsys, "double", pa, pa)
        assert code == EXIT_CONSTRAINT

    def test_diag_phases(self, tmp_path, capsys):
        H2 = np.array([[1, 1], [1, -1]], dtype=complex)
        pa = write_matrix(tmp_path / "a.json", H2)
        out = tmp_path / "c.json"
        code, _, _ = run(
            capsys, "double", pa, pa, "--diag", "1/3pi", "1/7pi", "--out", str(out)
        )
        assert code == EXIT_OK
        code, _, _ = run(capsys, "verify", str(out))
        assert code == EXIT_OK


class TestClosedStdout:
    """A reader that stops early, as `head` does, ends the command with exit 0."""

    @staticmethod
    def _env(buffered):
        env = dict(os.environ, PYTHONPATH=str(Path(hadamard_forge.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        return env if buffered else dict(env, PYTHONUNBUFFERED="1")

    @pytest.mark.parametrize("buffered", [True, False])
    def test_pipe_closed_before_the_first_line(self, buffered):
        # `| head -0`: the pipe has no reader left when the command first writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hadamard_forge.cli", "sweep", "6", "--samples", "5"],
                stdout=write_end, stderr=subprocess.PIPE, env=self._env(buffered), timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")

    def test_pipe_closed_after_one_line(self, tmp_path, capsys):
        # an order-96 CSV is some 230 kB, more than a pipe holds, so the command
        # is still writing when the reader closes after its first line
        m48 = doubled_chain(tmp_path, capsys, "a6", "b6", 3)
        proc = subprocess.Popen(
            [sys.executable, "-m", "hadamard_forge.cli", "double", m48, m48, "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env(True))
        assert proc.stdout.readline() == b"# family: double\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (EXIT_OK, b"")


class TestUnwritableOut:
    @pytest.mark.parametrize("target", ["no-such-dir/m.json", "."])
    @pytest.mark.parametrize("command", ["gen", "double"])
    def test_is_a_usage_error(self, tmp_path, capsys, command, target):
        out = str(tmp_path / target)
        if command == "gen":
            argv = ["gen", "d6"]
        else:
            pa = write_matrix(tmp_path / "a.json", d6())
            argv = ["double", pa, pa]
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot write {out!r}: ")


class TestFlagPlacement:
    def test_shared_flags_accepted_after_subcommand(self, capsys):
        code1, out1, _ = run(capsys, "sweep", "6", "--samples", "15", "--seed", "9")
        code2, out2, _ = run(capsys, "--seed", "9", "sweep", "6", "--samples", "15")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_tolerance_flag_after_subcommand(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d6() * (1 + 5e-7))
        code, _, _ = run(capsys, "verify", path, "--tol-entry", "1e-4")
        assert code == EXIT_OK


class TestNegativeSeed:
    # numpy's seed sequences take non-negative integers only
    @pytest.mark.parametrize("argv", [
        ["sweep", "6", "--samples", "3", "--seed", "-1"],
        ["--seed", "-1", "sweep", "6", "--samples", "3"],
        ["solve", "8", "--unknown", "f,g,h", "--values", "0,1/2pi,1pi,-1/2pi,0.3",
         "--seed", "-3"],
    ])
    def test_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "argument --seed: must be non-negative" in err


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        from hadamard_forge import cli

        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "sweep", "4", "--samples", "1")[0] == EXIT_OK
        assert len(calls) == 1

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d6() * (1 + 5e-7))
        assert run(capsys, "--tol-entry", "1e-4", "verify", path)[0] == EXIT_OK
        assert run(capsys, "verify", path)[0] == EXIT_FALSE
        assert run(capsys, "verify", path, "--format", "json")[1].startswith("{")
        assert run(capsys, "verify", path)[1].startswith("order: 6")
        assert run(capsys, "sweep", "8", "--samples", "1", "--seed", "7")[1].endswith("seed: 7\n")
        assert run(capsys, "sweep", "8", "--samples", "1")[1].endswith("seed: 0\n")
        d81 = str(tmp_path / "d81.json")
        assert run(capsys, "gen", "d81", "--out", d81)[0] == EXIT_OK
        assert "reduced-roots:" in run(capsys, "spectrum", d81, "--reduce")[1]
        assert "reduced" not in run(capsys, "spectrum", d81)[1]
        code, out, _ = run(capsys, "gen", "h4a", "--params", "1/3pi")
        assert code == EXIT_OK and json.loads(out)["metadata"]["params"] != []
        code, out, _ = run(capsys, "gen", "d6")
        assert code == EXIT_OK and json.loads(out)["metadata"]["params"] == []

    @pytest.mark.parametrize("argv", [
        ["sweep", "5"], ["sweep", "12", "--samples", "1"],
        ["solve", "5", "--unknown", "a"], ["solve", "10", "--unknown", "h"],
    ])
    def test_unsupported_orders_are_usage_errors(self, argv, capsys):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")


class TestToleranceEnv:
    def test_env_var_overrides_entry_tolerance(self, tmp_path, capsys, monkeypatch):
        # with an absurdly loose entry tolerance, even a scaled matrix passes
        path = write_matrix(tmp_path / "m.json", d6() * (1 + 5e-7))
        code, _, _ = run(capsys, "verify", path)
        assert code == EXIT_FALSE
        monkeypatch.setenv("HADAMARD_FORGE_TOL", "1e-4")
        code, _, _ = run(capsys, "verify", path)
        assert code == EXIT_OK

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        path = write_matrix(tmp_path / "m.json", d6() * (1 + 5e-7))
        monkeypatch.setenv("HADAMARD_FORGE_TOL", "1e-4")
        code, _, _ = run(capsys, "--tol-entry", "1e-10", "verify", path)
        assert code == EXIT_FALSE


BAD_TOLERANCES = ["-1", "0", "nan", "inf", "abc"]


class TestBadTolerances:
    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    @pytest.mark.parametrize("flag", ["--tol-entry", "--tol-root", "--tol-spec"])
    def test_flag_is_usage_error(self, flag, value, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", d6())
        code, out, _ = run(capsys, "verify", path, f"{flag}={value}")
        assert (code, out) == (EXIT_USAGE, "")
        code, out, _ = run(capsys, f"{flag}={value}", "equiv", path, path)
        assert (code, out) == (EXIT_USAGE, "")

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    def test_env_is_usage_error(self, value, tmp_path, capsys, monkeypatch):
        path = write_matrix(tmp_path / "m.json", d6())
        monkeypatch.setenv("HADAMARD_FORGE_TOL", value)
        code, out, _ = run(capsys, "verify", path)
        assert (code, out) == (EXIT_USAGE, "")

    def test_infinite_entry_bound_does_not_pass_a_non_unimodular_matrix(
        self, tmp_path, capsys
    ):
        path = write_matrix(tmp_path / "bf.json", bf(bf_quartic_roots()[2]))
        assert run(capsys, "verify", path)[0] == EXIT_FALSE
        assert run(capsys, "verify", path, "--tol-entry", "inf")[0] == EXIT_USAGE
