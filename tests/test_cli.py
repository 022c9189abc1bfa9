import json

import numpy as np
import pytest

from hadamard_forge import d6, d61, d61_family, d81, bf, bf_quartic_roots
from hadamard_forge.cli import (
    EXIT_CONSTRAINT,
    EXIT_FALSE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
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

    def test_bad_values(self):
        from hadamard_forge.cli import CliError

        for bad in ("", "x/ypi", "1+2k"):
            with pytest.raises(CliError):
                parse_phase(bad)


class TestSerialization:
    def test_json_roundtrip_byte_identical(self):
        M = d81()
        text = serialize_matrix(M, {"family": "d81"}, "json")
        M2, meta = parse_matrix(text)
        assert np.array_equal(M, M2)
        assert meta["family"] == "d81"
        assert serialize_matrix(M2, meta, "json") == text

    def test_csv_roundtrip_byte_identical(self):
        M = bf(bf_quartic_roots()[0])
        text = serialize_matrix(M, {"family": "bf"}, "csv")
        M2, meta = parse_matrix(text)
        assert np.array_equal(M, M2)
        assert serialize_matrix(M2, meta, "csv") == text

    def test_parse_rejects_garbage(self):
        from hadamard_forge.cli import CliError

        with pytest.raises(CliError) as err:
            parse_matrix("not a matrix at all")
        assert err.value.code == EXIT_PARSE


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

    def test_order_mismatch(self, tmp_path, capsys):
        from hadamard_forge import h4a

        pa = write_matrix(tmp_path / "a.json", d6())
        pb = write_matrix(tmp_path / "b.json", h4a(1.0))
        code, _, _ = run(capsys, "equiv", pa, pb)
        assert code == EXIT_USAGE


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
