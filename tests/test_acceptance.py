"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  Tolerances are fixed here and never loosened.
"""

from contextlib import contextmanager

import numpy as np

from hadamard_forge import (
    SingularBranch,
    a6,
    b6,
    bf,
    bf_dephased,
    bf_quartic_roots,
    c4_branches,
    c4_residual,
    c6_reduced_residual,
    c6_residuals,
    c6_solve_cubic,
    c6_solve_f,
    c6_solve_quadratic,
    c8_numeric_solve,
    c8_residuals,
    c8_solve_h,
    char_poly,
    d6,
    d61,
    d61_family,
    d62_family,
    d81,
    dephase,
    double,
    h4a,
    h4a_spectrum_closed,
    is_hadamard,
    lift_roots,
    m6,
    m6_from_branches,
    m8,
    multiset_match,
    orthogonality_residual,
    poly_roots,
    reduced_roots,
    spectrum,
    unimodularity_deviation,
    unitary_equivalent,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
SQ6 = np.sqrt(6.0)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}")


def phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def test_criterion_01_selfadjoint_landmark_spectrum():
    with criterion(1, "order-6 self-adjoint landmark spectrum is {-1^3, 1^3}"):
        assert multiset_match(spectrum(d6()), [-1, -1, -1, 1, 1, 1], 1e-8)


def test_criterion_02_shuffled_landmark_spectrum():
    with criterion(2, "shuffled landmark spectrum gains the complex pair"):
        expected = [-1, -1, 1, 1, (1j - SQ2) / SQ3, -(1j + SQ2) / SQ3]
        assert multiset_match(spectrum(d61()), expected, 1e-8)


def test_criterion_03_one_phase_family_spectra():
    with criterion(3, "one-phase order-4 family: landmarks + closed formula"):
        assert multiset_match(
            spectrum(h4a(1.0)),
            [-1, 1, -(1 + 1j * SQ3) / 2, (-1 + 1j * SQ3) / 2],
            1e-8,
        )
        sq7 = np.sqrt(7.0)
        assert multiset_match(
            spectrum(h4a(1j)),
            [-1, 1, -(1 + 1j) / 4 + (1 - 1j) * sq7 / 4,
             -(1 + 1j) / 4 - (1 - 1j) * sq7 / 4],
            1e-8,
        )
        assert multiset_match(spectrum(h4a(-1.0)), [-1, -1, 1, 1], 1e-8)
        rng = np.random.default_rng(31)
        for _ in range(100):
            q = complex(phases(rng, 1)[0])
            assert multiset_match(spectrum(h4a(q)), h4a_spectrum_closed(q), 1e-8)


def test_criterion_04_circulant_sextic_landmark():
    with criterion(4, "circulant sextic: quartic roots, Hadamard, spectral data"):
        d1, d2, d3, d4 = bf_quartic_roots()
        assert abs(abs(d1) - 1) <= 1e-9
        assert abs(abs(d2) - 1) <= 1e-9
        M = bf(d1)
        assert is_hadamard(M)
        assert orthogonality_residual(M) <= 1e-9
        expected = np.array([1, -SQ6, 3, -2 * SQ2, 3, -SQ6, 1])
        assert np.max(np.abs(char_poly(M) - expected)) <= 1e-8
        assert multiset_match(
            spectrum(dephase(M)), [-1, -1, -1, 1, 1, 1], 1e-8
        )


def test_criterion_05_four_branch_numeric_point():
    with criterion(5, "four branch matrices at the sextic landmark point"):
        b, c, d, e = 1.0, 1j, np.exp(1j * np.pi / 4), -1.0
        x5 = 1j * SQ3
        x3_plus = -1j / 3 * np.sqrt(86 + 32 * SQ2 / 3)
        x3_minus = 1j / 3 * np.sqrt(86 - 32 * SQ2 / 3)
        polys = {}
        for abr in "+-":
            for fbr in "+-":
                M, _, _ = m6_from_branches(b, c, d, e, a_branch=abr, f_branch=fbr)
                assert is_hadamard(M)
                cp = char_poly(M)[::-1]
                polys[(fbr, abr)] = cp
                if abr == "+":
                    assert abs(cp[1] - x5) <= 1e-7
                    assert abs(cp[3] - x3_plus) <= 1e-7
                else:
                    assert abs(cp[1] + x5) <= 1e-7
                    assert abs(cp[3] - x3_minus) <= 1e-7
        assert np.max(np.abs(polys[("+", "+")] - polys[("+", "-")])) > 1e-3


def test_criterion_06_cubic_point_with_octic_spectrum():
    with criterion(6, "cubic-in-e point: spectrum {-1, 1, ±(1±i)/sqrt2}, "
                      "branch independent"):
        # the quoted spectrum lives where the product of the two cyclic
        # phases is -1; the companion set with product +1 collapses to
        # {-1^3, 1^3} for every branch, so the third phase is exp(i*pi/3)
        a, b, c, d = 1.0, np.exp(2j * np.pi / 3), np.exp(1j * np.pi / 3), 1.0
        expected = [
            -1, 1,
            (1 + 1j) / SQ2, -(1 + 1j) / SQ2,
            (1 - 1j) / SQ2, -(1 - 1j) / SQ2,
        ]
        combos = 0
        for e in c6_solve_cubic("e", a=a, b=b, c=c, d=d):
            for f in c6_solve_f(a, b, c, d, e):
                M = m6(a, b, c, d, e, f)
                assert is_hadamard(M)
                assert multiset_match(spectrum(M), expected, 1e-8)
                combos += 1
        assert combos == 6


def test_criterion_07_cubic_point_matching_dephased_sextic():
    with criterion(7, "cubic-in-d point: spectrum {-1^3, 1^3} matches the "
                      "dephased circulant sextic"):
        a, b, c, e = 1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3), 1.0
        target = [-1, -1, -1, 1, 1, 1]
        reference = spectrum(bf_dephased(bf_quartic_roots()[0]))
        assert multiset_match(reference, target, 1e-8)
        combos = 0
        for d in c6_solve_cubic("d", a=a, b=b, c=c, e=e):
            for f in c6_solve_f(a, b, c, d, e):
                M = m6(a, b, c, d, e, f)
                sp = spectrum(M)
                assert multiset_match(sp, target, 1e-8)
                assert multiset_match(sp, reference, 1e-8)
                combos += 1
        assert combos == 6


def test_criterion_08_standard_form_branch_independence():
    with criterion(8, "dephased six-parameter family: one spectral polynomial "
                      "on both specialisation surfaces"):
        expected = np.array(
            [1.0, 2 * np.sqrt(2.0 / 3.0), 5.0 / 3.0, 0.0, -5.0 / 3.0,
             -2 * np.sqrt(2.0 / 3.0), -1.0]
        )[::-1]
        rng = np.random.default_rng(8)
        for _ in range(10):
            c, d, e = phases(rng, 3)
            for b in (-c * d / e, c * e * e / (d * d)):
                for abr in "+-":
                    for fbr in "+-":
                        M, _, _ = m6_from_branches(
                            b, c, d, e, a_branch=abr, f_branch=fbr
                        )
                        cp = char_poly(dephase(M))
                        assert np.max(np.abs(cp - expected)) <= 1e-7
                        assert abs(cp[3]) <= 1e-7


def test_criterion_09_three_parameter_sheets():
    with criterion(9, "three-parameter sheets: Hadamard, opposite y^2 "
                      "coefficients, not equivalent"):
        rng = np.random.default_rng(9)
        done = 0
        while done < 50:
            c, d, e = phases(rng, 3)
            if abs(c * c * d - e) < 0.1:
                continue
            M1 = d61_family(c, d, e)
            M2 = d62_family(c, d, e)
            assert is_hadamard(M1)
            assert is_hadamard(M2)
            # monic reduced cubics, ascending
            q1 = np.poly(reduced_roots(spectrum(M1)))[::-1]
            q2 = np.poly(reduced_roots(spectrum(M2)))[::-1]
            assert abs(q1[2] + q2[2]) <= 1e-8
            assert abs(q1[1] - q2[1]) <= 1e-8
            assert not unitary_equivalent(M1, M2)
            done += 1


def test_criterion_10_doubled_octic_landmark():
    with criterion(10, "doubled octic landmark: Hadamard, reduced roots, "
                       "lifted pair"):
        M = d81()
        assert is_hadamard(M)
        ys = reduced_roots(spectrum(M))
        expected = [
            -1j * SQ2,
            1j * (2 + SQ2) / 2,
            1j * (SQ2 + np.sqrt(10.0)) / 4,
            1j * (SQ2 - np.sqrt(10.0)) / 4,
        ]
        assert multiset_match(ys, expected, 1e-8)
        sp = spectrum(M)
        for target in lift_roots([-1j * SQ2]):
            assert min(abs(z - target) for z in sp) <= 1e-8


def test_criterion_11_doubling_closure():
    with criterion(11, "doubling closure: 12x12 then 24x24 Hadamard"):
        M12 = double(a6(), b6())
        assert M12.shape == (12, 12)
        assert orthogonality_residual(M12) <= 1e-9
        assert is_hadamard(M12)
        M24 = double(M12, M12)
        assert M24.shape == (24, 24)
        assert is_hadamard(M24)


def test_criterion_12i_reduction_roundtrip():
    with criterion(12, "(i) reduce/lift roundtrip on 200 random reciprocal "
                       "polynomials"):
        rng = np.random.default_rng(123)
        done = 0
        while done < 200:
            k = int(rng.integers(1, 5))
            lower = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
            casc = np.zeros(2 * k + 1, dtype=complex)
            for m in range(0, k + 1):
                casc[k - m] = lower[m]
                casc[k + m] = (-1) ** m * lower[m]
            if abs(casc[0]) < 1e-2 or abs(casc[-1]) < 1e-2:
                continue
            done += 1
            direct = poly_roots(casc)
            lifted = lift_roots(reduced_roots(direct))
            assert multiset_match(lifted, direct, 1e-8)


def test_criterion_12ii_hadamard_spectra_unimodular():
    with criterion(12, "(ii) all generated Hadamard spectra are unimodular"):
        rng = np.random.default_rng(12)
        corpus = [d6(), d61(), d81(), bf(bf_quartic_roots()[0]), a6(), b6(),
                  double(a6(), b6())]
        from hadamard_forge import d8a, h4, h42

        for _ in range(10):
            corpus.append(h4(*phases(rng, 3)))
            corpus.append(h4a(complex(phases(rng, 1)[0])))
            corpus.append(h42(*phases(rng, 2)))
            corpus.append(d61_family(*phases(rng, 3)))
            corpus.append(d62_family(*phases(rng, 3)))
            corpus.append(d8a(*phases(rng, 6)))
        for M in corpus:
            assert is_hadamard(M)
            assert np.max(np.abs(np.abs(spectrum(M)) - 1.0)) <= 1e-8


def test_criterion_12iii_branch_soundness():
    with criterion(12, "(iii) every solver branch kills its constraint on "
                       "200 random inputs"):
        rng = np.random.default_rng(77)
        done = 0
        while done < 200:
            kind = done % 4
            if kind == 0:
                unknown = "abcd"[done % 4]
                names = [n for n in "abcd" if n != unknown]
                given = dict(zip(names, phases(rng, 3)))
                for value in c4_branches(unknown, **given):
                    params = dict(given)
                    params[unknown] = value
                    assert abs(c4_residual(**params)) <= 1e-9
            elif kind == 1:
                a, b, c, d, e = phases(rng, 5)
                for value in c6_solve_f(a, b, c, d, e):
                    assert abs(
                        c6_residuals(a, b, c, d, e, value)[0]
                    ) <= 1e-9
            elif kind == 2:
                unknown = "abc"[done % 3]
                names = sorted(set("abcde") - {unknown})
                given = dict(zip(names, phases(rng, 4)))
                try:
                    branches = c6_solve_quadratic(unknown, **given)
                except SingularBranch:
                    done += 1
                    continue
                for value in branches:
                    params = dict(given)
                    params[unknown] = value
                    assert abs(c6_reduced_residual(**params)) <= 1e-9
            else:
                p = phases(rng, 7)
                for value in c8_solve_h(*p):
                    assert abs(c8_residuals(*p, value)[0]) <= 1e-9
            done += 1


def test_criterion_12iv_pair_elimination_locus():
    with criterion(12, "(iv) reduced-condition locus equals the pair "
                       "substitution locus on 200 samples"):
        rng = np.random.default_rng(4)
        scale = 6.0  # six unit monomials per constraint
        done = 0
        while done < 200:
            on_locus = done % 4 == 0
            if on_locus:
                b, c, d, e = phases(rng, 4)
                try:
                    roots = c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
                except SingularBranch:
                    continue
                a = roots[done % 2]
            else:
                a, b, c, d, e = phases(rng, 5)
            reduced_vanishes = abs(c6_reduced_residual(a, b, c, d, e)) <= 1e-8 * scale
            subs = [
                abs(c6_residuals(a, b, c, d, e, value)[1])
                for value in c6_solve_f(a, b, c, d, e)
            ]
            both_vanish = max(subs) <= 1e-8 * scale * max(1.0, abs(a)) ** 2
            assert reduced_vanishes == both_vanish
            if on_locus:
                assert reduced_vanishes
            done += 1


def test_criterion_13_unreproducible_counts_covered_by_machinery():
    with criterion(13, "census claims stay heuristic: sweep clustering and "
                       "the numeric-only octic path stand in"):
        # spectrum clustering over the four-branch sweep distinguishes
        # at least the two branch families
        from hadamard_forge.cli import main

        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["--seed", "3", "sweep", "6", "--samples", "40"]) == 0
        report = dict(
            ln.split(": ") for ln in buf.getvalue().splitlines() if ": " in ln
        )
        assert int(report["hadamard_hits"]) > 0
        assert int(report["distinct_spectra"]) >= 2
        # the octic system admits no analytic route here: the numeric
        # search is the supported path and verifies its own solutions
        report8 = c8_numeric_solve(dict(zip("abcde", [1.0] * 5)), seed=5,
                                   restarts=8)
        assert report8
        for x in report8.solutions:
            assert orthogonality_residual(m8(*x)) <= 1e-8
