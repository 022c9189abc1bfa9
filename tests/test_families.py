import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_forge import (
    InvalidParameter,
    SingularBranch,
    a6,
    b6,
    bf,
    bf_dephased,
    bf_quartic_roots,
    c6_residuals,
    c8_residuals,
    char_poly,
    d6,
    d61,
    d61_family,
    d62_family,
    d8a,
    d81,
    dephase,
    double,
    entrywise_inv_transpose,
    h4,
    h42,
    h43,
    h44,
    h45,
    h4a,
    h4a_spectrum_closed,
    is_hadamard,
    lift_roots,
    m4,
    m6,
    m6_branch_points,
    m6_from_branches,
    m6_standard,
    m8,
    m8_from_h_branch,
    multiset_match,
    orthogonality_residual,
    poly_roots,
    reduce_reciprocal,
    spectrum,
    unimodularity_deviation,
    unitary_equivalent,
)
from conftest import assert_spectrum, random_phases

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
SQ6 = np.sqrt(6.0)


def bf_dephased_pattern(d):
    """The dephased form of bf(d) written out in powers of d, the oracle."""
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, -1 / d, -1 / d**2, 1 / d**2, 1 / d],
            [1, -d, 1, 1 / d**2, -1 / d**3, 1 / d**2],
            [1, -(d**2), d**2, -1, 1 / d**2, -1 / d**2],
            [1, d**2, -(d**3), d**2, 1, -1 / d],
            [1, d, d**2, -(d**2), -d, -1],
        ],
        dtype=complex,
    )


def m6_standard_pattern(a, b, c, d, e, f):
    """The dephased form of m6(a..f) as its printed ratio pattern, the oracle."""
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, a*a/(b*c), a*b/(c*c), a*f/(c*d), a*d/(c*e), a*e/(c*f)],
            [1, a*c/(b*b), a*a/(b*c), a*e/(b*d), a*f/(b*e), a*d/(b*f)],
            [1, a*d/(b*f), a*d/(c*e), -1, -a*d/(c*e), -a*d/(b*f)],
            [1, a*e/(b*d), a*e/(c*f), -a*e/(b*d), -1, -a*e/(c*f)],
            [1, a*f/(b*e), a*f/(c*d), -a*f/(c*d), -a*f/(b*e), -1],
        ],
        dtype=complex,
    )


def ec1_coeffs(b, c, d):
    p = (b * b * d * d - c * c) / (b * c * d)
    s = ((c * c + d * d) * (c * c + b**4 * d * d) - 8 * b * b * c * c * d * d) / (
        4 * b * b * c * c * d * d
    )
    return np.array([1.0, p, s, -p, 1.0])  # ascending


# the order-4 constructors as explicit formulas on complex inputs, the oracle
# for their derivation from the constraint branches
H4_FORMULAS = {
    h4: lambda b, c, d: m4(b * d / c, b, c, d),
    h42: lambda a, b: m4(a, b, b / a, 1.0),
    h43: lambda a, c, d: m4(a, a * c / d, c, d),
    h44: lambda b, c, d: m4(-b * c / d, b, c, d),
    h45: lambda a, c, d: m4(a, -a * d / c, c, d),
}


class TestH4:
    def test_printed_layout(self, rng):
        b, c, d = random_phases(rng, 3)
        a = b * d / c
        H = h4(b, c, d)
        assert np.allclose(H[0], [a, b, c, d])
        assert np.allclose(H[1], [-b, a, -d, c])
        assert np.allclose(H[2], [1 / c, -1 / d, -1 / a, 1 / b])
        assert np.allclose(H[3], [1 / d, 1 / c, -1 / b, -1 / a])

    def test_hadamard_on_torus(self, rng):
        for _ in range(10):
            b, c, d = random_phases(rng, 3)
            assert is_hadamard(h4(b, c, d))

    def test_char_poly_matches_spectral_equation(self, rng):
        for _ in range(10):
            b, c, d = random_phases(rng, 3)
            assert np.max(np.abs(char_poly(h4(b, c, d)) - ec1_coeffs(b, c, d))) < 1e-12

    def test_landmark_spectrum(self):
        expected = [
            -(1j + SQ3) / 2, -(1j - SQ3) / 2, (1j + SQ3) / 2, (1j - SQ3) / 2,
        ]
        assert_spectrum(spectrum(h4(1, 1j, -1j)).values, expected)

    def test_second_landmark_char_poly(self):
        # at b=1, c=exp(i*pi/2), d=exp(i*pi/4) the monic spectral equation
        # is x^4 + i*sqrt(2)x^3 - (3/2)x^2 - i*sqrt(2)x + 1
        cp = char_poly(h4(1.0, np.exp(1j * np.pi / 2), np.exp(1j * np.pi / 4)))
        expected = np.array([1.0, -1j * SQ2, -1.5, 1j * SQ2, 1.0])
        assert np.max(np.abs(cp - expected)) < 1e-12

    def test_spectrum_matches_reduction_route(self, rng):
        # closed form via the y-substitution of the quartic
        b, c, d = random_phases(rng, 3)
        casc = ec1_coeffs(b, c, d)
        ys = poly_roots(reduce_reciprocal(casc))
        assert multiset_match(lift_roots(ys), spectrum(h4(b, c, d)).values, 1e-8)


class TestH4a:
    def test_landmark_spectra(self):
        assert_spectrum(
            spectrum(h4a(1.0)).values,
            [-1, 1, -(1 + 1j * SQ3) / 2, (-1 + 1j * SQ3) / 2],
        )
        assert_spectrum(spectrum(h4a(-1.0)).values, [-1, -1, 1, 1])
        sq7 = np.sqrt(7.0)
        assert_spectrum(
            spectrum(h4a(1j)).values,
            [-1, 1, -(1 + 1j) / 4 + (1 - 1j) * sq7 / 4, -(1 + 1j) / 4 - (1 - 1j) * sq7 / 4],
        )

    def test_closed_formula_tracks_matrix(self, rng):
        for _ in range(100):
            q = complex(random_phases(rng, 1)[0])
            assert spectrum(h4a(q)).matches(h4a_spectrum_closed(q), 1e-8)

    def test_hadamard(self, rng):
        q = complex(random_phases(rng, 1)[0])
        assert is_hadamard(h4a(q))


class TestH4Variants:
    @pytest.mark.parametrize("family", list(H4_FORMULAS), ids=lambda f: f.__name__)
    def test_bit_exact_against_explicit_formulas(self, rng, family):
        formula = H4_FORMULAS[family]
        n = formula.__code__.co_argcount
        for p in random_phases(rng, n) * np.exp(rng.normal(size=(200, n))):
            assert np.array_equal(family(*p), formula(*map(complex, p)))
        with pytest.raises(InvalidParameter):
            family(0, *p[1:])

    def test_h42_char_poly(self, rng):
        a, b = random_phases(rng, 2)
        p = (a * a - 1) / a
        s = ((a * a + b * b) * (1 + a * a * b * b) - 8 * a * a * b * b) / (
            4 * a * a * b * b
        )
        cp = char_poly(h42(a, b))
        assert np.max(np.abs(cp - np.array([1, p, s, -p, 1]))) < 1e-12

    def test_h42_unit_point(self):
        # x^4 - x^2 + 1 at a = b = 1
        cp = char_poly(h42(1.0, 1.0))
        assert np.max(np.abs(cp - np.array([1, 0, -1, 0, 1]))) < 1e-13

    def test_h43_char_poly(self, rng):
        a, c, d = random_phases(rng, 3)
        p = (a * a - 1) / a
        s = ((c * c + d * d) * (a**4 * c * c + d * d) - 8 * a * a * c * c * d * d) / (
            4 * a * a * c * c * d * d
        )
        cp = char_poly(h43(a, c, d))
        assert np.max(np.abs(cp - np.array([1, p, s, -p, 1]))) < 1e-12

    def test_h44_x3_sign_pattern(self, rng):
        b, c, d = random_phases(rng, 3)
        p = (b * b * c * c - d * d) / (b * c * d)
        s = ((c * c + d * d) * (b**4 * c * c + d * d) - 8 * b * b * c * c * d * d) / (
            4 * b * b * c * c * d * d
        )
        cp = char_poly(h44(b, c, d))
        # descending x^3 coefficient is +p: ascending order flips position
        assert np.max(np.abs(cp - np.array([1, -p, s, p, 1]))) < 1e-12

    def test_h45_char_poly(self, rng):
        # the x^2 coefficient reads with 8*a^2*c^2*d^2, matching the others
        a, c, d = random_phases(rng, 3)
        p = (a * a - 1) / a
        s = ((c * c + d * d) * (c * c + a**4 * d * d) - 8 * a * a * c * c * d * d) / (
            4 * a * a * c * c * d * d
        )
        cp = char_poly(h45(a, c, d))
        assert np.max(np.abs(cp - np.array([1, p, s, -p, 1]))) < 1e-12

    def test_coincidence_surface(self, rng):
        # h42(a, b) spectra coincide with h43(a, c, d) on d^2 = a^2 b^2 c^2
        a, b, c = random_phases(rng, 3)
        d = a * b * c
        assert unitary_equivalent(h42(a, b), h43(a, c, d))

    def test_all_variants_hadamard(self, rng):
        a, b, c, d = random_phases(rng, 4)
        for M in (h42(a, b), h43(a, c, d), h44(b, c, d), h45(a, c, d)):
            assert is_hadamard(M)


class TestBF:
    def test_quartic_roots(self):
        roots = bf_quartic_roots()
        for r in roots:
            assert abs(r**4 - 2 * r**3 - 2 * r + 1) < 1e-12
        assert abs(abs(roots[0]) - 1) < 1e-12
        assert abs(abs(roots[1]) - 1) < 1e-12
        assert abs(roots[2].imag) < 1e-14 and abs(roots[2]) > 1
        assert abs(roots[3].imag) < 1e-14 and abs(roots[3]) < 1

    def test_roots_match_numeric_solver(self):
        numeric = poly_roots(np.array([1.0, -2.0, 0.0, -2.0, 1.0]))
        assert multiset_match(numeric, bf_quartic_roots(), 1e-9)

    def test_circulant_structure(self):
        d = bf_quartic_roots()[0]
        M = bf(d)
        first = [1, 1j / d, -1 / d, -1j, -d, 1j * d]
        assert np.allclose(M[0], first)
        assert np.allclose(M[1], np.roll(first, 1))

    def test_unimodular_root_gives_hadamard(self):
        d1, d2, d3, d4 = bf_quartic_roots()
        assert is_hadamard(bf(d1))
        assert is_hadamard(bf(d2))

    def test_real_roots_give_orthogonal_not_hadamard(self):
        d3 = bf_quartic_roots()[2]
        M = bf(d3)
        assert orthogonality_residual(M) < 1e-9
        assert unimodularity_deviation(M) > 0.1
        assert not is_hadamard(M)

    def test_char_poly(self):
        cp = char_poly(bf(bf_quartic_roots()[0]))
        expected = np.array([1, -SQ6, 3, -2 * SQ2, 3, -SQ6, 1])
        assert np.max(np.abs(cp - expected)) < 1e-8

    def test_dephased_printed_form(self, rng):
        for d in [*bf_quartic_roots(), *random_phases(rng, 20)]:
            assert np.max(np.abs(bf_dephased(d) - bf_dephased_pattern(d))) < 1e-12

    def test_dephased_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            bf_dephased(0)

    def test_dephased_spectrum(self):
        assert_spectrum(
            spectrum(bf_dephased(bf_quartic_roots()[0])).values, [-1, -1, -1, 1, 1, 1]
        )

    def test_not_equivalent_to_dephased(self):
        d1 = bf_quartic_roots()[0]
        assert not unitary_equivalent(bf(d1), bf_dephased(d1))


class TestM6:
    def test_block_layout(self, rng):
        a, b, c, d, e, f = random_phases(rng, 6)
        M = m6(a, b, c, d, e, f)
        assert np.allclose(M[0], [a, b, c, d, e, f])
        assert np.allclose(M[1], [c, a, b, f, d, e])
        assert np.allclose(M[3], [1 / d, 1 / f, 1 / e, -1 / a, -1 / c, -1 / b])

    def test_all_ones_not_hadamard(self):
        M = m6(1, 1, 1, 1, 1, 1)
        assert not is_hadamard(M)
        res = c6_residuals(1, 1, 1, 1, 1, 1)
        assert res.max_abs() == 6.0

    def test_standard_form_equals_dephased(self, rng):
        params = random_phases(rng, 6)
        assert np.array_equal(m6_standard(*params), dephase(m6(*params)))

    def test_standard_form_equals_printed_ratio_pattern(self, rng):
        for params in random_phases(rng, (20, 6)) * np.exp(0.5 * rng.normal(size=(20, 6))):
            want = m6_standard_pattern(*params)
            assert np.max(np.abs(m6_standard(*params) - want)) < 1e-12 * np.max(np.abs(want))

    def test_standard_form_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            m6_standard(1, 1, 0, 1, 1, 1)

    def test_branch_points_feed_from_branches(self, rng):
        b, c, d, e = random_phases(rng, 4)
        points = list(m6_branch_points(b, c, d, e))
        assert [(abr, fbr) for abr, fbr, _, _ in points] == [
            ("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]
        for abr, fbr, a, f in points:
            M, aval, fval = m6_from_branches(b, c, d, e, abr, fbr)
            assert (aval, fval) == (a, f)
            assert np.array_equal(M, m6(a, b, c, d, e, f))

    def test_unknown_branch_label_rejected(self, rng):
        with pytest.raises(InvalidParameter):
            m6_from_branches(*random_phases(rng, 4), a_branch="x")

    def test_branch_construction_on_specialised_surface(self, rng):
        c, d, e = random_phases(rng, 3)
        b = -c * d / e
        M, aval, fval = m6_from_branches(b, c, d, e, "+", "+")
        assert abs(abs(aval) - 1) < 1e-10 and abs(abs(fval) - 1) < 1e-10
        assert is_hadamard(M)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4),
                              st.booleans()), min_size=1, max_size=10))
    # near a double a-root, where a last-bit difference in the quadratic's
    # coefficients moves the roots by ~1e-9 relative
    @example(rows=[([0.0, 2.0**-24, 1.0, 1.0], False)])
    def test_stacked_branch_points_equal_the_scalar_path(self, rows):
        b, c, d, e = np.exp(1j * np.array([angles for angles, _ in rows])).T
        forced = np.array([flag for _, flag in rows])
        b = np.where(forced, c * d / e, b)  # b*e = c*d, where the a-quadratic collapses
        stacked = list(m6_branch_points(b, c, d, e))
        for i in range(len(rows)):
            try:
                points = list(m6_branch_points(b[i], c[i], d[i], e[i]))
            except SingularBranch:
                assert all(np.isnan(a[i]) and np.isnan(f[i]) for _, _, a, f in stacked)
                continue
            assert not forced[i]
            assert [p[:2] for p in points] == [p[:2] for p in stacked]
            for (_, _, a, f), (_, _, sa, sf) in zip(points, stacked):
                assert abs(sa[i] - a) <= 1e-12 * abs(a)
                assert abs(sf[i] - f) <= 1e-12 * abs(f)


class TestFourBranchLandmark:
    # b = 1, c = i, d = exp(i*pi/4), e = -1: four Hadamard matrices whose
    # sextic spectral equations pair up by the a-branch
    B, C, D, E = 1.0, 1j, np.exp(1j * np.pi / 4), -1.0
    X5 = 1j * SQ3
    X3_PLUS = -1j / 3 * np.sqrt(86 + 32 * SQ2 / 3)
    X3_MINUS = 1j / 3 * np.sqrt(86 - 32 * SQ2 / 3)

    def _matrices(self):
        out = {}
        for abr in "+-":
            for fbr in "+-":
                M, _, _ = m6_from_branches(
                    self.B, self.C, self.D, self.E, a_branch=abr, f_branch=fbr
                )
                out[(fbr, abr)] = M
        return out

    def test_all_four_hadamard(self):
        for M in self._matrices().values():
            assert is_hadamard(M)

    def test_char_poly_pairing(self):
        mats = self._matrices()
        for (fbr, abr), M in mats.items():
            cp = char_poly(M)[::-1]  # descending: x^6 ... const
            if abr == "+":
                assert abs(cp[1] - self.X5) < 1e-7
                assert abs(cp[3] - self.X3_PLUS) < 1e-7
            else:
                assert abs(cp[1] + self.X5) < 1e-7
                assert abs(cp[3] - self.X3_MINUS) < 1e-7

    def test_f_branch_does_not_change_spectrum(self):
        mats = self._matrices()
        assert np.max(np.abs(char_poly(mats[("+", "+")]) - char_poly(mats[("-", "+")]))) < 1e-9
        assert np.max(np.abs(char_poly(mats[("+", "-")]) - char_poly(mats[("-", "-")]))) < 1e-9

    def test_a_branches_are_distinct(self):
        mats = self._matrices()
        assert not unitary_equivalent(mats[("+", "+")], mats[("+", "-")])


class TestD6Families:
    def test_hadamard_generic(self, rng):
        for _ in range(10):
            c, d, e = random_phases(rng, 3)
            assert is_hadamard(d61_family(c, d, e))
            assert is_hadamard(d62_family(c, d, e))

    def test_reduced_cubics_y2_sign_flip(self, rng):
        # the two sheets share every reduced coefficient except the sign of
        # the quadratic term, which also matches its printed closed form
        for _ in range(8):
            c, d, e = random_phases(rng, 3)
            if abs(c * c * d - e) < 0.1:
                continue
            q1 = reduce_reciprocal(char_poly(d61_family(c, d, e)))
            q2 = reduce_reciprocal(char_poly(d62_family(c, d, e)))
            q1, q2 = q1 / q1[3], q2 / q2[3]
            assert abs(q1[2] + q2[2]) < 1e-8       # y^2 flips sign
            assert abs(q1[1] - q2[1]) < 1e-8       # y coefficient shared
            assert abs(q1[2]) > 1e-3               # and is nonzero here

    def test_reduced_linear_and_quadratic_match_closed_forms(self, rng):
        c, d, e = random_phases(rng, 3)
        q1 = reduce_reciprocal(char_poly(d61_family(c, d, e)))
        q1 = q1 / q1[3]
        r1 = np.sqrt(c**4 * d**5 * e + 0j)
        y2 = -np.sqrt(1.5) * (c * c * d - e) * r1 / (c**3 * d**3 * e)
        y1 = (c**4 * d * d + e * e) / (c * c * d * e)
        assert abs(q1[1] - y1) < 1e-8
        # the radical sign follows the constructed sheet
        assert min(abs(q1[2] - y2), abs(q1[2] + y2)) < 1e-8

    def test_sheets_not_equivalent_generic(self, rng):
        for _ in range(5):
            c, d, e = random_phases(rng, 3)
            if abs(c * c * d - e) < 0.1:
                continue
            assert not unitary_equivalent(d61_family(c, d, e), d62_family(c, d, e))


class TestStandardFormCollapse:
    def test_single_polynomial_across_branches_and_surfaces(self, rng):
        # the dephased six-parameter matrix has one fixed spectral
        # polynomial on both specialisation surfaces, whatever the branch
        expected = np.array(
            [1.0, 2 * np.sqrt(2.0 / 3.0), 5.0 / 3.0, 0.0, -5.0 / 3.0,
             -2 * np.sqrt(2.0 / 3.0), -1.0]
        )[::-1]
        for _ in range(6):
            c, d, e = random_phases(rng, 3)
            for surface in ("first", "second"):
                b = -c * d / e if surface == "first" else c * e * e / (d * d)
                for abr in "+-":
                    for fbr in "+-":
                        M, _, _ = m6_from_branches(
                            b, c, d, e, a_branch=abr, f_branch=fbr
                        )
                        cp = char_poly(dephase(M))
                        assert np.max(np.abs(cp - expected)) < 1e-7
                        assert abs(cp[3]) < 1e-7

    def test_standard_spectrum_value(self, rng):
        # trailing powers denote multiplicities: each nontrivial eigenvalue
        # appears twice
        c, d, e = random_phases(rng, 3)
        M, _, _ = m6_from_branches(-c * d / e, c, d, e)
        Ms = dephase(M)
        lam = -(1 + 1j * np.sqrt(5.0)) / SQ6
        mu = (-1 + 1j * np.sqrt(5.0)) / SQ6
        assert_spectrum(spectrum(Ms).values, [-1, 1, lam, lam, mu, mu], 1e-7)

    def test_undephased_and_dephased_not_equivalent(self, rng):
        c, d, e = random_phases(rng, 3)
        M, _, _ = m6_from_branches(-c * d / e, c, d, e)
        assert not unitary_equivalent(M, dephase(M))


class TestM8:
    def test_block_structure(self, rng):
        p = random_phases(rng, 8)
        M = m8(*p)
        assert np.allclose(M[0], p)
        assert np.allclose(M[1], [p[3], p[0], p[1], p[2], p[7], p[4], p[5], p[6]])
        assert np.max(np.abs(M[4:, :4] - entrywise_inv_transpose(M[:4, 4:]))) < 1e-14
        assert np.max(np.abs(M[4:, 4:] + entrywise_inv_transpose(M[:4, :4]))) < 1e-14

    def test_all_ones_residuals(self):
        assert np.allclose(c8_residuals(*([1.0] * 8)).values, (8, 8, 8))
        assert not is_hadamard(m8(*([1.0] * 8)))

    def test_h_branch_kills_first_constraint(self, rng):
        p = random_phases(rng, 7)
        M, h = m8_from_h_branch(*p, h_branch="+")
        assert abs(c8_residuals(*p, h).values[0]) < 1e-10


class TestDoubling:
    def test_order_two_to_four(self):
        H2 = np.array([[1, 1], [1, -1]], dtype=complex)
        H4_ = double(H2, H2)
        assert H4_.shape == (4, 4)
        assert is_hadamard(H4_)

    def test_diagonal_phases(self, rng):
        H2 = np.array([[1, 1], [1, -1]], dtype=complex)
        diag = random_phases(rng, 2)
        assert is_hadamard(double(H2, H2, diag))

    def test_rejects_non_hadamard(self):
        with pytest.raises(InvalidParameter):
            double(np.eye(2), np.eye(2))

    def test_rejects_non_phase_diagonal(self):
        H2 = np.array([[1, 1], [1, -1]], dtype=complex)
        with pytest.raises(InvalidParameter):
            double(H2, H2, [2.0, 1.0])

    def test_order12_and_24_chain(self):
        A, B = a6(), b6()
        assert is_hadamard(A)
        assert is_hadamard(B)
        M12 = double(A, B)
        assert M12.shape == (12, 12)
        assert orthogonality_residual(M12) <= 1e-9
        assert is_hadamard(M12)
        M24 = double(M12, M12)
        assert M24.shape == (24, 24)
        assert is_hadamard(M24)

    def test_doubled_spectra_unimodular(self):
        M12 = double(a6(), b6())
        assert spectrum(M12).max_unimodularity_deviation() < 1e-8

    def test_order16_from_doubled_octics(self, rng):
        A = d8a(*random_phases(rng, 6))
        B = d8a(*random_phases(rng, 6))
        M16 = double(A, B, random_phases(rng, 8))
        assert M16.shape == (16, 16)
        assert is_hadamard(M16)


class TestD8aAndD81:
    def test_d8a_hadamard_six_phases(self, rng):
        for _ in range(5):
            b, c, d, f, g, h = random_phases(rng, 6)
            assert is_hadamard(d8a(b, c, d, f, g, h))

    def test_d81_matches_d8a_at_landmark_point(self):
        M = d8a(1.0, 1j, -1j, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4), -1.0)
        assert np.max(np.abs(M - d81())) < 1e-14

    def test_d81_hadamard(self):
        assert is_hadamard(d81())

    def test_d81_reduced_roots(self):
        q = reduce_reciprocal(char_poly(d81()))
        expected = [
            -1j * SQ2,
            1j * (2 + SQ2) / 2,
            1j * (SQ2 + np.sqrt(10.0)) / 4,
            1j * (SQ2 - np.sqrt(10.0)) / 4,
        ]
        assert multiset_match(poly_roots(q), expected, 1e-8)

    def test_d81_x_spectrum_contains_lifted_pair(self):
        sp = spectrum(d81()).values
        for target in ((1j + 1) / SQ2, (1j - 1) / SQ2):
            assert min(abs(z - target) for z in sp) < 1e-10


class TestGeneratedHadamardSpectraUnimodular:
    def test_family_outputs(self, rng):
        mats = [
            h4(*random_phases(rng, 3)),
            h4a(complex(random_phases(rng, 1)[0])),
            bf(bf_quartic_roots()[0]),
            d6(),
            d61(),
            d61_family(*random_phases(rng, 3)),
            d62_family(*random_phases(rng, 3)),
            d8a(*random_phases(rng, 6)),
            d81(),
            double(a6(), b6()),
        ]
        for M in mats:
            assert is_hadamard(M)
            assert spectrum(M).max_unimodularity_deviation() <= 1e-8
