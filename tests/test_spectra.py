import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval

from hadamard_forge import (
    NotNormal,
    NotReciprocal,
    RootFindingFailure,
    SpectrumMultiset,
    bf,
    bf_quartic_roots,
    char_poly,
    d6,
    d61,
    d81,
    dephase,
    distinct_spectra,
    h4,
    is_reciprocal,
    lift_roots,
    m6_from_branches,
    multiset_match,
    permutation_matrix,
    poly_roots,
    reduce_reciprocal,
    spectrum,
    unitary_equivalent,
)
from hadamard_forge import spectra as spectra_module
from hadamard_forge.spectra import _cell_width
from conftest import assert_spectrum, random_phases

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
SQ6 = np.sqrt(6.0)


def poly_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return c[::-1].copy()


class TestPolyRoots:
    def test_quadratic(self):
        assert_spectrum(poly_roots([1, 0, 1]), [1j, -1j], 1e-12)

    def test_bf_quartic_closed_forms(self):
        roots = poly_roots(np.array([1.0, -2.0, 0.0, -2.0, 1.0]))
        assert_spectrum(roots, bf_quartic_roots(), 1e-9)

    def test_triple_roots_resolved(self):
        # (x^2 - 1)^3 has a pair of triple roots
        casc = np.array([-1, 0, 3, 0, -3, 0, 1], dtype=complex)
        assert_spectrum(poly_roots(casc), [1, 1, 1, -1, -1, -1], 1e-10)

    def test_double_root(self):
        casc = poly_from_roots([1j, 1j, -2.0])
        assert_spectrum(poly_roots(casc), [1j, 1j, -2.0], 1e-10)

    def test_close_but_distinct_roots_kept_apart(self):
        r1, r2 = 1.0, 1.0 + 1e-6
        casc = poly_from_roots([r1, r2, -3.7])
        assert_spectrum(poly_roots(casc), [r1, r2, -3.7], 1e-9)

    def test_residual_bound(self, rng):
        for _ in range(20):
            casc = rng.normal(size=9) + 1j * rng.normal(size=9)
            roots = poly_roots(casc)
            scale = np.sum(np.abs(casc))
            vals = np.abs(np.polyval(casc[::-1], roots))
            assert np.max(vals) <= 1e-9 * scale * 10


def horner(coeffs, x):
    """Reference loop for numpy's polyval on ascending coefficients."""
    r = np.zeros_like(np.asarray(x, dtype=complex))
    for ck in np.asarray(coeffs, dtype=complex)[::-1]:
        r = r * x + ck
    return r


class TestNumpyPolynomialRoutines:
    """The numpy routines spectra uses equal plain loops bit for bit."""

    def test_polyval_and_polyder_equal_the_loops(self, rng):
        for n in range(1, 26):
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            c[rng.random(n) < 0.2] = 0
            x = rng.normal(size=7) + 1j * rng.normal(size=7)
            assert np.array_equal(polyval(x, c), horner(c, x))
            assert complex(polyval(complex(x[0]), c)) == complex(horner(c, complex(x[0])))
            expected = c[1:] * np.arange(1, n) if n > 1 else np.zeros(1, dtype=complex)
            assert np.array_equal(polyder(c), expected)

    def test_char_poly_above_order_16_is_the_factor_product(self, rng):
        # above order 16 char_poly returns the eigenvalue product unchecked
        for m in (17, 20, 24):
            M = random_phases(rng, m * m).reshape(m, m)
            ev = np.linalg.eigvals(M / np.sqrt(m))
            assert np.array_equal(char_poly(M), poly_from_roots(ev))


class TestCharPoly:
    def test_d6_is_x2_minus_1_cubed(self):
        cp = char_poly(d6())
        expected = np.array([-1, 0, 3, 0, -3, 0, 1], dtype=complex)
        assert np.max(np.abs(cp - expected)) < 1e-12

    def test_bf_at_unimodular_root(self):
        cp = char_poly(bf(bf_quartic_roots()[0]))
        expected = np.array([1, -SQ6, 3, -2 * SQ2, 3, -SQ6, 1], dtype=complex)
        assert np.max(np.abs(cp - expected)) < 1e-8

    def test_complex_even_for_real_spectra_and_order_zero(self):
        # numpy.poly returns a real array for conjugate-closed roots and 1.0 for none
        H = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])
        assert char_poly(H).dtype == complex
        assert char_poly(np.eye(20)).dtype == complex
        cp = char_poly(np.zeros((0, 0)))
        assert cp.dtype == complex and np.array_equal(cp, [1])

    def test_monic(self, rng):
        M = random_phases(rng, 16).reshape(4, 4)
        cp = char_poly(M)
        assert abs(cp[-1] - 1.0) < 1e-14

    def test_trace_recursion_matches_eigen_product(self, rng):
        # both routes run internally for small orders; also compare directly
        M = random_phases(rng, 36).reshape(6, 6)
        cp = char_poly(M)
        ev = np.linalg.eigvals(M / SQ6)
        assert np.max(np.abs(np.polyval(cp[::-1], ev))) < 1e-10
        assert np.max(np.abs(polyval(ev, cp))) < 1e-10


class TestReciprocal:
    def test_order4_family_pattern_is_reciprocal(self, rng):
        # ascending (1, p, s, -p, 1) admits the substitution
        p, s = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        assert is_reciprocal(np.array([1, p, s, -p, 1]))

    def test_non_reciprocal(self):
        assert not is_reciprocal(np.array([1, 1, 0, 0, 1], dtype=complex))

    def test_palindromic_even_sextic_is_not_y_reducible(self):
        # palindromic coefficients close under x -> 1/x, not under the
        # x -> -1/x symmetry the y-substitution needs
        casc = np.array([1, -SQ6, 3, -2 * SQ2, 3, -SQ6, 1], dtype=complex)
        assert not is_reciprocal(casc)
        with pytest.raises(NotReciprocal):
            reduce_reciprocal(casc)

    def test_d6_char_poly_reduces(self):
        cp = char_poly(d6())
        assert is_reciprocal(cp)
        q = reduce_reciprocal(cp)
        # (x^2-1)^3 = x^3 * (-y)^3 pattern: triple root y = 0
        assert_spectrum(poly_roots(q), [0, 0, 0], 1e-4)

    def test_x_squared_minus_one(self):
        q = reduce_reciprocal(np.array([-1.0, 0.0, 1.0]))
        assert_spectrum(poly_roots(q), [0.0], 1e-12)

    def test_odd_degree_rejected(self):
        assert not is_reciprocal(np.array([1.0, 2.0, 3.0, 1.0]))


class TestLiftRoots:
    def test_zero_maps_to_plus_minus_one(self):
        assert_spectrum(lift_roots([0.0]), [1.0, -1.0], 1e-14)

    def test_landmark_value(self):
        got = lift_roots([-1j * SQ2])
        assert_spectrum(got, [(1j + 1) / SQ2, (1j - 1) / SQ2], 1e-14)

    def test_lift_inverts_y_map(self, rng):
        ys = rng.normal(size=5) + 1j * rng.normal(size=5)
        for y in ys:
            for x in lift_roots([y]):
                assert abs((1.0 / x - x) - y) < 1e-10


class TestReductionRoundtrip:
    def test_roundtrip_200_random_reciprocal(self):
        rng = np.random.default_rng(123)
        count = 0
        worst = 0.0
        while count < 200:
            k = int(rng.integers(1, 5))
            lower = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
            casc = np.zeros(2 * k + 1, dtype=complex)
            for m in range(0, k + 1):
                casc[k - m] = lower[m]
                casc[k + m] = (-1) ** m * lower[m]
            if abs(casc[0]) < 1e-2 or abs(casc[-1]) < 1e-2:
                continue
            count += 1
            assert is_reciprocal(casc)
            lifted = lift_roots(poly_roots(reduce_reciprocal(casc)))
            direct = poly_roots(casc)
            assert multiset_match(lifted, direct, 1e-8)

    def test_roundtrip_identity_on_samples(self, rng):
        k = 3
        lower = random_phases(rng, k + 1)
        casc = np.zeros(2 * k + 1, dtype=complex)
        for m in range(0, k + 1):
            casc[k - m] = lower[m]
            casc[k + m] = (-1) ** m * lower[m]
        q = reduce_reciprocal(casc)
        xs = 0.7 * np.exp(1j * np.linspace(0.3, 6.0, 11))
        lhs = polyval(1.0 / xs - xs, q) * xs**k
        rhs = polyval(xs, casc)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def brute_force_match(a, b, tol):
    """Some permutation of b lies within tol of a, value by value."""
    a, b = [complex(v) for v in a], [complex(v) for v in b]
    return len(a) == len(b) and any(
        all(abs(x - y) <= tol for x, y in zip(a, p)) for p in itertools.permutations(b)
    )


# few distinct values so that repeats are common; about one entry in eleven
# is NaN or infinite, so that most lists of six have none
MATCH_VALUES = st.one_of(
    st.sampled_from(3 * [0j, 1 + 0j, -1 + 0j, 1j, 0.25 + 0.25j, 0.5 - 0.5j]
                    + [complex(np.nan, 0), complex(np.inf, 0), complex(-np.inf, 1),
                       complex(1, np.nan)]),
    st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
# moves of length up to 0.35, on both sides of the bound 0.3
MOVES = st.builds(complex, st.floats(-0.25, 0.25), st.floats(-0.25, 0.25))


class TestMultisetMatch:
    def test_tie_breaking_requires_assignment(self):
        # pairing each value with its nearest fails here; exact matching succeeds
        a = [0.0, 1.0]
        b = [0.6, 1.4]
        assert not multiset_match(a, b, 0.5)
        a = [0.0, 0.9]
        b = [0.5, 1.0]
        # greedy for 0.0 picks 0.5; 0.9 then pairs 1.0: both within 0.55
        assert multiset_match(a, b, 0.55)
        # matching 0.0->0.5 leaves 0.9->1.0 (ok) but 0.0->1.0 impossible
        assert not multiset_match([0.0, 0.45], [0.5, 5.0], 0.1)

    def test_multiplicity_respected(self):
        assert not multiset_match([1.0, 1.0, -1.0], [1.0, -1.0, -1.0], 1e-9)

    def test_length_mismatch(self):
        assert not multiset_match([1.0], [1.0, 1.0], 1e-9)

    @pytest.mark.parametrize("a, b, tol", [
        ([0.0], [5.0], np.nan),
        ([np.nan], [1.0], np.inf),
        ([1.0, 2.0], [1.0, 2.0], np.nan),
        ([np.inf], [np.inf], np.inf),
    ])
    def test_nan_distance_or_bound_admits_no_pair(self, a, b, tol):
        assert not multiset_match(a, b, tol)
        assert not brute_force_match(a, b, tol)

    @settings(max_examples=1000, deadline=None)
    @given(
        a=st.lists(MATCH_VALUES, max_size=6),
        tol=st.sampled_from([0.0, 1e-8, 0.3, 1.0, np.inf, np.nan]),
        data=st.data(),
    )
    def test_equals_brute_force(self, a, tol, data):
        if data.draw(st.integers(0, 3)):
            # three times in four: a permutation of a, each value kept, moved or replaced
            b = [data.draw(st.one_of(st.just(v), MOVES.map(v.__add__), MATCH_VALUES))
                 for v in data.draw(st.permutations(a))]
        else:
            b = data.draw(st.lists(MATCH_VALUES, max_size=6))
        assert multiset_match(a, b, tol) == brute_force_match(a, b, tol)


def first_match_scan(spectra, tol):
    """The exhaustive classification: compare with every representative."""
    reps = []
    for s in spectra:
        if not any(s.matches(r, tol) for r in reps):
            reps.append(s)
    return reps


ANGLES = st.floats(0.0, 2 * np.pi)


@st.composite
def spectrum_lists(draw):
    """Spectra drawn as near-duplicates of a few unimodular bases.

    Each copy permutes its base and moves every value by up to 1.2*tol, so
    some copies match and some do not.  A non-constant base is rotated so
    that the real part of its sum lies on a cell edge; a constant-trace set
    pairs every value with its negative, so all sums are (nearly) zero.
    """
    m = draw(st.integers(1, 8))
    tol = draw(st.sampled_from([1e-8, 1e-6, 0.05, 2.0]))
    constant_trace = draw(st.booleans())
    bases = []
    for _ in range(draw(st.integers(1, 5))):
        if constant_trace:
            half = np.exp(1j * np.array(draw(st.lists(ANGLES, min_size=m // 2,
                                                      max_size=m // 2))))
            vals = np.concatenate([half, -half, np.ones(m % 2)])
        else:
            vals = np.exp(1j * np.array(draw(st.lists(ANGLES, min_size=m, max_size=m))))
            total = np.sum(vals)
            if total:
                w = _cell_width(vals[None, :], tol)
                k = np.floor(abs(total) / (2 * w))
                vals = vals * np.exp(1j * (np.arccos(k * w / abs(total)) - np.angle(total)))
        bases.append(vals)
    spectra = []
    for _ in range(draw(st.integers(1, 20))):
        base = bases[draw(st.integers(0, len(bases) - 1))]
        perm = draw(st.permutations(range(m)))
        radius = tol * np.array(draw(
            st.lists(st.floats(0.0, 1.2), min_size=m, max_size=m)))
        phase = np.array(draw(st.lists(ANGLES, min_size=m, max_size=m)))
        spectra.append(SpectrumMultiset(base[perm] + radius * np.exp(1j * phase)))
    return spectra, tol


class TestDistinctSpectra:
    @settings(max_examples=150, deadline=None)
    @given(spectrum_lists())
    def test_window_equals_exhaustive_scan(self, case):
        spectra, tol = case
        assert distinct_spectra(spectra, tol) == first_match_scan(spectra, tol)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)),
                        min_size=1, max_size=10),
        tol=st.sampled_from([1e-12, 1e-8, 1e-3, 3.0]),
        aligned=st.booleans(),
        data=st.data(),
    )
    def test_matching_multisets_have_sums_within_the_bound(self, values, tol, aligned, data):
        m = len(values)
        a = np.array(values)
        perm = data.draw(st.permutations(range(m)))
        radius = tol * np.array(data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        phase = np.array(data.draw(st.lists(ANGLES, min_size=m, max_size=m)))
        if aligned:
            radius, phase = np.full(m, tol), np.full(m, phase[0])
        b = a[perm] + radius * np.exp(1j * phase)
        A, B = SpectrumMultiset(a), SpectrumMultiset(b)
        if multiset_match(A.values, B.values, tol):
            gap = abs(np.sum(A.values) - np.sum(B.values))
            assert gap <= _cell_width(np.array([A.values, B.values]), tol) / 2

    def test_constant_trace_family_falls_back_to_one_cell(self, rng):
        # +-v pairs sum to zero, so every spectrum shares the cells around 0
        half = random_phases(rng, 3 * 40).reshape(40, 3)
        spectra = [SpectrumMultiset(np.concatenate([h, -h])) for h in half]
        spectra += spectra[::2]
        assert distinct_spectra(spectra, 1e-8) == first_match_scan(spectra, 1e-8)
        assert len(distinct_spectra(spectra, 1e-8)) == 40

    def test_non_finite_sums_fall_back_to_the_scan(self):
        spectra = [SpectrumMultiset([1.0, np.nan]), SpectrumMultiset([1.0, 2.0]),
                   SpectrumMultiset([1.0, 2.0 + 1e-9]), SpectrumMultiset([np.inf, 0.0])]
        assert distinct_spectra(spectra, 1e-8) == [spectra[0], spectra[1], spectra[3]]
        assert distinct_spectra([], 1e-8) == []

    def test_spectra_of_different_lengths(self):
        spectra = [SpectrumMultiset([1.0, 2.0]), SpectrumMultiset([1.0, 2.0, 0.0]),
                   SpectrumMultiset([1.0, 2.0 + 1e-9]), SpectrumMultiset([])]
        assert distinct_spectra(spectra, 1e-8) == [spectra[0], spectra[1], spectra[3]]

    def test_sweep_spectra_need_few_comparisons(self, monkeypatch):
        from hadamard_forge import is_hadamard
        from hadamard_forge.cli import _sweep_matrices

        stack = _sweep_matrices(6, 1, 200)
        spectra = spectrum(stack[is_hadamard(stack)])
        calls = []

        def counted(a, b, tol):
            calls.append(1)
            return multiset_match(a, b, tol)

        monkeypatch.setattr(spectra_module, "multiset_match", counted)
        reps = distinct_spectra(spectra, 1e-8)
        assert (len(spectra), len(reps)) == (480, 240)
        # the exhaustive scan makes about 44,600 comparisons here
        assert len(calls) <= len(spectra)


class TestSpectrumAndEquivalence:
    def test_spectrum_d6(self):
        assert_spectrum(spectrum(d6()).values, [-1, -1, -1, 1, 1, 1])

    def test_stack_is_sorted_as_each_spectrum_alone(self, rng):
        # real matrices give conjugate pairs, +-1 matrices repeated values
        stacks = [rng.normal(size=(50, 5, 5)), np.sign(rng.normal(size=(50, 4, 4))),
                  np.array([d6(), d61(), d6(), np.eye(6)])]
        for stack in stacks:
            m = stack.shape[-1]
            scaled = np.asarray(stack, dtype=complex) / np.sqrt(m)
            for s, ev in zip(spectrum(stack), np.linalg.eigvals(scaled)):
                assert np.array_equal(s.values, SpectrumMultiset(ev).values)

    def test_spectrum_d61(self):
        expected = [-1, -1, 1, 1, (1j - SQ2) / SQ3, -(1j + SQ2) / SQ3]
        assert_spectrum(spectrum(d61()).values, expected)

    def test_spectrum_matches_poly_roots_even_with_multiplicity(self):
        for M in (d6(), d61(), dephase(bf(bf_quartic_roots()[0]))):
            roots = poly_roots(char_poly(M))
            assert multiset_match(spectrum(M).values, roots, 1e-8)

    def test_d6_not_equivalent_to_d61(self):
        assert not unitary_equivalent(d6(), d61())

    def test_bf_not_equivalent_to_dephased_bf(self):
        M = bf(bf_quartic_roots()[0])
        assert not unitary_equivalent(M, dephase(M))

    def test_permutation_conjugation_preserves_spectrum(self, rng):
        from hadamard_forge import permutation_matrix

        M = d61()
        perm = rng.permutation(6)
        P = permutation_matrix(list(perm))
        assert unitary_equivalent(M, P @ M @ P.T)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["h4", "m6", "d61", "d81"]),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
        data=st.data(),
    )
    def test_spectrum_invariant_under_permutation_conjugation(self, family, angles, data):
        c, d, e = np.exp(1j * np.array(angles))
        if family == "h4":
            M = h4(c, d, e)
        elif family == "m6":
            # on the surface b = -c*d/e every branch is Hadamard
            M, _, _ = m6_from_branches(-c * d / e, c, d, e)
        else:
            M = {"d61": d61, "d81": d81}[family]()
        perm = data.draw(st.permutations(range(M.shape[0])))
        P = permutation_matrix(perm)
        assert spectrum(P @ M @ P.T).matches(spectrum(M), 1e-8)

    def test_reflexive_symmetric(self):
        assert unitary_equivalent(d6(), d6())
        assert unitary_equivalent(d61(), d61())

    def test_non_normal_rejected(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotNormal):
            unitary_equivalent(M, M)

    def test_selfadjoint_spectrum_real(self):
        sp = spectrum(d6())
        assert np.max(np.abs(sp.values.imag)) < 1e-8

    def test_determinant_consistency(self, rng):
        M = d61()
        sp = spectrum(M)
        det = np.linalg.det(M / SQ6)
        assert abs(np.prod(sp.values) - det) < 1e-8 * 6

    def test_spectrum_multiset_repr_and_len(self):
        sp = SpectrumMultiset([1.0, -1.0])
        assert len(sp) == 2
        assert "SpectrumMultiset" in repr(sp)


class TestNonFiniteNeverPasses:
    """A NaN residual fails every bound, as the documented error.

    `spectrum --reduce` and `equiv` on huge entries are tested in test_cli.
    """

    def test_reduce_reciprocal_of_nan(self):
        with pytest.raises(NotReciprocal):
            reduce_reciprocal([np.nan, 0.0, 1.0])

    def test_poly_roots_of_nan(self):
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(RootFindingFailure):
            poly_roots([1.0, np.nan, 1.0])
