import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval

from hadamard_forge import (
    DEFAULT_TOL,
    InvalidDimensions,
    NotNormal,
    NotReciprocal,
    RootFindingFailure,
    a6,
    b6,
    bf,
    bf_quartic_roots,
    char_poly,
    circulant,
    circulant_block_spectrum,
    d6,
    d61,
    d81,
    dephase,
    distinct_spectra,
    double,
    h4,
    lift_roots,
    m6,
    m6_from_branches,
    m8,
    multiset_match,
    permutation_matrix,
    poly_roots,
    reduced_roots,
    spectrum,
    unitary_equivalent,
)
from hadamard_forge import spectra as spectra_module
from hadamard_forge.spectra import _cell_width, _lexsorted
from conftest import assert_spectrum, random_phases

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
SQ6 = np.sqrt(6.0)


def poly_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return c[::-1].copy()


def backward_error(roots, casc):
    """Largest coefficient change that makes `roots` exact, relative to max|casc|."""
    casc = np.asarray(casc, dtype=complex)
    return np.max(np.abs(np.poly(roots)[::-1] * casc[-1] - casc)) / np.max(np.abs(casc))


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

    def test_two_triple_roots_resolved(self):
        # each root checked alone let a wrongly split triple root through
        exact = [-0.1 - 0.8j] * 3 + [0.4 - 1j] * 3
        assert_spectrum(poly_roots(np.poly(exact)[::-1]), exact, 1e-10)

    def test_six_fold_roots_keep_the_coefficients(self):
        # +-1 six-fold: the roots scatter by ~eps**(1/6), the multiset must not
        casc = char_poly(double(d6(), d6()))
        roots = poly_roots(casc)
        assert backward_error(roots, casc) <= DEFAULT_TOL.tau_root

    # 1000 examples: about 1 in 100 of these sets defeats a check of each
    # root alone, and 200 examples did not always draw one
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                    min_size=1, max_size=4, unique=True),
           st.lists(st.integers(1, 3), min_size=4, max_size=4))
    def test_roots_raise_or_give_the_coefficients_back(self, grid, mult):
        # roots on a 0.1 grid with multiplicities 1-3
        exact = np.repeat([complex(re, im) / 10 for re, im in grid], mult[:len(grid)])
        casc = np.poly(exact)[::-1]
        try:
            roots = poly_roots(casc)
        except RootFindingFailure:
            return
        assert len(roots) == len(exact)
        assert backward_error(roots, casc) <= DEFAULT_TOL.tau_root


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
        # ascending (1, p, s, -p, 1) is x**2 * q(1/x - x) with q = y**2 + p*y + s + 2
        p, s = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        ys = reduced_roots(poly_roots(np.array([1, p, s, -p, 1])))
        assert np.max(np.abs(np.poly(ys) - [1, p, s + 2])) <= 1e-8

    def test_non_reciprocal(self):
        with pytest.raises(NotReciprocal):
            reduced_roots(poly_roots(np.array([1, 1, 0, 0, 1], dtype=complex)))

    def test_palindromic_even_sextic_is_not_y_reducible(self):
        # palindromic coefficients close under x -> 1/x, not under the
        # x -> -1/x symmetry the y-substitution needs
        casc = np.array([1, -SQ6, 3, -2 * SQ2, 3, -SQ6, 1], dtype=complex)
        with pytest.raises(NotReciprocal):
            reduced_roots(poly_roots(casc))

    def test_d6_spectrum_reduces(self):
        # {-1 x3, +1 x3}: (x^2-1)^3 = x^3 * (-y)^3, a triple root y = 0
        ys = reduced_roots(spectrum(d6()))
        assert_spectrum(ys, [0, 0, 0], 1e-12)

    def test_x_squared_minus_one(self):
        assert_spectrum(reduced_roots([1.0, -1.0]), [0.0], 1e-12)

    def test_odd_degree_rejected(self):
        with pytest.raises(NotReciprocal):
            reduced_roots(poly_roots(np.array([1.0, 2.0, 3.0, 1.0])))
        with pytest.raises(NotReciprocal):
            reduced_roots([1j])

    @pytest.mark.parametrize("values", [
        [1j, -1j], [1j, 1j, 1j, -1j], [1j, 1j, 1j, 1.0, -1.0, -1j],
    ])
    def test_plus_minus_i_of_odd_multiplicity_rejected(self, values):
        # {i, -i} matches its image under x -> -1/x, but x**2 + 1 is not reciprocal
        with pytest.raises(NotReciprocal):
            reduced_roots(values)

    @pytest.mark.parametrize("delta", [0.0, 1e-10, 4e-9, 4.9e-9])
    def test_plus_minus_i_of_even_multiplicity(self, delta):
        # a pair split by up to tau_spec still reduces: y = 1/x - x is flat at +-i
        ys = reduced_roots([1j + delta, -1j, 1j - delta, -1j * (1 + delta)])
        assert_spectrum(ys, [-2j, 2j], 1e-15)

    def test_zero_value_has_no_partner(self):
        # no divide warning either: the suite turns RuntimeWarning into an error
        for values in ([0.0, 1.0], [0.0, 0.0], [0.0, 1e9]):
            with pytest.raises(NotReciprocal):
                reduced_roots(values)

    def test_empty_input_has_no_roots(self):
        assert reduced_roots([]).shape == (0,)


# the drawn values are exact, so a tight bound keeps distinct draws from pairing
EXACT_TOL = 1e-12


@st.composite
def reciprocal_multisets(draw):
    """A shuffled multiset X u -1/X: unimodular and off-circle values, repeats,
    and i and -i each of even multiplicity."""
    values = []
    for r, theta, copies in draw(st.lists(st.tuples(
            st.one_of(st.just(1.0), st.floats(0.2, 5.0)),
            st.floats(0.0, 2 * np.pi), st.integers(1, 3)), max_size=5)):
        x = r * np.exp(1j * theta)
        assume(abs(x * x + 1) > 1e-6)  # values at +-i come from the counts below
        values += [x, -1.0 / x] * copies
    values += [1j] * draw(st.sampled_from([0, 2, 4])) + [-1j] * draw(st.sampled_from([0, 2, 4]))
    return np.array(draw(st.permutations(values)), dtype=complex)


class TestReducedRootsProperties:
    @settings(max_examples=300, deadline=None)
    @given(reciprocal_multisets())
    def test_lift_of_reduced_roots_gives_the_values_back(self, values):
        ys = reduced_roots(values, EXACT_TOL)
        assert len(ys) == len(values) // 2
        assert multiset_match(lift_roots(ys), values, 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(reciprocal_multisets(), st.integers(0, 10**6))
    def test_dropping_a_value_is_not_reciprocal(self, values, k):
        assume(len(values) > 0)
        with pytest.raises(NotReciprocal):
            reduced_roots(np.delete(values, k % len(values)), EXACT_TOL)

    @settings(max_examples=200, deadline=None)
    @given(reciprocal_multisets(), st.integers(0, 3), st.integers(0, 3))
    def test_adding_plus_minus_i_of_odd_multiplicity_is_not_reciprocal(self, values, a, b):
        assume(a % 2 or b % 2)
        with pytest.raises(NotReciprocal):
            reduced_roots(np.concatenate((values, [1j] * a, [-1j] * b)), EXACT_TOL)


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
            direct = poly_roots(casc)
            lifted = lift_roots(reduced_roots(direct))
            assert multiset_match(lifted, direct, 1e-8)

    def test_roundtrip_identity_on_samples(self, rng):
        k = 3
        lower = random_phases(rng, k + 1)
        casc = np.zeros(2 * k + 1, dtype=complex)
        for m in range(0, k + 1):
            casc[k - m] = lower[m]
            casc[k + m] = (-1) ** m * lower[m]
        # x**k * prod(1/x - x - y_j) = (-1)**k * prod over the lifted roots of (x - r)
        q = (-1) ** k * casc[-1] * np.poly(reduced_roots(poly_roots(casc)))[::-1]
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
    """The exhaustive classification: compare with every representative, by row index."""
    reps = []
    for n, s in enumerate(spectra):
        if not any(multiset_match(s, spectra[r], tol) for r in reps):
            reps.append(n)
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
        spectra.append(base[perm] + radius * np.exp(1j * phase))
    return _lexsorted(np.array(spectra)), tol


def crowded_leader_cases():
    """Rows 1 and 2 share a cell next to row 0's, so row 1 leads row 2 and is crowded.

    Row 1 misses row 0 by 5e-8 in the imaginary parts and is a
    representative, which row 2 is a twin of; or row 1 is a twin of row 0,
    and row 2 is a twin of row 1 only, so that multiset_match decides that
    row 2 is new.  The sums of rows 0 and 1 lie on either side of a cell
    edge.
    """
    base = np.array([-0.6 + 0.8j, 0.6 + 0.8j])
    r0 = base - 0.2e-8
    apart = base + [0.2e-8 + 5e-8j, 0.2e-8 - 5e-8j]
    twin = base + 0.2e-8
    return [(np.array([r0, apart, apart + 0.1e-8]), 1e-8),
            (np.array([r0, twin, twin + 0.7e-8]), 1e-8)]


class TestDistinctSpectra:
    @settings(max_examples=150, deadline=None)
    @given(spectrum_lists())
    @example(crowded_leader_cases()[0])
    @example(crowded_leader_cases()[1])
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
        A, B = _lexsorted(a), _lexsorted(b)
        if multiset_match(A, B, tol):
            gap = abs(np.sum(A) - np.sum(B))
            assert gap <= _cell_width(np.array([A, B]), tol) / 2

    def test_constant_trace_family_falls_back_to_one_cell(self, rng):
        # +-v pairs sum to zero, so every spectrum shares the cells around 0
        half = random_phases(rng, 3 * 40).reshape(40, 3)
        spectra = _lexsorted(np.concatenate([half, -half], axis=1))
        spectra = np.concatenate([spectra, spectra[::2]])
        assert distinct_spectra(spectra, 1e-8) == first_match_scan(spectra, 1e-8)
        assert len(distinct_spectra(spectra, 1e-8)) == 40

    def test_non_finite_sums_fall_back_to_the_scan(self):
        spectra = _lexsorted(np.array([[1.0, np.nan], [1.0, 2.0], [1.0, 2.0 + 1e-9],
                                       [np.inf, 0.0]], dtype=complex))
        assert distinct_spectra(spectra, 1e-8) == [0, 1, 3]

    @pytest.mark.parametrize("m", [1, 6])
    def test_no_spectra_give_no_representatives(self, m):
        assert distinct_spectra(np.empty((0, m), dtype=complex), 1e-8) == []
        assert distinct_spectra(spectrum(np.empty((0, m, m))), 1e-8) == []

    def test_spectra_not_given_as_rows_are_rejected(self):
        for spectra in (spectrum(d6()), [], np.zeros((2, 3, 6))):
            with pytest.raises(InvalidDimensions):
                distinct_spectra(spectra, 1e-8)

    def test_sweep_spectra_need_few_comparisons(self, monkeypatch):
        from hadamard_forge.cli import _sweep_rows
        from hadamard_forge.families import _block_row_hits
        from hadamard_forge.spectra import _block_row_spectrum

        rows = _sweep_rows(1, 200)
        spectra = _block_row_spectrum(rows[_block_row_hits(rows)])
        calls = []

        def counted(a, b, tol):
            calls.append(1)
            return multiset_match(a, b, tol)

        monkeypatch.setattr(spectra_module, "multiset_match", counted)
        reps = distinct_spectra(spectra, 1e-8)
        assert (len(spectra), len(reps)) == (480, 240)
        # the exhaustive scan makes about 44,600 comparisons here, the cell
        # window at most one per spectrum; every twin passes the in-order test
        assert len(calls) <= len(spectra)
        assert len(calls) == 0

    @pytest.mark.parametrize("case, reps", zip(crowded_leader_cases(), [[0, 1], [0, 2]]))
    def test_a_crowded_leader_decides_or_defers_to_the_matcher(self, monkeypatch, case, reps):
        spectra, tol = case
        width = _cell_width(spectra, tol)
        cells = np.floor(spectra.sum(axis=-1).real / width)
        assert cells[0] + 1 == cells[1] == cells[2]
        calls = []

        def counted(a, b, tol):
            calls.append(1)
            return multiset_match(a, b, tol)

        monkeypatch.setattr(spectra_module, "multiset_match", counted)
        assert distinct_spectra(spectra, tol) == first_match_scan(spectra, tol) == reps
        # row 1 against row 0 in the first case, row 2 against row 0 in the second
        assert len(calls) == 1

    def test_matching_spectra_sorted_apart_go_to_the_matcher(self, monkeypatch):
        # real parts within tol: lexsort puts a's upper value first, b's lower
        a = _lexsorted(np.array([1.0 + 0.5j, 1.0 + 3e-9 - 0.5j]))
        b = _lexsorted(np.array([1.0 + 3e-9 + 0.5j, 1.0 - 0.5j]))
        c = _lexsorted(a + 2e-9)
        assert not np.all(np.abs(a - b) <= 1e-8)
        calls = []

        def counted(u, v, tol):
            calls.append(1)
            return multiset_match(u, v, tol)

        monkeypatch.setattr(spectra_module, "multiset_match", counted)
        reps = distinct_spectra(np.array([a, b, c]), 1e-8)
        # b needs the matcher; c passes the in-order test against a
        assert len(calls) == 1
        assert reps == first_match_scan(np.array([a, b, c]), 1e-8) == [0]


class TestSpectrumAndEquivalence:
    def test_spectrum_d6(self):
        assert_spectrum(spectrum(d6()), [-1, -1, -1, 1, 1, 1])

    def test_stack_is_sorted_as_each_spectrum_alone(self, rng):
        # real matrices give conjugate pairs, +-1 matrices repeated values
        stacks = [rng.normal(size=(50, 5, 5)), np.sign(rng.normal(size=(50, 4, 4))),
                  np.array([d6(), d61(), d6(), np.eye(6)])]
        for stack in stacks:
            m = stack.shape[-1]
            scaled = np.asarray(stack, dtype=complex) / np.sqrt(m)
            for s, ev in zip(spectrum(stack), np.linalg.eigvals(scaled)):
                assert np.array_equal(s, _lexsorted(ev))

    def test_stack_of_any_shape_gives_each_matrix_its_own_spectrum(self, rng):
        stack = rng.normal(size=(2, 3, 5, 5)) + 1j * rng.normal(size=(2, 3, 5, 5))
        got = spectrum(stack)
        assert got.shape == (2, 3, 5)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(got[i, j], spectrum(stack[i, j]))

    def test_spectrum_d61(self):
        expected = [-1, -1, 1, 1, (1j - SQ2) / SQ3, -(1j + SQ2) / SQ3]
        assert_spectrum(spectrum(d61()), expected)

    def test_spectrum_matches_poly_roots_even_with_multiplicity(self):
        for M in (d6(), d61(), dephase(bf(bf_quartic_roots()[0]))):
            roots = poly_roots(char_poly(M))
            assert multiset_match(spectrum(M), roots, 1e-8)

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
        assert multiset_match(spectrum(P @ M @ P.T), spectrum(M), 1e-8)

    def test_reflexive_symmetric(self):
        assert unitary_equivalent(d6(), d6())
        assert unitary_equivalent(d61(), d61())

    def test_non_normal_rejected(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotNormal):
            unitary_equivalent(M, M)

    def test_selfadjoint_spectrum_real(self):
        sp = spectrum(d6())
        assert np.max(np.abs(sp.imag)) < 1e-8

    def test_determinant_consistency(self, rng):
        M = d61()
        sp = spectrum(M)
        det = np.linalg.det(M / SQ6)
        assert abs(np.prod(sp) - det) < 1e-8 * 6


@st.composite
def circulant_block_stacks(draw):
    """m6 or m8 stacks at torus points, off the torus, or with b*e = c*d."""
    n = draw(st.sampled_from([6, 8]))
    size = draw(st.integers(1, 4))
    rows = st.lists(st.lists(ANGLES, min_size=n, max_size=n), min_size=size, max_size=size)
    params = np.exp(1j * np.array(draw(rows)).T)
    if draw(st.booleans()):
        moduli = st.lists(st.lists(st.floats(-0.7, 0.7), min_size=n, max_size=n),
                          min_size=size, max_size=size)
        params = params * np.exp(np.array(draw(moduli)).T)
    if draw(st.booleans()):
        params[4] = params[2] * params[3] / params[1]
    return (m6 if n == 6 else m8)(*params)


class TestCirculantBlockSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(circulant_block_stacks())
    def test_equals_spectrum(self, stack):
        got = circulant_block_spectrum(stack)
        want = spectrum(stack)
        assert len(got) == len(want) == len(stack)
        for g, w in zip(got, want):
            assert np.array_equal(g, _lexsorted(g))
            assert multiset_match(g, w, 1e-12)

    def test_one_matrix_gives_a_multiset_and_no_matrices_an_empty_list(self, rng):
        M = m8(*random_phases(rng, 8))
        got = circulant_block_spectrum(M)
        assert got.shape == (8,)
        assert multiset_match(got, spectrum(M), 1e-12)
        assert circulant_block_spectrum(np.zeros((0, 6, 6), dtype=complex)).shape == (0, 6)

    def test_near_double_eigenvalues_keep_their_digits(self, rng):
        # symbol blocks alpha*I + O(1e-9), where tau**2 - 4*det keeps only ~8 digits
        r = random_phases(rng, 3)
        small = 1e-9 * random_phases(rng, 9)
        M = np.block([[circulant(r), circulant(small[:3])],
                      [circulant(small[3:6]), circulant(r + small[6:])]])
        assert multiset_match(circulant_block_spectrum(M), spectrum(M), 1e-12)

    def test_blocks_that_are_not_circulant_are_rejected(self, rng):
        for M in (d6(), d61(), double(a6(), b6()), np.eye(5), np.eye(1)):
            with pytest.raises(InvalidDimensions):
                circulant_block_spectrum(M)

    @pytest.mark.parametrize("build, m", [(m6, 6), (m8, 8)])
    def test_one_entry_off_in_any_block_is_rejected(self, rng, build, m):
        M = build(*random_phases(rng, m))
        circulant_block_spectrum(M)
        for i, j in itertools.product(range(m), repeat=2):
            nudged = M.copy()
            nudged[i, j] += 1e-12
            with pytest.raises(InvalidDimensions):
                circulant_block_spectrum(nudged)
            with pytest.raises(InvalidDimensions):
                circulant_block_spectrum(np.stack([M, nudged]))


class TestNonFiniteNeverPasses:
    """A NaN residual fails every bound, as the documented error.

    `spectrum --reduce` and `equiv` on huge entries are tested in test_cli.
    """

    def test_reduced_roots_of_nan(self):
        for values in ([np.nan, 1.0], [np.nan, np.nan], [complex(1, np.nan), -1.0]):
            with pytest.raises(NotReciprocal):
                reduced_roots(values)
        with pytest.raises(NotReciprocal):
            reduced_roots([1.0, -1.0], np.nan)

    def test_poly_roots_of_nan(self):
        with pytest.raises(RootFindingFailure):
            poly_roots([1.0, np.nan, 1.0])

    @pytest.mark.parametrize("coeffs", [
        [1.0, np.inf, 1.0], [1.0, -np.inf, 1.0], [1.0, 0.0, np.inf], [complex(1, -np.inf), 1.0],
    ])
    def test_poly_roots_of_inf(self, coeffs):
        with pytest.raises(RootFindingFailure):
            poly_roots(coeffs)
