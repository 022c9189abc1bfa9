import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_forge import (
    InvalidDimensions,
    InvalidParameter,
    ToleranceConfig,
    assemble_sylvester,
    check_equivalence_certificate,
    circulant,
    d6,
    d61,
    dephase,
    entrywise_inv_transpose,
    h4,
    is_hadamard,
    m6,
    m6_from_branches,
    orthogonality_residual,
    permutation_matrix,
    search_equivalence_certificate,
    unimodularity_deviation,
)
from hadamard_forge.core import as_matrix, as_stack, torus_draws
from conftest import random_phases


# real and imaginary parts: exact signed zeros and units, which dephasing
# may turn into one another, and general values
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)


class TestCirculant:
    def test_rows_are_right_shifts(self):
        a, b, c = 2.0, 3.0 + 1j, 5.0
        M = circulant([a, b, c])
        expected = np.array([[a, b, c], [c, a, b], [b, c, a]])
        assert np.array_equal(M, expected)

    def test_order_four_shift_pattern(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        M = circulant([a, b, c, d])
        assert np.array_equal(M[1], [d, a, b, c])
        assert np.array_equal(M[3], [b, c, d, a])

    def test_all_ones(self):
        assert np.array_equal(circulant([1, 1, 1, 1]), np.ones((4, 4)))

    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidParameter):
            circulant([1, 0, 0])

    def test_circulants_commute(self, rng):
        for k in (2, 3, 4, 5):
            r1 = random_phases(rng, k)
            r2 = random_phases(rng, k)
            A, B = circulant(r1), circulant(r2)
            assert np.max(np.abs(A @ B - B @ A)) < 1e-12


class TestNegacirculant:
    def test_layout(self):
        assert np.array_equal(circulant([1, 1], True), [[1, 1], [-1, 1]])

    def test_zero_rejected(self):
        with pytest.raises(InvalidParameter):
            circulant([1, 0], True)

    def test_wrapped_entries_negated_exactly(self):
        # negation flips the sign of every zero part, as -b does on a complex
        a, b = complex(2.0, -0.0), complex(0.0, 3.0)
        got = circulant([a, b], True)
        want = np.array([[a, b], [-b, a]])
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[1, 0].real) and not np.signbit(got[0, 1].real)
        a, b, c = 1.0 + 0j, 2.0 + 0j, 3.0 - 0j
        want = np.array([[a, b, c], [-c, a, b], [-b, -c, a]])
        assert circulant([a, b, c], True).tobytes() == want.tobytes()

    def test_stack_of_first_rows(self, rng):
        rows = random_phases(rng, 5 * 3).reshape(5, 3)
        stack = circulant(rows, True)
        assert stack.shape == (5, 3, 3)
        for row, block in zip(rows, stack):
            assert block.tobytes() == circulant(row, True).tobytes()


class TestEntrywiseInvTranspose:
    def test_identity_of_phases(self):
        M = np.array([[1j]])
        assert entrywise_inv_transpose(M)[0, 0] == -1j

    def test_transposes_and_inverts(self, rng):
        M = random_phases(rng, 9).reshape(3, 3)
        R = entrywise_inv_transpose(M)
        for i in range(3):
            for j in range(3):
                assert abs(R[i, j] - 1.0 / M[j, i]) < 1e-15

    def test_matches_conjugate_transpose_for_unimodular(self, rng):
        M = random_phases(rng, 16).reshape(4, 4)
        assert np.max(np.abs(entrywise_inv_transpose(M) - M.conj().T)) < 1e-14

    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidParameter):
            entrywise_inv_transpose(np.eye(2))

    def test_subnormal_entry_rejected(self):
        # its reciprocal overflows; the suite makes the overflow warning an error
        with pytest.raises(InvalidParameter):
            entrywise_inv_transpose([[1.0, 1e-320 + 0j], [1.0, 1.0]])
        with pytest.raises(InvalidParameter):
            assemble_sylvester([[1.0]], [[1e-320]])


class TestAssembleSylvester:
    def test_order_two_hadamard(self):
        M = assemble_sylvester([[1.0]], [[1.0]])
        assert np.array_equal(M, [[1, 1], [1, -1]])
        assert is_hadamard(M)

    def test_block_identities(self, rng):
        A = circulant(random_phases(rng, 3))
        B = circulant(random_phases(rng, 3))
        M = assemble_sylvester(A, B)
        assert np.array_equal(M[3:, :3], entrywise_inv_transpose(B))
        assert np.array_equal(M[3:, 3:], -entrywise_inv_transpose(A))

    def test_lower_left_row_pattern(self, rng):
        # B = circ(d, e, f) contributes reciprocal rows (1/d,1/f,1/e), ...
        d, e, f = random_phases(rng, 3)
        M = assemble_sylvester(circulant(random_phases(rng, 3)), circulant([d, e, f]))
        assert np.allclose(M[3, :3], [1 / d, 1 / f, 1 / e])
        assert np.allclose(M[4, :3], [1 / e, 1 / d, 1 / f])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensions):
            assemble_sylvester(np.ones((2, 2)), np.ones((3, 3)))


class TestResidualAndHadamard:
    def test_order_two(self):
        assert orthogonality_residual([[1, 1], [1, -1]]) == 0.0

    def test_m6_all_ones_violates(self):
        from hadamard_forge import m6

        assert orthogonality_residual(m6(1, 1, 1, 1, 1, 1)) > 1.0

    def test_is_hadamard_d6_true(self):
        assert is_hadamard(d6())
        assert is_hadamard(d61())

    def test_identity_false(self):
        assert not is_hadamard(np.eye(4))

    def test_scaled_false(self):
        assert not is_hadamard(2 * d6())

    def test_tolerance_config_validation(self):
        with pytest.raises(InvalidParameter):
            ToleranceConfig(tau_entry=0.0)

    @pytest.mark.parametrize("field", ["tau_entry", "tau_root", "tau_spec"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_tolerance_config_rejects_non_positive_and_non_finite(self, field, value):
        with pytest.raises(InvalidParameter):
            ToleranceConfig(**{field: value})


class TestStacks:
    """A stack (N, m, m) gives what N separate calls give, bit for bit."""

    def test_stacked_builders_equal_per_matrix(self, rng):
        P = np.exp(2j * np.pi * rng.random((40, 6)))
        rows = [circulant(p) for p in P]
        assert np.array_equal(circulant(P), rows)
        A, B = circulant(P[:, :3]), circulant(P[:, 3:])
        assert np.array_equal(assemble_sylvester(A, B),
                              [assemble_sylvester(a, b) for a, b in zip(A, B)])
        assert np.array_equal(entrywise_inv_transpose(A),
                              [entrywise_inv_transpose(a) for a in A])
        assert np.array_equal(m6(*P.T), [m6(*p) for p in P])

    def test_stacked_checks_equal_per_matrix(self, rng):
        P = np.exp(2j * np.pi * rng.random((30, 6)))
        stack = np.concatenate([m6(*P.T), [d6(), d61(), 2 * d6()]])
        assert np.array_equal(orthogonality_residual(stack),
                              [orthogonality_residual(M) for M in stack])
        assert np.array_equal(unimodularity_deviation(stack),
                              [unimodularity_deviation(M) for M in stack])

    def test_stacked_is_hadamard_equals_per_matrix(self, rng):
        from hadamard_forge import m6_from_branches

        # the four points over the first fixing are Hadamard, those over the
        # second solve the constraints off the torus
        points = [m6_from_branches(*np.exp(1j * np.array(angles)), a, f)[0]
                  for angles in ([0.3, 1.1, 2.0, -0.4], [0.31, 0.7, 1.9, 2.6])
                  for a in "+-" for f in "+-"]
        off_torus = 1.001 * d6()
        zero = d6().copy()
        zero[2, 3] = 0
        nan = d61().copy()
        nan[1, 1] = np.nan
        inf = d61().copy()
        inf[0, 5] = np.inf
        near = d6() * np.exp(1e-11j * rng.random((6, 6)))
        stack = np.array(points + [d6(), d61(), off_torus, zero, nan, inf, near,
                                  np.ones((6, 6))])
        per = [is_hadamard(M) for M in stack]
        assert per == [True] * 4 + [False] * 4 + [True, True, False, False, False,
                                                  False, True, False]
        decided = is_hadamard(stack)
        assert decided.dtype == bool and decided.tolist() == per
        assert is_hadamard(stack.reshape(2, 8, 6, 6)).tolist() == [per[:8], per[8:]]
        assert is_hadamard(stack[:0]).shape == (0,)

    @pytest.mark.parametrize("bad", [
        np.ones(6), np.ones((2, 3)), np.ones((4, 2, 3)), 1.0, [[]], np.ones((2, 0, 3)),
        np.ones((0, 0)), np.ones((3, 0, 0)),
    ])
    def test_is_hadamard_never_raises_on_wrong_shapes(self, bad):
        assert is_hadamard(bad) is False

    def test_two_d_calls_keep_their_exceptions_and_types(self):
        with pytest.raises(InvalidParameter):
            circulant([1, 0, 2])
        with pytest.raises(InvalidDimensions):
            circulant(5.0)
        with pytest.raises(InvalidDimensions):
            assemble_sylvester(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(InvalidParameter):
            assemble_sylvester(np.eye(2) + 1, np.eye(2))
        with pytest.raises(InvalidParameter):
            orthogonality_residual(np.eye(3))
        with pytest.raises(InvalidParameter):
            unimodularity_deviation(np.full((2, 2), np.nan))
        with pytest.raises(InvalidDimensions):
            as_matrix(np.ones((2, 3, 3)))
        with pytest.raises(InvalidDimensions):
            as_stack(np.ones(3))
        assert type(orthogonality_residual(d6())) is float
        assert type(unimodularity_deviation(d6())) is float
        assert is_hadamard(d6()) is True
        assert is_hadamard(np.eye(6)) is False

    def test_stack_with_a_zero_entry_rejected_by_residual(self):
        stack = np.array([d6(), d6()])
        stack[1, 0, 0] = 0
        with pytest.raises(InvalidParameter):
            orthogonality_residual(stack)


class TestDephase:
    def test_first_row_and_column_exact_ones(self, rng):
        M = circulant(random_phases(rng, 4))
        D = dephase(M)
        assert np.array_equal(D[0, :], np.ones(4))
        assert np.array_equal(D[:, 0], np.ones(4))

    def test_idempotent(self, rng):
        M = circulant(random_phases(rng, 5))
        D = dephase(M)
        assert np.array_equal(dephase(D), D)

    def test_preserves_hadamard(self):
        from hadamard_forge import bf, bf_quartic_roots

        M = bf(bf_quartic_roots()[0])
        assert is_hadamard(M)
        assert is_hadamard(dephase(M))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.builds(complex, PARTS, PARTS).filter(lambda z: abs(z) >= 1e-3),
        min_size=n * n, max_size=n * n)))
    def test_idempotent_bit_for_bit(self, entries):
        n = int(round(len(entries) ** 0.5))
        D = dephase(np.array(entries, dtype=complex).reshape(n, n))
        assert dephase(D).tobytes() == D.tobytes()

    def test_d6_already_dephased(self):
        assert np.array_equal(dephase(d6()), d6())

    def test_zero_first_column_rejected(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InvalidParameter):
            dephase(M)


class TestSelfAdjointness:
    def test_d6_selfadjoint_d61_not(self):
        assert np.array_equal(d6(), d6().conj().T)
        assert not np.array_equal(d61(), d61().conj().T)

    def test_entries_unimodular(self):
        assert unimodularity_deviation(d6()) == 0.0
        assert unimodularity_deviation(d61()) == 0.0


def m6_hit(rng):
    """The first Hadamard branch point of m6 at torus draws of (b, c, d, e)."""
    while True:
        b, c, d, e = random_phases(rng, 4)
        for a_branch in "+-":
            for f_branch in "+-":
                M = m6_from_branches(b, c, d, e, a_branch, f_branch)[0]
                if is_hadamard(M):
                    return M


class TestEquivalenceCertificate:
    def test_identity_certificate(self):
        H = d6()
        n = H.shape[0]
        ones = np.ones(n)
        ident = list(range(n))
        assert check_equivalence_certificate(H, H, ones, ones, ident, ident)

    def test_row_swap_by_construction(self):
        H = d6()
        perm = [0, 1, 3, 2, 4, 5]
        swapped = H[perm, :]
        ones = np.ones(6)
        ident = list(range(6))
        assert check_equivalence_certificate(swapped, H, ones, ones, perm, ident)

    def test_column_convention(self):
        H = d61()
        perm = [1, 0, 2, 3, 5, 4]
        swapped = H[:, perm]
        ones = np.ones(6)
        ident = list(range(6))
        assert check_equivalence_certificate(swapped, H, ones, ones, ident, perm)

    def test_non_unimodular_diagonal_rejected(self):
        H = d6()
        ident = list(range(6))
        with pytest.raises(InvalidParameter):
            check_equivalence_certificate(
                H, H, 2.0 * np.ones(6), np.ones(6), ident, ident
            )

    def test_d6_equivalent_to_d61_by_search(self):
        cert = search_equivalence_certificate(d6(), d61())
        assert cert is not None
        D1, P1, P2, D2 = cert
        assert check_equivalence_certificate(d6(), d61(), D1, D2, P1, P2)

    def test_search_finds_nothing_for_different_order_structure(self):
        from hadamard_forge import h4a

        # h4a(1) and h4a(i) have different dephased cores, no certificate
        cert = search_equivalence_certificate(h4a(1.0), h4a(1j))
        assert cert is None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([4, 6]), data=st.data())
    def test_random_certificate_checks_and_is_found(self, seed, order, data):
        # H1 = D1 H[p1][:, p2] D2 for a random h4 point or m6 hit H
        rng = np.random.default_rng(seed)
        H = h4(*random_phases(rng, 3)) if order == 4 else m6_hit(rng)
        D1, D2 = random_phases(rng, order), random_phases(rng, order)
        p1 = data.draw(st.permutations(range(order)))
        p2 = data.draw(st.permutations(range(order)))
        H1 = D1[:, None] * H[p1][:, p2] * D2
        assert check_equivalence_certificate(H1, H, D1, D2, p1, p2)
        cert = search_equivalence_certificate(H1, H)
        assert cert is not None
        E1, q1, q2, E2 = cert
        assert check_equivalence_certificate(H1, H, E1, E2, q1, q2)

    def test_permutation_matrix_rejects_bad_input(self):
        with pytest.raises(InvalidParameter):
            permutation_matrix([0, 0, 1])


def default_rng_rows(seed, count, k):
    """The rows torus_draws stands for: one Generator per row."""
    rows = [np.exp(2j * np.pi * np.random.default_rng([seed, i]).random(k))
            for i in range(count)]
    return np.array(rows, dtype=complex).reshape(count, k)


class TestTorusDraws:
    # seeds up to 2**130 have one to five 32-bit words; from four words on,
    # i is mixed into the pool after it is full
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**130), count=st.integers(0, 40), k=st.integers(1, 7))
    @example(seed=0, count=3, k=4)
    @example(seed=2**32 - 1, count=3, k=4)
    @example(seed=2**32, count=3, k=4)
    @example(seed=2**96, count=3, k=4)
    @example(seed=5, count=0, k=4)
    @example(seed=2**64 + 1, count=3, k=4)
    def test_rows_equal_default_rng_bit_for_bit(self, seed, count, k):
        got = torus_draws(seed, count, k)
        assert got.shape == (count, k)
        assert np.array_equal(got.view(np.uint64), default_rng_rows(seed, count, k).view(np.uint64))

    def test_negative_seed_raises(self):
        with pytest.raises(InvalidParameter, match="non-negative"):
            torus_draws(-1, 3, 4)
