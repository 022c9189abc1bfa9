import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_forge import (
    DEFAULT_TOL,
    DegenerateQuadratic,
    InvalidParameter,
    DegenerateCubic,
    NumericSolveReport,
    SingularBranch,
    c4_branches,
    c4_residual,
    c6_reduced_residual,
    c6_residuals,
    c6_solve_cubic,
    c6_solve_f,
    c6_solve_quadratic,
    c8_numeric_solve,
    c8_reduced_residual,
    c8_residuals,
    c8_solve_h,
    hu_residual,
    is_hadamard,
    m6,
    m8,
    orthogonality_residual,
)
import hadamard_forge.constraints as constraints
from hadamard_forge.constraints import (
    _cyclic_ratio_residuals,
    _cyclic_ratio_residuals_and_jacobian,
    _quadratic_in_last,
    _reduced_coefficients,
)
from hadamard_forge.core import torus_draws
from conftest import random_phases

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def c6_expanded(a, b, c, d, e, f):
    """The two order-6 constraints as expanded monomials, the oracle."""
    first = (
        a * b * c * d**2 * e
        + a**2 * b * d * e * f
        + b**2 * c * d * e * f
        + a * c**2 * d * e * f
        + a * b * c * e**2 * f
        + a * b * c * d * f**2
    )
    second = (
        a * b * c * d * e**2
        + a * b * c * d**2 * f
        + a * b**2 * d * e * f
        + a**2 * c * d * e * f
        + b * c**2 * d * e * f
        + a * b * c * e * f**2
    )
    return first, second


def c6_f_coefficients(a, b, c, d, e):
    """(lead, lin, const) of the first order-6 constraint in f, the oracle."""
    lead = a * b * c * d
    lin = e * (a**2 * b * d + b**2 * c * d + a * c**2 * d + a * b * c * e)
    const = a * b * c * d**2 * e
    return lead, lin, const


def c6_reduced_expanded(a, b, c, d, e):
    """The order-6 reduced condition as expanded monomials, the oracle."""
    return (
        -a * b * c * d**3
        - a * b**2 * d**2 * e
        - a**2 * c * d**2 * e
        - b * c**2 * d**2 * e
        + a**2 * b * d * e**2
        + b**2 * c * d * e**2
        + a * c**2 * d * e**2
        + a * b * c * e**3
    )


# the cyclic partners (p, q) of each quadratic unknown of the reduced condition
C6_QUAD_PARTNERS = {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}


def c6_reduced_coefficients(unknown, **g):
    """Ascending coefficients of the order-6 reduced condition, the oracle."""
    if unknown in C6_QUAD_PARTNERS:
        p, q = (g[x] for x in C6_QUAD_PARTNERS[unknown])
        d, e = g["d"], g["e"]
        lead = d * e * (p * e - q * d)
        lin = -(q * d + p * e) * (p * d**2 - q * e**2)
        const = p * q * d * e * (p * e - q * d)
        return np.array([const, lin, lead])
    a, b, c = g["a"], g["b"], g["c"]
    sym_sq = a * b**2 + a**2 * c + b * c**2
    sym_lin = a**2 * b + b**2 * c + a * c**2
    if unknown == "d":
        e = g["e"]
        return np.array([a * b * c * e**3, e**2 * sym_lin, -e * sym_sq, -a * b * c])
    d = g["d"]
    return np.array([-a * b * c * d**3, -(d**2) * sym_sq, d * sym_lin, a * b * c])


def c8_expanded(a, b, c, d, e, f, g, h):
    """The three order-8 constraints as expanded monomials, the oracle."""
    r1 = (
        a * b * c * d * e**2 * f * g
        + a**2 * b * c * e * f * g * h
        + b**2 * c * d * e * f * g * h
        + a * c**2 * d * e * f * g * h
        + a * b * d**2 * e * f * g * h
        + a * b * c * d * f**2 * g * h
        + a * b * c * d * e * g**2 * h
        + a * b * c * d * e * f * h**2
    )
    r2 = (
        a * b * c * d * e * f**2 * g
        + a * b * c * d * e**2 * f * h
        + a * b**2 * c * e * f * g * h
        + a**2 * b * d * e * f * g * h
        + b * c**2 * d * e * f * g * h
        + a * c * d**2 * e * f * g * h
        + a * b * c * d * f * g**2 * h
        + a * b * c * d * e * g * h**2
    )
    r3 = (
        a * b * c * d * e * f * g**2
        + a * b * c * d * e * f**2 * h
        + a * b * c * d * e**2 * g * h
        + a * b * c**2 * e * f * g * h
        + a * b**2 * d * e * f * g * h
        + a**2 * c * d * e * f * g * h
        + b * c * d**2 * e * f * g * h
        + a * b * c * d * f * g * h**2
    )
    return r1, r2, r3


def c8_h_coefficients(a, b, c, d, e, f, g):
    """(lead, lin, const) of the first order-8 constraint in h, the oracle."""
    lead = a * b * c * d * e * f
    lin = (
        e * f * g * (a**2 * b * c + b**2 * c * d + a * c**2 * d + a * b * d**2)
        + a * b * c * d * f**2 * g
        + a * b * c * d * e * g**2
    )
    const = a * b * c * d * e**2 * f * g
    return lead, lin, const


def c8_reduced_expanded(a, b, c, d, e, f, g):
    """The order-8 reduced condition as expanded monomials, the oracle."""
    t1 = (
        a**2 * b * c * e * f
        + b**2 * c * d * e * f
        + a * c**2 * d * e * f
        + a * b * d**2 * e * f
        + a * b * c * d * f**2
        + a * b * c * d * e * g
    ) * g**2
    t2 = (
        a * b * c * d * f**2
        + a * b * c * d * e * g
        + a * b * c**2 * f * g
        + a * b**2 * d * f * g
        + a**2 * c * d * f * g
        + b * c * d**2 * f * g
    ) * e**2
    return t1 - t2


# order -> (public residuals, expanded residuals, coefficients of the first
# constraint in the last parameter, public reduced condition, its expansion)
ORACLES = {
    6: (c6_residuals, c6_expanded, c6_f_coefficients,
        c6_reduced_residual, c6_reduced_expanded),
    8: (c8_residuals, c8_expanded, c8_h_coefficients,
        c8_reduced_residual, c8_reduced_expanded),
}


def off_torus_points(rng, order, count=50):
    # where the cyclic-ratio form divides by the parameters
    return random_phases(rng, order) * np.exp(rng.normal(size=(count, order)))


# (f, g, h) of the eight distinct solutions that the scalar search with
# finite-difference Jacobians found on the fixing (1, i, -1, -i, e^{0.3i})
# with seed 1, in restart order
SOLVE8_SEED1_FGH = [
    (0.050703251555060176 - 0.16390982827467002j,
     0.1639098282747905 + 0.05070325155471248j,
     -0.0507032515548227 + 0.16390982827509404j),
    (-0.2955202066615287 + 0.9553364891253521j,
     -0.9553364891246018 - 0.2955202066614808j,
     -0.050703251552564034 + 0.16390982827395312j),
    (-0.9919363768067812 + 0.12673683114007925j,
     0.027482290660850027 + 0.21509677636129912j,
     -0.06408217834202756 + 0.2071602614401005j),
    (-0.2955202066613396 + 0.955336489125606j,
     0.1639098282741603 + 0.050703251552486124j,
     0.29552020666133955 - 0.9553364891256059j),
    (0.05070325155248641 - 0.16390982827416023j,
     -0.9553364891256096 - 0.2955202066613433j,
     0.29552020666134027 - 0.9553364891256083j),
    (0.747119421691232 + 0.664689829653323j,
     0.14413488907638738 - 0.16200936159970694j,
     -0.0640821783364953 + 0.2071602614274073j),
    (0.06408217834203019 - 0.20716026144010186j,
     0.14413488908564287 - 0.16200936160994073j,
     -0.7471194216979331 - 0.6646898297113824j),
    (0.06408217835494796 - 0.20716026143807206j,
     0.027482290648711768 + 0.2150967763644837j,
     0.9919363768350369 - 0.1267368311117235j),
]


class TestOrder4:
    def test_all_ones_vanishes(self):
        assert c4_residual(1, 1, 1, 1) == 0

    def test_known_value(self):
        # (b*c + a*d)(a*c - b*d) at (1, 1, i, 1) = (i + 1)(i - 1) = -2
        assert abs(c4_residual(1, 1, 1j, 1) - (-2)) < 1e-15

    def test_branch_values_for_a(self):
        branches = c4_branches("a", b=1, c=1j, d=-1j)
        values = sorted((value.real, value.imag) for value in branches)
        assert np.allclose(values, [(-1.0, 0.0), (1.0, 0.0)])

    def test_each_branch_zeroes_the_constraint(self, rng):
        for unknown in "abcd":
            names = [n for n in "abcd" if n != unknown]
            given = dict(zip(names, random_phases(rng, 3)))
            for value in c4_branches(unknown, **given):
                params = dict(given)
                params[unknown] = value
                assert abs(c4_residual(**params)) < 1e-12

    def test_torus_closed(self, rng):
        given = dict(zip("abc", random_phases(rng, 3)))
        for value in c4_branches("d", **given):
            assert abs(abs(value) - 1.0) < 1e-12

    def test_zero_input_rejected(self):
        with pytest.raises(InvalidParameter):
            c4_branches("a", b=0, c=1, d=1)

    def test_parameter_arrays_solve_every_sample(self, rng):
        for unknown in "abcd":
            names = [n for n in "abcd" if n != unknown]
            given = dict(zip(names, random_phases(rng, 3 * 6).reshape(3, 6)))
            given[names[1]][2] = 0
            for sheet, value in enumerate(c4_branches(unknown, **given)):
                assert np.isnan(value[2])
                for k in (0, 1, 3, 4, 5):
                    alone = c4_branches(unknown, **{n: v[k] for n, v in given.items()})[sheet]
                    assert abs(value[k] - alone) <= 1e-15


class TestOrder6Residuals:
    def test_all_ones(self):
        res = c6_residuals(1, 1, 1, 1, 1, 1)
        assert res.shape == (2,)
        assert np.allclose(res, (6, 6))

    def test_unit_values_with_solved_f(self):
        # f**2 + 4f + 1 = 0 at unit values; f = -2 + sqrt(3)
        f = -2 + SQ3
        res = c6_residuals(1, 1, 1, 1, 1, f)
        assert abs(res[0]) < 1e-12

    def test_reduced_all_ones(self):
        assert abs(c6_reduced_residual(1, 1, 1, 1, 1)) < 1e-15

    def test_reduced_d_equals_e(self, rng):
        a = b = c = 1.0
        d = complex(random_phases(rng, 1)[0])
        assert abs(c6_reduced_residual(a, b, c, d, d)) < 1e-12

    def test_hu_factorised_roots(self, rng):
        c, d, e = random_phases(rng, 3)
        assert abs(hu_residual(-c * d / e, c, d, e)) < 1e-12
        assert abs(hu_residual(c * e**2 / d**2, c, d, e)) < 1e-12
        assert abs(hu_residual(1, 1, 1, 1)) < 1e-15


class TestOrder6SolveF:
    def test_unit_point(self):
        branches = c6_solve_f(1, 1, 1, 1, 1)
        vals = sorted(value.real for value in branches)
        assert np.allclose(vals, [-2 - SQ3, -2 + SQ3])
        assert branches.shape == (2,)

    def test_back_substitution(self, rng):
        for _ in range(10):
            a, b, c, d, e = random_phases(rng, 5)
            for value in c6_solve_f(a, b, c, d, e):
                res = c6_residuals(a, b, c, d, e, value)
                assert abs(res[0]) < 1e-12

    def test_vieta_product(self, rng):
        # product of roots = constant/lead = d*e
        a, b, c, d, e = random_phases(rng, 5)
        fp, fm = c6_solve_f(a, b, c, d, e)
        assert abs(fp * fm - d * e) < 1e-12

    def test_mixed_point_residuals(self):
        a, b, c, d, e = 1, 1, 1j, np.exp(1j * np.pi / 4), -1
        for value in c6_solve_f(a, b, c, d, e):
            assert abs(c6_residuals(a, b, c, d, e, value)[0]) < 1e-12

    def test_vieta_product_for_a_small_a(self, rng):
        # |a| = 1e-5 puts the roots 1e5 apart in modulus; the small root
        # must not come from a difference that cancels
        for _ in range(20):
            a, b, c, d, e = random_phases(rng, 5)
            fp, fm = c6_solve_f(1e-5 * a, b, c, d, e)
            assert abs(fp * fm - d * e) < 1e-12

    def test_stack_gives_nan_where_a_scalar_call_raises(self, rng):
        a, b, c, d, e = random_phases(rng, (5, 4))
        a[1], a[2], a[3] = 0, np.nan, np.inf
        scalar = c6_solve_f(a[0], b[0], c[0], d[0], e[0])
        for value, one in zip(c6_solve_f(a, b, c, d, e), scalar, strict=True):
            assert abs(value[0] - one) <= 1e-12 * abs(one)
            assert np.isnan(value[1:]).all()
        with pytest.raises(InvalidParameter):
            c6_solve_f(a[1], b[1], c[1], d[1], e[1])


class TestOrder6Quadratic:
    def test_back_substitution_all_unknowns(self, rng):
        for unknown in "abc":
            names = sorted(set("abcde") - {unknown})
            for _ in range(10):
                given = dict(zip(names, random_phases(rng, 4)))
                for value in c6_solve_quadratic(unknown, **given):
                    params = dict(given)
                    params[unknown] = value
                    assert abs(c6_reduced_residual(**params)) < 1e-10

    def test_vieta_product(self, rng):
        # constant/lead = b*c for unknown a
        b, c, d, e = random_phases(rng, 4)
        ap, am = c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
        assert abs(ap * am - b * c) < 1e-10

    def test_matches_direct_quadratic_roots(self, rng):
        # independent route: numpy companion roots of the same quadratic
        b, c, d, e = random_phases(rng, 4)
        lead = d * e * (b * e - c * d)
        lin = -(c * d + b * e) * (b * d**2 - c * e**2)
        const = b * c * d * e * (b * e - c * d)
        direct = sorted(np.roots([lead, lin, const]), key=lambda z: (z.real, z.imag))
        mine = sorted(
            c6_solve_quadratic("a", b=b, c=c, d=d, e=e),
            key=lambda z: (z.real, z.imag),
        )
        assert np.allclose(direct, mine)

    def test_singular_when_partners_collide(self):
        # p*e = q*d with partners (b, c) of unknown a: b*e = c*d
        with pytest.raises(SingularBranch):
            c6_solve_quadratic("a", b=1, c=1, d=1, e=1)

    def test_vieta_product_near_the_singular_surface(self, rng):
        # |b*e - c*d| = 1e-6: the roots lie 1e12 apart in modulus
        for _ in range(20):
            c, d, e = random_phases(rng, 3)
            b = c * d / e * np.exp(1e-6j)
            ap, am = c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
            assert abs(ap * am - b * c) < 1e-7

    def test_stack_gives_nan_where_a_scalar_call_raises(self, rng):
        b, c, d, e = random_phases(rng, (4, 5))
        b[1] = c[1] * d[1] / e[1]  # singular: b*e = c*d
        c[2], d[3], e[4] = 0, np.nan, np.inf
        scalar = c6_solve_quadratic("a", b=b[0], c=c[0], d=d[0], e=e[0])
        for value, one in zip(c6_solve_quadratic("a", b=b, c=c, d=d, e=e), scalar, strict=True):
            assert abs(value[0] - one) <= 1e-12 * abs(one)
            assert np.isnan(value[1:]).all()
        with pytest.raises(SingularBranch):
            c6_solve_quadratic("a", b=b[1], c=c[1], d=d[1], e=e[1])

    def test_specialised_branch_is_unimodular(self, rng):
        # on the surface b = -c*d/e the two a-roots satisfy a**2 = c**2*d/e
        c, d, e = random_phases(rng, 3)
        b = -c * d / e
        for value in c6_solve_quadratic("a", b=b, c=c, d=d, e=e):
            assert abs(abs(value) - 1.0) < 1e-10
            assert abs(value**2 - c * c * d / e) < 1e-10


class TestOrder6Cubic:
    def test_three_roots_satisfy_reduced(self, rng):
        for unknown in "de":
            names = sorted(set("abcde") - {unknown})
            given = dict(zip(names, random_phases(rng, 4)))
            branches = c6_solve_cubic(unknown, **given)
            assert branches.shape == (3,)
            for value in branches:
                params = dict(given)
                params[unknown] = value
                assert abs(c6_reduced_residual(**params)) < 1e-9

    def test_landmark_cubic_in_e(self):
        w = np.exp(2j * np.pi / 3)
        branches = c6_solve_cubic("e", a=1, b=w, c=w * w, d=1)
        # w itself solves e^3 + 3w e^2 - 3w^2 e - 1 = 0
        assert min(abs(value - w) for value in branches) < 1e-10

    def test_scaling_a_b_c_leaves_the_roots(self):
        # every coefficient scales as s**3, so the leading one is judged
        # against the others, not on an absolute scale
        unscaled = c6_solve_cubic("d", a=1, b=1j, c=-1, e=1)
        for s in (1e-8, 1e-4, 1e6):
            scaled = c6_solve_cubic("d", a=s, b=s * 1j, c=-s, e=1)
            assert np.allclose(scaled, unscaled, rtol=0, atol=1e-12)

    def test_leading_coefficient_at_rounding_level_is_degenerate(self):
        # at e = 1e5 the largest coefficient is 1e15 and the leading one,
        # -a*b*c of modulus 1, is lost to its rounding
        with pytest.raises(DegenerateCubic):
            c6_solve_cubic("d", a=1, b=1j, c=-1, e=1e5)


class TestPairPathConsistency:
    def test_on_locus_both_f_branches_satisfy_second_constraint(self, rng):
        for _ in range(50):
            b, c, d, e = random_phases(rng, 4)
            try:
                a_branches = c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
            except SingularBranch:
                continue
            for a in a_branches:
                for f in c6_solve_f(a, b, c, d, e):
                    res = c6_residuals(a, b, c, d, e, f)
                    scale = sum(abs(v) for v in (a, b, c, d, e)) ** 6
                    assert abs(res[1]) < 1e-9 * scale

    def test_exchanged_roles_give_same_locus(self, rng):
        # solve the second constraint for f instead, then check the first
        for _ in range(20):
            b, c, d, e = random_phases(rng, 4)
            try:
                a_branches = c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
            except SingularBranch:
                continue
            for a in a_branches:
                lead = a * b * c * e
                lin = d * (a * b * c * d + a * b**2 * e + a**2 * c * e + b * c**2 * e)
                const = a * b * c * d * e**2
                for f in np.roots([lead, lin, const]):
                    x = np.array([a, b, c, d, e, f])
                    res = c6_residuals(*x)
                    # |a| and |f| reach ~100 near the singular surface, so the
                    # bound scales with the constraint's own terms P*x_j/x_{j+2}
                    scale = abs(np.prod(x)) * np.sum(np.abs(x / x[[2, 0, 1, 5, 3, 4]]))
                    assert abs(res[0]) < 1e-9 * scale

    def test_generic_points_violate_both(self, rng):
        # off the reduced locus neither f-branch kills the second constraint
        for _ in range(50):
            a, b, c, d, e = random_phases(rng, 5)
            reduced = abs(c6_reduced_residual(a, b, c, d, e))
            if reduced < 1e-2:
                continue
            second = [
                abs(c6_residuals(a, b, c, d, e, value)[1])
                for value in c6_solve_f(a, b, c, d, e)
            ]
            assert min(second) > 1e-8


class TestReducedCoefficients:
    def given(self, unknown, values):
        return dict(zip(sorted(set("abcde") - {unknown}), values))

    def test_match_expanded_off_the_torus(self, rng):
        # relative to the largest coefficient: a coefficient that is small
        # through cancellation carries the rounding of the large ones
        for unknown in "abcde":
            for p in off_torus_points(rng, 4):
                given = self.given(unknown, p)
                want = c6_reduced_coefficients(unknown, **given)
                got = _reduced_coefficients(unknown, **given)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_quadratic_branch_labels_match_expanded_roots(self, rng):
        for unknown in "abc":
            for _ in range(50):
                given = self.given(unknown, random_phases(rng, 4))
                const, lin, lead = c6_reduced_coefficients(unknown, **given)
                root = np.sqrt(lin * lin - 4.0 * lead * const)
                want = [(-lin + root) / (2.0 * lead), (-lin - root) / (2.0 * lead)]
                for value, expected in zip(c6_solve_quadratic(unknown, **given), want,
                                           strict=True):
                    assert abs(value - expected) < 1e-9

    def test_cubic_branch_labels_match_expanded_roots(self, rng):
        for unknown in "de":
            for _ in range(50):
                given = self.given(unknown, random_phases(rng, 4))
                coeffs = c6_reduced_coefficients(unknown, **given)
                want = sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag))
                got = c6_solve_cubic(unknown, **given)
                assert got.shape == (3,)
                assert np.allclose(got, want, rtol=0, atol=1e-8)

    def test_singular_threshold_on_the_torus(self, rng):
        # p*e - q*d of modulus 1e-11 is singular, 1e-9 is not
        for _ in range(10):
            b, c, d = random_phases(rng, 3)
            for eps, singular in ((1e-11, True), (1e-9, False)):
                e = c * d / b * np.exp(1j * eps)
                if singular:
                    with pytest.raises(SingularBranch):
                        c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
                else:
                    assert len(c6_solve_quadratic("a", b=b, c=c, d=d, e=e)) == 2


class TestOrder8:
    def test_all_ones(self):
        res = c8_residuals(*([1.0] * 8))
        assert res.shape == (3,)
        assert np.allclose(res, (8, 8, 8))

    def test_solve_h_unit_point(self):
        branches = c8_solve_h(1, 1, 1, 1, 1, 1, 1)
        vals = sorted(value.real for value in branches)
        assert np.allclose(vals, [-3 - 2 * SQ2, -3 + 2 * SQ2])

    def test_back_substitution(self, rng):
        for _ in range(10):
            p = random_phases(rng, 7)
            for value in c8_solve_h(*p):
                res = c8_residuals(*p, value)
                assert abs(res[0]) < 1e-10

    def test_reduced_all_ones(self):
        assert abs(c8_reduced_residual(*([1.0] * 7))) < 1e-15

    def test_vieta_product_of_h_branches(self, rng):
        # constant/lead collapses to e*g, so the branch product is a phase
        # on the torus
        a, b, c, d, e, f, g = random_phases(rng, 7)
        hp, hm = c8_solve_h(a, b, c, d, e, f, g)
        assert abs(hp * hm - e * g) < 1e-10

    def test_reduced_matches_pair_substitution_modulus(self, rng):
        # |third(h+) * third(h-)| equals |reduced|**2 on the torus
        for _ in range(20):
            p = random_phases(rng, 7)
            prod = np.prod(
                [c8_residuals(*p, value)[2] for value in c8_solve_h(*p)]
            )
            reduced = c8_reduced_residual(*p)
            assert abs(abs(prod) - abs(reduced) ** 2) < 1e-8 * max(1.0, abs(prod))

    def test_reduced_homogeneous_degree8(self, rng):
        p = random_phases(rng, 7)
        lam = 1.37
        scaled = c8_reduced_residual(*(lam * np.asarray(p)))
        assert abs(scaled - lam**8 * c8_reduced_residual(*p)) < 1e-9

    def test_degenerate_quadratic_unreachable_inputs_rejected(self):
        with pytest.raises(InvalidParameter):
            c8_solve_h(0, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("order", [6, 8])
class TestCyclicRatioForm:
    def test_residuals_match_expanded_monomials(self, rng, order):
        residuals, expanded = ORACLES[order][:2]
        for p in off_torus_points(rng, order):
            res = residuals(*p)
            assert res.shape == (order // 2 - 1,)
            for got, want in zip(res, expanded(*p), strict=True):
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_exact_jacobian_matches_central_differences(self, rng, order):
        expanded = ORACLES[order][1]
        x = random_phases(rng, order) * np.exp(0.5 * rng.normal(size=(6, order)))
        values, jac = _cyclic_ratio_residuals_and_jacobian(x)
        assert np.allclose(values, np.transpose(expanded(*x.T)), rtol=1e-12)
        for j, step in itertools.product(range(order), (1e-6, 1e-6j)):
            dx = np.zeros(order, dtype=complex)
            dx[j] = step
            ahead, _ = _cyclic_ratio_residuals_and_jacobian(x + dx)
            behind, _ = _cyclic_ratio_residuals_and_jacobian(x - dx)
            central = (ahead - behind) / (2 * step)
            assert np.allclose(jac[..., j], central, rtol=1e-7, atol=1e-9)

    def test_last_parameter_coefficients_match_expanded(self, rng, order):
        # coefficients, not roots: roots near a double root move by far
        # more than the rounding of their coefficients
        coefficients = ORACLES[order][2]
        for p in off_torus_points(rng, order - 1):
            coeffs = _quadratic_in_last(p, order // 2 - 1)
            for got, want in zip(coeffs, coefficients(*p), strict=True):
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_reduced_matches_expanded_monomials(self, rng, order):
        reduced, expanded = ORACLES[order][3:]
        for p in off_torus_points(rng, order - 1):
            want = expanded(*p)
            assert abs(reduced(*p) - want) <= 1e-12 * abs(want)


def cyclic_ratio_by_definition(x, k):
    """P*S_s for s = k - 1, ..., 1 as a sum over both blocks, one term at a
    time, and each value's scale, the sum of the terms' moduli times |P|."""
    values, scales = [], []
    for s in range(k - 1, 0, -1):
        terms = [x[block + j] / x[block + (j + s) % k] for block in (0, k) for j in range(k)]
        values.append(np.prod(x) * sum(terms))
        scales.append(abs(np.prod(x)) * sum(map(abs, terms)))
    return np.array(values), np.array(scales)


@pytest.mark.parametrize("k", [2, 5, 6])
class TestCyclicRatioKernelBlockSizes:
    """The kernels for block sizes no family uses, against the definition."""

    def test_residuals_match_the_definition(self, rng, k):
        x = off_torus_points(rng, 2 * k, count=20)
        values, jac = _cyclic_ratio_residuals_and_jacobian(x)
        assert values.shape == (20, k - 1) and jac.shape == (20, k - 1, 2 * k)
        assert _cyclic_ratio_residuals(x).tobytes() == values.tobytes()
        for point, got in zip(x, values):
            want, scale = cyclic_ratio_by_definition(point, k)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_exact_jacobian_matches_central_differences(self, rng, k):
        x = random_phases(rng, 2 * k) * np.exp(0.5 * rng.normal(size=(6, 2 * k)))
        _, jac = _cyclic_ratio_residuals_and_jacobian(x)
        for j, step in itertools.product(range(2 * k), (1e-6, 1e-6j)):
            dx = np.zeros(2 * k, dtype=complex)
            dx[j] = step
            ahead, _ = _cyclic_ratio_residuals_and_jacobian(x + dx)
            behind, _ = _cyclic_ratio_residuals_and_jacobian(x - dx)
            central = (ahead - behind) / (2 * step)
            assert np.allclose(jac[..., j], central, rtol=1e-7, atol=1e-9)

    def test_last_parameter_quadratic_matches_the_definition(self, rng, k):
        for point in off_torus_points(rng, 2 * k, count=20):
            want, scale = cyclic_ratio_by_definition(point, k)
            u = point[-1]
            for i, s in enumerate(range(k - 1, 0, -1)):
                lead, lin, const = _quadratic_in_last(point[:-1], s)
                assert abs(lead * u * u + lin * u + const - want[i]) <= 1e-13 * scale[i]


def sequential_search(fixed, seed, restarts):
    """The order-8 search with a line search that probes one rung at a time.

    The reference for c8_numeric_solve: each restart tries lambda = 1, 1/2,
    ... > 1e-4 in turn and steps by the first that keeps clear of zero and
    lowers its residual.
    """
    free = [i for i, n in enumerate("abcdefgh") if n not in fixed]
    point = np.array([complex(fixed.get(n, 1.0)) for n in "abcdefgh"])

    def evaluate(x):
        full = np.tile(point, (len(x), 1))
        full[:, free] = x
        r, jac = _cyclic_ratio_residuals_and_jacobian(full)
        return r, jac[..., free]

    x = torus_draws(seed, restarts, len(free))
    ok = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for _ in range(200):
        if not active.size:
            break
        r, jac = evaluate(x[active])
        size = np.abs(r).max(axis=1)
        done = size < DEFAULT_TOL.tau_entry * (8.0 * np.prod(np.abs(x[active]), axis=1) + 1e-300)
        ok[active[done]] = True
        keep = ~done & np.isfinite(jac).all(axis=(1, 2))
        active, r, jac, size = active[keep], r[keep], jac[keep], size[keep]
        # looked up at call time, so a test that records the helper's inputs
        # sees both searches
        delta = constraints._newton_steps(jac, r)
        step = np.zeros(active.size)
        pending = np.arange(active.size)
        lam = 1.0
        while lam > 1e-4 and pending.size:
            cand = x[active[pending]] + lam * delta[pending]
            lower = np.abs(evaluate(cand)[0]).max(axis=1) < size[pending]
            lower &= np.abs(cand).min(axis=1) > 1e-8
            step[pending[lower]] = lam
            pending = pending[~lower]
            lam /= 2.0
        moved = step > 0
        active, step, delta = active[moved], step[moved], delta[moved]
        x[active] += step[:, None] * delta
        mag = np.abs(x[active])
        active = active[(mag.max(axis=1) <= 1e8) & (mag.min(axis=1) >= 1e-10)]
    degenerate = ok & (np.abs(x).min(axis=1) < 1e-3)
    solutions = []
    for k in np.flatnonzero(ok & ~degenerate):
        full = point.copy()
        full[free] = x[k]
        if not any(np.max(np.abs(full - s)) < 1e-7 for s in solutions):
            solutions.append(full)
    converged = int(ok.sum() - degenerate.sum())
    return NumericSolveReport(np.array(solutions, dtype=complex).reshape(-1, 8), restarts,
                              converged, int(degenerate.sum()), restarts - int(ok.sum()))


def _random_fixings(count):
    rng = np.random.default_rng(8)
    for i in range(count):
        names = [str(n) for n in rng.choice(list("abcdefgh"), 5 + i % 3, replace=False)]
        yield dict(zip(names, random_phases(rng, len(names)))), int(rng.integers(2**31)), 16


SOLVE8_FIXING = dict(zip("abcde", np.exp(1j * np.array([0, np.pi / 2, np.pi, -np.pi / 2, 0.3]))))


class TestOrder8Numeric:
    @pytest.mark.parametrize(
        "fixed, seed, restarts",
        [(SOLVE8_FIXING, seed, 64) for seed in (1, 2, 3)]
        + list(_random_fixings(9))
        + [(SOLVE8_FIXING, seed, 1) for seed in range(4)],
    )
    def test_trajectories_match_the_sequential_line_search(self, monkeypatch, fixed, seed,
                                                             restarts):
        # every Jacobian stack handed to the Newton step, in order, pins the
        # whole path of every restart, not only where it ends
        newton_steps = constraints._newton_steps
        stacks = []

        def recording(jac, r):
            stacks.append(jac.copy())
            return newton_steps(jac, r)

        monkeypatch.setattr(constraints, "_newton_steps", recording)
        report = c8_numeric_solve(fixed, seed=seed, restarts=restarts)
        ours = stacks.copy()
        stacks.clear()
        reference = sequential_search(fixed, seed, restarts)
        for field in ("restarts", "converged", "rejected_degenerate", "no_convergence"):
            assert getattr(report, field) == getattr(reference, field)
        assert report.solutions.shape == reference.solutions.shape
        assert report.solutions.tobytes() == reference.solutions.tobytes()
        assert len(ours) == len(stacks)
        for got, want in zip(ours, stacks):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("unknowns", [3, 2, 1])
    def test_newton_steps_agree_with_the_pseudo_inverse(self, rng, unknowns):
        # well conditioned: a near-identity block plus a small perturbation
        jac = (np.eye(3, unknowns) + 0.1 * rng.normal(size=(50, 3, unknowns))
               + 0.1j * rng.normal(size=(50, 3, unknowns)))
        assert np.linalg.cond(jac).max() < 10
        r = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        want = np.einsum("rkj,rj->rk", np.linalg.pinv(jac), -r)
        got = constraints._newton_steps(jac, r)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=1, keepdims=True))

    def test_square_newton_step_is_the_same_alone_or_in_a_stack(self, rng):
        jac = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
        r = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        stacked = constraints._newton_steps(jac, r)
        for k in (0, 17, 39):
            alone = constraints._newton_steps(jac[k:k + 1], r[k:k + 1])
            assert alone.tobytes() == stacked[k:k + 1].tobytes()

    def test_singular_jacobian_in_a_stack_does_not_raise(self, rng):
        jac = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        r = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        jac[2, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jac, -r[..., None])
        steps = constraints._newton_steps(jac, r)
        assert np.isfinite(steps).all()
        # the other members keep their LU steps, the singular one its
        # least-squares step
        for k in range(5):
            if k != 2:
                alone = constraints._newton_steps(jac[k:k + 1], r[k:k + 1])
                assert alone.tobytes() == steps[k:k + 1].tobytes()
        pinv = np.linalg.pinv(jac[2], rcond=3 * np.finfo(float).eps)
        assert np.allclose(steps[2], pinv @ -r[2], rtol=1e-12, atol=0)

    def test_residuals_alone_equal_the_kernel_values(self, rng):
        x = random_phases(rng, 8 * 5).reshape(5, 8) * np.exp(rng.normal(size=(5, 8)))
        x[0, 3] = 0.0
        for order in (6, 8):
            got = _cyclic_ratio_residuals(x[..., :order])
            want = _cyclic_ratio_residuals_and_jacobian(x[..., :order])[0]
            assert got.tobytes() == want.tobytes()

    def test_real_collapse_point_finds_orthogonal_solutions(self):
        report = c8_numeric_solve(
            dict(zip("abcde", [1.0] * 5)), seed=5, restarts=12
        )
        assert report
        t = -3 + 2 * SQ2
        found_collapse = False
        for x in report.solutions:
            M = m8(*x)
            assert orthogonality_residual(M) < 1e-8
            f, g, h = x[5:]
            if max(abs(f - t), abs(g - t), abs(h - t)) < 1e-6:
                found_collapse = True
        assert found_collapse

    def test_solutions_are_one_array_in_restart_order(self):
        report = c8_numeric_solve(SOLVE8_FIXING, seed=2, restarts=16)
        n = len(report.solutions)
        assert report.solutions.dtype == complex and report.solutions.shape == (n, 8)
        assert bool(report) is (n > 0) and n > 1
        assert report == report
        for j in range(n):
            for k in range(j):
                assert np.max(np.abs(report.solutions[j] - report.solutions[k])) > 1e-7
        # restart k does not depend on the later ones, so the first k
        # restarts find a prefix of the rows, in the same order
        for k in range(16):
            head = c8_numeric_solve(SOLVE8_FIXING, seed=2, restarts=k).solutions
            assert head.tobytes() == report.solutions[:len(head)].tobytes()
        empty = c8_numeric_solve(SOLVE8_FIXING, seed=2, restarts=0)
        assert empty.solutions.shape == (0, 8) and bool(empty) is False

    def test_deterministic_for_fixed_seed(self):
        fixed = dict(zip("abcde", [1.0] * 5))
        r1 = c8_numeric_solve(fixed, seed=11, restarts=6)
        r2 = c8_numeric_solve(fixed, seed=11, restarts=6)
        assert len(r1.solutions) == len(r2.solutions)
        for v1, v2 in zip(r1.solutions, r2.solutions):
            assert np.allclose(v1, v2)

    def test_generic_fixing_yields_orthogonal_points(self, rng):
        # solutions exist off the torus; the assembled matrix is inverse
        # orthogonal even though it is not Hadamard
        fixed = dict(zip("abcde", random_phases(rng, 5)))
        report = c8_numeric_solve(fixed, seed=3, restarts=8)
        assert report
        for x in report.solutions:
            assert orthogonality_residual(m8(*x)) < 1e-8

    def test_infeasible_fixing_reports_diagnostics(self, rng):
        # three equations in a single unknown are overdetermined: no h
        # satisfies all of them for generic torus values
        fixed = dict(zip("abcdefg", random_phases(rng, 7)))
        report = c8_numeric_solve(fixed, seed=3, restarts=8)
        assert not report
        assert report.no_convergence == report.restarts
        assert (
            report.rejected_degenerate + report.no_convergence + report.converged
            == report.restarts
        )

    @pytest.mark.parametrize("seed, counts", [
        (1, (64, 19, 0, 45, len(SOLVE8_SEED1_FGH))),
        (2, (64, 27, 0, 37, 7)),
        (3, (64, 21, 0, 43, 7)),
    ])
    def test_pinned_answers_on_the_solve8_fixing(self, seed, counts):
        # a restart that moves into another basin changes these counts
        fixed = dict(zip("abcde", [1, 1j, -1, -1j, np.exp(0.3j)]))
        report = c8_numeric_solve(fixed, seed=seed)
        assert counts == (report.restarts, report.converged, report.rejected_degenerate,
                          report.no_convergence, len(report.solutions))
        for x in report.solutions:
            assert orthogonality_residual(m8(*x)) < 1e-8
        if seed == 1:
            for x, fgh in zip(report.solutions, SOLVE8_SEED1_FGH, strict=True):
                assert np.max(np.abs(np.subtract(x[5:], fgh))) < 1e-7

    @settings(max_examples=20, deadline=None)
    @given(
        names=st.sampled_from(list(itertools.combinations("abcdefgh", 5))),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 4),
    )
    def test_random_torus_fixings(self, names, angles, seed, restarts):
        fixed = dict(zip(names, np.exp(1j * np.array(angles))))
        report = c8_numeric_solve(fixed, seed=seed, restarts=restarts)
        assert report == c8_numeric_solve(fixed, seed=seed, restarts=restarts)
        assert (report.converged + report.rejected_degenerate
                + report.no_convergence == report.restarts == restarts)
        assert len(report.solutions) <= report.converged
        for x in report.solutions:
            assert orthogonality_residual(m8(*x)) < 1e-8
            for n, v in fixed.items():
                assert x["abcdefgh".index(n)] == v

    def test_rejects_underdetermined_fixing(self):
        with pytest.raises(InvalidParameter):
            c8_numeric_solve({"a": 1.0})

    def test_rejects_fully_fixed_point(self):
        with pytest.raises(InvalidParameter):
            c8_numeric_solve(dict(zip("abcdefgh", [1.0] * 8)))

    def test_rejects_off_torus_fixing(self):
        with pytest.raises(InvalidParameter):
            c8_numeric_solve(dict(zip("abcde", [2.0, 1, 1, 1, 1])))

    @pytest.mark.parametrize("option", [{"restarts": -1}, {"max_iter": -1}])
    def test_rejects_negative_counts(self, option):
        with pytest.raises(InvalidParameter):
            c8_numeric_solve(SOLVE8_FIXING, **option)

    def test_zero_restarts_give_an_empty_report(self):
        assert c8_numeric_solve(SOLVE8_FIXING, restarts=0) == NumericSolveReport(
            np.empty((0, 8), dtype=complex), 0, 0, 0, 0)


class TestBranchSoundnessSweep:
    def test_200_random_inputs(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 200:
            kind = checked % 4
            if kind == 0:
                unknown = "abcd"[checked % 4]
                given = dict(
                    zip((n for n in "abcd" if n != unknown), random_phases(rng, 3))
                )
                for value in c4_branches(unknown, **given):
                    params = dict(given)
                    params[unknown] = value
                    assert abs(c4_residual(**params)) < 1e-9
            elif kind == 1:
                a, b, c, d, e = random_phases(rng, 5)
                for value in c6_solve_f(a, b, c, d, e):
                    assert abs(c6_residuals(a, b, c, d, e, value)[0]) < 1e-9
            elif kind == 2:
                unknown = "abc"[checked % 3]
                names = sorted(set("abcde") - {unknown})
                given = dict(zip(names, random_phases(rng, 4)))
                try:
                    branches = c6_solve_quadratic(unknown, **given)
                except SingularBranch:
                    checked += 1
                    continue
                for value in branches:
                    params = dict(given)
                    params[unknown] = value
                    assert abs(c6_reduced_residual(**params)) < 1e-9
            else:
                p = random_phases(rng, 7)
                for value in c8_solve_h(*p):
                    assert abs(c8_residuals(*p, value)[0]) < 1e-9
            checked += 1
