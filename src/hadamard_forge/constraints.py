"""Orthogonality constraints for the block-circulant families.

The order-4 construction carries a single factorised constraint, order 6
carries two coupled quadratics whose pair-elimination leaves one reduced
condition, and order 8 carries three constraints that only admit a numeric
treatment once two of them have been used up.  Solvers return
SolutionBranch records so callers can keep track of which sheet of the
square or cube root they are on; every branch substitutes back to a
residual at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DegenerateCubic,
    DegenerateQuadratic,
    InvalidParameter,
    ParamVector,
    SingularBranch,
    ToleranceConfig,
)
from .spectra import poly_roots

PARAM_NAMES_4 = "abcd"
PARAM_NAMES_6 = "abcdef"
PARAM_NAMES_8 = "abcdefgh"


@dataclass(frozen=True)
class ConstraintResidual:
    """Values of the orthogonality constraint polynomials at one point."""

    order: int
    values: tuple

    def __post_init__(self):
        expected = {4: 1, 6: 2, 8: 3}.get(self.order)
        if expected is None or len(self.values) != expected:
            raise InvalidParameter(
                f"order {self.order} carries {expected} constraint(s), "
                f"got {len(self.values)}"
            )

    def max_abs(self) -> float:
        return float(max(abs(v) for v in self.values))


@dataclass(frozen=True)
class SolutionBranch:
    """One closed-form or numeric root of a constraint, labelled by sheet."""

    solved_param: str
    branch_label: str
    value: complex
    discriminant: complex = 0j


def _check_nonzero(**params):
    for name, value in params.items():
        v = complex(value)
        if v == 0 or not np.isfinite(v):
            raise InvalidParameter(f"parameter {name!r} must be finite and nonzero")


def _quadratic_branches(name, lead, lin, const, degenerate_exc=DegenerateQuadratic):
    if lead == 0:
        raise degenerate_exc(f"quadratic in {name!r} has vanishing leading coefficient")
    disc = lin * lin - 4.0 * lead * const
    root = np.sqrt(complex(disc))
    return (
        SolutionBranch(name, "+", (-lin + root) / (2.0 * lead), disc),
        SolutionBranch(name, "-", (-lin - root) / (2.0 * lead), disc),
    )


# ----------------------------------------------------------------- order 4

def c4_residual(a, b, c, d) -> complex:
    """The factorised order-4 constraint (b*c + a*d) * (a*c - b*d)."""
    _check_nonzero(a=a, b=b, c=c, d=d)
    return (b * c + a * d) * (a * c - b * d)


def c4_branches(unknown: str, **given) -> list[SolutionBranch]:
    """Both closed-form branches for one unknown of the order-4 constraint.

    The "+" branch kills the factor a*c - b*d, the "-" branch kills
    b*c + a*d; e.g. solving for a gives a = b*d/c and a = -b*c/d.
    """
    if unknown not in PARAM_NAMES_4:
        raise InvalidParameter(f"unknown must be one of {PARAM_NAMES_4!r}")
    names = [n for n in PARAM_NAMES_4 if n != unknown]
    if sorted(given) != names:
        raise InvalidParameter(f"expected values for {names}, got {sorted(given)}")
    _check_nonzero(**given)
    g = {k: complex(v) for k, v in given.items()}
    prod = {
        "a": lambda: g["b"] * g["d"] / g["c"],
        "b": lambda: g["a"] * g["c"] / g["d"],
        "c": lambda: g["b"] * g["d"] / g["a"],
        "d": lambda: g["a"] * g["c"] / g["b"],
    }
    neg = {
        "a": lambda: -g["b"] * g["c"] / g["d"],
        "b": lambda: -g["a"] * g["d"] / g["c"],
        "c": lambda: -g["a"] * g["d"] / g["b"],
        "d": lambda: -g["b"] * g["c"] / g["a"],
    }
    return [
        SolutionBranch(unknown, "+", prod[unknown]()),
        SolutionBranch(unknown, "-", neg[unknown]()),
    ]


# ----------------------------------------------------------------- order 6

def c6_residuals(a, b, c, d, e, f) -> ConstraintResidual:
    """The two order-6 constraint polynomial values."""
    _check_nonzero(a=a, b=b, c=c, d=d, e=e, f=f)
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
    return ConstraintResidual(6, (first, second))


def c6_solve_f(a, b, c, d, e):
    """Both roots of the first order-6 constraint seen as a quadratic in f."""
    _check_nonzero(a=a, b=b, c=c, d=d, e=e)
    lead = a * b * c * d
    lin = e * (a**2 * b * d + b**2 * c * d + a * c**2 * d + a * b * c * e)
    const = a * b * c * d**2 * e
    return _quadratic_branches("f", lead, lin, const)


def c6_reduced_residual(a, b, c, d, e) -> complex:
    """The single reduced condition left after eliminating f from the pair."""
    _check_nonzero(a=a, b=b, c=c, d=d, e=e)
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


_C6_QUAD_PARTNERS = {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}


def c6_solve_quadratic(unknown: str, **given):
    """Both roots of the reduced condition in one of its quadratic unknowns.

    The reduced condition is quadratic in a, b and c.  For unknown u with
    cyclic partners (p, q) it reads
        d*e*(p*e - q*d) * u**2 - (q*d + p*e)*(p*d**2 - q*e**2) * u
        + p*q*d*e*(p*e - q*d) = 0,
    a singular parametrisation exactly when p*e = q*d.
    """
    if unknown not in _C6_QUAD_PARTNERS:
        raise InvalidParameter("quadratic unknowns are 'a', 'b' and 'c'")
    names = sorted(set("abcde") - {unknown})
    if sorted(given) != names:
        raise InvalidParameter(f"expected values for {names}, got {sorted(given)}")
    _check_nonzero(**given)
    g = {k: complex(v) for k, v in given.items()}
    p, q = (g[x] for x in _C6_QUAD_PARTNERS[unknown])
    d, e = g["d"], g["e"]
    if abs(p * e - q * d) <= DEFAULT_TOL.tau_entry * max(abs(p * e), abs(q * d), 1.0):
        raise SingularBranch(
            f"coordinate singularity for {unknown!r}: partner relation "
            "p*e = q*d makes the quadratic collapse"
        )
    lead = d * e * (p * e - q * d)
    lin = -(q * d + p * e) * (p * d**2 - q * e**2)
    const = p * q * d * e * (p * e - q * d)
    return _quadratic_branches(unknown, lead, lin, const)


def c6_solve_cubic(unknown: str, tol: ToleranceConfig = DEFAULT_TOL, **given):
    """All three roots of the reduced condition in d or e, numerically."""
    if unknown not in ("d", "e"):
        raise InvalidParameter("cubic unknowns are 'd' and 'e'")
    names = sorted(set("abcde") - {unknown})
    if sorted(given) != names:
        raise InvalidParameter(f"expected values for {names}, got {sorted(given)}")
    _check_nonzero(**given)
    g = {k: complex(v) for k, v in given.items()}
    a, b, c = g["a"], g["b"], g["c"]
    sym_sq = a * b**2 + a**2 * c + b * c**2
    sym_lin = a**2 * b + b**2 * c + a * c**2
    if unknown == "d":
        e = g["e"]
        coeffs = [a * b * c * e**3, e**2 * sym_lin, -e * sym_sq, -a * b * c]
    else:
        d = g["d"]
        coeffs = [-a * b * c * d**3, -(d**2) * sym_sq, d * sym_lin, a * b * c]
    if abs(coeffs[-1]) <= tol.tau_entry:
        raise DegenerateCubic(f"cubic in {unknown!r} has a vanishing leading term")
    roots = poly_roots(np.asarray(coeffs, dtype=complex), tol)
    return [
        SolutionBranch(unknown, str(i + 1), complex(r))
        for i, r in enumerate(sorted(roots, key=lambda z: (z.real, z.imag)))
    ]


def hu_residual(b, c, d, e) -> complex:
    """Factorised specialisation surface (b*e + c*d) * (b*d**2 - c*e**2).

    Either factor vanishing collapses the reduced condition and yields the
    three-parameter subfamilies.
    """
    _check_nonzero(b=b, c=c, d=d, e=e)
    return (b * e + c * d) * (b * d**2 - c * e**2)


# ----------------------------------------------------------------- order 8

# The order-8 constraints are cyclic-ratio sums (the cyclic n-roots
# structure): with P = a*b*...*h and S_s = sum over both blocks (a, b, c, d)
# and (e, f, g, h) of x_k / x_{k+s}, indices cyclic within a block, the
# three constraints are P*S_3, P*S_2 and P*S_1.  Row i of this index table,
# the positions of x_{j+s}, serves constraint i + 1.
_C8_AHEAD = np.array([[j - j % 4 + (j + s) % 4 for j in range(8)] for s in (3, 2, 1)])


# the search's line search may probe a point with a zero coordinate
@np.errstate(divide="ignore", invalid="ignore")
def _c8_residuals_and_jacobian(x):
    """Order-8 constraint values and their exact Jacobian at stacked points.

    `x` holds (a, ..., h) along its last axis, shape (..., 8).  Returns the
    values r, shape (..., 3), and dr_s/dx_j = (P/x_j)*S_s + P*(1/x_{j+s} -
    x_{j-s}/x_j**2), shape (..., 3, 8).
    """
    x = np.asarray(x, dtype=complex)
    at = x[..., None, :]
    ahead = x[..., _C8_AHEAD]
    behind = ahead[..., ::-1, :]  # x_{j-s} is x_{j+4-s}, the row of shift 4 - s
    ratio_sums = (at / ahead).sum(axis=-1)
    prod = x.prod(axis=-1)[..., None]
    jac = prod[..., None] * (ratio_sums[..., None] / at + 1.0 / ahead - behind / at**2)
    return prod * ratio_sums, jac


def c8_residuals(a, b, c, d, e, f, g, h) -> ConstraintResidual:
    """The three order-8 constraint polynomial values."""
    _check_nonzero(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h)
    values, _ = _c8_residuals_and_jacobian([a, b, c, d, e, f, g, h])
    return ConstraintResidual(8, tuple(complex(v) for v in values))


def c8_solve_h(a, b, c, d, e, f, g):
    """Both roots of the first order-8 constraint as a quadratic in h."""
    _check_nonzero(a=a, b=b, c=c, d=d, e=e, f=f, g=g)
    lead = a * b * c * d * e * f
    lin = (
        e * f * g * (a**2 * b * c + b**2 * c * d + a * c**2 * d + a * b * d**2)
        + a * b * c * d * f**2 * g
        + a * b * c * d * e * g**2
    )
    const = a * b * c * d * e**2 * f * g
    return _quadratic_branches("h", lead, lin, const)


def c8_reduced_residual(a, b, c, d, e, f, g) -> complex:
    """Square-root-free condition left by feeding both h-roots onward.

    On the torus the product of the third constraint evaluated at the two
    h-branches has modulus equal to |this value| squared, so its vanishing
    locus matches the pair substitution.
    """
    _check_nonzero(a=a, b=b, c=c, d=d, e=e, f=f, g=g)
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


@dataclass(frozen=True)
class NumericSolveReport:
    """Outcome of the order-8 numeric search: solutions plus diagnostics."""

    solutions: tuple
    restarts: int
    converged: int
    rejected_degenerate: int
    no_convergence: int

    def __bool__(self):
        return bool(self.solutions)


def c8_numeric_solve(
    fixed: dict,
    seed: int = 0,
    restarts: int = 64,
    max_iter: int = 200,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> NumericSolveReport:
    """Damped-Newton search for the free order-8 parameters.

    `fixed` maps five to seven of the names 'a'..'h' to unimodular values;
    the remaining parameters are solved so all three constraints vanish.
    Each restart draws its start point from an independent substream of
    `seed`, so results are reproducible and independent of scheduling.
    All restarts step together as one batch, each with the exact Jacobian
    of the cyclic-ratio form and a least-squares Newton step damped by
    lambda = 1, 1/2, ... > 1e-4.  A restart whose line search finds no
    lambda that lowers its residual has stalled and stops, counted as no
    convergence, as does one that leaves 1e-10 <= |x| <= 1e8.  Solutions
    converging onto a zero coordinate parametrise degenerate matrices and
    are discarded.  An empty solution list with a positive no_convergence
    count is the infeasibility diagnostic, not an error.
    """
    if not set(fixed) <= set(PARAM_NAMES_8):
        raise InvalidParameter(f"fixed keys must be among {PARAM_NAMES_8!r}")
    if not 5 <= len(fixed) <= 7:
        raise InvalidParameter("five to seven parameters must be fixed")
    fixed_vals = {k: complex(v) for k, v in fixed.items()}
    _check_nonzero(**fixed_vals)
    for name, v in fixed_vals.items():
        if abs(abs(v) - 1.0) > tol.tau_entry:
            raise InvalidParameter(f"fixed parameter {name!r} must lie on the torus")
    free = [i for i, n in enumerate(PARAM_NAMES_8) if n not in fixed_vals]
    point = np.array([fixed_vals.get(n, 1.0) for n in PARAM_NAMES_8])

    def evaluate(x):
        full = np.tile(point, (len(x), 1))
        full[:, free] = x
        r, jac = _c8_residuals_and_jacobian(full)
        return r, jac[..., free]

    x = np.array([
        np.exp(2j * np.pi * np.random.default_rng([int(seed), k]).random(len(free)))
        for k in range(restarts)
    ]).reshape(restarts, len(free))
    ok = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for _ in range(max_iter):
        if not active.size:
            break
        r, jac = evaluate(x[active])
        size = np.abs(r).max(axis=1)
        # each constraint is the cyclic ratio sum times the product of all
        # eight parameters, so convergence is judged against that product
        scale = 8.0 * np.prod(np.abs(x[active]), axis=1) + 1e-300
        done = size < tol.tau_entry * scale
        ok[active[done]] = True
        keep = ~done & np.isfinite(jac).all(axis=(1, 2))
        active, r, jac, size = active[keep], r[keep], jac[keep], size[keep]
        # lstsq's default cutoff: three equations, rcond = 3 * eps
        pinv = np.linalg.pinv(jac, rcond=3 * np.finfo(float).eps)
        delta = np.einsum("rkj,rj->rk", pinv, -r)
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
        if not any(np.max(np.abs(full - s.values)) < 1e-7 for s in solutions):
            solutions.append(ParamVector("M8", full))
    degenerate = int(degenerate.sum())
    converged = int(ok.sum()) - degenerate
    return NumericSolveReport(
        tuple(solutions), restarts, converged, degenerate, restarts - converged - degenerate
    )
