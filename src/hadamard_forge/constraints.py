"""Orthogonality constraints for the block-circulant families.

The order-4 construction carries a single factorised constraint whose two
factors each equate the products of two parameter pairs.  Orders 6 and 8
(blocks of k = 3 and 4 parameters) carry k - 1 cyclic-ratio constraints:
with P the product of all 2k parameters and S_s = sum over both blocks of
x_j / x_{j+s}, indices cyclic within a block, constraint i is P*S_{k-i}.
As a polynomial in the last parameter u (f or h) each is the quadratic
P*S_s = P'*(u**2/x_{u+s} + u*K_s + x_{u-s}), with P' the product of the
other parameters and K_s the ratios free of u.  The first constraint gives
the closed-form u-branches; eliminating u between the first and the last
leaves one reduced condition; order 8 keeps a third constraint that is
solved numerically.  The order-6 reduced condition is quadratic in a, b
and c and cubic in d and e; its solvers read the coefficients off the
condition itself, by its values at roots of unity and an inverse DFT.
Solvers return one complex array whose leading axis is the sheet of the
square or cube root: rows "+" then "-" for the quadratics, the three roots
in order for the cubic; every root substitutes back to a residual at
rounding level.  The quadratic solvers also take parameter arrays
broadcast to one shape (...) and solve all samples at once, giving roots
of shape (2, ...); a sample on which the scalar call would raise gets NaN
values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    DEFAULT_TOL,
    DegenerateCubic,
    DegenerateQuadratic,
    InvalidParameter,
    SingularBranch,
    ToleranceConfig,
    torus_draws,
)
from .spectra import poly_roots

PARAM_NAMES_4 = "abcd"
PARAM_NAMES_8 = "abcdefgh"


def _stack_nonzero(**params):
    """The parameters stacked along a new last axis, broadcast to one shape.

    A zero or non-finite scalar raises InvalidParameter; in arrays it makes
    its sample NaN throughout.
    """
    x = np.empty(np.broadcast(*params.values()).shape + (len(params),), dtype=complex)
    for i, value in enumerate(params.values()):
        x[..., i] = value
    bad = (x == 0) | ~np.isfinite(x)
    if x.ndim == 1 and bad.any():
        name = list(params)[bad.argmax()]
        raise InvalidParameter(f"parameter {name!r} must be finite and nonzero")
    return np.where(bad.any(axis=-1, keepdims=True), np.nan, x)


# a NaN coefficient marks a sample without roots, whose roots stay NaN
@np.errstate(invalid="ignore")
def _quadratic_branches(name, lead, lin, const, shape):
    """Roots "+" and "-" of lead*u**2 + lin*u + const: (-lin +- sqrt(disc))/(2*lead).

    The coefficients come as a stack, a single sample as a stack of one:
    numpy's scalar arithmetic rounds differently from the array loops of a
    stack, and a sample's roots must not depend on whether it came alone.
    Returns the roots "+" and "-" as rows, shape (2,) + `shape`, with
    `shape` () for a single sample.  The numerator of larger modulus gives
    its root directly; the other root, whose numerator would cancel, is
    const/lead over the first.
    """
    if shape == () and lead.item() == 0:
        raise DegenerateQuadratic(f"quadratic in {name!r} has vanishing leading coefficient")
    root = np.sqrt(lin * lin - 4.0 * lead * const)
    plus = abs(-lin + root) >= abs(-lin - root)
    big = -lin + np.where(plus, root, -root)
    direct, other = big / (2.0 * lead), 2.0 * const / big
    return np.where(plus, [direct, other], [other, direct]).reshape((2,) + shape)


# ----------------------------------------------------------------- order 4

def c4_residual(a, b, c, d) -> complex:
    """The factorised order-4 constraint (b*c + a*d) * (a*c - b*d)."""
    _stack_nonzero(a=a, b=b, c=c, d=d)
    return (b * c + a * d) * (a * c - b * d)


# the pairs whose products branches "+" and "-" equate: a*c = b*d kills the
# factor a*c - b*d, and a*d = -b*c kills b*c + a*d
_C4_PAIRS = (("ac", "bd"), ("ad", "bc"))


# numpy flags the complex division of a NaN sample as invalid
@np.errstate(invalid="ignore")
def c4_branches(unknown: str, **given) -> np.ndarray:
    """Both closed-form branches for one unknown of the order-4 constraint.

    On branch "+" (a*c = b*d) the unknown is the product of the other pair
    over its partner, on branch "-" (a*d = -b*c) minus that; e.g. solving
    for a gives a = b*d/c and a = -b*c/d.  Returns the values "+" and "-"
    as rows, shape (2, ...) for parameter arrays of shape (...), NaN where
    a scalar call would raise.
    """
    if unknown not in PARAM_NAMES_4:
        raise InvalidParameter(f"unknown must be one of {PARAM_NAMES_4!r}")
    names = [n for n in PARAM_NAMES_4 if n != unknown]
    if sorted(given) != names:
        raise InvalidParameter(f"expected values for {names}, got {sorted(given)}")
    x = _stack_nonzero(**given)
    g = dict(zip(given, x.tolist() if x.ndim == 1 else np.moveaxis(x, -1, 0)))
    values = []
    for minus, pairs in enumerate(_C4_PAIRS):
        own, other = pairs if unknown in pairs[0] else pairs[::-1]
        p, q = (g[n] for n in other)
        values.append((-p if minus else p) * q / g[own.replace(unknown, "")])
    return np.stack(values)


# ------------------------------------------------- cyclic-ratio constraints

@functools.cache
def _index_tables(k):
    """Index tables of the cyclic-ratio form for blocks of k parameters.

    Row i of `ahead` holds the positions of x_{j+s}, cyclic within a
    block, for the shift s = k - 1 - i of constraint i + 1; row t of
    `others` lists the positions j != t among the 2k - 1 parameters before
    the last.  The order-8 search evaluates the constraints up to three
    times per Newton iteration, so each k's tables are built once.
    """
    ahead = np.array([[j - j % k + (j + s) % k for j in range(2 * k)]
                      for s in range(k - 1, 0, -1)])
    others = np.array([[j for j in range(2 * k - 1) if j != t] for t in range(2 * k - 1)])
    return ahead, others


# the search's line search may probe a point with a zero coordinate
@np.errstate(divide="ignore", invalid="ignore")
def _cyclic_ratio_residuals_and_jacobian(x):
    """Order-2k constraint values and their exact Jacobian at stacked points.

    `x` holds both blocks of k parameters along its last axis, shape
    (..., 2k).  Returns the values r_s = P*S_s, shape (..., k - 1), and
    dr_s/dx_j = (P/x_j)*S_s + P*(1/x_{j+s} - x_{j-s}/x_j**2), shape
    (..., k - 1, 2k).
    """
    x = np.asarray(x, dtype=complex)
    at = x[..., None, :]
    ahead = x[..., _index_tables(x.shape[-1] // 2)[0]]
    behind = ahead[..., ::-1, :]  # x_{j-s} is x_{j+k-s}, the row of shift k - s
    ratio_sums = (at / ahead).sum(axis=-1)
    prod = x.prod(axis=-1)[..., None]
    jac = prod[..., None] * (ratio_sums[..., None] / at + 1.0 / ahead - behind / at**2)
    return prod * ratio_sums, jac


@np.errstate(divide="ignore", invalid="ignore")
def _cyclic_ratio_residuals(x):
    """The values of `_cyclic_ratio_residuals_and_jacobian` alone, bit for bit.

    The same expressions, without the Jacobian: the line search needs only
    the values at its probes.
    """
    x = np.asarray(x, dtype=complex)
    ahead = x[..., _index_tables(x.shape[-1] // 2)[0]]
    return x.prod(axis=-1)[..., None] * (x[..., None, :] / ahead).sum(axis=-1)


def _quadratic_in_last(x, s):
    """Coefficients (lead, lin, const) of P*S_s as a quadratic in u.

    `x` holds the 2k - 1 parameters before the last one, u, which closes
    the second block, along its last axis.  With P' their product, P*S_s =
    P'*(u**2/x_{u+s} + u*K_s + x_{u-s}), where K_s sums the ratios
    x_j/x_{j+s} free of u.
    """
    x = np.asarray(x, dtype=complex)
    k = (x.shape[-1] + 1) // 2
    ahead, others = _index_tables(k)
    ahead = ahead[k - 1 - s].tolist()
    behind = ahead.index(2 * k - 1)  # x_{u-s} is the x_j with x_{j+s} = u
    # P'/x_t, formed without division as the product of the other parameters,
    # one factor at a time: numpy reduces a stack of one in another order
    without = functools.reduce(np.multiply, np.moveaxis(x[..., others], -1, 0))
    free = sum(x[..., j] * without[..., t] for j, t in enumerate(ahead[:-1]) if j != behind)
    return without[..., ahead[-1]], free, x.prod(axis=-1) * x[..., behind]


def _reduced_residual(x):
    """The u-free condition for the first and last constraint to share a root.

    Multiplied by x_{u-1} and x_{u+1} respectively (x_{u+1} is the first
    parameter of u's block), the quadratics P*S_{k-1} and P*S_1 in u have
    equal leading and constant terms, so a common root u != 0 leaves
    x_{u-1}*P'*K_{k-1} - x_{u+1}*P'*K_1 = 0.
    """
    x = np.asarray(x, dtype=complex)
    k = (x.shape[-1] + 1) // 2
    lin_first, lin_last = _quadratic_in_last(x, k - 1)[1], _quadratic_in_last(x, 1)[1]
    return x[..., -1] * lin_first - x[..., k] * lin_last


# ----------------------------------------------------------------- order 6

def c6_residuals(a, b, c, d, e, f) -> np.ndarray:
    """The two order-6 constraint polynomial values, P*S_2 and P*S_1."""
    return _cyclic_ratio_residuals(_stack_nonzero(a=a, b=b, c=c, d=d, e=e, f=f))


def c6_solve_f(a, b, c, d, e):
    """Both roots of the first order-6 constraint seen as a quadratic in f."""
    x = _stack_nonzero(a=a, b=b, c=c, d=d, e=e)
    return _quadratic_branches("f", *_quadratic_in_last(np.atleast_2d(x), 2), x.shape[:-1])


def c6_reduced_residual(a, b, c, d, e) -> complex:
    """The single reduced condition left after eliminating f from the pair."""
    return _reduced_residual(_stack_nonzero(a=a, b=b, c=c, d=d, e=e))


def _reduced_coefficients(unknown, **given):
    """Ascending coefficients of the order-6 reduced condition in `unknown`.

    The condition has degree n = 2 in a, b and c and n = 3 in d and e, so
    its values at the n + 1 points w**-j, w = exp(2*pi*i/(n + 1)), fix it
    exactly: they are the DFT of its coefficients, which the inverse DFT
    returns.
    """
    names = sorted(set("abcde") - {unknown})
    if sorted(given) != names:
        raise InvalidParameter(f"expected values for {names}, got {sorted(given)}")
    count = 3 if unknown in "abc" else 4
    points = np.exp(-2j * np.pi * np.arange(count) / count)
    x = _stack_nonzero(**dict(sorted(given.items())))[..., None, :].repeat(count, axis=-2)
    x = np.insert(x, "abcde".index(unknown), points, axis=-1)
    return np.fft.ifft(_reduced_residual(x), axis=-1)


def c6_solve_quadratic(unknown: str, **given):
    """Both roots of the reduced condition in one of its quadratic unknowns.

    The reduced condition is quadratic in a, b and c.  For unknown u with
    cyclic partners (p, q), (b, c) for a, (c, a) for b and (a, b) for c, its
    leading coefficient is d*e*(p*e - q*d), so the parametrisation is
    singular where p*e = q*d.  SingularBranch is raised once that
    coefficient falls to tau_entry times the product of the given moduli,
    which on the torus is |p*e - q*d| <= tau_entry.
    """
    if unknown not in ("a", "b", "c"):
        raise InvalidParameter("quadratic unknowns are 'a', 'b' and 'c'")
    coeffs = _reduced_coefficients(unknown, **given)
    const, lin, lead = np.moveaxis(np.atleast_2d(coeffs), -1, 0)
    singular = abs(lead) <= DEFAULT_TOL.tau_entry * math.prod(map(np.abs, given.values()))
    if coeffs.ndim == 1 and singular.item():
        raise SingularBranch(
            f"coordinate singularity for {unknown!r}: partner relation "
            "p*e = q*d makes the quadratic collapse"
        )
    return _quadratic_branches(unknown, np.where(singular, np.nan, lead), lin, const,
                               coeffs.shape[:-1])


def c6_solve_cubic(unknown: str, tol: ToleranceConfig = DEFAULT_TOL, **given):
    """All three roots of the reduced condition in d or e, sorted by real part, then imaginary.

    Its leading coefficient is -a*b*c in d and a*b*c in e.  Every coefficient
    scales as s**3 with a, b and c, so DegenerateCubic is raised once the
    leading one falls to tau_entry times the largest in modulus.
    """
    if unknown not in ("d", "e"):
        raise InvalidParameter("cubic unknowns are 'd' and 'e'")
    coeffs = _reduced_coefficients(unknown, **given)
    if abs(coeffs[-1]) <= tol.tau_entry * np.abs(coeffs).max():
        raise DegenerateCubic(f"cubic in {unknown!r} has a vanishing leading term")
    roots = poly_roots(coeffs, tol)
    return roots[np.lexsort((roots.imag, roots.real))]


def hu_residual(b, c, d, e) -> complex:
    """Factorised specialisation surface (b*e + c*d) * (b*d**2 - c*e**2).

    Either factor vanishing collapses the reduced condition and yields the
    three-parameter subfamilies.
    """
    _stack_nonzero(b=b, c=c, d=d, e=e)
    return (b * e + c * d) * (b * d**2 - c * e**2)


# ----------------------------------------------------------------- order 8

def c8_residuals(a, b, c, d, e, f, g, h) -> np.ndarray:
    """The three order-8 constraint polynomial values, P*S_3, P*S_2, P*S_1."""
    return _cyclic_ratio_residuals(_stack_nonzero(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h))


def c8_solve_h(a, b, c, d, e, f, g):
    """Both roots of the first order-8 constraint as a quadratic in h."""
    x = _stack_nonzero(a=a, b=b, c=c, d=d, e=e, f=f, g=g)
    return _quadratic_branches("h", *_quadratic_in_last(np.atleast_2d(x), 3), x.shape[:-1])


def c8_reduced_residual(a, b, c, d, e, f, g) -> complex:
    """Square-root-free condition left by feeding both h-roots onward.

    It is the condition for the first and third constraints to share an
    h-root.  On the torus the product of the third constraint evaluated at
    the two h-branches has modulus equal to |this value| squared, so its
    vanishing locus matches the pair substitution.
    """
    return _reduced_residual(_stack_nonzero(a=a, b=b, c=c, d=d, e=e, f=f, g=g))


@dataclass(frozen=True)
class NumericSolveReport:
    """Outcome of the order-8 numeric search: solutions plus diagnostics.

    `solutions` holds one solution per row, all eight parameters a..h,
    shape (n, 8); the report is true when n > 0.
    """

    solutions: np.ndarray
    restarts: int
    converged: int
    rejected_degenerate: int
    no_convergence: int

    def __bool__(self):
        return len(self.solutions) > 0

    def __eq__(self, other):
        # field by field: == on two solution arrays compares elementwise
        return isinstance(other, NumericSolveReport) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _newton_steps(jac, r):
    """Newton steps -J^+ r for a stack of Jacobians and their residuals.

    A square Jacobian is solved by LU; an LU that meets an exactly singular
    member fails the whole stack, which is then solved member by member so
    that no restart's step depends on the others.  The overdetermined
    fixings, and a singular member alone, take the least-squares step of the
    pseudo-inverse.
    """
    if jac.shape[-1] == jac.shape[-2]:
        try:
            # b as a stack of columns: numpy 2 broadcasts a stacked 1-d b
            # differently from numpy 1
            return np.linalg.solve(jac, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if len(jac) > 1:
                return np.concatenate([_newton_steps(j[None], v[None])
                                       for j, v in zip(jac, r)])
    # lstsq's default cutoff: three equations, rcond = 3 * eps
    pinv = np.linalg.pinv(jac, rcond=3 * np.finfo(float).eps)
    return np.einsum("rkj,rj->rk", pinv, -r)


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
    Restart k starts from exp(2j*pi*default_rng([seed, k]).random(n_free)),
    all restarts' points computed at once by torus_draws, so results are
    reproducible and independent of scheduling; a negative seed raises
    InvalidParameter.
    All restarts step together as one batch, each with the exact Jacobian
    of the cyclic-ratio form and a Newton step damped by the first lambda
    of 1, 1/2, ... > 1e-4 that lowers its residual and keeps every
    coordinate above 1e-8 in modulus.  With three free parameters the
    step comes from one batched LU solve; with fewer, and for an exactly
    singular Jacobian, it is the least-squares step of the pseudo-inverse
    (see _newton_steps).  The line search computes residuals only, in
    two stacked calls per iteration: lambda = 1 for every restart, then
    all the smaller rungs at once for the restarts that lambda = 1 does
    not fit; the first fitting rung is the one a search trying the rungs
    in turn would take.  A restart that no rung
    fits has stalled and stops, counted as no convergence, as does one
    that leaves 1e-10 <= |x| <= 1e8.  Solutions converging onto a zero
    coordinate parametrise degenerate matrices and are discarded.  The
    others are isolated roots, generically off the torus: their matrices
    are inverse orthogonal but not Hadamard.  They come as the rows of one
    (n, 8) array, in the order of the restarts that found them; a solution
    within 1e-7 (max-abs) of an earlier row is dropped.  No rows with a
    positive no_convergence count is the infeasibility diagnostic, not an
    error.  A negative `restarts` or `max_iter` raises InvalidParameter.
    """
    if not set(fixed) <= set(PARAM_NAMES_8):
        raise InvalidParameter(f"fixed keys must be among {PARAM_NAMES_8!r}")
    if not 5 <= len(fixed) <= 7:
        raise InvalidParameter("five to seven parameters must be fixed")
    fixed_vals = {k: complex(v) for k, v in fixed.items()}
    _stack_nonzero(**fixed_vals)
    for name, v in fixed_vals.items():
        if abs(abs(v) - 1.0) > tol.tau_entry:
            raise InvalidParameter(f"fixed parameter {name!r} must lie on the torus")
    if restarts < 0 or max_iter < 0:
        raise InvalidParameter(
            f"restarts and max_iter must be non-negative, got {restarts} and {max_iter}")
    free = [i for i, n in enumerate(PARAM_NAMES_8) if n not in fixed_vals]
    point = np.array([fixed_vals.get(n, 1.0) for n in PARAM_NAMES_8])

    def full(x):
        out = np.empty(x.shape[:-1] + (8,), dtype=complex)
        out[...] = point
        out[..., free] = x
        return out

    # the damping rungs 1, 1/2, ..., 2**-13, the powers of two above 1e-4
    ladder = 0.5 ** np.arange(14)
    x = torus_draws(seed, restarts, len(free))
    ok = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for _ in range(max_iter):
        if not active.size:
            break
        r, jac = _cyclic_ratio_residuals_and_jacobian(full(x[active]))
        jac = jac[..., free]
        size = np.abs(r).max(axis=1)
        # each constraint is the cyclic ratio sum times the product of all
        # eight parameters, so convergence is judged against that product
        scale = 8.0 * np.prod(np.abs(x[active]), axis=1) + 1e-300
        done = size < tol.tau_entry * scale
        ok[active[done]] = True
        keep = ~done & np.isfinite(jac).all(axis=(1, 2))
        active, r, jac, size = active[keep], r[keep], jac[keep], size[keep]
        delta = _newton_steps(jac, r)
        # a rung fits when its probe keeps clear of zero and lowers the
        # residual; the zero check comes first, so a restart whose lambda = 1
        # probe nears zero falls through to the smaller rungs, probed together;
        # argmax takes each restart's first fitting rung
        cand = x[active] + ladder[:, None, None] * delta
        fits = np.abs(cand).min(axis=-1) > 1e-8
        fits[0] &= np.abs(_cyclic_ratio_residuals(full(cand[0]))).max(axis=-1) < size
        short = ~fits[0]
        if short.any():
            probes = _cyclic_ratio_residuals(full(cand[1:, short]))
            fits[1:, short] &= np.abs(probes).max(axis=-1) < size[short]
        moved = fits.any(axis=0)
        step = ladder[fits.argmax(axis=0)[moved]]
        active, delta = active[moved], delta[moved]
        x[active] += step[:, None] * delta
        mag = np.abs(x[active])
        active = active[(mag.max(axis=1) <= 1e8) & (mag.min(axis=1) >= 1e-10)]

    degenerate = ok & (np.abs(x).min(axis=1) < 1e-3)
    found = full(x[ok & ~degenerate])
    near = np.abs(found[:, None] - found).max(axis=-1) < 1e-7
    kept = []
    for k in range(len(found)):
        if not near[k, kept].any():
            kept.append(k)
    degenerate = int(degenerate.sum())
    converged = int(ok.sum()) - degenerate
    return NumericSolveReport(
        found[kept], restarts, converged, degenerate, restarts - converged - degenerate
    )
