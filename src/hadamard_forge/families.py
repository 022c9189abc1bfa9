"""Named matrix families: parametric constructors and numeric landmarks.

Order 4 comes from a pair of negacyclic 2x2 blocks, orders 6 and 8 from
pairs of circulant blocks, and orders 8, 12, 16, 24, ... from the doubling
of two smaller Hadamard matrices.  Constructors whose parameters satisfy
the constraints on the torus return genuine complex Hadamard matrices; the
numeric landmark matrices (d6, d61, d81, a6, b6, ...) are stored as
literal constants so tests pin down exact entry patterns.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    InvalidDimensions,
    InvalidParameter,
    SingularBranch,
    ToleranceConfig,
    _sylvester_table,
    circulant,
    dephase,
    is_hadamard,
)
from .constraints import _stack_nonzero, c4_branches, c6_solve_f, c6_solve_quadratic, c8_solve_h

_I = 1j
_SQ2 = np.sqrt(2.0)
# the labels of a quadratic's two roots, in the order its solvers return them
_SHEETS = ("+", "-")


def _block_form(params, negacyclic=False) -> np.ndarray:
    """Block form of the two (nega)circulant blocks whose first rows halve `params`.

    Equal bit for bit to assemble_sylvester of the two blocks, but one take
    of the Sylvester table from each matrix's first rows and their 2k
    reciprocals, where the assembled blocks invert 2k**2 entries.
    """
    rows = np.stack(np.broadcast_arrays(*params), axis=-1, dtype=complex)
    if np.any(rows == 0) or not np.all(np.isfinite(rows)):
        raise InvalidParameter("circulant entries must be finite and nonzero")
    k = rows.shape[-1] // 2
    # a subnormal entry's reciprocal overflows
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / rows
    if not np.all(np.isfinite(inv)):
        raise InvalidParameter("entries must have finite reciprocals")
    row = np.concatenate((rows, inv[..., k:], -inv[..., :k]), axis=-1)
    if negacyclic:
        # a finite 1/(-z) equals -(1/z) bit for bit, so negating the
        # reciprocals equals inverting the negated block entries
        row = np.concatenate((row, -row), axis=-1)
    return row.take(_sylvester_table(k, negacyclic), axis=-1)


# ----------------------------------------------------------------- order 4

def m4(a, b, c, d) -> np.ndarray:
    """Raw order-4 block form from negacyclic blocks (a, b) and (c, d); arrays stack as in m6."""
    return _block_form((a, b, c, d), negacyclic=True)


def _m4_branch(unknown, branch, **given) -> np.ndarray:
    """m4 with `unknown` solved on one branch of the order-4 constraint."""
    return m4(**given, **{unknown: c4_branches(unknown, **given)[_SHEETS.index(branch)]})


def h4(b, c, d) -> np.ndarray:
    """Three-phase order-4 family with a = b*d/c; Hadamard on the torus."""
    return _m4_branch("a", "+", b=b, c=c, d=d)


def h4a(q) -> np.ndarray:
    """Dephased one-phase order-4 family."""
    q = complex(q)
    if q == 0:
        raise InvalidParameter("q must be a nonzero phase")
    return np.array(
        [[1, 1, 1, 1], [1, -q, q, -1], [1, -1, -1, 1], [1, q, -q, -1]],
        dtype=complex,
    )


def h4a_spectrum_closed(q) -> np.ndarray:
    """Closed-form spectrum of h4a(q)/2, unsorted: -1, 1, -(1+q±sqrt(1-14q+q²))/4."""
    q = complex(q)
    root = np.sqrt(1.0 - 14.0 * q + q * q + 0j)
    return np.array([-1.0, 1.0, -(1.0 + q + root) / 4.0, -(1.0 + q - root) / 4.0])


def h42(a, b) -> np.ndarray:
    """Two-parameter order-4 variant, realised with d = 1 and c = b*d/a."""
    return _m4_branch("c", "+", a=a, b=b, d=1.0)


def h43(a, c, d) -> np.ndarray:
    """Order-4 variant on the branch b = a*c/d."""
    return _m4_branch("b", "+", a=a, c=c, d=d)


def h44(b, c, d) -> np.ndarray:
    """Order-4 variant on the branch a = -b*c/d."""
    return _m4_branch("a", "-", b=b, c=c, d=d)


def h45(a, c, d) -> np.ndarray:
    """Order-4 variant on the branch b = -a*d/c."""
    return _m4_branch("b", "-", a=a, c=c, d=d)


# ----------------------------------------------------------------- order 6

def bf(d) -> np.ndarray:
    """Circulant order-6 matrix with first row (1, i/d, -1/d, -i, -d, i*d)."""
    d = complex(d)
    if d == 0:
        raise InvalidParameter("d must be nonzero")
    return circulant([1.0, _I / d, -1.0 / d, -_I, -d, _I * d])


def bf_quartic_roots() -> tuple:
    """The four roots of d**4 - 2*d**3 - 2*d + 1 = 0, closed forms.

    The first two are complex conjugates on the unit circle and feed the
    Hadamard matrix; the last two are real and give merely orthogonal
    matrices.
    """
    r = _SQ2 * 3.0**0.25
    s3 = np.sqrt(3.0)
    return (
        (1.0 + _I * r - s3) / 2.0,
        (1.0 - _I * r - s3) / 2.0,
        (1.0 + r + s3) / 2.0,
        (1.0 - r + s3) / 2.0,
    )


def bf_dephased(d) -> np.ndarray:
    """Dephased form of bf(d)."""
    return dephase(bf(d))


def d6() -> np.ndarray:
    """Self-adjoint dephased order-6 Hadamard with entries in {±1, ±i}."""
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, _I, _I, -_I, -_I],
            [1, -_I, -1, 1, -1, _I],
            [1, -_I, 1, -1, _I, -1],
            [1, _I, -1, -_I, 1, -1],
            [1, _I, -_I, -1, -1, 1],
        ],
        dtype=complex,
    )


def d61() -> np.ndarray:
    """Row/column-shuffled companion of d6: equivalent but not self-adjoint."""
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, 1, -1, _I, -_I],
            [1, 1, -1, _I, -1, -_I],
            [1, -_I, -1, -1, 1, _I],
            [1, -1, -_I, 1, -1, _I],
            [1, _I, _I, -_I, -_I, -1],
        ],
        dtype=complex,
    )


def m6(a, b, c, d, e, f) -> np.ndarray:
    """Raw order-6 block form from circulant blocks (a,b,c) and (d,e,f).

    Parameter arrays of one shape (...) give the stack (..., 6, 6).
    """
    return _block_form((a, b, c, d, e, f))


def m6_standard(a, b, c, d, e, f) -> np.ndarray:
    """Dephased order-6 form: dephase(m6(a..f)), first row and column ones."""
    return dephase(m6(a, b, c, d, e, f))


def m6_branch_points(b, c, d, e):
    """The four (a, f) points of the family over (b, c, d, e), as arrays (a, f).

    a comes from the reduced quadratic, f from the first constraint.  Both
    arrays have a trailing axis of 4 in the order a+ f+, a+ f-, a- f+,
    a- f-: shape (4,) for scalars, (..., 4) for parameter arrays of shape
    (...), NaN at the samples where a scalar call would raise.  A scalar
    call raises SingularBranch where the a-quadratic collapses.
    """
    a = c6_solve_quadratic("a", b=b, c=c, d=d, e=e)
    f = c6_solve_f(a, b, c, d, e).swapaxes(0, 1).reshape((4,) + a.shape[1:])
    return np.moveaxis(a.repeat(2, axis=0), 0, -1), np.moveaxis(f, 0, -1)


def m6_from_branches(b, c, d, e, a_branch="+", f_branch="+"):
    """Four-parameter family point on the branches a_branch and f_branch.

    Returns (matrix, a_value, f_value).  The matrix is Hadamard exactly
    when the solved a and f land on the torus, which happens on a large
    region of torus (b, c, d, e) but not everywhere.
    """
    # solved first, so that a bad parameter is reported before a bad label
    a, f = m6_branch_points(b, c, d, e)
    if a_branch not in _SHEETS or f_branch not in _SHEETS:
        raise InvalidParameter(f"branches are '+' and '-', got a{a_branch} f{f_branch}")
    i = 2 * _SHEETS.index(a_branch) + _SHEETS.index(f_branch)
    return m6(a[..., i], b, c, d, e, f[..., i]), a[..., i], f[..., i]


def _d6_family(c, d, e, sign):
    c, d, e = complex(c), complex(d), complex(e)
    if 0 in (c, d, e):
        raise InvalidParameter("family parameters must be nonzero")
    try:
        r1 = np.sqrt(c**4 * d**5 * e + 0j)
        r2 = np.sqrt(-(c**6) * d**6 / e**2 + 0j)
        if r1 == 0 or r2 == 0:
            raise SingularBranch("nested radical vanished; family undefined here")
        b = -c * d / e
        # (a, f) on both radical signs, the principal one first
        points = [(-sign * flip * r1 / (c * d * d * e), sign * flip * e * e * r2 / (c * r1))
                  for flip in (1.0, -1.0)]
    except (ZeroDivisionError, OverflowError) as exc:
        # Python's complex arithmetic raises where a power underflows to zero or overflows
        raise InvalidParameter(f"family parameters out of floating-point range: {exc}") from None
    for a, f in points:
        M = m6(a, b, c, d, e, f)
        if is_hadamard(M):
            return M
    # phases off the torus never verify; return the principal-branch matrix
    (a, f), _ = points
    return m6(a, b, c, d, e, f)


def d61_family(c, d, e) -> np.ndarray:
    """Three-parameter Hadamard family on the branch b = -c*d/e, first sheet.

    Nested radicals are taken with the principal square root; if the
    assembled matrix fails verification the radical sign is flipped, which
    keeps the family total on the torus away from its singular loci.  Off
    the torus neither sign verifies, and the principal-branch matrix is
    returned unverified, for the caller to check with is_hadamard.  Raises
    SingularBranch where a nested radical vanishes.
    """
    return _d6_family(c, d, e, +1)


def d62_family(c, d, e) -> np.ndarray:
    """Companion sheet of d61_family: both radical signs reversed.

    The same contract holds: off the torus the principal-branch matrix of
    this sheet is returned unverified.
    """
    return _d6_family(c, d, e, -1)


# ------------------------------------------------------------ order 8 & up

def m8(a, b, c, d, e, f, g, h) -> np.ndarray:
    """Raw order-8 block form from circulant blocks (a..d) and (e..h).

    Parameter arrays of one shape (...) give the stack (..., 8, 8).
    """
    return _block_form((a, b, c, d, e, f, g, h))


def m8_from_h_branch(a, b, c, d, e, f, g, h_branch="+"):
    """Order-8 matrix with h solved from the first constraint."""
    h = c8_solve_h(a, b, c, d, e, f, g)  # before the label, as in m6_from_branches
    if h_branch not in _SHEETS:
        raise InvalidParameter(f"branches are '+' and '-', got h{h_branch}")
    h = h[_SHEETS.index(h_branch)]
    return m8(a, b, c, d, e, f, g, h), h


def double(A, B, diag=None, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Order-doubling [[A, D@B], [A, -D@B]] of two equal-order Hadamards.

    D is a diagonal of phases (defaults to the identity).  The output is
    Hadamard of twice the order whenever the inputs are Hadamard, so the
    construction iterates to orders 2^k * n.  Stacks (..., m, m) give the
    stack of doublings; every member must be Hadamard.
    """
    A = np.array(A, dtype=complex)
    B = np.array(B, dtype=complex)
    if A.shape != B.shape:
        raise InvalidDimensions("doubling needs equal-order blocks")
    if not np.all(is_hadamard(A, tol)) or not np.all(is_hadamard(B, tol)):
        raise InvalidParameter("doubling inputs must be Hadamard matrices")
    n = A.shape[-1]
    if diag is None:
        DB = B
    else:
        d = np.asarray(diag, dtype=complex)
        if d.shape != (n,):
            raise InvalidDimensions(f"diagonal must have length {n}")
        if np.max(np.abs(np.abs(d) - 1.0)) > tol.tau_entry:
            raise InvalidParameter("diagonal entries must be phases")
        DB = d[:, None] * B
    return np.block([[A, DB], [A, -DB]])


def d8a(b, c, d, f, g, h) -> np.ndarray:
    """Six-phase order-8 family: doubling of two order-4 family members.

    The left block is h4(b, c, d); the right block is the order-4 variant
    with first row (f, g, h, f*h/g).  Parameter arrays give a stack.
    """
    # a zero scalar is named here, before the blocks' solvers rename it
    _stack_nonzero(b=b, c=c, d=d, f=f, g=g, h=h)
    return double(h4(b, c, d), _m4_branch("d", "+", a=f, b=g, c=h))


def d81() -> np.ndarray:
    """Landmark numeric order-8 Hadamard, stored as literal constants.

    Equals d8a(1, i, -i, exp(i*pi/4), exp(-i*pi/4), -1) entrywise.
    """
    s = (1 + _I) / _SQ2
    t = (1 - _I) / _SQ2
    return np.array(
        [
            [-1, 1, _I, -_I, s, t, -1, -_I],
            [-1, -1, _I, _I, -t, s, _I, -1],
            [-_I, -_I, 1, 1, -1, -_I, -t, s],
            [_I, -_I, -1, 1, _I, -1, -s, -t],
            [-1, 1, _I, -_I, -s, -t, 1, _I],
            [-1, -1, _I, _I, t, -s, -_I, 1],
            [-_I, -_I, 1, 1, 1, _I, t, -s],
            [_I, -_I, -1, 1, -_I, 1, s, t],
        ],
        dtype=complex,
    )


def a6() -> np.ndarray:
    """First order-6 numeric block used in the order-12 doubling example."""
    return m6(-(1 - _I) / _SQ2, 1.0, _I, -_I, -1.0, (1 - _I) / _SQ2)


def b6() -> np.ndarray:
    """Second order-6 numeric block used in the order-12 doubling example."""
    root = np.sqrt(1 + _I)
    q = 2.0**0.25
    return m6(1.0, (1 + _I) / _SQ2, _I * root / q, q / root, (1 - _I) / _SQ2, -1.0)


# name -> (builder, guaranteed); a guaranteed family promises a Hadamard
# result, so gen exits 2 when verification fails for one of them.  gen
# reads each family's parameter count from its builder's signature.
FAMILY_BUILDERS = {
    "m4": (m4, False),
    "h4": (h4, True),
    "h4a": (h4a, True),
    "h42": (h42, True),
    "h43": (h43, True),
    "h44": (h44, True),
    "h45": (h45, True),
    "bf": (bf, False),
    "bf-dephased": (bf_dephased, False),
    "d6": (d6, True),
    "d61": (d61, True),
    "m6": (m6, False),
    "m6s": (m6_standard, False),
    "d61f": (d61_family, True),
    "d62f": (d62_family, True),
    "m8": (m8, False),
    "d8a": (d8a, True),
    "d81": (d81, True),
    "a6": (a6, True),
    "b6": (b6, True),
}
