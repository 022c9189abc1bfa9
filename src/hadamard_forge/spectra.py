"""Characteristic polynomials, root finding and spectrum comparison.

Polynomials are plain 1-d complex arrays in ascending degree order, so
``p[k]`` is the coefficient of ``x**k``.  Spectra are always taken of the
scaled matrix M/sqrt(m), whose eigenvalues lie on the unit circle whenever
M is Hadamard of order m.

A degree-2k polynomial is called reciprocal here when p(x) = x**k * q(y)
for the substitution y = 1/x - x; the reduced polynomial q has half the
degree and each of its roots lifts back to the root pair of
x**2 + y*x - 1 = 0.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .core import (
    DEFAULT_TOL,
    InvalidDimensions,
    NotNormal,
    NotReciprocal,
    RootFindingFailure,
    ToleranceConfig,
    as_matrix,
    as_stack,
)

# Accept a cluster of near-coincident roots as one multiple root only when
# every low-order derivative at the polished root sits at coefficient-noise
# level.  Genuinely distinct roots ~1e-6 apart fail this by two orders of
# magnitude and are kept separate.  The radius is sized for triple roots,
# whose computed copies scatter by (coefficient noise)**(1/3) ~ 1e-4.
_MERGE_VALID_REL = 3e-14
_CLUSTER_RADIUS = 2e-4


def trim(coeffs, rel=1e-14):
    """Drop trailing (leading-degree) coefficients that are relative noise."""
    c = np.asarray(coeffs, dtype=complex)
    top = np.max(np.abs(c)) if len(c) else 0.0
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= rel * top:
        n -= 1
    return c[:n].copy()


def _coeff_scale(coeffs, x):
    c = np.abs(np.asarray(coeffs))
    xx = max(1.0, abs(x))
    return float(np.sum(c * xx ** np.arange(len(c))))


def _aberth(coeffs, max_iter=200, tol=1e-14):
    """Simultaneous Aberth-Ehrlich iteration for all roots at once."""
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    dc = polyder(c)
    radius = 1.0 + np.max(np.abs(c[:-1] / c[-1]))
    angles = 2 * np.pi * (np.arange(n) + 0.376) / n + 0.5
    z = 0.8 * radius * np.exp(1j * angles)
    best, best_res, stall = z.copy(), np.inf, 0
    for _ in range(max_iter):
        pv = polyval(z, c)
        dv = polyval(z, dc)
        dv = np.where(dv == 0, 1e-300, dv)
        ratio = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        w = ratio / (1.0 - ratio * s)
        z = z - w
        res = float(np.max(np.abs(polyval(z, c))))
        if res < best_res:
            stall = 0 if res < 0.5 * best_res else stall + 1
            best_res, best = res, z.copy()
        else:
            stall += 1
        if np.max(np.abs(w)) < tol * max(1.0, np.max(np.abs(z))) or stall > 12:
            break
    return best


def _newton(coeffs, x0, iters=60):
    c = np.asarray(coeffs, dtype=complex)
    dc = polyder(c)
    x = complex(x0)
    for _ in range(iters):
        f = complex(polyval(x, c))
        fp = complex(polyval(x, dc))
        if fp == 0:
            break
        step = f / fp
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def _merge_clusters(coeffs, roots):
    """Replace tight root clusters by polished multiple roots when valid."""
    c = np.asarray(coeffs, dtype=complex)
    n = len(roots)
    used = [False] * n
    out = []
    for i in range(n):
        if used[i]:
            continue
        cluster = [i]
        used[i] = True
        grew = True
        while grew:
            grew = False
            for j in range(n):
                if used[j]:
                    continue
                if any(
                    abs(roots[j] - roots[k]) < _CLUSTER_RADIUS * max(1, abs(roots[k]))
                    for k in cluster
                ):
                    cluster.append(j)
                    used[j] = True
                    grew = True
        m = len(cluster)
        if m == 1:
            out.append(roots[i])
            continue
        centroid = np.mean([roots[k] for k in cluster])
        dm = c
        for _ in range(m - 1):
            dm = polyder(dm)
        rstar = _newton(dm, centroid)
        der = c
        accepted = True
        for _ in range(m):
            if abs(complex(polyval(rstar, der))) > _MERGE_VALID_REL * _coeff_scale(
                der, rstar
            ):
                accepted = False
                break
            der = polyder(der)
        if accepted:
            out.extend([rstar] * m)
        else:
            out.extend(roots[k] for k in cluster)
    return np.array(out, dtype=complex)


def poly_roots(coeffs, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """All complex roots of a polynomial, multiple roots repeated.

    Aberth-Ehrlich simultaneous iteration, then a Newton polish per root,
    then cluster refinement: a clump of m nearly equal roots is replaced by
    the nearby simple root of the (m-1)-th derivative when the backward
    error confirms a genuine m-fold root.  Raises RootFindingFailure when
    the residual bound |p(root)| <= tau_root * scale cannot be met.
    """
    c = trim(coeffs)
    if len(c) < 2:
        raise InvalidDimensions("root finding needs degree >= 1")
    raw = _aberth(c)
    polished = np.array([_newton(c, z) for z in raw])
    roots = _merge_clusters(c, polished)
    worst = max(
        abs(complex(polyval(r, c))) / _coeff_scale(c, r) for r in roots
    )
    if not worst <= tol.tau_root:  # NaN fails too
        raise RootFindingFailure(
            f"root residual {worst:.3e} exceeds tau_root={tol.tau_root:.1e}"
        )
    return roots


# huge entries overflow to inf or NaN coefficients, which the cross-check rejects
@np.errstate(over="ignore", invalid="ignore")
def char_poly(M) -> np.ndarray:
    """Monic characteristic polynomial of M/sqrt(m), ascending coefficients.

    For orders up to 16 the coefficients come from the Faddeev-LeVerrier
    trace recursion and are cross-checked against the product of the
    eigenvalue linear factors; the two routes are independent, which guards
    against cancellation in either one.  Larger orders use the eigenvalue
    product alone.
    """
    A = as_matrix(M)
    m = A.shape[0]
    S = A / np.sqrt(m)

    # np.poly gives a plain 1.0 for no roots and a real array for conjugate-closed ones
    from_roots = np.atleast_1d(np.poly(np.linalg.eigvals(S))).astype(complex)[::-1]

    if m > 16:
        return from_roots

    coeffs = np.zeros(m + 1, dtype=complex)
    coeffs[m] = 1.0
    Mk = np.eye(m, dtype=complex)
    for k in range(1, m + 1):
        Mk = S @ Mk
        ck = -np.trace(Mk) / k
        coeffs[m - k] = ck
        Mk += ck * np.eye(m)
    scale = float(np.max(np.abs(coeffs)))
    if not np.max(np.abs(coeffs - from_roots)) <= 1e-8 * max(1.0, scale):
        raise RootFindingFailure(
            "characteristic polynomial cross-check failed: trace recursion "
            "and eigenvalue product disagree"
        )
    return coeffs


def _reduction_candidate(coeffs):
    """Build q with q(1/x - x) * x**k = p(x) from the symmetrised low half.

    Uses T_0 = 2, T_1 = y and T_{m+1} = y*T_m + T_{m-1}, where T_m stands
    for x**-m + (-1)**m * x**m expressed in y.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    k = n // 2
    q = np.zeros(k + 1, dtype=complex)
    q[0] = c[k]
    t_prev = np.array([2.0 + 0j])
    t_cur = np.array([0.0, 1.0 + 0j])
    for m in range(1, k + 1):
        sym = (c[k - m] + (-1) ** m * c[k + m]) / 2.0
        q[: m + 1] += sym * t_cur
        t_next = np.concatenate(([0j], t_cur))
        t_next[: len(t_prev)] += t_prev
        t_prev, t_cur = t_cur, t_next
    return q


def reduce_reciprocal(p) -> np.ndarray:
    """Degree-k polynomial q in y = 1/x - x with q(1/x - x) * x**k = p(x).

    The candidate q is built from the low-order half of the coefficients;
    NotReciprocal is raised when the identity fails on sample points with
    |x| = 1.3 beyond 1e-9 relative (checked after construction, so
    near-reciprocal numerical inputs pass with their coefficient noise
    symmetrised away).  Equivalent to the coefficient pattern
    c[2k-j] = (-1)**(k+j) * c[j].
    """
    c = trim(p)
    n = len(c) - 1
    if n < 2 or n % 2 != 0:
        raise NotReciprocal("reduction needs an even degree >= 2")
    q = _reduction_candidate(c)
    xs = 1.3 * np.exp(1j * np.linspace(0.1, 2 * np.pi, n + 1))
    gap = np.max(np.abs(polyval(xs, c) - polyval(1.0 / xs - xs, q) * xs ** (n // 2)))
    if not gap <= 1e-9 * np.sum(np.abs(c) * 1.3 ** np.arange(n + 1)):
        raise NotReciprocal("polynomial does not satisfy the y-substitution pattern")
    return q


def is_reciprocal(p) -> bool:
    """True when p admits the y = 1/x - x substitution: reduce_reciprocal accepts it."""
    try:
        reduce_reciprocal(p)
    except NotReciprocal:
        return False
    return True


def lift_roots(yroots) -> np.ndarray:
    """Map each y to the two roots of x**2 + y*x - 1 = 0."""
    ys = np.asarray(yroots, dtype=complex)
    disc = np.sqrt(ys * ys + 4.0)
    return np.concatenate(((-ys + disc) / 2.0, (-ys - disc) / 2.0))


def multiset_match(avals, bvals, tol: float) -> bool:
    """Tolerance-based bijective matching between two complex multisets.

    True when some bijection pairs every value of `avals` with one of
    `bvals` at distance <= tol: exact bipartite matching by augmenting
    paths on the graph of such pairs, so clustered or permuted values
    compare correctly.  A NaN distance or bound admits no pair.
    """
    A = np.asarray(avals, dtype=complex).tolist()
    B = np.asarray(bvals, dtype=complex).tolist()
    if len(A) != len(B):
        return False
    n = len(A)
    adj = [[j for j, b in enumerate(B) if abs(a - b) <= tol] for a in A]
    match_of_b = [-1] * n

    def augment(i, visited):
        for j in adj[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_of_b[j] < 0 or augment(match_of_b[j], visited):
                match_of_b[j] = i
                return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def _lexsorted(vals):
    """Each row of `vals` sorted by real part, ties by imaginary part."""
    return np.take_along_axis(vals, np.lexsort((vals.imag, vals.real)), axis=-1)


class SpectrumMultiset:
    """Multiset of eigenvalues with tolerance-based equality."""

    def __init__(self, values):
        self.values = _lexsorted(np.asarray(values, dtype=complex).ravel())

    @classmethod
    def _of_sorted(cls, values):
        """The multiset of `values`, already in _lexsorted order."""
        s = cls.__new__(cls)
        s.values = values
        return s

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        inner = ", ".join(f"{v:.6g}" for v in self.values)
        return f"SpectrumMultiset([{inner}])"

    def matches(self, other, tol: float = DEFAULT_TOL.tau_spec) -> bool:
        other_vals = other.values if isinstance(other, SpectrumMultiset) else other
        return multiset_match(self.values, other_vals, tol)

    def max_unimodularity_deviation(self) -> float:
        return float(np.max(np.abs(np.abs(self.values) - 1.0)))


def spectrum(M):
    """Eigenvalues of M/sqrt(m) as a tolerance-aware multiset.

    A stack (N, m, m) is diagonalised and sorted in one call each and
    gives the list of its N multisets.
    """
    A = as_stack(M)
    m = A.shape[-1]
    A /= np.sqrt(m)
    ev = np.linalg.eigvals(A)
    if ev.ndim == 1:
        return SpectrumMultiset(ev)
    return [SpectrumMultiset._of_sorted(v) for v in _lexsorted(ev.reshape(-1, m))]


def _cell_width(values, tol: float) -> float:
    """Side of the trace cells that distinct_spectra files spectra in.

    `values` holds the spectra as rows, zero-padded to the longest, m.  Two
    multisets of length <= m that multiset_match accepts at tol have exact
    sums within m*tol of each other, since |sum(a) - sum(b)| <=
    sum|a_i - b_sigma(i)|, and each computed sum lies within m*eps*scale of
    its exact value (scale: the largest sum|values|).  The width is twice
    that bound with room to spare, so the rounding of sum/width cannot move
    two matching spectra further apart than neighbouring cells.
    """
    m = values.shape[-1]
    scale = np.abs(values).sum(axis=-1).max(initial=0.0)
    return 2.0 * (m * tol + 4.0 * m * np.finfo(float).eps * scale)


def distinct_spectra(spectra, tol: float) -> list:
    """Representatives of `spectra` under first-match classification.

    Each spectrum, in order, becomes a representative unless multiset_match
    accepts it against an earlier one.  Representatives are filed by the
    complex sum of their values in square cells of _cell_width, and only
    the 3x3 cells around a spectrum's own can hold a match, so the result
    equals comparing with every representative.  When the width is not a
    positive finite number, or a sum is not finite, all spectra share one
    cell and every representative is compared.
    """
    spectra = list(spectra)
    # zeros pad shorter spectra, changing no row's sum or sum of moduli
    m = max(map(len, spectra), default=0)
    values = np.array([s.values if len(s) == m else np.pad(s.values, (0, m - len(s)))
                       for s in spectra], dtype=complex).reshape(len(spectra), m)
    width = _cell_width(values, tol)
    sums = values.sum(axis=-1)
    if not (0.0 < width < math.inf and np.isfinite(sums).all()):
        width, sums = math.inf, np.zeros(len(spectra), dtype=complex)
    cells = {}
    reps = []
    for s, i, j in zip(spectra, map(math.floor, (sums.real / width).tolist()),
                       map(math.floor, (sums.imag / width).tolist())):
        if not any(multiset_match(s.values, r.values, tol)
                   for di in (-1, 0, 1) for dj in (-1, 0, 1)
                   for r in cells.get((i + di, j + dj), ())):
            cells.setdefault((i, j), []).append(s)
            reps.append(s)
    return reps


def is_normal(M, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    # scaled to entries of modulus <= 1, so the products cannot overflow
    A = as_matrix(M)
    A = A / max(1.0, float(np.max(np.abs(A))))
    H = A.conj().T
    return float(np.max(np.abs(A @ H - H @ A))) <= tol.tau_entry * A.shape[0]


def unitary_equivalent(M1, M2, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Spectral equivalence of normal matrices: equal spectra of M/sqrt(m).

    Raises NotNormal for non-normal input, where equality of spectra does
    not decide similarity.
    """
    A1 = as_matrix(M1)
    A2 = as_matrix(M2)
    if A1.shape != A2.shape:
        raise InvalidDimensions("matrices must share an order")
    if not is_normal(A1, tol) or not is_normal(A2, tol):
        raise NotNormal("spectral equivalence needs normal matrices")
    return spectrum(A1).matches(spectrum(A2), tol.tau_spec)
