"""Characteristic polynomials, root finding and spectrum comparison.

Polynomials are plain 1-d complex arrays in ascending degree order, so
``p[k]`` is the coefficient of ``x**k``.  Spectra are plain complex arrays
too, one row (..., m) per matrix, sorted by real part and then imaginary
part, and are compared as multisets within a tolerance by multiset_match.
They are always taken of the scaled matrix M/sqrt(m), whose eigenvalues
lie on the unit circle whenever M is Hadamard of order m.

A spectrum is reciprocal here when its values pair as (x, -1/x), with i
and -i (their own partners) each of even multiplicity: exactly then its
characteristic polynomial is x**k * q(1/x - x), q of half the degree.
Each root y = 1/x - x of q lifts back to the roots of x**2 + y*x - 1 = 0.

`sweep 6` takes its spectra from the circulant blocks' DFT symbols: one
2x2 block per frequency, unitary (so normal) for a Hadamard M, so the two
terms under the square root of its eigenvalues add up without cancelling.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyder, polyroots, polyval

from .core import (
    DEFAULT_TOL,
    InvalidDimensions,
    NotNormal,
    NotReciprocal,
    RootFindingFailure,
    ToleranceConfig,
    _sylvester_table,
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

    Companion-matrix eigenvalues (numpy's polyroots, backward stable), then
    cluster refinement: a clump of m nearly equal roots is replaced by the
    nearby simple root of the (m-1)-th derivative when the backward error
    confirms a genuine m-fold root.  Raises RootFindingFailure for
    non-finite coefficients, a companion matrix whose eigenvalues numpy
    cannot compute, a root with |p(root)| > tau_root * scale, or a
    multiset with max|c[-1] * prod(x - root) - c| > tau_root * max|c|.
    """
    if not np.isfinite(coeffs).all():
        raise RootFindingFailure("polynomial coefficients must be finite")
    c = trim(coeffs)
    if len(c) < 2:
        raise InvalidDimensions("root finding needs degree >= 1")
    # an overflowed companion-matrix entry makes eigvals raise
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            roots = polyroots(c)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(f"companion-matrix eigenvalues failed: {exc}") from None
    roots = _merge_clusters(c, roots)
    worst = max(
        abs(complex(polyval(r, c))) / _coeff_scale(c, r) for r in roots
    )
    if not worst <= tol.tau_root:  # NaN fails too
        raise RootFindingFailure(
            f"root residual {worst:.3e} exceeds tau_root={tol.tau_root:.1e}"
        )
    backward = np.max(np.abs(np.poly(roots)[::-1] * c[-1] - c)) / np.max(np.abs(c))
    if not backward <= tol.tau_root:
        raise RootFindingFailure(f"root backward error {backward:.3e} exceeds "
                                 f"tau_root={tol.tau_root:.1e}")
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


def lift_roots(yroots) -> np.ndarray:
    """Map each y to the two roots of x**2 + y*x - 1 = 0."""
    ys = np.asarray(yroots, dtype=complex)
    disc = np.sqrt(ys * ys + 4.0)
    return np.concatenate(((-ys + disc) / 2.0, (-ys - disc) / 2.0))


def _pairing(avals, bvals, tol: float):
    """match_of_b, pairing bvals[j] with avals[match_of_b[j]] within tol, or None.

    Exact bipartite matching by augmenting paths on the graph of the pairs
    within tol, so clustered or permuted values compare correctly.  A NaN
    distance or bound admits no pair.
    """
    A = np.asarray(avals, dtype=complex).tolist()
    B = np.asarray(bvals, dtype=complex).tolist()
    if len(A) != len(B):
        return None
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

    return match_of_b if all(augment(i, [False] * n) for i in range(n)) else None


def multiset_match(avals, bvals, tol: float) -> bool:
    """Tolerance-based multiset equality: _pairing finds a bijection within tol."""
    return _pairing(avals, bvals, tol) is not None


def reduced_roots(values, tol: float = DEFAULT_TOL.tau_spec) -> np.ndarray:
    """The roots of the reduced polynomial: one y = 1/x - x per pair (x, -1/x) of values.

    _pairing of x against -1/x gives s with x[s(j)] ~ -1/x[j].  Consecutive
    members of a cycle of s pair, and a pair's y comes from its member of
    larger modulus, since 1/x magnifies the error of a small x.  Only an odd
    cycle leaves one over, near +-i where y is flat; sorted by Im y, the
    leftovers pair when each two agree within tol.  Raises NotReciprocal
    otherwise, as for an odd count.
    """
    x = np.asarray(values, dtype=complex).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero value pairs with nothing
        partner_of, y = _pairing(x, -1.0 / x, tol), 1.0 / x - x
    if partner_of is None:
        raise NotReciprocal("the values do not pair as (x, -1/x)")
    ys, left, seen = [], [], [False] * len(x)
    for start in range(len(x)):
        cycle, j = [], start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = partner_of[j]
        ys += [y[max(pair, key=lambda k: abs(x[k]))] for pair in zip(cycle[::2], cycle[1::2])]
        if len(cycle) % 2:
            left.append(y[cycle[-1]])
    left.sort(key=lambda v: v.imag)
    if len(left) % 2 or not all(abs(u - v) <= tol for u, v in zip(left[::2], left[1::2])):
        raise NotReciprocal("i or -i has an odd multiplicity")
    return np.array(ys + left[::2], dtype=complex)


def _lexsorted(vals):
    """Each row of `vals` sorted by real part, ties by imaginary part."""
    return np.take_along_axis(vals, np.lexsort((vals.imag, vals.real)), axis=-1)


def spectrum(M) -> np.ndarray:
    """Eigenvalues of M/sqrt(m), sorted by real part, ties by imaginary part.

    A stack (..., m, m) is diagonalised and sorted in one call each and
    gives the spectra as rows, shape (..., m).
    """
    A = as_stack(M)
    m = A.shape[-1]
    A /= np.sqrt(m)
    return _lexsorted(np.linalg.eigvals(A))


def _block_row_spectrum(row) -> np.ndarray:
    """spectrum of the circulant block forms of the rows (..., 4k), without LAPACK.

    The DFT splits M/sqrt(2k) into k 2x2 blocks [[alpha, beta], [gamma, delta]] of
    the symbols, whose roots (alpha+delta)/2 +- sqrt(((alpha-delta)/2)**2 + beta*gamma)
    do not cancel like tau**2 - 4*det.  The symbols are the DFTs of the block
    form's rows 0 and k, which the Sylvester table takes from the row.
    """
    k = row.shape[-1] // 4
    first = row[..., _sylvester_table(k)[[0, k]]]
    sym = np.fft.ifft(first.reshape(row.shape[:-1] + (2, 2, k)), norm="forward") / np.sqrt(2 * k)
    (alpha, beta), (gamma, delta) = np.moveaxis(sym, (-3, -2), (0, 1))
    mean, root = (alpha + delta) / 2, np.sqrt(((alpha - delta) / 2) ** 2 + beta * gamma)
    return _lexsorted(np.concatenate((mean + root, mean - root), axis=-1))


def circulant_block_spectrum(M) -> np.ndarray:
    """spectrum of M = [[A, B], [C, D]] with circulant k x k blocks, without LAPACK.

    The symbols' 2x2 eigenproblems of _block_row_spectrum, after a check
    that M is the block form of a row.  Raises InvalidDimensions unless M
    has even order and exactly circulant blocks.
    """
    A = as_stack(M)
    m = A.shape[-1]
    if m < 2 or m % 2:
        raise InvalidDimensions(f"circulant blocks need an even order, got {m}")
    k = m // 2
    table = _sylvester_table(k)
    # rows 0 and k hold each entry of the row the table takes from once
    row = np.empty(A.shape[:-2] + (2 * m,), dtype=complex)
    row[..., table[[0, k]]] = A[..., [0, k], :]
    if not np.array_equal(row.take(table, axis=-1), A):
        raise InvalidDimensions("the four blocks are not circulant")
    return _block_row_spectrum(row)


def _cell_width(values, tol: float) -> float:
    """Side of the trace cells that distinct_spectra files spectra in.

    `values` holds the spectra as rows of length m.  Two spectra that
    multiset_match accepts at tol have exact sums within m*tol of each
    other, since |sum(a) - sum(b)| <= sum|a_i - b_sigma(i)|, and each
    computed sum lies within m*eps*scale of its exact value (scale: the
    largest sum|values|).  The width is twice that bound with room to
    spare, so the rounding of sum/width cannot move two matching spectra
    further apart than neighbouring cells.
    """
    m = values.shape[-1]
    scale = np.abs(values).sum(axis=-1).max(initial=0.0)
    return 2.0 * (m * tol + 4.0 * m * np.finfo(float).eps * scale)


@np.errstate(over="ignore", invalid="ignore")
def distinct_spectra(spectra, tol: float) -> list:
    """Row indices of the representatives of the spectra (N, m), in order.

    Each row, in order, becomes a representative unless multiset_match
    accepts it against an earlier one.  Spectra are filed by the complex
    sum of their values in square cells of _cell_width, and only the 3x3
    cells around a spectrum's own can hold a match, so the result equals
    comparing with every representative.  When the width is not a
    positive finite number, or a sum is not finite, all spectra share one
    cell and every representative is compared.

    A row with no earlier row in its 3x3 cells is a representative, found
    in one numpy step; only the other, crowded rows are visited in order.
    Each is first tested against the first row of each of its 3x3 cells:
    rows sorted as by spectrum and within tol position by position match,
    as in-order pairing is a bijection, so a pass against a representative
    decides.  Otherwise the crowded row goes to multiset_match against the
    earlier representatives in its 3x3 cells.
    """
    values = np.asarray(spectra, dtype=complex)
    if values.ndim != 2:
        raise InvalidDimensions(f"expected spectra as rows (N, m), got shape {values.shape}")
    width = _cell_width(values, tol)
    sums = values.sum(axis=-1)
    if not (0.0 < width < math.inf and np.isfinite(sums).all()):
        width, sums = math.inf, np.zeros(len(values), dtype=complex)
    # cell (i, j) as i + j*1j, exact as |sum| / width < 2**50, sorts by i, then j
    cell = np.floor(sums.real / width) + 1j * np.floor(sums.imag / width)
    around = cell[:, None] + np.array([complex(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    occupied, first = np.unique(cell, return_index=True)
    at = np.searchsorted(occupied, around).clip(max=len(occupied) - 1)
    # pairs of a spectrum b and the first spectrum a of one of its 3x3 cells
    b, j = np.nonzero(occupied[at] == around)
    a = first[at[b, j]]
    earlier = a < b
    # tol less a few ulps, as numpy's and Python's abs may round apart; inf - inf fails
    twin = (np.abs(values[a] - values[b]) <= tol * (1 - 8 * np.finfo(float).eps)).all(axis=-1)
    leader = np.full(len(values), -1)
    leader[b[twin & earlier]] = a[twin & earlier]
    crowded = np.zeros(len(values), dtype=bool)
    crowded[b[earlier]] = True
    rep, leader = (~crowded).tolist(), leader.tolist()
    for n in np.flatnonzero(crowded).tolist():
        if leader[n] >= 0 and rep[leader[n]]:
            continue
        near = np.flatnonzero(np.isin(cell[:n], around[n])).tolist()
        rep[n] = not any(rep[r] and multiset_match(values[n], values[r], tol) for r in near)
    return np.flatnonzero(rep).tolist()


def is_normal(M, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    # scaled to entries of modulus <= 1, so the products cannot overflow
    A = as_matrix(M)
    A = A / max(1.0, float(np.max(np.abs(A))))
    H = A.conj().T
    return float(np.max(np.abs(A @ H - H @ A))) <= tol.tau_entry * A.shape[0]


def unitary_equivalent(M1, M2, tol: ToleranceConfig = DEFAULT_TOL, spectra=None) -> bool:
    """Spectral equivalence of normal matrices: equal spectra of M/sqrt(m).

    `spectra`, when given, is the pair (spectrum(M1), spectrum(M2)) that the
    caller has already computed.  Raises NotNormal for non-normal input,
    where equality of spectra does not decide similarity.
    """
    A1 = as_matrix(M1)
    A2 = as_matrix(M2)
    if A1.shape != A2.shape:
        raise InvalidDimensions("matrices must share an order")
    if not is_normal(A1, tol) or not is_normal(A2, tol):
        raise NotNormal("spectral equivalence needs normal matrices")
    s1, s2 = (spectrum(A1), spectrum(A2)) if spectra is None else spectra
    return multiset_match(s1, s2, tol.tau_spec)
