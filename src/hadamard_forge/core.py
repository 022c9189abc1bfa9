"""Core linear algebra for inverse-orthogonal and complex Hadamard matrices.

A matrix O with nonzero complex entries is inverse orthogonal when
O @ (1/O).T == n*I.  If on top of that every entry has modulus one, the
entrywise reciprocal transpose coincides with the conjugate transpose and O
is a complex Hadamard matrix.  Everything here works on plain numpy
complex128 arrays; all operations return fresh arrays and never mutate
their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np


class HadamardForgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(HadamardForgeError, ValueError):
    """A scalar argument is zero, non-finite or otherwise unusable."""


class InvalidDimensions(HadamardForgeError, ValueError):
    """Matrix shapes do not fit the requested operation."""


class SingularBranch(HadamardForgeError, ArithmeticError):
    """A closed-form solution branch hits a vanishing denominator."""


class DegenerateQuadratic(HadamardForgeError, ArithmeticError):
    """Leading coefficient of a quadratic solve vanished."""


class DegenerateCubic(HadamardForgeError, ArithmeticError):
    """Leading coefficient of a cubic solve vanished."""


class NotReciprocal(HadamardForgeError, ValueError):
    """Polynomial does not admit the degree-halving substitution."""


class NotNormal(HadamardForgeError, ValueError):
    """Matrix is not normal, so spectral equivalence does not apply."""


class RootFindingFailure(HadamardForgeError, ArithmeticError):
    """Polynomial roots miss their residual or backward-error bound, or a coefficient is NaN/inf."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances: entrywise residuals, polynomial roots, spectra."""

    tau_entry: float = 1e-10
    tau_root: float = 1e-9
    tau_spec: float = 1e-8

    def __post_init__(self):
        if not all(0 < t < np.inf for t in (self.tau_entry, self.tau_root, self.tau_spec)):
            raise InvalidParameter("tolerances must be positive and finite")


DEFAULT_TOL = ToleranceConfig()


# numpy's SeedSequence hash constants and PCG64's multiplier
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_B32, _LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)


@functools.cache
def _hash_constants(at, count, init, mult):
    """SeedSequence's hash constants init * mult**j for j = at .. at + count, as uint32."""
    h = np.uint32([init * pow(mult, j, 2**32) % 2**32 for j in range(at, at + count + 1)])
    h.flags.writeable = False
    return h


def _hashmix(rows, at, init=_HASH_A, mult=_MULT_A):
    """SeedSequence's hashmix of each of the uint32 `rows`, with hash constants at, at+1, ..."""
    h = _hash_constants(at, len(rows), init, mult)
    v = (rows ^ h[:-1, None]) * h[1:, None]
    return v ^ v >> np.uint32(16)


def _words128(x):
    """The 128-bit integers x as uint64 arrays (hi, lo), read-only."""
    hi, lo = np.uint64([[v >> 64 for v in x], [v & 2**64 - 1 for v in x]])
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


def _mul128(ah, al, bh, bl):
    """(ah, al) * (bh, bl) mod 2**128 on uint64 word pairs, from 32-bit partial products."""
    a1, a0, b1, b0 = al >> _B32, al & _LOW32, bl >> _B32, bl & _LOW32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _B32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _B32) + (p10 >> _B32) + (mid >> _B32) + ah * bl + al * bh
    return hi, mid << _B32 | p00 & _LOW32


@functools.cache
def _pcg_jumps(k):
    """Constants (A, C) with PCG64's state before draw j = A_j*init + C_j*inc, j = 1..k.

    Seeding steps twice, from state 0 with init added after the first step,
    so the state before draw j is MULT**(j+1) * init + (sum of MULT**t for
    t < j + 2) * inc, all mod 2**128.
    """
    A = [pow(_PCG_MULT, j + 1, 2**128) for j in range(1, k + 1)]
    C = [sum(pow(_PCG_MULT, t, 2**128) for t in range(j + 2)) % 2**128 for j in range(1, k + 1)]
    return _words128(A) + _words128(C)


def torus_draws(seed: int, count: int, k: int) -> np.ndarray:
    """The (count, k) array whose row i is exp(2j*pi*default_rng([seed, i]).random(k)).

    Equal bit for bit: SeedSequence's pool mixing runs on uint32 arrays over
    all i at once, then each row's PCG64 states of all k draws come from one
    jump-ahead multiply-add of 128-bit numbers held as uint64 word pairs.
    Raises InvalidParameter for a negative seed.
    """
    if int(seed) < 0:
        raise InvalidParameter(f"seed must be non-negative, got {seed}")
    words = [int(seed) >> s & 0xFFFFFFFF for s in range(0, max(int(seed).bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, 4), count), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count)
    pool, used = _hashmix(entropy[:4], 0), 4
    for src in range(len(entropy)):  # each pool word into the others, then entropy past 4
        dst = [j for j in range(4) if j != src]
        word = np.broadcast_to(pool[src] if src < 4 else entropy[src], (len(dst), count))
        v = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * _hashmix(word, used)
        pool[dst], used = v ^ v >> np.uint32(16), used + len(dst)
    w = _hashmix(pool[[0, 1, 2, 3] * 2], 0, _HASH_B, _MULT_B).astype(np.uint64)
    # PCG64 seeds from the words q: init = (q0, q1), inc = 2*(q2, q3) + 1
    q = (w[1::2] << _B32 | w[::2])[:, :, None]
    one = np.uint64(1)
    ah, al, ch, cl = _pcg_jumps(k)
    sh, sl = _mul128(q[0], q[1], ah, al)
    th, tl = _mul128(q[2] << one | q[3] >> np.uint64(63), q[3] << one | one, ch, cl)
    lo = sl + tl
    hi = sh + th + (lo < sl)
    # XSL-RR output: hi ^ lo rotated right by the top six bits of the state
    x, rot = hi ^ lo, hi >> np.uint64(58)
    out = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return np.exp(2j * np.pi * ((out >> np.uint64(11)).astype(float) * 2.0**-53))


def as_stack(M) -> np.ndarray:
    """Copy input to a stack (..., m, m) of square complex matrices.

    A 2-d input is the stack of one matrix.  NaN/Inf entries are rejected.
    """
    A = np.array(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InvalidDimensions(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidParameter("matrix entries must be finite")
    return A


def as_matrix(M) -> np.ndarray:
    """Copy input to a square complex matrix, rejecting NaN/Inf entries."""
    A = as_stack(M)
    if A.ndim != 2:
        raise InvalidDimensions(f"expected a square matrix, got shape {A.shape}")
    return A


def _require_nonzero(A: np.ndarray):
    if np.any(A == 0):
        raise InvalidParameter("all entries must be nonzero")


def _per_matrix(values):
    """A plain float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def circulant(first_row, negacyclic=False) -> np.ndarray:
    """Circulant matrix whose row i is `first_row` right-shifted i times.

    circulant([a, b, c]) has rows (a, b, c), (c, a, b), (b, c, a).  The
    negacyclic form negates the entries that wrap round, below the diagonal:
    circulant([a, b], True) is [[a, b], [-b, a]].  A stack of first rows
    (..., k) gives the stack of blocks (..., k, k).
    """
    row = np.asarray(first_row, dtype=complex)
    if row.ndim < 1 or row.shape[-1] < 1:
        raise InvalidDimensions("first_row must be a nonempty sequence")
    if np.any(row == 0) or not np.all(np.isfinite(row)):
        raise InvalidParameter("circulant entries must be finite and nonzero")
    k = row.shape[-1]
    shift = np.arange(k)[None, :] - np.arange(k)[:, None]
    C = row.take(shift % k, axis=-1)
    if negacyclic:
        # negation: a complex multiply by -1 gives +0.0 where negation gives -0.0
        C[..., shift < 0] = -C[..., shift < 0]
    return C


# a subnormal entry's reciprocal overflows; callers reject or report the
# non-finite result
@np.errstate(over="ignore", invalid="ignore")
def _inv_transpose(A: np.ndarray) -> np.ndarray:
    return (1.0 / A).swapaxes(-1, -2).copy()


def _finite_inv_transpose(A: np.ndarray) -> np.ndarray:
    R = _inv_transpose(A)
    if not np.all(np.isfinite(R)):
        raise InvalidParameter("entries must have finite reciprocals")
    return R


def entrywise_inv_transpose(M) -> np.ndarray:
    """Entrywise reciprocal of the transpose: result[i, j] = 1 / M[j, i].

    Accepts a stack (..., m, m) and transposes each matrix.  A zero entry,
    or one whose reciprocal is not finite, raises InvalidParameter.
    """
    A = as_stack(M)
    _require_nonzero(A)
    return _finite_inv_transpose(A)


def assemble_sylvester(A, B) -> np.ndarray:
    """Stack blocks [[A, B], [1/B^t, -1/A^t]] into a 2n x 2n matrix.

    Stacks of blocks (..., n, n) give the stack (..., 2n, 2n).  A zero
    entry, or one whose reciprocal is not finite, raises InvalidParameter.
    """
    A = as_stack(A)
    B = as_stack(B)
    if A.shape != B.shape:
        raise InvalidDimensions(f"block shapes differ: {A.shape} vs {B.shape}")
    _require_nonzero(A)
    _require_nonzero(B)
    n = A.shape[-1]
    M = np.empty(A.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    M[..., :n, :n] = A
    M[..., :n, n:] = B
    M[..., n:, :n] = _finite_inv_transpose(B)
    M[..., n:, n:] = -_finite_inv_transpose(A)
    return M


@functools.cache
def _sylvester_table(k, negacyclic=False) -> np.ndarray:
    """Index table that takes the row (r1, r2, 1/r2, -1/r1) to the Sylvester form.

    r1 and r2 are the first rows of the k x k (nega)circulant blocks A and
    B; taking the table from the row along its last axis gives the (2k, 2k)
    matrix assemble_sylvester(A, B).  With the negacyclic twist the row is
    followed by its negation, which the entries that wrap round index.
    """
    i, j = np.indices((k, k))
    upper, lower = (j - i) % k, (i - j) % k
    table = np.block([[upper, k + upper], [2 * k + lower, 3 * k + lower]])
    if negacyclic:
        table += 4 * k * np.block([[j < i, j < i], [i < j, i < j]])
    table.flags.writeable = False
    return table


# an overflowed reciprocal makes the residual inf or NaN, never finite
@np.errstate(over="ignore", invalid="ignore")
def _orthogonality_residual(A: np.ndarray) -> np.ndarray:
    m = A.shape[-1]
    R = A @ _inv_transpose(A)
    R -= m * np.eye(m)
    return np.max(np.abs(R), axis=(-2, -1))


def _unimodularity_deviation(A: np.ndarray) -> np.ndarray:
    return np.max(np.abs(np.abs(A) - 1.0), axis=(-2, -1))


def orthogonality_residual(M):
    """Max-abs deviation of M @ (1/M)^t from m*I; one value per matrix of a stack."""
    A = as_stack(M)
    _require_nonzero(A)
    return _per_matrix(_orthogonality_residual(A))


def unimodularity_deviation(M):
    """Max over entries of | |entry| - 1 |; one value per matrix of a stack."""
    return _per_matrix(_unimodularity_deviation(as_stack(M)))


def is_hadamard(M, tol: ToleranceConfig = DEFAULT_TOL):
    """True when all entries are unimodular and rows are mutually orthogonal.

    Never raises: zero or non-finite entries or a bad shape simply return
    False.  A stack (..., m, m) gives a boolean array with one decision per
    matrix, each the decision for that matrix alone.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        return False
    # NaN deviations compare False; a matrix that passes has no zero or
    # non-finite entry, so only those go through the reciprocal residual
    ok = np.asarray(_unimodularity_deviation(A) <= tol.tau_entry)
    ok[ok] = _orthogonality_residual(A[ok]) <= tol.tau_entry * A.shape[-1]
    return bool(ok) if ok.ndim == 0 else ok


def dephase(M) -> np.ndarray:
    """Equivalent matrix with first row and column scaled to exact ones.

    Rows are normalised by their first entry, then columns by the updated
    first row.  Diagonal scalings preserve inverse orthogonality, and for
    Hadamard inputs the scalings are phases, so the property is kept.
    Idempotent bit for bit: a row or column already led by 1 is not
    divided, since dividing by 1 + 0j can flip the sign of a zero part.
    """
    A = as_matrix(M)
    if np.any(A[:, 0] == 0) or np.any(A[0, :] == 0):
        raise InvalidParameter("dephasing needs nonzero first row and column")
    np.divide(A, A[:, [0]], out=A, where=A[:, [0]] != 1)
    np.divide(A, A[[0], :], out=A, where=A[[0], :] != 1)
    A[:, 0] = 1.0
    A[0, :] = 1.0
    return A


def permutation_matrix(perm) -> np.ndarray:
    """Matrix P with P[i, perm[i]] = 1, so (P @ M)[i] = M[perm[i]]."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidParameter(f"not a permutation of 0..{n - 1}: {perm}")
    P = np.zeros((n, n), dtype=complex)
    P[np.arange(n), perm] = 1.0
    return P


def check_equivalence_certificate(
    H1, H2, D1, D2, P1, P2, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Verify H1 == diag(D1) @ P1 @ H2 @ P2 @ diag(D2) within tau_entry.

    D1, D2 are sequences of unimodular phases.  P1, P2 are permutations,
    either as 0/1 matrices or as index sequences; index sequences select
    rows and columns of H2 directly, i.e. the transformed H2 has row i
    equal to H2[P1[i]] and column j equal to H2[:, P2[j]].
    """
    A1 = as_matrix(H1)
    A2 = as_matrix(H2)
    if A1.shape != A2.shape:
        raise InvalidDimensions("certificate matrices must share an order")
    d1 = np.asarray(D1, dtype=complex)
    d2 = np.asarray(D2, dtype=complex)
    if np.max(np.abs(np.abs(d1) - 1)) > tol.tau_entry or np.max(
        np.abs(np.abs(d2) - 1)
    ) > tol.tau_entry:
        raise InvalidParameter("certificate diagonals must be unimodular")
    P1 = np.asarray(P1)
    P2 = np.asarray(P2)
    if P1.ndim == 1:
        P1 = permutation_matrix(P1)
    if P2.ndim == 1:
        P2 = permutation_matrix(P2).T
    rhs = np.diag(d1) @ P1 @ A2 @ P2 @ np.diag(d2)
    return float(np.max(np.abs(A1 - rhs))) <= tol.tau_entry


def search_equivalence_certificate(H1, H2, tol: ToleranceConfig = DEFAULT_TOL):
    """Brute-force a certificate (D1, P1, P2, D2) with H1 = D1 P1 H2 P2 D2.

    Test oracle for small orders (factorial in n, usable up to n = 6).  The
    search anchors one row and one column of H2 onto position 0, dephases,
    and matches the remaining core under column permutations; dephasing
    absorbs both diagonals, so only permutations are enumerated.  Returns
    None when no certificate exists at the given tolerance.
    """
    A1 = as_matrix(H1)
    A2 = as_matrix(H2)
    if A1.shape != A2.shape:
        raise InvalidDimensions("matrices must share an order")
    n = A1.shape[0]
    digits = max(1, int(-np.log10(tol.tau_entry)) - 2)

    def rowkey(v):
        return tuple(np.round(v, digits) + 0.0)

    T1 = dephase(A1)
    target = {rowkey(T1[i, :]): i for i in range(1, n)}
    for r in range(n):
        rows0 = [r] + [x for x in range(n) if x != r]
        for c in range(n):
            cols0 = [c] + [x for x in range(n) if x != c]
            K = dephase(A2[np.ix_(rows0, cols0)])
            for corecols in permutations(range(1, n)):
                cols = [0] + list(corecols)
                Kp = K[:, cols]
                sigma = [0] * n
                seen = set()
                for i in range(1, n):
                    j = target.get(rowkey(Kp[i, :]))
                    if j is None or j in seen:
                        sigma = None
                        break
                    seen.add(j)
                    sigma[j] = i
                if sigma is None:
                    continue
                row_map = [rows0[sigma[i]] for i in range(n)]
                col_map = [cols0[cols[j]] for j in range(n)]
                K2 = A2[np.ix_(row_map, col_map)]
                D1 = A1[:, 0] / K2[:, 0]
                K3 = K2 * D1[:, None]
                D2 = A1[0, :] / K3[0, :]
                if (
                    np.max(np.abs(np.abs(D1) - 1)) <= tol.tau_entry
                    and np.max(np.abs(np.abs(D2) - 1)) <= tol.tau_entry
                    and check_equivalence_certificate(
                        A1, A2, D1, D2, row_map, col_map, tol
                    )
                ):
                    return D1, row_map, col_map, D2
    return None
