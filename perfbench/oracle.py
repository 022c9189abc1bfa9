"""Reference computations made apart from the program under test.

Only numpy and the standard library are used here; nothing imports
hadamard_forge, so a fault in the program cannot hide inside its own check.
Tolerances are the program's documented defaults (tau_entry = 1e-10).
"""

from __future__ import annotations

import json
import re

import numpy as np

TAU_ENTRY = 1e-10

_FLOAT = r"(?:nan|inf|\d+(?:\.\d*)?(?:e[+-]?\d+)?)"
_COMPLEX = re.compile(rf"^(-?{_FLOAT})([+-])({_FLOAT})i$")


def parse_complex(text: str) -> complex:
    """Parse a complex number as the CLI prints it, e.g. '-0.5+1e-05i'."""
    m = _COMPLEX.match(text.strip())
    if m is None:
        raise ValueError(f"not a printed complex number: {text!r}")
    re_part, sign, im_part = m.groups()
    im = float(im_part)
    return complex(float(re_part), im if sign == "+" else -im)


def read_matrix(path) -> np.ndarray:
    """Read a JSON matrix document: {"order": n, "entries": [[[re, im]]]}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    A = np.array([[complex(re_, im) for re_, im in row] for row in doc["entries"]])
    if A.shape != (doc["order"], doc["order"]):
        raise ValueError(f"{path}: order field disagrees with entries")
    return A


def write_matrix(path, A, family: str):
    doc = {
        "order": len(A),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
        "metadata": {"family": family},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def circulant(first_row) -> np.ndarray:
    """Row i is `first_row` shifted right i times."""
    row = np.asarray(first_row, dtype=complex)
    return np.array([np.roll(row, i) for i in range(len(row))])


def block_matrix(first, second) -> np.ndarray:
    """[[A, B], [1/B^T, -1/A^T]] for circulant blocks A and B."""
    A, B = circulant(first), circulant(second)
    return np.block([[A, B], [1.0 / B.T, -1.0 / A.T]])


def is_hadamard(M, tau=TAU_ENTRY) -> bool:
    """Unimodular entries and M M^H = m I, both within tau (times m)."""
    m = len(M)
    if np.max(np.abs(np.abs(M) - 1.0)) > tau:
        return False
    return bool(np.max(np.abs(M @ M.conj().T - m * np.eye(m))) <= tau * m)


def inverse_orthogonality_residual(M) -> float:
    """max |M (1/M)^T - m I| relative to max|M| * max|1/M|."""
    m = len(M)
    R = M @ (1.0 / M).T - m * np.eye(m)
    return float(np.max(np.abs(R)) / (np.max(np.abs(M)) * np.max(np.abs(1.0 / M))))


def scaled_eigvals(M) -> np.ndarray:
    return np.linalg.eigvals(M / np.sqrt(len(M)))


def power_sums(values, count: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    return np.array([np.sum(v**k) for k in range(1, count + 1)])


def same_multiset(a, b, tol: float) -> bool:
    """Equal multisets of values on (or near) the unit circle.

    The power sums p_1..p_n fix a multiset of n numbers (Newton's
    identities), and values within tol of each other move p_k by at most
    k * n * tol, so no matching or ordering is needed.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = len(a)
    if n != len(b):
        return False
    if n == 0:
        return True
    diff = np.abs(power_sums(a, n) - power_sums(b, n)) / np.arange(1, n + 1)
    return bool(np.max(diff) <= n * tol)


def lift(y: complex) -> tuple:
    """The two roots of x**2 + y*x - 1 = 0."""
    disc = np.sqrt(complex(y) * y + 4.0)
    return (-y + disc) / 2.0, (-y - disc) / 2.0


def m6_points(b, c, d, e):
    """Every (a, f) making [[circ(a,b,c), circ(d,e,f)], ...] inverse orthogonal.

    The two order-6 conditions are the cyclic ratio sums
        S1 = a/b + b/c + c/a + d/e + e/f + f/d = 0,
        S2 = b/a + c/b + a/c + e/d + f/e + d/f = 0.
    Times f, each is a monic quadratic in f with constant term d*e, so their
    difference d*K1(a) - e*K2(a) = 0 (K = the f-free parts) fixes a; f then
    solves f**2 + d*K1*f + d*e = 0.
    """
    for a in np.roots([d / b - e / c, d * b / c + d * d / e - e * c / b - e * e / d,
                       d * c - e * b]):
        k1 = a / b + b / c + c / a + d / e
        for f in np.roots([1.0, d * k1, d * e]):
            yield complex(a), complex(f)
