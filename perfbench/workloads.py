"""The three workloads: a fixed list of operations each, and their checks.

One round of a workload is its whole item list, derived from the
workload seed alone.  An item is a short list of CLI argument vectors run
through `cli.main` and timed as one operation, or as one operation per call
where `calls_are_ops` is set; its outputs are checked against `oracle`,
which never imports the program.
"""

from __future__ import annotations

import os
import random
import re

import numpy as np

import oracle


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _op_seeds(tag, seed, count):
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


# ------------------------------------------------------------------ sweep6

class Sweep6:
    """`sweep 6` over the paper's four-parameter family, one seed per op."""

    name = "sweep6"
    uses_files = False
    calls_are_ops = False

    def __init__(self, seed, workdir, call, smoke=False):
        self.samples = 8 if smoke else 100
        self.seeds = _op_seeds(self.name, seed, 2 if smoke else 64)
        self.size = len(self.seeds)

    def argvs(self, i, opdir):
        return [["sweep", "6", "--samples", str(self.samples),
                 "--seed", str(self.seeds[i])]]

    def check(self, i, calls, opdir):
        (call,) = calls
        expect(call.rc == 0, f"sweep exit code {call.rc}")
        fields = dict(line.split(": ", 1) for line in call.out.splitlines())
        expect(sorted(fields) == ["distinct_spectra", "hadamard_hits", "samples", "seed"],
               f"sweep printed {sorted(fields)}")
        expect(fields["samples"] == str(self.samples), "sweep echoes another sample count")
        expect(fields["seed"] == str(self.seeds[i]), "sweep echoes another seed")
        hits, distinct = int(fields["hadamard_hits"]), int(fields["distinct_spectra"])
        expect(distinct <= hits <= 4 * self.samples,
               f"distinct_spectra {distinct}, hadamard_hits {hits}")
        own_hits, own_distinct = own_sweep(self.seeds[i], self.samples)
        expect(hits == own_hits, f"hadamard_hits {hits}, own count {own_hits}")
        expect(distinct == own_distinct,
               f"distinct_spectra {distinct}, own count {own_distinct}")
        return hits


def own_sweep(seed, samples):
    """Hadamard hits and distinct spectra of `sweep 6`, recomputed.

    The torus point of sample i is drawn as the CLI documents it:
    (b, c, d, e) = exp(2 pi i * default_rng([seed, i]).random(4)).  Every
    (a, f) solving the order-6 conditions is tried; spectra are told apart
    by the power sums of the eigenvalues of M/sqrt(6).
    """
    sums = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        b, c, d, e = np.exp(2j * np.pi * rng.random(4))
        for a, f in oracle.m6_points(b, c, d, e):
            M = oracle.block_matrix((a, b, c), (d, e, f))
            if oracle.is_hadamard(M):
                sums.append(oracle.power_sums(oracle.scaled_eigvals(M), 6))
    reps = np.empty((0, 6), dtype=complex)
    for p in sums:
        if not len(reps) or np.min(np.max(np.abs(reps - p), axis=1)) > 1e-7:
            reps = np.vstack([reps, p])
    return len(sums), len(reps)


# ------------------------------------------------------------------ solve8

# the fixing (a, b, c, d, e) = (1, i, -1, -i, e^{0.3i}); negative values
# ride in one comma-joined token
FIXED_TOKENS = "0,1/2pi,1pi,-1/2pi,0.3"
FIXED_VALUES = np.exp(1j * np.array([0.0, np.pi / 2, np.pi, -np.pi / 2, 0.3]))
RESTARTS = 64

_HEADER = re.compile(
    r"restarts: (\d+) converged: (\d+) degenerate: (\d+) no-convergence: (\d+)"
)


class Solve8:
    """Numeric `solve 8` for f, g, h on one torus fixing, one seed per op."""

    name = "solve8"
    uses_files = False
    calls_are_ops = False

    def __init__(self, seed, workdir, call, smoke=False):
        self.seeds = _op_seeds(self.name, seed, 1 if smoke else 36)
        self.size = len(self.seeds)

    def argvs(self, i, opdir):
        return [["solve", "8", "--unknown", "f,g,h", "--values", FIXED_TOKENS,
                 "--seed", str(self.seeds[i])]]

    def check(self, i, calls, opdir):
        (call,) = calls
        expect(call.rc == 0, f"solve exit code {call.rc}")
        lines = call.out.splitlines()
        header = _HEADER.fullmatch(lines[0]) if lines else None
        expect(header is not None, "solve printed no restart summary")
        restarts, converged, degenerate, failed = map(int, header.groups())
        expect(restarts == RESTARTS, f"{restarts} restarts")
        expect(converged + degenerate + failed == restarts,
               "converged + degenerate + no-convergence != restarts")
        solutions, flags = [], []
        for line in lines[1:]:
            if line.startswith("solution: "):
                vals = dict(tok.split("=", 1) for tok in line.split()[1:])
                solutions.append(np.array([oracle.parse_complex(vals[n])
                                           for n in "abcdefgh"]))
            elif line.startswith("    matrix: "):
                flags.append("hadamard=true" in line.split())
            else:
                expect(line.startswith("no verified solutions") and not solutions,
                       f"unexpected solve line {line!r}")
        expect(len(flags) == len(solutions) <= converged,
               f"{len(solutions)} solutions, {len(flags)} matrix lines, "
               f"{converged} converged")
        for x, flag in zip(solutions, flags):
            expect(np.max(np.abs(x[:5] - FIXED_VALUES)) <= 1e-12,
                   "fixed parameters do not echo the inputs")
            M = oracle.block_matrix(x[:4], x[4:])
            res = oracle.inverse_orthogonality_residual(M)
            expect(res <= 1e-8, f"solution residual {res:.2e}")
            expect(oracle.is_hadamard(M) == flag, "hadamard flag disagrees")
        for j, x in enumerate(solutions):
            for y in solutions[:j]:
                expect(np.max(np.abs(x - y)) > 1e-7, "repeated solution")
        return len(solutions)


# ---------------------------------------------------------------- pipeline

LANDMARKS = ("d6", "d61", "a6", "b6", "d81")
# (output, left, right): orders 12, 12, 16 and 24
DOUBLES = (("m12a", "a6", "b6"), ("m12b", "m6", "m6"),
           ("m16", "d81", "d81"), ("m24", "m12a", "m12b"))
MATRICES = LANDMARKS + ("m6",) + tuple(out for out, _, _ in DOUBLES)
LIFT_TOL = 1e-8  # the program's spectrum tolerance, tau_spec


class Pipeline:
    """gen -> double -> verify -> spectrum --reduce -> equiv, as one round.

    Every matrix is checked with `verify` and `spectrum --reduce`, and
    compared by `equiv` with a permutation-similar copy (answer 0) and with
    its row-shifted form, whose spectrum differs (answer 1).  The two
    partner files are inputs written once, at set-up.
    """

    name = "pipeline"
    uses_files = True
    # Every chain is the same, so a tail over chains would measure only the
    # machine's load; over calls it is set by the larger matrices' commands.
    calls_are_ops = True

    def __init__(self, seed, workdir, call, smoke=False):
        rng = random.Random(f"{self.name}:{seed}")
        self.m6_params, self.m6_branch = _m6_point(rng)
        self.size = 1
        self.inputs = os.path.join(workdir, "inputs")
        os.makedirs(self.inputs)
        for argv in self._build_argvs(self.inputs):
            expect(call(argv).rc == 0, f"set-up call {argv} failed")
        self.expected = {}
        for name in MATRICES:
            X = oracle.read_matrix(self._path(self.inputs, name))
            m = len(X)
            perm = list(range(m))
            rng.shuffle(perm)
            similar = X[np.ix_(perm, perm)]
            ev = oracle.scaled_eigvals(X)
            for shift in range(1, m):
                other = np.roll(X, shift, axis=0)
                if not oracle.same_multiset(ev, oracle.scaled_eigvals(other), 1e-6):
                    break
            else:
                raise CheckFailed(f"no row shift of {name} changes its spectrum")
            expect(oracle.same_multiset(ev, oracle.scaled_eigvals(similar), 1e-9),
                   f"permuted {name} changed its spectrum")
            oracle.write_matrix(self._path(self.inputs, name + ".similar"), similar,
                                "permutation-similar")
            oracle.write_matrix(self._path(self.inputs, name + ".other"), other,
                                "row-shifted")
            self.expected[name] = {
                "order": m,
                "eigvals": ev,
                # reciprocal: the eigenvalues pair as (x, -1/x)
                "reciprocal": oracle.same_multiset(ev, -1.0 / ev, 1e-9),
            }

    @staticmethod
    def _path(directory, name):
        return os.path.join(directory, name + ".json")

    def _build_argvs(self, d):
        argvs = [["gen", name, "--out", self._path(d, name)] for name in LANDMARKS]
        argvs.append(["gen", "m6", "--params", *self.m6_params,
                      "--branch", *self.m6_branch, "--out", self._path(d, "m6")])
        argvs += [["double", self._path(d, a), self._path(d, b),
                   "--out", self._path(d, out)] for out, a, b in DOUBLES]
        return argvs

    def argvs(self, i, opdir):
        argvs = self._build_argvs(opdir)
        for name in MATRICES:
            path = self._path(opdir, name)
            argvs += [
                ["verify", path],
                ["spectrum", path, "--reduce"],
                ["equiv", path, self._path(self.inputs, name + ".similar")],
                ["equiv", path, self._path(self.inputs, name + ".other")],
            ]
        return argvs

    def check(self, i, calls, opdir):
        built = len(LANDMARKS) + 1 + len(DOUBLES)
        for call in calls[:built]:
            expect(call.rc == 0, f"{call.argv[:2]} exit code {call.rc}")
        orders = {}
        for name in MATRICES:
            X = oracle.read_matrix(self._path(opdir, name))
            orders[name] = len(X)
            expect(oracle.is_hadamard(X), f"{name} is not Hadamard")
            expect(oracle.same_multiset(oracle.scaled_eigvals(X),
                                        self.expected[name]["eigvals"], 1e-9),
                   f"{name} differs from the set-up copy")
        for out, a, b in DOUBLES:
            expect(orders[out] == 2 * orders[a] == 2 * orders[b],
                   f"{out} has order {orders[out]}")
        for k, name in enumerate(MATRICES):
            verify, spectrum, same, other = calls[built + 4 * k: built + 4 * k + 4]
            self._check_verify(name, verify)
            self._check_spectrum(name, spectrum)
            expect(same.rc == 0 and same.out.endswith("unitary-equivalent: true\n"),
                   f"equiv {name} with its similar copy: exit {same.rc}")
            expect(other.rc == 1 and other.out.endswith("unitary-equivalent: false\n"),
                   f"equiv {name} with its row-shifted form: exit {other.rc}")
        return len(MATRICES)

    def _check_verify(self, name, call):
        lines = call.out.splitlines()
        m = self.expected[name]["order"]
        expect(call.rc == 0 and len(lines) == 4, f"verify {name}: exit {call.rc}")
        expect(lines[0] == f"order: {m}", f"verify {name}: {lines[0]!r}")
        expect(lines[3] == "hadamard: true", f"verify {name}: {lines[3]!r}")

    def _check_spectrum(self, name, call):
        exp = self.expected[name]
        m = exp["order"]
        lines = call.out.splitlines()
        expect(call.rc == 0 and len(lines) > m, f"spectrum {name}: exit {call.rc}")
        printed = [oracle.parse_complex(s) for s in lines[:m]]
        expect(oracle.same_multiset(printed, exp["eigvals"], 1e-9),
               f"spectrum {name} differs from eigvals(M/sqrt(m))")
        if not exp["reciprocal"]:
            expect(lines[m:] == ["reduced: not reciprocal"],
                   f"spectrum {name}: {lines[m:]!r}")
            return
        expect(lines[m] == "reduced-roots:" and len(lines) == m + 1 + m // 2,
               f"spectrum {name} --reduce printed {lines[m:]!r}")
        lifted = [x for s in lines[m + 1:] for x in oracle.lift(oracle.parse_complex(s))]
        expect(oracle.same_multiset(lifted, exp["eigvals"], LIFT_TOL),
               f"reduced roots of {name} do not lift onto its spectrum")


def _m6_point(rng):
    """Radian tokens for (b, c, d, e) on which all four (a, f) are Hadamard."""
    while True:
        thetas = [f"{rng.uniform(0.0, 2 * np.pi):.6f}" for _ in range(4)]
        b, c, d, e = np.exp(1j * np.array([float(t) for t in thetas]))
        if abs(b * e - c * d) < 1e-3:
            continue  # the a-quadratic collapses near b*e = c*d
        points = list(oracle.m6_points(b, c, d, e))
        if len(points) == 4 and all(
            oracle.is_hadamard(oracle.block_matrix((a, b, c), (d, e, f)))
            for a, f in points
        ):
            return thetas, [rng.choice(("f+", "f-")), rng.choice(("a+", "a-"))]


WORKLOADS = {cls.name: cls for cls in (Sweep6, Solve8, Pipeline)}
