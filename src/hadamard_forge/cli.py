"""Command-line interface and matrix file I/O.

This is the only module that touches files or streams.  Matrices travel as
JSON documents {"order": n, "entries": [[[re, im], ...], ...], "metadata":
{...}} whose floats round-trip bit-exactly, or as CSV rows of re+imi
entries for human inspection.

Exit codes are a stable contract: 0 success / equivalent, 1 verified
false / not equivalent, 2 constraint or construction failure, 64 usage
error, 65 parse error, 70 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import inspect
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import constraints, core, families, spectra
from .core import HadamardForgeError, InvalidDimensions, InvalidParameter, ToleranceConfig

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_CONSTRAINT = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_NUMERIC = 70

ENV_TOL = "HADAMARD_FORGE_TOL"


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# ------------------------------------------------------------- value parsing

def split_values(tokens) -> list:
    """Flatten value tokens, splitting on commas.

    Values starting with '-' (e.g. "-1/2pi") would be eaten by the option
    parser as flags, so lists may be passed as a single comma-joined token.
    """
    out = []
    for token in tokens or []:
        out.extend(t for t in str(token).split(",") if t.strip())
    return out


def parse_phase(text: str) -> complex:
    """Parse a command-line scalar.

    Accepts rational multiples of pi ("3/4pi", "-pi", "2pi"), decimal
    radians ("0.25"), both mapped through exp(i*theta), or a literal
    complex number when an 'i'/'j' is present ("1+2i", "-i", "2.95+0i").
    A value that does not give a finite complex number is a usage error.
    """
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise CliError("empty parameter value", EXIT_USAGE)
    try:
        # a non-finite angle gives NaN, reported below rather than warned about
        with np.errstate(invalid="ignore"):
            if s.endswith("pi"):
                frac = Fraction({"": "1", "+": "1", "-": "-1"}.get(s[:-2], s[:-2]))
                z = complex(np.exp(1j * np.pi * float(frac)))
            elif "i" in s or "j" in s:
                z = complex(s.replace("i", "j"))
            else:
                z = complex(np.exp(1j * float(s)))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(f"bad parameter {text!r}: {exc}", EXIT_USAGE)
    if not cmath.isfinite(z):
        raise CliError(f"parameter {text!r} is not finite", EXIT_USAGE)
    return z


def format_complex(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    sign = "+" if im >= 0 or np.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _parse_complex_token(token: str) -> complex:
    return complex(token.strip().replace("i", "j"))


# ---------------------------------------------------------------- matrix I/O

def serialize_matrix(M, metadata=None, fmt="json") -> str:
    A = core.as_matrix(M)
    meta = dict(metadata or {})
    if fmt == "json":
        doc = {
            "order": A.shape[0],
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
            "metadata": meta,
        }
        return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [f"# {k}: {meta[k]}" for k in sorted(meta)]
        lines += [",".join(format_complex(z) for z in row) for row in A]
        return "\n".join(lines) + "\n"
    raise CliError(f"unknown format {fmt!r}", EXIT_USAGE)


def parse_matrix(text: str):
    """Parse a JSON or CSV matrix document; returns (matrix, metadata)."""
    stripped = text.lstrip()
    if not stripped:
        raise CliError("empty matrix file", EXIT_PARSE)
    try:
        if stripped[0] == "{":
            doc = json.loads(text)
            entries = doc["entries"]
            A = np.array(
                [[complex(p[0], p[1]) for p in row] for row in entries],
                dtype=complex,
            )
            order = int(doc.get("order", A.shape[0]))
            if A.shape != (order, order):
                raise CliError("order field disagrees with entries", EXIT_PARSE)
            return core.as_matrix(A), dict(doc.get("metadata", {}))
        meta = {}
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, v = body.split(":", 1)
                    meta[k.strip()] = v.strip()
                continue
            rows.append([_parse_complex_token(tok) for tok in line.split(",")])
        return core.as_matrix(np.array(rows, dtype=complex)), meta
    except (ValueError, TypeError, KeyError, IndexError, OverflowError,
            RecursionError, HadamardForgeError) as exc:
        raise CliError(f"cannot parse matrix file: {exc}", EXIT_PARSE)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}", EXIT_PARSE)


def _write_output(text: str, out):
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out!r}: {exc}", EXIT_USAGE)


def _sorted_for_print(values, tau):
    vals = list(values)
    vals.sort(key=lambda z: (round(z.real / tau), round(z.imag / tau), z.real, z.imag))
    return vals


# ------------------------------------------------------------------ commands

def _tolerances(args) -> ToleranceConfig:
    """The flags' tolerances; tau_entry falls back to HADAMARD_FORGE_TOL."""
    tau_entry = args.tol_entry
    try:
        if tau_entry is None:
            env = os.environ.get(ENV_TOL)
            tau_entry = float(env) if env else ToleranceConfig.tau_entry
        return ToleranceConfig(
            tau_entry=tau_entry,
            tau_root=args.tol_root if args.tol_root is not None else ToleranceConfig.tau_root,
            tau_spec=args.tol_spec if args.tol_spec is not None else ToleranceConfig.tau_spec,
        )
    except ValueError as exc:  # InvalidParameter is a ValueError too
        raise CliError(f"bad tolerance: {exc}", EXIT_USAGE)


def cmd_gen(args) -> int:
    tol = _tolerances(args)
    family = args.family.lower()
    params = [parse_phase(v) for v in split_values(args.params)]
    branches = list(args.branch or [])
    if family not in families.FAMILY_BUILDERS:
        raise CliError(f"unknown family {args.family!r}", EXIT_USAGE)
    if args.root is not None and family not in ("bf", "bf-dephased"):
        raise CliError("--root applies to bf and bf-dephased only", EXIT_USAGE)
    if branches and family not in ("m6", "m6s", "m8"):
        raise CliError("--branch applies to m6, m6s and m8 only", EXIT_USAGE)
    meta = {"family": family, "params": [format_complex(p) for p in params]}
    try:
        if args.root is not None:
            d = families.bf_quartic_roots()[args.root - 1]
            params = [d]
            meta["params"] = [format_complex(d)]
            meta["quartic-root"] = str(args.root)
        if family in ("m6", "m6s") and branches:
            if len(params) != 4 or len(branches) != 2:
                raise CliError(
                    "branch mode for m6/m6s takes --params b c d e and "
                    "--branch f+|f- a+|a-", EXIT_USAGE,
                )
            fbr = branches[0].lstrip("f")
            abr = branches[1].lstrip("a")
            M, aval, fval = families.m6_from_branches(*params, a_branch=abr, f_branch=fbr)
            if family == "m6s":
                M = core.dephase(M)
            meta["solved"] = f"a{abr}={format_complex(aval)} f{fbr}={format_complex(fval)}"
            guaranteed = True
        elif family == "m8" and branches:
            if len(params) != 7 or len(branches) != 1:
                raise CliError(
                    "branch mode for m8 takes --params a..g and --branch h+|h-",
                    EXIT_USAGE,
                )
            M, hval = families.m8_from_h_branch(
                *params, h_branch=branches[0].lstrip("h")
            )
            meta["solved"] = f"h{branches[0].lstrip('h')}={format_complex(hval)}"
            guaranteed = False
        else:
            builder, guaranteed = families.FAMILY_BUILDERS[family]
            arity = len(inspect.signature(builder).parameters)
            if len(params) != arity:
                raise CliError(
                    f"family {family!r} takes {arity} parameter(s), got {len(params)}",
                    EXIT_USAGE,
                )
            M = builder(*params)
    except HadamardForgeError as exc:
        raise CliError(f"construction failed: {exc}", EXIT_CONSTRAINT)

    meta["residual"] = f"{core.orthogonality_residual(M):.3e}"
    hadamard = core.is_hadamard(M, tol)
    meta["hadamard"] = str(hadamard).lower()
    meta["generator"] = "hadamard-forge gen"
    _write_output(serialize_matrix(M, meta, args.format or "json"), args.out)
    if guaranteed and not hadamard:
        print(f"constraint failure: result is not Hadamard at tau_entry={tol.tau_entry}",
              file=sys.stderr)
        return EXIT_CONSTRAINT
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    M, _ = parse_matrix(_read_file(args.file))
    unimod_dev = core.unimodularity_deviation(M)
    unimodular = unimod_dev <= tol.tau_entry
    try:
        residual = core.orthogonality_residual(M)
    except InvalidParameter:
        residual = float("inf")
    hadamard = core.is_hadamard(M, tol)
    if args.format == "json":
        print(json.dumps({
            "order": M.shape[0],
            "unimodular": unimodular,
            "unimodularity_deviation": unimod_dev,
            "residual": residual,
            "hadamard": hadamard,
        }, sort_keys=True))
    else:
        print(f"order: {M.shape[0]}")
        print(f"unimodular: {str(unimodular).lower()} (max deviation {unimod_dev:.3e})")
        print(f"residual: {residual:.3e}")
        print(f"hadamard: {str(hadamard).lower()}")
    return EXIT_OK if hadamard else EXIT_FALSE


def cmd_spectrum(args) -> int:
    tol = _tolerances(args)
    M, _ = parse_matrix(_read_file(args.file))
    for z in _sorted_for_print(spectra.spectrum(M).values, tol.tau_spec):
        print(format_complex(z))
    if args.reduce:
        try:
            q = spectra.reduce_reciprocal(spectra.char_poly(M))
        except core.NotReciprocal:
            print("reduced: not reciprocal")
        else:
            print("reduced-roots:")
            for y in _sorted_for_print(spectra.poly_roots(q, tol), tol.tau_spec):
                print(format_complex(y))
    return EXIT_OK


def cmd_equiv(args) -> int:
    tol = _tolerances(args)
    A, _ = parse_matrix(_read_file(args.file_a))
    B, _ = parse_matrix(_read_file(args.file_b))
    if A.shape != B.shape:
        raise CliError(
            f"order mismatch: {A.shape[0]} vs {B.shape[0]}", EXIT_USAGE
        )
    _print_spectrum("spectrum A", A, tol)
    _print_spectrum("spectrum B", B, tol)
    same = spectra.unitary_equivalent(A, B, tol)
    print(f"unitary-equivalent: {str(same).lower()}")
    return EXIT_OK if same else EXIT_FALSE


def _print_spectrum(tag, M, tol):
    shown = " ".join(format_complex(z)
                     for z in _sorted_for_print(spectra.spectrum(M).values, tol.tau_spec))
    print(f"{tag}: {shown}")


def _print_branch_matrix(tag, M, tol):
    residual = core.orthogonality_residual(M)
    print(f"    {tag}: residual={residual:.3e} "
          f"hadamard={str(core.is_hadamard(M, tol)).lower()}")


def _torus_tag(value, tol):
    on = abs(abs(value) - 1.0) <= tol.tau_entry
    return f"torus={str(on).lower()}"


def cmd_solve(args) -> int:
    tol = _tolerances(args)
    unknowns = [u.strip() for u in args.unknown.split(",") if u.strip()]
    values = [parse_phase(v) for v in split_values(args.values)]
    try:
        if args.order == 4:
            return _solve4(unknowns, values, tol)
        if args.order == 6:
            return _solve6(unknowns, values, tol)
        return _solve8(unknowns, values, tol, args)
    except (InvalidParameter, InvalidDimensions) as exc:
        raise CliError(str(exc), EXIT_USAGE)


def _print_closed_branches(solve, residuals, build, values, tol):
    """Print both closed-form branches of the last parameter of `residuals`.

    `solve` takes the parameters before it, whose names the usage message
    lists; each branch line shows every constraint's residual.
    """
    names = list(inspect.signature(solve).parameters)
    unknown = list(inspect.signature(residuals).parameters)[-1]
    if len(values) != len(names):
        raise CliError(f"unknown {unknown} needs values for {names}", EXIT_USAGE)
    for br in solve(*values):
        params = [*values, br.value]
        shown = ", ".join(f"{abs(v):.3e}" for v in residuals(*params).values)
        print(f"branch {unknown}{br.branch_label}: value={format_complex(br.value)} "
              f"{_torus_tag(br.value, tol)} constraints=({shown})")
        _print_branch_matrix("matrix", build(*params), tol)
    return EXIT_OK


def _solve4(unknowns, values, tol):
    if len(unknowns) != 1 or unknowns[0] not in "abcd":
        raise CliError("order 4 solves one unknown among a b c d", EXIT_USAGE)
    unknown = unknowns[0]
    names = [n for n in "abcd" if n != unknown]
    if len(values) != 3:
        raise CliError(f"order 4 needs values for {names}", EXIT_USAGE)
    given = dict(zip(names, values))
    for br in constraints.c4_branches(unknown, **given):
        params = dict(given)
        params[unknown] = br.value
        res = constraints.c4_residual(**params)
        print(f"branch {unknown}{br.branch_label}: value={format_complex(br.value)} "
              f"{_torus_tag(br.value, tol)} constraint={abs(res):.3e}")
        _print_branch_matrix("matrix", families.m4(**params), tol)
    return EXIT_OK


def _solve6(unknowns, values, tol):
    if len(unknowns) != 1 or unknowns[0] not in "abcdef":
        raise CliError("order 6 solves one unknown among a b c d e f", EXIT_USAGE)
    unknown = unknowns[0]
    if unknown == "f":
        return _print_closed_branches(constraints.c6_solve_f, constraints.c6_residuals,
                                      families.m6, values, tol)
    names = sorted(set("abcde") - {unknown})
    if len(values) != 4:
        raise CliError(f"unknown {unknown} needs values for {names}", EXIT_USAGE)
    given = dict(zip(names, values))
    if unknown in "abc":
        try:
            branches = constraints.c6_solve_quadratic(unknown, **given)
        except core.SingularBranch as exc:
            print(f"singular branch: {exc}")
            return EXIT_OK
    else:
        branches = constraints.c6_solve_cubic(unknown, tol, **given)
    for br in branches:
        params = dict(given)
        params[unknown] = br.value
        reduced = constraints.c6_reduced_residual(**params)
        print(f"branch {unknown}{br.branch_label}: value={format_complex(br.value)} "
              f"{_torus_tag(br.value, tol)} reduced-constraint={abs(reduced):.3e}")
        for fbr in constraints.c6_solve_f(**params):
            M = families.m6(**params, f=fbr.value)
            _print_branch_matrix(f"with f{fbr.branch_label}={format_complex(fbr.value)}", M, tol)
            _print_spectrum("      spectrum", M, tol)
    return EXIT_OK


def _solve8(unknowns, values, tol, args):
    if unknowns == ["h"]:
        return _print_closed_branches(constraints.c8_solve_h, constraints.c8_residuals,
                                      families.m8, values, tol)
    fixed_names = [n for n in constraints.PARAM_NAMES_8 if n not in unknowns]
    if sorted(unknowns) != sorted(set(unknowns)) or not set(unknowns) <= set(
        constraints.PARAM_NAMES_8
    ):
        raise CliError("order 8 unknowns must be distinct names among a..h", EXIT_USAGE)
    if len(values) != len(fixed_names):
        raise CliError(f"numeric solve needs values for {fixed_names}", EXIT_USAGE)
    report = constraints.c8_numeric_solve(
        dict(zip(fixed_names, values)), seed=args.seed, tol=tol
    )
    print(f"restarts: {report.restarts} converged: {report.converged} "
          f"degenerate: {report.rejected_degenerate} "
          f"no-convergence: {report.no_convergence}")
    for vec in report.solutions:
        shown = " ".join(f"{n}={format_complex(v)}"
                         for n, v in zip(constraints.PARAM_NAMES_8, vec.values))
        M = families.m8(*vec.values)
        print(f"solution: {shown}")
        _print_branch_matrix("matrix", M, tol)
    if not report.solutions:
        print("no verified solutions (NoConvergence diagnostics above)")
    return EXIT_OK


# phases drawn per sample for each sweep order
_SWEEP_PHASES = {4: 3, 6: 4, 8: 6}


def _sweep_matrices(order, seed, samples):
    """Every matrix a sweep samples, in sample order, as one (N, m, m) stack.

    Sample i draws its torus phases from default_rng([seed, i]).  Order 4
    takes h4 and h44, order 8 one d8a.  Order 6 takes the four (a±, f±)
    points of the family, solved for all samples in one pass; a singular
    a-quadratic, or an a or f that is zero or not finite, gives no matrix.
    """
    k = _SWEEP_PHASES[order]
    draws = [np.exp(2j * np.pi * np.random.default_rng([seed, i]).random(k))
             for i in range(samples)]
    if order == 4:
        return np.array([f(*p) for p in draws for f in (families.h4, families.h44)])
    if order == 8:
        return np.array([families.d8a(*p) for p in draws])
    b, c, d, e = np.array(draws).T
    points = list(families.m6_branch_points(b, c, d, e))
    a, f = (np.stack([p[j] for p in points], axis=-1).ravel() for j in (2, 3))
    rows = np.array([a, *np.repeat([b, c, d, e], 4, axis=-1), f])
    keep = np.isfinite(a) & np.isfinite(f) & (a != 0) & (f != 0)
    return families.m6(*rows[:, keep])


def cmd_sweep(args) -> int:
    tol = _tolerances(args)
    if args.samples < 1:
        raise CliError("--samples must be >= 1", EXIT_USAGE)
    stack = _sweep_matrices(args.order, int(args.seed), args.samples)
    hadamard = stack[core.is_hadamard(stack, tol)]
    reps = spectra.distinct_spectra(spectra.spectrum(hadamard), tol.tau_spec)
    print(f"samples: {args.samples}")
    print(f"hadamard_hits: {len(hadamard)}")
    print(f"distinct_spectra: {len(reps)}")
    print(f"seed: {args.seed}")
    return EXIT_OK


def cmd_double(args) -> int:
    tol = _tolerances(args)
    A, meta_a = parse_matrix(_read_file(args.file_a))
    B, meta_b = parse_matrix(_read_file(args.file_b))
    diag_tokens = split_values(args.diag)
    diag = [parse_phase(v) for v in diag_tokens] if diag_tokens else None
    M = families.double(A, B, diag, tol)
    meta = {
        "family": "double",
        "left": meta_a.get("family", "?"),
        "right": meta_b.get("family", "?"),
        "residual": f"{core.orthogonality_residual(M):.3e}",
        "hadamard": str(core.is_hadamard(M, tol)).lower(),
        "generator": "hadamard-forge double",
    }
    _write_output(serialize_matrix(M, meta, args.format or "json"), args.out)
    return EXIT_OK


# --------------------------------------------------------------- entry point

def _add_shared_options(parser, suppress=False):
    # the same flags are accepted before and after the subcommand; the
    # subparser copies default to SUPPRESS so they never clobber values
    # already parsed at the top level
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--tol-entry", type=float, default=d,
                        help=f"entrywise residual bound (env {ENV_TOL}, default 1e-10)")
    parser.add_argument("--tol-root", type=float, default=d,
                        help="polynomial root residual bound (default 1e-9)")
    parser.add_argument("--tol-spec", type=float, default=d,
                        help="spectrum matching bound (default 1e-8)")
    parser.add_argument("--format", choices=("json", "csv"), default=d,
                        help="matrix serialization format (default json); "
                             "'json' also switches reports to JSON")
    parser.add_argument("--seed", type=int,
                        default=argparse.SUPPRESS if suppress else 0,
                        help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadamard-forge",
        description="Construct, verify and spectrally classify complex "
                    "Hadamard matrices built from circulant blocks.",
    )
    _add_shared_options(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_shared_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family matrix and write it",
                       parents=[common])
    p.add_argument("family")
    p.add_argument("--params", nargs="*", default=[],
                   help="phases: '1/3pi', radians, or literals like 1+2i")
    p.add_argument("--branch", nargs="*", default=[],
                   help="branch labels, e.g. f+ a- (m6/m6s) or h+ (m8)")
    p.add_argument("--root", type=int, choices=(1, 2, 3, 4), default=None,
                   help="bf quartic root index")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check unimodularity and orthogonality",
                       parents=[common])
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="print eigenvalues of M/sqrt(m)",
                       parents=[common])
    p.add_argument("file")
    p.add_argument("--reduce", action="store_true",
                   help="also print roots of the reduced polynomial")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("equiv", help="spectral equivalence of two matrices",
                       parents=[common])
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("solve", help="solve a constraint for one parameter",
                       parents=[common])
    p.add_argument("order", type=int, choices=(4, 6, 8))
    p.add_argument("--unknown", required=True,
                   help="parameter name; comma-list of names for the "
                        "order-8 numeric search")
    p.add_argument("--values", nargs="*", default=[],
                   help="remaining parameters in alphabetical order")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="random torus sweep with spectrum clustering",
                       parents=[common])
    p.add_argument("order", type=int, choices=(4, 6, 8))
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("double", help="double two Hadamard files",
                       parents=[common])
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--diag", nargs="*", default=[],
                   help="diagonal phases for the right block")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_double)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except core.RootFindingFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HadamardForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
