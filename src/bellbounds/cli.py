"""Command-line front end: every computation as a reproducible batch command.

Exit codes: 0 success, 2 invalid input, 3 resource budget exceeded,
4 numeric failure.  Numeric output is locale-independent with 12 significant
digits.  The sweep command writes a manifest sidecar holding everything
needed to reproduce the output byte-for-byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
from typing import Callable

import numpy as np

from . import __version__
from .errors import BudgetError, InputError, NumericError
from .polytope import (
    EventStructure,
    Inequality,
    check_hull_budget,
    check_vertex_budget,
    classical_range,
    enumerate_vertices,
    hull_forms,
    verify_facet,
    write_facets_json,
)
from .qops import BellOperator, bell_operator, to_bell_basis
from .sampling import (
    MAX_GRID_POINTS,
    _fmt,
    eigencurves,
    sweep,
    write_eigencurves_csv,
    write_sweep_csv,
)
from .spectra import eigen, quantum_bound
from .states import PureState, entanglement, schmidt

def parse_scalar(tok: str) -> float:
    """Finite numeric literal with optional 'pi' factor and '/' division.

    Division is left-associative: '1/2/3' is (1/2)/3, and '1/2pi' is 1/(2 pi).
    """
    tok = tok.strip().replace(" ", "")
    num, *dens = tok.split("/")
    value = _parse_factor(num)
    for den in dens:
        d = _parse_factor(den)
        if d == 0:
            raise InputError("division by zero in numeric token")
        value /= d
    if not math.isfinite(value):
        raise InputError(f"numeric token {tok!r} is not finite")
    return value


def _parse_factor(tok: str) -> float:
    """Finite number with any count of 'pi' factors appended, as in '2pi'."""
    end = len(tok)
    while tok.endswith("pi", 0, end):
        end -= 2
    head = tok[:end]
    if head != tok and head in ("", "+", "-"):
        value = -1.0 if head == "-" else 1.0
    else:
        try:
            value = float(head)
        except ValueError as exc:
            raise InputError(f"bad numeric token {tok!r}") from exc
    for _ in range((len(tok) - len(head)) // 2):
        value *= math.pi
    if not math.isfinite(value):
        raise InputError(f"numeric token {tok!r} is not finite")
    return value


def parse_affine(expr: str) -> tuple[float, float]:
    """Affine expression in t, e.g. '2t', 'pi/4', '0.5t+1e-3' -> (slope, const).

    Terms split at each sign that does not follow an exponent's 'e' or 'E';
    each is a :func:`parse_scalar` literal, with an optional 't' (or '*t').
    """
    expr = expr.strip().replace(" ", "")
    if not expr:
        raise InputError("empty schedule expression")
    slope = const = 0.0
    terms = re.findall(r"[+-]?(?:[^+-]|(?<=[eE])[+-])+", expr)
    if "".join(terms) != expr:
        raise InputError(f"bad schedule expression {expr!r}")
    for term in terms:
        if term.endswith("t"):
            head = term[:-1]
            if head in ("", "+"):
                slope += 1.0
            elif head == "-":
                slope -= 1.0
            else:
                if head.endswith("*"):
                    head = head[:-1]
                slope += parse_scalar(head)
        else:
            const += parse_scalar(term)
    return slope, const


def _parse_indexed(spec: str, parse_value: Callable[[str], object], what: str) -> dict:
    """'1=v1,2=v2,...' -> {event index: parse_value(v)}; ``what`` names a
    value in the errors, and a repeated index is an error."""
    out = {}
    for item in spec.split(","):
        k, eq, v = item.partition("=")
        if not eq:
            raise InputError(f"bad {what} {item!r} (want idx=value)")
        try:
            idx = int(k)
        except ValueError as exc:
            raise InputError(f"bad event index {k!r}") from exc
        if idx in out:
            raise InputError(f"event {idx} given more than one {what}")
        out[idx] = parse_value(v)
    return out


def parse_angles(spec: str) -> dict[int, float]:
    """'1=0,2=pi/2,...' -> event-index-to-angle map."""
    return _parse_indexed(spec, parse_scalar, "angle")


def parse_schedule(spec: str) -> Callable[[float], dict[int, float]]:
    """'1=0,2=2t,3=t,4=3t' -> function theta -> angle map; it rejects non-finite values."""
    affine = _parse_indexed(spec, parse_affine, "schedule entry")

    def schedule(theta: float) -> dict[int, float]:
        angles = {i: m * theta + c for i, (m, c) in affine.items()}
        if not all(map(math.isfinite, [theta, *angles.values()])):
            raise InputError(f"grid point theta = {theta} gives angles {angles}, not all finite")
        return angles

    return schedule


def parse_grid(spec: str) -> list[float]:
    """'lo:hi:n' -> n evenly spaced values from lo to hi inclusive."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"bad grid spec {spec!r} (want lo:hi:n)")
    lo, hi = parse_scalar(parts[0]), parse_scalar(parts[1])
    try:
        n = int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad grid count {parts[2]!r}") from exc
    if n < 1:
        raise InputError("grid needs at least one point")
    if n > MAX_GRID_POINTS:
        raise BudgetError(f"{n} grid points above limit {MAX_GRID_POINTS}")
    # hi - lo may overflow; the schedule rejects the non-finite points
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(lo, hi, n).tolist()


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _open_out(path: str, mode: str = "w"):
    """``path`` opened for writing text; a path that cannot be written is bad input."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _reserved(*paths: str | None):
    """Check that each given output path can be written, before the work.

    Each path is opened for appending and closed at once, which creates a
    missing file and truncates none.  If the block then raises, the files
    this created are removed again, so a failed run leaves no empty output.
    """
    created = []
    try:
        for path in filter(None, paths):
            existed = os.path.lexists(path)
            _open_out(path, "a").close()
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write(out: str | None, write: Callable) -> None:
    """Call ``write`` on ``out`` opened for writing, or on stdout without ``out``."""
    if out:
        with _open_out(out) as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as indented JSON plus a newline.

    ``json.dump`` streams chunk by chunk, where ``json.dumps`` would hold
    every chunk of a large vertex list before joining them.
    """
    def write(fh):
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    _write(out, write)


def _cmd_polytope(args) -> int:
    structure = EventStructure.from_json(_load_json(args.structure))
    # the work's size follows from the structure; refuse before enumerating
    if args.action == "facets":
        check_hull_budget(structure.dimension, 2**structure.n_single)
    else:
        check_vertex_budget(structure)
    with _reserved(args.out):
        vertices = enumerate_vertices(structure)
        if args.action == "vertices":
            _emit({"vertices": [list(v) for v in vertices]}, args.out)
        elif args.action == "facets":
            forms = hull_forms(vertices, structure)
            _write(args.out, lambda fh: write_facets_json(forms, structure, fh))
        else:  # verify
            if not args.ineq:
                raise InputError("verify needs --ineq")
            ineq = Inequality.from_json(_load_json(args.ineq))
            check = verify_facet(ineq, vertices, structure)
            _emit(
                {
                    "valid": check.valid,
                    "tight_count": check.tight_count,
                    "is_facet": check.is_facet,
                    "witness": None if check.witness is None else list(check.witness),
                },
                args.out,
            )
    return 0


def _build_operator(args) -> tuple[BellOperator, EventStructure, Inequality]:
    structure = EventStructure.from_json(_load_json(args.structure))
    ineq = Inequality.from_json(_load_json(args.ineq))
    angles = parse_angles(args.angles)
    return bell_operator(ineq, angles, structure), structure, ineq


def _cmd_operator(args) -> int:
    O, _, _ = _build_operator(args)
    if args.bell_basis:
        O = to_bell_basis(O)
    _emit(O.to_json(), args.out)
    return 0


def _cmd_bound(args) -> int:
    O, structure, ineq = _build_operator(args)
    lo, hi = classical_range(ineq, structure)
    qb = quantum_bound(O)
    state = PureState(qb.argmax_state).canonical_phase()
    print(f"classical range   [{_fmt(lo)}, {_fmt(hi)}]")
    print(f"lambda_min        {_fmt(qb.lambda_min)}")
    print(f"lambda_max        {_fmt(qb.lambda_max)}")
    print(f"operator norm     {_fmt(qb.norm)}")
    print(f"degenerate max    {'yes' if qb.degenerate else 'no'}")
    amps = " ".join(
        # a zero's sign is eigensolver noise; + 0.0 prints -0.0 as +0j
        f"({_fmt(z.real)}{_fmt(z.imag + 0.0, '+')}j)" for z in state.amplitudes
    )
    print(f"argmax state      {amps}")
    print(f"entanglement      {_fmt(entanglement(state))}")
    return 0


def _cmd_spectrum(args) -> int:
    O = BellOperator.from_json(_load_json(args.operator))
    spec = eigen(O.matrix)
    if args.out:
        _emit(spec.to_json(), args.out)
    print(f"{'k':>3} {'eigenvalue':>18}")
    for k, lam in enumerate(spec.eigenvalues):
        print(f"{k:>3} {_fmt(lam):>18}")
    print(f"residual {_fmt(spec.residual)}")
    if spec.degenerate:
        print("note: degenerate eigenspaces present")
    return 0


def _cmd_sweep(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if args.eigencurves and args.samples:
        raise InputError("--eigencurves takes no samples: drop --samples")
    structure = EventStructure.from_json(_load_json(args.structure))
    ineq = Inequality.from_json(_load_json(args.ineq))
    schedule = parse_schedule(args.schedule)
    grid = parse_grid(args.grid)
    manifest_path = args.out + ".manifest.json"
    with _reserved(args.out, manifest_path):
        buf = io.StringIO()
        if args.eigencurves:
            curves = eigencurves(ineq, structure, schedule, grid)
            write_eigencurves_csv(curves, buf)
        else:
            rows = sweep(ineq, structure, schedule, grid, args.samples, args.seed)
            write_sweep_csv(rows, buf)
        data = buf.getvalue()
        # the CSV first, so that a manifest never names a file that was not written
        with _open_out(args.out) as fh:
            fh.write(data)
        manifest = {
            "command": "sweep",
            "arguments": {
                "structure": args.structure,
                "ineq": args.ineq,
                "schedule": args.schedule,
                "eigencurves": bool(args.eigencurves),
            },
            "grid": args.grid,
            "samples": args.samples,
            "seed": args.seed,
            "version": __version__,
            "output": args.out,
            "output_sha256": hashlib.sha256(data.encode()).hexdigest(),
        }
        _emit(manifest, manifest_path)
    print(f"wrote {args.out} ({len(data.splitlines()) - 1} rows)")
    return 0


def _cmd_state(args) -> int:
    psi = PureState.from_json(_load_json(args.state)).to_computational()
    sd = schmidt(psi)
    print(
        "schmidt coefficients "
        + " ".join(_fmt(c) for c in sd.coefficients)
    )
    print(f"entanglement        {_fmt(entanglement(psi))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbounds",
        description="Bell-type inequalities and their quantum bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="vertex and facet computations")
    p.add_argument("action", choices=["vertices", "facets", "verify"])
    p.add_argument("--structure", required=True)
    p.add_argument("--ineq")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("operator", help="build a Bell operator")
    p.add_argument("action", choices=["build"])
    p.add_argument("--structure", required=True)
    p.add_argument("--ineq", required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--bell-basis", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_operator)

    p = sub.add_parser("bound", help="classical range and quantum bound")
    p.add_argument("--structure", required=True)
    p.add_argument("--ineq", required=True)
    p.add_argument("--angles", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("spectrum", help="eigenvalue table of an operator")
    p.add_argument("--operator", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--structure", required=True)
    p.add_argument("--ineq", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--eigencurves", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("state", help="analyze a pure state")
    p.add_argument("action", choices=["analyze"])
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_state)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
