"""Command-line front end: every computation as a reproducible batch command.

Exit codes: 0 success, 2 invalid input, 3 resource budget exceeded,
4 numeric failure.  Numeric output is locale-independent with 12 significant
digits.  The sweep command writes a manifest sidecar holding everything
needed to reproduce the output byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
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
    classical_range,
    enumerate_vertices,
    hull_facets,
    verify_facet,
)
from .qops import BellOperator, bell_operator, to_bell_basis
from .sampling import (
    MAX_GRID_POINTS,
    eigencurves,
    sweep,
    write_eigencurves_csv,
    write_sweep_csv,
)
from .spectra import eigen, quantum_bound
from .states import PureState, entanglement, schmidt

FMT = ".12g"


def _num(x) -> str:
    return format(float(x), FMT)


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
    """Affine expression in t, e.g. '2t', 'pi/4', '0.5t+pi/4' -> (slope, const)."""
    expr = expr.strip().replace(" ", "")
    if not expr:
        raise InputError("empty schedule expression")
    slope = const = 0.0
    terms = re.findall(r"[+-]?[^+-]+", expr)
    if "".join(terms) != expr:
        raise InputError(f"bad schedule expression {expr!r}")
    for term in terms:
        if term.rstrip("+-") == "":
            raise InputError(f"bad schedule expression {expr!r}")
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


def parse_angles(spec: str) -> dict[int, float]:
    """'1=0,2=pi/2,...' -> event-index-to-angle map."""
    out = {}
    for item in spec.split(","):
        if "=" not in item:
            raise InputError(f"bad angle assignment {item!r} (want idx=value)")
        k, v = item.split("=", 1)
        try:
            idx = int(k)
        except ValueError as exc:
            raise InputError(f"bad event index {k!r}") from exc
        if idx in out:
            raise InputError(f"event {idx} given more than one angle")
        out[idx] = parse_scalar(v)
    if not out:
        raise InputError("empty angle list")
    return out


def parse_schedule(spec: str) -> Callable[[float], dict[int, float]]:
    """'1=0,2=2t,3=t,4=3t' -> function theta -> angle map; it rejects non-finite values."""
    affine = {}
    for item in spec.split(","):
        if "=" not in item:
            raise InputError(f"bad schedule entry {item!r} (want idx=expr)")
        k, v = item.split("=", 1)
        try:
            idx = int(k)
        except ValueError as exc:
            raise InputError(f"bad event index {k!r}") from exc
        if idx in affine:
            raise InputError(f"event {idx} given more than one schedule entry")
        affine[idx] = parse_affine(v)
    if not affine:
        raise InputError("empty schedule")

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


def _open_out(path: str):
    """``path`` opened for writing text; a path that cannot be written is bad input."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as indented JSON plus a newline.

    ``json.dump`` streams chunk by chunk (``json.dumps`` would hold every
    chunk of a large facet list before joining them), and objects with a
    ``to_json`` method are converted one at a time as they are written.
    """
    def write(fh):
        json.dump(payload, fh, indent=2, default=lambda obj: obj.to_json())
        fh.write("\n")

    if out:
        with _open_out(out) as fh:
            write(fh)
    else:
        write(sys.stdout)


def _cmd_polytope(args) -> int:
    structure = EventStructure.from_json(_load_json(args.structure))
    if args.action == "facets":
        # the hull's size follows from the structure; refuse before enumerating
        check_hull_budget(structure.dimension, 2**structure.n_single)
    vertices = enumerate_vertices(structure)
    if args.action == "vertices":
        _emit({"vertices": [list(v) for v in vertices]}, args.out)
    elif args.action == "facets":
        facets = hull_facets(vertices, structure)
        _emit({"count": len(facets), "facets": facets}, args.out)
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
    lo, hi = classical_range(ineq, enumerate_vertices(structure), structure)
    qb = quantum_bound(O)
    state = PureState(qb.argmax_state).canonical_phase()
    print(f"classical range   [{_num(lo)}, {_num(hi)}]")
    print(f"lambda_min        {_num(qb.lambda_min)}")
    print(f"lambda_max        {_num(qb.lambda_max)}")
    print(f"operator norm     {_num(qb.norm)}")
    print(f"degenerate max    {'yes' if qb.degenerate else 'no'}")
    amps = " ".join(
        # a zero's sign is eigensolver noise; + 0.0 prints -0.0 as +0j
        f"({_num(z.real)}{z.imag + 0.0:+.12g}j)" for z in state.amplitudes
    )
    print(f"argmax state      {amps}")
    print(f"entanglement      {_num(entanglement(state))}")
    return 0


def _cmd_spectrum(args) -> int:
    O = BellOperator.from_json(_load_json(args.operator))
    spec = eigen(O.matrix)
    if args.out:
        _emit(spec.to_json(), args.out)
    print(f"{'k':>3} {'eigenvalue':>18}")
    for k, lam in enumerate(spec.eigenvalues):
        print(f"{k:>3} {_num(lam):>18}")
    print(f"residual {_num(spec.residual)}")
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
    _emit(manifest, args.out + ".manifest.json")
    print(f"wrote {args.out} ({len(data.splitlines()) - 1} rows)")
    return 0


def _cmd_state(args) -> int:
    psi = PureState.from_json(_load_json(args.state)).to_computational()
    sd = schmidt(psi)
    print(
        "schmidt coefficients "
        + " ".join(_num(c) for c in sd.coefficients)
    )
    print(f"entanglement        {_num(entanglement(psi))}")
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
