"""Command-line front end: every computation as a reproducible batch command.

Exit codes: 0 success, 2 invalid input or a failed write (a full disk, a
closed stdout, a broken pipe), 3 resource budget exceeded, 4 numeric failure.
``main`` checks ``--out`` and the sweep's manifest before the work, every
write goes through its one writer, and a run that fails removes each regular
file it created or opened for writing.  Numeric output is locale-independent
with 12 significant digits.  The sweep command writes a manifest sidecar
holding everything needed to reproduce the output byte-for-byte.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
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


#: Largest input file, in bytes.  The largest input the other budgets admit
#: is an inequality on polytope.MAX_SINGLE_EVENTS = 20 events split 10|10, so
#: 20 single terms and 100 joints, each coefficient and both bounds a
#: fraction of two 4300-digit integers (Python's int digit limit): about
#: 1.05 MB of JSON.  An operator file (dim <= spectra.MAX_EIG_DIM = 16)
#: carries at most such an inequality as its source plus 512 floats.  4 MiB
#: leaves room for indentation.
MAX_INPUT_BYTES = 1 << 22


def _load_json(path: str) -> dict:
    """The JSON document in the UTF-8 file ``path``, refused (BudgetError)
    when the file holds more than MAX_INPUT_BYTES, before it is parsed.

    A regular file is read into a buffer of its own size; a pipe, a device
    or a file that reports no size, into one of the budget's."""
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            size = st.st_size if stat.S_ISREG(st.st_mode) and st.st_size else MAX_INPUT_BYTES
            data = fh.read(min(size, MAX_INPUT_BYTES) + 1)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise BudgetError(f"{path} holds more than {MAX_INPUT_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


_MANIFEST = ".manifest.json"  # the sweep's manifest: its --out plus this


@contextlib.contextmanager
def _outputs(*reserve: str | None):
    """Open each path in ``reserve`` to append, which creates it and
    truncates none, then yield ``write(path, fn)``: ``fn`` on ``path`` opened
    for writing, or on stdout for None.  An ``OSError`` is bad input; if the
    block raises, each regular file this run created or opened for writing
    is removed, the file behind a symlink but not the link."""
    made = set()

    def write(path: str | None, fn: Callable, mode: str = "w") -> None:
        try:
            if path is None:
                if sys.stdout is None:  # started with fd 1 closed
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                fn(sys.stdout)
                sys.stdout.flush()
            else:
                made_here = mode == "w" or not os.path.exists(path)
                with open(path, mode) as fh:
                    if made_here:
                        made.add(path)
                    fn(fh)
        except OSError as exc:
            if path is None:  # stdout keeps what failed and would fail again at exit
                sys.stdout = None
            raise InputError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc

    try:
        for path in reserve:
            if path is not None:
                write(path, lambda fh: None, "a")
        yield write
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                # the file a link names goes, the link stays; never a device
                if stat.S_ISREG(os.stat(path).st_mode):
                    os.remove(os.path.realpath(path))
        raise


def _json(payload: dict) -> Callable:
    """A writer of ``payload`` as indented JSON plus a newline, streamed:
    ``json.dumps`` would hold every chunk of a large vertex list at once."""
    def dump(fh):
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    return dump


def _lines(*lines: str) -> Callable:
    """A writer of ``lines``, each ended by a newline."""
    return lambda fh: fh.writelines(f"{line}\n" for line in lines)


def _cmd_polytope(args, write: Callable) -> int:
    structure = EventStructure.from_json(_load_json(args.structure))
    # the work's size follows from the structure; refuse before enumerating
    if args.action == "facets":
        check_hull_budget(structure.dimension, 2**structure.n_single)
    else:
        check_vertex_budget(structure)
    if args.action == "verify":
        if not args.ineq:
            raise InputError("verify needs --ineq")
        ineq = Inequality.from_json(_load_json(args.ineq))
        ineq.check_keys(structure)
    vertices = enumerate_vertices(structure)
    if args.action == "vertices":
        write(args.out, _json({"vertices": [list(v) for v in vertices]}))
    elif args.action == "facets":
        forms = hull_forms(vertices, structure)
        write(args.out, lambda fh: write_facets_json(forms, structure, fh))
    else:  # verify
        check = verify_facet(ineq, vertices, structure)
        write(args.out, _json(vars(check)))  # valid, tight_count, is_facet, witness
    return 0


def _build_operator(args) -> tuple[BellOperator, EventStructure, Inequality]:
    structure = EventStructure.from_json(_load_json(args.structure))
    ineq = Inequality.from_json(_load_json(args.ineq))
    angles = parse_angles(args.angles)
    return bell_operator(ineq, angles, structure), structure, ineq


def _cmd_operator(args, write: Callable) -> int:
    O, _, _ = _build_operator(args)
    if args.bell_basis:
        O = to_bell_basis(O)
    write(args.out, _json(O.to_json()))
    return 0


def _cmd_bound(args, write: Callable) -> int:
    O, structure, ineq = _build_operator(args)
    lo, hi = classical_range(ineq, structure)
    qb = quantum_bound(O)
    state = PureState(qb.argmax_state).canonical_phase()
    amps = " ".join(
        # a zero's sign is eigensolver noise; + 0.0 prints -0.0 as +0j
        f"({_fmt(z.real)}{_fmt(z.imag + 0.0, '+')}j)" for z in state.amplitudes
    )
    write(None, _lines(
        f"classical range   [{_fmt(lo)}, {_fmt(hi)}]",
        f"lambda_min        {_fmt(qb.lambda_min)}",
        f"lambda_max        {_fmt(qb.lambda_max)}",
        f"operator norm     {_fmt(qb.norm)}",
        f"degenerate max    {'yes' if qb.degenerate else 'no'}",
        f"argmax state      {amps}",
        f"entanglement      {_fmt(entanglement(state))}",
    ))
    return 0


def _cmd_spectrum(args, write: Callable) -> int:
    O = BellOperator.from_json(_load_json(args.operator))
    spec = eigen(O.matrix)
    if args.out is not None:
        write(args.out, _json(spec.to_json()))
    rows = (f"{k:>3} {_fmt(lam):>18}" for k, lam in enumerate(spec.eigenvalues))
    note = ["note: degenerate eigenspaces present"] if spec.degenerate else []
    write(None, _lines(f"{'k':>3} {'eigenvalue':>18}", *rows, f"residual {_fmt(spec.residual)}", *note))
    return 0


def _cmd_sweep(args, write: Callable) -> int:
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
    write(args.out, lambda fh: fh.write(data))
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
    write(args.out + _MANIFEST, _json(manifest))
    write(None, _lines(f"wrote {args.out} ({len(grid)} rows)"))
    return 0


def _cmd_state(args, write: Callable) -> int:
    psi = PureState.from_json(_load_json(args.state)).to_computational()
    write(None, _lines(
        "schmidt coefficients " + " ".join(_fmt(c) for c in schmidt(psi).coefficients),
        f"entanglement        {_fmt(entanglement(psi))}",
    ))
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


#: Each refusal's error class, with its stderr prefix and exit code
_REFUSALS = {
    InputError: ("error", 2),
    BudgetError: ("resource budget exceeded", 3),
    NumericError: ("numeric failure", 4),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = args.out + _MANIFEST if args.command == "sweep" else None
    try:
        with _outputs(getattr(args, "out", None), manifest) as write:
            return args.func(args, write)
    except tuple(_REFUSALS) as exc:
        prefix, code = next(v for cls, v in _REFUSALS.items() if isinstance(exc, cls))
        if sys.stderr is not None:  # None when started with fd 2 closed
            print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
