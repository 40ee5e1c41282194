"""Rewrite the golden corpus, ``corpus.json`` beside this file.

The corpus pins the bytes of a few dozen ``bellbounds`` commands.  Each
entry holds a command's argv, its exit code, and the sha256 of its stdout,
its stderr and each file it writes.  Its ``inputs`` map holds the JSON
documents the commands read, named in argv by relative path.
``test_corpus.py`` runs every entry in a fresh directory holding those
inputs and compares.

The corpus is the one place an output's sha256 is pinned; the 3x4 facet
list, which the CLI's dimension budget refuses, is the only exception.
Every command's bytes are the same under each OpenBLAS kernel, so the
corpus also holds with ``OPENBLAS_CORETYPE`` set.  Outputs that still round
through a BLAS kernel at full precision are left out: the CH eigencurves,
which take the stacked 4x4 route, the sampled CH sweep on 1001 points,
``bound`` on angles where an eigenvalue is zero, whose printed rounding
noise moves with the kernel, and ``spectrum`` on a generic dense operator,
whose full-precision eigenvectors and residual do.  Of the sampled sweep
on ``0:pi:1001`` only the analytic bounds move, which LAPACK solves as
dense 4x4 matrices: on seeds 5 and 77, 2 of the 1001 ``analytic_max``
cells differ under the Haswell, Prescott and Nehalem kernels, and every
sampled cell is the same.

After a change that is meant to move output bytes, run

    PYTHONPATH=src python tests/golden/regen.py

and list in CHANGES.md each entry it prints: ``changed``, ``removed``
or ``input changed``.  It refuses to run
with ``OPENBLAS_CORETYPE`` set, so the hashes are always taken with the
kernel OpenBLAS picks for the machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

from bellbounds import cli

CORPUS = pathlib.Path(__file__).with_name("corpus.json")

CH_ANGLES = "1=0,2=pi/2,3=pi/4,4=3pi/4"
I33_ANGLES = "1=0,2=pi/3,3=2pi/3,4=0,5=pi/3,6=2pi/3"
I33_GENERIC = "1=0.3,2=1.1,3=2.5,4=-0.4,5=pi/5,6=3pi/4"
CH_SCHEDULE = "1=0,2=2t,3=t,4=3t"
I33_SCHEDULE = "1=0,2=t,3=2t,4=0,5=t,6=2t"
# 2^-1030 makes subnormal entries; at 2^-1060 the residual check refuses (exit 4)
SCALES = (40, -60, -1030, -1045, -1060)


def _structure(left, right, joints=None) -> dict:
    """Settings ``left | right``, with every cross joint unless ``joints``."""
    return {
        "n_single": len(left) + len(right),
        "sides": [list(left), list(right)],
        "joints": [list(j) for j in joints or [(i, j) for i in left for j in right]],
    }


def _ch_ineq(scale: Fraction = Fraction(1)) -> dict:
    coeffs = {"1,3": 1, "1,4": 1, "2,3": 1, "2,4": -1, "1": -1, "3": -1}
    return {"coeffs": {k: str(scale * v) for k, v in coeffs.items()}}


def _operator(rows) -> dict:
    return {
        "dim": len(rows),
        "basis": "computational",
        "entries": [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in rows],
    }


def build_inputs() -> dict[str, dict]:
    """The input documents, written out literally: none is computed by the
    package, so a change to it cannot move an input."""
    ch_bounds = {"lower": "-1", "upper": "0"}
    r2 = math.sqrt(2)
    inputs = {
        "ch.json": _structure((1, 2), (3, 4)),
        "ch_ineq.json": {**_ch_ineq(), **ch_bounds},
        "2x4.json": _structure((1, 2), (3, 4, 5, 6)),
        # CH on settings 1, 2 | 3, 4, lifted with zeros: a facet of 2x4 too
        "2x4_ineq.json": {**_ch_ineq(), **ch_bounds},
        "i33.json": _structure((1, 2, 3), (4, 5, 6)),
        # three settings against four on a 6-cycle plus (1,4): 128 vertices,
        # so DD's step masks take two 64-bit words
        "wide.json": _structure(
            (1, 2, 3), (4, 5, 6, 7), [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (1, 7)]
        ),
        # the same sides with nine joints: dimension 16, the hull budget's edge
        "dim16.json": _structure(
            (1, 2, 3), (4, 5, 6, 7),
            [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7)],
        ),
        "i33_ineq.json": {
            "coeffs": {
                "1,4": "1", "1,5": "1", "1,6": "1", "2,4": "1", "2,5": "1",
                "2,6": "-1", "3,4": "1", "3,5": "-1", "1": "-1", "4": "-2", "5": "-1",
            },
            "upper": "0",
        },
        # at the exit-4 entry's angles the entries are finite, the norm is not
        "huge_ineq.json": {"coeffs": {"1,3": "1.3e308", "2,4": "1.3e308"}},
        "singlet.json": {
            "basis": "computational",
            "amplitudes": [[0.0, 0.0], [1 / math.sqrt(2), 0.0], [-1 / math.sqrt(2), 0.0], [0.0, 0.0]],
        },
        # two tridiagonal operators: LAPACK skips its BLAS updates on them
        "tridiagonal_op.json": _operator(
            [[1, 0.5j, 0, 0], [-0.5j, -0.25, 0.75, 0], [0, 0.75, 2, -0.5], [0, 0, -0.5, 0.125]]
        ),
        # eigenvalues -0.5, 0, 1, 1
        "degenerate_op.json": _operator(
            [[0.5, 0.5j, 0, 0], [-0.5j, 0.5, 0, 0], [0, 0, 0.25, 0.75], [0, 0, 0.75, 0.25]]
        ),
        # the CHSH correlation operator sqrt2 (zz + xx): dense, but LAPACK
        # finds its eigenvectors exactly, so its residual is 0 on every kernel
        "dense_op.json": _operator(
            [[r2, 0, 0, r2], [0, -r2, r2, 0], [0, r2, -r2, 0], [r2, 0, 0, r2]]
        ),
    }
    for k in SCALES:
        inputs[f"ch_x2^{k}.json"] = _ch_ineq(Fraction(2) ** k)
    return inputs


def _seeded_angles(rng: random.Random, events: int) -> str:
    return ",".join(f"{e}={rng.uniform(-math.pi, math.pi)!r}" for e in range(1, events + 1))


def build_commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every corpus entry."""
    cmds = []
    for layout in ("ch", "2x4", "i33"):
        s = ["--structure", f"{layout}.json"]
        cmds += [
            (f"vertices-{layout}", ["polytope", "vertices", *s]),
            (f"facets-{layout}", ["polytope", "facets", *s, "--out", "facets.json"]),
            (f"verify-{layout}", ["polytope", "verify", *s, "--ineq", f"{layout}_ineq.json"]),
        ]
    cmds += [(f"facets-{layout}", ["polytope", "facets", "--structure", f"{layout}.json",
                                   "--out", "facets.json"]) for layout in ("wide", "dim16")]
    for layout, angles in (("ch", CH_ANGLES), ("i33", I33_GENERIC)):
        build = ["operator", "build", "--structure", f"{layout}.json",
                 "--ineq", f"{layout}_ineq.json", "--angles", angles, "--out", "op.json"]
        cmds += [(f"operator-{layout}", build),
                 (f"operator-{layout}-bell-basis", [*build, "--bell-basis"])]

    def bound(layout, angles, ineq=None):
        return ["bound", "--structure", f"{layout}.json",
                "--ineq", ineq or f"{layout}_ineq.json", "--angles", angles]

    cmds += [
        ("bound-ch-landmark", bound("ch", CH_ANGLES)),
        ("bound-i33-landmark", bound("i33", I33_ANGLES)),
        ("bound-ch-equal-left-settings", bound("ch", "1=0.3,2=0.3,3=1.1,4=2.0")),
    ]
    rng = random.Random(23)
    for n in range(2):
        cmds += [
            (f"bound-ch-seeded-{n}", bound("ch", _seeded_angles(rng, 4))),
            (f"bound-i33-seeded-{n}", bound("i33", _seeded_angles(rng, 6))),
        ]
    cmds += [(f"bound-ch-x2^{k}", bound("ch", CH_ANGLES, f"ch_x2^{k}.json")) for k in SCALES]
    cmds += [
        *((f"spectrum-{op}", ["spectrum", "--operator", f"{op}_op.json", "--out", "spectrum.json"])
          for op in ("tridiagonal", "degenerate", "dense")),
        ("state-singlet", ["state", "analyze", "--state", "singlet.json"]),
    ]

    def sweep(layout, schedule, grid, *extra):
        return ["sweep", "--structure", f"{layout}.json", "--ineq", f"{layout}_ineq.json",
                "--schedule", schedule, "--grid", grid, "--out", "out.csv", *extra]

    cmds += [
        # the README's sampled sweep
        ("sweep-ch-sampled-101", sweep("ch", CH_SCHEDULE, "0:pi:101", "--samples", "3000", "--seed", "7")),
        ("eigencurves-i33-101", sweep("i33", I33_SCHEDULE, "0:pi:101", "--eigencurves")),
        ("eigencurves-i33-1001", sweep("i33", I33_SCHEDULE, "0:pi:1001", "--eigencurves")),
        # one refusal per exit code: bad input, budget, numeric failure
        ("exit2-bad-angle-token", bound("ch", "1=zero,2=pi/2,3=pi/4,4=3pi/4")),
        ("exit3-grid-budget", sweep("ch", CH_SCHEDULE, "0:1:100002")),
        ("exit4-norm-overflow", ["sweep", "--structure", "ch.json", "--ineq", "huge_ineq.json",
                                 "--schedule", "1=0,2=pi,3=0,4=pi", "--grid", "0:1:3",
                                 "--eigencurves", "--out", "out.csv"]),
    ]
    return cmds


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], inputs: dict[str, dict]) -> dict:
    """Write ``inputs`` to the working directory, run ``bellbounds argv`` in
    this process, and return its exit code and the sha256 of its stdout, its
    stderr and each file it left beside the inputs."""
    for name, doc in inputs.items():
        pathlib.Path(name).write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    files = sorted(p for p in pathlib.Path().iterdir() if p.name not in inputs)
    return {
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
        "files": {p.name: _sha256(p.read_bytes()) for p in files},
    }


def load() -> dict:
    return json.loads(CORPUS.read_text())


def main() -> int:
    if "OPENBLAS_CORETYPE" in os.environ:
        print("regen.py: unset OPENBLAS_CORETYPE; the corpus is taken with the "
              "kernel OpenBLAS picks for the machine", file=sys.stderr)
        return 2
    old = load() if CORPUS.exists() else {"inputs": {}, "entries": []}
    old_entries = {e["name"]: e for e in old["entries"]}
    inputs = build_inputs()
    entries = []
    home = os.getcwd()
    for name, argv in build_commands():
        with tempfile.TemporaryDirectory() as where:
            os.chdir(where)
            try:
                entries.append({"name": name, "argv": argv, **run(argv, inputs)})
            finally:
                os.chdir(home)
    for name in sorted(set(inputs) | set(old["inputs"])):
        if old["inputs"].get(name) != inputs.get(name):
            print(f"input changed: {name}")
    for entry in entries:
        if old_entries.get(entry["name"]) != entry:
            print(f"changed: {entry['name']}")
    for name in sorted(set(old_entries) - {e["name"] for e in entries}):
        print(f"removed: {name}")
    # one input and one entry to a line, so a moved entry is one line of diff
    docs = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in inputs.items())
    runs = ",\n".join(map(json.dumps, entries))
    CORPUS.write_text(f'{{"inputs": {{\n{docs}\n}},\n"entries": [\n{runs}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
