"""Rewrite the golden corpus, ``corpus.json`` beside this file.

The corpus pins the bytes of 129 ``bellbounds`` commands, 79 of them
refusals.  Each entry holds a command's argv, its exit code, and the sha256
of its stdout, its stderr and each file it writes.  Its ``inputs`` map holds the
documents the commands read, named in argv by relative path: a JSON
object, or a string that is the file's literal text.  ``test_corpus.py``
runs every entry in a fresh directory holding those inputs and compares.
A ``RuntimeWarning`` inside a command is an error.

The corpus is the one place an output's sha256 is pinned; the 3x4 facet
list, which the CLI's dimension budget refuses, is the only exception.  It
is also the one place a refusal is checked by its exit code, its message
and the files it leaves: every refusal a test makes only through those
is an entry here.  Every command's bytes are the same under each OpenBLAS
kernel, so the corpus also holds with ``OPENBLAS_CORETYPE`` set.  Outputs
that still round through a BLAS kernel at full precision are left out:
the CH eigencurves on 1001 points, the sampled CH sweep on 1001 points,
``bound`` on angles where an eigenvalue is zero, whose printed rounding
noise moves with the kernel, and ``spectrum`` on a generic dense operator,
whose full-precision eigenvectors and residual do.  The CH eigencurves on
``0.1:3:101`` take the same stacked 4x4 route and hold; ``0:pi:101`` and
``0:pi:100`` print a rounding-noise cell of about 9e-32, and the latter's
moves under Haswell.  Of the sampled sweep on ``0:pi:1001`` only the
analytic bounds move, which LAPACK solves as dense 4x4 matrices: on seeds
5 and 77, 2 of the 1001 ``analytic_max`` cells differ under the Haswell,
Prescott and Nehalem kernels, and every sampled cell is the same.

After a change that is meant to move output bytes, run

    PYTHONPATH=src python tests/golden/regen.py

and list in CHANGES.md each entry and input it prints as added, changed
or removed.  It refuses to run with ``OPENBLAS_CORETYPE`` set, so the
hashes are always taken with the kernel OpenBLAS picks for the machine.
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
import warnings
from fractions import Fraction

from bellbounds import cli

CORPUS = pathlib.Path(__file__).with_name("corpus.json")

CH_ANGLES = "1=0,2=pi/2,3=pi/4,4=3pi/4"
I33_ANGLES = "1=0,2=pi/3,3=2pi/3,4=0,5=pi/3,6=2pi/3"
I33_GENERIC = "1=0.3,2=1.1,3=2.5,4=-0.4,5=pi/5,6=3pi/4"
CH_SCHEDULE = "1=0,2=2t,3=t,4=3t"
# the 3x2 layout's angles, and a schedule with a '-t' and a '*t' slope
ANGLES_3X2 = "3=0.2,4=1.3,5=-0.7,1=0.9,2=2.1"
SCHEDULE_3X2 = "3=0,4=-t,5=0.5*t,1=t,2=2*t+pi/8"
I33_SCHEDULE = "1=0,2=t,3=2t,4=0,5=t,6=2t"
# 2^-1030 makes subnormal entries; at 2^-1060 the residual check refuses (exit 4)
SCALES = (40, -60, -1030, -1045, -1060)
SINGLET = [[0.0, 0.0], [1 / math.sqrt(2), 0.0], [-1 / math.sqrt(2), 0.0], [0.0, 0.0]]


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


def build_inputs() -> dict[str, dict | str]:
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
        # every cross joint of 2 | 3: 48 facets
        "2x3.json": _structure((1, 2), (3, 4, 5)),
        # 3 | 3 with the joint (3,6) dropped
        "i33_drop.json": _structure(
            (1, 2, 3), (4, 5, 6), [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5)]
        ),
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
        # settings 3, 4, 5 | 1, 2: the right side numbered first, each joint
        # written left event first, and five of the six joints, no (4,2)
        "3x2.json": _structure((3, 4, 5), (1, 2), [(3, 1), (3, 2), (4, 1), (5, 1), (5, 2)]),
        # CH on settings 3, 5 | 1, 2, a facet of 3x2
        "3x2_ineq.json": {
            "coeffs": {"3,1": "1", "3,2": "1", "5,1": "1", "5,2": "-1", "3": "-1", "1": "-1"},
            "upper": "0",
        },
        # valid, but no vertex reaches the bound: not a facet
        "ch_slack_ineq.json": {**_ch_ineq(), "upper": "1"},
        "i33_ineq.json": {
            "coeffs": {
                "1,4": "1", "1,5": "1", "1,6": "1", "2,4": "1", "2,5": "1",
                "2,6": "-1", "3,4": "1", "3,5": "-1", "1": "-1", "4": "-2", "5": "-1",
            },
            "upper": "0",
        },
        # at the exit-4 entry's angles the entries are finite, the norm is not
        "huge_ineq.json": {"coeffs": {"1,3": "1.3e308", "2,4": "1.3e308"}},
        "singlet.json": {"basis": "computational", "amplitudes": SINGLET},
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
    # as ``operator build`` writes it: with the angles and the inequality
    inputs["angles_op.json"] = {
        **inputs["tridiagonal_op.json"],
        "angles": {"1": 0.0, "2": 1.5707963267948966},
        "source": inputs["ch_ineq.json"],
    }
    for k in SCALES:
        inputs[f"ch_x2^{k}.json"] = _ch_ineq(Fraction(2) ** k)
    return {**inputs, **_refused_inputs()}


def _refused_inputs() -> dict[str, dict | str]:
    """Inputs the command line refuses, each named for its fault.  A string
    is the file's literal text, for the non-finite and out-of-range numbers
    (Infinity, NaN, 1e400) that a float cannot hold or compare equal."""
    one = {"dim": 1, "entries": [[[1, 0]]]}
    identity = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]
    return {
        "infinite_n_single.json": '{"n_single": Infinity, "sides": [[1], [2]], "joints": [[1, 2]]}',
        "1e400_n_single.json": '{"n_single": 1e400, "sides": [[1], [2]], "joints": [[1, 2]]}',
        # a string of digits must not unpack into events, nor 4.9 truncate to 4
        "digit_strings.json": {"n_single": 4, "sides": ["12", "34"], "joints": ["13", "14", "23", "24"]},
        "float_n_single.json": {**_structure((1, 2), (3, 4)), "n_single": 4.9},
        "duplicate_joint.json": _structure((1, 2), (3, 4), [(1, 3), (3, 1), (1, 4), (2, 3), (2, 4)]),
        "three_sides.json": {"n_single": 3, "sides": [[1], [2], [3]], "joints": [[1, 2], [2, 3]]},
        "three_sides_ineq.json": {"coeffs": {"1,2": 1, "2,3": 1}},
        # 22 single events, past the budget of 20
        "22_events.json": _structure(range(1, 22), (22,), [(1, 22)]),
        # 2^16 vertices of dimension 16 + 49: one joint past the vertex budget
        "vertex_budget.json": _structure(
            range(1, 9), range(9, 17), [(i, j) for i in range(1, 9) for j in range(9, 17)][:49]
        ),
        "not_json.json": "not json",
        "infinite_coeff_ineq.json": '{"coeffs": {"1,3": Infinity, "1": -1}, "lower": null, "upper": 0}',
        "1e400_upper_ineq.json": '{"coeffs": {"1,3": 1, "1": -1}, "lower": null, "upper": 1e400}',
        # exact in the polytope layer, but no float operator can hold it
        "10^400_ineq.json": {"coeffs": {"1,3": 10**400, "1": -1}, "upper": 0},
        # each coefficient is a float, but their sum on the diagonal is not
        "sum_overflow_ineq.json": {"coeffs": {"1": 1e308, "3": 1e308}, "upper": 0},
        "word_ineq.json": {"coeffs": {"1,3": "one"}},
        "17_dim_op.json": {"dim": 17, "entries": []},
        "1e400_dim_op.json": '{"dim": 1e400, "basis": "computational", "entries": [[[1, 0]]]}',
        "dim_word_op.json": {**one, "dim": "four"},
        "no_entries_op.json": {"dim": 1},
        "unpaired_op.json": {"dim": 1, "entries": [[1]]},
        "dim_mismatch_op.json": {"dim": 2, "basis": "computational", "entries": identity},
        "pauli_op.json": {"dim": 4, "basis": "pauli", "entries": identity},
        "angles_list_op.json": {**one, "angles": [0.5]},
        "bad_source_op.json": {**one, "source": {"coeffs": []}},
        # checked, not repaired into the Hermitian part with eigenvalues +-0.5
        "non_hermitian_op.json": {"dim": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
        "nan_entry_op.json": '{"dim": 1, "entries": [[[NaN, 0]]]}',
        "nan_state.json": '{"basis": "computational", "amplitudes": [[NaN, 0], [1, 0], [0, 0], [0, 0]]}',
        "10^400_state.json": {"amplitudes": [[10**400, 0], [1, 0], [0, 0], [0, 0]]},
        "no_amplitudes_state.json": {"basis": "computational"},
        "unpaired_state.json": {"amplitudes": [1, 0, 0, 0]},
        "three_amplitudes_state.json": {"amplitudes": SINGLET[:3]},
        "unnormalized_state.json": {"amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]},
        "pauli_state.json": {"basis": "pauli", "amplitudes": SINGLET},
    }


def _seeded_angles(rng: random.Random, events: int) -> str:
    return ",".join(f"{e}={rng.uniform(-math.pi, math.pi)!r}" for e in range(1, events + 1))


def _bound(layout, angles, ineq=None) -> list[str]:
    return ["bound", "--structure", f"{layout}.json",
            "--ineq", ineq or f"{layout}_ineq.json", "--angles", angles]


def _sweep(layout, schedule, grid, *extra, ineq=None, out="out.csv") -> list[str]:
    return ["sweep", "--structure", f"{layout}.json", "--ineq", ineq or f"{layout}_ineq.json",
            "--schedule", schedule, "--grid", grid, "--out", out, *extra]


def build_commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every corpus entry."""
    cmds = []
    for layout in ("ch", "2x4", "i33", "3x2"):
        s = ["--structure", f"{layout}.json"]
        cmds += [
            (f"vertices-{layout}", ["polytope", "vertices", *s]),
            (f"facets-{layout}", ["polytope", "facets", *s, "--out", "facets.json"]),
            (f"verify-{layout}", ["polytope", "verify", *s, "--ineq", f"{layout}_ineq.json"]),
        ]
    cmds += [(f"facets-{layout}", ["polytope", "facets", "--structure", f"{layout}.json",
                                   "--out", "facets.json"])
             for layout in ("wide", "dim16", "2x3", "i33_drop")]
    cmds += [
        ("vertices-ch-out", ["polytope", "vertices", "--structure", "ch.json", "--out", "vertices.json"]),
        ("facets-ch-stdout", ["polytope", "facets", "--structure", "ch.json"]),
        ("verify-ch-slack", ["polytope", "verify", "--structure", "ch.json", "--ineq", "ch_slack_ineq.json"]),
    ]
    for layout, angles in (("ch", CH_ANGLES), ("i33", I33_GENERIC), ("3x2", ANGLES_3X2)):
        build = ["operator", "build", "--structure", f"{layout}.json",
                 "--ineq", f"{layout}_ineq.json", "--angles", angles, "--out", "op.json"]
        cmds += [(f"operator-{layout}", build),
                 (f"operator-{layout}-bell-basis", [*build, "--bell-basis"])]
    cmds.append(("operator-ch-bell-basis-stdout",
                 ["operator", "build", "--structure", "ch.json", "--ineq", "ch_ineq.json",
                  "--angles", CH_ANGLES, "--bell-basis"]))

    cmds += [
        ("bound-ch-landmark", _bound("ch", CH_ANGLES)),
        ("bound-i33-landmark", _bound("i33", I33_ANGLES)),
        ("bound-ch-equal-left-settings", _bound("ch", "1=0.3,2=0.3,3=1.1,4=2.0")),
        ("bound-3x2", _bound("3x2", ANGLES_3X2)),
    ]
    rng = random.Random(23)
    for n in range(2):
        cmds += [
            (f"bound-ch-seeded-{n}", _bound("ch", _seeded_angles(rng, 4))),
            (f"bound-i33-seeded-{n}", _bound("i33", _seeded_angles(rng, 6))),
        ]
    cmds += [(f"bound-ch-x2^{k}", _bound("ch", CH_ANGLES, f"ch_x2^{k}.json")) for k in SCALES]
    cmds += [
        *((f"spectrum-{op}", ["spectrum", "--operator", f"{op}_op.json", "--out", "spectrum.json"])
          for op in ("tridiagonal", "degenerate", "dense")),
        ("spectrum-angles", ["spectrum", "--operator", "angles_op.json"]),
        ("state-singlet", ["state", "analyze", "--state", "singlet.json"]),
    ]

    cmds += [
        # the README's sampled sweep
        ("sweep-ch-sampled-101", _sweep("ch", CH_SCHEDULE, "0:pi:101", "--samples", "3000", "--seed", "7")),
        ("eigencurves-i33-101", _sweep("i33", I33_SCHEDULE, "0:pi:101", "--eigencurves")),
        ("eigencurves-i33-1001", _sweep("i33", I33_SCHEDULE, "0:pi:1001", "--eigencurves")),
        # CH splits in the Bell basis at 0, pi/4, 3pi/4 and pi only, so every
        # row is ascending; this grid misses the zero cells LAPACK rounds
        ("eigencurves-ch-101", _sweep("ch", CH_SCHEDULE, "0.1:3:101", "--eigencurves")),
        # no --samples: the sampled cells are empty
        ("sweep-ch-101", _sweep("ch", CH_SCHEDULE, "0:pi:101")),
        ("eigencurves-3x2-101", _sweep("3x2", SCHEDULE_3X2, "0.1:3:101", "--eigencurves")),
    ]
    return cmds + _refusals()


def _refusals() -> list[tuple[str, list[str]]]:
    """(name, argv) of the refusals, each pinned by its exit code, its whole
    stderr and the files it leaves.  ``verify-ch-10^400`` is the one exit 0
    among them, the exact half of ``exit2-bound-10^400``."""
    ch = ["--structure", "ch.json"]
    build = ["operator", "build", *ch, "--ineq", "ch_ineq.json"]

    def polytope(action, structure, *extra):
        return ["polytope", action, "--structure", structure, *extra]

    def verify(ineq, structure="ch.json"):
        return polytope("verify", structure, "--ineq", ineq)

    def spectrum(op, *extra):
        return ["spectrum", "--operator", op, *extra]

    def ch_sweep(grid, *extra, **kwargs):
        return _sweep("ch", CH_SCHEDULE, grid, *extra, **kwargs)

    cmds = [
        ("exit2-bad-angle-token", _bound("ch", "1=zero,2=pi/2,3=pi/4,4=3pi/4")),
        ("exit2-angle-format", [*build, "--angles", "oops"]),
        *((f"exit2-angle-{bad}", _bound("ch", f"1={bad},2=pi/2,3=pi/4,4=3pi/4"))
          for bad in ("nan", "inf", "1e400")),
        ("exit2-angle-quotient-overflow", _bound("ch", "1=1e300/1e-300,2=0,3=0,4=0")),
        ("exit2-angle-unknown-event-bound", _bound("ch", CH_ANGLES + ",9=1")),
        ("exit2-angle-unknown-event-operator", [*build, "--angles", CH_ANGLES + ",9=1"]),
        ("exit2-angle-repeated-event", _bound("ch", "1=0,1=5,2=pi/2,3=pi/4,4=3pi/4")),
        ("exit2-angle-division-by-zero", _bound("ch", "1=1/0,2=0,3=0,4=0")),
        ("exit2-angle-event-index", _bound("ch", "x=0,2=0,3=0,4=0")),
        ("exit2-angle-missing-joint", _bound("ch", "1=0,2=pi/2,3=pi/4")),
        # sum_overflow_ineq.json has single events only
        ("exit2-angle-missing-event", _bound("ch", "1=0,2=0,4=0", "sum_overflow_ineq.json")),
        ("exit2-missing-file", polytope("vertices", "no.json")),
        ("exit2-verify-without-ineq", polytope("verify", "ch.json")),
        ("exit2-infinite-n-single", polytope("vertices", "infinite_n_single.json")),
        ("exit2-1e400-n-single", polytope("vertices", "1e400_n_single.json")),
        ("exit2-digit-strings", verify("ch_ineq.json", "digit_strings.json")),
        ("exit2-float-n-single", verify("ch_ineq.json", "float_n_single.json")),
        ("exit2-duplicate-joint", polytope("facets", "duplicate_joint.json")),
        ("exit2-three-sides", ["bound", "--structure", "three_sides.json",
                               "--ineq", "three_sides_ineq.json", "--angles", "1=0,2=0,3=0"]),
        ("exit2-infinite-coefficient", verify("infinite_coeff_ineq.json")),
        ("exit2-1e400-upper", verify("1e400_upper_ineq.json")),
        ("exit2-coefficient-word", _bound("ch", "1=0,2=0,3=0,4=0", "word_ineq.json")),
        ("verify-ch-10^400", verify("10^400_ineq.json")),
        ("exit2-bound-10^400", _bound("ch", CH_ANGLES, "10^400_ineq.json")),
        *((f"exit2-operator-{name.replace('_', '-')}", spectrum(f"{name}_op.json"))
          for name in ("1e400_dim", "dim_word", "no_entries", "unpaired", "dim_mismatch",
                       "pauli", "angles_list", "bad_source", "non_hermitian")),
        *((f"exit2-state-{name.replace('_', '-')}", ["state", "analyze", "--state", f"{name}_state.json"])
          for name in ("nan", "10^400", "no_amplitudes", "unpaired", "three_amplitudes",
                       "unnormalized", "pauli")),
        ("exit2-unwritable-facets", polytope("facets", "ch.json", "--out", "missing/facets.json")),
        ("exit2-unwritable-operator", [*build, "--angles", CH_ANGLES, "--out", "missing/op.json"]),
        ("exit2-unwritable-spectrum", spectrum("tridiagonal_op.json", "--out", "missing/spectrum.json")),
        ("exit2-unwritable-sweep", ch_sweep("0:pi:3", out="missing/out.csv")),
        ("exit2-sweep-out-directory", ch_sweep("0:pi:3", out=".")),
        # Linux's /dev/full opens, then refuses every write; not for sweep,
        # whose manifest beside it would be a new file in /dev
        ("exit2-dev-full-vertices", polytope("vertices", "ch.json", "--out", "/dev/full")),
        ("exit2-dev-full-facets", polytope("facets", "ch.json", "--out", "/dev/full")),
        ("exit2-dev-full-operator", [*build, "--angles", CH_ANGLES, "--out", "/dev/full"]),
        ("exit2-dev-full-spectrum", spectrum("tridiagonal_op.json", "--out", "/dev/full")),
        ("exit2-grid-format", ch_sweep("junk")),
        ("exit2-grid-count-word", ch_sweep("0:pi:x")),
        ("exit2-grid-count-zero", ch_sweep("0:pi:0")),
        # hi - lo overflows, so the middle point is nan; a grid that starts
        # below zero is joined to its option
        ("exit2-grid-non-finite", ["sweep", *ch, "--ineq", "ch_ineq.json", "--schedule", CH_SCHEDULE,
                                   "--grid=-1e308:1e308:3", "--out", "out.csv"]),
        ("exit2-schedule-empty-term", _sweep("ch", "1=,2=2t,3=t,4=3t", "0:pi:5")),
        ("exit2-schedule-malformed-term", _sweep("ch", "1=0,2=2t+,3=t,4=3t", "0:pi:5")),
        ("exit2-invalid-json", polytope("vertices", "not_json.json")),
        ("exit2-eigencurves-with-samples", ch_sweep("0:pi:9", "--samples", "20", "--eigencurves")),
        ("exit2-negative-samples", ch_sweep("0:pi:9", "--samples", "-5")),
        ("exit2-negative-seed", ch_sweep("0:pi:9", "--seed", "-1")),
        ("exit3-single-events", polytope("vertices", "22_events.json")),
        ("exit3-hull-budget", polytope("facets", "22_events.json")),
        ("exit3-vertex-budget", polytope("vertices", "vertex_budget.json")),
        # a device that never ends: refused once the budget's bytes are read
        ("exit3-input-budget", polytope("vertices", "/dev/zero")),
        ("exit3-operator-dim", spectrum("17_dim_op.json")),
        ("exit3-grid-budget", ch_sweep("0:1:100002")),
        ("exit3-samples-budget", ch_sweep("0:pi:1", "--samples", "1000001")),
        ("exit3-grid-samples-budget", ch_sweep("0:pi:1001", "--samples", "999001")),
        ("exit4-operator-nan-entry", spectrum("nan_entry_op.json")),
        # at these angles the operator splits in the Bell basis; its entries
        # are finite, its norm, about 1.84e308, is not
        ("exit4-norm-overflow", ["sweep", *ch, "--ineq", "huge_ineq.json",
                                 "--schedule", "1=0,2=pi,3=0,4=pi", "--grid", "0:1:3",
                                 "--eigencurves", "--out", "out.csv"]),
        ("exit4-sum-overflow-bound", _bound("ch", CH_ANGLES, "sum_overflow_ineq.json")),
        ("exit4-sum-overflow-operator", ["operator", "build", *ch, "--ineq", "sum_overflow_ineq.json",
                                         "--angles", CH_ANGLES, "--out", "op.json"]),
    ]
    for mode, extra in (("sweep", ()), ("eigencurves", ("--eigencurves",))):
        cmds += [
            (f"exit2-schedule-repeated-event-{mode}",
             _sweep("ch", CH_SCHEDULE + ",1=t", "0:pi:5", *extra)),
            (f"exit2-schedule-unknown-event-{mode}",
             _sweep("ch", CH_SCHEDULE + ",9=t", "0:pi:5", *extra)),
            (f"exit4-sum-overflow-{mode}", ch_sweep("0:pi:5", *extra, ineq="sum_overflow_ineq.json")),
        ]
    return cmds


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], inputs: dict[str, dict]) -> dict:
    """Write ``inputs`` to the working directory, run ``bellbounds argv`` in
    this process, and return its exit code and the sha256 of its stdout, its
    stderr and each file it left beside the inputs."""
    for name, doc in inputs.items():
        pathlib.Path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numeric warning is a failure
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
        if name not in old["inputs"]:
            print(f"added input: {name}")
        elif name not in inputs:
            print(f"removed input: {name}")
        elif old["inputs"][name] != inputs[name]:
            print(f"input changed: {name}")
    for entry in entries:
        if entry["name"] not in old_entries:
            print(f"added: {entry['name']}")
        elif old_entries[entry["name"]] != entry:
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
