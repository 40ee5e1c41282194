"""The four benchmark workloads, each a closed loop with one client.

A workload writes its inputs in its constructor (part of set-up), issues the
commands of one round through a ``Runner`` in ``round()``, and checks what
the program wrote in ``check()``, after the timed part of the run.  Every
command goes in-process through ``bellbounds.cli.main``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import bellbounds.cli
from bellbounds import catalog

import checks

LAYOUTS = {
    "ch": (catalog.ch_structure, catalog.ch_inequality),
    "i33": (catalog.i33_structure, catalog.i33_inequality),
}


class Runner:
    """Calls ``bellbounds.cli.main`` and times each command by its kind."""

    def __init__(self):
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)  # (start, end)
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, kind: str, argv: list[str]) -> tuple[bool, str]:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                # looked up on every call, so a tracer's wrapper is used
                rc = bellbounds.cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        self.busy_s += t1 - t0
        self.latency[kind].append(t1 - t0)
        self.spans[kind].append((t0, t1))
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:2])}: exit {rc} {err.getvalue().strip()}")
        return rc == 0, out.getvalue()


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _schedule_text(slopes: dict[int, int]) -> str:
    return ",".join(f"{e}={'0' if m == 0 else 't' if m == 1 else f'{m}t'}" for e, m in slopes.items())


class _Layouts:
    """Writes the catalog structure and inequality of each layout it uses."""

    def __init__(self, workdir: Path, names):
        self.files, self.docs = {}, {}
        for name in names:
            structure, inequality = (f().to_json() for f in LAYOUTS[name])
            self.docs[name] = (checks.Layout(structure), inequality)
            self.files[name] = (
                _write_json(workdir / f"{name}.json", structure),
                _write_json(workdir / f"{name}_ineq.json", inequality),
            )


class Hull:
    """``polytope facets``, then ``polytope verify`` on a seeded sample of them."""

    op_kind, item_kinds, items_per_command = "facets", ("verify",), 1

    def __init__(self, workdir: Path, seed: int, layout="i33", expected=684, per_round=32):
        self.workdir = workdir
        self.layouts = _Layouts(workdir, [layout])
        self.layout = layout
        self.expected = expected
        self.per_round = per_round
        self.rng = np.random.default_rng(seed)
        self.out = str(workdir / "facets.json")
        self.facets_bytes: list[bytes] = []
        self.verified: list[tuple[int, str]] = []  # (facet index, output)
        self._facets = self._order = None
        self._next = 0

    def round(self, run: Runner) -> None:
        structure, _ = self.layouts.files[self.layout]
        ok, _ = run("facets", ["polytope", "facets", "--structure", structure, "--out", self.out])
        if not ok:
            return
        self.facets_bytes.append(Path(self.out).read_bytes())
        if self._facets is None:
            self._facets = json.loads(self.facets_bytes[0])["facets"]
            self._order = self.rng.permutation(len(self._facets))
        facets = self._facets
        for _ in range(self.per_round):
            k = int(self._order[self._next % len(facets)])
            self._next += 1
            ineq = _write_json(self.workdir / "facet.json", facets[k])
            ok, out = run("verify", ["polytope", "verify", "--structure", structure, "--ineq", ineq])
            if ok:
                self.verified.append((k, out))

    def check(self) -> list[str]:
        if not self.facets_bytes:
            return ["no facet list was produced"]
        layout, _ = self.layouts.docs[self.layout]
        hull = checks.HullCheck(layout, self.expected)
        doc = json.loads(self.facets_bytes[0])
        problems = hull.check(doc)
        if len(set(self.facets_bytes)) != 1:
            problems.append("facet lists differ between rounds")
        for k, out in self.verified:
            problems += hull.check_verify(doc["facets"][k], out)
        return problems


class Sweep:
    """``sweep`` on the CH layout with Monte Carlo samples, CSV plus manifest."""

    op_kind, item_kinds = "sweep", ("sweep",)
    SLOPES = {1: 0, 2: 2, 3: 1, 4: 3}

    def __init__(self, workdir: Path, seed: int, points=1001, samples=3000):
        self.layouts = _Layouts(workdir, ["ch"])
        self.points, self.samples = points, samples
        self.items_per_command = points
        self.seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
        self.out = str(workdir / "sweep.csv")
        self.outputs: list[tuple[bytes, dict]] = []

    def round(self, run: Runner) -> None:
        structure, ineq = self.layouts.files["ch"]
        ok, _ = run("sweep", [
            "sweep", "--structure", structure, "--ineq", ineq,
            "--schedule", _schedule_text(self.SLOPES), "--grid", f"0:pi:{self.points}",
            "--samples", str(self.samples), "--seed", str(self.seed), "--out", self.out,
        ])
        if ok:
            manifest = json.loads(Path(self.out + ".manifest.json").read_text())
            self.outputs.append((Path(self.out).read_bytes(), manifest))

    def check(self) -> list[str]:
        if not self.outputs:
            return ["no sweep output was produced"]
        layout, ineq = self.layouts.docs["ch"]
        data, manifest = self.outputs[0]
        problems = checks.check_sweep(
            data, manifest, np.linspace(0.0, math.pi, self.points), self.samples,
            self.seed, checks.classical_range(layout, ineq),
        )
        digests = {hashlib.sha256(d).hexdigest() for d, _ in self.outputs}
        if len(digests) != 1:
            problems.append(f"repeated sweeps with one seed gave {len(digests)} digests")
        return problems


class Eigencurves:
    """``sweep --eigencurves`` on the three-setting layout.

    The grid is the fixed 0:pi:N; see the README for why it is not seeded.
    """

    op_kind, item_kinds = "curves", ("curves",)
    SLOPES = {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2}

    def __init__(self, workdir: Path, seed: int, points=1001):
        self.layouts = _Layouts(workdir, ["i33"])
        self.points = points
        self.items_per_command = points
        self.out = str(workdir / "curves.csv")
        self.outputs: list[bytes] = []

    def round(self, run: Runner) -> None:
        structure, ineq = self.layouts.files["i33"]
        ok, _ = run("curves", [
            "sweep", "--structure", structure, "--ineq", ineq,
            "--schedule", _schedule_text(self.SLOPES), "--grid", f"0:pi:{self.points}",
            "--eigencurves", "--out", self.out,
        ])
        if ok:
            self.outputs.append(Path(self.out).read_bytes())

    def check(self) -> list[str]:
        if not self.outputs:
            return ["no eigencurve output was produced"]
        layout, ineq = self.layouts.docs["i33"]
        schedule = {e: (float(m), 0.0) for e, m in self.SLOPES.items()}
        problems = checks.check_curves(
            self.outputs[0].decode(), layout, ineq, schedule,
            np.linspace(0.0, math.pi, self.points),
        )
        if len(set(self.outputs)) != 1:
            problems.append("eigencurve outputs differ between rounds")
        return problems


class BoundQueries:
    """Single ``bound`` queries on seeded random angles, alternating the CH
    and three-setting layouts.

    The two layouts' latencies form two clusters, and the median of the
    mixture falls in the sparse gap between them, where it jumps with small
    shifts of either; so ``op_kind`` is the three-setting query alone, while
    both count as items.
    """

    op_kind, item_kinds, items_per_command = "query-i33", ("query-ch", "query-i33"), 1
    PATTERN = ("ch", "i33")

    def __init__(self, workdir: Path, seed: int):
        self.layouts = _Layouts(workdir, ["ch", "i33"])
        self.rng = np.random.default_rng(seed)
        self.answers: list[tuple[str, np.ndarray, str]] = []

    def round(self, run: Runner) -> None:
        for name in self.PATTERN:
            layout, _ = self.layouts.docs[name]
            angles = self.rng.uniform(0.0, 2.0 * math.pi, layout.n_single)
            structure, ineq = self.layouts.files[name]
            ok, out = run(f"query-{name}", [
                "bound", "--structure", structure, "--ineq", ineq,
                "--angles", ",".join(f"{e}={float(t)!r}" for e, t in enumerate(angles, start=1)),
            ])
            if ok:
                self.answers.append((name, angles, out))

    def check(self) -> list[str]:
        problems = []
        for name, (layout, ineq) in self.layouts.docs.items():
            answers = [(angles, out) for n, angles, out in self.answers if n == name]
            problems += checks.check_bounds(
                [out for _, out in answers], layout, ineq,
                np.array([angles for angles, _ in answers]).reshape(len(answers), layout.n_single),
                checks.classical_range(layout, ineq), maximally_entangled=(name == "ch"),
            )
        return problems


WORKLOADS = {
    "hull-i33": Hull,
    "sweep-ch-sampled": Sweep,
    "eigencurves-i33": Eigencurves,
    "bound-queries": BoundQueries,
}

# the user-facing name each generic end-to-end metric has on a workload
NAMES = {
    "hull-i33": {"op": "hull_s", "items": "oracle_facets_per_s"},
    "sweep-ch-sampled": {"op": "sweep_s", "items": "sweep_points_per_s"},
    "eigencurves-i33": {"op": "curves_s", "items": "curve_points_per_s"},
    "bound-queries": {"op": "query_p50_ms of three-setting queries", "items": "queries_per_s"},
}


def environment() -> dict:
    return {
        "backend": bellbounds.kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
