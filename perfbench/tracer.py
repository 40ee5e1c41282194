"""Per-layer timing of bellbounds from outside the package.

A ``Tracer`` wraps the public functions of each layer at every module
attribute through which callers look them up (``bellbounds.cli.hull_facets``,
``bellbounds.kernels.eigh`` and so on), so no file of the package changes.
Each wrapper records a span; a span's self time is its duration minus the
durations of the spans it caused.  Spans are aggregated in memory as self
time and call count per span name, plus work counters and numerical-health
figures read from the wrapped functions' arguments and results.
"""

from __future__ import annotations

import sys
import time
from types import ModuleType

LAYERS = ("cli", "polytope", "qops", "spectra", "kernels", "sampling", "states")


def _facets(counters, args, result):
    counters["polytope.facets"] += len(result)


def _eigen_health(counters, args, result):
    counters["spectra.eigen.max_residual"] = max(
        counters["spectra.eigen.max_residual"], float(result.residual)
    )
    counters["spectra.eigen.degenerate"] += int(result.degenerate)


def _batch_rows(counters, args, result):
    counters["kernels.batch_expectations.rows"] += int(args[0].shape[0])


def _sample_rows(counters, args, result):
    counters["sampling.sample_params.rows"] += int(result.shape[0])


def _csv_bytes(counters, args, result):
    # the CLI writes into a fresh StringIO, so its position is the size
    counters["sampling.csv_bytes"] += int(args[1].tell())


def _max_excess(counters, args, result):
    for r in result:
        if r.sampled_max is None:
            continue
        excess = max(r.sampled_max - r.analytic_max, r.analytic_min - r.sampled_min)
        counters["sampling.max_excess"] = max(counters["sampling.max_excess"], excess)
        counters["sampling.max_excess.rows"] += 1


# (module, attribute, span name, hook reading work counts or health)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("polytope", "enumerate_vertices", "polytope.enumerate_vertices", None),
    ("polytope", "hull_facets", "polytope.hull_facets", _facets),
    ("polytope", "verify_facet", "polytope.verify_facet", None),
    ("polytope", "classical_range", "polytope.classical_range", None),
    ("qops", "bell_operator", "qops.bell_operator", None),
    ("qops", "to_bell_basis", "qops.to_bell_basis", None),
    ("spectra", "eigen", "spectra.eigen", _eigen_health),
    ("spectra", "quantum_bound", "spectra.quantum_bound", None),
    ("spectra", "o33_block_decompose", "spectra.cardano", None),
    ("spectra", "cardano_eigenvalues", "spectra.cardano", None),
    ("kernels", "eigh", "kernels.eigh", None),
    ("kernels", "batch_expectations", "kernels.batch_expectations", _batch_rows),
    ("sampling", "sweep", "sampling.sweep", _max_excess),
    ("sampling", "eigencurves", "sampling.eigencurves", None),
    ("sampling", "sample_params", "sampling.sample_params", _sample_rows),
    ("sampling", "write_sweep_csv", "sampling.write_csv", _csv_bytes),
    ("sampling", "write_eigencurves_csv", "sampling.write_csv", _csv_bytes),
    ("states", "entanglement", "states.entanglement", None),
    ("states", "schmidt", "states.schmidt", None),
)

COUNTERS = (
    "polytope.facets",
    "spectra.eigen.max_residual",
    "spectra.eigen.degenerate",
    "kernels.batch_expectations.rows",
    "sampling.sample_params.rows",
    "sampling.csv_bytes",
    "sampling.max_excess",
    "sampling.max_excess.rows",
)


class Tracer:
    """Installs span wrappers on the bellbounds modules and aggregates them."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {k: 0 for k in COUNTERS}
        self.counters["sampling.max_excess"] = float("-inf")
        self._stack: list[list[float]] = []
        self._sites: list[tuple[ModuleType, str, object, object]] = []

    def _wrap(self, name, fn, hook):
        stack, self_s, calls, counters = self._stack, self.self_s, self.calls, self.counters
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(counters, args, result)
            return result

        return span

    def _find_sites(self) -> list[tuple[ModuleType, str, object, object]]:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "bellbounds" or n.startswith("bellbounds.")) and m is not None
        ]
        sites = []
        for mod_name, attr, name, hook in WRAPPED:
            fn = getattr(sys.modules[f"bellbounds.{mod_name}"], attr)
            wrapper = self._wrap(name, fn, hook)
            for mod in modules:
                sites += [(mod, key, fn, wrapper) for key, value in vars(mod).items() if value is fn]
        return sites

    def install(self) -> None:
        """Replace each wrapped function at every module attribute holding it."""
        if not self._sites:
            self._sites = self._find_sites()
        for mod, key, _, wrapper in self._sites:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn, _ in self._sites:
            setattr(mod, key, fn)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.split(".")[0] == layer)

    def metrics(self, rounds: int, wall_s: float, overhead_s: float) -> dict[str, float]:
        """Per-layer figures per traced round, keyed as in BENCHMARK.json."""
        per = 1.0 / rounds

        def s(*names):
            return sum(self.self_s.get(n, 0.0) for n in names) * per

        def calls(name):
            return self.calls.get(name, 0) * per

        c = self.counters
        out = {"cli.main.self_s": s("cli.main")}
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = self.layer_self_s(layer) * per
        out.update({
            "polytope.hull_facets.s": s("polytope.hull_facets"),
            "polytope.facets": c["polytope.facets"] * per,
            "polytope.verify_facet.s": s("polytope.verify_facet"),
            "polytope.verify_facet.calls": calls("polytope.verify_facet"),
            "polytope.enumerate_vertices.s": s("polytope.enumerate_vertices"),
            "polytope.classical_range.s": s("polytope.classical_range"),
            "polytope.classical_range.calls": calls("polytope.classical_range"),
            "qops.bell_operator.s": s("qops.bell_operator"),
            "qops.bell_operator.calls": calls("qops.bell_operator"),
            "qops.to_bell_basis.s": s("qops.to_bell_basis"),
            "spectra.eigen.s": s("spectra.eigen"),
            "spectra.eigen.calls": calls("spectra.eigen"),
            "spectra.cardano.s": s("spectra.cardano"),
            "spectra.eigen.max_residual": c["spectra.eigen.max_residual"],
            "spectra.eigen.degenerate": c["spectra.eigen.degenerate"] * per,
            "kernels.eigh.s": s("kernels.eigh"),
            "kernels.eigh.calls": calls("kernels.eigh"),
            "kernels.batch_expectations.s": s("kernels.batch_expectations"),
            "kernels.batch_expectations.rows": c["kernels.batch_expectations.rows"] * per,
            "sampling.sample_params.s": s("sampling.sample_params"),
            "sampling.sample_params.rows": c["sampling.sample_params.rows"] * per,
            "sampling.write_csv.s": s("sampling.write_csv"),
            "sampling.csv_bytes": c["sampling.csv_bytes"] * per,
            # 0 when no sampled row was produced
            "sampling.max_excess": c["sampling.max_excess"] if c["sampling.max_excess.rows"] else 0.0,
            "states.entanglement.s": s("states.entanglement"),
            "states.entanglement.calls": calls("states.entanglement"),
            "trace.overhead_s": overhead_s,
            "trace.wall_s": wall_s,
            "trace.layers_s": sum(self.layer_self_s(layer) for layer in LAYERS) * per,
            "trace.rounds": float(rounds),
        })
        return out
