"""Random density matrices and Monte Carlo sweeps of quantum bounds.

States come from a 16-parameter construction: a Hermitian matrix B built
from the parameters is squared and trace-normalized, which is positive
semidefinite by construction.  Parameters are drawn from a standard normal
distribution (the construction itself does not prescribe one) using the
counter-based Philox generator, keyed by (seed, grid index) so that parallel
evaluation cannot change results.

A sweep does its grid-wide work as array operations: one (G, 4, 4) operator
build and one stacked eigensolve give the analytic bounds of all G grid
points.  The Monte Carlo bounds are then drawn point by point, each from its
own stream, and evaluated by the quadratic-form kernel
:func:`bellbounds.kernels.batch_expectations`, which never forms the density
matrices.  Eigencurves build and split one operator per grid point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, TextIO

import numpy as np

from . import kernels
from .errors import BudgetError, InputError
from .polytope import EventStructure, Inequality, classical_range, enumerate_vertices
from .qops import BellOperator, DensityMatrix, bell_operator, bell_operators, to_bell_basis
from .spectra import cardano_eigenvalues, eigen, o33_block_decompose, stacked_eigenvalues

#: Budgets on the sizes a sweep's caller controls: grid points, samples per
#: point, and samples over the whole grid.
MAX_GRID_POINTS = 100_001
MAX_SAMPLES = 10**6
MAX_SWEEP_SAMPLES = 10**9


@dataclass
class DensityParams:
    """The 16 real parameters of one random density matrix."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if b.shape != (16,):
            raise InputError("need exactly 16 parameters")
        if not np.any(b):
            raise InputError("all-zero parameters give no normalizable state")
        self.b = b


@dataclass
class SweepResult:
    parameter: float
    analytic_min: float
    analytic_max: float
    sampled_min: Optional[float]
    sampled_max: Optional[float]
    classical_bounds: tuple[Fraction, Fraction]
    n_samples: int
    seed: int


def density_from_params(p: DensityParams) -> DensityMatrix:
    """W' = B^2 / Tr[B^2] for the Hermitian root matrix B built from p."""
    B = kernels.assemble_root_matrices(p.b.reshape(1, 16))[0]
    W = B @ B
    return DensityMatrix(W / np.trace(W).real)


def _rng(seed: int, *extra: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *extra])))


def sample_params(n: int, seed: int, *key_extra: int) -> np.ndarray:
    """(n, 16) standard-normal parameter rows, deterministic in (n, seed)."""
    if n < 1:
        raise InputError("need n >= 1 samples")
    return _rng(seed, *key_extra).standard_normal((n, 16))


def sample_states(n: int, seed: int) -> Iterator[DensityMatrix]:
    """Stream of n random density matrices, deterministic given (n, seed)."""
    for row in sample_params(n, seed):
        yield density_from_params(DensityParams(row))


def pure_state_polish(
    O: BellOperator, W: DensityMatrix, max_iter: int = 20000
) -> tuple[float, np.ndarray]:
    """Gradient-free ascent from a sampled state to the top of the spectrum.

    Extracts the dominant pure component of W, then runs shifted power
    iteration on the operator; every step is monotone in the Rayleigh
    quotient, so the result closes the gap between sampled and analytic
    bounds.  Independent of the eigensolver route.
    """
    M = np.asarray(O.matrix, dtype=np.complex128)
    # dominant eigenvector of W by plain power iteration
    psi = np.full(4, 0.5, dtype=np.complex128)
    for _ in range(100):
        psi = W.matrix @ psi
        nrm = np.linalg.norm(psi)
        if nrm < 1e-300:
            psi = np.full(4, 0.5, dtype=np.complex128)
            break
        psi = psi / nrm
    shift = 1.0 + float(np.max(np.sum(np.abs(M), axis=1)))
    shifted = M + shift * np.eye(4)
    prev = float(np.real(psi.conj() @ M @ psi))
    for _ in range(max_iter):
        psi = shifted @ psi
        psi = psi / np.linalg.norm(psi)
        val = float(np.real(psi.conj() @ M @ psi))
        if abs(val - prev) < 1e-15 * max(1.0, abs(val)):
            prev = val
            break
        prev = val
    return prev, psi


def sweep(
    ineq: Inequality,
    structure: EventStructure,
    angle_schedule: Callable[[float], dict[int, float]],
    theta_grid: list[float],
    n_samples: int,
    seed: int,
) -> list[SweepResult]:
    """Analytic and sampled extreme expectation values per grid point.

    The whole grid's operators are built as one stack and diagonalized in one
    stacked eigensolve; the samples of grid point g come from the stream
    keyed by (seed, g).
    """
    if not theta_grid:
        raise InputError("empty parameter grid")
    if len(theta_grid) > MAX_GRID_POINTS:
        raise BudgetError(f"{len(theta_grid)} grid points above limit {MAX_GRID_POINTS}")
    if n_samples > MAX_SAMPLES:
        raise BudgetError(f"{n_samples} samples per point above limit {MAX_SAMPLES}")
    if len(theta_grid) * n_samples > MAX_SWEEP_SAMPLES:
        raise BudgetError(
            f"{len(theta_grid)} grid points x {n_samples} samples above limit {MAX_SWEEP_SAMPLES}"
        )
    vertices = enumerate_vertices(structure)
    classical = classical_range(ineq, vertices, structure)
    schedules = [angle_schedule(theta) for theta in theta_grid]
    events = schedules[0].keys()
    if any(a.keys() != events for a in schedules):
        raise InputError("the angle schedule must name the same events at every grid point")
    ops = bell_operators(ineq, {e: [a[e] for a in schedules] for e in events}, structure)
    eigenvalues = stacked_eigenvalues(ops)
    results = []
    for g, theta in enumerate(theta_grid):
        if n_samples > 0:
            params = sample_params(n_samples, seed, g)
            vals = kernels.batch_expectations(params, ops[g])
            smin, smax = float(np.min(vals)), float(np.max(vals))
        else:
            smin = smax = None
        results.append(
            SweepResult(
                parameter=float(theta),
                analytic_min=float(eigenvalues[g, 0]),
                analytic_max=float(eigenvalues[g, -1]),
                sampled_min=smin,
                sampled_max=smax,
                classical_bounds=classical,
                n_samples=n_samples,
                seed=seed,
            )
        )
    return results


def eigencurves(
    ineq: Inequality,
    structure: EventStructure,
    angle_schedule: Callable[[float], dict[int, float]],
    theta_grid: list[float],
) -> list[tuple[float, list[float]]]:
    """Eigenvalue curves over the grid.

    When the operator block-diagonalizes in the Bell basis the columns are the
    1x1 block followed by the three Cardano roots (the three-setting layout);
    otherwise eigenvalues are reported ascending.
    """
    curves = []
    for theta in theta_grid:
        O = bell_operator(ineq, angle_schedule(theta), structure)
        try:
            o1, o3 = o33_block_decompose(to_bell_basis(O))
            lams = [o1] + cardano_eigenvalues(o3)
        except InputError:
            lams = [float(x) for x in eigen(O.matrix).eigenvalues]
        curves.append((float(theta), lams))
    return curves


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def write_sweep_csv(results: list[SweepResult], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        [
            "theta",
            "analytic_min",
            "analytic_max",
            "sampled_min",
            "sampled_max",
            "classical_min",
            "classical_max",
            "n_samples",
            "seed",
        ]
    )
    for r in results:
        writer.writerow(
            [
                _fmt(r.parameter),
                _fmt(r.analytic_min),
                _fmt(r.analytic_max),
                _fmt(r.sampled_min),
                _fmt(r.sampled_max),
                _fmt(r.classical_bounds[0]),
                _fmt(r.classical_bounds[1]),
                str(r.n_samples),
                str(r.seed),
            ]
        )


def write_eigencurves_csv(
    curves: list[tuple[float, list[float]]], fh: TextIO
) -> None:
    if not curves:
        raise InputError("no curve data")
    ncols = len(curves[0][1])
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["theta"] + [f"lambda{i + 1}" for i in range(ncols)])
    for theta, lams in curves:
        writer.writerow([_fmt(theta)] + [_fmt(x) for x in lams])
