"""Random density matrices and Monte Carlo sweeps of quantum bounds.

States come from a 16-parameter construction: a Hermitian matrix B built
from the parameters is squared and trace-normalized, which is positive
semidefinite by construction.  Parameters are drawn from a standard normal
distribution (the construction itself does not prescribe one) using the
counter-based Philox generator, keyed by (seed, grid index) so that parallel
evaluation cannot change results.

A sweep does its grid-wide work as array operations: one (G, 4, 4) operator
build and one stacked eigensolve give the analytic bounds of all G grid
points.  The Monte Carlo bounds are then taken point by point, each from its
own stream, by the quadratic-form kernel
:func:`bellbounds.kernels.batch_expectations`, which never forms the density
matrices.  The points are shared out among one thread per CPU the process
may use, but no more threads than points: the calling thread and a pool of
one thread fewer.  Each thread takes the next grid point as it comes free
and draws its samples in blocks of up to 2^15 rows into its own buffer,
running the kernel on each block as it is drawn.  Each grid point has its
own stream, so the results do not depend on the thread count or on which
thread took which point.  A thread holds its buffer, the point's n kernel
values (8n bytes) and the kernel's temporaries of one block (4 MiB each):
about 12 MiB plus 8n bytes, 20 MiB at MAX_SAMPLES, whatever the number of
grid points.  The sweep holds that once per thread, so on a host of many
CPUs it holds that many times as much: about 1.3 GB on 64 CPUs at 10^6
samples per point.  A sweep without samples, of one grid point, or on one
CPU, starts no thread.
Eigencurves take one route for the whole grid.  Each grid point's operator
is built as a one-point :func:`bellbounds.qops.bell_operators` stack and
handled as a plain array: one norm check, the Bell-basis change and the
block split, with no BellOperator.  When every point splits in the Bell
basis, the grid's 3x3 blocks go to one stacked tridiagonal eigensolve,
:func:`bellbounds.spectra.o33_block_eigenvalues`.  Otherwise every row gives
the ascending eigenvalues from the same operator stack and stacked
eigensolve that a sweep uses.
"""

from __future__ import annotations

import collections
import csv
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, TextIO

import numpy as np

from . import kernels
from .errors import BudgetError, InputError
from .polytope import EventStructure, Inequality, classical_range
from .qops import (
    BellOperator,
    DensityMatrix,
    _bell_basis,
    _check_norm,
    _components,
    _in_units,
    _unit,
    bell_operators,
)
from .spectra import _o33_blocks, _solve, o33_block_eigenvalues, stacked_eigenvalues

#: Budgets on the sizes a sweep's caller controls: grid points, samples per
#: point, and samples over the whole grid.
MAX_GRID_POINTS = 100_001
MAX_SAMPLES = 10**6
MAX_SWEEP_SAMPLES = 10**9
#: Steps of the power iteration in :func:`pure_state_polish`.
_POLISH_STEPS = 20000
#: Rows of a thread's sample buffer, drawn and passed to the kernel as one
#: block: 4 MiB, and so is each temporary the kernel makes.
_KERNEL_ROWS = 1 << 15


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
    with np.errstate(over="ignore", invalid="ignore"):  # DensityMatrix rejects non-finite W
        W = B @ B
        W = W / np.trace(W).real
    return DensityMatrix(W)


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


def pure_state_polish(O: BellOperator, W: DensityMatrix) -> tuple[float, np.ndarray]:
    """Gradient-free ascent from a sampled state to the top of the spectrum.

    Extracts the dominant pure component of W, then runs shifted power
    iteration on the operator; every step is monotone in the Rayleigh
    quotient, so the result closes the gap between sampled and analytic
    bounds.  Independent of the eigensolver route.  It runs on the operator
    in its units (:func:`qops._unit`), shift and stopping rule included, so
    the value scales exactly with the operator.
    """
    unit = _unit(float(_components(O.matrix).max()))
    M = _in_units(O.matrix, unit)
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
    for _ in range(_POLISH_STEPS):
        psi = shifted @ psi
        psi = psi / np.linalg.norm(psi)
        val = float(np.real(psi.conj() @ M @ psi))
        if abs(val - prev) < 1e-15 * max(1.0, abs(val)):
            prev = val
            break
        prev = val
    return unit * prev, psi


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
    keyed by (seed, g).  The exact classical range lists no vertex: it takes
    2^(n - size of the largest side) assignments (see
    :func:`bellbounds.polytope.classical_range`).
    """
    _check_grid(theta_grid)
    if n_samples > MAX_SAMPLES:
        raise BudgetError(f"{n_samples} samples per point above limit {MAX_SAMPLES}")
    if len(theta_grid) * n_samples > MAX_SWEEP_SAMPLES:
        raise BudgetError(
            f"{len(theta_grid)} grid points x {n_samples} samples above limit {MAX_SWEEP_SAMPLES}"
        )
    classical = classical_range(ineq, structure)
    ops = bell_operators(ineq, _grid_angles(angle_schedule, theta_grid), structure)
    eigenvalues, _, units = _solve(ops)
    if n_samples > 0:
        sampled = _sampled_extremes(ops, units.tolist(), n_samples, seed)
    else:
        sampled = [(None, None)] * len(theta_grid)
    results = []
    for g, theta in enumerate(theta_grid):
        results.append(
            SweepResult(
                parameter=float(theta),
                analytic_min=float(eigenvalues[g, 0]),
                analytic_max=float(eigenvalues[g, -1]),
                sampled_min=sampled[g][0],
                sampled_max=sampled[g][1],
                classical_bounds=classical,
                n_samples=n_samples,
                seed=seed,
            )
        )
    return results


def _check_grid(theta_grid: list[float]) -> None:
    if not theta_grid:
        raise InputError("empty parameter grid")
    if len(theta_grid) > MAX_GRID_POINTS:
        raise BudgetError(f"{len(theta_grid)} grid points above limit {MAX_GRID_POINTS}")


def _grid_angles(angle_schedule: Callable, theta_grid: list[float]) -> dict[int, list[float]]:
    """Each event's angles over the grid, as :func:`bell_operators` takes
    them.  Every point is scheduled before any operator is built, and the
    schedule must name the same events at every point."""
    schedules = [angle_schedule(theta) for theta in theta_grid]
    events = schedules[0].keys()
    if any(a.keys() != events for a in schedules):
        raise InputError("the angle schedule must name the same events at every grid point")
    return {e: [a[e] for a in schedules] for e in events}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sampled_extremes(
    ops: np.ndarray, units: list[float], n_samples: int, seed: int
) -> list[tuple[float, float]]:
    """(min, max) of Tr[W' op] over n_samples draws from stream (seed, g), per g.

    Each thread takes the next grid point from one shared iterator, so no
    thread waits for a given point and a slow CPU only takes fewer of them.
    It takes the point and makes the point's generator under one lock, and
    if making the generator fails it empties the iterator before it lets go
    of the lock: however long the thread is descheduled on the way, no
    thread takes a point after the one that failed.  It draws the point's
    samples into its buffer of _KERNEL_ROWS rows, block by block from the
    point's one generator, which gives the same numbers as one whole draw,
    and runs the kernel on each block into one array of the point's n
    values; numpy releases the GIL while it fills a block.  Tr[W' op] is
    linear in op: the kernel runs in op's units, where it cannot overflow,
    and np.min and np.max of the whole array, NaN and -0.0 included, are
    scaled back exactly.  A thread that fails later empties the iterator
    too, so the others stop at their next point.
    """
    threads = max(1, min(_usable_cpus(), len(ops)))
    points = iter(range(len(ops)))
    lock = threading.Lock()
    extremes: list = [None] * len(ops)

    def take() -> Optional[tuple[int, np.random.Generator]]:
        with lock:
            g = next(points, None)
            if g is None:
                return None
            try:
                return g, _rng(seed, g)
            except BaseException:
                collections.deque(points, maxlen=0)
                raise

    def work() -> None:
        buf = np.empty((min(n_samples, _KERNEL_ROWS), 16))
        vals = np.empty(n_samples)
        try:
            while (point := take()) is not None:
                g, rng = point
                unit = units[g]
                scaled = _in_units(ops[g], unit)
                for start in range(0, n_samples, _KERNEL_ROWS):
                    block = rng.standard_normal(out=buf[: n_samples - start])
                    vals[start : start + len(block)] = kernels.batch_expectations(block, scaled)
                extremes[g] = float(np.min(vals)) * unit, float(np.max(vals)) * unit
        except BaseException:
            collections.deque(points, maxlen=0)
            raise

    if threads == 1:
        work()
        return extremes
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        running = [pool.submit(work) for _ in range(threads - 1)]
        work()
    for done in running:
        done.result()
    return extremes


def eigencurves(
    ineq: Inequality,
    structure: EventStructure,
    angle_schedule: Callable[[float], dict[int, float]],
    theta_grid: list[float],
) -> list[tuple[float, list[float]]]:
    """Eigenvalue curves over the grid.

    When the operator block-diagonalizes in the Bell basis at every grid
    point (the three-setting layout), the columns are the 1x1 block followed
    by the eigenvalues of the 3x3 block in Cardano's order: smallest,
    largest, middle.  The blocks of all points are solved together by
    :func:`o33_block_eigenvalues`, which does not depend on the BLAS kernel
    and stays within rounding of the 4x4 spectrum near a double root, where
    :func:`bellbounds.spectra.cardano_eigenvalues`, now the tests'
    independent check, loses digits.  If any point does not split, every
    row reports its eigenvalues ascending, so a column never changes meaning
    from one row to the next.  Each point runs on plain arrays: its
    :func:`bell_operators` matrix is exactly Hermitian and finite, so of
    :class:`BellOperator`'s checks only the norm's can fail, and it is the
    one taken before the Bell-basis change and the block split.  A point's
    build or norm check that refuses raises at once; only a block split
    that fails turns the grid to the ascending route.
    """
    _check_grid(theta_grid)
    angles = _grid_angles(angle_schedule, theta_grid)
    o1 = np.empty(len(theta_grid))
    o3 = np.empty((len(theta_grid), 3, 3))
    for g in range(len(theta_grid)):
        M = bell_operators(ineq, {e: a[g : g + 1] for e, a in angles.items()}, structure)[0]
        _check_norm(M)
        try:
            o1[g], o3[g] = _o33_blocks(_bell_basis(M))
        except InputError:  # the point does not split
            eigenvalues = stacked_eigenvalues(bell_operators(ineq, angles, structure))
            return [(float(t), w) for t, w in zip(theta_grid, eigenvalues.tolist())]
    roots = o33_block_eigenvalues(o3).tolist()
    return [(float(t), [a, *w]) for t, a, w in zip(theta_grid, o1.tolist(), roots)]


def _fmt(x, sign: str = "") -> str:
    """x with 12 significant digits, locale-independent, as every CSV cell
    and every number the command line prints; "" for None.  ``sign="+"``
    writes a sign on positive values too."""
    if x is None:
        return ""
    return format(float(x), sign + ".12g")


def _write_csv(fh: TextIO, header: list[str], rows: Iterable[list]) -> None:
    """The one CSV row format: ``header``, then one line per row, each int
    written whole and every other cell through _fmt, comma-separated and
    ending in "\\n"."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([x if isinstance(x, int) else _fmt(x) for x in row] for row in rows)


def write_sweep_csv(results: list[SweepResult], fh: TextIO) -> None:
    header = ["theta", "analytic_min", "analytic_max", "sampled_min", "sampled_max",
              "classical_min", "classical_max", "n_samples", "seed"]
    rows = ([r.parameter, r.analytic_min, r.analytic_max, r.sampled_min, r.sampled_max,
             *r.classical_bounds, r.n_samples, r.seed] for r in results)
    _write_csv(fh, header, rows)


def write_eigencurves_csv(
    curves: list[tuple[float, list[float]]], fh: TextIO
) -> None:
    if not curves:
        raise InputError("no curve data")
    header = ["theta"] + [f"lambda{i + 1}" for i in range(len(curves[0][1]))]
    _write_csv(fh, header, ([theta, *lams] for theta, lams in curves))
