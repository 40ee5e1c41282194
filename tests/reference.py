"""The paper's per-object derivation, kept beside the package as the tests'
independent reference.

Every command computes on arrays: :func:`bellbounds.qops.bell_operators`
builds a stack of operators, :mod:`bellbounds.spectra` solves it, and
:func:`bellbounds.kernels.batch_expectations` takes the sampled expectation
values without forming a density matrix.  This module holds the objects that
this route replaced, one point at a time: the spin observable sigma(theta), the
projectors and their single-site and joint terms, the correlation-form
operator, density matrices and Tr[W O], the radical form of the two-setting
spectrum, the power-iteration polish, the paper's named states, and the
catalog entries and angle schedules that only tests use.  The tests check
the package against these, so they stay out of it; they take no input from
outside the tests, so they refuse none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from bellbounds import kernels
from bellbounds.polytope import EventStructure, Inequality, Vertex, _integer_form
from bellbounds.qops import BELL, BELL_BASIS, COMPUTATIONAL, BellOperator, _components, _in_units, _unit
from bellbounds.sampling import sample_params
from bellbounds.states import PureState, SchmidtData


def single_setting_structure() -> EventStructure:
    """One measurement direction per side: events 1 | 2, joint (1,2)."""
    return EventStructure(n_single=2, sides=((1,), (2,)), joints=((1, 2),))


def trivial_facet() -> Inequality:
    """p1 + p2 - p12 <= 1 on the single-setting structure."""
    return Inequality({1: 1, 2: 1, (1, 2): -1}, upper=1)


def ch_inequality_printed_variant() -> Inequality:
    """The -p1 - p4 variant of the CH inequality, as sometimes printed;
    classically invalid (witness vertex (0,1,1,0))."""
    return Inequality({(1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): -1, 1: -1, 4: -1}, lower=-1, upper=0)


def ch_family() -> list[Inequality]:
    """The eight CH-type facets: four relabelings, each with both bounds.

    For each choice of the negatively-weighted joint (x, y), the facet
    subtracts the singles of the *other* left and right settings.  Upper- and
    lower-bound sides are returned as separate one-sided inequalities, which
    matches how the hull reports them.
    """
    facets = []
    for x, xo in ((1, 2), (2, 1)):
        for y, yo in ((3, 4), (4, 3)):
            coeffs = {k: 1 for k in ((1, 3), (1, 4), (2, 3), (2, 4))}
            coeffs.update({(x, y): -1, xo: -1, yo: -1})
            facets += [Inequality(dict(coeffs), upper=0), Inequality(dict(coeffs), lower=-1)]
    return facets


def symmetric_angles_33(theta: float) -> dict[int, float]:
    """Angle assignment (0, theta, 2*theta) on both sides for i33."""
    return {1: 0.0, 2: theta, 3: 2 * theta, 4: 0.0, 5: theta, 6: 2 * theta}


def sweep_schedule_22(theta: float) -> dict[int, float]:
    """CH sweep angles alpha=0, beta=2*theta, gamma=theta, delta=3*theta."""
    return {1: 0.0, 2: 2 * theta, 3: theta, 4: 3 * theta}


def evaluate(ineq: Inequality, vertex: Vertex, structure: EventStructure) -> Fraction:
    """The form of ``ineq`` at one vertex, exactly."""
    vec, _, _, den = _integer_form(ineq, structure)
    return Fraction(sum(c * x for c, x in zip(vec, vertex, strict=True)), den)


def sigma(theta: float) -> np.ndarray:
    """Spin observable along the x-z direction theta: eigenvalues -1 and +1."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def projector(theta: float) -> np.ndarray:
    """Rank-1 spin-up projector (1 + sigma(theta)) / 2."""
    return (np.eye(2) + sigma(theta)) / 2.0


def single_site(theta: float, side: str) -> np.ndarray:
    """Single-particle measurement on side "left" or "right", identity on
    the other."""
    if side == "left":
        return np.kron(projector(theta), np.eye(2))
    return np.kron(np.eye(2), projector(theta))


def joint(theta_left: float, theta_right: float) -> np.ndarray:
    """Joint spin-up measurement: projector on the left times projector on
    the right."""
    return np.kron(projector(theta_left), projector(theta_right))


def chsh_operator(alpha: float, beta: float, gamma: float, delta: float) -> BellOperator:
    """Correlation-form operator
    sigma(alpha) x sigma(gamma) + sigma(beta) x sigma(gamma)
    + sigma(beta) x sigma(delta) - sigma(alpha) x sigma(delta)."""
    O = (
        np.kron(sigma(alpha), sigma(gamma))
        + np.kron(sigma(beta), sigma(gamma))
        + np.kron(sigma(beta), sigma(delta))
        - np.kron(sigma(alpha), sigma(delta))
    )
    return BellOperator(matrix=O, angles={1: alpha, 2: beta, 3: gamma, 4: delta})


def o22_closed_form(alpha: float, beta: float, gamma: float, delta: float) -> list[float]:
    """Radical-form eigenvalues of the two-setting operator, sorted ascending.

    The four values are (s1*sqrt(1 + s2*s) - 1)/2 over both sign choices,
    with s = sin(alpha - beta) * sin(gamma - delta).
    """
    s = math.sin(alpha - beta) * math.sin(gamma - delta)
    return sorted(
        (s1 * math.sqrt(max(0.0, 1.0 + s2 * s)) - 1.0) / 2.0 for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)
    )


@dataclass
class DensityMatrix:
    """A two-qubit state, possibly mixed, made exactly Hermitian as
    (M + M^dag)/2."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.complex128)
        self.matrix = (M + M.conj().T) / 2.0


def expectation(W: DensityMatrix, O: BellOperator) -> float:
    """Tr[W O]; real for Hermitian arguments, checked to 1e-12."""
    val = complex(np.trace(W.matrix @ O.matrix))
    assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)), val
    return val.real


def density_from_params(b: np.ndarray) -> DensityMatrix:
    """W' = B^2 / Tr[B^2] for the Hermitian root matrix B built from the 16
    parameters b."""
    B = kernels.assemble_root_matrices(np.reshape(b, (1, 16)))[0]
    W = B @ B
    return DensityMatrix(W / np.trace(W).real)


def sample_states(n: int, seed: int) -> Iterator[DensityMatrix]:
    """The n density matrices of the rows of ``sample_params(n, seed)``."""
    for row in sample_params(n, seed):
        yield density_from_params(row)


#: Steps of the power iteration in :func:`pure_state_polish`.
_POLISH_STEPS = 20000


def pure_state_polish(O: BellOperator, W: DensityMatrix) -> tuple[float, np.ndarray]:
    """Gradient-free ascent from a sampled state to the top of the spectrum.

    Extracts the dominant pure component of W, then runs shifted power
    iteration on the operator; every step is monotone in the Rayleigh
    quotient, so the result closes the gap between sampled and analytic
    bounds.  Independent of the eigensolver route.  It runs on the operator
    in its units (:func:`bellbounds.qops._unit`), shift and stopping rule
    included, so the value scales exactly with the operator.
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


def to_bell(psi: PureState) -> PureState:
    """``psi`` in the Bell basis; a Bell-basis state is returned as it is."""
    if psi.basis == BELL:
        return psi
    return PureState(BELL_BASIS.conj().T @ psi.amplitudes, BELL)


def reconstruct(sd: SchmidtData) -> np.ndarray:
    """The four amplitudes that a Schmidt decomposition came from."""
    M = sd.left_basis @ np.diag(sd.coefficients) @ sd.right_basis
    return M.reshape(-1)


def max_violation_family(theta: float) -> PureState:
    """The one-parameter family U(theta) x 1 applied to the singlet.

    Local unitaries preserve Schmidt coefficients, so every member is
    maximally entangled.
    """
    c, s = math.cos(theta), math.sin(theta)
    U = np.array([[s, -c], [c, s]], dtype=np.complex128)
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return PureState(np.kron(U, np.eye(2)) @ singlet, COMPUTATIONAL)


def psi_max_33() -> PureState:
    """The Bell-basis state (0, 1/2, 0, sqrt(3)/2) maximizing the
    three-setting operator at theta = pi/3."""
    amps = np.array([0.0, 0.5, 0.0, math.sqrt(3.0) / 2.0], dtype=np.complex128)
    return PureState(amps, BELL)


def phase_aligned_distance(a: PureState, b: PureState) -> float:
    """Norm distance between two states of one basis after optimal
    global-phase alignment."""
    overlap = complex(np.vdot(b.amplitudes, a.amplitudes))
    ph = 1.0 if abs(overlap) < 1e-15 else overlap / abs(overlap)
    return float(np.linalg.norm(a.amplitudes - ph * b.amplitudes))
