"""Two-qubit pure states: Schmidt decomposition, entanglement, special states.

Entanglement is quantified as the concurrence 2*l1*l2 of the Schmidt
coefficients: 0 for product states, 1 for maximally entangled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisError, InputError
from .qops import BELL, BELL_BASIS, COMPUTATIONAL, _complex_pairs


@dataclass
class PureState:
    """Four complex amplitudes in either the computational or Bell basis."""

    amplitudes: np.ndarray
    basis: str = COMPUTATIONAL

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (4,):
            raise InputError("pure state needs exactly 4 amplitudes")
        if not np.all(np.isfinite(amps)):
            raise InputError("pure state amplitudes must be finite")
        if abs(float(np.linalg.norm(amps)) - 1.0) > 1e-12:
            raise InputError("pure state amplitudes are not normalized")
        if self.basis not in (COMPUTATIONAL, BELL):
            raise InputError(f"unknown basis tag {self.basis!r}")
        self.amplitudes = amps

    def to_computational(self) -> "PureState":
        if self.basis == COMPUTATIONAL:
            return self
        return PureState(BELL_BASIS @ self.amplitudes, COMPUTATIONAL)

    def to_bell(self) -> "PureState":
        if self.basis == BELL:
            return self
        return PureState(BELL_BASIS.conj().T @ self.amplitudes, BELL)

    def canonical_phase(self) -> "PureState":
        """Global phase fixed so the first nonzero amplitude is real positive."""
        amps = self.amplitudes
        idx = next(i for i in range(4) if abs(amps[i]) > 1e-12)
        ph = amps[idx] / abs(amps[idx])
        return PureState(amps * np.conj(ph), self.basis)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "amplitudes": _complex_pairs(self.canonical_phase().amplitudes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PureState":
        try:
            amps = np.array(
                [complex(re, im) for re, im in obj["amplitudes"]],
                dtype=np.complex128,
            )
            return cls(amps, obj.get("basis", COMPUTATIONAL))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad state JSON: {exc}") from exc


@dataclass
class SchmidtData:
    """Schmidt coefficients (descending) and the biorthogonal local bases."""

    coefficients: np.ndarray
    left_basis: np.ndarray  # columns are the left-side basis vectors
    right_basis: np.ndarray  # rows are the right-side basis vectors

    def reconstruct(self) -> np.ndarray:
        M = self.left_basis @ np.diag(self.coefficients) @ self.right_basis
        return M.reshape(-1)


def schmidt(psi: PureState) -> SchmidtData:
    """Schmidt decomposition via SVD of the 2x2 amplitude matrix."""
    if psi.basis != COMPUTATIONAL:
        raise BasisError("Schmidt decomposition expects the computational basis")
    M = psi.amplitudes.reshape(2, 2)
    U, s, Vh = np.linalg.svd(M)
    return SchmidtData(coefficients=s, left_basis=U, right_basis=Vh)


def entanglement(psi: PureState) -> float:
    """Concurrence 2*l1*l2 of the Schmidt coefficients, in [0, 1]."""
    s = schmidt(psi.to_computational()).coefficients
    return float(min(1.0, max(0.0, 2.0 * s[0] * s[1])))


def max_violation_family(theta: float) -> PureState:
    """The one-parameter family U(theta) x 1 applied to the singlet.

    Local unitaries preserve Schmidt coefficients, so every member is
    maximally entangled.
    """
    U = np.array(
        [
            [math.sin(theta), -math.cos(theta)],
            [math.cos(theta), math.sin(theta)],
        ],
        dtype=np.complex128,
    )
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    amps = np.kron(U, np.eye(2)) @ singlet
    return PureState(amps, COMPUTATIONAL)


def psi_max_33() -> PureState:
    """The Bell-basis state (0, 1/2, 0, sqrt(3)/2) maximizing the
    three-setting operator at theta = pi/3."""
    amps = np.array([0.0, 0.5, 0.0, math.sqrt(3.0) / 2.0], dtype=np.complex128)
    return PureState(amps, BELL)


def phase_aligned_distance(a: PureState, b: PureState) -> float:
    """Norm distance between two states after optimal global-phase alignment."""
    if a.basis != b.basis:
        raise BasisError("states are expressed in different bases")
    overlap = complex(np.vdot(b.amplitudes, a.amplitudes))
    ph = 1.0 if abs(overlap) < 1e-15 else overlap / abs(overlap)
    return float(np.linalg.norm(a.amplitudes - ph * b.amplitudes))
