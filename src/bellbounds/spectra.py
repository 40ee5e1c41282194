"""Spectra of Bell operators and the closed-form eigenvalue cross-checks.

The numeric route is the LAPACK Hermitian eigensolver behind
:func:`bellbounds.kernels.eigh`; the independent routes are the radical form
for the two-setting operator and the trigonometric (Cardano) form for the 3x3
block of the three-setting operator.  The operator norm of a self-adjoint
operator is its largest absolute eigenvalue, which is what bounds quantum
violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BudgetError, InputError, NumericError
from .qops import BELL, BellOperator, _check_hermitian

MAX_EIG_DIM = 16
DEGENERACY_GAP = 1e-9
RESIDUAL_TOL = 1e-10


@dataclass
class Spectrum:
    """Eigenvalues ascending, matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float
    degenerate: bool = False

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "eigenvectors": [
                [[float(z.real), float(z.imag)] for z in row]
                for row in self.eigenvectors
            ],
            "residual": float(self.residual),
            "degenerate": bool(self.degenerate),
        }


@dataclass
class QuantumBound:
    lambda_min: float
    lambda_max: float
    norm: float
    argmax_state: np.ndarray
    degenerate: bool = False


@dataclass
class CardanoCoefficients:
    """Characteristic-polynomial data of a symmetric 3x3 block."""

    b: float
    c: float
    d: float
    u: float
    xi: float


def _canonical_vectors(
    w: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, bool, float]:
    """Deterministic eigenvector orientation.

    Inside each degenerate cluster (gap below DEGENERACY_GAP) the eigenspace
    basis is rebuilt by Gram-Schmidt over projections of the canonical unit
    vectors; every vector's largest-magnitude entry is then made real
    positive.
    """
    n = len(w)
    V = V.copy()
    degenerate = False
    width = 0.0
    # a gap between eigenvalues of opposite sign near the float maximum
    # overflows to +inf, which is never degenerate
    with np.errstate(over="ignore"):
        gaps = np.diff(w)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and gaps[j] < DEGENERACY_GAP:
            j += 1
        if j > i:
            degenerate = True
            width = max(width, float(w[j] - w[i]))
            block = V[:, i : j + 1]
            proj = block @ block.conj().T
            cols: list[np.ndarray] = []
            for k in range(n):
                y = proj[:, k].copy()
                for c in cols:
                    y -= c * (c.conj() @ y)
                nrm = float(np.linalg.norm(y))
                if nrm > 1e-6:
                    cols.append(y / nrm)
                if len(cols) == j - i + 1:
                    break
            V[:, i : j + 1] = np.column_stack(cols)
        i = j + 1
    for k in range(n):
        idx = int(np.argmax(np.abs(V[:, k])))
        ph = V[idx, k] / abs(V[idx, k])
        V[:, k] = V[:, k] * np.conj(ph)
    return V, degenerate, width


def eigen(H: np.ndarray) -> Spectrum:
    """Full spectral decomposition of a Hermitian matrix (dim <= 16)."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError("eigen expects a square matrix")
    if H.shape[0] > MAX_EIG_DIM:
        raise BudgetError(f"dimension {H.shape[0]} above limit {MAX_EIG_DIM}")
    scale = _check_hermitian(H)
    w, V = kernels.eigh(H)
    V, degenerate, width = _canonical_vectors(w, V)
    # in units of a power of two near ||H||, so that it cannot overflow;
    # dividing and multiplying back by a power of two is exact
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    residual = unit * float(np.max(np.linalg.norm(H / unit @ V - V * (w / unit), axis=0)))
    # mixing inside a near-degenerate cluster contributes up to its width
    if residual > RESIDUAL_TOL * scale + 2.0 * width:
        raise NumericError(f"eigen residual {residual} above tolerance")
    return Spectrum(
        eigenvalues=w, eigenvectors=V, residual=residual, degenerate=degenerate
    )


def stacked_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix in a (G, n, n) Hermitian stack.

    One stacked eigensolve with :func:`eigen`'s numeric checks applied per
    matrix: non-finite entries, a solver failure, or a residual
    max_k ||H v_k - lambda_k v_k|| above RESIDUAL_TOL * max(1, ||H||) raise
    NumericError.
    """
    H = np.asarray(H, dtype=np.complex128)
    if not np.all(np.isfinite(H)):
        raise NumericError("matrix stack has non-finite entries")
    w, V = kernels.eigh(H)
    residual = np.max(np.linalg.norm(H @ V - V * w[..., None, :], axis=-2), axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(H, axis=(-2, -1)))
    bad = np.flatnonzero(~(residual <= RESIDUAL_TOL * scale))  # NaN fails too
    if bad.size:
        g = int(bad[0])
        raise NumericError(f"eigen residual {residual[g]} above tolerance at matrix {g}")
    return w


def quantum_bound(O: BellOperator) -> QuantumBound:
    """Extreme eigenvalues of a Bell operator and the state attaining the max.

    Ties at the maximum (within 1e-12) resolve to the lowest eigenvalue
    index, which is deterministic given the eigenvector orientation rules.
    """
    spec = eigen(O.matrix)
    w = spec.eigenvalues
    top = float(w[-1])
    argmax_idx = int(np.nonzero(w >= top - 1e-12)[0][0])
    return QuantumBound(
        lambda_min=float(w[0]),
        lambda_max=top,
        norm=float(np.max(np.abs(w))),
        argmax_state=spec.eigenvectors[:, argmax_idx],
        degenerate=spec.degenerate,
    )


def o22_closed_form(
    alpha: float, beta: float, gamma: float, delta: float
) -> list[float]:
    """Radical-form eigenvalues of the two-setting operator, sorted ascending.

    The four values are (s1*sqrt(1 + s2*s) - 1)/2 over both sign choices,
    with s = sin(alpha - beta) * sin(gamma - delta).
    """
    s = math.sin(alpha - beta) * math.sin(gamma - delta)
    vals = [
        (s1 * math.sqrt(max(0.0, 1.0 + s2 * s)) - 1.0) / 2.0
        for s1 in (1.0, -1.0)
        for s2 in (1.0, -1.0)
    ]
    return sorted(vals)


def o33_block_decompose(O_bell_basis: BellOperator) -> tuple[float, np.ndarray]:
    """Split a Bell-basis operator into its 1x1 and trailing 3x3 blocks."""
    if O_bell_basis.basis != BELL:
        raise InputError("block decomposition expects a Bell-basis operator")
    M = O_bell_basis.matrix
    if M.shape != (4, 4):
        raise InputError("block decomposition expects a 4x4 operator")
    off = max(float(np.max(np.abs(M[0, 1:]))), float(np.max(np.abs(M[1:, 0]))))
    if off > 1e-10:
        raise InputError(
            f"operator is not block-diagonal in the Bell basis (off-block {off})"
        )
    o3 = M[1:, 1:]
    if float(np.max(np.abs(o3.imag))) > 1e-10:
        raise InputError("trailing block is not real symmetric")
    return float(M[0, 0].real), np.array(o3.real, dtype=np.float64)


def cardano_coefficients(o3: np.ndarray) -> CardanoCoefficients:
    """Characteristic-polynomial data for the trigonometric cubic solution."""
    o3 = np.asarray(o3, dtype=np.float64)
    if o3.shape != (3, 3) or float(np.max(np.abs(o3 - o3.T))) > 1e-10:
        raise InputError("expected a symmetric 3x3 matrix")
    tr = float(np.trace(o3))
    b = -tr
    c = 0.5 * (tr * tr - float(np.trace(o3 @ o3)))
    d = -float(np.linalg.det(o3))
    u = (3.0 * c - b * b) / 9.0
    scale = max(1.0, b * b, abs(c), abs(d) ** (2.0 / 3.0))
    if abs(u) <= 1e-14 * scale:
        # u -> 0 with three real roots forces a triple root at -b/3
        return CardanoCoefficients(b=b, c=c, d=d, u=u, xi=0.0)
    cos_xi = (9.0 * b * c - 2.0 * b**3 - 27.0 * d) / (
        54.0 * u * math.sqrt(abs(u))
    )
    if abs(cos_xi) > 1.0 + 1e-12:
        raise NumericError(f"cos(xi) = {cos_xi} outside [-1, 1]")
    xi = math.acos(min(1.0, max(-1.0, cos_xi)))
    return CardanoCoefficients(b=b, c=c, d=d, u=u, xi=xi)


def cardano_eigenvalues(o3: np.ndarray) -> list[float]:
    """Trigonometric closed-form eigenvalues of a symmetric 3x3 matrix.

    Returned in the formula's order: the -2*sqrt(|u|)*cos(xi/3) root first,
    then cos(xi/3) +/- sqrt(3)*sin(xi/3).  The sqrt(3) factor on the sine
    term is required for agreement with the numeric eigensolver.
    """
    cc = cardano_coefficients(o3)
    shift = -cc.b / 3.0
    scale = max(1.0, cc.b * cc.b, abs(cc.c), abs(cc.d) ** (2.0 / 3.0))
    if abs(cc.u) <= 1e-14 * scale:
        return [shift, shift, shift]
    m = math.sqrt(abs(cc.u))
    cos3, sin3 = math.cos(cc.xi / 3.0), math.sin(cc.xi / 3.0)
    return [
        -2.0 * m * cos3 + shift,
        m * (cos3 + math.sqrt(3.0) * sin3) + shift,
        m * (cos3 - math.sqrt(3.0) * sin3) + shift,
    ]
