"""Spectra of Bell operators and the closed-form eigenvalue cross-checks.

The numeric route is the LAPACK Hermitian eigensolver behind
:func:`bellbounds.kernels.eigh`, and for the 3x3 Bell-basis blocks of the
three-setting operator the stacked tridiagonal solve of
:func:`o33_block_eigenvalues`; the independent routes are the radical form
for the two-setting operator and the trigonometric (Cardano) form for the
3x3 block.  The operator norm of a self-adjoint operator is its largest
absolute eigenvalue, which is what bounds quantum violations.

Every tolerance on a matrix is relative to its unit (:func:`qops._unit`), so
scaling an inequality scales its spectrum without changing what any check
decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BudgetError, InputError, NumericError
from .qops import (
    BELL,
    BellOperator,
    _check_hermitian,
    _complex_pairs,
    _components,
    _in_units,
    _stack_units,
    _unit,
)

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
            "eigenvectors": _complex_pairs(self.eigenvectors),
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


def _residuals(A: np.ndarray, V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max_k ||A v_k - w_k v_k|| of each matrix of a (G, n, n) stack.

    A V is one np.einsum without ``optimize``, which numpy sums in its own
    loop, as in :func:`kernels._pair_traces`.  A BLAS matmul would round by
    the OpenBLAS kernel, and ``spectrum`` and the residual refusal print
    this value.
    """
    R = np.einsum("gij,gjk->gik", A, V) - V * w[:, None, :]
    return np.sqrt((R.conj() * R).real.sum(axis=-2).max(axis=-1))


def _solve(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked eigensolve of a (G, n, n) Hermitian stack: (w, V, unit).

    LAPACK runs on H itself; the check runs on H / unit, per matrix, where
    unit is :func:`qops._stack_units` of the stack.  Non-finite entries, a
    solver failure, or a residual max_k ||H v_k - w_k v_k|| / unit above
    RESIDUAL_TOL raise NumericError.
    """
    H = np.asarray(H, dtype=np.complex128)
    unit = _stack_units(H)
    w, V = kernels.eigh(H)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite eigenvalue fails below
        residual = _residuals(_in_units(H, unit[:, None, None]), V, w / unit[:, None])
    ok = residual <= RESIDUAL_TOL  # NaN fails too
    if not ok.all():
        g = int(np.argmin(ok))
        raise NumericError(
            f"eigen residual {float(residual[g])} in units of {float(unit[g])}"
            f" above tolerance at matrix {g}"
        )
    return w, V, unit


def _clusters(w: np.ndarray) -> list[range]:
    """The eigenvalue clusters of ascending eigenvalues w in units, as
    column ranges: neighbours less than DEGENERACY_GAP apart share one."""
    cuts = [0, *(np.flatnonzero(np.diff(w) >= DEGENERACY_GAP) + 1).tolist(), len(w)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _canonical_vectors(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, bool]:
    """Deterministic eigenvector orientation (V is overwritten), for
    eigenvalues w in units, and whether any cluster of :func:`_clusters`
    holds more than one eigenvalue.

    Inside each such cluster the eigenspace basis is rebuilt by Gram-Schmidt
    over projections of the canonical unit vectors; every vector's
    largest-magnitude entry is then made real positive.
    """
    degenerate = False
    for cluster in _clusters(w):
        if len(cluster) > 1:
            degenerate = True
            block = V[:, cluster.start : cluster.stop]
            proj = block @ block.conj().T
            cols: list[np.ndarray] = []
            for k in range(len(w)):
                y = proj[:, k].copy()
                for c in cols:
                    y -= c * (c.conj() @ y)
                nrm = float(np.linalg.norm(y))
                if nrm > 1e-6:
                    cols.append(y / nrm)
                if len(cols) == len(cluster):
                    break
            V[:, cluster.start : cluster.stop] = np.column_stack(cols)
    # each phase by scalar division: numpy's array division rounds differently
    ph = [V[i, k] / abs(V[i, k]) for k, i in enumerate(np.argmax(np.abs(V), axis=0))]
    return V * np.conj(ph), degenerate


def eigen(H: np.ndarray) -> Spectrum:
    """Full spectral decomposition of a Hermitian matrix (dim <= 16)."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError("eigen expects a square matrix")
    if H.shape[0] > MAX_EIG_DIM:
        raise BudgetError(f"dimension {H.shape[0]} above limit {MAX_EIG_DIM}")
    unit, A = _check_hermitian(H)
    (w,), (V,), _ = _solve(H[None])
    V, degenerate = _canonical_vectors(w / unit, V)
    # the residual of the vectors returned, which may mix a degenerate cluster
    residual = unit * float(_residuals(A[None], V[None], (w / unit)[None])[0])
    return Spectrum(w, V, residual, degenerate)


def stacked_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix in a (G, n, n) Hermitian stack,
    with :func:`_solve`'s checks applied per matrix."""
    return _solve(H)[0]


def quantum_bound(O: BellOperator) -> QuantumBound:
    """Extreme eigenvalues of a Bell operator and the state attaining the max.

    The argmax state is the first column of lambda_max's cluster among the
    :func:`_clusters` that :func:`eigen` orients, over the eigenvalues in the
    operator's units.  ``degenerate`` says that cluster holds more than one
    eigenvalue: the state is then one chosen vector of its eigenspace.
    """
    spec = eigen(O.matrix)
    w = spec.eigenvalues
    top = _clusters(w / _unit(float(_components(O.matrix).max())))[-1]
    return QuantumBound(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        norm=float(np.max(np.abs(w))),
        argmax_state=spec.eigenvectors[:, top.start],
        degenerate=len(top) > 1,
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


def _o33_blocks(M: np.ndarray) -> tuple[float, np.ndarray]:
    """The 1x1 and trailing 3x3 blocks of a 4x4 Bell-basis matrix.

    Non-finite entries raise NumericError.  An entry off the two blocks, or
    an imaginary part in the 3x3 block, above 1e-10 in the matrix's unit
    raises InputError.
    """
    C = _components(M)  # column 2k holds |Re M[:, k]|, column 2k + 1 |Im M[:, k]|
    big = float(C.max())
    if not math.isfinite(big):
        raise NumericError("matrix has non-finite entries")
    tol = 1e-10 * _unit(big)
    off = max(float(C[0, 2:].max()), float(C[1:, :2].max()))
    if off > tol:
        raise InputError(
            f"operator is not block-diagonal in the Bell basis (off-block {off})"
        )
    if float(C[1:, 3::2].max()) > tol:
        raise InputError("trailing block is not real symmetric")
    return float(M[0, 0].real), np.array(M[1:, 1:].real, dtype=np.float64)


def o33_block_decompose(O_bell_basis: BellOperator) -> tuple[float, np.ndarray]:
    """Split a Bell-basis operator into its 1x1 and trailing 3x3 blocks."""
    if O_bell_basis.basis != BELL:
        raise InputError("block decomposition expects a Bell-basis operator")
    if O_bell_basis.matrix.shape != (4, 4):
        raise InputError("block decomposition expects a 4x4 operator")
    return _o33_blocks(O_bell_basis.matrix)


def o33_block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (G, 3, 3) stack of real symmetric blocks, each row in
    :func:`cardano_eigenvalues`' order: smallest, largest, middle.

    Each block is divided by its unit (:func:`qops._stack_units`), so
    scaling by a power of two scales the roots bit for bit.  One Givens
    rotation in the (2, 3) plane then makes it exactly tridiagonal, and one
    stacked ``numpy.linalg.eigvalsh`` solves them all.  On a tridiagonal
    matrix LAPACK's reduction (dsytd2) finds every reflector trivial and
    skips its BLAS updates, and its QL/QR step (dsterf) is plain Fortran, so
    the roots do not depend on the BLAS kernel.  No characteristic polynomial is
    formed, so a near-double root keeps its digits (Kopp, Int. J. Mod.
    Phys. C 19, 523, 2008).  Non-finite entries or a solver failure raise
    NumericError.
    """
    A = np.asarray(blocks, dtype=np.float64)
    unit = _stack_units(A)
    A = A / unit[:, None, None]
    a01, a02, a11, a12, a22 = A[:, 0, 1], A[:, 0, 2], A[:, 1, 1], A[:, 1, 2], A[:, 2, 2]
    # the rotation (c, s) takes (a01, a02) to (r, 0)
    r = np.hypot(a01, a02)
    nonzero = r > 0
    rr = np.where(nonzero, r, 1.0)
    c, s = np.where(nonzero, a01 / rr, 1.0), a02 / rr
    cc, ss, cs2 = c * c, s * s, 2.0 * c * s
    T = np.zeros_like(A)
    T[:, 0, 0] = A[:, 0, 0]
    T[:, 1, 1] = (cc * a11 + ss * a22) + cs2 * a12
    T[:, 2, 2] = (ss * a11 + cc * a22) - cs2 * a12
    T[:, 0, 1] = T[:, 1, 0] = r
    T[:, 1, 2] = T[:, 2, 1] = c * s * (a22 - a11) + (cc - ss) * a12
    try:
        w = np.linalg.eigvalsh(T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"3x3 block eigensolve failed: {exc}") from exc
    return w[:, [0, 2, 1]] * unit[:, None]


def cardano_eigenvalues(o3: np.ndarray) -> list[float]:
    """Trigonometric closed-form eigenvalues of a symmetric 3x3 matrix.

    Returned in the formula's order: the -2*sqrt(|u|)*cos(xi/3) root first,
    then cos(xi/3) +/- sqrt(3)*sin(xi/3).  The sqrt(3) factor on the sine
    term is required for agreement with the numeric eigensolver.  The cubic
    is solved on the matrix in its units (:func:`_unit` of its largest
    entry), where the symmetry and triple-root tests are taken, and the
    roots are scaled back.
    """
    unit = _unit(float(np.abs(o3).max(initial=0.0)))
    o3 = np.asarray(np.divide(o3, unit), dtype=np.float64)
    if o3.shape != (3, 3) or float(np.max(np.abs(o3 - o3.T))) > 1e-10:
        raise InputError("expected a symmetric 3x3 matrix")
    # characteristic polynomial x^3 + b x^2 + c x + d
    tr = float(np.trace(o3))
    b = -tr
    c = 0.5 * (tr * tr - float(np.trace(o3 @ o3)))
    d = -float(np.linalg.det(o3))
    u = (3.0 * c - b * b) / 9.0
    scale = max(1.0, b * b, abs(c), abs(d) ** (2.0 / 3.0))
    if abs(u) <= 1e-14 * scale:
        # u -> 0 with three real roots forces a triple root at -b/3
        u = xi = 0.0
    else:
        cos_xi = (9.0 * b * c - 2.0 * b**3 - 27.0 * d) / (
            54.0 * u * math.sqrt(abs(u))
        )
        if abs(cos_xi) > 1.0 + 1e-12:
            raise NumericError(f"cos(xi) = {cos_xi} outside [-1, 1]")
        xi = math.acos(min(1.0, max(-1.0, cos_xi)))
    shift = -b / 3.0
    m = math.sqrt(abs(u))
    cos3, sin3 = math.cos(xi / 3.0), math.sin(xi / 3.0)
    return [
        unit * (-2.0 * m * cos3 + shift),
        unit * (m * (cos3 + math.sqrt(3.0) * sin3) + shift),
        unit * (m * (cos3 - math.sqrt(3.0) * sin3) + shift),
    ]
