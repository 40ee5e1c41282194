"""Numeric kernels: Hermitian eigensolver and batch state sampling.

    eigh(H)                     -> (eigenvalues ascending, eigenvector columns)
    batch_expectations(p, op)   -> per-row Tr[W' op]
    assemble_root_matrices(p)   -> Hermitian square roots B per row
    BACKEND                     -> "numpy" (LAPACK through numpy.linalg)
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

BACKEND = "numpy"


def eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a Hermitian matrix.

    Returns eigenvalues sorted ascending and the matching eigenvector columns.
    """
    try:
        return np.linalg.eigh(np.asarray(H, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc


def assemble_root_matrices(params: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 matrices B from rows of 16 real parameters.

    Diagonal is params[0:4]; the upper triangle takes params[4:16] as
    real/imaginary pairs in the fixed order (1,2),(2,3),(3,4),(1,3),(2,4),(1,4).
    """
    params = np.asarray(params, dtype=np.float64)
    n = params.shape[0]
    B = np.zeros((n, 4, 4), dtype=np.complex128)
    for k in range(4):
        B[:, k, k] = params[:, k]
    pairs = [((0, 1), 4), ((1, 2), 6), ((2, 3), 8), ((0, 2), 10), ((1, 3), 12), ((0, 3), 14)]
    for (i, j), k in pairs:
        z = params[:, k] + 1j * params[:, k + 1]
        B[:, i, j] = z
        B[:, j, i] = np.conj(z)
    return B


def batch_expectations(params: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr[W' op] for the density matrices W' = B^2 / Tr[B^2] per parameter row."""
    B = assemble_root_matrices(params)
    W = B @ B
    tr = np.einsum("nii->n", W).real
    vals = np.einsum("nij,ji->n", W, np.asarray(op, dtype=np.complex128)).real
    return vals / tr
