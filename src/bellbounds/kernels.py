"""Numeric kernels: Hermitian eigensolver and batch state sampling.

    eigh(H)                     -> (eigenvalues ascending, eigenvector columns)
                                   of one matrix or of each in a stack
    batch_expectations(p, op)   -> per-row Tr[W' op]
    assemble_root_matrices(p)   -> Hermitian square roots B per row
    BACKEND                     -> "numpy" (LAPACK through numpy.linalg)

A parameter row p holds the 16 real coordinates of a Hermitian 4x4 matrix
B = sum_k p_k E_k, where E_k = assemble_root_matrices(I_16)[k].  The sampled
state W' = B^2 / Tr[B^2] makes Tr[W' op] a ratio of two quadratic forms in p:

    Tr[B^2 op] = p^T Q p      Q_kl = Re Tr[E_k E_l op], symmetrised
    Tr[B^2]    = sum_k w_k p_k^2      w_k = Tr[E_k^2]: 1 on the diagonal
                                      parameters, 2 on the off-diagonal ones

Q is built once per operator, so a batch of rows costs one (n, 16) x (16, 16)
matrix product and never forms B or B^2.  Q itself is one np.einsum of op
with the 256 products E_k E_l, which numpy sums in its own loop, so building
it wakes no BLAS thread.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

BACKEND = "numpy"


def eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a Hermitian matrix, or of each matrix
    in a stack of them (leading axes).

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


_BASIS = assemble_root_matrices(np.eye(16))
# Tr[E_k E_l op] = sum_ac (E_k E_l)_ac op_ca: the 256 products E_k E_l, flattened
_PAIR_PRODUCTS = np.einsum("kab,lbc->klac", _BASIS, _BASIS).reshape(256, 16)
_WEIGHTS = np.einsum("kab,kba->k", _BASIS, _BASIS).real


def _pair_traces(op: np.ndarray) -> np.ndarray:
    """(16, 16) Re Tr[E_k E_l op], one sum over the 256 products E_k E_l.

    Equal, bit for bit, to (_PAIR_PRODUCTS @ op.T.reshape(16)).real, but
    np.einsum without ``optimize`` sums in its own loop: the complex matvec
    wakes a BLAS worker thread, which then keeps a core spinning.  The + 0.0
    turns a -0.0 into the 0.0 that the matvec's zero-started sum gives.
    """
    traces = np.einsum("kac,ca->k", _PAIR_PRODUCTS.reshape(256, 4, 4), op)
    return (traces.real + 0.0).reshape(16, 16)


def batch_expectations(params: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr[W' op] for the density matrices W' = B^2 / Tr[B^2] per parameter row."""
    p = np.asarray(params, dtype=np.float64)
    T = _pair_traces(op)
    Q = (T + T.T) / 2.0
    return np.einsum("nk,nk->n", p @ Q, p) / ((p * p) @ _WEIGHTS)
