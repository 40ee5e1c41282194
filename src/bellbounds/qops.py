"""Measurement projectors and Bell operators for bipartite qubit systems.

Measurement directions live in the x-z plane and are given as angles in
radians, so every projector is a real symmetric matrix.  Kronecker products
and weighted sums of exactly symmetric real matrices are exactly symmetric,
so the operator build needs no symmetrisation step.  The Bell-basis change
is one fixed gather of signed halves, which keeps an exactly Hermitian
matrix exactly Hermitian and calls no BLAS kernel.  Only a density matrix,
which floating point leaves slightly off Hermitian, is symmetrised,
(M + M^dag)/2.
Matrices that enter from outside (operator files, density matrices, a
caller's array) are checked, never repaired: non-finite entries or a norm
beyond the float range are a NumericError, a matrix that is not Hermitian
to 1e-12 * max(1, ||M||) an InputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import BasisError, BudgetError, InputError, NumericError
from .polytope import EventStructure, Inequality

COMPUTATIONAL = "computational"
BELL = "bell"

_SQ2 = 1.0 / math.sqrt(2.0)

#: Columns are the Bell states phi+, psi+, psi-, phi- in the computational
#: basis |00>, |01>, |10>, |11>.
BELL_BASIS = np.array(
    [
        [_SQ2, 0.0, 0.0, _SQ2],
        [0.0, _SQ2, _SQ2, 0.0],
        [0.0, _SQ2, -_SQ2, 0.0],
        [_SQ2, 0.0, 0.0, -_SQ2],
    ],
    dtype=np.complex128,
)

Side = Literal["left", "right"]


def canonical_angle(theta: float) -> float:
    """Representative in [0, 2*pi); operators themselves are 2*pi-periodic."""
    if not math.isfinite(theta):
        raise InputError("angle must be finite")
    return theta % (2.0 * math.pi)


def hermitize(M: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, matrix by matrix over any leading axes."""
    M = np.asarray(M, dtype=np.complex128)
    return (M + np.swapaxes(M.conj(), -1, -2)) / 2.0


def _components(M: np.ndarray) -> np.ndarray:
    """|real| and |imaginary| parts of a complex matrix (or stack) side by
    side, each row twice as long; NaN where an entry is NaN."""
    return np.abs(np.ascontiguousarray(M, dtype=np.complex128).view(np.float64))


def _unit(big: float) -> float:
    """The power of two at or below big, or 1 for big = 0: the unit of a
    matrix whose largest real or imaginary component is big.  Dividing by
    it is exact, so a check on the matrix in its units decides the same way
    for the matrix times any power of two."""
    return math.ldexp(1.0, math.frexp(big)[1] - 1) if big else 1.0


def _in_units(M: np.ndarray, unit) -> np.ndarray:
    """M / unit, taken on M's float64 view (so a unit may stand for each
    matrix of a stack as shape (G, 1, 1)).  numpy divides a complex array by
    a real one through 1 / unit, which overflows for a unit below 2^-1022."""
    return (np.ascontiguousarray(M, dtype=np.complex128).view(np.float64) / unit).view(
        np.complex128
    )


def _check_norm(M: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Check that M is finite and its norm within the float range.

    Returns M's :func:`_unit`, M in its units and M's Frobenius norm in
    its units.  Non-finite entries, or a norm beyond the float range, raise
    NumericError.  The norm is computed on M in its units, so entries near
    the float maximum cannot overflow it and pass the check that way.
    """
    big = float(_components(M).max())  # NaN if any entry is
    if not math.isfinite(big):
        raise NumericError("matrix has non-finite entries")
    unit = _unit(big)
    A = _in_units(M, unit)
    norm = math.sqrt(np.vdot(A, A).real)
    if not math.isfinite(unit * norm):
        raise NumericError("matrix norm exceeds the float range")
    return unit, A, norm


def _check_hermitian(M: np.ndarray) -> float:
    """Check that M is finite and Hermitian; return its :func:`_unit`.

    :func:`_check_norm` first; then an entry of M - M^dag above
    1e-12 * max(1, ||M||_F), tested on M in its units, raises InputError.
    """
    unit, A, norm = _check_norm(M)
    if float(np.abs(A - A.conj().T).max()) > 1e-12 * max(1.0 / unit, norm):
        raise InputError("matrix is not Hermitian")
    return unit


def sigma(theta: float) -> np.ndarray:
    """Spin observable along the x-z direction theta: eigenvalues -1 and +1."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def projector(theta: float) -> np.ndarray:
    """Rank-1 spin-up projector (1 + sigma(theta)) / 2."""
    return (np.eye(2) + sigma(theta)) / 2.0


def single_site(theta: float, side: Side) -> np.ndarray:
    """Single-particle measurement on the given side, identity on the other."""
    if side == "left":
        return np.kron(projector(theta), np.eye(2))
    if side == "right":
        return np.kron(np.eye(2), projector(theta))
    raise InputError(f"side must be 'left' or 'right', got {side!r}")


def joint(theta_left: float, theta_right: float) -> np.ndarray:
    """Joint spin-up measurement: projector on the left times projector on
    the right."""
    return np.kron(projector(theta_left), projector(theta_right))


@dataclass
class BellOperator:
    """Hermitian operator obtained from an inequality and an angle map.

    The matrix is checked, not repaired: see :func:`_check_hermitian`.
    """

    matrix: np.ndarray
    basis: str = COMPUTATIONAL
    source: Optional[Inequality] = None
    angles: Optional[dict[int, float]] = None

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=np.complex128)
        _check_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "basis": self.basis,
            "entries": [
                [[float(z.real), float(z.imag)] for z in row]
                for row in self.matrix
            ],
            "angles": None
            if self.angles is None
            else {str(k): canonical_angle(v) for k, v in self.angles.items()},
            "source": None if self.source is None else self.source.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BellOperator":
        from .spectra import MAX_EIG_DIM  # here, since spectra imports this module

        try:
            dim = int(obj["dim"])
            # refused before the entry grid is built
            if dim > MAX_EIG_DIM:
                raise BudgetError(f"operator dimension {dim} above limit {MAX_EIG_DIM}")
            entries = obj["entries"]
            M = np.array(
                [[complex(re, im) for re, im in row] for row in entries],
                dtype=np.complex128,
            )
            if M.shape != (dim, dim):
                raise InputError("entry grid does not match dim")
            basis = obj.get("basis", COMPUTATIONAL)
            if basis not in (COMPUTATIONAL, BELL):
                raise InputError(f"unknown basis tag {basis!r}")
            angles = obj.get("angles")
            if angles is not None and not isinstance(angles, dict):
                raise InputError(f"angles must be a JSON object, not {type(angles).__name__}")
            source = obj.get("source")
            return cls(
                matrix=M,
                basis=basis,
                source=None if source is None else Inequality.from_json(source),
                angles=None
                if angles is None
                else {int(k): float(v) for k, v in angles.items()},
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad operator JSON: {exc}") from exc


@dataclass
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace state (possibly mixed)."""

    matrix: np.ndarray
    basis: str = COMPUTATIONAL

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.complex128)
        _check_hermitian(M)
        self.matrix = hermitize(M)
        if abs(np.trace(self.matrix).real - 1.0) > 1e-12:
            raise InputError("density matrix trace differs from 1")
        if float(np.min(np.linalg.eigvalsh(self.matrix))) < -1e-12:
            raise InputError("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _sigma_stack(theta: np.ndarray) -> np.ndarray:
    """(G, 2, 2) stack of :func:`sigma` over the angles theta."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = c, s, s, -c
    return out


_EYE2 = np.eye(2)[None]

#: Grid points per block of the operator build: a block's (terms, block, 4, 4)
#: product tensor holds 32 KiB per term, 352 KiB for the 11 I3322 terms.
_BUILD_BLOCK = 128


def bell_operators(
    ineq: Inequality, angles: dict[int, np.ndarray], structure: EventStructure
) -> np.ndarray:
    """Bell operators of ``ineq`` over a grid of settings, as a (G, 4, 4) stack.

    ``angles`` maps each event to its G angles.  One :func:`_sigma_stack`
    call over every event's angles, made projectors in place, gives a
    (E + 1, G, 2, 2) stack with one row per event and a last row of
    identities.  Each term names a left and a right row of it: an event and
    the identity for a single term, its two events for a joint term.  The
    grid is built in blocks of _BUILD_BLOCK points: one gather of every
    term's left and right factors, one broadcast product giving each term's
    Kronecker products, one multiply by the weights, and the terms added in
    coefficient order, one at a time from 0.0.  Beside the (G, 4, 4) result,
    a block holds its (terms, block, 4, 4) products and its
    (terms, 2, block, 2, 2) factors: 384 bytes per term and point, at most
    48 KiB per term.  Each
    entry goes through the elementwise operations of :func:`projector`,
    :func:`single_site` and :func:`joint` and of the weighted sum, in their
    order, so every matrix is bit for bit the sum of those per-point
    operators, and exactly Hermitian.  A sum that overflows the float range
    raises NumericError.
    """
    if len(structure.sides) != 2:
        raise InputError("Bell operators require a bipartite side partition")
    ineq.check_keys(structure)
    side_of = structure.side_of_event()
    unknown = sorted(set(angles) - set(side_of))
    if unknown:
        raise InputError(f"angles given for events {unknown} the structure does not have")
    theta = [np.asarray(v, dtype=np.float64) for v in angles.values()]
    shapes = {t.shape for t in theta}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise InputError("angles must give every event one angle per grid point")
    row = {e: r for r, e in enumerate(angles)}
    eye = len(row)  # the identity row
    pairs, weights = [], []  # (left row, right row) and weight of each term
    for key, coeff in ineq.coeffs.items():
        if isinstance(key, int):
            if key not in row:
                raise InputError(f"no angle given for event {key}")
            pairs.append((row[key], eye) if side_of[key] == 0 else (eye, row[key]))
        else:
            i, j = key
            if i not in row or j not in row:
                raise InputError(f"no angle given for joint ({i},{j})")
            pairs.append((row[i], row[j]) if side_of[i] == 0 else (row[j], row[i]))
        try:
            weights.append(float(coeff))
        except OverflowError as exc:
            raise InputError(f"coefficient of {key!r} is too large for a float") from exc
    G = shapes.pop()[0] if shapes else 1
    P = np.empty((eye + 1, G, 2, 2), dtype=np.complex128)
    if theta:
        P[:eye] = _sigma_stack(np.concatenate(theta)).reshape(eye, G, 2, 2)
        P[:eye] += _EYE2
        P[:eye] /= 2.0
    P[eye] = _EYE2
    w = np.array(weights)[:, None, None, None]
    O = np.zeros((G, 4, 4), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for start in range(0, G, _BUILD_BLOCK):
            block = slice(start, start + _BUILD_BLOCK)
            F = P[pairs, block]  # (terms, 2, block, 2, 2): left and right factors
            L, R = F[:, 0, :, :, None, :, None], F[:, 1, :, None, :, None, :]
            K = (L * R).reshape(len(pairs), -1, 4, 4)
            np.multiply(w, K, out=K)
            total = O[block]
            for term in K:
                total += term
    if not np.all(np.isfinite(O)):
        raise NumericError("operator entries overflow the float range")
    return O


def bell_operator(
    ineq: Inequality, angles: dict[int, float], structure: EventStructure
) -> BellOperator:
    """Substitute projectors for the classical probabilities of ``ineq``: the
    one-point case of :func:`bell_operators`."""
    O = bell_operators(ineq, {k: [v] for k, v in angles.items()}, structure)
    return BellOperator(
        matrix=O[0], basis=COMPUTATIONAL, source=ineq, angles=dict(angles)
    )


def chsh_operator(
    alpha: float, beta: float, gamma: float, delta: float
) -> BellOperator:
    """Correlation-form operator
    sigma(alpha) x sigma(gamma) + sigma(beta) x sigma(gamma)
    + sigma(beta) x sigma(delta) - sigma(alpha) x sigma(delta)."""
    O = (
        np.kron(sigma(alpha), sigma(gamma))
        + np.kron(sigma(beta), sigma(gamma))
        + np.kron(sigma(beta), sigma(delta))
        - np.kron(sigma(alpha), sigma(delta))
    )
    return BellOperator(
        matrix=O,
        basis=COMPUTATIONAL,
        angles={1: alpha, 2: beta, 3: gamma, 4: delta},
    )


def expectation(W: DensityMatrix, O: BellOperator) -> float:
    """Tr[W O]; real for Hermitian arguments, checked to 1e-12."""
    if W.dim != O.dim:
        raise InputError("dimension mismatch between state and operator")
    if W.basis != O.basis:
        raise BasisError(
            f"state basis {W.basis!r} does not match operator basis {O.basis!r}"
        )
    val = complex(np.trace(W.matrix @ O.matrix))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise NumericError(f"expectation has imaginary part {val.imag}")
    return val.real


def _bell_gather() -> tuple[np.ndarray, np.ndarray]:
    """Where the four terms of each entry of B^dag M B come from.

    Each Bell state, column j of :data:`BELL_BASIS`, is
    (|a_j> + s_j |b_j>)/sqrt(2), so entry (i, j) is the sum over p in
    {a_i, b_i} and q in {a_j, b_j} of +-M[p, q]/2.  Returns (4, 4, 2, 4)
    indices into the 32 floats of M's real view and the weights +-1/2: per
    entry, per real and imaginary part, its four terms, ordered
    (a_i, a_j), (b_i, b_j), (a_i, b_j), (b_i, a_j).
    """
    rows = [np.flatnonzero(BELL_BASIS[:, j]) for j in range(4)]
    sign = np.sign(BELL_BASIS.real)
    index = np.empty((4, 4, 2, 4), dtype=np.intp)
    weight = np.empty((4, 4, 2, 4))
    for i, j in np.ndindex(4, 4):
        (a, b), (c, d) = rows[i], rows[j]
        for t, (p, q) in enumerate([(a, c), (b, d), (a, d), (b, c)]):
            index[i, j, :, t] = 2 * (4 * p + q) + np.arange(2)
            weight[i, j, :, t] = 0.5 * sign[p, i] * sign[q, j]
    return index, weight


_BELL_INDEX, _BELL_WEIGHT = _bell_gather()


def _bell_basis(M: np.ndarray) -> np.ndarray:
    """B^dag M B: the 4x4 matrix M, or each of a (..., 4, 4) stack, in the
    Bell basis.

    One fixed gather, with no BLAS call, so the bits do not depend on the
    BLAS kernel: each entry is (t0 + t1) + (t2 + t3) over the four signed
    entries of M/2 that :func:`_bell_gather` names, on the real and
    imaginary parts alike.  Entry (j, i) adds the conjugates of entry
    (i, j)'s pairs (t0, t1) and (t2, t3), so for an exactly Hermitian M the
    result is exactly Hermitian.  Each pair is at most max |M| in size, so
    no partial sum overflows unless the entry itself does.
    """
    V = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)
    T = np.take(V.reshape(V.shape[:-2] + (32,)), _BELL_INDEX, axis=-1) * _BELL_WEIGHT
    out = (T[..., 0] + T[..., 1]) + (T[..., 2] + T[..., 3])
    return out.view(np.complex128)[..., 0]


def to_bell_basis(O: BellOperator) -> BellOperator:
    """Conjugate into the Bell basis {phi+, psi+, psi-, phi-}."""
    if O.basis == BELL:
        raise BasisError("operator is already in the Bell basis")
    if O.dim != 4:
        raise InputError("Bell-basis conversion is defined for dim 4")
    return BellOperator(
        matrix=_bell_basis(O.matrix), basis=BELL, source=O.source, angles=O.angles
    )
