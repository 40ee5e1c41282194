import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from bellbounds import catalog, kernels, qops, sampling
from bellbounds.errors import NumericError
from reference import chsh_operator

# the kernels take any array-like: each check runs on numpy arrays and on the
# same data as nested Python lists
AS_INPUT = pytest.mark.parametrize(
    "as_input", [np.asarray, lambda a: np.asarray(a).tolist()], ids=["numpy", "python"]
)


def rand_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return M + M.conj().T


@AS_INPUT
class TestEigh:
    # kernels.eigh is numpy.linalg.eigh on complex128; beyond numpy, callers
    # rely on their input being left alone and a LAPACK failure being a
    # NumericError
    def test_does_not_mutate_input(self, as_input):
        rng = np.random.default_rng(43)
        H = as_input(rand_hermitian(rng, 4))
        H0 = np.array(H)
        kernels.eigh(H)
        assert np.array_equal(H, H0)

    def test_failure_is_numeric_error(self, as_input):
        with pytest.raises(NumericError):
            kernels.eigh(as_input(np.full((4, 4), np.nan)))


@AS_INPUT
class TestBatchExpectations:
    def test_against_direct_trace(self, as_input):
        rng = np.random.default_rng(44)
        params = rng.normal(size=(100, 16))
        op = chsh_operator(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4).matrix
        vals = kernels.batch_expectations(as_input(params), as_input(op))
        B = kernels.assemble_root_matrices(params)
        for k in range(100):
            W = B[k] @ B[k]
            W = W / np.trace(W).real
            assert abs(vals[k] - np.trace(W @ op).real) < 1e-12

    def test_identity_operator(self, as_input):
        rng = np.random.default_rng(45)
        params = rng.normal(size=(50, 16))
        vals = kernels.batch_expectations(as_input(params), as_input(np.eye(4, dtype=complex)))
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_bounded_by_spectrum(self, as_input):
        rng = np.random.default_rng(46)
        op = rand_hermitian(rng, 4)
        w = np.linalg.eigvalsh(op)
        vals = kernels.batch_expectations(as_input(rng.normal(size=(500, 16))), as_input(op))
        assert np.all(vals >= w[0] - 1e-10)
        assert np.all(vals <= w[-1] + 1e-10)


class TestPairTraces:
    def test_signed_zeros(self):
        # every zero trace is +0.0, whatever the signs of op's zeros
        minus_zero = np.full((4, 4), complex(-0.0, -0.0))
        diagonal = np.diag([-0.0, 0.0, -0.0, 1.0]).astype(complex)
        for op in (np.zeros((4, 4), complex), minus_zero, diagonal):
            T = kernels._pair_traces(op)
            assert not np.signbit(T[T == 0]).any()

    def test_any_memory_layout(self):
        rng = np.random.default_rng(48)
        op = rand_hermitian(rng, 4)
        want = kernels._pair_traces(np.ascontiguousarray(op)).tobytes()
        assert kernels._pair_traces(np.asfortranarray(op)).tobytes() == want
        assert kernels._pair_traces(op.tolist()).tobytes() == want


class TestSampledBoundIdentity:
    """Every sampled value Tr[W'O] = p^T Q p / p^T D p, with Q the
    symmetrised ``_pair_traces`` and D = diag(``_WEIGHTS``), is a Rayleigh
    quotient of D^(-1/2) Q D^(-1/2).  That matrix is the map B -> (OB + BO)/2
    on Hermitian B, a Kronecker sum, so its eigenvalues are (l_i + l_j)/2
    over the spectrum l of O: each l_i once and each i < j pair twice.  So
    no sampled value leaves [l_min, l_max], whatever the samples."""

    @staticmethod
    def worst_residual(ops):
        """The largest gap between the two spectra over ``ops``, each in
        its operator's unit (``qops._unit``)."""
        scale = 1.0 / np.sqrt(kernels._WEIGHTS)
        worst = 0.0
        for op in ops:
            T = kernels._pair_traces(op)
            got = np.linalg.eigvalsh(scale[:, None] * (T + T.T) / 2.0 * scale)
            lam = np.linalg.eigvalsh(op)
            want = np.sort((lam[:, None] + lam) / 2.0, axis=None)
            unit = qops._unit(float(qops._components(op).max()))
            worst = max(worst, float(np.abs(got - want).max()) / unit)
        return worst

    def test_random_hermitian(self):
        rng = np.random.default_rng(49)
        assert self.worst_residual(rand_hermitian(rng, 4) for _ in range(2000)) <= 1e-13

    @pytest.mark.parametrize(
        "structure,ineq,schedule",
        [
            (catalog.ch_structure(), catalog.ch_inequality(), reference.sweep_schedule_22),
            (catalog.i33_structure(), catalog.i33_inequality(), reference.symmetric_angles_33),
        ],
        ids=["ch", "i33"],
    )
    def test_sweep_grids(self, structure, ineq, schedule):
        # every operator of the 1001-point 0:pi grid
        grid = np.linspace(0.0, math.pi, 1001)
        ops = qops.bell_operators(ineq, sampling._grid_angles(schedule, grid), structure)
        assert self.worst_residual(ops) <= 1e-13


entry_st = st.floats(-1.0, 1.0, allow_nan=False)
param_st = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    op_entries=st.lists(entry_st, min_size=32, max_size=32),
    rows=st.lists(st.lists(param_st, min_size=16, max_size=16), min_size=1, max_size=8),
)
def test_sampled_values_within_spectrum(op_entries, rows):
    M = (np.array(op_entries[:16]) + 1j * np.array(op_entries[16:])).reshape(4, 4)
    op = M + M.conj().T
    params = np.array(rows)
    # all-zero rows give no state; rows whose squares all underflow neither
    params = params[np.max(np.abs(params), axis=1) > 1e-100]
    assume(len(params) > 0)
    w = np.linalg.eigvalsh(op)
    vals = kernels.batch_expectations(params, op)
    assert np.all(vals >= w[0] - 1e-12)
    assert np.all(vals <= w[-1] + 1e-12)
    B = kernels.assemble_root_matrices(params)
    W = B @ B
    direct = np.einsum("nij,ji->n", W, op).real / np.einsum("nii->n", W).real
    assert np.max(np.abs(vals - direct)) <= 1e-12


class TestRootMatrices:
    def test_hermitian(self):
        rng = np.random.default_rng(49)
        B = kernels.assemble_root_matrices(rng.normal(size=(20, 16)))
        for k in range(20):
            assert np.allclose(B[k], B[k].conj().T, atol=0)

    def test_layout(self):
        p = np.arange(1.0, 17.0).reshape(1, 16)
        B = kernels.assemble_root_matrices(p)[0]
        assert np.array_equal(np.diag(B).real, [1, 2, 3, 4])
        assert B[0, 1] == 5 + 6j
        assert B[1, 2] == 7 + 8j
        assert B[2, 3] == 9 + 10j
        assert B[0, 2] == 11 + 12j
        assert B[1, 3] == 13 + 14j
        assert B[0, 3] == 15 + 16j
