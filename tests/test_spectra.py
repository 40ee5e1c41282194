import math

import numpy as np
import pytest

from bellbounds import catalog, kernels
from bellbounds.errors import BudgetError, InputError, NumericError
from bellbounds.qops import (
    BellOperator,
    bell_operator,
    chsh_operator,
    sigma,
    to_bell_basis,
)
from bellbounds.spectra import (
    cardano_eigenvalues,
    eigen,
    o22_closed_form,
    o33_block_decompose,
    o33_block_eigenvalues,
    quantum_bound,
    stacked_eigenvalues,
)

SQRT2 = math.sqrt(2.0)


def rand_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return M + M.conj().T


def three_setting_bell(theta):
    return to_bell_basis(
        bell_operator(
            catalog.i33_inequality(),
            catalog.symmetric_angles_33(theta),
            catalog.i33_structure(),
        )
    )


class TestEigen:
    def test_diagonal(self):
        spec = eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1, 2, 3])
        assert spec.residual < 1e-12

    def test_sigma(self):
        spec = eigen(sigma(0.83))
        assert np.allclose(spec.eigenvalues, [-1, 1], atol=1e-14)

    def test_o11_spectrum_theta_independent(self):
        # the 2x2 block has trace 1 and determinant 0, so the spectrum is
        # always {0, 1, 1, 1}: eigenvalues 0 and 1 irrespective of theta
        single = catalog.single_setting_structure()
        for theta in np.linspace(0, 2 * math.pi, 30):
            O = bell_operator(catalog.trivial_facet(), {1: 0.0, 2: theta}, single)
            w = eigen(O.matrix).eigenvalues
            assert np.allclose(w, [0, 1, 1, 1], atol=1e-12)

    def test_decomposition_reconstructs(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4, 8, 16):
            H = rand_hermitian(rng, n)
            spec = eigen(H)
            V, w = spec.eigenvectors, spec.eigenvalues
            assert np.allclose(V.conj().T @ V, np.eye(n), atol=1e-10)
            assert np.allclose(V @ np.diag(w) @ V.conj().T, H, atol=1e-9)
            assert spec.residual < 1e-10 * max(1.0, np.linalg.norm(H))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        H = rand_hermitian(rng, 4)
        w0 = eigen(H).eigenvalues
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            w1 = eigen(Q.conj().T @ H @ Q).eigenvalues
            assert np.allclose(w0, w1, atol=1e-10)

    def test_trace_det_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            H = rand_hermitian(rng, 4)
            w = eigen(H).eigenvalues
            assert abs(np.sum(w) - np.trace(H).real) < 1e-9 * max(1, abs(np.trace(H)))
            assert abs(np.prod(w) - np.linalg.det(H).real) < 1e-8 * max(
                1.0, abs(np.linalg.det(H))
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # ||H||_F overflows; the test must not pass by the tolerance overflowing
        H = np.zeros((4, 4))
        H[0, 1] = 1e200
        with pytest.raises(InputError):
            eigen(H)

    def test_dimension_budget(self):
        with pytest.raises(BudgetError):
            eigen(np.eye(17))

    @pytest.mark.parametrize(
        "H",
        [
            np.full((4, 4), np.nan),
            np.diag([np.nan, 1.0, 1.0, 1.0]),
            np.diag([1.0, 1.0, 1.0, np.inf]),
            np.full((2, 2), 1e308),
        ],
        ids=["all-nan", "one-nan", "one-inf", "norm-overflow"],
    )
    def test_rejects_non_finite(self, H):
        # LAPACK returns a NaN spectrum without an error for the diagonal
        # cases, and the eigenvalue 2e308 of the last matrix is inf
        with pytest.raises(NumericError):
            eigen(H)

    def test_entries_near_float_range(self):
        # neither the Hermiticity test nor the residual may overflow here
        spec = eigen(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert np.allclose(spec.eigenvalues, [-SQRT2 * 1e200, SQRT2 * 1e200], rtol=1e-15)
        assert spec.residual < 1e-10 * 2e200

    def test_degeneracy_flag(self):
        assert eigen(np.eye(4)).degenerate
        assert not eigen(np.diag([1.0, 2.0, 3.0, 4.0])).degenerate

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            eigen(np.ones((3, 4)))

    def test_deterministic_output(self):
        rng = np.random.default_rng(13)
        H = rand_hermitian(rng, 4)
        a = eigen(H)
        b = eigen(H.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestStackedEigenvalues:
    def test_matches_per_matrix_eigen(self):
        rng = np.random.default_rng(14)
        H = np.stack([rand_hermitian(rng, 4) for _ in range(50)])
        w = stacked_eigenvalues(H)
        for k in range(50):
            assert w[k].tobytes() == eigen(H[k]).eigenvalues.tobytes()

    def test_rejects_non_finite(self):
        H = np.stack([np.eye(4), np.diag([1.0, np.nan, 1.0, 1.0])])
        with pytest.raises(NumericError):
            stacked_eigenvalues(H)

    def test_solver_failure(self, monkeypatch):
        def fail(H):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError):
            stacked_eigenvalues(np.stack([np.eye(4)] * 3))

    def test_bad_residual_in_one_matrix(self, monkeypatch):
        good = kernels.eigh

        def perturbed(H):
            w, V = good(H)
            V = V.copy()
            V[2, 0, 0] += 1e-6  # one column of one matrix
            return w, V

        monkeypatch.setattr(kernels, "eigh", perturbed)
        rng = np.random.default_rng(15)
        H = np.stack([rand_hermitian(rng, 4) for _ in range(4)])
        with pytest.raises(NumericError, match="matrix 2"):
            stacked_eigenvalues(H)


class TestQuantumBound:
    def test_ch_at_full_strength(self):
        # angles with sin(a-b)*sin(g-d) = 1
        O = bell_operator(
            catalog.ch_inequality(),
            {1: 0.0, 2: -math.pi / 2, 3: 0.0, 4: -math.pi / 2},
            catalog.ch_structure(),
        )
        qb = quantum_bound(O)
        assert abs(qb.lambda_max - (SQRT2 - 1) / 2) < 1e-12

    def test_chsh_tsirelson(self):
        O = chsh_operator(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        assert abs(quantum_bound(O).norm - 2 * SQRT2) < 1e-12

    def test_three_setting_peak(self):
        O = bell_operator(
            catalog.i33_inequality(),
            catalog.symmetric_angles_33(math.pi / 3),
            catalog.i33_structure(),
        )
        assert abs(quantum_bound(O).lambda_max - 0.25) < 1e-12

    def test_argmax_attains(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            O = BellOperator(rand_hermitian(rng, 4))
            qb = quantum_bound(O)
            psi = qb.argmax_state
            val = float(np.real(psi.conj() @ O.matrix @ psi))
            assert abs(val - qb.lambda_max) < 1e-10

    @pytest.mark.parametrize(
        "layout,angles",
        [
            ("ch", {1: 0.0, 2: math.pi / 2, 3: math.pi / 4, 4: 3 * math.pi / 4}),
            ("i33", catalog.symmetric_angles_33(math.pi / 3)),
        ],
        ids=["ch", "i33"],
    )
    def test_landmark_max_is_simple(self, layout, angles):
        # spectra [-1.2071, -0.5, -0.5, 0.2071] and [-2.75, -0.75, -0.75, 0.25]:
        # a degenerate pair below a simple lambda_max
        structure, ineq = {
            "ch": (catalog.ch_structure(), catalog.ch_inequality()),
            "i33": (catalog.i33_structure(), catalog.i33_inequality()),
        }[layout]
        O = bell_operator(ineq, angles, structure)
        assert eigen(O.matrix).degenerate
        assert not quantum_bound(O).degenerate

    def test_equal_left_settings_max_is_degenerate(self):
        # o22_closed_form gives [-1, -1, 0, 0] for equal left settings
        O = bell_operator(
            catalog.ch_inequality(), {1: 0.3, 2: 0.3, 3: 1.1, 4: 2.0}, catalog.ch_structure()
        )
        assert quantum_bound(O).degenerate

    def test_argmax_is_first_column_of_top_cluster(self):
        # the top two eigenvalues 1e-10 apart in the matrix's unit, 1: one
        # cluster, whose first column is the argmax
        M = np.diag([0.5, 1.0, -1.0, 1.0 - 1e-10])
        spec = eigen(M)
        qb = quantum_bound(BellOperator(M))
        assert qb.degenerate
        assert qb.lambda_max == 1.0
        assert np.array_equal(qb.argmax_state, spec.eigenvectors[:, 2])

    def test_minmax_over_random_pure_states(self):
        rng = np.random.default_rng(15)
        O = BellOperator(rand_hermitian(rng, 4))
        qb = quantum_bound(O)
        amp = rng.normal(size=(10000, 4)) + 1j * rng.normal(size=(10000, 4))
        amp /= np.linalg.norm(amp, axis=1, keepdims=True)
        vals = np.real(np.einsum("ni,ij,nj->n", amp.conj(), O.matrix, amp))
        assert float(np.max(vals)) <= qb.lambda_max + 1e-9
        assert float(np.min(vals)) >= qb.lambda_min - 1e-9


class TestO22ClosedForm:
    def test_equal_left_settings(self):
        assert np.allclose(o22_closed_form(0.7, 0.7, 1.0, 2.0), [-1, -1, 0, 0])

    def test_full_strength(self):
        vals = o22_closed_form(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        assert abs(vals[-1] - (SQRT2 - 1) / 2) < 1e-14
        assert abs(vals[0] - (-SQRT2 - 1) / 2) < 1e-14

    def test_matches_eigensolver(self):
        rng = np.random.default_rng(16)
        ch = catalog.ch_structure()
        for _ in range(300):
            a, b, g, d = rng.uniform(0, 2 * math.pi, 4)
            O = bell_operator(catalog.ch_inequality(), {1: a, 2: b, 3: g, 4: d}, ch)
            w = eigen(O.matrix).eigenvalues
            assert np.allclose(w, o22_closed_form(a, b, g, d), atol=1e-10)


class TestBlockDecompose:
    def test_corner_is_minus_sin_squared(self):
        for t in np.linspace(0.0, math.pi, 40):
            o1, o3 = o33_block_decompose(three_setting_bell(t))
            assert abs(o1 - (-math.sin(t) ** 2)) < 1e-12
            assert o3.shape == (3, 3)

    def test_theta_zero(self):
        o1, _ = o33_block_decompose(three_setting_bell(0.0))
        assert abs(o1) < 1e-14

    def test_direct_sum_spectrum(self):
        for t in (0.4, 1.1, 2.6):
            O = three_setting_bell(t)
            o1, o3 = o33_block_decompose(O)
            w_blocks = sorted([o1] + list(np.linalg.eigvalsh(o3)))
            w_full = eigen(O.matrix).eigenvalues
            assert np.allclose(w_blocks, w_full, atol=1e-10)

    def test_rejects_computational_basis(self):
        with pytest.raises(InputError):
            o33_block_decompose(BellOperator(np.eye(4)))

    def test_rejects_non_4x4(self):
        with pytest.raises(InputError):
            o33_block_decompose(BellOperator(np.eye(2), basis="bell"))

    def test_rejects_imaginary_trailing_block(self):
        M = np.eye(4, dtype=complex)
        M[1, 2], M[2, 1] = 0.5j, -0.5j
        with pytest.raises(InputError, match="real symmetric"):
            o33_block_decompose(BellOperator(M, basis="bell"))

    def test_rejects_non_block_diagonal(self):
        M = np.eye(4, dtype=complex)
        M[0, 1] = M[1, 0] = 0.5
        with pytest.raises(InputError):
            o33_block_decompose(BellOperator(M, basis="bell"))


class TestCardano:
    def test_diagonal(self):
        vals = cardano_eigenvalues(np.diag([0.5, -1.0, 2.0]))
        assert np.allclose(sorted(vals), [-1.0, 0.5, 2.0], atol=1e-12)

    def test_triple_root(self):
        vals = cardano_eigenvalues(1.7 * np.eye(3))
        assert np.allclose(vals, [1.7, 1.7, 1.7], atol=1e-12)

    def test_contains_peak_value(self):
        _, o3 = o33_block_decompose(three_setting_bell(math.pi / 3))
        assert abs(max(cardano_eigenvalues(o3)) - 0.25) < 1e-12

    def test_matches_eigensolver_on_grid(self):
        for t in np.linspace(0.0, math.pi, 100):
            _, o3 = o33_block_decompose(three_setting_bell(t))
            cv = sorted(cardano_eigenvalues(o3))
            ev = sorted(np.linalg.eigvalsh(o3))
            assert np.allclose(cv, ev, atol=1e-9)

    def test_random_symmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            M = rng.normal(size=(3, 3))
            M = (M + M.T) / 2
            cv = sorted(cardano_eigenvalues(M))
            ev = sorted(np.linalg.eigvalsh(M))
            assert np.allclose(cv, ev, atol=1e-9 * max(1, np.linalg.norm(M)))

    def test_coefficients(self):
        # x^3 - 6x^2 + 11x - 6 = (x - 1)(x - 2)(x - 3)
        vals = cardano_eigenvalues(np.diag([1.0, 2.0, 3.0]))
        assert sorted(vals) == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            cardano_eigenvalues(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


class TestBlockEigenvalues:
    def test_cardano_order(self):
        # smallest, largest, middle
        (vals,) = o33_block_eigenvalues(np.diag([0.5, -1.0, 2.0])[None])
        assert vals.tolist() == [-1.0, 2.0, 0.5]

    def test_matches_cardano_on_random_blocks(self):
        rng = np.random.default_rng(23)
        M = rng.normal(size=(300, 3, 3))
        M = M + M.transpose(0, 2, 1)
        got = o33_block_eigenvalues(M)
        for g in range(len(M)):
            want = cardano_eigenvalues(M[g])
            assert np.allclose(got[g], want, rtol=0, atol=1e-9 * np.linalg.norm(M[g]))
            ref = np.linalg.eigvalsh(M[g])
            assert np.max(np.abs(np.sort(got[g]) - ref)) <= 1e-14 * np.linalg.norm(M[g])

    def test_tridiagonal_and_zero_blocks_solved_as_given(self):
        # nothing to rotate: the block, in its units, goes to LAPACK as it is
        T = np.array([[[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 3.0]], np.zeros((3, 3))])
        got = o33_block_eigenvalues(T)
        assert got[0].tolist() == np.linalg.eigvalsh(T[0])[[0, 2, 1]].tolist()
        assert got[1].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("k", [-1060, -1030, -60, 1, 40, 1020])
    def test_scales_bit_for_bit(self, k):
        rng = np.random.default_rng(29)
        M = rng.normal(size=(50, 3, 3))
        M = M + M.transpose(0, 2, 1)
        ref = o33_block_eigenvalues(M)
        got = o33_block_eigenvalues(np.ldexp(M, k))
        if k > -1022:
            assert got.tolist() == np.ldexp(ref, k).tolist()
        else:  # subnormal entries: exact units, rounded entries
            assert np.allclose(got, np.ldexp(ref, k), rtol=0, atol=1e-3 * np.ldexp(1.0, k))

    def test_non_finite_is_numeric_error(self):
        M = np.eye(3)[None].copy()
        M[0, 1, 1] = np.nan
        with pytest.raises(NumericError):
            o33_block_eigenvalues(M)

    def test_solver_failure_is_numeric_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericError, match="did not converge"):
            o33_block_eigenvalues(np.eye(3)[None])


def test_spectrum_json():
    spec = eigen(np.diag([1.0, 2.0]))
    obj = spec.to_json()
    assert obj["eigenvalues"] == [1.0, 2.0]
    assert len(obj["eigenvectors"]) == 2
    assert obj["residual"] < 1e-12
