import math

import numpy as np
import pytest

from bellbounds import catalog
from bellbounds.errors import BasisError, InputError
from bellbounds.qops import BELL_BASIS, bell_operator, to_bell_basis
from bellbounds.spectra import quantum_bound
from bellbounds.states import (
    PureState,
    entanglement,
    max_violation_family,
    phase_aligned_distance,
    psi_max_33,
    schmidt,
)

SQ2 = 1.0 / math.sqrt(2.0)


def random_pure(rng):
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(amp / np.linalg.norm(amp))


class TestSchmidt:
    def test_product_state(self):
        sd = schmidt(PureState([1, 0, 0, 0]))
        assert np.allclose(sd.coefficients, [1, 0], atol=1e-15)

    def test_singlet(self):
        sd = schmidt(PureState(np.array([0, 1, -1, 0]) * SQ2))
        assert np.allclose(sd.coefficients, [SQ2, SQ2], atol=1e-14)

    def test_psi_max(self):
        sd = schmidt(psi_max_33().to_computational())
        assert np.allclose(sd.coefficients, [SQ2, SQ2], atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            psi = random_pure(rng)
            sd = schmidt(psi)
            rebuilt = PureState(sd.reconstruct())
            assert phase_aligned_distance(psi, rebuilt) < 1e-10

    def test_coefficient_normalization(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = schmidt(random_pure(rng)).coefficients
            assert s[0] >= s[1] >= 0
            assert abs(float(np.sum(s**2)) - 1.0) < 1e-12

    def test_rejects_bell_basis(self):
        with pytest.raises(BasisError):
            schmidt(psi_max_33())

    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            PureState([1, 1, 0, 0])


class TestEntanglement:
    def test_product_zero(self):
        assert entanglement(PureState([0, 0, 1, 0])) == 0.0

    def test_bell_states_one(self):
        for k in range(4):
            psi = PureState(BELL_BASIS[:, k])
            assert abs(entanglement(psi) - 1.0) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            psi = random_pure(rng)
            U1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            U2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            rotated = PureState(np.kron(U1, U2) @ psi.amplitudes)
            assert abs(entanglement(rotated) - entanglement(psi)) < 1e-10

    def test_two_setting_argmax_maximally_entangled(self):
        rng = np.random.default_rng(23)
        ch = catalog.ch_structure()
        for _ in range(50):
            angles = dict(zip((1, 2, 3, 4), rng.uniform(0, 2 * math.pi, 4)))
            O = bell_operator(catalog.ch_inequality(), angles, ch)
            qb = quantum_bound(O)
            assert abs(entanglement(PureState(qb.argmax_state)) - 1.0) < 1e-9


class TestMaxViolationFamily:
    def test_theta_half_pi_is_singlet(self):
        psi = max_violation_family(math.pi / 2)
        singlet = PureState(np.array([0, 1, -1, 0]) * SQ2)
        assert phase_aligned_distance(psi, singlet) < 1e-14

    def test_always_maximally_entangled(self):
        for theta in np.linspace(0, 2 * math.pi, 25):
            assert abs(entanglement(max_violation_family(theta)) - 1.0) < 1e-12

    def test_family_attains_two_setting_bound(self):
        # Scanned over its parameter, the rotated-singlet family reaches the
        # top eigenvalue of the two-setting operator, provided the two left
        # settings are assigned in the order consistent with the
        # correlation-form identity (see test_qops: the correlation operator
        # at (b, a, g, d) equals 4x the probability form at (a, b, g, d)
        # plus 2).  With the opposite assignment the family is confined to
        # the degenerate middle eigenspace: the eigenvector of the largest
        # eigenvalue then corresponds to a reflection (determinant -1)
        # rather than a rotation and is unreachable.
        ch = catalog.ch_structure()
        ts = np.linspace(0, math.pi, 4001)
        for theta in (0.3, math.pi / 4, 2.0):
            sched = catalog.sweep_schedule_22(theta)
            swapped = {1: sched[2], 2: sched[1], 3: sched[3], 4: sched[4]}
            O = bell_operator(catalog.ch_inequality(), swapped, ch)
            best = max(
                float(
                    np.real(
                        max_violation_family(t).amplitudes.conj()
                        @ O.matrix
                        @ max_violation_family(t).amplitudes
                    )
                )
                for t in ts
            )
            assert abs(best - quantum_bound(O).lambda_max) < 1e-6
        # at the sweep peak the attained value is the analytic maximum
        O_peak = bell_operator(
            catalog.ch_inequality(),
            {1: math.pi / 2, 2: 0.0, 3: math.pi / 4, 4: 3 * math.pi / 4},
            ch,
        )
        best_peak = max(
            float(
                np.real(
                    max_violation_family(t).amplitudes.conj()
                    @ O_peak.matrix
                    @ max_violation_family(t).amplitudes
                )
            )
            for t in ts
        )
        assert abs(best_peak - (math.sqrt(2) - 1) / 2) < 1e-7


class TestPsiMax:
    def test_amplitudes(self):
        psi = psi_max_33()
        assert psi.basis == "bell"
        assert np.allclose(
            psi.amplitudes, [0, 0.5, 0, math.sqrt(3) / 2], atol=1e-15
        )

    def test_expectation_quarter(self):
        O = bell_operator(
            catalog.i33_inequality(),
            catalog.symmetric_angles_33(math.pi / 3),
            catalog.i33_structure(),
        )
        psi = psi_max_33().to_computational().amplitudes
        val = float(np.real(psi.conj() @ O.matrix @ psi))
        assert abs(val - 0.25) < 1e-10

    def test_maximally_entangled(self):
        assert abs(entanglement(psi_max_33().to_computational()) - 1.0) < 1e-12


class TestThreeSettingEntanglementProfile:
    def test_not_always_maximal(self):
        s = catalog.i33_structure()
        ineq = catalog.i33_inequality()
        ents = []
        for t in np.linspace(0.1, math.pi - 0.1, 40):
            O = bell_operator(ineq, catalog.symmetric_angles_33(t), s)
            qb = quantum_bound(O)
            ents.append(entanglement(PureState(qb.argmax_state)))
        assert min(ents) < 1.0 - 1e-3


class TestBasisConversion:
    def test_mutually_inverse(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            psi = random_pure(rng)
            back = psi.to_bell().to_computational()
            assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)

    def test_bell_state_to_bell_is_itself(self):
        psi = psi_max_33()
        assert psi.to_bell() is psi

    def test_distance_across_bases_rejected(self):
        psi = psi_max_33()
        with pytest.raises(BasisError):
            phase_aligned_distance(psi, psi.to_computational())

    def test_json_roundtrip(self):
        psi = psi_max_33()
        back = PureState.from_json(psi.to_json())
        assert back.basis == psi.basis
        assert phase_aligned_distance(back, psi) < 1e-12

    def test_canonical_phase(self):
        psi = PureState(np.array([0, 1j, 0, 0], dtype=complex))
        fixed = psi.canonical_phase()
        assert fixed.amplitudes[1] == pytest.approx(1.0)
