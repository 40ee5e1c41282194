"""Scaling an inequality by 2^k scales every spectral result by 2^k.

The quantum bound, the eigencurves, a sampled sweep and the power-iteration
polish of the scaled inequality must match 2^k times the unscaled results,
to 1e-12 * 2^k * ||O||, with the same argmax state up to a global phase, the
same degeneracy flag and the same eigencurve route, from 2^-60 up to 2^1010,
near the top of the float range.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from bellbounds import catalog, sampling
from bellbounds.polytope import Inequality
from bellbounds.qops import bell_operator
from bellbounds.sampling import eigencurves, sweep
from bellbounds.spectra import quantum_bound
from bellbounds.states import PureState
from reference import phase_aligned_distance, pure_state_polish, sample_states

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXPONENTS = [-60, -40, -1, 1, 40, 600, 1010]

LAYOUTS = {
    "ch": (
        catalog.ch_structure(),
        catalog.ch_inequality(),
        reference.sweep_schedule_22,
        [
            {1: 0.0, 2: 1.0, 3: 0.5, 4: 2.0},
            {1: 0.0, 2: -math.pi / 2, 3: 0.0, 4: -math.pi / 2},
            {1: 0.3, 2: 0.3, 3: 1.1, 4: 2.0},  # equal left settings: degenerate max
        ],
    ),
    "i33": (
        catalog.i33_structure(),
        catalog.i33_inequality(),
        reference.symmetric_angles_33,
        [
            reference.symmetric_angles_33(math.pi / 3),
            reference.symmetric_angles_33(0.9),
            reference.symmetric_angles_33(0.0),
        ],
    ),
}

GRID = [float(t) for t in np.linspace(0.0, math.pi, 41)]


def scaled(ineq: Inequality, k: int) -> Inequality:
    return Inequality({key: c * Fraction(2) ** k for key, c in ineq.coeffs.items()})


def close(scaled_values, values, k, norm):
    tol = 1e-12 * math.ldexp(norm, k)
    return all(abs(a - math.ldexp(b, k)) <= tol for a, b in zip(scaled_values, values))


def operator_norm(ineq, angles, structure):
    return float(np.linalg.norm(bell_operator(ineq, angles, structure).matrix))


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestScaleEquivariance:
    def test_quantum_bound(self, layout, k):
        structure, ineq, _, angle_sets = LAYOUTS[layout]
        for angles in angle_sets:
            ref = quantum_bound(bell_operator(ineq, angles, structure))
            got = quantum_bound(bell_operator(scaled(ineq, k), angles, structure))
            norm = operator_norm(ineq, angles, structure)
            assert close(
                [got.lambda_min, got.lambda_max, got.norm],
                [ref.lambda_min, ref.lambda_max, ref.norm],
                k,
                norm,
            )
            assert got.degenerate == ref.degenerate
            distance = phase_aligned_distance(
                PureState(got.argmax_state), PureState(ref.argmax_state)
            )
            assert distance <= 1e-9

    def test_eigencurves(self, layout, k, monkeypatch):
        structure, ineq, schedule, _ = LAYOUTS[layout]
        routes = []
        solve = sampling._solve

        def spy(H):
            routes.append("stacked")
            return solve(H)

        monkeypatch.setattr(sampling, "_solve", spy)
        ref = eigencurves(ineq, structure, schedule, GRID)
        ref_routes = list(routes)
        got = eigencurves(scaled(ineq, k), structure, schedule, GRID)
        assert routes == 2 * ref_routes and len(got) == len(ref)
        for (theta, lams), (ref_theta, ref_lams) in zip(got, ref):
            assert theta == ref_theta and len(lams) == len(ref_lams)
            assert close(lams, ref_lams, k, operator_norm(ineq, schedule(theta), structure))
            if not ref_routes:  # the Cardano route scales bit for bit
                assert lams == [math.ldexp(x, k) for x in ref_lams]

    def test_sampled_sweep(self, layout, k):
        structure, ineq, schedule, _ = LAYOUTS[layout]
        grid = GRID[::5]
        ref = sweep(ineq, structure, schedule, grid, n_samples=200, seed=3)
        got = sweep(scaled(ineq, k), structure, schedule, grid, n_samples=200, seed=3)
        for r, s, theta in zip(ref, got, grid):
            assert close(
                [s.analytic_min, s.analytic_max, s.sampled_min, s.sampled_max],
                [r.analytic_min, r.analytic_max, r.sampled_min, r.sampled_max],
                k,
                operator_norm(ineq, schedule(theta), structure),
            )
            # the kernel runs in the operator's units, so the samples scale bit for bit
            assert (s.sampled_min, s.sampled_max) == (
                math.ldexp(r.sampled_min, k),
                math.ldexp(r.sampled_max, k),
            )


@pytest.mark.parametrize("k", EXPONENTS)
def test_pure_state_polish(k):
    # the polish runs in the operator's units, so its value scales bit for bit
    structure, ineq, _, (angles, *_) = LAYOUTS["ch"]
    W = next(sample_states(1, 17))
    ref, ref_psi = pure_state_polish(bell_operator(ineq, angles, structure), W)
    got, psi = pure_state_polish(bell_operator(scaled(ineq, k), angles, structure), W)
    assert got == math.ldexp(ref, k)
    assert np.array_equal(psi, ref_psi)
    lam = quantum_bound(bell_operator(ineq, angles, structure)).lambda_max
    assert abs(ref - lam) <= 1e-12
