"""End-to-end acceptance checks.

Each test prints a single PASS line on success (always visible, bypassing
capture) and enforces the stated numeric tolerance and runtime budget.
"""

import io
import math
import time

import numpy as np

import reference
from bellbounds import catalog, kernels
from bellbounds.polytope import enumerate_vertices, hull_facets, verify_facet
from bellbounds.qops import bell_operator, to_bell_basis
from bellbounds.sampling import (
    eigencurves,
    sample_params,
    sweep,
    write_eigencurves_csv,
    write_sweep_csv,
)
from bellbounds.spectra import cardano_eigenvalues, eigen, o33_block_decompose, quantum_bound
from bellbounds.states import PureState, entanglement
from reference import chsh_operator, o22_closed_form, phase_aligned_distance, psi_max_33
from reference import pure_state_polish, sample_states

SQRT2 = math.sqrt(2.0)


def report(capsys, num, message):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: PASS - {message}")


def test_acceptance_1_closed_form_vs_numeric(capsys):
    rng = np.random.default_rng(101)
    ch = catalog.ch_structure()
    ineq = catalog.ch_inequality()
    t0 = time.perf_counter()
    for _ in range(1000):
        a, b, g, d = rng.uniform(0.0, 2 * math.pi, 4)
        O = bell_operator(ineq, {1: a, 2: b, 3: g, 4: d}, ch)
        w = eigen(O.matrix).eigenvalues
        assert np.allclose(w, o22_closed_form(a, b, g, d), atol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(capsys, 1, f"closed-form two-setting spectrum matches numeric on 1000 "
              f"random angle sets ({elapsed:.2f} s)")


def test_acceptance_2_tsirelson_bound(capsys):
    # one-parameter family through the optimal correlation angles
    best = 0.0
    for g in np.linspace(0.0, math.pi / 2, 101):
        O = chsh_operator(0.0, math.pi / 2, g, g + math.pi / 2)
        best = max(best, quantum_bound(O).norm)
    assert abs(best - 2 * SQRT2) < 1e-12
    O = chsh_operator(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
    assert abs(quantum_bound(O).norm - 2 * SQRT2) < 1e-12
    O22 = bell_operator(
        catalog.ch_inequality(),
        reference.sweep_schedule_22(math.pi / 4),
        catalog.ch_structure(),
    )
    assert abs(quantum_bound(O22).lambda_max - (SQRT2 - 1) / 2) < 1e-12
    report(capsys, 2, "correlation-form bound 2*sqrt(2); probability form (sqrt(2)-1)/2")


def test_acceptance_3_three_setting_landmark(capsys):
    O = bell_operator(
        catalog.i33_inequality(),
        reference.symmetric_angles_33(math.pi / 3),
        catalog.i33_structure(),
    )
    qb = quantum_bound(O)
    assert abs(qb.lambda_max - 0.25) < 1e-12
    argmax = PureState(qb.argmax_state)
    target = psi_max_33().to_computational()
    assert phase_aligned_distance(argmax, target) < 1e-8
    from bellbounds.states import schmidt

    s = schmidt(argmax).coefficients
    assert np.allclose(s, [1 / SQRT2, 1 / SQRT2], atol=1e-9)
    report(capsys, 3, "three-setting peak 1/4 with the expected maximally entangled state")


def test_acceptance_4_single_setting_no_violation(capsys):
    single = reference.single_setting_structure()
    ineq = reference.trivial_facet()
    for theta in np.linspace(0.0, 2 * math.pi, 100):
        qb = quantum_bound(bell_operator(ineq, {1: 0.0, 2: theta}, single))
        assert abs(qb.lambda_max - 1.0) < 1e-12
        assert abs(qb.lambda_min - 0.0) < 1e-12
    report(capsys, 4, "single-setting operator spectrum stays in [0, 1] for 100 angles")


def test_acceptance_5_hull_correctness(capsys):
    ch = catalog.ch_structure()
    t0 = time.perf_counter()
    vertices = enumerate_vertices(ch)
    facets = hull_facets(vertices, ch)
    t_ch = time.perf_counter() - t0
    assert t_ch < 1.0
    assert len(facets) == 24
    keys = {f.canonical_key(ch) for f in facets}
    assert {f.canonical_key(ch) for f in reference.ch_family()} <= keys
    for f in facets:
        check = verify_facet(f, vertices, ch)
        assert check.valid and check.is_facet
    s33 = catalog.i33_structure()
    t0 = time.perf_counter()
    v33 = enumerate_vertices(s33)
    f33 = hull_facets(v33, s33)
    t_33 = time.perf_counter() - t0
    assert t_33 < 600.0
    assert len(f33) == 684
    report(capsys, 5, f"two-setting hull ({t_ch:.2f} s) and 684-facet three-setting "
              f"hull ({t_33:.1f} s) pass the vertex oracle")


def test_acceptance_6_sign_variant(capsys):
    ch = catalog.ch_structure()
    vertices = enumerate_vertices(ch)
    bad = verify_facet(reference.ch_inequality_printed_variant(), vertices, ch)
    assert not bad.valid
    assert bad.witness is not None
    good = verify_facet(catalog.ch_inequality(), vertices, ch)
    assert good.valid and good.is_facet
    assert good.witness is None
    report(capsys, 6, "sign variant rejected with witness; canonical form is a facet")


def test_acceptance_7_sampling_soundness(capsys):
    O = bell_operator(
        catalog.ch_inequality(),
        reference.sweep_schedule_22(math.pi / 4),
        catalog.ch_structure(),
    )
    bound = quantum_bound(O).lambda_max
    t0 = time.perf_counter()
    params = sample_params(100_000, 2024)
    vals = kernels.batch_expectations(params, O.matrix)
    assert float(np.max(vals)) <= bound + 1e-9
    W = next(sample_states(1, 2024))
    polished, _ = pure_state_polish(O, W)
    gap = bound - polished
    assert abs(gap) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(capsys, 7, f"1e5 samples below the bound; polish gap {gap:.1e} "
              f"({elapsed:.2f} s, {kernels.BACKEND} backend)")


def test_acceptance_8_csv_curves(capsys):
    grid = list(np.linspace(0.0, math.pi, 101))
    rows = sweep(
        catalog.ch_inequality(),
        catalog.ch_structure(),
        reference.sweep_schedule_22,
        grid,
        n_samples=0,
        seed=0,
    )
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    for r, line in zip(rows, buf.getvalue().splitlines()[1:], strict=True):
        want = (math.sqrt(1.0 + math.sin(2 * r.parameter) ** 2) - 1.0) / 2.0
        assert abs(r.analytic_max - want) < 1e-12
        assert abs(r.analytic_min - (-1.0 - want)) < 1e-12
        # the CSV cell holds 12 significant digits
        assert abs(float(line.split(",")[2]) - want) < 1e-10
    curves = eigencurves(
        catalog.i33_inequality(),
        catalog.i33_structure(),
        reference.symmetric_angles_33,
        grid,
    )
    assert len(curves) == len(grid)
    buf = io.StringIO()
    write_eigencurves_csv(curves, buf)
    for (theta, lams), line in zip(curves, buf.getvalue().splitlines()[1:], strict=True):
        cells = [float(x) for x in line.split(",")[1:]]
        assert len(lams) == len(cells) == 4
        assert abs(lams[0] - (-math.sin(theta) ** 2)) < 1e-10
        O = to_bell_basis(
            bell_operator(
                catalog.i33_inequality(),
                reference.symmetric_angles_33(theta),
                catalog.i33_structure(),
            )
        )
        o1, o3 = o33_block_decompose(O)
        want = [o1] + cardano_eigenvalues(o3)
        assert np.allclose(cells, want, atol=1e-9)
    report(capsys, 8, "sweep and eigencurve CSVs match their closed-form curves pointwise")


def test_acceptance_9_entanglement_claims(capsys):
    rng = np.random.default_rng(109)
    ch = catalog.ch_structure()
    for _ in range(100):
        angles = dict(zip((1, 2, 3, 4), rng.uniform(0.0, 2 * math.pi, 4)))
        qb = quantum_bound(bell_operator(catalog.ch_inequality(), angles, ch))
        assert abs(entanglement(PureState(qb.argmax_state)) - 1.0) < 1e-9
    ents = []
    for theta in np.linspace(0.1, math.pi - 0.1, 40):
        qb = quantum_bound(
            bell_operator(
                catalog.i33_inequality(),
                reference.symmetric_angles_33(theta),
                catalog.i33_structure(),
            )
        )
        ents.append(entanglement(PureState(qb.argmax_state)))
    assert min(ents) < 0.999
    report(capsys, 9, "two-setting argmax always maximally entangled; three-setting not")
