import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbounds import catalog, qops
from bellbounds.errors import BasisError, InputError, NumericError
from bellbounds.polytope import EventStructure, Inequality
from bellbounds.qops import (
    BELL,
    BELL_BASIS,
    BellOperator,
    DensityMatrix,
    bell_operator,
    bell_operators,
    canonical_angle,
    chsh_operator,
    expectation,
    joint,
    projector,
    sigma,
    single_site,
    to_bell_basis,
)

angles_st = st.floats(-10.0, 10.0, allow_nan=False)


def rand_angles(rng, n):
    return rng.uniform(0, 2 * math.pi, n)


class TestSigma:
    def test_theta_zero(self):
        assert np.allclose(sigma(0.0), [[1, 0], [0, -1]])

    def test_theta_half_pi(self):
        assert np.allclose(sigma(math.pi / 2), [[0, 1], [1, 0]], atol=1e-15)

    @given(angles_st)
    def test_squares_to_identity(self, theta):
        assert np.allclose(sigma(theta) @ sigma(theta), np.eye(2), atol=1e-15)

    def test_eigenvalues_pm_one(self):
        rng = np.random.default_rng(1)
        for theta in rand_angles(rng, 20):
            w = np.linalg.eigvalsh(sigma(theta))
            assert np.allclose(w, [-1, 1], atol=1e-14)


class TestProjector:
    def test_theta_zero(self):
        assert np.allclose(projector(0.0), [[1, 0], [0, 0]])

    def test_theta_pi(self):
        assert np.allclose(projector(math.pi), [[0, 0], [0, 1]], atol=1e-15)

    @given(angles_st)
    @settings(max_examples=200)
    def test_projector_laws(self, theta):
        F = projector(theta)
        assert np.allclose(F @ F, F, atol=1e-14)
        assert abs(np.trace(F).real - 1.0) < 1e-14
        assert np.allclose(F + projector(theta + math.pi), np.eye(2), atol=1e-13)

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        for theta in rand_angles(rng, 20):
            w = np.linalg.eigvalsh(projector(theta))
            assert np.allclose(sorted(w), [0, 1], atol=1e-14)


class TestSiteOperators:
    def test_left_right_diagonals(self):
        assert np.allclose(single_site(0.0, "left"), np.diag([1, 1, 0, 0]))
        assert np.allclose(single_site(0.0, "right"), np.diag([1, 0, 1, 0]))

    def test_idempotent_trace_two(self):
        rng = np.random.default_rng(3)
        for theta in rand_angles(rng, 10):
            for side in ("left", "right"):
                q = single_site(theta, side)
                assert np.allclose(q @ q, q, atol=1e-14)
                assert abs(np.trace(q).real - 2.0) < 1e-13

    def test_bad_side(self):
        with pytest.raises(InputError):
            single_site(0.0, "top")

    def test_joint_diagonals(self):
        assert np.allclose(joint(0.0, 0.0), np.diag([1, 0, 0, 0]))
        assert np.allclose(joint(0.0, math.pi), np.diag([0, 1, 0, 0]), atol=1e-15)

    def test_joint_is_product_and_commutes(self):
        rng = np.random.default_rng(4)
        for tl, tr in rand_angles(rng, 10).reshape(5, 2):
            q = joint(tl, tr)
            ql = single_site(tl, "left")
            qr = single_site(tr, "right")
            assert np.allclose(q, ql @ qr, atol=1e-14)
            assert np.allclose(q @ ql, ql @ q, atol=1e-14)
            assert abs(np.trace(q).real - 1.0) < 1e-13
            assert np.allclose(q @ q, q, atol=1e-14)


def o11_expected(theta):
    c2 = math.cos(theta / 2) ** 2
    s2 = math.sin(theta / 2) ** 2
    h = math.sin(theta) / 2
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c2, h], [0, 0, h, s2]]
    )


class TestBellOperator:
    def test_o11_matrix(self):
        single = catalog.single_setting_structure()
        for theta in (0.3, 1.2, 2.9):
            O = bell_operator(catalog.trivial_facet(), {1: 0.0, 2: theta}, single)
            assert np.allclose(O.matrix, o11_expected(theta), atol=1e-14)
            assert O.basis == "computational"

    def test_o22_matches_manual_sum(self):
        ch = catalog.ch_structure()
        a, b, g, d = 0.3, 1.1, 2.2, 0.7
        O = bell_operator(
            catalog.ch_inequality(), {1: a, 2: b, 3: g, 4: d}, ch
        )
        manual = (
            joint(a, g)
            + joint(a, d)
            + joint(b, g)
            - joint(b, d)
            - single_site(a, "left")
            - single_site(g, "right")
        )
        assert np.allclose(O.matrix, manual, atol=1e-15)

    def test_linearity_in_coefficients(self):
        ch = catalog.ch_structure()
        angles = {1: 0.2, 2: 0.9, 3: 1.7, 4: 2.5}
        i1 = Inequality({(1, 3): 1, 1: -1})
        i2 = Inequality({(2, 4): 1, 3: 2})
        combo = Inequality({(1, 3): 3, 1: -3, (2, 4): 5, 3: 10})
        O = bell_operator(combo, angles, ch)
        expected = (
            3 * bell_operator(i1, angles, ch).matrix
            + 5 * bell_operator(i2, angles, ch).matrix
        )
        assert np.allclose(O.matrix, expected, atol=1e-14)

    def test_missing_angle(self):
        ch = catalog.ch_structure()
        with pytest.raises(InputError):
            bell_operator(catalog.ch_inequality(), {1: 0.0, 2: 0.0, 3: 0.0}, ch)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(5)
        ch = catalog.ch_structure()
        for _ in range(20):
            angles = dict(zip((1, 2, 3, 4), rand_angles(rng, 4)))
            M = bell_operator(catalog.ch_inequality(), angles, ch).matrix
            assert float(np.max(np.abs(M - M.conj().T))) == 0.0

    def test_checked_not_repaired(self):
        with pytest.raises(InputError):
            BellOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NumericError):
            BellOperator(np.diag([1.0, np.nan, 0.0, 0.0]))

    def test_joint_key_order_irrelevant(self):
        ch = catalog.ch_structure()
        angles = {1: 0.4, 3: 1.3}
        a = bell_operator(Inequality({(1, 3): 1}), angles, ch).matrix
        b = bell_operator(Inequality({(3, 1): 1}), angles, ch).matrix
        assert np.allclose(a, b)

    def test_right_side_numbered_first(self):
        # CH with events 1, 2 and 3, 4 swapped, so the left side is 3, 4:
        # each joint is stored (right, left) and built left event first
        swap = {1: 3, 2: 4, 3: 1, 4: 2}
        ch, ineq = catalog.ch_structure(), catalog.ch_inequality()
        relabelled = EventStructure(
            4, ((3, 4), (1, 2)), tuple((swap[i], swap[j]) for i, j in ch.joints)
        )
        moved = Inequality(
            {
                swap[k] if isinstance(k, int) else (swap[k[0]], swap[k[1]]): c
                for k, c in ineq.coeffs.items()
            }
        )
        angles = {1: 0.2, 2: 0.9, 3: 1.7, 4: 2.5}
        want = bell_operator(ineq, angles, ch).matrix
        got = bell_operator(moved, {swap[k]: v for k, v in angles.items()}, relabelled).matrix
        assert got.tobytes() == want.tobytes()


def per_point_operator(ineq, angles, structure):
    """Reference: the coefficient-weighted sum of single_site and joint."""
    side_of = structure.side_of_event()
    O = np.zeros((4, 4), dtype=np.complex128)
    for key, coeff in ineq.coeffs.items():
        if isinstance(key, int):
            side = "left" if side_of[key] == 0 else "right"
            O = O + float(coeff) * single_site(angles[key], side)
        else:
            i, j = key if side_of[key[0]] == 0 else key[::-1]
            O = O + float(coeff) * joint(angles[i], angles[j])
    return O


def schedule_angles(slopes):
    """Angles m * t of each event over 101 points t in [0, pi]."""
    grid = np.linspace(0.0, math.pi, 101)
    return {e: float(m) * grid for e, m in slopes.items()}


def random_angles(n_events, seed):
    """101 seeded uniform angles in [-10, 10] for each of events 1..n_events."""
    rng = np.random.default_rng(seed)
    return {e: rng.uniform(-10.0, 10.0, 101) for e in range(1, n_events + 1)}


def random_layout(seed):
    """A seeded 2|3 layout (either side numbered first), a random inequality
    on it whose keys come in random order, and 1 to 20 angles per event,
    listed in shuffled event order."""
    rng = np.random.default_rng(seed)
    sides = ((1, 2), (3, 4, 5)) if rng.integers(2) else ((1, 2, 3), (4, 5))
    pairs = [(i, j) for i in sides[0] for j in sides[1]]
    joints = [pairs[k] for k in sorted(rng.choice(len(pairs), rng.integers(1, 7), replace=False))]
    structure = EventStructure(5, sides, tuple(joints))
    terms = [1, 2, 3, 4, 5] + [(j, i) if rng.integers(2) else (i, j) for i, j in joints]
    chosen = rng.choice(len(terms), rng.integers(1, len(terms) + 1), replace=False)
    ineq = Inequality(
        {terms[k]: Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 5))) for k in chosen}
    )
    G = int(rng.integers(1, 21))
    angles = {int(e): rng.uniform(-10.0, 10.0, G) for e in rng.permutation(5) + 1}
    return structure, ineq, angles


class TestBellOperatorStack:
    @pytest.mark.parametrize(
        "layout,angles",
        [
            ("ch", schedule_angles({1: 0, 2: 2, 3: 1, 4: 3})),
            ("i33", schedule_angles({1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2})),
            ("ch", random_angles(4, 20)),
            ("i33", random_angles(6, 21)),
            # events listed out of order; event 4 appears in no term
            ("ch-partial", dict(reversed(random_angles(4, 22).items()))),
            ("i33", {e: a[:1] for e, a in random_angles(6, 23).items()}),
        ]
        + [(seed, None) for seed in range(24, 44)],
        ids=["ch-readme", "i33", "ch-random", "i33-random", "ch-unused-event", "i33-one-point"]
        + [f"random-2|3-{seed}" for seed in range(24, 44)],
    )
    def test_matches_per_point_sums_bytewise(self, layout, angles):
        if angles is None:
            structure, ineq, angles = random_layout(layout)
        else:
            structure, ineq = {
                "ch": (catalog.ch_structure(), catalog.ch_inequality()),
                "ch-partial": (catalog.ch_structure(), Inequality({(3, 1): 2, 2: -1, (2, 3): Fraction(1, 3)})),
                "i33": (catalog.i33_structure(), catalog.i33_inequality()),
            }[layout]
        G = len(next(iter(angles.values())))
        ops = bell_operators(ineq, angles, structure)
        assert ops.shape == (G, 4, 4)
        # exactly Hermitian with no symmetrisation step
        assert np.array_equal(ops, np.swapaxes(ops.conj(), -1, -2))
        for g in range(G):
            point = {e: float(a[g]) for e, a in angles.items()}
            ref = per_point_operator(ineq, point, structure).tobytes()
            assert ops[g].tobytes() == ref
            assert bell_operator(ineq, point, structure).matrix.tobytes() == ref

    def test_coefficient_too_large_for_a_float(self):
        ineq = Inequality({(1, 3): 1, 2: 10**400})
        angles = {1: [0.0, 0.1], 2: [0.5, 0.6], 3: [1.0, 1.1], 4: [1.5, 1.6]}
        with pytest.raises(InputError, match=r"coefficient of 2 is too large for a float"):
            bell_operators(ineq, angles, catalog.ch_structure())

    def test_missing_angle_names_first_missing_term(self):
        # events 2 and 3 have no angle: the joint (2,4) comes before the
        # single event 3 in coefficient order, though 2 and 3 are both absent
        ineq = Inequality({1: 1, (4, 2): 1, 3: 1, (2, 3): 1})
        angles = {1: [0.0, 0.1], 4: [1.5, 1.6]}
        with pytest.raises(InputError, match=r"^no angle given for joint \(2,4\)$"):
            bell_operators(ineq, angles, catalog.ch_structure())
        ineq = Inequality({1: 1, 3: 1, (2, 4): 1})
        with pytest.raises(InputError, match="^no angle given for event 3$"):
            bell_operators(ineq, angles, catalog.ch_structure())

    def test_unknown_event(self):
        angles = {1: 0.0, 2: 0.5, 3: 1.0, 4: 1.5, 9: 1.0}
        with pytest.raises(InputError):
            bell_operators(catalog.ch_inequality(), angles, catalog.ch_structure())

    def test_overflowing_sum(self):
        # each weighted term is finite; their sum on the diagonal is not
        ineq = Inequality({1: 10**308, 3: 10**308})
        angles = {1: [0.0, 0.1], 2: [0.5, 0.6], 3: [0.0, 0.1], 4: [1.5, 1.6]}
        with pytest.raises(NumericError):
            bell_operators(ineq, angles, catalog.ch_structure())

    def test_unequal_grid_lengths(self):
        angles = {1: [0.0, 0.1], 2: [0.5], 3: [1.0, 1.1], 4: [1.5, 1.6]}
        with pytest.raises(InputError):
            bell_operators(catalog.ch_inequality(), angles, catalog.ch_structure())


def per_term_stack(ineq, angles, structure):
    """Oracle for the gather build: the per-term loop it replaced.

    Each event's projector stack is made in place, (sigma + 1) / 2, and each
    term's Kronecker stack, with a real identity for the absent side, is
    weighted and added into the sum in coefficient order.
    """
    side_of = structure.side_of_event()
    eye = np.eye(2)[None]
    P = {}
    for e, a in angles.items():
        c, s = np.cos(np.asarray(a, dtype=np.float64)), np.sin(np.asarray(a, dtype=np.float64))
        S = np.empty(c.shape + (2, 2), dtype=np.complex128)
        S[:, 0, 0], S[:, 0, 1], S[:, 1, 0], S[:, 1, 1] = c, s, s, -c
        S += eye
        S /= 2.0
        P[e] = S
    G = len(next(iter(angles.values())))
    O = np.zeros((G, 4, 4), dtype=np.complex128)
    for key, coeff in ineq.coeffs.items():
        if isinstance(key, int):
            A, B = (P[key], eye) if side_of[key] == 0 else (eye, P[key])
        else:
            i, j = key if side_of[key[0]] == 0 else key[::-1]
            A, B = P[i], P[j]
        O += float(coeff) * (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(-1, 4, 4)
    return O


def full_layout(m, n, left_first, seed):
    """An m|n layout with every joint, its left side numbered first or its
    right side first, and a seeded inequality on a random subset of its
    terms, with Fraction coefficients drawn in pairs c, -c."""
    rng = np.random.default_rng(seed)
    if left_first:
        sides = (tuple(range(1, m + 1)), tuple(range(m + 1, m + n + 1)))
    else:
        sides = (tuple(range(n + 1, n + m + 1)), tuple(range(1, n + 1)))
    structure = EventStructure(
        m + n, sides, tuple((i, j) for i in sides[0] for j in sides[1])
    )
    terms = structure.term_order()
    chosen = [terms[t] for t in rng.permutation(len(terms))[: int(rng.integers(2, len(terms) + 1))]]
    coeffs = {}
    for k, key in enumerate(chosen):
        if k % 2:
            coeffs[key] = -coeffs[chosen[k - 1]]
        else:
            coeffs[key] = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 7))) * (
                1 if rng.integers(2) else -1
            )
    return structure, Inequality(coeffs)


def special_angles(n_events, G, seed):
    """G seeded angles per event, in shuffled event order.  At about a third
    of the points every event takes one common angle, so that terms of
    opposite coefficients cancel; elsewhere each angle is a signed zero, a
    multiple of pi/2 (where sigma has exact or near zeros) or uniform."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2, 2 * math.pi])
    common = rng.choice(special, G)
    shared = rng.random(G) < 0.3
    out = {}
    for e in rng.permutation(n_events) + 1:
        a = rng.uniform(-10.0, 10.0, G)
        pick = rng.random(G) < 0.4
        a[pick] = rng.choice(special, int(pick.sum()))
        a[shared] = common[shared]
        out[int(e)] = a
    return out


BLOCK = qops._BUILD_BLOCK


class TestGatherBuild:
    @pytest.mark.parametrize("G", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 1])
    @pytest.mark.parametrize(
        "m,n,left_first",
        [(2, 2, True), (3, 3, True), (2, 4, True), (2, 4, False), (4, 4, False)],
        ids=["2|2", "3|3", "2|4", "2|4-right-first", "4|4-right-first"],
    )
    def test_bit_equal_to_per_term_loop(self, m, n, left_first, G):
        for seed in range(3):
            structure, ineq = full_layout(m, n, left_first, 100 * m + 10 * n + seed)
            # one negative term: its zero entries are -0.0, which only a sum
            # started from 0.0 turns into +0.0
            one_term = Inequality({structure.term_order()[-1 - seed]: Fraction(-1, 3)})
            angles = special_angles(m + n, G, seed + G)
            for ineq in (ineq, one_term):
                got = bell_operators(ineq, angles, structure)
                # tobytes compares every bit, signed zeros included
                assert got.tobytes() == per_term_stack(ineq, angles, structure).tobytes()


class TestChshOperator:
    def test_optimal_norm(self):
        O = chsh_operator(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        w = np.linalg.eigvalsh(O.matrix)
        assert abs(np.max(np.abs(w)) - 2 * math.sqrt(2)) < 1e-12

    def test_collapsed_angles(self):
        O = chsh_operator(0.7, 0.7, 1.9, 1.9)
        assert np.allclose(
            O.matrix, 2 * np.kron(sigma(0.7), sigma(1.9)), atol=1e-14
        )
        w = np.linalg.eigvalsh(O.matrix)
        assert abs(np.max(np.abs(w)) - 2.0) < 1e-13

    def test_relation_to_probability_form(self):
        # the correlation form with swapped left settings equals
        # 4 * (probability-form operator) + 2 * identity
        rng = np.random.default_rng(6)
        ch = catalog.ch_structure()
        for _ in range(10):
            a, b, g, d = rand_angles(rng, 4)
            O_ch = bell_operator(
                catalog.ch_inequality(), {1: a, 2: b, 3: g, 4: d}, ch
            )
            O_chsh = chsh_operator(b, a, g, d)
            assert np.allclose(
                O_chsh.matrix, 4 * O_ch.matrix + 2 * np.eye(4), atol=1e-13
            )


class TestExpectation:
    def test_maximally_mixed_o11(self):
        W = DensityMatrix(np.eye(4) / 4)
        single = catalog.single_setting_structure()
        O = bell_operator(catalog.trivial_facet(), {1: 0.0, 2: 1.1}, single)
        assert abs(expectation(W, O) - 0.75) < 1e-14

    def test_identity_operator(self):
        phi = BELL_BASIS[:, 0]
        W = DensityMatrix(np.outer(phi, phi.conj()))
        O = BellOperator(np.eye(4))
        assert abs(expectation(W, O) - 1.0) < 1e-14

    def test_singlet_chsh(self):
        psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
        W = DensityMatrix(np.outer(psi, psi.conj()))
        O = chsh_operator(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        val = expectation(W, O)
        assert abs(abs(val) - 2 * math.sqrt(2)) < 1e-12
        assert val < 0  # sign under this convention, fixed by evaluation

    def test_basis_mismatch(self):
        W = DensityMatrix(np.eye(4) / 4)
        O = BellOperator(np.eye(4), basis=BELL)
        with pytest.raises(BasisError):
            expectation(W, O)

    def test_bounded_by_spectrum(self):
        from bellbounds.sampling import sample_states
        from bellbounds.spectra import eigen

        O = chsh_operator(0.1, 0.8, 1.9, 2.4)
        w = eigen(O.matrix).eigenvalues
        for W in sample_states(50, seed=7):
            val = expectation(W, O)
            assert w[0] - 1e-9 <= val <= w[-1] + 1e-9


class TestBellBasis:
    def test_unitary(self):
        assert np.allclose(
            BELL_BASIS @ BELL_BASIS.conj().T, np.eye(4), atol=1e-15
        )

    def test_identity_fixed(self):
        O = to_bell_basis(BellOperator(np.eye(4)))
        assert np.allclose(O.matrix, np.eye(4), atol=1e-15)
        assert O.basis == BELL

    def test_double_conversion_rejected(self):
        with pytest.raises(BasisError):
            to_bell_basis(to_bell_basis(BellOperator(np.eye(4))))

    def test_spectrum_invariant(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        O = BellOperator(M + M.conj().T)
        w1 = np.linalg.eigvalsh(O.matrix)
        w2 = np.linalg.eigvalsh(to_bell_basis(O).matrix)
        assert np.allclose(w1, w2, atol=1e-12)


class TestBellBasisGather:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            M = M + M.conj().T
            got = qops._bell_basis(M)
            want = BELL_BASIS.conj().T @ M @ BELL_BASIS
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(M))
            # exactly Hermitian, with no symmetrisation step
            assert np.array_equal(got, got.conj().T)

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(37)
        M = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        M = M + np.swapaxes(M.conj(), -1, -2)
        got = qops._bell_basis(M)
        assert got.shape == M.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], qops._bell_basis(M[idx]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_float_max(self):
        # eigenvalues 1.6e308 and 0.8e308 (norm about 1.79e308): each term is
        # halved before it is added, where (M + M^dag)/2 overflowed
        M = np.zeros((4, 4), dtype=complex)
        M[0, 0] = M[3, 3] = 1.2e308
        M[0, 3] = M[3, 0] = 0.4e308
        got = qops._bell_basis(M)
        assert np.array_equal(got, np.diag([1.2e308 + 0.4e308, 0.0, 0.0, 1.2e308 - 0.4e308]))


def printed_three_setting_matrix(t):
    """The published Bell-basis display of the three-setting operator.

    The (4,4) entry as published is low by a factor of 4; the corrected
    entry is 8*sin^2(t/2)*cos^2(t/2)*(4*cos(t)-3) inside the overall 1/4.
    """
    c, s = math.cos, math.sin
    return 0.25 * np.array(
        [
            [-4 * s(t) ** 2, 0, 0, 0],
            [
                0,
                -5 - 2 * c(t) - 3 * c(2 * t) + 2 * c(3 * t),
                4 * c(t / 2) ** 2,
                2 * s(t) + 3 * s(2 * t) - 2 * s(3 * t),
            ],
            [0, 4 * c(t / 2) ** 2, -2 * (3 + c(2 * t)), -2 * s(t)],
            [
                0,
                2 * s(t) + 3 * s(2 * t) - 2 * s(3 * t),
                -2 * s(t),
                2 * s(t / 2) ** 2 * c(t / 2) ** 2 * (4 * c(t) - 3),
            ],
        ]
    )


class TestThreeSettingOperator:
    def test_matches_published_display_up_to_corner_factor(self):
        s = catalog.i33_structure()
        ineq = catalog.i33_inequality()
        for t in np.linspace(0.0, math.pi, 25):
            O = to_bell_basis(
                bell_operator(ineq, catalog.symmetric_angles_33(t), s)
            )
            P = printed_three_setting_matrix(t)
            diff = np.abs(O.matrix - P)
            diff44 = diff[3, 3]
            diff[3, 3] = 0.0
            assert float(np.max(diff)) < 1e-12
            # the published corner entry is exactly a factor 4 too small
            assert abs(O.matrix[3, 3].real - 4 * P[3, 3]) < 1e-12 or diff44 < 1e-12


def test_canonical_angle():
    assert canonical_angle(2 * math.pi + 0.5) == pytest.approx(0.5)
    with pytest.raises(InputError):
        canonical_angle(float("nan"))


def test_density_matrix_validation():
    with pytest.raises(InputError):
        DensityMatrix(np.eye(4))  # trace 4
    with pytest.raises(InputError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))
    M = np.zeros((4, 4), dtype=complex)
    M[0, 1] = 1.0
    M[0, 0] = 1.0
    with pytest.raises(InputError):
        DensityMatrix(M)


def test_density_matrix_non_finite():
    with pytest.raises(NumericError):
        DensityMatrix(np.full((4, 4), np.nan))
