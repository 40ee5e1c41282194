import concurrent.futures
import io
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference
from bellbounds import catalog, kernels, sampling
from bellbounds.errors import InputError, NumericError
from bellbounds.polytope import Inequality
from bellbounds.qops import bell_operator, bell_operators, to_bell_basis
from bellbounds.sampling import eigencurves, sample_params, sweep, write_eigencurves_csv, write_sweep_csv
from bellbounds.spectra import (
    _solve,
    cardano_eigenvalues,
    eigen,
    o33_block_decompose,
    quantum_bound,
)


def analytic_max_22(theta):
    # closed form for the largest eigenvalue along the standard two-setting
    # schedule: (sqrt(1 + sin^2(2 theta)) - 1) / 2
    return (math.sqrt(1.0 + math.sin(2 * theta) ** 2) - 1.0) / 2.0


def assert_near_eigvalsh(lams, M):
    """Each eigencurve cell within 1e-14 ||M||_F of the ascending eigvalsh
    of the 4x4 operator M, or of each operator of a (G, 4, 4) stack."""
    w = np.linalg.eigvalsh(M)
    err = np.abs(np.sort(lams, axis=-1) - w).max(axis=-1)
    bound = 1e-14 * np.linalg.norm(M, axis=(-2, -1))
    assert np.all(err <= bound), float(np.max(err / bound))


class TestDensityFromParams:
    def test_valid_density(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            W = reference.density_from_params(rng.normal(size=16))
            M = W.matrix
            assert abs(np.trace(M).real - 1.0) < 1e-12
            assert np.allclose(M, M.conj().T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(M)) > -1e-12

    def test_single_parameter_gives_pure_state(self):
        # with only one diagonal parameter set, B^2 is rank one
        b = np.zeros(16)
        b[0] = 2.0
        W = reference.density_from_params(b)
        w = np.linalg.eigvalsh(W.matrix)
        assert np.allclose(sorted(w), [0, 0, 0, 1], atol=1e-12)

    def test_scale_invariance(self):
        # the normalization removes the overall scale of the parameters
        b = np.arange(1.0, 17.0)
        W1 = reference.density_from_params(b)
        W2 = reference.density_from_params(3.7 * b)
        assert np.allclose(W1.matrix, W2.matrix, atol=1e-12)


class TestSampling:
    def test_reproducible(self):
        a = sample_params(50, 123)
        b = sample_params(50, 123)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        assert not np.array_equal(sample_params(50, 123), sample_params(50, 124))

    def test_key_extra_changes_stream(self):
        assert not np.array_equal(
            sample_params(50, 123, 0), sample_params(50, 123, 1)
        )

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            sample_params(0, 1)

    def test_states_are_valid(self):
        for W in reference.sample_states(100, 7):
            assert abs(np.trace(W.matrix).real - 1.0) < 1e-12

    def test_moments(self):
        # parameters are standard normal
        x = sample_params(20000, 42).ravel()
        assert abs(float(np.mean(x))) < 0.02
        assert abs(float(np.std(x)) - 1.0) < 0.02


@pytest.fixture(scope="module")
def two_setting_sweep():
    return sweep(
        catalog.ch_inequality(),
        catalog.ch_structure(),
        reference.sweep_schedule_22,
        list(np.linspace(0.0, math.pi, 31)),
        n_samples=200,
        seed=5,
    )


class TestSweep:
    def test_samples_inside_analytic_bounds(self, two_setting_sweep):
        for r in two_setting_sweep:
            assert r.sampled_min >= r.analytic_min - 1e-10
            assert r.sampled_max <= r.analytic_max + 1e-10

    def test_classical_bounds(self, two_setting_sweep):
        for r in two_setting_sweep:
            assert float(r.classical_bounds[0]) == -1.0
            assert float(r.classical_bounds[1]) == 0.0

    def test_reproducible(self):
        kw = dict(n_samples=50, seed=9)
        args = (
            catalog.ch_inequality(),
            catalog.ch_structure(),
            reference.sweep_schedule_22,
            [0.3, 0.7],
        )
        a = sweep(*args, **kw)
        b = sweep(*args, **kw)
        assert [(r.sampled_min, r.sampled_max) for r in a] == [
            (r.sampled_min, r.sampled_max) for r in b
        ]

    def test_zero_samples(self):
        (r,) = sweep(
            catalog.ch_inequality(),
            catalog.ch_structure(),
            reference.sweep_schedule_22,
            [0.5],
            n_samples=0,
            seed=0,
        )
        assert r.sampled_min is None and r.sampled_max is None

    def test_three_setting_peak(self):
        # 61-point symmetric grid over [0, pi] contains the peak at pi/3
        grid = list(np.linspace(0.0, math.pi, 61))
        results = sweep(
            catalog.i33_inequality(),
            catalog.i33_structure(),
            reference.symmetric_angles_33,
            grid,
            n_samples=0,
            seed=0,
        )
        peak = max(r.analytic_max for r in results)
        assert abs(peak - 0.25) < 1e-12
        best = max(results, key=lambda r: r.analytic_max)
        assert abs(best.parameter - math.pi / 3) < 1e-12


    @pytest.mark.parametrize(
        "layout,schedule",
        [
            ("ch", lambda t: {1: 0.0, 2: 2.0 * t, 3: t, 4: 3.0 * t}),
            ("i33", reference.symmetric_angles_33),
        ],
        ids=["ch", "i33"],
    )
    def test_analytic_columns_match_quantum_bound(self, layout, schedule):
        structure, ineq = {
            "ch": (catalog.ch_structure(), catalog.ch_inequality()),
            "i33": (catalog.i33_structure(), catalog.i33_inequality()),
        }[layout]
        grid = list(np.linspace(0.0, math.pi, 101))
        results = sweep(ineq, structure, schedule, grid, n_samples=0, seed=0)
        for r, theta in zip(results, grid):
            qb = quantum_bound(bell_operator(ineq, schedule(theta), structure))
            assert r.analytic_min == qb.lambda_min
            assert r.analytic_max == qb.lambda_max

    def test_bad_eigensolve_is_numeric_error(self, monkeypatch):
        good = kernels.eigh

        def perturbed(H):
            w, V = good(H)
            return w, V + 1e-3

        monkeypatch.setattr(kernels, "eigh", perturbed)
        with pytest.raises(NumericError):
            sweep(
                catalog.ch_inequality(),
                catalog.ch_structure(),
                lambda t: {1: 0.0, 2: 2.0 * t, 3: t, 4: 3.0 * t},
                [0.0, 0.5, 1.0],
                n_samples=0,
                seed=0,
            )


SAMPLED_LAYOUTS = {
    "ch": (catalog.ch_structure(), catalog.ch_inequality(), reference.sweep_schedule_22),
    "i33": (catalog.i33_structure(), catalog.i33_inequality(), reference.symmetric_angles_33),
}


def sampled_sweep(layout, n_points, n_samples, seed=11):
    structure, ineq, schedule = SAMPLED_LAYOUTS[layout]
    grid = list(np.linspace(0.1, 3.0, n_points))
    return sweep(ineq, structure, schedule, grid, n_samples, seed)


def as_bytes(results):
    return [np.float64([r.sampled_min, r.sampled_max]).tobytes() for r in results]


class TestPooledDraws:
    """The drawing threads and their buffers change no sampled value."""

    @pytest.mark.parametrize("n_samples", [1, 7, 3000])
    @pytest.mark.parametrize("n_points", [1, 2, 101])
    @pytest.mark.parametrize("layout", ["ch", "i33"])
    def test_equals_serial_reference(self, layout, n_points, n_samples):
        structure, ineq, schedule = SAMPLED_LAYOUTS[layout]
        results = sampled_sweep(layout, n_points, n_samples)
        want = []
        for g, r in enumerate(results):
            op = bell_operator(ineq, schedule(r.parameter), structure).matrix
            vals = kernels.batch_expectations(sample_params(n_samples, 11, g), op)
            want.append(np.float64([np.min(vals), np.max(vals)]).tobytes())
        assert as_bytes(results) == want

    def test_kernel_blocks_equal_whole_buffer(self):
        # 2 whole kernel blocks and a ragged tail per point, each drawn and
        # run through the kernel on its own: the sampled columns are those of
        # one kernel call on each point's whole draw
        n = 2 * sampling._KERNEL_ROWS + 123
        structure, ineq, schedule = SAMPLED_LAYOUTS["i33"]
        results = sampled_sweep("i33", 3, n)
        want = []
        for g, r in enumerate(results):
            op = bell_operator(ineq, schedule(r.parameter), structure).matrix
            vals = kernels.batch_expectations(sample_params(n, 11, g), op)
            want.append(np.float64([np.min(vals), np.max(vals)]).tobytes())
        assert as_bytes(results) == want

    def test_kernel_blocks_keep_nan_and_signed_zero(self, monkeypatch):
        # on diag(0, -1, 1, 1/2), the rows a e0 + b e1 and a e0 + b e2 with
        # a = 1e150, b = 1e-150 give -b^2/a^2 and +b^2/a^2, which underflow
        # to -0.0 and +0.0; e1 gives -1, e2 gives 1, an all-zero row 0/0 =
        # NaN.  Drawn and run in blocks of 3 and of 16 rows, the rows must
        # give the np.min and np.max of one kernel call on all of them, which
        # picks between +0.0 and -0.0 by its own reduction order
        op = np.diag([0.0, -1.0, 1.0, 0.5]).astype(np.complex128)
        rows = {
            "-0": 1e150 * np.eye(16)[0] + 1e-150 * np.eye(16)[1],
            "+0": 1e150 * np.eye(16)[0] + 1e-150 * np.eye(16)[2],
            "-1": np.eye(16)[1],
            "+1": np.eye(16)[2],
            "nan": np.zeros(16),
        }
        layouts = [
            (3, ["+1", "+0", "+1", "-0", "+1"]),
            (3, ["+1", "-0", "+1", "+1", "+0", "-0", "+1"]),
            (3, ["-1", "+0", "-1", "-1", "-0", "-1", "+0"]),
            (3, ["-0", "-1", "+0", "+1", "nan", "-1"]),
        ]
        rng = np.random.default_rng(5)
        for sign in ("+1", "-1") * 50:
            layouts.append((16, list(rng.choice(["-0", "+0", sign], rng.integers(32, 97)))))

        class CraftedRows:
            """Stands in for a point's generator: fills each block with the
            next of the crafted rows."""

            def __init__(self, params):
                self.params, self.start = params, 0

            def standard_normal(self, out):
                out[:] = self.params[self.start : self.start + len(out)]
                self.start += len(out)
                return out

        with np.errstate(invalid="ignore"):
            for block, layout in layouts:
                monkeypatch.setattr(sampling, "_KERNEL_ROWS", block)
                params = np.array([rows[k] for k in layout])
                monkeypatch.setattr(sampling, "_rng", lambda seed, g: CraftedRows(params))
                vals = kernels.batch_expectations(params, op)
                want = np.float64([np.min(vals), np.max(vals)]).tobytes()
                (got,) = sampling._sampled_extremes(op[None], [1.0], len(params), 0)
                assert np.float64(got).tobytes() == want

    @pytest.mark.parametrize("cpus", [1, 3, 8])
    def test_independent_of_cpu_count(self, monkeypatch, cpus):
        # more threads than cores, switching often: a buffer refilled
        # before the kernel has read it, or a point drawn twice or never,
        # would change a value
        want = as_bytes(sampled_sweep("ch", 40, 50))
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = as_bytes(sampled_sweep("ch", 40, 50))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("n_samples", [50, 2 * sampling._KERNEL_ROWS + 1])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8, 16])
    def test_pool_size(self, monkeypatch, cpus, n_samples):
        # one drawing thread per usable CPU, the caller's included, as far as
        # there are grid points (9) for them, however many samples a point
        # takes; the pool holds all but the caller
        want = as_bytes(sampled_sweep("ch", 9, n_samples))
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        sizes = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        assert as_bytes(sampled_sweep("ch", 9, n_samples)) == want
        pool = min(cpus, 9) - 1
        assert sizes == ([pool] if pool else [])

    def test_memory_of_one_point(self):
        # 2^18 + 5 samples: a block buffer of 4 MiB, the point's values (2
        # MiB) and one block's kernel temporaries, never the point's whole
        # (n, 16) draw of 32 MiB
        tracemalloc.start()
        try:
            sampled_sweep("ch", 1, 2**18 + 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_draw_failure_stops_every_thread(self, monkeypatch):
        # a failing draw empties the shared points, so no other thread starts
        # more than the point it holds; repeated, because the failing draw
        # lands on the calling thread or on a pool thread by chance
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        rng = sampling._rng
        started = []

        def failing_rng(seed, g):
            started.append(g)
            if g == 5:
                raise NumericError("draw failed")
            return rng(seed, g)

        monkeypatch.setattr(sampling, "_rng", failing_rng)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                started.clear()
                with pytest.raises(NumericError, match="draw failed"):
                    sampled_sweep("ch", 40, 50)
                assert len(started) <= 8, sorted(started)
        finally:
            sys.setswitchinterval(interval)

    def test_stalled_draw_failure_stops_every_thread(self, monkeypatch):
        # the failing draw holds its thread for 20 ms before it raises, as a
        # descheduled thread would be held: meanwhile no other thread takes
        # a point after it, so only points 0 to 5 ever start
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        rng = sampling._rng
        started = []

        def failing_rng(seed, g):
            started.append(g)
            if g == 5:
                time.sleep(0.02)
                raise NumericError("draw failed")
            return rng(seed, g)

        monkeypatch.setattr(sampling, "_rng", failing_rng)
        for _ in range(5):
            started.clear()
            with pytest.raises(NumericError, match="draw failed"):
                sampled_sweep("ch", 40, 50)
            assert sorted(started) == list(range(6))

    def test_no_thread_left_running(self, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        sampled_sweep("ch", 5, 20)
        assert threading.active_count() == before

    def test_kernel_failure_leaves_no_thread(self, monkeypatch):
        def failing(params, op):
            raise NumericError("kernel failed")

        monkeypatch.setattr(kernels, "batch_expectations", failing)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        with pytest.raises(NumericError, match="kernel failed"):
            sampled_sweep("ch", 5, 20)
        assert threading.active_count() == before

    def test_draw_failure_leaves_no_thread(self, monkeypatch):
        # whichever thread draws point 5 fails, the pool thread or this one
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        rng = sampling._rng

        def failing_rng(seed, g):
            if g == 5:
                raise NumericError("draw failed")
            return rng(seed, g)

        monkeypatch.setattr(sampling, "_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(NumericError, match="draw failed"):
            sampled_sweep("ch", 40, 50)
        assert threading.active_count() == before

    def test_zero_samples_start_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep without samples started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        (r,) = sampled_sweep("ch", 1, 0)
        assert r.sampled_min is None

    @pytest.mark.parametrize("count,cpus", [(3, 3), (None, 1)])
    def test_cpus_without_affinity_call(self, monkeypatch, count, cpus):
        monkeypatch.delattr(sampling.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: count)
        assert sampling._usable_cpus() == cpus


class TestPureStatePolish:
    def test_closes_gap_two_setting(self):
        O = bell_operator(
            catalog.ch_inequality(),
            reference.sweep_schedule_22(math.pi / 4),
            catalog.ch_structure(),
        )
        qb = quantum_bound(O)
        W = next(reference.sample_states(1, 11))
        val, psi = reference.pure_state_polish(O, W)
        assert abs(val - qb.lambda_max) < 1e-9
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_monotone_improvement(self):
        O = reference.chsh_operator(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        for W in reference.sample_states(20, 13):
            start = float(np.real(np.trace(W.matrix @ O.matrix)))
            val, _ = reference.pure_state_polish(O, W)
            assert val >= start - 1e-12
            assert abs(val - 2 * math.sqrt(2)) < 1e-8

    def test_three_setting(self):
        O = bell_operator(
            catalog.i33_inequality(),
            reference.symmetric_angles_33(math.pi / 3),
            catalog.i33_structure(),
        )
        val, _ = reference.pure_state_polish(O, next(reference.sample_states(1, 17)))
        assert abs(val - 0.25) < 1e-9

    def test_start_orthogonal_to_the_state(self):
        # the singlet W sends the uniform start vector to 0; the ascent then
        # starts from the uniform vector itself
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        W = reference.DensityMatrix(np.outer(singlet, singlet))
        O = bell_operator(
            catalog.ch_inequality(),
            {1: 0.0, 2: math.pi / 2, 3: math.pi / 4, 4: 3 * math.pi / 4},
            catalog.ch_structure(),
        )
        val, psi = reference.pure_state_polish(O, W)
        assert abs(val - quantum_bound(O).lambda_max) < 1e-9
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


class TestEigencurves:
    def test_matches_full_spectrum(self):
        curves = eigencurves(
            catalog.i33_inequality(),
            catalog.i33_structure(),
            reference.symmetric_angles_33,
            [0.9],
        )
        _, lams = curves[0]
        O = bell_operator(
            catalog.i33_inequality(),
            reference.symmetric_angles_33(0.9),
            catalog.i33_structure(),
        )
        assert np.allclose(sorted(lams), np.linalg.eigvalsh(O.matrix), atol=1e-10)

    def test_two_setting_sorted_spectrum(self):
        # the operator splits in the Bell basis at theta = 0, pi/4, 3pi/4 and
        # pi but not in between, so no row of this grid takes the Cardano route
        grid = [float(t) for t in np.linspace(0.0, math.pi, 5)] + [0.6]
        curves = eigencurves(
            catalog.ch_inequality(),
            catalog.ch_structure(),
            reference.sweep_schedule_22,
            grid,
        )
        for _, lams in curves:
            assert lams == sorted(lams)

    def test_stacked_route_matches_per_point_eigen(self):
        grid = [float(t) for t in np.linspace(0.0, 2 * math.pi, 201)]
        ineq, structure = catalog.ch_inequality(), catalog.ch_structure()
        curves = eigencurves(ineq, structure, reference.sweep_schedule_22, grid)
        for theta, lams in curves:
            O = bell_operator(ineq, reference.sweep_schedule_22(theta), structure)
            assert lams == eigen(O.matrix).eigenvalues.tolist()

    @pytest.mark.parametrize("k", [0, -60, 40, 1010])
    def test_array_route_matches_object_route(self, k):
        # against the BellOperator route: build, Bell basis and block split on
        # one operator per point, with Cardano roots as the independent check;
        # compared in units of 2^k, which is exact
        ineq = Inequality(
            {key: c * Fraction(2) ** k for key, c in catalog.i33_inequality().coeffs.items()}
        )
        structure, schedule = catalog.i33_structure(), reference.symmetric_angles_33
        grid = np.linspace(0.0, 2 * math.pi, 2001).tolist()
        curves = eigencurves(ineq, structure, schedule, grid)
        assert len(curves) == len(grid)
        separated = 0
        for theta, (got_theta, lams) in zip(grid, curves):
            O = bell_operator(ineq, schedule(theta), structure)
            o1, o3 = o33_block_decompose(to_bell_basis(O))
            assert got_theta == theta and lams[0] == o1
            roots = np.ldexp(lams[1:], -k)
            cardano = np.ldexp(cardano_eigenvalues(o3), -k)
            # Cardano loses digits where two roots nearly meet
            if np.diff(np.sort(cardano)).min() > 1e-3:
                separated += 1
                assert np.max(np.abs(roots - cardano)) <= 1e-9
            assert_near_eigvalsh(np.ldexp(lams, -k), np.ldexp(O.matrix.real, -k))
        assert separated > 1900

    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(np.linspace(math.pi - 1e-3, math.pi + 1e-3, 2001), id="near-pi"),
            pytest.param(np.linspace(0.0, 2 * math.pi, 20001), id="0:2pi:20001",
                         marks=pytest.mark.slow),
        ],
    )
    def test_block_roots_near_double_root(self, grid):
        # near theta = pi two block roots meet at -2, where Cardano's roots
        # drift up to 1.4e-8; the block solve stays within 1e-14 ||O||_F
        ineq, structure = catalog.i33_inequality(), catalog.i33_structure()
        schedule = reference.symmetric_angles_33
        curves = eigencurves(ineq, structure, schedule, grid.tolist())
        lams = np.array([row for _, row in curves])
        assert lams.shape == (len(grid), 4)
        # block columns in Cardano's order: smallest, largest, middle
        assert np.all(lams[:, 1] <= lams[:, 3]) and np.all(lams[:, 3] <= lams[:, 2])
        ops = bell_operators(ineq, {e: [schedule(t)[e] for t in grid] for e in schedule(0.0)}, structure)
        assert_near_eigvalsh(lams, ops)

    def test_last_point_not_splitting(self):
        # the CH schedule splits in the Bell basis at 0, pi/4, 3pi/4 and pi
        # but not at 0.6: the last point turns every row ascending
        ineq, structure = catalog.ch_inequality(), catalog.ch_structure()
        schedule = reference.sweep_schedule_22
        grid = [0.0, math.pi / 4, 3 * math.pi / 4, math.pi, 0.6]
        for theta in grid[:-1]:
            o33_block_decompose(to_bell_basis(bell_operator(ineq, schedule(theta), structure)))
        curves = eigencurves(ineq, structure, schedule, grid)
        ops = bell_operators(ineq, {e: [schedule(t)[e] for t in grid] for e in schedule(0.0)}, structure)
        assert [theta for theta, _ in curves] == grid
        assert [lams for _, lams in curves] == _solve(ops)[0].tolist()
        assert all(lams == sorted(lams) for _, lams in curves)

    def test_refused_build_builds_one_point(self, monkeypatch):
        # a coefficient past the float range is refused by the first point's
        # build, before any other point or the whole grid is built
        calls = []

        def spy(ineq, angles, structure):
            calls.append(len(next(iter(angles.values()))))
            return bell_operators(ineq, angles, structure)

        monkeypatch.setattr(sampling, "bell_operators", spy)
        ineq = Inequality({**catalog.i33_inequality().coeffs, (1, 4): Fraction(10) ** 400})
        grid = np.linspace(0.0, math.pi, 1001).tolist()
        with pytest.raises(InputError, match="too large for a float"):
            eigencurves(ineq, catalog.i33_structure(), reference.symmetric_angles_33, grid)
        assert calls == [1]


class TestCsvOutput:
    def test_sweep_schema(self):
        results = sweep(
            catalog.ch_inequality(),
            catalog.ch_structure(),
            reference.sweep_schedule_22,
            [0.25, 0.5],
            n_samples=10,
            seed=3,
        )
        buf = io.StringIO()
        write_sweep_csv(results, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "theta,analytic_min,analytic_max,sampled_min,sampled_max,"
            "classical_min,classical_max,n_samples,seed"
        )
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 0.25
        assert row[7] == "10" and row[8] == "3"

    def test_none_becomes_empty_field(self):
        results = sweep(
            catalog.ch_inequality(),
            catalog.ch_structure(),
            reference.sweep_schedule_22,
            [0.25],
            n_samples=0,
            seed=0,
        )
        buf = io.StringIO()
        write_sweep_csv(results, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert row[3] == "" and row[4] == ""

    def test_eigencurves_schema(self):
        curves = eigencurves(
            catalog.i33_inequality(),
            catalog.i33_structure(),
            reference.symmetric_angles_33,
            [0.4, 0.8],
        )
        buf = io.StringIO()
        write_eigencurves_csv(curves, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "theta,lambda1,lambda2,lambda3,lambda4"
        assert len(lines) == 3
