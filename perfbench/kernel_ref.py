"""Reference timings of the kernels at the sizes benchmarks/bench_kernels.py uses.

Run from the repository root:

    python3 perfbench/kernel_ref.py

Times ``bellbounds.kernels.eigh`` on 200 random Hermitian matrices at 4x4
and at 16x16, and ``bellbounds.kernels.batch_expectations`` on 1e4 and 1e5
parameter rows, on whichever backend ``bellbounds.kernels`` selected, and
prints the best of five repetitions (three for the slow 16x16 case) with the
environment.
"""

from __future__ import annotations

import math
import sys
import time

from run import load_program


def best_of(fn, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    load_program()
    import numpy as np

    from bellbounds import kernels
    from workloads import environment

    rng = np.random.default_rng(0)
    rows = []
    for n, repeat in ((4, 5), (16, 3)):
        mats = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(200)]
        mats = [M + M.conj().T for M in mats]
        rows.append((f"eigh {n}x{n}, 200 matrices", best_of(lambda: [kernels.eigh(H) for H in mats], repeat)))
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = op + op.conj().T
    for size in (10_000, 100_000):
        params = rng.normal(size=(size, 16))
        rows.append((f"batch_expectations, {size} rows",
                     best_of(lambda: kernels.batch_expectations(params, op), 5)))
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for name, seconds in rows:
        print(f"{name:<34} {seconds:10.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
