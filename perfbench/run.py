"""Time bellbounds end to end on one workload, or all four, and check its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload hull-i33 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One workload runs in this interpreter; ``all`` runs each workload in a fresh
interpreter of its own.  The program is imported from ``src/`` of the
checkout this file sits in.  With ``--trace 0`` the result holds the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  End-to-end times are given at reference machine speed (see
``speed.py``); the raw wall times are printed beside them.  The last line of
standard output is the result as one JSON object; the lines before it say the
same for a reader, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hull-i33", "sweep-ch-sampled", "eigencurves-i33", "bound-queries")
SETUP_PROBES = 6  # set-ups in fresh interpreters, besides this process's own


def load_program() -> None:
    """Import bellbounds from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "bellbounds"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a bellbounds checkout")
    sys.path.insert(0, str(package.parent))
    import bellbounds

    if Path(bellbounds.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported bellbounds from {bellbounds.__file__}, not {package}")


def remove_workdir(workdir: Path) -> None:
    """Delete a run's work directory, and its parent once no run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def timed_setup(name: str, seed: int, workdir: Path):
    """Import bellbounds and write the workload's inputs; return both timed."""
    t0 = time.perf_counter()
    load_program()
    import workloads

    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](workdir, seed)
    return workload, time.perf_counter() - t0


def setup_probe(args, workdir: Path) -> tuple[float, float]:
    """(wall, at reference speed) of a set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, scaled = proc.stdout.split()[-2:]
    return float(wall), float(scaled)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest of p99.9, p99, p90 with at least
    ten samples beyond it; None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
    return None


def measure(workload, runner, seconds: int, tracer=None):
    """Run whole rounds until the next one would end after ``seconds``.

    With a tracer, rounds alternate untraced and traced (at least one each),
    and the command time of each kind of round is kept for the overhead.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    rounds: list[float] = []
    traced = False
    start = time.perf_counter()
    while True:
        if traced:
            tracer.install()
        busy, t0 = runner.busy_s, time.perf_counter()
        workload.round(runner)
        rounds.append(time.perf_counter() - t0)
        walls[traced].append(runner.busy_s - busy)
        if traced:
            tracer.uninstall()
        if tracer is not None:
            traced = not traced
        next_end = time.perf_counter() - start + statistics.median(rounds)
        if next_end > seconds and (tracer is None or all(walls.values())):
            return walls


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup0 = timed_setup(args.workload, args.seed, workdir / "main")
        import speed
        import tracer as tracing
        import workloads

        setups = [(setup0, speed.scale_once(setup0))]
        setups += [setup_probe(args, workdir / f"probe{k}") for k in range(SETUP_PROBES)]
        env = workloads.environment()
        runner = workloads.Runner()
        tracer = tracing.Tracer() if args.trace else None
        # the probe's loops would count as the time of the traced layers
        probe = None if args.trace else speed.SpeedProbe()
        if probe is not None:
            probe.start()
        try:
            walls = measure(workload, runner, args.seconds, tracer)
        finally:
            if probe is not None:
                probe.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check()
    finally:
        remove_workdir(workdir)

    lat = runner.latency
    items = sum(len(lat[k]) for k in workload.item_kinds) * workload.items_per_command
    if tracer is None:
        scaled = {k: [probe.scaled(t0, t1) for t0, t1 in spans] for k, spans in runner.spans.items()}
        values = {
            "setup_s": statistics.median(s for _, s in setups),
            "op_p50_ms": 1000.0 * statistics.median(scaled[workload.op_kind]),
            "items_per_s": items / sum(sum(scaled[k]) for k in workload.item_kinds),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = spec["end_to_end"]
    else:
        traced, untraced = walls[True], walls[False]
        values = tracer.metrics(
            len(traced), statistics.fmean(traced),
            statistics.fmean(traced) - statistics.fmean(untraced),
        )
        listed = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    names = workloads.NAMES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {len(walls[False]) + len(walls[True])}  commands {runner.attempted}  "
          f"failed {runner.failed}  checks {'passed' if not problems else 'FAILED'}")
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if tracer is None:
        op_n = len(lat[workload.op_kind])
        print(f"  = {names['op']} over {op_n} commands; {names['items']} over {items} items")
        loops = [e - s for s, e in zip(probe.starts, probe.ends)]
        print(f"  reference loop p50 {1000 * statistics.median(loops):.4g} ms against "
              f"{1000 * speed.REF_S:.4g} ms (n={len(loops)}); setup_s wall p50 "
              f"{statistics.median(w for w, _ in setups):.4g} s")
        for kind, samples in scaled.items():
            t = tail(samples)
            line = (f"  {kind} latency p50 {1000 * statistics.median(samples):.4g} ms"
                    + (f", p{t[0]:g} {1000 * t[1]:.4g} ms" if t else "")
                    + f" at reference speed; wall p50 {1000 * statistics.median(lat[kind]):.4g} ms")
            print(line + f" (n={len(samples)})")
    for line in (runner.errors + problems)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        env = next(line.split()[1:] for line in lines if line.startswith("env "))
        results[name] = dict(json.loads(lines[-1]), env=dict(kv.split("=", 1) for kv in env))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _, seconds = timed_setup(args.workload, args.seed, Path(args.workdir))
        import speed

        print(repr(seconds), repr(speed.scale_once(seconds)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
