"""Show that each workload's checker passes real output and rejects corrupted output.

Run from the repository root:

    python3 perfbench/selftest.py

Each workload runs one round at reduced size (the CH hull with four oracle
calls, 21-point sweeps, one CH and one three-setting query).  Its unmodified output must pass its
``check()``, and each corruption below, applied to a fresh round's output,
must make ``check()`` report a problem.  Exits 1 otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys

from run import ROOT, load_program, remove_workdir


def _edit_csv(data: bytes, row: int, column: str, delta: float) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index(column)
    rows[row][col] = format(float(rows[row][col]) + delta, ".12g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def drop_facet(w):
    doc = json.loads(w.facets_bytes[0])
    doc.update(facets=doc["facets"][:-1], count=doc["count"] - 1)
    w.facets_bytes = [json.dumps(doc).encode()]


def flip_facet_sign(w):
    """Negate one coefficient of one facet: one wrong term in an otherwise
    plausible inequality, the kind of error of the printed CH variant."""
    doc = json.loads(w.facets_bytes[0])
    coeffs = doc["facets"][0]["coeffs"]
    key = next(iter(coeffs))
    coeffs[key] = -coeffs[key]
    w.facets_bytes = [json.dumps(doc).encode()]


def verify_not_facet(w):
    k, out = w.verified[0]
    w.verified[0] = (k, json.dumps(dict(json.loads(out), is_facet=False)))


def sampled_above_max(w):
    """Lift one sampled_max 1e-6 above analytic_max, with a matching digest."""
    data, manifest = w.outputs[0]
    header, *rows = list(csv.reader(io.StringIO(data.decode())))
    row = rows[4]
    gap = float(row[header.index("analytic_max")]) - float(row[header.index("sampled_max")])
    bad = _edit_csv(data, 5, "sampled_max", gap + 1e-6)
    w.outputs = [(bad, dict(manifest, output_sha256=hashlib.sha256(bad).hexdigest()))]


def wrong_digest(w):
    data, manifest = w.outputs[0]
    digest = manifest["output_sha256"]
    w.outputs = [(data, dict(manifest, output_sha256=("1" if digest[0] == "0" else "0") + digest[1:]))]


def move_curve_value(w):
    w.outputs = [_edit_csv(w.outputs[0], 7, "lambda3", 1e-6)]


def wrong_lambda_max(w):
    name, angles, out = w.answers[1]
    lines = out.splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith("lambda_max"))
    lines[k] = f"lambda_max        {float(lines[k].split()[-1]) + 1e-6:.12g}"
    w.answers[1] = (name, angles, "\n".join(lines) + "\n")


def main() -> int:
    load_program()
    import workloads

    small = (
        ("hull", lambda d: workloads.Hull(d, 1, layout="ch", expected=24, per_round=4),
         [("one facet dropped", drop_facet), ("one facet sign flipped", flip_facet_sign),
          ("verify reports not a facet", verify_not_facet)]),
        ("sweep", lambda d: workloads.Sweep(d, 1, points=21, samples=200),
         [("sampled_max above analytic_max", sampled_above_max),
          ("manifest sha256 mismatch", wrong_digest)]),
        ("eigencurves", lambda d: workloads.Eigencurves(d, 1, points=21),
         [("one eigencurve value moved by 1e-6", move_curve_value)]),
        ("bound", lambda d: workloads.BoundQueries(d, 1),
         [("wrong lambda_max line", wrong_lambda_max)]),
    )
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    bad = runs = 0
    try:
        for name, make, cases in small:
            for label, corrupt in [("unmodified", None)] + cases:
                runs += 1
                d = workdir / str(runs)
                d.mkdir(parents=True)
                w = make(d)
                runner = workloads.Runner()
                w.round(runner)
                if corrupt is not None:
                    corrupt(w)
                problems = runner.errors + w.check()
                ok = (not problems) if corrupt is None else bool(problems) and not runner.errors
                verdict = f"rejected: {problems[0]}" if problems else "passes"
                print(f"{'ok  ' if ok else 'FAIL'} {name}: {label} -> {verdict}")
                bad += not ok
    finally:
        remove_workdir(workdir)
    print(f"self-test {'passed' if not bad else f'FAILED in {bad} of {runs} cases'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
