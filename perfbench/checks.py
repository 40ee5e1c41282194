"""Output checks computed apart from bellbounds.

Nothing here imports the package.  The checks read the same JSON inputs the
program received and recompute what the outputs must be: the truth-table
vertices and every facet's tight set with numpy integers, the polytope's
symmetries acting on the facet list, each Bell operator built from
P(theta) = (1 + cos(theta) Z + sin(theta) X) / 2 and diagonalised by
``numpy.linalg.eigvalsh``, and sha256 digests with hashlib.  Every check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class Layout:
    """An event structure as read from its JSON input file."""

    def __init__(self, doc: dict):
        self.n_single = int(doc["n_single"])
        self.sides = [[int(e) for e in side] for side in doc["sides"]]
        self.joints = [tuple(sorted((int(i), int(j)))) for i, j in doc["joints"]]
        self.keys = list(range(1, self.n_single + 1)) + self.joints
        self.index = {k: n for n, k in enumerate(self.keys)}
        self.side_of = {e: s for s, side in enumerate(self.sides) for e in side}
        rows = []
        for bits in product((0, 1), repeat=self.n_single):
            rows.append(list(bits) + [bits[i - 1] * bits[j - 1] for i, j in self.joints])
        self.vertices = np.array(rows, dtype=np.int64)


def term_key(text: str):
    if "," in text:
        i, j = text.split(",")
        return tuple(sorted((int(i), int(j))))
    return int(text)


def parse_inequality(doc: dict):
    """(coefficients by term key, lower, upper) as Fractions."""
    coeffs = {term_key(k): Fraction(v) for k, v in doc["coeffs"].items()}
    lower = None if doc.get("lower") is None else Fraction(doc["lower"])
    upper = None if doc.get("upper") is None else Fraction(doc["upper"])
    return coeffs, lower, upper


def classical_range(layout: Layout, ineq_doc: dict) -> tuple[Fraction, Fraction]:
    """Exact min and max of the linear form over the truth-table vertices."""
    coeffs, _, _ = parse_inequality(ineq_doc)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    a = np.zeros(len(layout.keys), dtype=np.int64)
    for k, c in coeffs.items():
        a[layout.index[k]] = int(c * den)
    values = layout.vertices @ a
    return Fraction(int(values.min()), den), Fraction(int(values.max()), den)


# ---------------------------------------------------------------- hull


def _homogeneous(layout: Layout, facet: dict) -> list[tuple[int, ...]]:
    """Rows (h0, a) with h0 + a.x >= 0, one per finite bound."""
    coeffs, lower, upper = parse_inequality(facet)
    a = [0] * len(layout.keys)
    for k, c in coeffs.items():
        if c.denominator != 1:
            raise ValueError(f"non-integer facet coefficient {c}")
        a[layout.index[k]] = int(c)
    rows = []
    for bound, sign in ((lower, 1), (upper, -1)):
        if bound is not None:
            if bound.denominator != 1:
                raise ValueError(f"non-integer facet bound {bound}")
            rows.append(tuple([-sign * int(bound)] + [sign * x for x in a]))
    return rows


def _primitive(h) -> tuple[int, ...]:
    g = math.gcd(*h)
    return tuple(x // g for x in h) if g > 1 else tuple(h)


def symmetry_generators(layout: Layout):
    """Maps on homogeneous rows generating the polytope's symmetry group:
    relabelling settings within a side, swapping the parties (equal sides),
    and the flip t_e -> 1 - t_e of the first event (p_ej -> p_j - p_ej)."""
    perms = []
    for side in layout.sides:
        for a, b in zip(side, side[1:]):
            perms.append({a: b, b: a})
    left, right = layout.sides
    if len(left) == len(right):
        swap = dict(zip(left, right))
        swap.update(zip(right, left))
        perms.append(swap)
    joints = set(layout.joints)
    gens = []
    for perm in perms:
        def image(k, perm=perm):
            if isinstance(k, int):
                return perm.get(k, k)
            return tuple(sorted(perm.get(e, e) for e in k))
        if {image(j) for j in layout.joints} != joints:
            continue
        target = [1 + layout.index[image(k)] for k in layout.keys]

        def apply(h, target=target):
            out = [0] * len(h)
            out[0] = h[0]
            for pos, t in enumerate(target, start=1):
                out[t] = h[pos]
            return tuple(out)
        gens.append(apply)

    e = left[0]

    def flip(h):
        out = list(h)
        ie = 1 + layout.index[e]
        out[0] += h[ie]
        out[ie] = -h[ie]
        for j in layout.joints:
            if e in j:
                other = j[0] if j[1] == e else j[1]
                ij = 1 + layout.index[j]
                out[ij] = -h[ij]
                out[1 + layout.index[other]] += h[ij]
        return tuple(out)
    gens.append(flip)
    return gens


class HullCheck:
    """Facet list of ``polytope facets``: count, validity, tightness, symmetry."""

    def __init__(self, layout: Layout, expected_count: int):
        self.layout = layout
        self.expected = expected_count
        self.tight: dict[str, int] = {}  # facet JSON text -> tight vertex count

    def check(self, doc: dict) -> list[str]:
        lay = self.layout
        facets = doc.get("facets", [])
        problems = []
        if doc.get("count") != len(facets) or len(facets) != self.expected:
            problems.append(
                f"expected {self.expected} facets, got count={doc.get('count')} "
                f"with {len(facets)} listed"
            )
        try:
            rows = [_homogeneous(lay, f) for f in facets]
        except (KeyError, ValueError) as exc:
            return problems + [f"unreadable facet: {exc}"]
        flat = [_primitive(h) for r in rows for h in r]
        if len(set(flat)) != len(flat):
            problems.append("facet list has duplicates")
        H = np.array(flat, dtype=np.int64).reshape(len(flat), 1 + len(lay.keys))
        hom = np.hstack([np.ones((len(lay.vertices), 1), dtype=np.int64), lay.vertices])
        values = H @ hom.T
        bad = np.nonzero((values < 0).any(axis=1))[0]
        if len(bad):
            problems.append(f"{len(bad)} facets violated by a vertex, first {flat[bad[0]]}")
        dim = np.linalg.matrix_rank(lay.vertices[1:] - lay.vertices[0])
        if dim != len(lay.keys):
            problems.append(f"vertices span dimension {dim}, not {len(lay.keys)}")
        for n, h in enumerate(flat):
            tight = lay.vertices[values[n] == 0]
            rank = np.linalg.matrix_rank(tight[1:] - tight[0]) if len(tight) > 1 else 0
            if rank != dim - 1:
                problems.append(f"facet {h} has tight affine rank {rank}, not {dim - 1}")
                break
        members = set(flat)
        for g in symmetry_generators(lay):
            missing = [h for h in flat if _primitive(g(h)) not in members]
            if missing:
                problems.append(f"facet set not closed under a symmetry: {missing[0]}")
                break
        if not problems:
            start = 0
            for f, row in zip(facets, rows):
                tight = int((values[start:start + len(row)] == 0).sum())
                self.tight[json.dumps(f, sort_keys=True)] = tight
                start += len(row)
        return problems

    def check_verify(self, facet: dict, output: str) -> list[str]:
        """``polytope verify`` on a listed facet: valid, facet, tight count."""
        try:
            doc = json.loads(output)
        except json.JSONDecodeError as exc:
            return [f"verify output is not JSON: {exc}"]
        expected = self.tight.get(json.dumps(facet, sort_keys=True))
        problems = []
        if doc.get("valid") is not True or doc.get("witness") is not None:
            problems.append(f"verify says invalid: {doc}")
        if doc.get("is_facet") is not True:
            problems.append(f"verify says not a facet: {doc}")
        if expected is None or doc.get("tight_count") != expected:
            problems.append(f"tight_count {doc.get('tight_count')}, expected {expected}")
        return problems


# ---------------------------------------------------------------- operators


def projectors(theta: np.ndarray) -> np.ndarray:
    """P(theta) = (1 + cos(theta) Z + sin(theta) X) / 2, stacked over theta."""
    c = np.cos(theta)[:, None, None]
    s = np.sin(theta)[:, None, None]
    return (_I2 + c * _Z + s * _X) / 2.0


def operators(layout: Layout, ineq_doc: dict, angles: dict[int, np.ndarray]) -> np.ndarray:
    """Stacked 4x4 Bell operators: singles act on their side, joints as
    left-projector x right-projector, weighted by the inequality."""
    coeffs, _, _ = parse_inequality(ineq_doc)
    n = len(next(iter(angles.values())))
    P = {e: projectors(np.asarray(t, dtype=np.float64)) for e, t in angles.items()}
    eye = np.broadcast_to(_I2, (n, 2, 2))
    O = np.zeros((n, 4, 4))
    for k, c in coeffs.items():
        if isinstance(k, int):
            left, right = (P[k], eye) if layout.side_of[k] == 0 else (eye, P[k])
        else:
            i, j = k if layout.side_of[k[0]] == 0 else (k[1], k[0])
            left, right = P[i], P[j]
        O += float(c) * np.einsum("nab,ncd->nacbd", left, right).reshape(n, 4, 4)
    return O


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


# ---------------------------------------------------------------- sweeps

SWEEP_HEADER = [
    "theta", "analytic_min", "analytic_max", "sampled_min", "sampled_max",
    "classical_min", "classical_max", "n_samples", "seed",
]


def check_sweep(
    csv_bytes: bytes, manifest: dict, grid: np.ndarray, samples: int, seed: int,
    classical: tuple[Fraction, Fraction],
) -> list[str]:
    """CH sweep under the schedule 1=0, 2=2t, 3=t, 4=3t, where the extreme
    eigenvalues are (+-sqrt(1 + sin^2 2t) - 1) / 2."""
    problems = []
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if manifest.get("output_sha256") != digest:
        problems.append(f"manifest sha256 {manifest.get('output_sha256')} != csv sha256 {digest}")
    if manifest.get("samples") != samples or manifest.get("seed") != seed:
        problems.append("manifest samples/seed differ from the command")
    header, rows = _read_csv(csv_bytes.decode())
    if header != SWEEP_HEADER or len(rows) != len(grid):
        return problems + [f"expected {len(grid)} rows under {SWEEP_HEADER}, got {len(rows)} under {header}"]
    try:
        vals = np.array([[float(x) for x in r[:7]] for r in rows])
        counts = {(int(r[7]), int(r[8])) for r in rows}
    except ValueError as exc:
        return problems + [f"unreadable sweep row: {exc}"]
    theta, amin, amax, smin, smax, cmin, cmax = vals.T
    root = np.sqrt(1.0 + np.sin(2.0 * grid) ** 2)
    if np.max(np.abs(theta - grid)) > 1e-10:
        problems.append("theta column is not the requested grid")
    if np.max(np.abs(amax - (root - 1.0) / 2.0)) > 1e-10:
        problems.append(f"analytic_max off the closed form by {np.max(np.abs(amax - (root - 1.0) / 2.0)):.3g}")
    if np.max(np.abs(amin - (-root - 1.0) / 2.0)) > 1e-10:
        problems.append(f"analytic_min off the closed form by {np.max(np.abs(amin - (-root - 1.0) / 2.0)):.3g}")
    if np.any(smax > amax + 1e-9) or np.any(smin < amin - 1e-9) or np.any(smin > smax):
        problems.append("a sampled value lies outside [analytic_min, analytic_max]")
    if np.any(cmin != float(classical[0])) or np.any(cmax != float(classical[1])):
        problems.append(f"classical columns differ from {classical}")
    if counts != {(samples, seed)}:
        problems.append(f"n_samples/seed columns {counts} differ from ({samples}, {seed})")
    return problems


def check_curves(
    text: str, layout: Layout, ineq_doc: dict, schedule: dict[int, tuple[float, float]],
    grid: np.ndarray,
) -> list[str]:
    """Eigencurves: lambda1 = -sin^2(theta) and each sorted row equal to the
    eigenvalues of the independently built operator, both to 1e-9."""
    header, rows = _read_csv(text)
    if header != ["theta", "lambda1", "lambda2", "lambda3", "lambda4"] or len(rows) != len(grid):
        return [f"expected {len(grid)} eigencurve rows, got {len(rows)} under {header}"]
    try:
        vals = np.array([[float(x) for x in r] for r in rows])
    except ValueError as exc:
        return [f"unreadable eigencurve row: {exc}"]
    problems = []
    if np.max(np.abs(vals[:, 0] - grid)) > 1e-10:
        problems.append("theta column is not the requested grid")
    dev = np.max(np.abs(vals[:, 1] + np.sin(grid) ** 2))
    if dev > 1e-9:
        problems.append(f"lambda1 differs from -sin^2(theta) by {dev:.3g}")
    angles = {e: m * grid + c for e, (m, c) in schedule.items()}
    w = np.linalg.eigvalsh(operators(layout, ineq_doc, angles))
    dev = np.max(np.abs(np.sort(vals[:, 1:], axis=1) - w))
    if dev > 1e-9:
        problems.append(f"sorted eigencurve row differs from eigvalsh by {dev:.3g}")
    return problems


# ---------------------------------------------------------------- bound


def parse_bound(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        out[key.strip()] = value.strip()
    return out


def check_bounds(
    texts: list[str], layout: Layout, ineq_doc: dict, angles: np.ndarray,
    classical: tuple[Fraction, Fraction], maximally_entangled: bool,
) -> list[str]:
    """``bound`` outputs, one per row of ``angles`` (events 1..n in order),
    against eigvalsh, the vertex range, and the entanglement of numpy's top
    eigenvector."""
    if not texts:
        return []
    O = operators(layout, ineq_doc, {e: angles[:, e - 1] for e in range(1, angles.shape[1] + 1)})
    W, Vs = np.linalg.eigh(O)
    problems = []
    for text, w, V in zip(texts, W, Vs):
        fields = parse_bound(text)
        try:
            lo, hi = (float(x) for x in fields["classical range"].strip("[]").split(","))
            lam_min = float(fields["lambda_min"])
            lam_max = float(fields["lambda_max"])
            norm = float(fields["operator norm"])
            ent = float(fields["entanglement"])
        except (KeyError, ValueError) as exc:
            problems.append(f"unreadable bound output ({exc}): {text!r}")
            continue
        if (lo, hi) != (float(classical[0]), float(classical[1])):
            problems.append(f"classical range [{lo}, {hi}] differs from {classical}")
        if abs(lam_min - w[0]) > 1e-9 or abs(lam_max - w[-1]) > 1e-9:
            problems.append(f"lambda range [{lam_min}, {lam_max}] differs from eigvalsh [{w[0]}, {w[-1]}]")
        if abs(norm - max(abs(w[0]), abs(w[-1]))) > 1e-9:
            problems.append(f"operator norm {norm} differs from {max(abs(w[0]), abs(w[-1]))}")
        if maximally_entangled:
            if abs(ent - 1.0) > 1e-9:
                problems.append(f"argmax entanglement {ent}, expected 1")
        elif w[-1] - w[-2] > 1e-6:
            a = V[:, -1]
            expected = 2.0 * abs(a[0] * a[3] - a[1] * a[2])
            if abs(ent - expected) > 1e-9:
                problems.append(f"argmax entanglement {ent}, top eigenvector gives {expected}")
    return problems
