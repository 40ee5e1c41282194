"""Correlation polytopes: truth-table vertices, facet enumeration, facet checks.

Vertices are the 0/1 truth-table rows of single events together with the
products for the selected joint events.  The convex hull of those vertices is
the correlation polytope; its facets are Bell-type inequalities.  Facet
enumeration runs the double description (Motzkin) method over exact integer
arithmetic, so there are no tolerances anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .errors import BudgetError, InputError

TermKey = Union[int, tuple[int, int]]
Vertex = tuple[int, ...]

MAX_SINGLE_EVENTS = 20
MAX_HULL_DIMENSION = 16
MAX_HULL_VERTICES = 128
# positive x negative ray pairs per packed prefilter block in _dd_rays;
# keeps its temporary arrays near 200 KB (32 k pairs left about 0.6 MB more
# heap behind after repeated 3x3 hulls, at no measurable speed difference)
PAIR_BLOCK = 1 << 13
# most recent non-adjacency witnesses kept per DD step in _dd_rays
WITNESSES = 8


@dataclass(frozen=True)
class EventStructure:
    """Event layout: single events, their observer sides and joint pairs."""

    n_single: int
    sides: tuple[tuple[int, ...], ...]
    joints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # a joint may name either event first; it is kept as (smaller, larger)
        object.__setattr__(self, "joints", tuple(map(_norm_key, self.joints)))
        if self.n_single < 1:
            raise InputError("need at least one single event")
        seen = [i for side in self.sides for i in side]
        if len(seen) != self.n_single or sorted(seen) != list(range(1, len(seen) + 1)):
            raise InputError("sides must partition events 1..n_single")
        side_of = self.side_of_event()
        if len(set(self.joints)) != len(self.joints):
            raise InputError("duplicate joint terms")
        for (i, j) in self.joints:
            if not (1 <= i <= self.n_single and 1 <= j <= self.n_single):
                raise InputError(f"joint ({i},{j}) out of range")
            if side_of[i] == side_of[j]:
                raise InputError(f"joint ({i},{j}) pairs events on the same side")

    def side_of_event(self) -> dict[int, int]:
        return {i: s for s, side in enumerate(self.sides) for i in side}

    def term_order(self) -> list[TermKey]:
        """Coordinate order: single events ascending, then joints as stored."""
        return list(range(1, self.n_single + 1)) + list(self.joints)

    @property
    def dimension(self) -> int:
        return self.n_single + len(self.joints)

    def to_json(self) -> dict:
        return {
            "n_single": self.n_single,
            "sides": [list(s) for s in self.sides],
            "joints": [list(j) for j in self.joints],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EventStructure":
        try:
            n_single, sides, joints = obj["n_single"], obj["sides"], obj["joints"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad structure JSON: {exc}") from exc
        # json reads an integer as an int; a bool is an int subclass
        if type(n_single) is not int:
            raise InputError(f"n_single must be a JSON integer, not {type(n_single).__name__}")
        if not _int_arrays(sides):
            raise InputError("sides must be an array of arrays of integers")
        if not _int_arrays(joints) or any(len(j) != 2 for j in joints):
            raise InputError("joints must be an array of two-integer arrays")
        return cls(n_single, tuple(map(tuple, sides)), tuple(map(tuple, joints)))


def _norm_key(k) -> TermKey:
    """A single-event index as is; a joint pair as (smaller, larger)."""
    if isinstance(k, int):
        return k
    i, j = k
    return (i, j) if i < j else (j, i)


def _int_arrays(x) -> bool:
    """True for a JSON array of arrays of integers."""
    return isinstance(x, list) and all(
        isinstance(a, list) and all(type(i) is int for i in a) for a in x
    )


@dataclass
class Inequality:
    """Linear form on (joint) probabilities with classical lower/upper bounds.

    ``coeffs`` maps a single-event index or an ``(i, j)`` joint pair to a
    rational coefficient.  ``lower``/``upper`` of ``None`` mean unbounded.
    """

    coeffs: dict[TermKey, Fraction]
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None

    def __post_init__(self):
        self.coeffs = {
            _norm_key(k): Fraction(v) for k, v in self.coeffs.items() if v
        }
        if not self.coeffs:
            raise InputError("inequality needs at least one nonzero coefficient")
        self.lower = None if self.lower is None else Fraction(self.lower)
        self.upper = None if self.upper is None else Fraction(self.upper)
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise InputError("lower bound exceeds upper bound")

    def check_keys(self, structure: EventStructure):
        valid = set(structure.term_order())
        for k in self.coeffs:
            if k not in valid:
                raise InputError(f"term key {k!r} not present in structure")

    def evaluate(self, vertex: Vertex, structure: EventStructure) -> Fraction:
        return classical_range(self, [vertex], structure)[0]

    def to_json(self) -> dict:
        def key_str(k):
            return str(k) if isinstance(k, int) else f"{k[0]},{k[1]}"

        def frac(v):
            if v is None:
                return None
            return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        return {
            "coeffs": {key_str(k): frac(c) for k, c in self.coeffs.items()},
            "lower": frac(self.lower),
            "upper": frac(self.upper),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Inequality":
        try:
            items = obj["coeffs"]
            if not isinstance(items, dict):
                raise InputError(f"coeffs must be a JSON object, not {type(items).__name__}")
            coeffs = {}
            for ks, v in items.items():
                if "," in ks:
                    i, j = ks.split(",")
                    key: TermKey = (int(i), int(j))
                else:
                    key = int(ks)
                coeffs[key] = Fraction(v)
            lower = obj.get("lower")
            upper = obj.get("upper")
            return cls(
                coeffs,
                None if lower is None else Fraction(lower),
                None if upper is None else Fraction(upper),
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad inequality JSON: {exc}") from exc

    def canonical_key(self, structure: EventStructure):
        """Hashable canonical form used for facet-set comparisons: see
        :func:`_canonical`."""
        vec, lo, up, _ = _integer_form(self, structure)
        return _canonical(vec, lo, up)


def _canonical(vec, lo, up):
    """Canonical form ``(coefficients, lower, upper)`` of lo <= vec.x <= up.

    ``vec`` holds integers and ``lo``/``up`` integers or ``None`` (unbounded).
    The coefficients are divided by their gcd g, the bounds become Fractions
    over g, and when the first nonzero coefficient is negative every
    coefficient changes sign and the bounds swap and change sign.
    """
    g = math.gcd(*vec)
    vec = [v // g for v in vec]
    lo = None if lo is None else Fraction(lo, g)
    up = None if up is None else Fraction(up, g)
    if next(v for v in vec if v) < 0:
        vec = [-v for v in vec]
        lo, up = (None if up is None else -up), (None if lo is None else -lo)
    return (tuple(vec), lo, up)


def _integer_form(ineq: Inequality, structure: EventStructure):
    """``ineq`` as integers over one positive common denominator ``den``.

    Returns ``(vec, lo, up, den)`` with ``vec`` the coefficients in
    ``structure.term_order()`` times ``den``, and ``lo``/``up`` the bounds
    times ``den`` (``None`` where unbounded); ``den`` is the lcm of the
    denominators of all coefficients and bounds.
    """
    ineq.check_keys(structure)
    coeffs = [ineq.coeffs.get(k, Fraction(0)) for k in structure.term_order()]
    bounds = [b for b in (ineq.lower, ineq.upper) if b is not None]
    den = math.lcm(*(c.denominator for c in coeffs + bounds))

    def scale(x):
        return None if x is None else x.numerator * (den // x.denominator)

    return [scale(c) for c in coeffs], scale(ineq.lower), scale(ineq.upper), den


@dataclass
class FacetCheck:
    valid: bool
    tight_count: int
    is_facet: bool
    witness: Optional[Vertex] = None


def enumerate_vertices(structure: EventStructure) -> list[Vertex]:
    """All truth-table rows, in binary counting order on (t_1, ..., t_n)."""
    if structure.n_single > MAX_SINGLE_EVENTS:
        raise BudgetError(
            f"refusing to enumerate 2^{structure.n_single} vertices "
            f"(limit {MAX_SINGLE_EVENTS} single events)"
        )
    verts = []
    for bits in itertools.product((0, 1), repeat=structure.n_single):
        row = list(bits)
        row.extend(bits[i - 1] * bits[j - 1] for i, j in structure.joints)
        verts.append(tuple(row))
    return verts


def _reduce(rows: list[Vertex], limit: int, width: Optional[int] = None):
    """Fraction-free Gauss-Jordan elimination over the integers.

    Rows are taken greedily in order.  Each is cleared against the rows kept
    so far by cross-multiplying, ``v <- b[p]*v - v[p]*b`` for the kept row
    ``b`` with pivot column ``p``, and divided by the gcd of its entries.  A
    row with a nonzero entry left among its first ``width`` columns (all
    columns by default) is kept with the first such entry as pivot, and its
    pivot column is cleared from the rows kept before it.  Stops after
    ``limit`` kept rows.  Returns ``(row index, pivot column, reduced row)``
    for each kept row.
    """
    def clear(v, b, p):
        r = [b[p] * x - v[p] * y for x, y in zip(v, b)]
        g = math.gcd(*r)
        return [x // g for x in r] if g > 1 else r

    kept: list[tuple[int, int, list[int]]] = []
    for k, row in enumerate(rows):
        v = list(row)
        for _, p, b in kept:
            if v[p]:
                v = clear(v, b, p)
        p = next((i for i, x in enumerate(v[:width]) if x), None)
        if p is None:
            continue
        kept = [(i, q, clear(b, v, p) if b[p] else b) for i, q, b in kept]
        kept.append((k, p, v))
        if len(kept) == limit:
            break
    return kept


def affine_rank(points: Iterable[Vertex]) -> int:
    """Dimension of the affine hull of the given points (-1 if empty)."""
    pts = list(points)
    if not pts:
        return -1
    p0 = pts[0]
    rows = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
    return len(_reduce(rows, len(p0)))


def _pack(masks: list[int], words: int):
    """Bitmasks as an (R, words) uint64 array, low word first."""
    data = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), words)


def _dd_rays(vertices: list[Vertex]) -> list[tuple[int, ...]]:
    """Extreme rays (a0, a1..ad) of the dual cone: a0 + a.x >= 0 on conv(V).

    Double description with combinatorial adjacency (Fukuda & Prodon,
    "Double description method revisited", 1996), integer arithmetic
    throughout.  Rows are inserted in the given order, which sets how many
    intermediate rays there are: ``hull_facets`` passes the vertices sorted
    (binary counting order), as a shuffled 3x3 list takes about 15 times as
    long.  Each ray carries the bitmask of the steps (inserted rows) it is
    zero on.  A positive and a negative ray are adjacent iff no other
    current ray's mask contains their common zero set z.

    Each step with negative rays packs the masks of the current rays into
    uint64 words.  It first counts the common zeros of every positive x
    negative pair at once: their words are ANDed and ``np.bitwise_count``
    counts the bits, ``PAIR_BLOCK`` pairs at a time.  Only pairs with at
    least dim - 2 common zeros can be adjacent.  Those go to an inverted
    index, rebuilt from the same words at every such step: for each step s
    one Python-int bitset has bit i set when current ray i is zero on s, so
    the rays containing z are the AND of z's bitsets.  The AND takes z's
    newest step first and stops once only the pair itself is left.  Rays
    carry no ids across steps.

    Most candidate pairs are not adjacent, and a ray that proves one pair
    non-adjacent often proves the next.  So each step keeps the indices of
    its last ``WITNESSES`` such rays, newest first, starting empty since
    indices name that step's current rays.  A pair is skipped when a listed
    ray other than its own two is zero on all of z (its own two always
    are).  Only the other pairs run the AND, and when it ends with more than
    the pair, the other ray left with the highest index joins the front of
    the list.  Every adjacency decision, and so the returned list, is the
    same as without the list.
    """
    dim = len(vertices[0]) + 1
    rows: list[Vertex] = [(1,) + v for v in vertices]
    idx = [k for k, _, _ in _reduce(rows, dim)]
    if len(idx) < dim:
        raise InputError(
            "vertex set is not full-dimensional; facet enumeration requires "
            "a full-dimensional polytope"
        )
    # Reducing [B^T | I] for the basis rows B leaves, in the row with pivot
    # p, d*e_p | d*(column p of B^-1); its gcd is 1 since B is integral.
    aug = [
        col + tuple(int(i == j) for j in range(dim))
        for i, col in enumerate(zip(*(rows[k] for k in idx)))
    ]
    rays = [
        tuple(x if r[p] > 0 else -x for x in r[dim:])
        for _, p, r in sorted(_reduce(aug, dim, dim), key=lambda t: t[1])
    ]
    order = idx + [k for k in range(len(rows)) if k not in set(idx)]
    words = -(-len(rows) // 64)
    masks = [((1 << dim) - 1) & ~(1 << j) for j in range(dim)]

    for step in range(dim, len(rows)):
        # the rows are 0/1, so the dot product sums the ray over the support
        mk = rows[order[step]]
        dots = [sum(itertools.compress(r, mk)) for r in rays]
        neg = [i for i, x in enumerate(dots) if x < 0]
        bit = 1 << step
        if not neg:
            masks = [m | bit if dots[i] == 0 else m for i, m in enumerate(masks)]
            continue
        pos = [i for i, x in enumerate(dots) if x > 0]
        zer = [i for i, x in enumerate(dots) if x == 0]
        packed = _pack(masks, words)
        # holders[s] has bit i set when current ray i is zero on step s
        bits = np.unpackbits(packed.view(np.uint8), axis=1, count=step, bitorder="little")
        by_step = np.packbits(bits.T, axis=1, bitorder="little")
        holders = [int.from_bytes(b, "little") for b in by_step.tolist()]
        everyone = (1 << len(rays)) - 1
        witnesses: list[int] = []
        new_rays, new_masks = [], []
        need = dim - 2
        packed_neg = packed[neg][None]
        packed_pos = packed[pos][:, None]
        block = max(1, PAIR_BLOCK // len(neg))
        for start in range(0, len(pos), block):
            counts = np.bitwise_count(
                packed_pos[start : start + block] & packed_neg
            ).sum(axis=2)
            for row, col in np.argwhere(counts >= need).tolist():
                ip, im = pos[start + row], neg[col]
                z = masks[ip] & masks[im]
                # adjacent iff no other current ray's zero set contains z;
                # a recent witness of non-adjacency often contains it
                for w in witnesses:
                    if masks[w] & z == z and w != ip and w != im:
                        break
                else:
                    # ip and im are zero on every step of z, so common keeps pair
                    pair = 1 << ip | 1 << im
                    common, rest = everyone, z
                    while rest and common != pair:
                        top = rest.bit_length() - 1
                        common &= holders[top]
                        rest ^= 1 << top
                    if common != pair:
                        witnesses.insert(0, (common & ~pair).bit_length() - 1)
                        del witnesses[WITNESSES:]
                        continue
                    r = tuple(
                        dots[ip] * a - dots[im] * b
                        for a, b in zip(rays[im], rays[ip])
                    )
                    g = math.gcd(*r)
                    if g > 1:
                        r = tuple(x // g for x in r)
                    new_rays.append(r)
                    new_masks.append(z | bit)
        keep = pos + zer
        rays = [rays[i] for i in keep] + new_rays
        masks = [masks[i] | bit if dots[i] == 0 else masks[i] for i in keep] + new_masks
    return rays


def check_hull_budget(dim: int, n_vertices: int) -> None:
    """Raise ``BudgetError`` for a hull above ``MAX_HULL_DIMENSION`` or ``MAX_HULL_VERTICES``."""
    if dim > MAX_HULL_DIMENSION or n_vertices > MAX_HULL_VERTICES:
        raise BudgetError(
            f"hull budget exceeded: dim {dim} (max {MAX_HULL_DIMENSION}), "
            f"{n_vertices} vertices (max {MAX_HULL_VERTICES})"
        )


def hull_facets(
    vertices: list[Vertex], structure: EventStructure
) -> list[Inequality]:
    """Complete irredundant facet list of conv(vertices), exact arithmetic.

    Each facet comes back canonicalized: coprime integer coefficients, first
    nonzero coefficient positive, constant folded into the bound.
    """
    if not vertices:
        raise InputError("empty vertex list")
    dim = len(vertices[0])
    if any(len(v) != dim for v in vertices):
        raise InputError("vertices of mixed dimension")
    check_hull_budget(dim, len(vertices))
    # each ray's coefficients are zipped with term_order() below
    if dim != structure.dimension:
        raise InputError(
            f"vertices have length {dim}, but the structure has dimension "
            f"{structure.dimension}"
        )
    # the input order sets only DD's cost (see _dd_rays), as the facets are
    # sorted on the canonical form of each ray a0 + a.x >= 0, a lower bound
    # before an upper one
    forms = sorted(
        (_canonical(ray[1:], -ray[0], None) for ray in _dd_rays(sorted(vertices))),
        key=lambda f: (f[0], f[1] is None, f[1:]),
    )
    order = structure.term_order()
    return [Inequality(dict(zip(order, vec)), lo, up) for vec, lo, up in forms]


def _values(vec: list[int], vertices: list[Vertex]) -> list[int]:
    """The integer form's values ``vec . v`` at the vertices."""
    if any(len(v) != len(vec) for v in vertices):
        raise InputError("vertex dimension does not match structure")
    return [sum(map(operator.mul, vec, v)) for v in vertices]


def classical_range(
    ineq: Inequality, vertices: list[Vertex], structure: EventStructure
) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the linear form over the polytope's vertices."""
    vec, _, _, den = _integer_form(ineq, structure)
    values = _values(vec, vertices)
    return Fraction(min(values), den), Fraction(max(values), den)


def verify_facet(
    ineq: Inequality, vertices: list[Vertex], structure: EventStructure
) -> FacetCheck:
    """Exact facet oracle: validity over all vertices plus tightness.

    ``valid`` means every vertex satisfies the inequality; a violating vertex
    is reported as ``witness``.  ``is_facet`` requires, for each finite bound,
    that the vertices attaining it affinely span a hyperplane of the
    polytope's affine hull.

    A tight set T lies on the hyperplane ``vec . x = bound`` (``vec`` is
    nonzero), so its affine rank is at most n - 1 for vertices of length n,
    and its elimination stops once T spans that hyperplane.  If it does and
    some vertex lies off it, the polytope is full-dimensional and the bound
    passes without ranking the vertex set; otherwise the vertex set is
    ranked, once per call.
    """
    vec, lo, up, _ = _integer_form(ineq, structure)
    values = list(zip(vertices, _values(vec, vertices)))
    witness = None
    for v, val in values:
        if (lo is not None and val < lo) or (up is not None and val > up):
            witness = v
            break
    tight_sets = []
    for bound in (lo, up):
        if bound is not None:
            tight_sets.append([v for v, val in values if val == bound])
    tight_count = sum(len(t) for t in tight_sets)
    hyperplane = len(vec) - 1
    dim = None

    def spans_facet(tight):
        nonlocal dim
        if not tight:
            rank = -1
        else:
            t0 = tight[0]
            rows = [[a - b for a, b in zip(t, t0)] for t in tight[1:]]
            rank = len(_reduce(rows, hyperplane))
        if rank == hyperplane and len(tight) < len(vertices):
            return True
        if dim is None:
            dim = affine_rank(vertices)
        return rank == dim - 1

    is_facet = (
        witness is None
        and bool(tight_sets)
        and all(spans_facet(t) for t in tight_sets)
    )
    return FacetCheck(
        valid=witness is None,
        tight_count=tight_count,
        is_facet=is_facet,
        witness=witness,
    )
