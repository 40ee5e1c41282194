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

from .errors import BudgetError, InputError

TermKey = Union[int, tuple[int, int]]
Vertex = tuple[int, ...]

MAX_SINGLE_EVENTS = 20
MAX_HULL_DIMENSION = 16
MAX_HULL_VERTICES = 128


@dataclass(frozen=True)
class EventStructure:
    """Event layout: single events, their observer sides and joint pairs."""

    n_single: int
    sides: tuple[tuple[int, ...], ...]
    joints: tuple[tuple[int, int], ...]

    def __post_init__(self):
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
            return cls(
                n_single=int(obj["n_single"]),
                sides=tuple(tuple(int(i) for i in s) for s in obj["sides"]),
                joints=tuple((int(i), int(j)) for i, j in obj["joints"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad structure JSON: {exc}") from exc


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
            self._norm_key(k): Fraction(v) for k, v in self.coeffs.items() if v
        }
        if not self.coeffs:
            raise InputError("inequality needs at least one nonzero coefficient")
        self.lower = None if self.lower is None else Fraction(self.lower)
        self.upper = None if self.upper is None else Fraction(self.upper)
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise InputError("lower bound exceeds upper bound")

    @staticmethod
    def _norm_key(k) -> TermKey:
        if isinstance(k, int):
            return k
        i, j = k
        return (i, j) if i < j else (j, i)

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
            coeffs = {}
            for ks, v in obj["coeffs"].items():
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
        """Hashable canonical form used for facet-set comparisons.

        Integer coefficients with gcd 1, first nonzero coefficient positive
        (flipping the bounds when the sign is switched).
        """
        vec, lo, up, _ = _integer_form(self, structure)
        g = math.gcd(*vec)
        vec = [v // g for v in vec]
        lo = None if lo is None else Fraction(lo, g)
        up = None if up is None else Fraction(up, g)
        first = next(v for v in vec if v)
        if first < 0:
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


def _dd_rays(vertices: list[Vertex]) -> list[tuple[int, ...]]:
    """Extreme rays (a0, a1..ad) of the dual cone: a0 + a.x >= 0 on conv(V).

    Double description with combinatorial adjacency; deterministic insertion
    order, integer arithmetic throughout.
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
    full = (1 << dim) - 1
    masks = [full & ~(1 << j) for j in range(dim)]

    for step in range(dim, len(rows)):
        mk = rows[order[step]]
        dots = [sum(a * b for a, b in zip(mk, r)) for r in rays]
        neg = [i for i, x in enumerate(dots) if x < 0]
        bit = 1 << step
        if not neg:
            masks = [m | bit if dots[i] == 0 else m for i, m in enumerate(masks)]
            continue
        pos = [i for i, x in enumerate(dots) if x > 0]
        zer = [i for i, x in enumerate(dots) if x == 0]
        new_rays, new_masks = [], []
        need = dim - 2
        for ip in pos:
            mp = masks[ip]
            for im in neg:
                z = mp & masks[im]
                if z.bit_count() < need:
                    continue
                adjacent = True
                for io, mo in enumerate(masks):
                    if io != ip and io != im and (z & mo) == z:
                        adjacent = False
                        break
                if not adjacent:
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


def _ray_to_inequality(ray: tuple[int, ...], structure: EventStructure) -> Inequality:
    a0, coeffs = ray[0], ray[1:]
    order = structure.term_order()
    first = next((c for c in coeffs if c), 0)
    if first >= 0:
        # sum a_i x_i >= -a0
        return Inequality(
            {k: Fraction(c) for k, c in zip(order, coeffs) if c},
            lower=Fraction(-a0),
            upper=None,
        )
    return Inequality(
        {k: Fraction(-c) for k, c in zip(order, coeffs) if c},
        lower=None,
        upper=Fraction(a0),
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
    if dim > MAX_HULL_DIMENSION or len(vertices) > MAX_HULL_VERTICES:
        raise BudgetError(
            f"hull budget exceeded: dim {dim} (max {MAX_HULL_DIMENSION}), "
            f"{len(vertices)} vertices (max {MAX_HULL_VERTICES})"
        )
    facets = [_ray_to_inequality(r, structure) for r in _dd_rays(vertices)]

    def sort_key(f):
        vec, lo, up = f.canonical_key(structure)
        return (vec, lo is None, lo or 0, up is None, up or 0)

    facets.sort(key=sort_key)
    return facets


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
    """Brute-force facet oracle: validity over all vertices plus tightness.

    ``valid`` means every vertex satisfies the inequality; a violating vertex
    is reported as ``witness``.  ``is_facet`` requires, for each finite bound,
    that the vertices attaining it affinely span a hyperplane of the
    polytope's affine hull.
    """
    vec, lo, up, _ = _integer_form(ineq, structure)
    values = list(zip(vertices, _values(vec, vertices)))
    witness = None
    for v, val in values:
        if (lo is not None and val < lo) or (up is not None and val > up):
            witness = v
            break
    dim = affine_rank(vertices)
    tight_sets = []
    for bound in (lo, up):
        if bound is not None:
            tight_sets.append([v for v, val in values if val == bound])
    tight_count = sum(len(t) for t in tight_sets)
    is_facet = (
        witness is None
        and bool(tight_sets)
        and all(affine_rank(t) == dim - 1 for t in tight_sets)
    )
    return FacetCheck(
        valid=witness is None,
        tight_count=tight_count,
        is_facet=is_facet,
        witness=witness,
    )
