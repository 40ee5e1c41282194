"""Correlation polytopes: truth-table vertices, facet enumeration, facet checks.

Vertices are the 0/1 truth-table rows of single events together with the
products for the selected joint events.  The convex hull of those vertices is
the correlation polytope; its facets are Bell-type inequalities.  Facet
enumeration runs the double description (Motzkin) method over exact integer
arithmetic, so there are no tolerances anywhere in this module.  The
classical range of a form is found without listing the vertices: see
:func:`classical_range`.
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
# entries (vertices x dimension) of the vertex list that ``polytope
# vertices`` and ``polytope verify`` build: peak RSS grows by about 25 bytes
# per entry, so at the limit (8|8 with 48 joints) ``verify`` peaks near
# 130 MB and takes about 8 s of CPU on a 2-core VM
MAX_VERTEX_ENTRIES = 1 << 22
# positive x negative ray pairs per packed prefilter block in _dd_rays; at
# any number of mask words a block holds one word's uint64 AND (64 KB), its
# uint8 popcount and the uint8 counts (8 KB each), about 80 KB in all
# (larger blocks left more heap behind after repeated 3x3 hulls, at no
# measurable speed difference)
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
        vec, _, _, den = _integer_form(self, structure)
        return Fraction(_values(vec, [vertex])[0], den)

    def to_json(self) -> dict:
        return {
            "coeffs": {_key_str(k): _frac_json(c) for k, c in self.coeffs.items()},
            "lower": _frac_json(self.lower),
            "upper": _frac_json(self.upper),
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


def _key_str(k: TermKey) -> str:
    """A term key as a JSON object key: ``"1"`` or ``"1,4"``."""
    return str(k) if isinstance(k, int) else f"{k[0]},{k[1]}"


def _frac_json(v: Optional[Fraction]):
    """A bound or coefficient as JSON: an integer, a ``"p/q"`` string or None."""
    if v is None:
        return None
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


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


def _check_events(structure: EventStructure) -> None:
    if structure.n_single > MAX_SINGLE_EVENTS:
        raise BudgetError(
            f"{structure.n_single} single events above limit {MAX_SINGLE_EVENTS}"
        )


def check_vertex_budget(structure: EventStructure) -> None:
    """Raise ``BudgetError`` when the vertex list would hold more than
    ``MAX_VERTEX_ENTRIES`` entries (vertices x dimension)."""
    _check_events(structure)
    entries = 2**structure.n_single * structure.dimension
    if entries > MAX_VERTEX_ENTRIES:
        raise BudgetError(
            f"vertex list budget exceeded: 2^{structure.n_single} vertices x dimension "
            f"{structure.dimension} = {entries} entries (max {MAX_VERTEX_ENTRIES})"
        )


def enumerate_vertices(structure: EventStructure) -> list[Vertex]:
    """All truth-table rows, in binary counting order on (t_1, ..., t_n)."""
    _check_events(structure)
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


def _common_counts(a, b):
    """(len(a), len(b)) uint8 counts of the bits set in both masks of each
    pair of rows of two packed (R, words) arrays, one word at a time.  A
    count cannot exceed the bits of the masks, at most ``MAX_HULL_VERTICES``
    = 128 here, so it fits in uint8."""
    counts = np.bitwise_count(a[:, None, 0] & b[:, 0])
    for w in range(1, a.shape[1]):
        counts += np.bitwise_count(a[:, None, w] & b[:, w])
    return counts


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

    The current rays are the rows of one (R, dim) int64 array.  A step takes
    their dot products with the inserted row as one matrix-vector product,
    and builds all its new rays at once: d[p]*r[m] - d[m]*r[p] for each
    adjacent pair (p, m), each row divided by the gcd of its entries.  The
    kept rays come first, then the new ones in pair order.

    int64 is exact for 0/1 vertices (``hull_forms`` refuses others) of
    length at most 21.  The rows (1, v) are then 0/1.  Each gcd-reduced
    ray, current or final, is the primitive normal of dim - 1 linearly
    independent inserted rows, so it divides their cofactor vector, and each
    of its entries is at most the largest (dim-1)-minor of a 0/1 matrix,
    H(k) = (k+1)^((k+1)/2) / 2^k for k = dim - 1 (Hadamard's bound).  A dot
    product is then at most dim*H, and a combination before its division at
    most 2*dim*H^2: 6.5e12 at the budget's dim 17, 1.5e16 at the 3x4
    layout's dim 20 and 3.4e18 < 2^63 at dim 22.

    Each step with negative rays packs the masks of the current rays into
    uint64 words.  It first counts the common zeros of every positive x
    negative pair at once, ``PAIR_BLOCK`` pairs at a time: word by word,
    the words are ANDed and ``np.bitwise_count`` of each AND is added into
    one uint8 count per pair (:func:`_common_counts`).  Only pairs with at
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
    rays = np.array(
        [
            [x if r[p] > 0 else -x for x in r[dim:]]
            for _, p, r in sorted(_reduce(aug, dim, dim), key=lambda t: t[1])
        ],
        dtype=np.int64,
    )
    order = idx + [k for k in range(len(rows)) if k not in set(idx)]
    inserted = np.array([rows[k] for k in order], dtype=np.int64)
    words = -(-len(rows) // 64)
    masks = [((1 << dim) - 1) & ~(1 << j) for j in range(dim)]

    for step in range(dim, len(rows)):
        dots = rays @ inserted[step]
        neg = np.flatnonzero(dots < 0).tolist()
        zer = np.flatnonzero(dots == 0).tolist()
        bit = 1 << step
        if not neg:
            for i in zer:
                masks[i] |= bit
            continue
        pos = np.flatnonzero(dots > 0).tolist()
        packed = _pack(masks, words)
        # holders[s] has bit i set when current ray i is zero on step s
        bits = np.unpackbits(packed.view(np.uint8), axis=1, count=step, bitorder="little")
        by_step = np.packbits(bits.T, axis=1, bitorder="little")
        holders = [int.from_bytes(b, "little") for b in by_step.tolist()]
        everyone = (1 << len(rays)) - 1
        witnesses: list[int] = []
        pairs: list[tuple[int, int]] = []
        new_masks = []
        need = dim - 2
        packed_neg = packed[neg]
        packed_pos = packed[pos]
        block = max(1, PAIR_BLOCK // len(neg))
        for start in range(0, len(pos), block):
            counts = _common_counts(packed_pos[start : start + block], packed_neg)
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
                    pairs.append((ip, im))
                    new_masks.append(z | bit)
        p, m = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        new = dots[p, None] * rays[m] - dots[m, None] * rays[p]
        new //= np.gcd.reduce(new, axis=1)[:, None]
        rays = np.concatenate([rays[pos + zer], new])
        masks = [masks[i] for i in pos] + [masks[i] | bit for i in zer] + new_masks
    return [tuple(r) for r in rays.tolist()]


def check_hull_budget(dim: int, n_vertices: int) -> None:
    """Raise ``BudgetError`` for a hull above ``MAX_HULL_DIMENSION`` or ``MAX_HULL_VERTICES``."""
    if dim > MAX_HULL_DIMENSION or n_vertices > MAX_HULL_VERTICES:
        raise BudgetError(
            f"hull budget exceeded: dim {dim} (max {MAX_HULL_DIMENSION}), "
            f"{n_vertices} vertices (max {MAX_HULL_VERTICES})"
        )


Form = tuple[tuple[int, ...], Optional[Fraction], Optional[Fraction]]


def hull_forms(vertices: list[Vertex], structure: EventStructure) -> list[Form]:
    """Complete irredundant facet list of conv(vertices) as sorted canonical
    forms ``(coefficients, lower, upper)`` (see :func:`_canonical`).

    The vertices must be 0/1 vectors.  The coefficients are in
    ``structure.term_order()``; each form has one finite bound, and the
    forms are sorted on the coefficients, a lower bound before an upper one.
    """
    if not vertices:
        raise InputError("empty vertex list")
    dim = len(vertices[0])
    if any(len(v) != dim for v in vertices):
        raise InputError("vertices of mixed dimension")
    # _dd_rays' int64 bound holds for 0/1 rows only
    if not set(itertools.chain.from_iterable(vertices)) <= {0, 1}:
        raise InputError("vertex entries must be 0 or 1")
    check_hull_budget(dim, len(vertices))
    # each ray's coefficients are read in term_order()
    if dim != structure.dimension:
        raise InputError(
            f"vertices have length {dim}, but the structure has dimension "
            f"{structure.dimension}"
        )
    # the input order sets only DD's cost (see _dd_rays), as the forms of
    # the rays a0 + a.x >= 0 are sorted
    return sorted(
        (_canonical(ray[1:], -ray[0], None) for ray in _dd_rays(sorted(vertices))),
        key=lambda f: (f[0], f[1] is None, f[1:]),
    )


def hull_facets(
    vertices: list[Vertex], structure: EventStructure
) -> list[Inequality]:
    """Complete irredundant facet list of conv(vertices), exact arithmetic.

    Each facet comes back canonicalized: coprime integer coefficients, first
    nonzero coefficient positive, constant folded into the bound; they are
    the forms of :func:`hull_forms`, in its order.
    """
    order = structure.term_order()
    return [
        Inequality(dict(zip(order, vec)), lo, up)
        for vec, lo, up in hull_forms(vertices, structure)
    ]


def write_facets_json(forms: list[Form], structure: EventStructure, fh) -> None:
    """Write ``{"count": ..., "facets": [...]}`` for the canonical ``forms``.

    The text is that of ``json.dump(..., indent=2)`` of the facets'
    ``Inequality.to_json()``, plus a newline, written without building the
    inequalities: the schema is fixed, and no key or value needs escaping.
    """
    keys = [f'\n        "{_key_str(k)}": ' for k in structure.term_order()]

    def bound(v):
        v = _frac_json(v)
        return "null" if v is None else f'"{v}"' if isinstance(v, str) else str(v)

    facets = [
        '\n    {\n      "coeffs": {'
        + ",".join(keys[i] + str(c) for i, c in enumerate(vec) if c)
        + f'\n      }},\n      "lower": {bound(lo)},\n      "upper": {bound(up)}\n    }}'
        for vec, lo, up in forms
    ]
    body = ",".join(facets) + "\n  " if facets else ""
    fh.write(f'{{\n  "count": {len(forms)},\n  "facets": [{body}]\n}}\n')


def _values(vec: list[int], vertices: list[Vertex]) -> list[int]:
    """The integer form's values ``vec . v`` at the vertices."""
    if any(len(v) != len(vec) for v in vertices):
        raise InputError("vertex dimension does not match structure")
    return [sum(map(operator.mul, vec, v)) for v in vertices]


def classical_range(ineq: Inequality, structure: EventStructure) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the linear form over the polytope's vertices.

    No vertex is listed.  No joint pairs two events of one side, so once the
    events of every other side are fixed, the form is a constant plus, for
    each event e of the largest side, t_e times an effective coefficient c_e
    (e's own coefficient plus those of its joints with the fixed events set
    to 1), and its extremes add min(0, c_e) or max(0, c_e) for each e on its
    own.  The cost is 2^(n - size of the largest side) assignments, taken
    depth first, one event at a time, in integer form.
    """
    _check_events(structure)
    vec, _, _, den = _integer_form(ineq, structure)
    n = structure.n_single
    sides = sorted(structure.sides, key=len)
    fixed = [e - 1 for side in sides[:-1] for e in side]
    rank = {e: r for r, e in enumerate(fixed)}
    # links[e]: (event, joint coefficient) of e's joints with the events
    # fixed after it or left free
    links: dict[int, list[tuple[int, int]]] = {e: [] for e in fixed}
    for (i, j), c in zip(structure.joints, vec[n:]):
        i, j = sorted((i - 1, j - 1), key=lambda e: rank.get(e, n))
        if c:
            links[i].append((j, c))
    tail = [e - 1 for e in sides[-1]]

    def extremes(depth: int, base: int, eff: list[int]) -> tuple[int, int]:
        # eff: effective coefficients of the events not yet fixed
        if depth == len(fixed):
            last = [eff[e] for e in tail]
            return base + sum(c for c in last if c < 0), base + sum(c for c in last if c > 0)
        e = fixed[depth]
        lo0, hi0 = extremes(depth + 1, base, eff)
        base += eff[e]
        if links[e]:
            eff = eff.copy()
            for j, c in links[e]:
                eff[j] += c
        lo1, hi1 = extremes(depth + 1, base, eff)
        return min(lo0, lo1), max(hi0, hi1)

    lo, hi = extremes(0, 0, list(vec[:n]))
    return Fraction(lo, den), Fraction(hi, den)


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
