import collections
import functools
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from bellbounds import catalog, polytope
from bellbounds.cli import main
from bellbounds.errors import BudgetError, InputError
from bellbounds.polytope import (
    EventStructure,
    FacetCheck,
    Inequality,
    _common_counts,
    _dd_rays,
    _pack,
    affine_rank,
    classical_range,
    enumerate_vertices,
    hull_facets,
    hull_forms,
    verify_facet,
    write_facets_json,
)


@pytest.fixture(scope="module")
def single():
    return reference.single_setting_structure()


@pytest.fixture(scope="module")
def ch():
    return catalog.ch_structure()


@pytest.fixture(scope="module")
def ch_vertices(ch):
    return enumerate_vertices(ch)


def canon_set(ineqs, structure):
    return {i.canonical_key(structure) for i in ineqs}


def bipartite(left, right):
    """Layout with settings ``left | right`` and every cross joint."""
    return EventStructure(
        len(left) + len(right), (left, right), tuple((i, j) for i in left for j in right)
    )


LAYOUTS = {
    "ch": catalog.ch_structure(),
    "2x3": bipartite((1, 2), (3, 4, 5)),
    "2x4": bipartite((1, 2), (3, 4, 5, 6)),
    "i33": catalog.i33_structure(),
    # three settings against four, joints along a 6-cycle plus (1,4)
    "wide": EventStructure(
        7,
        ((1, 2, 3), (4, 5, 6, 7)),
        ((1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (1, 7)),
    ),
    # the same sides with nine joints: dimension 16, the hull budget's edge
    "dim16": EventStructure(
        7,
        ((1, 2, 3), (4, 5, 6, 7)),
        ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7)),
    ),
}


@functools.cache
def layout_facets(name):
    structure = LAYOUTS[name]
    return hull_facets(enumerate_vertices(structure), structure)


def relabelled(ineq, events):
    """``ineq`` with each single event ``e`` renamed ``events[e]``."""
    def key(k):
        return events[k] if isinstance(k, int) else (events[k[0]], events[k[1]])

    return Inequality({key(k): c for k, c in ineq.coeffs.items()}, ineq.lower, ineq.upper)


def tight_masks(facets, structure):
    """Each facet as the bitmask of the vertex indices where it is tight."""
    vertices = enumerate_vertices(structure)
    order = structure.term_order()
    masks = set()
    for f in facets:
        vec = [int(f.coeffs.get(k, 0)) for k in order]
        bound = f.lower if f.upper is None else f.upper
        masks.add(
            sum(
                1 << a
                for a, v in enumerate(vertices)
                if sum(c * x for c, x in zip(vec, v)) == bound
            )
        )
    return masks


def assignment_symmetries(structure):
    """Generators of the layout's symmetry group as maps on assignments.

    Relabelling settings within a side (a transposition and a cycle), the
    party swap when both sides have as many settings, and each flip
    t_i -> 1 - t_i.  Each map takes the event-to-value dict of one truth
    assignment to that of its image.
    """
    def relabel(side, shift):
        image = {e: side[(k + shift) % len(side)] for k, e in enumerate(side)}
        return lambda t: {image.get(e, e): x for e, x in t.items()}

    gens = []
    for side in structure.sides:
        if len(side) > 1:
            gens.append(relabel(side[:2], 1))
            gens.append(relabel(side, 1))
    left, right = structure.sides
    if len(left) == len(right):
        swap = dict(zip(left + right, right + left))
        gens.append(lambda t: {swap[e]: x for e, x in t.items()})
    for i in range(1, structure.n_single + 1):
        gens.append(lambda t, i=i: {**t, i: 1 - t[i]})
    return gens


def assignment_permutation(gen, n):
    """An assignment map as a permutation of vertex indices (binary counting order)."""
    def index(t):
        return sum(t[e] << (n - e) for e in t)

    return [
        index(gen({e: (a >> (n - e)) & 1 for e in range(1, n + 1)}))
        for a in range(1 << n)
    ]


def permute_mask(mask, perm):
    return sum(1 << perm[a] for a in range(len(perm)) if mask >> a & 1)


def permute_masks(masks, gen, n):
    """Apply an assignment map to vertex bitmasks."""
    perm = assignment_permutation(gen, n)
    return {permute_mask(m, perm) for m in masks}


def orbit_sizes(masks, structure):
    """Sizes of the orbits of the masks under the layout's symmetry group.

    Union-find over the generators' images; the group is generated by them,
    so a mask's orbit is its connected component.
    """
    parent = {m: m for m in masks}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for gen in assignment_symmetries(structure):
        perm = assignment_permutation(gen, structure.n_single)
        for m in masks:
            parent[find(m)] = find(permute_mask(m, perm))
    return sorted(collections.Counter(find(m) for m in masks).values())


class TestEventStructure:
    def test_validation(self):
        with pytest.raises(InputError):
            EventStructure(2, ((1,), (2,)), ((1, 2), (1, 2)))
        with pytest.raises(InputError):
            EventStructure(2, ((1, 2),), ((1, 2),))  # same side
        with pytest.raises(InputError):
            EventStructure(2, ((1,), (3,)), ())
        # a huge event count is refused without listing 1..n_single
        with pytest.raises(InputError):
            EventStructure(10**12, ((1,), (2,)), ())

    def test_json_roundtrip(self, ch):
        assert EventStructure.from_json(json.loads(json.dumps(ch.to_json()))) == ch

    @pytest.mark.parametrize(
        "doc",
        [
            {"n_single": True, "sides": [[1]], "joints": []},
            {"n_single": 1.0, "sides": [[1]], "joints": []},
            {"n_single": 1, "sides": [[True]], "joints": []},
            {"n_single": 2, "sides": [[1], ["2"]], "joints": []},
            {"n_single": 2, "sides": [[1], [2]], "joints": ["12"]},
        ],
        ids=["bool-count", "float-count", "bool-event", "string-event", "string-joint"],
    )
    def test_from_json_wrong_types(self, doc):
        # each would read as a valid layout if converted: int(True), int(1.0),
        # int("2"), or "12" unpacked into (1, 2)
        with pytest.raises(InputError):
            EventStructure.from_json(doc)


class TestEnumerateVertices:
    def test_single_setting(self, single):
        assert enumerate_vertices(single) == [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 1),
        ]

    def test_one_event_no_joints(self):
        s = EventStructure(1, ((1,),), ())
        assert enumerate_vertices(s) == [(0,), (1,)]

    def test_ch_counts(self, ch_vertices):
        assert len(ch_vertices) == 16
        assert all(len(v) == 8 for v in ch_vertices)

    def test_product_entries(self, ch, ch_vertices):
        for v in ch_vertices:
            for k, (i, j) in enumerate(ch.joints):
                assert v[4 + k] == v[i - 1] * v[j - 1]

    def test_explosion_guard(self):
        s = EventStructure(21, (tuple(range(1, 21)), (21,)), ())
        with pytest.raises(BudgetError):
            enumerate_vertices(s)


class TestHullFacets:
    def test_single_setting_facets(self, single):
        facets = hull_facets(enumerate_vertices(single), single)
        expected = [
            Inequality({(1, 2): 1, 1: -1}, upper=0),  # p12 <= p1
            Inequality({(1, 2): 1, 2: -1}, upper=0),  # p12 <= p2
            Inequality({(1, 2): 1}, lower=0),  # 0 <= p12
            Inequality({1: 1, 2: 1, (1, 2): -1}, upper=1),
        ]
        got = canon_set(facets, single)
        assert canon_set(expected, single) <= got
        assert len(facets) == 4

    @pytest.mark.parametrize(
        "vertices,match",
        [([], "empty vertex list"), ([(0, 0, 0), (1, 1)], "mixed dimension")],
        ids=["empty", "mixed"],
    )
    def test_rejects_vertex_lists(self, single, vertices, match):
        with pytest.raises(InputError, match=match):
            hull_forms(vertices, single)

    def test_facet_bounds_are_classical_range(self, ch, ch_vertices):
        for f in hull_facets(ch_vertices, ch):
            lo, hi = classical_range(f, ch)
            if f.lower is not None:
                assert f.lower == lo
            if f.upper is not None:
                assert f.upper == hi

    def test_symmetry_closure(self, ch, ch_vertices):
        # swapping the two left settings maps the facet set onto itself
        perm = {1: 2, 2: 1, 3: 3, 4: 4}
        facets = hull_facets(ch_vertices, ch)
        assert canon_set(facets, ch) == canon_set(
            [relabelled(f, perm) for f in facets], ch
        )

    @pytest.mark.parametrize("name", ["ch", "2x3", "i33"])
    def test_tight_sets_closed_under_symmetries(self, name):
        # a symmetry of the layout permutes the truth assignments and maps
        # each facet's tight set onto another facet's; a hull that drops a
        # facet of an orbit can still pass the oracle but breaks this
        structure = LAYOUTS[name]
        masks = tight_masks(layout_facets(name), structure)
        assert len(masks) == len(layout_facets(name))
        gens = assignment_symmetries(structure)
        for gen in gens:
            assert permute_masks(masks, gen, structure.n_single) == masks
        dropped = masks - {min(masks)}
        assert any(
            permute_masks(dropped, gen, structure.n_single) != dropped for gen in gens
        )

    @pytest.mark.parametrize(
        "name,sizes",
        [("ch", [8, 16]), ("2x4", [32, 48]), ("i33", [36, 72, 576])],
        ids=["ch", "2x4", "i33"],
    )
    def test_facet_classes(self, name, sizes):
        # the classes of Collins & Gisin (J. Phys. A 37, 1775, 2004); on 3x3
        # the 36 positivity facets, the 72 CH forms and the 576 I3322 forms
        structure = LAYOUTS[name]
        assert orbit_sizes(tight_masks(layout_facets(name), structure), structure) == sizes

    def test_hypercube_degenerate_structure(self):
        s = EventStructure(2, ((1,), (2,)), ())
        facets = hull_facets(enumerate_vertices(s), s)
        expected = [
            Inequality({1: 1}, lower=0),
            Inequality({1: 1}, upper=1),
            Inequality({2: 1}, lower=0),
            Inequality({2: 1}, upper=1),
        ]
        assert canon_set(facets, s) == canon_set(expected, s)

    @pytest.mark.parametrize("name", ["2x4", "i33"])
    def test_vertex_order_invariance(self, name):
        # hull_facets sorts its input, so a full shuffle gives the bytes of
        # the unshuffled list; TestDDRays checks DD itself on shuffled rows
        structure = LAYOUTS[name]
        vertices = enumerate_vertices(structure)
        want = facets_json(layout_facets(name))
        for seed in range(2):
            random.Random(seed).shuffle(vertices)
            assert facets_json(hull_facets(vertices, structure)) == want

    @pytest.mark.parametrize("name", ["ch", "i33"])
    def test_repeated_vertices(self, name):
        # a repeated vertex makes a DD step with no negative ray
        structure = LAYOUTS[name]
        vertices = enumerate_vertices(structure)
        facets = hull_facets(vertices + vertices[::5], structure)
        assert [f.to_json() for f in facets] == [f.to_json() for f in layout_facets(name)]

    def test_budget(self, ch):
        with pytest.raises(BudgetError):
            hull_facets([(0,) * 17, tuple([1] + [0] * 16)], ch)

    def test_non_binary_vertices(self):
        # DD's int64 bound holds for 0/1 rows only; before the check this
        # list gave x1 <= 1, which (3, 0) violates, and missed x1 + 2 x2 <= 3
        s = EventStructure(2, ((1,), (2,)), ())
        for vertices in ([(0, 0), (3, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1), (1, -1)]):
            with pytest.raises(InputError, match="must be 0 or 1"):
                hull_facets(vertices, s)

    def test_non_int_vertices(self):
        # 0.0 == 0 and True == 1 pass a test on values alone; a float entry
        # then ended in a TypeError from math.gcd
        s = EventStructure(2, ((1,), (2,)), ())
        for vertices in (
            [(0.0, 0), (1, 0), (0, 1), (1, 1)],
            [(0, 0), (1, 0), (0, 1), (1, 1.0)],
            [(0, 0), (True, 0), (0, 1), (1, 1)],
        ):
            for hull in (hull_forms, hull_facets):
                with pytest.raises(InputError, match="must be 0 or 1, as int"):
                    hull(vertices, s)

    def test_not_full_dimensional(self, single):
        with pytest.raises(InputError):
            hull_facets([(0, 0, 0), (1, 1, 1)], single)

    def test_structure_dimension_mismatch(self, ch, ch_vertices, single):
        # facet coefficients are matched to the structure's terms, so a
        # structure with fewer or more terms than the vertices is refused
        short = EventStructure(ch.n_single, ch.sides, ch.joints[:-1])
        for structure in (single, short):
            with pytest.raises(InputError, match=f"length 8, .* dimension {structure.dimension}$"):
                hull_facets(ch_vertices, structure)
        with pytest.raises(InputError, match="length 3, .* dimension 8$"):
            hull_facets(enumerate_vertices(single), ch)


def brute_force_facets(vertices, structure):
    """Canonical keys of the facets of a full-dimensional conv(vertices).

    Each facet is a hyperplane through d affinely independent vertices that
    leaves every vertex on one side.  The normal of a d-subset is the vector
    of signed (d-1)-minors of its difference rows, zero when the subset is
    affinely dependent; the minors of these small 0/+-1 matrices are float
    determinants, exact once rounded.  Nothing here is shared with DD.
    """
    d = len(vertices[0])
    points = np.array(vertices)
    subsets = points[list(itertools.combinations(range(len(points)), d))]
    diff = subsets[:, 1:] - subsets[:, :1]
    minors = np.stack([np.delete(diff, j, axis=2) for j in range(d)], axis=1)
    normals = np.rint(np.linalg.det(minors)).astype(np.int64) * (-1) ** np.arange(d)
    offsets = (normals * subsets[:, 0]).sum(axis=1)
    keys = set()
    for normal, b, values in zip(normals.tolist(), offsets.tolist(), normals @ points.T):
        if not any(normal):
            continue
        coeffs = dict(enumerate(normal, 1))
        if (values >= b).all():
            keys.add(Inequality(coeffs, lower=b).canonical_key(structure))
        elif (values <= b).all():
            keys.add(Inequality(coeffs, upper=b).canonical_key(structure))
    return keys


@st.composite
def full_dimensional_vertex_sets(draw):
    """A full-dimensional set of 0/1 points in dimension 3 to 5, in random order."""
    d = draw(st.integers(3, 5))
    cube = list(itertools.product((0, 1), repeat=d))
    size = draw(st.integers(d + 1, min(len(cube), 14)))
    vertices = draw(st.lists(st.sampled_from(cube), min_size=size, max_size=size, unique=True))
    assume(np.linalg.matrix_rank(np.subtract(vertices[1:], vertices[0])) == d)
    return vertices


class TestHullCompleteness:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(vertices=full_dimensional_vertex_sets())
    # DD loses facets here if a pair's own negative ray counts as a witness
    @example(
        vertices=[
            (0, 0, 0, 0, 0), (0, 0, 1, 1, 1), (0, 1, 1, 0, 0), (0, 1, 1, 1, 0),
            (1, 0, 0, 0, 0), (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 0, 1, 1, 0),
            (1, 1, 0, 0, 1), (1, 1, 0, 1, 1), (1, 1, 1, 1, 0), (1, 1, 1, 1, 1),
        ]
    )
    def test_matches_brute_force(self, vertices):
        # an adjacent pair that DD wrongly skips shows here as a missing facet
        d = len(vertices[0])
        structure = EventStructure(d, (tuple(range(1, d + 1)),), ())
        facets = hull_facets(vertices, structure)
        keys = canon_set(facets, structure)
        assert len(keys) == len(facets)
        assert keys == brute_force_facets(vertices, structure)


class TestDDRays:
    @pytest.mark.parametrize(
        "name,seeds",
        [("ch", range(20)), ("2x3", range(5)), ("2x4", range(5)), ("wide", range(1))],
        ids=["ch", "2x3", "2x4", "wide"],
    )
    def test_vertex_order_invariance(self, name, seeds):
        # the insertion order changes the intermediate rays and the witnesses
        # the adjacency test meets, not the result; wide has two-word masks
        vertices = enumerate_vertices(LAYOUTS[name])
        want = set(_dd_rays(vertices))
        for seed in seeds:
            random.Random(seed).shuffle(vertices)
            assert set(_dd_rays(vertices)) == want

    @pytest.mark.parametrize("name", ["2x4", "wide"])
    def test_pair_block_invariance(self, name, monkeypatch):
        # the prefilter's block size sets only how the pairs are batched
        vertices = enumerate_vertices(LAYOUTS[name])
        want = _dd_rays(vertices)
        for block in (1, 7):
            monkeypatch.setattr(polytope, "PAIR_BLOCK", block)
            assert _dd_rays(vertices) == want

    @pytest.mark.parametrize("name", ["2x4", "i33", "wide", "dim16"])
    def test_witness_list_invariance(self, name, monkeypatch):
        # the witness list and the probes only spare pairs the AND would
        # reject; with neither, every pair runs the AND.  With more probes
        # than rays every ray is a probe, so a probe that may be one of its
        # own pair rules out every pair
        vertices = enumerate_vertices(LAYOUTS[name])
        want = _dd_rays(vertices)
        for length, probes in itertools.product((0, 1, polytope.WITNESSES), (0, 1, 10**6)):
            monkeypatch.setattr(polytope, "WITNESSES", length)
            monkeypatch.setattr(polytope, "PROBES", probes)
            assert _dd_rays(vertices) == want

    @given(st.lists(st.tuples(*[st.integers(0, 2**128 - 1)] * 2), max_size=8))
    @example(pairs=[(2**128 - 1, 2**128 - 1), (2**64 - 1, 2**128 - 2**64)])
    def test_packed_counts_match_bit_count(self, pairs):
        # the prefilter's word-packed popcount against Python's int.bit_count
        left, right = [a for a, _ in pairs], [b for _, b in pairs]
        packed = [_pack(left, 2), _pack(right, 2)]
        counts = np.bitwise_count(packed[0] & packed[1]).sum(axis=1)
        assert counts.tolist() == [(a & b).bit_count() for a, b in pairs]
        # the word-wise uint8 count of every pair, on two words and on the
        # low word alone; 128 common bits is the largest count
        for words in (2, 1):
            a = [x % 2 ** (64 * words) for x in left]
            b = [x % 2 ** (64 * words) for x in right]
            counts = _common_counts(_pack(a, words), _pack(b, words))
            assert counts.dtype == np.uint8
            assert counts.tolist() == [[(x & y).bit_count() for y in b] for x in a]

    @staticmethod
    def hadamard_squared(k):
        """H(k)^2, exactly, for H(k) = (k+1)^((k+1)/2) / 2^k: Hadamard's
        bound on the determinant of a k x k 0/1 matrix."""
        return Fraction((k + 1) ** (k + 1), 4**k)

    def test_int64_bound(self):
        # _dd_rays' int64 rays: with rows (1, v) of length dim, every entry
        # of a combination d[p]*r[m] - d[m]*r[p] is at most 2*dim*H(dim-1)^2
        def fits(dim):
            return 2 * dim * self.hadamard_squared(dim - 1) < 2**63

        assert fits(polytope.MAX_HULL_DIMENSION + 1)
        assert fits(20)  # the 3x4 layout
        # the docstring's limit: vertex length 21 (dim 22), and no further
        assert fits(22) and not fits(23)
        # the prefilter's uint8 counts hold at most one bit per vertex
        assert polytope.MAX_HULL_VERTICES <= 255

    def test_rays_within_hadamard_bound(self):
        # each ray entry is a (dim-1)-minor of the 0/1 rows over a common
        # factor, so at most H(dim-1) for rows (1, v) of length dim
        vertices = enumerate_vertices(LAYOUTS["dim16"])
        k = len(vertices[0])
        assert max(abs(x) for r in _dd_rays(vertices) for x in r) ** 2 <= self.hadamard_squared(k)


def facets_json(facets):
    """The ``polytope facets`` schema through the stdlib encoder."""
    return json.dumps({"count": len(facets), "facets": [f.to_json() for f in facets]}, indent=2) + "\n"


# (length, sha256) of the ``polytope facets`` output on 3x4, which is above
# the CLI's dimension budget and so outside the golden corpus
FACETS_3X4 = (4133355, "ed7198b79679f5cda28f5f8aa413e99a99e29ba16a1af925e41ac0c4e63d078f")


@st.composite
def form_lists(draw):
    """(forms, structure): random ``(coefficients, lower, upper)`` forms on
    a random layout with joints, negative and large coefficients and
    integer, fractional or absent bounds."""
    n_left = draw(st.integers(1, 3))
    n_right = draw(st.integers(1, 3))
    structure = full_layout(n_left, n_right)
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    bound = st.one_of(st.none(), st.fractions(max_denominator=12), st.integers(-(2**70), 2**70))
    forms = []
    for _ in range(draw(st.integers(0, 4))):
        vec = draw(st.lists(coeff, min_size=structure.dimension, max_size=structure.dimension))
        assume(any(vec))
        lo, up = draw(bound), draw(bound)
        if lo is not None and up is not None and lo > up:
            lo, up = up, lo
        forms.append((tuple(vec), lo, up))
    return forms, structure


class TestFacetWriter:
    """``write_facets_json`` against the stdlib encoder on the same facets."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=form_lists())
    def test_matches_json_dump(self, case):
        forms, structure = case
        out = io.StringIO()
        write_facets_json(forms, structure, out)
        order = structure.term_order()
        facets = [Inequality(dict(zip(order, vec)), lo, up) for vec, lo, up in forms]
        assert out.getvalue() == facets_json(facets)

    @pytest.mark.parametrize("name", ["ch", "2x4", "wide"])
    def test_hull_forms(self, name):
        structure = LAYOUTS[name]
        out = io.StringIO()
        write_facets_json(hull_forms(enumerate_vertices(structure), structure), structure, out)
        assert out.getvalue() == facets_json(layout_facets(name))

    def test_stdout(self, tmp_path, capsys):
        s = tmp_path / "structure.json"
        s.write_text(json.dumps(LAYOUTS["2x4"].to_json()))
        out = tmp_path / "facets.json"
        assert main(["polytope", "facets", "--structure", str(s), "--out", str(out)]) == 0
        assert main(["polytope", "facets", "--structure", str(s)]) == 0
        assert capsys.readouterr().out == out.read_text()


def facets_file(tmp_path_factory, structure):
    """Run ``polytope facets --out`` on ``structure``; return the output path."""
    tmp = tmp_path_factory.mktemp("facets")
    s = tmp / "structure.json"
    s.write_text(json.dumps(structure.to_json()))
    out = tmp / "facets.json"
    assert main(["polytope", "facets", "--structure", str(s), "--out", str(out)]) == 0
    return out


def assert_oracle_passes(tmp_path_factory, structure, count):
    """``polytope facets`` on ``structure`` lists ``count`` facets, and the
    oracle passes each."""
    vertices = enumerate_vertices(structure)
    facets = json.loads(facets_file(tmp_path_factory, structure).read_text())["facets"]
    assert len(facets) == count
    for doc in facets:
        check = verify_facet(Inequality.from_json(doc), vertices, structure)
        assert check.valid and check.is_facet


class TestI33Hull:
    """The 684 facets of the three-setting layout (Pitowsky & Svozil 2001)."""

    def test_every_facet_passes_oracle(self, tmp_path_factory):
        assert_oracle_passes(tmp_path_factory, catalog.i33_structure(), 684)


class TestTwoByFourHull:
    """The 80 facets of two settings against four, every cross joint."""

    def test_every_facet_passes_oracle(self, tmp_path_factory):
        assert_oracle_passes(tmp_path_factory, LAYOUTS["2x4"], 80)


class TestWideMaskHull:
    """128 vertices, so DD's step masks need two 64-bit words."""

    def test_layout_size(self):
        structure = LAYOUTS["wide"]
        assert (structure.dimension, len(enumerate_vertices(structure))) == (14, 128)

    def test_every_facet_passes_oracle(self, tmp_path_factory):
        assert_oracle_passes(tmp_path_factory, LAYOUTS["wide"], 60)


class TestDim16Hull:
    """The largest layout within the hull budget: dimension 16, 128 vertices."""

    def test_layout_size(self):
        structure = LAYOUTS["dim16"]
        assert structure.dimension == polytope.MAX_HULL_DIMENSION
        assert len(enumerate_vertices(structure)) == polytope.MAX_HULL_VERTICES

    def test_every_facet_passes_oracle(self, tmp_path_factory):
        assert_oracle_passes(tmp_path_factory, LAYOUTS["dim16"], 220)


@pytest.mark.slow
def test_three_by_four_hull(tmp_path_factory, monkeypatch):
    # three settings against four, every cross joint: dimension 19, above
    # the CLI's budget, and the one hull whose two-word prefilter meets
    # millions of pairs; 17-23 s of DD CPU on a 2-core VM, so it runs under
    # `pytest -m slow`
    monkeypatch.setattr(polytope, "MAX_HULL_DIMENSION", 19)
    structure = full_layout(3, 4)
    path = facets_file(tmp_path_factory, structure)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == FACETS_3X4
    facets = [Inequality.from_json(doc) for doc in json.loads(data)["facets"]]
    assert len(facets) == 12480
    masks = tight_masks(facets, structure)
    assert orbit_sizes(masks, structure) == [48, 144, 2304, 2304, 3072, 4608]


def vertex_range(ineq, structure):
    """(min, max) of the form over the listed vertices: the oracle that
    ``classical_range`` replaced, with its own common denominator."""
    order = structure.term_order()
    den = math.lcm(*(c.denominator for c in ineq.coeffs.values()))
    terms = [(p, int(ineq.coeffs[k] * den)) for p, k in enumerate(order) if k in ineq.coeffs]
    values = [sum(c for p, c in terms if v[p]) for v in enumerate_vertices(structure)]
    return Fraction(min(values), den), Fraction(max(values), den)


@st.composite
def range_cases(draw, max_events=9):
    """(inequality, structure) on a random layout of two or three sides
    with at most ``max_events`` events, random cross joints, Fraction
    coefficients and at most one bound."""
    n_sides = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n_sides, max_size=n_sides))
    assume(sum(sizes) <= max_events)
    events = draw(st.permutations(range(1, sum(sizes) + 1)))
    cuts = list(itertools.accumulate(sizes, initial=0))
    sides = tuple(tuple(sorted(events[a:b])) for a, b in zip(cuts, cuts[1:]))
    cross = [(i, j) for s, t in itertools.combinations(sides, 2) for i in s for j in t]
    joints = draw(st.lists(st.sampled_from(cross), unique=True))
    structure = EventStructure(sum(sizes), sides, tuple(joints))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coeffs = draw(
        st.dictionaries(st.sampled_from(structure.term_order()), fractions.filter(bool), min_size=1)
    )
    bound = draw(st.one_of(st.none(), fractions))
    lower, upper = draw(st.sampled_from([(bound, None), (None, bound)]))
    return Inequality(coeffs, lower, upper), structure


def full_layout(left, right):
    return bipartite(tuple(range(1, left + 1)), tuple(range(left + 1, left + right + 1)))


class TestClassicalRange:
    def test_ch_form(self, ch):
        lo, hi = classical_range(catalog.ch_inequality(), ch)
        assert (lo, hi) == (Fraction(-1), Fraction(0))

    def test_i33_max(self):
        s = catalog.i33_structure()
        lo, hi = classical_range(catalog.i33_inequality(), s)
        assert hi == 0
        assert lo < 0

    def test_single_point(self, single):
        # evaluate gives the form's value at one vertex
        ineq = Inequality({1: 5, (1, 2): -3})
        assert reference.evaluate(ineq, (0, 0, 0), single) == 0
        assert reference.evaluate(ineq, (1, 1, 1), single) == 2
        assert classical_range(ineq, single) == (0, 5)

    def test_key_mismatch(self, single):
        with pytest.raises(InputError):
            classical_range(Inequality({7: 1}), single)

    @pytest.mark.parametrize(
        "structure,ineqs",
        [
            (reference.single_setting_structure(), [reference.trivial_facet()]),
            (
                catalog.ch_structure(),
                [catalog.ch_inequality(), reference.ch_inequality_printed_variant(),
                 *reference.ch_family()],
            ),
            (catalog.i33_structure(), [catalog.i33_inequality()]),
        ],
        ids=["single", "ch", "i33"],
    )
    def test_catalog_layouts(self, structure, ineqs):
        for ineq in ineqs + hull_of(structure):
            assert classical_range(ineq, structure) == vertex_range(ineq, structure)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=range_cases())
    @example(
        case=(
            Inequality({(1, 9): Fraction(-3, 2), 2: Fraction(5, 3), (8, 16): -1, 16: 2}, upper=1),
            full_layout(8, 8),
        )
    )
    @example(
        case=(
            Inequality({(1, 3): 1, (2, 4): 1, (3, 5): -1, (1, 5): Fraction(1, 2), 4: -1}),
            EventStructure(5, ((1, 2), (3, 4), (5,)), ((1, 3), (2, 4), (3, 5), (1, 5), (2, 5))),
        )
    )
    def test_matches_vertex_oracle(self, case):
        ineq, structure = case
        assert classical_range(ineq, structure) == vertex_range(ineq, structure)

    def test_ten_by_ten_lists_no_vertex(self, monkeypatch):
        structure = full_layout(10, 10)
        rng = random.Random(5)
        ineq = Inequality({k: rng.randint(-9, 9) for k in structure.term_order()})
        monkeypatch.setattr(polytope, "enumerate_vertices", None)
        lo, hi = classical_range(ineq, structure)
        assert lo <= 0 <= hi and lo < hi

    def test_event_budget(self):
        s = EventStructure(21, (tuple(range(1, 11)), tuple(range(11, 22))), ())
        with pytest.raises(BudgetError):
            classical_range(Inequality({1: 1}), s)


class TestVerifyFacet:
    def test_printed_variant_invalid(self, ch, ch_vertices):
        check = verify_facet(
            reference.ch_inequality_printed_variant(), ch_vertices, ch
        )
        assert not check.valid
        assert check.witness is not None
        ineq = reference.ch_inequality_printed_variant()
        value = reference.evaluate(ineq, check.witness, ch)
        assert value > ineq.upper or value < ineq.lower
        # in particular the vertex with settings (0,1,1,0) gives value +1
        vertex = next(v for v in ch_vertices if v[:4] == (0, 1, 1, 0))
        assert reference.evaluate(ineq, vertex, ch) == 1

    def test_nonneg_single(self, ch, ch_vertices):
        check = verify_facet(Inequality({1: 1}, lower=0), ch_vertices, ch)
        assert check.valid

    def test_valid_but_not_facet(self, ch, ch_vertices):
        # a loose valid bound is not tight enough to be a facet
        check = verify_facet(Inequality({1: 1}, upper=2), ch_vertices, ch)
        assert check.valid and not check.is_facet


class TestVerifyFacetLifted:
    """The oracle on the 3x4 layout (dimension 19, 128 vertices).

    Zero-lifting a facet to an added setting keeps it a facet (Pironio,
    J. Math. Phys. 46, 062112, 2005), so the catalog inequalities, renamed
    into 1-3 | 4-7, are 3x4 facets.
    """

    CH_EVENTS = {1: 1, 2: 2, 3: 4, 4: 5}
    I33_EVENTS = {e: e for e in range(1, 7)}

    @pytest.fixture(scope="class")
    def layout(self):
        structure = bipartite((1, 2, 3), (4, 5, 6, 7))
        return structure, enumerate_vertices(structure)

    def check(self, ineq, layout):
        structure, vertices = layout
        return verify_facet(ineq, vertices, structure)

    def test_lifted_ch_both_bounds(self, layout):
        ch = relabelled(catalog.ch_inequality(), self.CH_EVENTS)
        assert self.check(ch, layout) == FacetCheck(True, 128, True)

    def test_lifted_i33(self, layout):
        i33 = relabelled(catalog.i33_inequality(), self.I33_EVENTS)
        assert self.check(i33, layout) == FacetCheck(True, 40, True)

    def test_positivity(self, layout):
        assert self.check(Inequality({(3, 7): 1}, lower=0), layout) == FacetCheck(True, 96, True)

    def test_sum_is_valid_not_facet(self, layout):
        ch = relabelled(catalog.ch_inequality(), self.CH_EVENTS)
        i33 = relabelled(catalog.i33_inequality(), self.I33_EVENTS)
        total = {k: ch.coeffs.get(k, 0) + i33.coeffs.get(k, 0) for k in {*ch.coeffs, *i33.coeffs}}
        check = self.check(Inequality(total, upper=0), layout)
        assert check == FacetCheck(True, 28, False)

    def test_lifted_printed_variant_invalid(self, layout):
        printed = relabelled(reference.ch_inequality_printed_variant(), self.CH_EVENTS)
        check = self.check(printed, layout)
        # settings 2 and 5 up, the rest down: -p25 - p5 = -2, below the lower bound -1
        witness = (0, 1, 0, 0, 1, 0, 0) + (0,) * 5 + (1,) + (0,) * 6
        assert check == FacetCheck(False, 96, False, witness)
        assert reference.evaluate(printed, witness, layout[0]) == -2


def oracle_definition(ineq, vertices, structure):
    """``verify_facet`` as defined: the first violating vertex in input order,
    and for each finite bound a tight set one affine dimension below the
    vertex set."""
    order = structure.term_order()
    values = [sum(ineq.coeffs.get(k, 0) * x for k, x in zip(order, v)) for v in vertices]
    bounds = [b for b in (ineq.lower, ineq.upper) if b is not None]
    witness = next(
        (
            v
            for v, val in zip(vertices, values)
            if (ineq.lower is not None and val < ineq.lower)
            or (ineq.upper is not None and val > ineq.upper)
        ),
        None,
    )
    tight = [[v for v, val in zip(vertices, values) if val == b] for b in bounds]
    dim = affine_rank(vertices)
    is_facet = witness is None and bool(bounds) and all(affine_rank(t) == dim - 1 for t in tight)
    return FacetCheck(witness is None, sum(map(len, tight)), is_facet, witness)


@functools.cache
def hull_of(structure):
    return hull_facets(enumerate_vertices(structure), structure)


@st.composite
def oracle_cases(draw):
    """(inequality, vertex list, structure) on a random layout of up to five
    events.

    The vertices are all of them, a random subset, a random subset of a
    face t_e = b, or a single vertex, in random order.  The coefficients are
    random integers or those of a facet of the layout.  Each bound is absent,
    one below, at or one above the least value over the vertices (lower), or
    one above, at or one below the greatest (upper).
    """
    n_left = draw(st.integers(1, 3))
    n_right = draw(st.integers(0, 5 - n_left))
    left = tuple(range(1, n_left + 1))
    right = tuple(range(n_left + 1, n_left + n_right + 1))
    cross = [(i, j) for i in left for j in right]
    joints = draw(st.lists(st.sampled_from(cross), unique=True)) if cross else []
    structure = EventStructure(n_left + n_right, (left, right) if right else (left,), tuple(joints))
    all_vertices = enumerate_vertices(structure)
    kind = draw(st.sampled_from(["all"] * 3 + ["subset", "face"] * 2 + ["single"]))
    if kind == "face":
        e, b = draw(st.integers(0, structure.n_single - 1)), draw(st.integers(0, 1))
        all_vertices = [v for v in all_vertices if v[e] == b]
    if kind == "single":
        vertices = [draw(st.sampled_from(all_vertices))]
    elif kind == "all":
        vertices = draw(st.permutations(all_vertices))
    else:
        vertices = draw(st.lists(st.sampled_from(all_vertices), min_size=1, unique=True))
    order = structure.term_order()
    if draw(st.booleans()):
        coeffs = draw(st.sampled_from(hull_of(structure))).coeffs
    else:
        coeffs = draw(
            st.dictionaries(st.sampled_from(order), st.integers(-2, 2).filter(bool), min_size=1)
        )
    values = [sum(coeffs.get(k, 0) * x for k, x in zip(order, v)) for v in vertices]
    offsets = st.one_of(st.none(), st.sampled_from([-1, 0, 0, 1]))
    lo, up = draw(offsets), draw(offsets)
    lower = None if lo is None else min(values) + lo
    upper = None if up is None else max(values) - up
    assume(lower is None or upper is None or lower <= upper)
    return Inequality(coeffs, lower, upper), vertices, structure


class TestVerifyFacetDefinition:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=oracle_cases())
    # the whole 3x3 vertex set under the catalog inequality
    @example(
        case=(
            catalog.i33_inequality(),
            enumerate_vertices(catalog.i33_structure()),
            catalog.i33_structure(),
        )
    )
    def test_matches_definition(self, case):
        assert verify_facet(*case) == oracle_definition(*case)

    def test_zero_dimensional(self, single):
        # one vertex spans a point (rank 0): a valid bound no vertex attains
        # has the empty tight set, rank -1 = 0 - 1, and counts as a facet;
        # an attained bound leaves rank 0 and does not
        vertex = [(1, 1, 1)]
        assert verify_facet(Inequality({1: 1}, upper=2), vertex, single) == FacetCheck(
            True, 0, True
        )
        assert verify_facet(Inequality({1: 1}, upper=1), vertex, single) == FacetCheck(
            True, 1, False
        )
        assert verify_facet(Inequality({1: 1}, upper=0), vertex, single) == FacetCheck(
            False, 0, False, (1, 1, 1)
        )

    def test_empty_vertex_list(self, single):
        assert verify_facet(Inequality({1: 1}, upper=0), [], single) == FacetCheck(True, 0, False)


class TestInequality:
    def test_json_roundtrip(self, ch):
        ineq = catalog.ch_inequality()
        back = Inequality.from_json(json.loads(json.dumps(ineq.to_json())))
        assert back.canonical_key(ch) == ineq.canonical_key(ch)

    def test_fractional_bounds_json(self, single):
        ineq = Inequality({1: Fraction(1, 2)}, upper=Fraction(3, 4))
        back = Inequality.from_json(ineq.to_json())
        assert back.coeffs[1] == Fraction(1, 2)
        assert back.upper == Fraction(3, 4)

    def test_needs_nonzero_coeff(self):
        with pytest.raises(InputError):
            Inequality({1: 0})

    def test_bounds_ordered(self):
        with pytest.raises(InputError):
            Inequality({1: 1}, lower=1, upper=0)

    @pytest.mark.parametrize(
        "doc",
        [{"coeffs": [], "lower": 0}, {"coeffs": None}, {"coeffs": "1"}, [], None],
        ids=["coeffs-array", "coeffs-null", "coeffs-string", "array", "null"],
    )
    def test_from_json_wrong_container(self, doc):
        with pytest.raises(InputError):
            Inequality.from_json(doc)


def test_affine_rank():
    assert affine_rank([]) == -1
    assert affine_rank([(1, 1)]) == 0
    assert affine_rank([(0, 0), (1, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
