import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from bellbounds import catalog
from bellbounds.cli import main
from bellbounds.errors import BudgetError, InputError
from bellbounds.polytope import (
    EventStructure,
    Inequality,
    affine_rank,
    classical_range,
    enumerate_vertices,
    hull_facets,
    verify_facet,
)


@pytest.fixture(scope="module")
def single():
    return catalog.single_setting_structure()


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
}


@functools.cache
def layout_facets(name):
    structure = LAYOUTS[name]
    return hull_facets(enumerate_vertices(structure), structure)


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


def permute_masks(masks, gen, n):
    """Apply an assignment map to vertex bitmasks (binary counting order)."""
    def index(t):
        return sum(t[e] << (n - e) for e in t)

    perm = [
        index(gen({e: (a >> (n - e)) & 1 for e in range(1, n + 1)}))
        for a in range(1 << n)
    ]
    return {sum(1 << perm[a] for a in range(1 << n) if m >> a & 1) for m in masks}


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

    def test_ch_facets(self, ch, ch_vertices):
        facets = hull_facets(ch_vertices, ch)
        assert len(facets) == 24
        got = canon_set(facets, ch)
        assert canon_set(catalog.ch_family(), ch) <= got

    def test_all_facets_pass_oracle(self, ch, ch_vertices):
        for f in hull_facets(ch_vertices, ch):
            check = verify_facet(f, ch_vertices, ch)
            assert check.valid and check.is_facet

    def test_facet_bounds_are_classical_range(self, ch, ch_vertices):
        for f in hull_facets(ch_vertices, ch):
            lo, hi = classical_range(f, ch_vertices, ch)
            if f.lower is not None:
                assert f.lower == lo
            if f.upper is not None:
                assert f.upper == hi

    def test_symmetry_closure(self, ch, ch_vertices):
        # swapping the two left settings maps the facet set onto itself
        perm = {1: 2, 2: 1, 3: 3, 4: 4}

        def relabel(ineq):
            coeffs = {}
            for k, c in ineq.coeffs.items():
                if isinstance(k, int):
                    coeffs[perm[k]] = c
                else:
                    coeffs[(perm[k[0]], perm[k[1]])] = c
            return Inequality(coeffs, ineq.lower, ineq.upper)

        facets = hull_facets(ch_vertices, ch)
        assert canon_set(facets, ch) == canon_set(
            [relabel(f) for f in facets], ch
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

    @pytest.mark.parametrize(
        "name,seeds,block",
        [
            ("ch", range(20), None),
            ("2x3", range(5), None),
            ("2x4", range(5), None),
            # a full shuffle of the 64 vertices makes the hull about 30
            # times slower (the insertion order sets the intermediate ray
            # count), so this one shuffles within consecutive blocks of 8
            ("i33", range(2), 8),
        ],
        ids=["ch", "2x3", "2x4", "i33"],
    )
    def test_vertex_order_invariance(self, name, seeds, block):
        structure = LAYOUTS[name]
        vertices = enumerate_vertices(structure)
        block = block or len(vertices)
        want = [f.to_json() for f in layout_facets(name)]
        for seed in seeds:
            rng = random.Random(seed)
            shuffled = []
            for k in range(0, len(vertices), block):
                part = vertices[k : k + block]
                rng.shuffle(part)
                shuffled += part
            assert [f.to_json() for f in hull_facets(shuffled, structure)] == want

    def test_budget(self, ch):
        with pytest.raises(BudgetError):
            hull_facets([(0,) * 17, tuple([1] + [0] * 16)], ch)

    def test_not_full_dimensional(self, single):
        with pytest.raises(InputError):
            hull_facets([(0, 0, 0), (1, 1, 1)], single)


def facets_file(tmp_path_factory, structure):
    """Run ``polytope facets --out`` on ``structure``; return the output path."""
    tmp = tmp_path_factory.mktemp("facets")
    s = tmp / "structure.json"
    s.write_text(json.dumps(structure.to_json()))
    out = tmp / "facets.json"
    assert main(["polytope", "facets", "--structure", str(s), "--out", str(out)]) == 0
    return out


def assert_oracle_passes(path, structure, count):
    vertices = enumerate_vertices(structure)
    facets = json.loads(path.read_text())["facets"]
    assert len(facets) == count
    for doc in facets:
        check = verify_facet(Inequality.from_json(doc), vertices, structure)
        assert check.valid and check.is_facet


class TestI33Hull:
    """The 684 facets of the three-setting layout (Pitowsky & Svozil 2001)."""

    @pytest.fixture(scope="class")
    def i33_facets_file(self, tmp_path_factory):
        return facets_file(tmp_path_factory, catalog.i33_structure())

    def test_facets_output_bytes(self, i33_facets_file):
        data = i33_facets_file.read_bytes()
        assert len(data) == 180334
        assert (
            hashlib.sha256(data).hexdigest()
            == "315393c30bccec62c21291673811501c799627ce3836ec6bbff53aad8308b4f8"
        )

    def test_every_facet_passes_oracle(self, i33_facets_file):
        assert_oracle_passes(i33_facets_file, catalog.i33_structure(), 684)


class TestTwoByFourHull:
    """The 80 facets of two settings against four, every cross joint."""

    @pytest.fixture(scope="class")
    def facets_2x4_file(self, tmp_path_factory):
        return facets_file(tmp_path_factory, LAYOUTS["2x4"])

    def test_facets_output_bytes(self, facets_2x4_file):
        data = facets_2x4_file.read_bytes()
        assert len(data) == 12444
        assert (
            hashlib.sha256(data).hexdigest()
            == "4609c3756b6d3772afffcd4ad61f0969efd6956254147c42e133eaf9e7dfa481"
        )

    def test_every_facet_passes_oracle(self, facets_2x4_file):
        assert_oracle_passes(facets_2x4_file, LAYOUTS["2x4"], 80)


class TestClassicalRange:
    def test_ch_form(self, ch, ch_vertices):
        lo, hi = classical_range(catalog.ch_inequality(), ch_vertices, ch)
        assert (lo, hi) == (Fraction(-1), Fraction(0))

    def test_i33_max(self):
        s = catalog.i33_structure()
        lo, hi = classical_range(catalog.i33_inequality(), enumerate_vertices(s), s)
        assert hi == 0
        assert lo < 0

    def test_single_point(self, single):
        ineq = Inequality({1: 5, (1, 2): -3})
        assert classical_range(ineq, [(0, 0, 0)], single) == (0, 0)

    def test_key_mismatch(self, single):
        with pytest.raises(InputError):
            classical_range(Inequality({7: 1}), enumerate_vertices(single), single)


class TestVerifyFacet:
    def test_valid_ch_variant(self, ch, ch_vertices):
        check = verify_facet(catalog.ch_inequality(), ch_vertices, ch)
        assert check.valid
        assert check.is_facet
        assert check.witness is None

    def test_printed_variant_invalid(self, ch, ch_vertices):
        check = verify_facet(
            catalog.ch_inequality_printed_variant(), ch_vertices, ch
        )
        assert not check.valid
        assert check.witness is not None
        ineq = catalog.ch_inequality_printed_variant()
        value = ineq.evaluate(check.witness, ch)
        assert value > ineq.upper or value < ineq.lower
        # in particular the vertex with settings (0,1,1,0) gives value +1
        vertex = next(v for v in ch_vertices if v[:4] == (0, 1, 1, 0))
        assert ineq.evaluate(vertex, ch) == 1

    def test_nonneg_single(self, ch, ch_vertices):
        check = verify_facet(Inequality({1: 1}, lower=0), ch_vertices, ch)
        assert check.valid

    def test_valid_but_not_facet(self, ch, ch_vertices):
        # a loose valid bound is not tight enough to be a facet
        check = verify_facet(Inequality({1: 1}, upper=2), ch_vertices, ch)
        assert check.valid and not check.is_facet


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


def test_affine_rank():
    assert affine_rank([]) == -1
    assert affine_rank([(1, 1)]) == 0
    assert affine_rank([(0, 0), (1, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
