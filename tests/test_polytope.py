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
        "structure,seeds",
        [
            (catalog.ch_structure(), range(20)),
            (
                EventStructure(
                    5, ((1, 2), (3, 4, 5)), tuple((i, j) for i in (1, 2) for j in (3, 4, 5))
                ),
                range(5),
            ),
        ],
        ids=["ch", "2x3"],
    )
    def test_vertex_order_invariance(self, structure, seeds):
        vertices = enumerate_vertices(structure)
        want = [f.to_json() for f in hull_facets(vertices, structure)]
        for seed in seeds:
            shuffled = list(vertices)
            random.Random(seed).shuffle(shuffled)
            assert [f.to_json() for f in hull_facets(shuffled, structure)] == want

    def test_budget(self, ch):
        with pytest.raises(BudgetError):
            hull_facets([(0,) * 17, tuple([1] + [0] * 16)], ch)

    def test_not_full_dimensional(self, single):
        with pytest.raises(InputError):
            hull_facets([(0, 0, 0), (1, 1, 1)], single)


class TestI33Hull:
    """The 684 facets of the three-setting layout (Pitowsky & Svozil 2001)."""

    @pytest.fixture(scope="class")
    def i33_facets_file(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("i33")
        s = tmp / "structure.json"
        s.write_text(json.dumps(catalog.i33_structure().to_json()))
        out = tmp / "facets.json"
        assert main(["polytope", "facets", "--structure", str(s), "--out", str(out)]) == 0
        return out

    def test_facets_output_bytes(self, i33_facets_file):
        data = i33_facets_file.read_bytes()
        assert len(data) == 180334
        assert (
            hashlib.sha256(data).hexdigest()
            == "315393c30bccec62c21291673811501c799627ce3836ec6bbff53aad8308b4f8"
        )

    def test_every_facet_passes_oracle(self, i33_facets_file):
        s = catalog.i33_structure()
        vertices = enumerate_vertices(s)
        facets = json.loads(i33_facets_file.read_text())["facets"]
        assert len(facets) == 684
        for doc in facets:
            check = verify_facet(Inequality.from_json(doc), vertices, s)
            assert check.valid and check.is_facet


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
