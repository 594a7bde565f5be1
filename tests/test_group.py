import itertools
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import pytest

from pinwheel import (
    Chain,
    CycloNum,
    DecoratedSubset,
    GenPerm,
    PinwheelStratum,
    TCosetHandle,
    YPoint,
    act_on_chain,
    act_on_coset,
    act_on_tuple,
    act_on_stratum,
    block_product_elements,
    chain_layers,
    chain_to_coset,
    chain_to_face_vertices,
    chain_to_stratum,
    coarsenings,
    contract_spoke_edges,
    coset_elements,
    coset_to_chain,
    enumerate_chains,
    enumerate_group,
    enumerate_vertices,
    face_membership,
    face_membership_product_form,
    generate_subgroup,
    generator,
    group_order,
    hyperplane_eval,
    hyperplanes_to_chain,
    identity,
    inverse,
    maximal_refinements,
    multiply,
    refines,
    stratum_to_chain,
    verify_nonemptiness,
)
from pinwheel import faces
from pinwheel.cyclo import _of_fields
from pinwheel.group import _act_on_coords

from conftest import (
    KEY_RN,
    SMALL_RN,
    DenseMatrix,
    base_stratum,
    count_builds,
    random_genperm,
    random_ypoints,
    sample,
)


def dense(g: GenPerm) -> DenseMatrix:
    return DenseMatrix.from_genperm(g)


def one_of_each(r: int, n: int) -> dict:
    """One object of each kind that lives over (r, n)."""
    chain = Chain(r, n, (), ())
    return {
        "matrix": identity(r, n),
        "point": YPoint(r, ((0, 0),) * n),
        "chain": chain,
        "coset": chain_to_coset(chain),
        "stratum": base_stratum(r, n),
    }


# Every function that takes two objects which must share one (r, n), with
# the kinds of its two arguments.
SAME_SPACE_SITES = {
    "multiply": (multiply, "matrix", "matrix"),
    "act_on_tuple": (act_on_tuple, "point", "matrix"),
    "refines": (refines, "chain", "chain"),
    "act_on_chain": (act_on_chain, "chain", "matrix"),
    "act_on_coset": (act_on_coset, "coset", "matrix"),
    "act_on_stratum": (act_on_stratum, "stratum", "matrix"),
    "face_membership": (face_membership, "point", "chain"),
    "face_membership_product_form": (face_membership_product_form, "point", "chain"),
}


class TestGenerators:
    def test_s0_at_r2_n2_is_diag_minus_one_one(self):
        s0 = generator(2, 2, 0)
        assert dense(s0).entries == [[1, None], [None, 0]]

    def test_s1_at_r2_n2_is_antidiagonal(self):
        s1 = generator(2, 2, 1)
        assert dense(s1).entries == [[None, 0], [0, None]]

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 3), (4, 2)])
    def test_transpositions_are_involutions(self, r, n):
        for i in range(1, n):
            s = generator(r, n, i)
            assert multiply(s, s) == identity(r, n)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (5, 3)])
    def test_s0_has_order_r(self, r, n):
        power = identity(r, n)
        for _ in range(r):
            power = multiply(power, generator(r, n, 0))
        assert power == identity(r, n)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generator(2, 2, 2)
        with pytest.raises(ValueError):
            generator(2, 0, 0)


class TestProduct:
    def test_conjugated_scaling_moves_to_second_column(self):
        # oracle: dense matrix product
        s0, s1 = generator(2, 2, 0), generator(2, 2, 1)
        product = multiply(multiply(s1, s0), s1)
        expected = dense(s1) * dense(s0) * dense(s1)
        assert dense(product) == expected
        assert expected.entries == [[0, None], [None, 1]]

    def test_identity_laws(self):
        rng = random.Random(7)
        for r, n in SMALL_RN:
            a = random_genperm(r, n, rng)
            assert multiply(a, identity(r, n)) == a
            assert multiply(identity(r, n), a) == a

    def test_inverse_law(self):
        # Every element of S(r, n) for r <= 5 and n <= 4: 24,942 of them.
        for r, n in itertools.product(range(2, 6), range(5)):
            one = identity(r, n)
            for a in enumerate_group(r, n):
                assert multiply(a, inverse(a)) == one
                assert multiply(inverse(a), a) == one

    def test_product_matches_dense_oracle(self):
        # Every pair in S(3, 3): 26,244 products.
        group = enumerate_group(3, 3)
        matrices = [dense(a) for a in group]
        for (a, da), (b, db) in itertools.product(zip(group, matrices), repeat=2):
            assert dense(multiply(a, b)) == da * db

    def test_associativity(self):
        # Every triple in S(2, 3), 110,592 of them; the inner products come from a table of every pair.
        group = enumerate_group(2, 3)
        products = [[multiply(a, b) for b in group] for a in group]
        for (i, a), (j, _), (k, c) in itertools.product(enumerate(group), repeat=3):
            assert multiply(products[i][j], c) == multiply(a, products[j][k])

    @pytest.mark.parametrize("site", sorted(SAME_SPACE_SITES))
    def test_dimension_mismatch(self, site):
        fn, left, right = SAME_SPACE_SITES[site]
        here = one_of_each(2, 2)
        for r, n in ((2, 3), (3, 2)):
            with pytest.raises(ValueError, match=r"live over different \(r, n\): \(2, 2\) vs "):
                fn(here[left], one_of_each(r, n)[right])
            with pytest.raises(ValueError, match=r"live over different \(r, n\): \(\d, \d\) vs \(2, 2\)"):
                fn(one_of_each(r, n)[left], here[right])


class TestAction:
    def test_quarter_turn_example(self):
        a = GenPerm(2, 2, (2, 1), (1, 0))
        x = YPoint(2, ((Fraction(1), 0), (Fraction(2), 0)))
        moved = act_on_tuple(x, a)
        assert moved.coords == ((Fraction(2), 1), (Fraction(1), 0))

    def test_worked_r3_n4_vertex(self):
        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        x = YPoint(3, tuple((Fraction(i), 0) for i in (1, 2, 3, 4)))
        moved = act_on_tuple(x, a)
        assert moved.coords == (
            (Fraction(4), 0),
            (Fraction(1), 2),
            (Fraction(3), 2),
            (Fraction(2), 1),
        )

    def test_origin_is_fixed(self):
        rng = random.Random(11)
        zero = YPoint(3, ((Fraction(0), 0),) * 3)
        for _ in range(10):
            assert act_on_tuple(zero, random_genperm(3, 3, rng)) == zero

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_coords_key_is_the_images_coords(self, r, n):
        # Every vertex, seeded points with Fraction magnitudes, and a point
        # mixing int and Fraction zeros, each under about 8 spread elements.
        group = enumerate_group(r, n)
        step = max(1, len(group) // 8)
        zeros = YPoint(r, tuple((Fraction(0) if i % 2 else i, i % r) for i in range(n)))
        points = [*enumerate_vertices(r, n), *random_ypoints(r, n, 8, seed=10 * r + n), zeros]
        for k, x in enumerate(points):
            for a in group[k % step :: step]:
                key = _act_on_coords(x.coords, a)
                assert key == act_on_tuple(x, a).coords
                # Each magnitude keeps the type it had in x, a zero included.
                types = [type(x.coords[row - 1][0]) for row in a.row_of_col]
                assert [type(m) for m, _ in key] == types

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
    def test_right_action_law_exhaustive(self, r, n):
        points = [
            YPoint(r, tuple((Fraction(i + 1), (i + 1) % r) for i in range(n))),
            YPoint(r, tuple((Fraction(1, 2), 0) for _ in range(n))),
        ]
        for a, b in itertools.product(enumerate_group(r, n), repeat=2):
            for x in points:
                assert act_on_tuple(act_on_tuple(x, a), b) == act_on_tuple(x, multiply(a, b))


def block_pattern_ok(g: GenPerm, gens: frozenset[int]) -> bool:
    """Independent predicate for the block-diagonal description of a subgroup."""
    missing = sorted(set(range(g.n)) - gens)
    bounds = missing + [g.n]
    start = 0
    for idx, bound in enumerate(bounds):
        block = range(start + 1, bound + 1)
        for col in block:
            if g.row_of_col[col - 1] not in block:
                return False
            # only the leading block may scale
            if idx > 0 and g.exp_of_col[col - 1] != 0:
                return False
        start = bound
    return True


class TestSubgroups:
    def test_order_six_example(self):
        assert len(generate_subgroup(3, 4, {0, 2})) == 6

    def test_empty_generators(self):
        assert generate_subgroup(3, 3, ()) == frozenset({identity(3, 3)})

    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_full_generating_set(self, r, n):
        assert len(generate_subgroup(r, n, range(n))) == group_order(r, n)

    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)])
    def test_matches_block_diagonal_description(self, r, n):
        for size in range(n + 1):
            for gens in itertools.combinations(range(n), size):
                gens = frozenset(gens)
                expected = frozenset(
                    g for g in enumerate_group(r, n) if block_pattern_ok(g, gens)
                )
                assert generate_subgroup(r, n, gens) == expected


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_group(2, 2)) == 8
        assert len(enumerate_group(3, 2)) == 18
        assert len(enumerate_group(3, 0)) == 1

    def test_deterministic_lexicographic_order(self):
        elements = enumerate_group(3, 2)
        keys = [g.sort_key() for g in elements]
        assert keys == sorted(keys)
        assert len(set(elements)) == len(elements)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3)])
    def test_group_axioms_exhaustive(self, r, n):
        elements = set(enumerate_group(r, n))
        for a in elements:
            assert inverse(a) in elements
        for a, b in itertools.product(elements, repeat=2):
            assert multiply(a, b) in elements


def assert_is_the_checked(obj) -> None:
    """obj, built from computed fields, is what its checking constructor makes of them."""
    names = [f.name for f in fields(obj)]
    values = [getattr(obj, name) for name in names]
    checked = type(obj)(*values)
    assert obj == checked and hash(obj) == hash(checked)
    assert [type(v) for v in values] == [type(getattr(checked, name)) for name in names]
    # A cached property, such as GenPerm's `_col_of_row`, may follow the fields.
    assert list(vars(obj))[: len(names)] == names == list(vars(checked))


class TestUncheckedWords:
    """Values the library builds with `_of_fields` match the checking constructor."""

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_coset_subgroup_and_generator_elements(self, r, n):
        group = sample(enumerate_group(r, n))
        for c in enumerate_chains(r, n):
            h = chain_to_coset(c)
            images = [act_on_coset(h, a) for a in group]
            for g in [h, h.rep, *images, *(image.rep for image in images), *coset_elements(h)]:
                assert_is_the_checked(g)
        closure = generate_subgroup(r, n, range(n))
        assert len(closure) == group_order(r, n)
        for g in [*closure, *map(inverse, closure), identity(r, n), *(generator(r, n, i) for i in range(n))]:
            assert_is_the_checked(g)

    @pytest.mark.parametrize("r,n", [(r, n) for r, n in KEY_RN if group_order(r, n) <= 400])
    def test_group_elements_and_products(self, r, n):
        group = enumerate_group(r, n)
        for g in group:
            assert_is_the_checked(g)
        for a, b in itertools.product(sample(group, 20), repeat=2):
            assert_is_the_checked(multiply(a, b))
        for c in enumerate_chains(r, n):
            for g in block_product_elements(c):
                assert_is_the_checked(g)

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_chains_and_strata(self, r, n):
        group = sample(enumerate_group(r, n))
        for c in enumerate_chains(r, n):
            s = chain_to_stratum(c)
            built = [c, *coarsenings(c), *maximal_refinements(c), coset_to_chain(chain_to_coset(c)), stratum_to_chain(s)]
            layers = chain_layers(c)
            # Unreduced exponents, as outside input may give them, fold mod r.
            shifted = [DecoratedSubset(d.elements, tuple(e + r for e in d.exps)) for d in layers]
            built += [hyperplanes_to_chain(r, n, layers), hyperplanes_to_chain(r, n, shifted), s]
            for size in range(s.k + 1):
                built += [contract_spoke_edges(s, e) for e in itertools.combinations(range(1, s.k + 1), size)]
            for a in group:
                built += [act_on_chain(c, a), act_on_stratum(s, a)]
            for obj in built:
                assert_is_the_checked(obj)

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_points_subsets_and_values(self, r, n, monkeypatch):
        # Seeded points and one of mixed int and Fraction zeros, for the zero-branch rule.
        zeros = YPoint(r, tuple((Fraction(0) if i % 2 else i, i % r) for i in range(n)))
        points = [*random_ypoints(r, n, 4, seed=10 * r + n), zeros]
        subs = []
        real = faces.point_in_complex
        monkeypatch.setattr(faces, "point_in_complex", lambda x: subs.append(x) or real(x))
        vertices = enumerate_vertices(r, n)
        built = [act_on_tuple(x, a) for x in [*sample(vertices), *points] for a in sample(enumerate_group(r, n))]
        for c in enumerate_chains(r, n):
            face = sorted(chain_to_face_vertices(c), key=lambda v: v.coords)
            layers = chain_layers(c)
            built += [*sample(face), *layers]
            for x in [*sample(face, 2), points[0], zeros]:
                built += [hyperplane_eval(x, s.elements, dict(zip(s.elements, s.exps))) for s in layers]
            for x in points:
                face_membership_product_form(x, c)
        assert len(subs) >= len(points) * len(enumerate_chains(r, n))
        for obj in [*vertices, *built, *subs]:
            assert_is_the_checked(obj)

    @pytest.mark.parametrize("r,n", [(r, n) for r, n in KEY_RN if group_order(r, n) <= 400])
    def test_nonempty_subset_table(self, r, n, monkeypatch):
        # The suite names hyperplanes by their keys, so the only decorated
        # subsets it builds are the `chain_layers` outputs it compares, one
        # per set of each chain, and it checks none of them.
        built = count_builds(monkeypatch, DecoratedSubset)
        assert verify_nonemptiness(r, n).ok
        assert built[DecoratedSubset] == sum(c.length for c in enumerate_chains(r, n))
        assert built[DecoratedSubset, "checked"] == 0

    @pytest.mark.parametrize(
        "values",
        [
            (GenPerm, 3, 2, (2, 1), (0, 2)),
            (Chain, 2, 2, ((1,), (1, 2)), ((1, 0), (2, 1))),
            (PinwheelStratum, 2, 2, (((2, 0),),)),
            (TCosetHandle, frozenset({1}), GenPerm(2, 2, (1, 2), (0, 0))),
            (YPoint, 2, ((1, 1), (0, 0))),
            (DecoratedSubset, (1, 2), (0, 1)),
            (CycloNum, 3, (1, 0)),
        ],
        ids=lambda values: values[0].__name__,
    )
    def test_of_fields_skips_the_checks(self, monkeypatch, values):
        cls, *fields_in_order = values

        def refuse(self):
            raise AssertionError("__post_init__ ran")

        monkeypatch.setattr(cls, "__post_init__", refuse)
        obj = _of_fields(cls, *fields_in_order)
        assert [getattr(obj, f.name) for f in fields(cls)] == fields_in_order


class TestJson:
    def test_roundtrip_and_shape(self):
        g = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        data = g.to_json()
        assert data["cols"][0] == {"col": 1, "row": 4, "exp": 0}
        assert GenPerm.from_json(data) == g

    def test_bad_column_rejected(self):
        g = identity(2, 2)
        data = g.to_json()
        data["cols"][0]["col"] = 2
        with pytest.raises(ValueError):
            GenPerm.from_json(data)

    def test_column_count_is_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 1000000 columns, got 0"):
                GenPerm.from_json({"r": 2, "n": 1000000, "cols": []})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_r_and_n_are_checked_before_the_column_count(self):
        # The text `Chain.from_json` gives for the same pair.
        with pytest.raises(ValueError, match=r"^need r >= 2 and n >= 0, got r=2, n=-1$"):
            GenPerm.from_json({"r": 2, "n": -1, "cols": []})
        with pytest.raises(ValueError, match=r"^need r >= 2 and n >= 0, got r=1, n=1$"):
            GenPerm.from_json({"r": 1, "n": 1, "cols": []})

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            GenPerm(2, 2, (1, 1), (0, 0))
