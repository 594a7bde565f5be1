import ast
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pinwheel import (
    Chain,
    DecoratedSubset,
    DeltaFace,
    GenPerm,
    YPoint,
    act_on_face,
    act_on_tuple,
    chain_dimension,
    chain_to_coset,
    chain_to_face_vertices,
    coset_elements,
    enumerate_chains,
    enumerate_vertices,
    face_dimension_bruteforce,
    face_membership,
    face_membership_product_form,
    face_product_decomposition,
    group_order,
    hasse_dot,
    hyperplanes_to_chain,
    identity,
    make_chain,
    maximal_refinements,
    on_hyperplane,
    point_in_complex,
    shifted_permutohedron_contains,
    verify_nonemptiness,
    vertex_of_maximal_chain,
)
from pinwheel import cosets, faces, group, verify
from pinwheel.chains import _set_chains
from pinwheel.faces import _affine_rank, _face_coords, _hyperplanes_chain_key, chain_layers

from conftest import (
    KEY_RN,
    brute_force_in_complex,
    count_builds,
    decorated_subsets,
    identity_maximal_chain,
    random_ypoints,
    signed,
)

EXAMPLE = make_chain(3, 4, [[3], [2, 3, 4]], {2: 1, 3: 0, 4: 2})
EXAMPLE_COARSE = make_chain(3, 4, [[2, 3, 4]], {2: 1, 3: 0, 4: 2})


def ypt(r, *pairs):
    return YPoint(r, tuple((Fraction(m), b) for m, b in pairs))


def reference_affine_rank(vectors) -> int:
    """Affine rank by Gaussian elimination over the rationals."""
    if not vectors:
        return 0
    base = vectors[0]
    basis: list[list[Fraction]] = []
    for vec in vectors[1:]:
        row = [Fraction(a - b) for a, b in zip(vec, base)]
        for piv in basis:
            lead = next(i for i, v in enumerate(piv) if v)
            if row[lead]:
                factor = row[lead] / piv[lead]
                row = [a - factor * b for a, b in zip(row, piv)]
        if any(row):
            basis.append(row)
    return len(basis)


class TestVertices:
    def test_identity_chain_gives_staircase_point(self):
        v = vertex_of_maximal_chain(identity_maximal_chain(3, 4))
        assert v == ypt(3, (1, 0), (2, 0), (3, 0), (4, 0))

    def test_octagon_vertices(self):
        vertices = {signed(v) for v in enumerate_vertices(2, 2)}
        expected = {
            (Fraction(sx * 2), Fraction(sy * 1)) for sx in (1, -1) for sy in (1, -1)
        } | {
            (Fraction(sx * 1), Fraction(sy * 2)) for sx in (1, -1) for sy in (1, -1)
        }
        assert vertices == expected

    def test_vertex_magnitudes_are_ints(self):
        assert all(type(m) is int for v in enumerate_vertices(3, 3) for m in v.magnitudes())

    def test_worked_action_vertex(self):
        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        chain = identity_maximal_chain(3, 4)
        from pinwheel import act_on_chain

        v = vertex_of_maximal_chain(act_on_chain(chain, a))
        assert v == ypt(3, (4, 0), (1, 2), (3, 2), (2, 1))

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            vertex_of_maximal_chain(EXAMPLE)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_census_and_distinctness(self, r, n):
        vertices = enumerate_vertices(r, n)
        assert len(vertices) == len(set(vertices)) == group_order(r, n)
        assert all(point_in_complex(v) for v in vertices)


class TestFaceVertices:
    def test_maximal_chain_is_its_own_vertex(self):
        c = identity_maximal_chain(2, 3)
        assert chain_to_face_vertices(c) == {vertex_of_maximal_chain(c)}

    def test_length_zero_chain_collects_everything(self):
        assert chain_to_face_vertices(Chain(2, 2, (), ())) == set(enumerate_vertices(2, 2))

    def test_worked_example_has_six_vertices(self):
        assert len(chain_to_face_vertices(EXAMPLE)) == 6

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_matches_membership_filter(self, r, n):
        # independent route: scan every vertex of the complex for membership
        vertices = enumerate_vertices(r, n)
        for c in enumerate_chains(r, n):
            expected = frozenset(v for v in vertices if face_membership(v, c))
            assert chain_to_face_vertices(c) == expected

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
    def test_one_vertex_per_maximal_refinement(self, r, n):
        for c in enumerate_chains(r, n):
            expected = {vertex_of_maximal_chain(m) for m in maximal_refinements(c)}
            assert chain_to_face_vertices(c) == expected

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_vertex_coords_are_the_vertices_fields_in_order(self, r, n):
        for c in enumerate_chains(r, n):
            coords = _face_coords(c)
            assert coords == [vertex_of_maximal_chain(m).coords for m in maximal_refinements(c)]
            assert [YPoint(r, x).coords for x in coords] == coords
            assert len(set(coords)) == len(coords) == len(chain_to_face_vertices(c))
            assert frozenset(YPoint(r, x) for x in coords) == chain_to_face_vertices(c)

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
    def test_face_vertices_take_no_group_product(self, r, n, monkeypatch):
        # The face route is compared against the coset route, so it must not share the product.
        chains = enumerate_chains(r, n)
        expected = {c: _face_coords(c) for c in chains}

        def refuse(*args):
            raise AssertionError("the group product was called")

        monkeypatch.setattr(group, "_product", refuse)
        monkeypatch.setattr(cosets, "_product", refuse)
        with pytest.raises(AssertionError, match="group product"):
            coset_elements(chain_to_coset(chains[0]))
        for c, coords in expected.items():
            assert _face_coords(c) == coords
            assert chain_to_face_vertices(c) == {YPoint(r, x) for x in coords}
            if c.length == n:
                assert vertex_of_maximal_chain(c).coords in coords

    def test_delta_face_wrapper(self):
        face = DeltaFace.from_chain(EXAMPLE)
        assert chain_dimension(face.chain) == 2
        data = face.to_json()
        assert len(data["vertices"]) == len(chain_to_face_vertices(face.chain)) == 6

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_delta_face_json_is_the_point_built_json(self, r, n):
        for c in enumerate_chains(r, n):
            points = sorted(chain_to_face_vertices(c), key=lambda p: p.coords)
            assert DeltaFace(c).to_json() == {
                "chain": c.to_json(),
                "vertices": [v.to_json() for v in points],
            }

    def test_delta_face_derives_its_vertices(self):
        face = DeltaFace(EXAMPLE)
        assert face == DeltaFace.from_chain(EXAMPLE)
        points = sorted(chain_to_face_vertices(face.chain), key=lambda p: p.coords)
        assert face.to_json()["vertices"] == [v.to_json() for v in points]
        with pytest.raises(TypeError):
            DeltaFace(EXAMPLE, frozenset())


class TestPointInComplex:
    def test_staircase_point_is_inside(self):
        assert point_in_complex(ypt(3, (1, 0), (2, 1), (3, 2)))

    def test_singleton_bound(self):
        assert not point_in_complex(ypt(2, (3, 0), (0, 0)))

    def test_pair_bound_beats_singletons(self):
        # both coordinates fit alone but their sum crosses the pair bound
        assert not point_in_complex(ypt(3, (2, 1), (2, 0)))

    def test_empty_point(self):
        assert point_in_complex(YPoint(2, ()))

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 3), (2, 4)])
    def test_matches_all_subsets_oracle(self, r, n):
        for x in random_ypoints(r, n, 300, seed=17 * r + n):
            assert point_in_complex(x) == brute_force_in_complex(x)


class TestFaceMembership:
    def test_worked_example_member(self):
        x = ypt(3, (0, 0), (2, 2), (4, 0), (3, 1))
        assert face_membership(x, EXAMPLE)
        assert face_membership_product_form(x, EXAMPLE)

    def test_wrong_branch_fails(self):
        x = ypt(3, (0, 0), (2, 2), (4, 1), (3, 1))
        assert not face_membership(x, EXAMPLE)

    def test_vertices_are_members(self):
        for v in chain_to_face_vertices(EXAMPLE):
            assert face_membership(v, EXAMPLE)

    def test_tight_sum_fails_when_loose(self):
        x = ypt(3, (0, 0), (2, 2), (3, 0), (3, 1))
        assert not face_membership(x, EXAMPLE)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_product_form_agrees_on_samples(self, r, n):
        for c in enumerate_chains(r, n):
            points = random_ypoints(r, n, 40, seed=hash((r, n)) % 100000)
            points += list(chain_to_face_vertices(c))
            for x in points:
                assert face_membership(x, c) == face_membership_product_form(x, c)


class TestShiftedPermutohedron:
    def test_single_coordinate_is_pinned(self):
        assert shifted_permutohedron_contains([Fraction(4)], 3)
        assert not shifted_permutohedron_contains([Fraction(3)], 3)

    def test_hexagon_vertices(self):
        for perm in itertools.permutations((2, 3, 4)):
            assert shifted_permutohedron_contains([Fraction(v) for v in perm], 1)

    def test_pair_bound_rejected(self):
        assert not shifted_permutohedron_contains([Fraction(4), Fraction(4), Fraction(1)], 1)

    def test_staircase_in_unshifted_permutohedron(self):
        assert shifted_permutohedron_contains([Fraction(v) for v in (3, 2, 1)], 0)

    def test_interior_point(self):
        assert shifted_permutohedron_contains([Fraction(3)] * 3, 1)

    @pytest.mark.parametrize(
        "xs,gamma,what",
        [
            ([2.0, 1.0], 0, "coordinate"),
            ([3, 2], 1.0, "gamma"),
            ([True], 0, "coordinate"),
            (["3"], 0, "coordinate"),
        ],
        ids=["float-coordinate", "float-gamma", "bool-coordinate", "str-coordinate"],
    )
    def test_inexact_values_are_refused(self, xs, gamma, what):
        with pytest.raises(ValueError, match=f"^{what} must be an int or a Fraction"):
            shifted_permutohedron_contains(xs, gamma)


class TestDecoratedSubset:
    @pytest.mark.parametrize(
        "elements,exps,text",
        [
            ((), (), "decorated subset must be nonempty"),
            ((2, 1, 2), (0, 0, 1), "repeated element in (1, 2, 2)"),
            ((1, 1), (0, 0), "repeated element in (1, 1)"),
            ((1, 2), (0,), "decoration must cover exactly the elements"),
            ((1,), (0, 0), "decoration must cover exactly the elements"),
        ],
    )
    def test_a_malformed_subset_is_refused_with_one_text(self, elements, exps, text):
        with pytest.raises(ValueError) as err:
            DecoratedSubset(elements, exps)
        assert str(err.value) == text

    def test_unsorted_elements_are_sorted_with_their_exponents(self):
        s = DecoratedSubset((3, 1, 2), (0, 1, 2))
        assert (s.elements, s.exps) == ((1, 2, 3), (1, 2, 0))
        assert s == DecoratedSubset((1, 2, 3), (1, 2, 0))


class TestHyperplanesToChain:
    def test_worked_example_layers_reassemble(self):
        assert hyperplanes_to_chain(3, 4, chain_layers(EXAMPLE)) == EXAMPLE

    @pytest.mark.parametrize("nesting", [True, False])
    @pytest.mark.parametrize("r,n", [(0, 2), (2.0, 2), (2, -1)])
    def test_a_bad_pair_is_refused_before_any_arithmetic(self, r, n, nesting):
        # The nesting family reaches the mod-r decoration test; the other fails to nest.
        top = DecoratedSubset((1, 2), (0, 0)) if nesting else DecoratedSubset((2,), (0,))
        with pytest.raises(ValueError) as err:
            hyperplanes_to_chain(r, n, [DecoratedSubset((1,), (0,)), top])
        assert str(err.value) == f"need r >= 2 and n >= 0, got r={r!r}, n={n!r}"

    @pytest.mark.parametrize(
        "family,text",
        [
            # a family that does not nest, one that repeats a set, and an element 0
            ([DecoratedSubset((5,), (0,)), DecoratedSubset((6,), (0,))], "element 5"),
            ([DecoratedSubset((1, 5), (0, 0)), DecoratedSubset((1, 5), (1, 0))], "element 5"),
            ([DecoratedSubset((0, 1), (0, 0))], "element 0"),
        ],
    )
    def test_an_element_out_of_range_is_refused(self, family, text):
        with pytest.raises(ValueError) as err:
            hyperplanes_to_chain(2, 2, family)
        assert str(err.value) == f"{text} out of range 1..2"

    def test_incomparable_sets(self):
        subsets = [DecoratedSubset((1,), (0,)), DecoratedSubset((2,), (0,))]
        assert hyperplanes_to_chain(2, 2, subsets) is None

    def test_conflicting_decorations(self):
        subsets = [DecoratedSubset((1,), (0,)), DecoratedSubset((1,), (1,))]
        assert hyperplanes_to_chain(2, 2, subsets) is None

    def test_inconsistent_overlap(self):
        subsets = [
            DecoratedSubset((1,), (0,)),
            DecoratedSubset((1, 2), (1, 0)),
        ]
        assert hyperplanes_to_chain(3, 2, subsets) is None

    def test_duplicates_rejected(self):
        s = DecoratedSubset((1,), (0,))
        with pytest.raises(ValueError):
            hyperplanes_to_chain(2, 2, [s, s])

    def test_duplicates_modulo_r_rejected(self):
        # Exponents 0 and 2 name one branch at r = 2: the scan sees one
        # hyperplane twice, and the assembly refuses it as a repeat.
        family = [DecoratedSubset((1,), (0,)), DecoratedSubset((1,), (2,))]
        assert vertex_meet(enumerate_vertices(2, 2), family)
        with pytest.raises(ValueError, match="^duplicate decorated subsets$"):
            hyperplanes_to_chain(2, 2, family)


def hyperplane_families(r: int, n: int):
    """Every family of at most n distinct decorated subsets, in the nonempty suite's order."""
    subsets = decorated_subsets(r, n)
    for size in range(1, n + 1):
        yield from itertools.combinations(subsets, size)


def hyperplane_keys(family) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (elements, exps) keys that `_hyperplanes_chain_key` takes, as the nonempty suite names hyperplanes."""
    return [(s.elements, s.exps) for s in family]


def scan_ids(vertices, s: DecoratedSubset) -> frozenset[int]:
    """Positions, within `vertices` (an `enumerate_vertices` result), of the vertices on s's hyperplane.

    A per-pair scan through the public, gated `on_hyperplane`, which checks
    s's elements on every call; independent of the combinatorial nesting test.
    """
    decoration = dict(zip(s.elements, s.exps))
    return frozenset(i for i, v in enumerate(vertices) if on_hyperplane(v, s.elements, decoration))


def vertex_meet(vertices, family) -> frozenset[int]:
    """Positions of the vertices on every hyperplane of the family, by the exhaustive scan."""
    hit = frozenset(range(len(vertices)))
    for s in family:
        hit &= scan_ids(vertices, s)
    return hit


class TestHyperplanesChainKey:
    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_key_is_the_assembled_chains_fields(self, r, n):
        for family in hyperplane_families(r, n):
            chain = hyperplanes_to_chain(r, n, family)
            key = _hyperplanes_chain_key(r, hyperplane_keys(family))
            assert key == (None if chain is None else (chain.sets, chain.decoration)), family

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_key_ignores_order_and_exponent_shifts(self, r, n, rng):
        for family in hyperplane_families(r, n):
            moved = [(s.elements, tuple([e + rng.choice((-r, r)) for e in s.exps])) for s in family]
            rng.shuffle(moved)
            assert _hyperplanes_chain_key(r, moved) == _hyperplanes_chain_key(r, hyperplane_keys(family)), family

    def test_violations_name_families_in_combinations_order(self, monkeypatch):
        # A key builder that assembles nothing makes every family that meets
        # a violation, named in the order the suite walks them.
        r, n = 2, 3
        monkeypatch.setattr(verify, "_hyperplanes_chain_key", lambda r, family: None)
        prefix = "sortability and vertex scan disagree on "
        violations = verify_nonemptiness(r, n).violations
        named = [ast.literal_eval(v[len(prefix) :]) for v in violations if v.startswith(prefix)]
        vertices = enumerate_vertices(r, n)
        families = [family for family in hyperplane_families(r, n) if vertex_meet(vertices, family)]
        expected = [[dict(zip(s.elements, s.exps)) for s in family] for family in families]
        assert len(expected) == len(enumerate_chains(r, n)) - 1 == 146
        assert named == expected == [ast.literal_eval(v[len(prefix) :]) for v in violations]


class TestNonemptyOracle:
    """The hyperplane scan's intersections against the nesting test.

    The nonempty suite calls the key builder only on families that meet and
    on pairs.  The walk here covers every family of at most n hyperplanes,
    so it also catches a key builder that accepts a family of three or more
    that does not nest while it refuses each of that family's pairs.
    """

    def test_chain_layers_are_nonempty(self):
        assert vertex_meet(enumerate_vertices(3, 4), chain_layers(EXAMPLE))

    def test_incomparable_sets_are_empty(self):
        subsets = [DecoratedSubset((1,), (0,)), DecoratedSubset((2,), (0,))]
        assert not vertex_meet(enumerate_vertices(2, 2), subsets)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_every_vertex_lies_on_exactly_n_hyperplanes(self, r, n):
        # The nonempty suite reports a larger vertex star instead of taking its subfamilies.
        vertices = enumerate_vertices(r, n)
        on_ids = [scan_ids(vertices, s) for s in decorated_subsets(r, n)]
        stars = Counter(v for ids in on_ids for v in ids)
        assert sorted(set(stars.values())) == [n] and len(stars) == group_order(r, n)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_grouped_scan_is_the_per_pair_scan(self, r, n):
        # The suite's scan evaluates each distinct restriction once per
        # subset; each on-set must be the gated per-pair scan's.
        vertices = enumerate_vertices(r, n)
        keys, on_ids = verify._hyperplane_scan(r, n, [v.coords for v in vertices])
        subsets = decorated_subsets(r, n)
        assert keys == hyperplane_keys(subsets)
        assert on_ids == [scan_ids(vertices, s) for s in subsets]

    def test_empty_family_is_everything(self):
        assert hyperplanes_to_chain(3, 2, []) == Chain(3, 2, (), ())
        everything = len(vertex_meet(enumerate_vertices(3, 2), []))
        assert len(chain_to_face_vertices(Chain(3, 2, (), ()))) == everything == group_order(3, 2)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_agrees_with_sortability(self, r, n):
        # Every family, walked grouped by all but its last hyperplane, so each
        # prefix's vertex ids are intersected once.
        subsets = decorated_subsets(r, n)
        vertices = enumerate_vertices(r, n)
        on_ids = [scan_ids(vertices, s) for s in subsets]
        vertex_ids = {v: i for i, v in enumerate(vertices)}
        face_ids = {
            (c.sets, c.decoration): frozenset(vertex_ids[v] for v in chain_to_face_vertices(c))
            for c in enumerate_chains(r, n)
        }
        everything = frozenset(vertex_ids.values())
        walked = 0
        for size in range(1, n + 1):
            for prefix in itertools.combinations(range(len(subsets) - 1), size - 1):
                head = everything
                for i in prefix:
                    head &= on_ids[i]
                for j in range(prefix[-1] + 1 if prefix else 0, len(subsets)):
                    family = [subsets[i] for i in (*prefix, j)]
                    key = _hyperplanes_chain_key(r, hyperplane_keys(family))
                    hit = head & on_ids[j]
                    assert (key is not None) == bool(hit), family
                    assert key is None or hit == face_ids[key], family
                    walked += 1
        assert walked == sum(math.comb(len(subsets), size) for size in range(1, n + 1))


class TestDimension:
    def test_maximal_chain_is_zero(self):
        assert face_dimension_bruteforce(identity_maximal_chain(3, 3)) == 0

    def test_whole_complex_is_full(self):
        assert face_dimension_bruteforce(Chain(3, 2, (), ())) == 2
        assert face_dimension_bruteforce(Chain(2, 3, (), ())) == 3

    def test_worked_example(self):
        assert face_dimension_bruteforce(EXAMPLE) == 2

    def test_branch_only_segment(self):
        # a Y-shaped face: one pinned coordinate, one roaming coordinate
        c = make_chain(3, 2, [[1]], {1: 2})
        assert face_dimension_bruteforce(c) == 1

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_equals_colength(self, r, n):
        for c in enumerate_chains(r, n):
            assert face_dimension_bruteforce(c) == n - c.length

    @pytest.mark.parametrize("r,n,distinct", [(2, 3, 26), (3, 3, 26), (2, 4, 150)])
    def test_face_dimension_once_per_set_chain(self, r, n, distinct):
        # The oracle reads only n and the sets, so over every chain it takes
        # one rank per set chain, and each is the rank a cold cache takes.
        cache = faces._face_dimension
        cache.cache_clear()
        chains = enumerate_chains(r, n)
        dims = [face_dimension_bruteforce(c) for c in chains]
        assert cache.cache_info().misses == len(_set_chains(n)) == distinct
        for c, dim in zip(chains, dims):
            cache.cache_clear()
            assert face_dimension_bruteforce(c) == dim
            assert cache.cache_info().misses == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_affine_rank_matches_rational_elimination(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            dim = rng.randint(1, 6)
            bound = rng.choice([1, 4, 10**6])
            vecs = [
                tuple(rng.randint(-bound, bound) for _ in range(dim))
                for _ in range(rng.randint(0, 6))
            ]
            if vecs:
                # a duplicate, the origin and an integer affine combination
                # of two rows keep most families rank-deficient
                a, b = rng.choice(vecs), rng.choice(vecs)
                k = rng.randint(-3, 3)
                vecs += [rng.choice(vecs), (0,) * dim, tuple(x + k * (y - x) for x, y in zip(a, b))]
                rng.shuffle(vecs)
            assert _affine_rank(vecs) == reference_affine_rank(vecs), vecs


class TestProductDecomposition:
    def test_worked_example(self):
        factors = face_product_decomposition(EXAMPLE)
        assert [(f.kind, f.block, f.size) for f in factors] == [
            ("complex", 0, 1),
            ("permutohedron", 1, 1),
            ("permutohedron", 2, 2),
        ]
        assert factors[1].shift == 3 and factors[2].shift == 1
        assert factors[2].branch_exps == ((2, 2), (4, 1))

    def test_coarser_example_is_hexagon(self):
        factors = face_product_decomposition(EXAMPLE_COARSE)
        assert [(f.kind, f.size, f.shift) for f in factors] == [
            ("complex", 1, None),
            ("permutohedron", 3, 1),
        ]

    def test_length_zero_chain(self):
        factors = face_product_decomposition(Chain(3, 2, (), ()))
        assert [(f.kind, f.size) for f in factors] == [("complex", 2)]

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_dimension_bookkeeping(self, r, n):
        for c in enumerate_chains(r, n):
            factors = face_product_decomposition(c)
            total = factors[0].size + sum(f.size - 1 for f in factors[1:])
            assert total == n - c.length


class TestActOnFace:
    def test_identity(self):
        assert act_on_face(EXAMPLE, identity(3, 4)) == EXAMPLE

    def test_quarter_turn_vertex(self):
        a = GenPerm(2, 2, (2, 1), (1, 0))
        x = ypt(2, (1, 0), (2, 0))
        assert signed(act_on_tuple(x, a)) == (Fraction(-2), Fraction(1))

    def test_vertex_sets_track_the_action(self):
        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        image = act_on_face(EXAMPLE, a)
        assert chain_to_face_vertices(image) == {
            act_on_tuple(v, a) for v in chain_to_face_vertices(EXAMPLE)
        }

    def test_builds_no_point(self, monkeypatch):
        # The length-0 chain at (2, 8) has 10,321,920 vertices; the action
        # lists none of them.
        c, a = Chain(2, 8, (), ()), GenPerm(2, 8, (8, 1, 2, 3, 4, 5, 6, 7), (1, 0, 1, 0, 0, 0, 0, 1))
        built = count_builds(monkeypatch, YPoint)
        monkeypatch.setattr(faces, "_face_coords", lambda c: pytest.fail("listed a face's vertices"))
        assert act_on_face(c, a) == c
        assert built[YPoint] == 0


class TestVertexIncidence:
    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
    def test_vertex_lies_on_exactly_its_chain_layers(self, r, n):
        # a vertex satisfies a decorated-subset hyperplane exactly when that
        # subset is a layer of the vertex's maximal chain
        from pinwheel import on_hyperplane

        for chain in enumerate_chains(r, n):
            if chain.length != n:
                continue
            v = vertex_of_maximal_chain(chain)
            layers = set(chain_layers(chain))
            for size in range(1, n + 1):
                for elems in itertools.combinations(range(1, n + 1), size):
                    for exps in itertools.product(range(r), repeat=size):
                        subset = DecoratedSubset(elems, exps)
                        assert on_hyperplane(v, elems, dict(zip(elems, exps))) == (subset in layers)


class TestHasseDot:
    def test_octagon_poset_shape(self):
        dot = hasse_dot(2, 2)
        assert dot.startswith("digraph")
        node_lines = [line for line in dot.splitlines() if "[label=" in line]
        edge_lines = [line for line in dot.splitlines() if "->" in line]
        assert len(node_lines) == 17
        # every chain of length k covers k chains one dimension up
        assert len(edge_lines) == 8 * 1 + 8 * 2

    def test_deterministic(self):
        assert hasse_dot(3, 2) == hasse_dot(3, 2)
