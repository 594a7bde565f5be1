import itertools
import math

import pytest

from pinwheel import (
    Chain,
    GenPerm,
    TCosetHandle,
    act_on_chain,
    act_on_coset,
    block_product_elements,
    chain_to_coset,
    coset_block_decomposition,
    coset_elements,
    coset_to_chain,
    enumerate_chains,
    enumerate_group,
    generate_subgroup,
    generator,
    identity,
    inverse,
    make_chain,
    multiply,
    refines,
)
from pinwheel import cosets, group
from pinwheel.cosets import _act_on_coset_key, _coset_chain_key, _coset_words

from conftest import KEY_RN, random_genperm, sample

EXAMPLE = make_chain(3, 4, [[3], [2, 3, 4]], {2: 1, 3: 0, 4: 2})

# The six coset elements of the worked example, column encoded.
EXAMPLE_ELEMENTS = frozenset(
    [GenPerm(3, 4, (1, 3, 4, 2), (i, 2, 0, 1)) for i in range(3)]
    + [GenPerm(3, 4, (1, 2, 4, 3), (i, 2, 0, 1)) for i in range(3)]
)


def satisfies_block_conditions(a: GenPerm, c: Chain) -> bool:
    """Direct check of the two defining conditions for a coset representative."""
    for s in c.sets:
        rows = {a.row_of_col[col - 1] for col in s}
        if rows != set(range(a.n - len(s) + 1, a.n + 1)):
            return False
    dec = c.decoration_map()
    return all(a.exp_of_col[i - 1] == (-e) % a.r for i, e in dec.items())


class TestChainToCoset:
    def test_worked_example_generators(self):
        handle = chain_to_coset(EXAMPLE)
        assert handle.gens == frozenset({0, 2})

    def test_worked_example_elements(self):
        assert coset_elements(chain_to_coset(EXAMPLE)) == EXAMPLE_ELEMENTS

    def test_length_zero_chain_gives_whole_group(self):
        empty = Chain(3, 2, (), ())
        handle = chain_to_coset(empty)
        assert handle.gens == frozenset({0, 1})
        assert coset_elements(handle) == frozenset(enumerate_group(3, 2))

    def test_identity_maximal_chain(self):
        sets = tuple(tuple(range(4 + 1 - j, 5)) for j in range(1, 5))
        c = Chain(2, 4, sets, tuple((i, 0) for i in range(1, 5)))
        handle = chain_to_coset(c)
        assert handle.gens == frozenset()
        assert handle.rep == identity(2, 4)

    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_representative_satisfies_both_conditions(self, r, n):
        for c in enumerate_chains(r, n):
            rep = chain_to_coset(c).rep
            assert satisfies_block_conditions(rep, c)


class TestCosetToChain:
    def test_worked_example_roundtrip(self):
        assert coset_to_chain(chain_to_coset(EXAMPLE)) == EXAMPLE

    def test_whole_group_reads_back_empty_chain(self):
        handle = TCosetHandle(range(2), identity(3, 2))
        assert coset_to_chain(handle) == Chain(3, 2, (), ())

    def test_singleton_of_random_element(self, rng):
        # The chain of {A} is the maximal chain of the vertex (1,..,n) * A.
        from pinwheel import act_on_tuple, vertex_of_maximal_chain, YPoint
        from fractions import Fraction

        for _ in range(25):
            a = random_genperm(3, 3, rng)
            chain = coset_to_chain(TCosetHandle((), a))
            assert chain.length == 3
            base = YPoint(3, tuple((Fraction(i), 0) for i in (1, 2, 3)))
            assert vertex_of_maximal_chain(chain) == act_on_tuple(base, a)

    @pytest.mark.parametrize("r,n", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_roundtrip_everywhere(self, r, n):
        for c in enumerate_chains(r, n):
            assert coset_to_chain(chain_to_coset(c)) == c

    def test_gens_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TCosetHandle(frozenset({3}), identity(2, 3))


class TestKeyBuilders:
    """Each key builder yields exactly the fields of the objects its wrapper builds."""

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_coset_words_are_the_elements_fields_in_order(self, r, n):
        for c in enumerate_chains(r, n):
            h = chain_to_coset(c)
            words = _coset_words(h)
            subgroup = generate_subgroup(r, n, h.gens)
            assert words == [multiply(g, h.rep).sort_key() for g in subgroup]
            assert [GenPerm(r, n, *w).sort_key() for w in words] == words
            assert len(set(words)) == len(words) == len(coset_elements(h))
            assert frozenset(GenPerm(r, n, *w) for w in words) == coset_elements(h)

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_coset_chain_key_is_the_roundtrip_chains_fields(self, r, n):
        for c in enumerate_chains(r, n):
            h = chain_to_coset(c)
            back = coset_to_chain(h)
            assert _coset_chain_key(h) == (back.sets, back.decoration) == (c.sets, c.decoration)


class TestCanonicalization:
    def test_any_representative_gives_the_same_handle(self):
        # Every one of the 162 elements of S(3, 3) as the representative.
        gens = frozenset({0, 2})
        subgroup = generate_subgroup(3, 3, gens)
        for rep in enumerate_group(3, 3):
            handle = TCosetHandle(gens, rep)
            assert coset_elements(handle) == frozenset(multiply(g, rep) for g in subgroup)
            assert handle.rep in coset_elements(handle)

    def test_representatives_in_one_coset_collapse(self, rng):
        gens = frozenset({0, 1})
        rep = random_genperm(3, 3, rng)
        handles = {TCosetHandle(gens, multiply(g, rep)) for g in generate_subgroup(3, 3, gens)}
        assert len(handles) == 1

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
    def test_the_constructor_canonicalizes_every_representative(self, r, n):
        for c in enumerate_chains(r, n):
            h = chain_to_coset(c)
            for g in coset_elements(h):
                built = TCosetHandle(h.gens, g)
                assert built == h
                assert built.to_json() == h.to_json()

    def test_an_exponent_in_the_reflection_block_is_dropped(self):
        rep = GenPerm(2, 1, (1,), (1,))
        assert TCosetHandle(frozenset({0}), rep) == TCosetHandle([0], rep)
        assert TCosetHandle(frozenset({0}), rep).rep == identity(2, 1)

    def test_the_constructor_and_act_on_coset_build_no_chain(self, monkeypatch):
        cases = []
        for c in enumerate_chains(2, 2):
            h = chain_to_coset(c)
            for a in enumerate_group(2, 2):
                cases.append((h, a, chain_to_coset(act_on_chain(c, a))))

        def refuse(*args):
            raise AssertionError("a Chain was built")

        monkeypatch.setattr(cosets, "Chain", refuse)
        for h, a, image in cases:
            assert act_on_coset(h, a) == image
            assert TCosetHandle(sorted(image.gens), multiply(h.rep, a)) == image


class TestCosetSizes:
    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_cardinality_formula(self, r, n):
        # S(r, m) for the reflection factor, S_m for each symmetric one.
        for c in enumerate_chains(r, n):
            orders = [
                math.factorial(f.size) * (r**f.size if f.kind == "reflection" else 1)
                for f in coset_block_decomposition(c)
            ]
            assert len(coset_elements(chain_to_coset(c))) == math.prod(orders)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_one_dimensional_cosets(self, r):
        # A single swap generator gives two elements, the scaling generator r.
        a = identity(r, 3)
        assert len(coset_elements(TCosetHandle({1}, a))) == 2
        assert len(coset_elements(TCosetHandle({0}, a))) == r


def coset_contains(a: TCosetHandle, b: TCosetHandle) -> bool:
    """Containment of cosets by element inclusion, asserted equal to chain refinement."""
    by_elements = coset_elements(a) <= coset_elements(b)
    assert by_elements == refines(coset_to_chain(a), coset_to_chain(b)), (a, b)
    return by_elements


class TestSubset:
    def test_example_inside_whole_group(self):
        whole = chain_to_coset(Chain(3, 4, (), ()))
        assert coset_contains(chain_to_coset(EXAMPLE), whole)

    def test_distinct_singletons(self):
        a = TCosetHandle((), identity(2, 2))
        b = TCosetHandle((), generator(2, 2, 1))
        assert not coset_contains(a, b)
        assert coset_contains(a, a)

    def test_same_rep_different_subgroup_incomparable(self):
        rep = chain_to_coset(EXAMPLE).rep
        smaller = TCosetHandle({0}, rep)
        assert not coset_contains(chain_to_coset(EXAMPLE), smaller)
        assert coset_contains(smaller, chain_to_coset(EXAMPLE))

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_dual_decision_procedures_all_pairs(self, r, n):
        chains = enumerate_chains(r, n)
        elements = {c: coset_elements(chain_to_coset(c)) for c in chains}
        for a, b in itertools.product(chains, repeat=2):
            assert refines(a, b) == (elements[a] <= elements[b]), (a, b)


class TestBlockDecomposition:
    def test_worked_example_factors(self):
        factors = coset_block_decomposition(EXAMPLE)
        assert [(f.kind, f.size) for f in factors] == [
            ("reflection", 1),
            ("symmetric", 2),
            ("symmetric", 1),
        ]
        assert [f.block for f in factors] == [0, 2, 1]
        assert math.prod(
            math.factorial(f.size) * (3**f.size if f.kind == "reflection" else 1)
            for f in factors
        ) == 6

    def test_translation_exponents(self):
        factors = coset_block_decomposition(EXAMPLE)
        gap = factors[1]
        assert gap.columns == (2, 4)
        assert gap.exps == ((-1) % 3, (-2) % 3)

    def test_length_zero_chain_is_single_reflection_factor(self):
        factors = coset_block_decomposition(Chain(3, 2, (), ()))
        assert [(f.kind, f.size) for f in factors] == [("reflection", 2)]

    def test_maximal_chain_factors_are_trivial(self):
        c = Chain(2, 2, ((2,), (1, 2)), ((1, 0), (2, 0)))
        factors = coset_block_decomposition(c)
        assert [(f.kind, f.size) for f in factors] == [
            ("reflection", 0),
            ("symmetric", 1),
            ("symmetric", 1),
        ]

    @pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_reassembled_product_equals_coset(self, r, n):
        for c in enumerate_chains(r, n):
            assert block_product_elements(c) == coset_elements(chain_to_coset(c))

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
    def test_reassembly_takes_no_coset_product(self, r, n, monkeypatch):
        # The two routes are compared, so the reassembly must not share the
        # product that moves the coset's representative.
        expected = {c: coset_elements(chain_to_coset(c)) for c in enumerate_chains(r, n)}

        def refuse(*args):
            raise AssertionError("the group product was called")

        monkeypatch.setattr(cosets, "_product", refuse)
        monkeypatch.setattr(group, "_product", refuse)
        for c, elements in expected.items():
            assert block_product_elements(c) == elements


class TestAction:
    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_act_on_coset_key_is_the_images_rep(self, r, n):
        group = sample(enumerate_group(r, n))
        for c in enumerate_chains(r, n):
            h = chain_to_coset(c)
            for a in group:
                key = _act_on_coset_key(h, a)
                assert key == act_on_coset(h, a).rep.sort_key()
                assert key == chain_to_coset(act_on_chain(c, a)).rep.sort_key()

    def test_identity_action(self):
        handle = chain_to_coset(EXAMPLE)
        assert act_on_coset(handle, identity(3, 4)) == handle

    def test_singleton_translation(self, rng):
        a = random_genperm(3, 3, rng)
        b = random_genperm(3, 3, rng)
        moved = act_on_coset(TCosetHandle((), a), b)
        assert coset_elements(moved) == frozenset({multiply(a, b)})

    def test_action_roundtrip(self, rng):
        handle = chain_to_coset(EXAMPLE)
        b = random_genperm(3, 4, rng)
        assert act_on_coset(act_on_coset(handle, b), inverse(b)) == handle

    def test_element_sets_translate(self, rng):
        handle = chain_to_coset(EXAMPLE)
        b = random_genperm(3, 4, rng)
        moved = act_on_coset(handle, b)
        assert coset_elements(moved) == frozenset(
            multiply(e, b) for e in coset_elements(handle)
        )


class TestJson:
    def test_shape(self):
        data = chain_to_coset(EXAMPLE).to_json()
        assert data["gens"] == [0, 2]
        assert GenPerm.from_json(data["rep"]) == chain_to_coset(EXAMPLE).rep
