import itertools

import pytest

from pinwheel import (
    Chain,
    CycloNum,
    DecoratedSubset,
    GenPerm,
    PinwheelStratum,
    YPoint,
    act_on_chain,
    chain_dimension,
    delta,
    enumerate_chains,
    enumerate_group,
    generator,
    group_order,
    identity,
    inverse,
    make_chain,
    maximal_refinements,
    multiply,
    refines,
)
from pinwheel.chains import _act_on_chain_key, _coarsening_keys, coarsenings

from conftest import KEY_RN, count_builds, identity_maximal_chain, sample


def chain_count_oracle(r: int, n: int) -> int:
    """Count chains by dynamic programming over the subset lattice."""
    full = 1 << n
    ending_at = {}
    for mask in range(1, full):
        total = 1
        sub = (mask - 1) & mask
        while sub:
            total += ending_at[sub]
            sub = (sub - 1) & mask
        ending_at[mask] = total
    return 1 + sum(
        ending_at[mask] * r ** bin(mask).count("1") for mask in range(1, full)
    )


EXAMPLE = make_chain(3, 4, [[3], [2, 3, 4]], {2: 1, 3: 0, 4: 2})


def reference_maximal_refinements(c: Chain) -> tuple[Chain, ...]:
    """The maximal refinements built one Chain at a time, in the library's order.

    Segment orders vary slowest, then the order of the leftover elements,
    then their exponents.
    """
    dec = c.decoration_map()
    out = []
    for seg_orders in itertools.product(*(itertools.permutations(s) for s in c.segments())):
        prefix = tuple(itertools.chain.from_iterable(seg_orders))
        for tail_order in itertools.permutations(c.complement()):
            order = prefix + tail_order
            sets = tuple(order[: j + 1] for j in range(c.n))
            for tail_exps in itertools.product(range(c.r), repeat=len(tail_order)):
                full = dict(dec)
                full.update(zip(tail_order, tail_exps))
                out.append(Chain(c.r, c.n, sets, tuple(full.items())))
    return tuple(out)


class TestValidation:
    def test_worked_example_is_accepted(self):
        assert EXAMPLE.sets == ((3,), (2, 3, 4))
        assert EXAMPLE.decoration == ((2, 1), (3, 0), (4, 2))

    def test_non_strict_nesting_rejected(self):
        with pytest.raises(ValueError):
            Chain(2, 2, ((1,), (1,)), ((1, 0),))

    def test_incomparable_sets_rejected(self):
        with pytest.raises(ValueError):
            Chain(2, 3, ((1,), (2, 3)), ((2, 0), (3, 0)))

    def test_length_zero_chain(self):
        empty = Chain(2, 2, (), ())
        assert empty.length == 0 and empty.decoration == ()

    def test_decoration_domain_must_match_top(self):
        with pytest.raises(ValueError):
            Chain(2, 2, ((1,),), ())
        with pytest.raises(ValueError):
            Chain(2, 2, ((1,),), ((1, 0), (2, 0)))

    def test_out_of_range_elements_rejected(self):
        with pytest.raises(ValueError):
            Chain(2, 2, ((3,),), ((3, 0),))

    RN_GATE = "need r >= 2 and n >= 0, got r="
    R_GATE = "need r >= 2, got r="

    # A float field element fails operator.index (TypeError); a float r or n
    # is refused by the (r, n) gate, and a CycloNum's r by the r gate, each
    # with its one ValueError text.
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: Chain(2, 1, ((1,),), ((1, 2.9),)), TypeError),
            (lambda: GenPerm(2, 1, (1,), (1.5,)), TypeError),
            (lambda: PinwheelStratum(2, 1, (((1, 0.5),),)), TypeError),
            (lambda: DecoratedSubset((1,), (1.5,)), TypeError),
            (lambda: YPoint(2, ((1, 1.5),)), TypeError),
            (lambda: Chain(2, 1, ((1.0,),), ((1, 0),)), TypeError),
            (lambda: GenPerm(2, 1, (1.0,), (0,)), TypeError),
            (lambda: DecoratedSubset((1.0,), (0,)), TypeError),
            (lambda: Chain(2.0, 1, ((1,),), ((1, 0),)), RN_GATE),
            (lambda: Chain(2, 1.5, ((1,),), ((1, 0),)), RN_GATE),
            (lambda: GenPerm(2.0, 1, (1,), (1,)), RN_GATE),
            (lambda: GenPerm(2, 1.0, (1,), (1,)), RN_GATE),
            (lambda: PinwheelStratum(2.5, 1, (((1, 0),),)), RN_GATE),
            (lambda: PinwheelStratum(2, 1.0, (((1, 0),),)), RN_GATE),
            (lambda: CycloNum(2.0, (1,)), R_GATE),
            (lambda: YPoint(2.0, ((1, 0),)), RN_GATE),
            (lambda: identity(2, 2.0), RN_GATE),
            (lambda: generator(2, 2.0, 0), RN_GATE),
            (lambda: delta(2.0, 1), TypeError),
            (lambda: delta(2, 1.5), TypeError),
        ],
        ids=[
            "Chain",
            "GenPerm",
            "PinwheelStratum",
            "DecoratedSubset",
            "YPoint-branch",
            "Chain-set-element",
            "GenPerm-row",
            "DecoratedSubset-element",
            "Chain-r",
            "Chain-n",
            "GenPerm-r",
            "GenPerm-n",
            "PinwheelStratum-r",
            "PinwheelStratum-n",
            "CycloNum-r",
            "YPoint-r",
            "identity-n",
            "generator-n",
            "delta-n",
            "delta-k",
        ],
    )
    def test_float_integer_fields_are_refused(self, build, error):
        with pytest.raises(TypeError if error is TypeError else ValueError) as err:
            build()
        if error is not TypeError:
            assert str(err.value).startswith(error)


class TestEnumeration:
    def test_octagon_census(self):
        chains = enumerate_chains(2, 2)
        assert len(chains) == 17
        by_length = [sum(1 for c in chains if c.length == k) for k in range(3)]
        assert by_length == [1, 8, 8]

    def test_r3_census(self):
        chains = enumerate_chains(3, 2)
        assert len(chains) == 34
        by_length = [sum(1 for c in chains if c.length == k) for k in range(3)]
        assert by_length == [1, 15, 18]

    def test_n0_has_single_chain(self):
        assert enumerate_chains(5, 0) == (Chain(5, 0, (), ()),)

    @pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_count_matches_lattice_oracle(self, r, n):
        assert len(enumerate_chains(r, n)) == chain_count_oracle(r, n)

    def test_no_duplicates_and_sorted(self):
        chains = enumerate_chains(3, 3)
        assert len(set(chains)) == len(chains)
        keys = [c.sort_key() for c in chains]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_maximal_chain_count_is_group_order(self, r, n):
        maximal = [c for c in enumerate_chains(r, n) if c.length == n]
        assert len(maximal) == group_order(r, n)


class TestRefinement:
    def test_removing_one_set_is_refined(self):
        coarser = make_chain(3, 4, [[2, 3, 4]], {2: 1, 3: 0, 4: 2})
        assert refines(EXAMPLE, coarser)
        assert not refines(coarser, EXAMPLE)

    def test_reflexive(self):
        for c in enumerate_chains(2, 2):
            assert refines(c, c)

    def test_decoration_must_restrict(self):
        other = make_chain(3, 4, [[2, 3, 4]], {2: 1, 3: 0, 4: 1})
        assert not refines(EXAMPLE, other)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_partial_order(self, r, n):
        chains = enumerate_chains(r, n)
        relation = {
            (fine, coarse)
            for fine in chains
            for coarse in chains
            if refines(fine, coarse)
        }
        for fine, coarse in relation:
            if (coarse, fine) in relation:
                assert fine == coarse
        for a, b in relation:
            for b2, c in relation:
                if b2 == b:
                    assert (a, c) in relation

    def test_partial_order_at_envelope_edge(self):
        # ancestor sets make the (3,3) check linear in the relation size
        for c in enumerate_chains(3, 3):
            ancestors = set(coarsenings(c))
            assert c in ancestors
            for a in ancestors:
                assert set(coarsenings(a)) <= ancestors
                if a != c:
                    assert c not in set(coarsenings(a))

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_matches_set_deletion_closure(self, r, n):
        chains = enumerate_chains(r, n)
        for fine in chains:
            ancestors = set(coarsenings(fine))
            for coarse in chains:
                assert refines(fine, coarse) == (coarse in ancestors)

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
    def test_coarsening_keys_are_the_coarsenings_fields_in_order(self, r, n):
        for c in enumerate_chains(r, n):
            assert list(_coarsening_keys(c)) == [(x.sets, x.decoration) for x in coarsenings(c)]


class TestDimension:
    def test_examples(self):
        assert chain_dimension(Chain(2, 4, (), ())) == 4
        assert chain_dimension(EXAMPLE) == 2
        maximal = make_chain(2, 2, [[2], [1, 2]], {1: 0, 2: 0})
        assert chain_dimension(maximal) == 0


ACTION_MATRIX = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))


class TestAction:
    def test_identity_fixes_chains(self):
        for c in enumerate_chains(3, 2):
            assert act_on_chain(c, identity(3, 2)) == c

    def test_worked_action_example(self):
        moved = act_on_chain(identity_maximal_chain(3, 4), ACTION_MATRIX)
        assert moved.sets == ((1,), (1, 3), (1, 3, 4), (1, 2, 3, 4))
        assert moved.decoration_map() == {1: 0, 2: 1, 3: 1, 4: 2}

    def test_inverse_action_restores(self):
        # Every (3, 3) chain by every element of S(3, 3): 71,604 pairs.
        group = enumerate_group(3, 3)
        inverses = [inverse(a) for a in group]
        for c in enumerate_chains(3, 3):
            for a, a_inv in zip(group, inverses):
                assert act_on_chain(act_on_chain(c, a), a_inv) == c

    def test_action_preserves_length(self):
        group = enumerate_group(3, 3)
        for c in enumerate_chains(3, 3):
            for a in group:
                assert act_on_chain(c, a).length == c.length

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
    def test_right_action_law_exhaustive(self, r, n):
        from pinwheel import enumerate_group

        for c in enumerate_chains(r, n):
            for a, b in itertools.product(enumerate_group(r, n), repeat=2):
                assert act_on_chain(act_on_chain(c, a), b) == act_on_chain(c, multiply(a, b))

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_act_on_chain_key_is_the_images_fields(self, r, n):
        group = sample(enumerate_group(r, n))
        for c in enumerate_chains(r, n):
            for a in group:
                image = act_on_chain(c, a)
                assert _act_on_chain_key(c, a) == (image.sets, image.decoration)

    def test_act_on_chain_key_builds_no_chain(self, monkeypatch):
        # The equivariance suite looks images up by key; the key builder must
        # not validate a chain per (chain, element) pair.
        chains, group = enumerate_chains(2, 3), enumerate_group(2, 3)
        every_chain = [c for r, n in KEY_RN for c in enumerate_chains(r, n)]
        built = count_builds(monkeypatch, Chain)
        keys = {_act_on_chain_key(c, a) for c in chains for a in group}
        assert keys == {(c.sets, c.decoration) for c in chains}
        assert built[Chain] == 0
        # Refinements are computed values too: built unchecked, one per refinement.
        refinements = [m for c in every_chain for m in maximal_refinements(c)]
        assert built[Chain] == len(refinements) and built[Chain, "checked"] == 0


class TestRefinements:
    def test_maximal_chain_refines_to_itself(self):
        maximal = identity_maximal_chain(2, 3)
        assert maximal_refinements(maximal) == (maximal,)

    def test_worked_example_has_six(self):
        refinements = maximal_refinements(EXAMPLE)
        assert len(refinements) == 6
        for fine in refinements:
            assert fine.length == 4
            assert refines(fine, EXAMPLE)

    def test_length_zero_chain_has_all_maximal_chains(self):
        empty = Chain(2, 2, (), ())
        assert set(maximal_refinements(empty)) == {
            c for c in enumerate_chains(2, 2) if c.length == 2
        }

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
    def test_same_tuple_in_the_same_order_as_the_reference(self, r, n):
        for c in enumerate_chains(r, n):
            assert maximal_refinements(c) == reference_maximal_refinements(c)


class TestJson:
    def test_shape(self):
        data = EXAMPLE.to_json()
        assert data == {
            "r": 3,
            "n": 4,
            "sets": [[3], [2, 3, 4]],
            "decoration": {"2": 1, "3": 0, "4": 2},
        }

    def test_roundtrip(self):
        # Every chain for r <= 4 and n <= 4: 33,885 of them.
        for r, n in itertools.product(range(2, 5), range(5)):
            for c in enumerate_chains(r, n):
                assert Chain.from_json(c.to_json()) == c

    def test_two_keys_naming_one_element_are_refused(self):
        data = {"r": 2, "n": 1, "sets": [[1]], "decoration": {"1": 0, "01": 1}}
        with pytest.raises(ValueError, match=r"^decoration domain \(1, 1\) must equal the largest set \(1,\)$"):
            Chain.from_json(data)
