import itertools

import pytest

from pinwheel import (
    Chain,
    GenPerm,
    PinwheelStratum,
    act_on_chain,
    act_on_stratum,
    chain_to_stratum,
    contract_spoke_edges,
    dual_graph_dot,
    enumerate_chains,
    enumerate_group,
    identity,
    inverse,
    make_chain,
    refines,
    stratum_to_chain,
)
from pinwheel.strata import _act_on_spoke, _stratum_chain_key, spoke_contractions

from conftest import KEY_RN, base_stratum, sample

EXAMPLE = make_chain(3, 4, [[3], [2, 3, 4]], {2: 1, 3: 0, 4: 2})
EXAMPLE_STRATUM = PinwheelStratum(3, 4, (((3, 0),), ((2, 1), (4, 2))))


class TestChainStratumDictionary:
    def test_worked_example(self):
        s = chain_to_stratum(EXAMPLE)
        assert s == EXAMPLE_STRATUM
        assert s.central_orbits() == (1,)

    def test_length_zero_chain_is_all_central(self):
        s = chain_to_stratum(Chain(3, 2, (), ()))
        assert s.k == 0
        assert s.central_orbits() == (1, 2)

    def test_base_stratum_is_identity_chain(self):
        s = base_stratum(3, 4)
        assert s.spoke == (((4, 0),), ((3, 0),), ((2, 0),), ((1, 0),))
        chain = stratum_to_chain(s)
        assert chain.sets == ((4,), (3, 4), (2, 3, 4), (1, 2, 3, 4))
        assert set(chain.decoration_map().values()) == {0}

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_roundtrip_everywhere(self, r, n):
        for c in enumerate_chains(r, n):
            assert stratum_to_chain(chain_to_stratum(c)) == c

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_stratum_chain_key_is_the_roundtrip_chains_fields(self, r, n):
        for c in enumerate_chains(r, n):
            s = chain_to_stratum(c)
            back = stratum_to_chain(s)
            assert _stratum_chain_key(s) == (back.sets, back.decoration) == (c.sets, c.decoration)

    def test_empty_spoke_component_rejected(self):
        with pytest.raises(ValueError):
            PinwheelStratum(3, 4, (((3, 0),), ()))

    def test_repeated_orbit_rejected(self):
        with pytest.raises(ValueError):
            PinwheelStratum(3, 4, (((3, 0),), ((3, 1),)))


class TestContraction:
    def test_contract_outer_edge_merges_inward(self):
        merged = contract_spoke_edges(EXAMPLE_STRATUM, [1])
        assert merged == chain_to_stratum(
            make_chain(3, 4, [[2, 3, 4]], {2: 1, 3: 0, 4: 2})
        )

    def test_contract_nothing(self):
        assert contract_spoke_edges(EXAMPLE_STRATUM, []) == EXAMPLE_STRATUM

    def test_contract_everything(self):
        flat = contract_spoke_edges(EXAMPLE_STRATUM, [1, 2])
        assert flat.k == 0
        assert flat.central_orbits() == (1, 2, 3, 4)

    def test_contract_inner_edge_moves_orbits_central(self):
        merged = contract_spoke_edges(EXAMPLE_STRATUM, [2])
        assert merged == chain_to_stratum(make_chain(3, 4, [[3]], {3: 0}))
        assert merged.central_orbits() == (1, 2, 4)

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            contract_spoke_edges(EXAMPLE_STRATUM, [3])

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
    def test_contraction_mirrors_set_deletion(self, r, n):
        from pinwheel.chains import coarsenings

        for c in enumerate_chains(r, n):
            s = chain_to_stratum(c)
            contracted = {
                contract_spoke_edges(s, edges)
                for size in range(s.k + 1)
                for edges in itertools.combinations(range(1, s.k + 1), size)
            }
            assert contracted == {chain_to_stratum(x) for x in coarsenings(c)}

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
    def test_spoke_contractions_are_the_contracted_spokes_in_order(self, r, n):
        for c in enumerate_chains(r, n):
            s = chain_to_stratum(c)
            edge_sets = [
                edges
                for size in range(s.k + 1)
                for edges in itertools.combinations(range(1, s.k + 1), size)
            ]
            assert list(spoke_contractions(s)) == [
                contract_spoke_edges(s, edges).spoke for edges in edge_sets
            ]


def stratum_contains(s: PinwheelStratum, t: PinwheelStratum) -> bool:
    """Whether t arises from s by contracting spoke edges, asserted equal to chain refinement."""
    by_contraction = t.spoke in spoke_contractions(s)
    assert by_contraction == refines(stratum_to_chain(s), stratum_to_chain(t)), (s, t)
    return by_contraction


class TestInclusion:
    def test_example_in_whole_space(self):
        whole = chain_to_stratum(Chain(3, 4, (), ()))
        assert stratum_contains(EXAMPLE_STRATUM, whole)

    def test_example_in_its_contraction(self):
        merged = contract_spoke_edges(EXAMPLE_STRATUM, [1])
        assert stratum_contains(EXAMPLE_STRATUM, merged)
        assert not stratum_contains(merged, EXAMPLE_STRATUM)

    def test_distinct_vertex_strata_incomparable(self):
        a = base_stratum(2, 2)
        b = act_on_stratum(a, GenPerm(2, 2, (2, 1), (0, 0)))
        assert not stratum_contains(a, b)
        assert stratum_contains(a, a)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_agrees_with_refinement_all_pairs(self, r, n):
        chains = enumerate_chains(r, n)
        strata = {c: chain_to_stratum(c) for c in chains}
        for a, b in itertools.product(chains, repeat=2):
            assert (strata[b].spoke in spoke_contractions(strata[a])) == refines(a, b), (a, b)


class TestProductFactors:
    """A stratum's factor sizes: its central orbits, then each spoke component."""

    @staticmethod
    def sizes(s):
        return len(s.central_orbits()), [len(comp) for comp in s.spoke]

    def test_worked_example(self):
        assert self.sizes(chain_to_stratum(EXAMPLE)) == (1, [1, 2])

    def test_length_zero_chain(self):
        assert self.sizes(chain_to_stratum(Chain(3, 2, (), ()))) == (2, [])

    def test_maximal_chain(self):
        c = stratum_to_chain(base_stratum(2, 3))
        assert self.sizes(chain_to_stratum(c)) == (0, [1, 1, 1])


class TestZeroDimAction:
    """The action on vertex strata, where it permutes the group's one orbit."""

    def test_identity_fixes_base(self):
        s = base_stratum(3, 4)
        assert act_on_stratum(s, identity(3, 4)) == s

    def test_worked_example_relabeling(self):
        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        moved = act_on_stratum(base_stratum(3, 4), a)
        assert moved.spoke == (((1, 0),), ((3, 1),), ((4, 2),), ((2, 1),))

    def test_inverse_restores(self):
        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        s = base_stratum(3, 4)
        assert act_on_stratum(act_on_stratum(s, a), inverse(a)) == s

    def test_vertex_strata_biject_with_group(self):
        group = enumerate_group(3, 2)
        orbit = {act_on_stratum(base_stratum(3, 2), a) for a in group}
        assert len(orbit) == len(group)


class TestStratumAction:
    def test_identity_fixes_a_positive_dimensional_stratum(self):
        assert act_on_stratum(EXAMPLE_STRATUM, identity(3, 4)) == EXAMPLE_STRATUM

    def test_inverse_restores_a_positive_dimensional_stratum(self):
        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        moved = act_on_stratum(EXAMPLE_STRATUM, a)
        assert moved.spoke == (((3, 1),), ((1, 2), (4, 0)))
        assert act_on_stratum(moved, inverse(a)) == EXAMPLE_STRATUM

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
    def test_matches_chain_action_exhaustively(self, r, n):
        for c in enumerate_chains(r, n):
            s = chain_to_stratum(c)
            for a in enumerate_group(r, n):
                assert act_on_stratum(s, a) == chain_to_stratum(act_on_chain(c, a))

    @pytest.mark.parametrize("r,n", KEY_RN)
    def test_act_on_spoke_is_the_images_fields(self, r, n):
        group = sample(enumerate_group(r, n))
        for c in enumerate_chains(r, n):
            s = chain_to_stratum(c)
            for a in group:
                assert _act_on_spoke(s, a) == act_on_stratum(s, a).spoke

    def test_takes_no_chain(self, monkeypatch):
        # The stratum side of the equivariance suite reads spoke data only;
        # it must not share the chain route it is compared with.
        group = enumerate_group(2, 3)
        cases = [
            (chain_to_stratum(c), a, chain_to_stratum(act_on_chain(c, a)))
            for c in enumerate_chains(2, 3)
            for a in group
        ]

        def refuse(*args):
            raise AssertionError("the stratum action went through a chain")

        monkeypatch.setattr("pinwheel.chains.act_on_chain", refuse)
        for name in ("act_on_chain", "chain_to_stratum", "stratum_to_chain"):
            monkeypatch.setattr(f"pinwheel.strata.{name}", refuse, raising=False)
        monkeypatch.setattr(Chain, "segments", refuse)
        for s, a, image in cases:
            assert act_on_stratum(s, a) == image


class TestDotExport:
    def test_full_symmetric_graph(self):
        dot = dual_graph_dot(EXAMPLE_STRATUM)
        assert dot.startswith("graph")
        # r spokes of k components plus the center
        assert dot.count("--") == 3 * 2
        assert 'c_0_1 [label="C^0_1: y^0 z_3^0"]' in dot
        assert "z_2^1" in dot and "z_2^2" in dot and "z_2^0" in dot
        assert "x^+" in dot and "x^-" in dot

    def test_point_stratum_graph(self):
        dot = dual_graph_dot(chain_to_stratum(Chain(2, 2, (), ())))
        assert "--" not in dot
        assert "z_1^0" in dot and "z_2^1" in dot


class TestJson:
    def test_shape(self):
        data = EXAMPLE_STRATUM.to_json()
        assert data == {
            "r": 3,
            "n": 4,
            "k": 2,
            "spoke": [
                [{"orbit": 3, "exp": 0}],
                [{"orbit": 2, "exp": 1}, {"orbit": 4, "exp": 2}],
            ],
        }
