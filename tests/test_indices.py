"""Every index the library takes (set elements, orbits, rows, columns,
generators, spoke edges, `delta`'s k) is checked by one rule: an integer,
in range, and distinct, refused with one text per failure."""

import pytest

from pinwheel import (
    Chain,
    DecoratedSubset,
    GenPerm,
    PinwheelStratum,
    TCosetHandle,
    YPoint,
    contract_spoke_edges,
    delta,
    generate_subgroup,
    generator,
    hyperplane_eval,
    hyperplanes_to_chain,
    identity,
)

from conftest import base_stratum


def _from_json(cols):
    cols = [{"col": c, "row": row, "exp": 0} for row, c in enumerate(cols, start=1)]
    return GenPerm.from_json({"r": 2, "n": 2, "cols": cols})


def _hyperplane_eval(elements):
    return hyperplane_eval(YPoint(2, ((1, 0), (1, 0))), elements, {1: 0, 2: 0})


def _hyperplanes_to_chain(elements):
    return hyperplanes_to_chain(2, 2, [DecoratedSubset(elements, (0,) * len(elements))])


# site: (build from a tuple of indices, an out-of-range tuple and its text,
# a repeated tuple and its text or None, a tuple holding a float).  Each
# build puts the tuple where the site reads its indices; everything else
# about the call is valid.
SITES = {
    "Chain": (
        lambda v: Chain(2, 3, (v,), tuple((i, 0) for i in v)),
        (4,), "element 4 out of range 1..3", (1, 1), "repeated element in (1, 1)", (1.0,),
    ),
    "PinwheelStratum": (
        lambda v: PinwheelStratum(2, 3, tuple(((i, 0),) for i in v)),
        (4,), "orbit 4 out of range 1..3", (1, 1), "repeated orbit in (1, 1)", (1.0,),
    ),
    "GenPerm": (
        lambda v: GenPerm(2, 2, v, (0, 0)),
        (1, 3), "row 3 out of range 1..2", (2, 2), "repeated row in (2, 2)", (1.0, 2),
    ),
    "GenPerm.from_json": (
        _from_json,
        (3, 1), "column 3 out of range 1..2", (1, 1), "repeated column in (1, 1)", (1.0, 2),
    ),
    "generator": (
        lambda v: generator(2, 2, *v),
        (5,), "generator 5 out of range 0..1", None, None, (1.0,),
    ),
    "TCosetHandle": (
        lambda v: TCosetHandle(v, identity(2, 2)),
        (5,), "generator 5 out of range 0..1", (1, 1), "repeated generator in (1, 1)", (1.0,),
    ),
    "generate_subgroup": (
        lambda v: generate_subgroup(2, 2, v),
        (5,), "generator 5 out of range 0..1", (0, 0), "repeated generator in (0, 0)", (0.0,),
    ),
    "contract_spoke_edges": (
        lambda v: contract_spoke_edges(base_stratum(2, 2), v),
        (3,), "edge 3 out of range 1..2", (1, 1), "repeated edge in (1, 1)", (1.0,),
    ),
    "hyperplane_eval": (
        _hyperplane_eval,
        (0,), "element 0 out of range 1..2", (2, 2), "repeated element in (2, 2)", (1.0,),
    ),
    "hyperplanes_to_chain": (
        _hyperplanes_to_chain,
        (3,), "element 3 out of range 1..2", (1, 1), "repeated element in (1, 1)", (1.0,),
    ),
    "delta": (
        lambda v: delta(3, *v),
        (4,), "k 4 out of range 0..3", None, None, (1.0,),
    ),
}


@pytest.mark.parametrize("site", list(SITES))
def test_an_index_outside_its_range_is_refused_with_one_text(site):
    build, values, text = SITES[site][:3]
    with pytest.raises(ValueError) as err:
        build(values)
    assert str(err.value) == text


# generator and delta take a single index, so they cannot repeat one; the
# repeat of a site taking DecoratedSubsets is refused by the DecoratedSubset,
# with the same text.
@pytest.mark.parametrize("site", [site for site in SITES if SITES[site][3] is not None])
def test_a_repeated_index_is_refused_with_one_text(site):
    build, _, _, values, text = SITES[site][:5]
    with pytest.raises(ValueError) as err:
        build(values)
    assert str(err.value) == text


@pytest.mark.parametrize("site", list(SITES))
def test_a_float_index_is_refused(site):
    build, values = SITES[site][0], SITES[site][5]
    if site == "GenPerm.from_json":
        # The JSON boundary takes only JSON integers, as for every number field.
        with pytest.raises(ValueError, match="^expected an integer, got 1.0$"):
            build(values)
    else:
        with pytest.raises(TypeError):
            build(values)


def test_generator_and_coset_handle_name_a_bad_generator_alike():
    texts = set()
    for build in (lambda: generator(2, 2, 5), lambda: TCosetHandle(frozenset({5}), identity(2, 2))):
        with pytest.raises(ValueError) as err:
            build()
        texts.add(str(err.value))
    assert texts == {"generator 5 out of range 0..1"}


def test_a_float_generator_never_reaches_the_output():
    with pytest.raises(TypeError):
        TCosetHandle([1.0], identity(2, 2)).to_json()
    assert TCosetHandle([1], identity(2, 2)).to_json()["gens"] == [1]


def test_a_float_generator_misses_a_warm_subgroup_cache():
    # frozenset({0.0}) equals frozenset({0}), so it would hit the int entry.
    generate_subgroup(2, 2, [0])
    with pytest.raises(TypeError):
        generate_subgroup(2, 2, [0.0])
