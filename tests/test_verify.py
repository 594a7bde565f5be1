import itertools
import re
import time
from collections import Counter

import pytest

import pinwheel
from pinwheel import (
    CapExceeded,
    Chain,
    DecoratedSubset,
    GenPerm,
    YPoint,
    chain_to_coset,
    chain_to_stratum,
    contract_spoke_edges,
    enumerate_chains,
    enumerate_group,
    generator,
    group_order,
    identity,
    make_chain,
    multiply,
    vertex_of_maximal_chain,
    verify_equivariance,
    verify_nonemptiness,
    verify_products,
    verify_threeway,
)
from pinwheel import cyclo, faces, verify

from conftest import count_builds, library_caches


# Chains over (2, 2) that the fault-injection rows corrupt one route on.
TARGET = make_chain(2, 2, [[1]], {1: 1})
OTHER = make_chain(2, 2, [[2]], {2: 0})
MAXIMAL = make_chain(2, 2, [[1], [1, 2]], {1: 0, 2: 1})
OTHER_MAXIMAL = make_chain(2, 2, [[2], [1, 2]], {1: 0, 2: 1})
TARGET_KEY = (TARGET.sets, TARGET.decoration)
OTHER_KEY = (OTHER.sets, OTHER.decoration)
MAXIMAL_COORDS = vertex_of_maximal_chain(MAXIMAL).coords
OTHER_MAXIMAL_COORDS = vertex_of_maximal_chain(OTHER_MAXIMAL).coords
ON_SET_ONE = ((1,), (0,))
ONE = identity(2, 2)
BASE = ((1, 0), (2, 0))


# One fault table for the four suites: (suite, route, case) -> (corruption,
# violation[, r, n]).  The harness patches the route to return
# `corruption(args, result)` for each argument tuple, runs `SUITES[suite]` at
# the row's point, (2, 2) unless it names one, and expects a violation
# matching the regex.  A route is a name in `verify`, or an attribute its
# owner names: a library table or accessor such as `faces._face_shape` or
# `Chain.segments`.  The suites compare canonical keys, so a route is often
# the key builder the suite calls.  A route's plain case "" swaps in another
# object's value, leaves one item out or adds one to a count; "foreign" names
# an object outside the complex, and "noncanonical" writes an exponent e + r,
# which names the same object but not its key.  A row's test id is its route
# and case; the kernel's rows take the name of the public `on_hyperplane` it
# serves.
#
# Nonempty: MAXIMAL's vertex lies on the hyperplane of the set {1} with
# decoration 1 -> 0 (key ON_SET_ONE), whose one-set family is sortable.  The
# kernel `_on_hyperplane_coords` takes (r, restriction, terms, target): a
# vertex's coordinates on the hyperplane's subset S, and terms that pair each
# position 0..|S|-1 in them with its exponent.  So both {1} with 1 -> 0 and
# {2} with 2 -> 0 are ((0, 0),), and a corruption of one input moves every
# vertex with that restriction.  MAXIMAL's top layer, {1, 2} with 1 -> 0 and
# 2 -> 1, holds MAXIMAL's vertex and OTHER_MAXIMAL's; the plain case takes the
# latter off it, "drop" the former, so MAXIMAL's layers no longer meet.  "add"
# puts every vertex whose coordinate i is MAXIMAL's second on {i} with i -> 0,
# and "empty" takes every vertex off {1} with 1 -> 0 and {2} with 2 -> 0,
# families then named by the chain side alone.  The key builder `_hyperplanes_chain_key`
# takes the family of hyperplane keys; "equal-sizes" accepts every pair of
# equal-size subsets, which never meet, so only the suite's pairs check calls
# it on them.
#
# Equivariance: the base point is BASE, and "positive" acts on TARGET's
# stratum, which is not a vertex stratum.  Products: TARGET has a block-0 and
# a block-1 factor in each family and MAXIMAL two spoke components; "kind"
# makes TARGET's reflection block symmetric with exponents 0, which the block
# product then reads too.
BROKEN = {
    ("threeway", "_coset_chain_key", ""): (
        lambda args, key: OTHER_KEY if key == TARGET_KEY else key,
        r"coset roundtrip broke",
    ),
    ("threeway", "_coset_chain_key", "noncanonical"): (
        lambda args, key: (key[0], tuple((i, e + 2) for i, e in key[1])) if key == TARGET_KEY else key,
        r"coset roundtrip broke",
    ),
    ("threeway", "_stratum_chain_key", ""): (
        lambda args, key: OTHER_KEY if key == TARGET_KEY else key,
        r"stratum roundtrip broke",
    ),
    ("threeway", "face_dimension_bruteforce", ""): (
        lambda args, dim: dim + 1 if args == (TARGET,) else dim,
        r"dimension (mismatch|oracle)",
    ),
    ("threeway", "vertex_of_maximal_chain", ""): (
        lambda args, v: vertex_of_maximal_chain(OTHER_MAXIMAL) if args == (MAXIMAL,) else v,
        r"vertex is not the one point of its face",
    ),
    # Every vertex rotated by one place: the vertex set is closed under
    # coordinate permutations, so only the comparison with the face sees it.
    ("threeway", "vertex_of_maximal_chain", "rotated"): (
        lambda args, v: v._replace(coords=v.coords[1:] + v.coords[:1]),
        r"vertex is not the one point of its face",
    ),
    ("threeway", "_coset_words", ""): (
        lambda args, words: sorted(words)[1:] if args == (chain_to_coset(TARGET),) else words,
        r"inclusion mismatch \(coset\)",
    ),
    ("threeway", "_coset_words", "noncanonical"): (
        lambda args, words: [(rows, (exps[0] + 2, *exps[1:])) for rows, exps in words]
        if args == (chain_to_coset(TARGET),)
        else words,
        r"inclusion mismatch \(coset\)",
    ),
    ("threeway", "_face_coords", ""): (
        lambda args, coords: sorted(coords)[1:] if args == (TARGET,) else coords,
        r"inclusion mismatch \(face\)",
    ),
    ("threeway", "spoke_contractions", ""): (
        lambda args, out: list(out)[:-1] if args == (chain_to_stratum(TARGET),) else out,
        r"inclusion mismatch \(stratum\)",
    ),
    ("threeway", "spoke_contractions", "foreign"): (
        lambda args, out: [*out, (((3, 0),),)] if args == (chain_to_stratum(TARGET),) else out,
        r"contraction is not in the complex",
    ),
    ("threeway", "_coarsening_keys", ""): (
        lambda args, keys: list(keys)[:-1] if args == (TARGET,) else keys,
        r"inclusion mismatch \((coset|face|stratum)\)",
    ),
    ("threeway", "_coarsening_keys", "foreign"): (
        lambda args, keys: [*keys, (((3,),), ((3, 0),))] if args == (TARGET,) else keys,
        r"coarsening is not in the complex",
    ),
    ("threeway", "chain_to_coset", ""): (
        lambda args, h: chain_to_coset(OTHER) if args == (TARGET,) else h,
        r"coset roundtrip broke",
    ),
    ("threeway", "chain_dimension", ""): (
        lambda args, dim: dim + 1 if args == (TARGET,) else dim,
        r"dimension mismatch",
    ),
    ("threeway", "group_order", ""): (
        lambda args, order: order + 1,
        r"vertex census",
    ),
    # The per-set-chain tables behind three threeway routes, each keyed with
    # the set chain last and corrupted on one.  The empty set chain's face has
    # two leftover orders at (2, 2), so dropping one getter leaves half its
    # vertices; TARGET's representative takes rows (2, 1).
    ("threeway", "faces._face_shape", ""): (
        lambda args, shape: (tuple([(flat, getters[:-1]) for flat, getters in shape[0]]), shape[1])
        if args[-1] == ()
        else shape,
        r"inclusion mismatch \(face\)",
    ),
    ("threeway", "cosets._coset_rows", ""): (
        lambda args, table: (table[0][::-1], table[1]) if args[-1] == TARGET.sets else table,
        r"coset roundtrip broke",
    ),
    ("threeway", "chains._coarsening_sets", ""): (
        lambda args, kept: kept[:-1] if args[-1] == TARGET.sets else kept,
        r"inclusion mismatch",
    ),
    ("threeway", "faces._face_dimension", ""): (
        lambda args, dim: dim + 1 if args == (2, TARGET.sets) else dim,
        r"dimension (mismatch|oracle)",
    ),
    # Every spoke of length 1, TARGET's among them, loses its full contraction.
    ("threeway", "strata._contraction_runs", ""): (
        lambda args, runs: runs[:-1] if args == (1,) else runs,
        r"inclusion mismatch \(stratum\)",
    ),
    # <s_0> loses s_0, so every coset whose generator set is {0}, TARGET's
    # among them, loses an element.
    ("threeway", "group._subgroup_closure", ""): (
        lambda args, elements: elements - {generator(2, 2, 0)} if args == (2, 2, frozenset({0})) else elements,
        r"inclusion mismatch \(coset\)",
    ),
    ("equivariance", "_act_on_coords", ""): (
        lambda args, coords: ((1, 1), (2, 0)) if args == (BASE, ONE) else coords,
        r"vertex-orbit reinterpretation broke",
    ),
    ("equivariance", "_act_on_chain_key", ""): (
        lambda args, key: OTHER_KEY if args == (TARGET, ONE) else key,
        r"face action broke",
    ),
    ("equivariance", "_act_on_coset_key", ""): (
        lambda args, key: chain_to_coset(OTHER).rep.sort_key() if args == (chain_to_coset(TARGET), ONE) else key,
        r"coset action missed the image coset",
    ),
    ("equivariance", "_act_on_coset_key", "noncanonical"): (
        lambda args, key: (key[0], (key[1][0] + 2, *key[1][1:])) if args == (chain_to_coset(TARGET), ONE) else key,
        r"coset action missed the image coset",
    ),
    ("equivariance", "_product", ""): (
        lambda args, word: multiply(GenPerm(2, 2, *word), generator(2, 2, 0)).sort_key()
        if args == (ONE, ONE)
        else word,
        r"coset element action broke",
    ),
    ("equivariance", "_product", "noncanonical"): (
        lambda args, word: (word[0], (word[1][0] + 2, *word[1][1:])) if args == (ONE, ONE) else word,
        r"coset element action broke",
    ),
    ("equivariance", "_coset_words", ""): (
        lambda args, words: sorted(words)[1:] if args == (chain_to_coset(TARGET),) else words,
        r"coset element action broke",
    ),
    ("equivariance", "_coset_words", "noncanonical"): (
        lambda args, words: [(rows, (exps[0] + 2, *exps[1:])) for rows, exps in words]
        if args == (chain_to_coset(TARGET),)
        else words,
        r"coset element action broke",
    ),
    ("equivariance", "_face_coords", ""): (
        lambda args, coords: sorted(coords)[1:] if args == (TARGET,) else coords,
        r"face action broke",
    ),
    ("equivariance", "_face_coords", "foreign"): (
        lambda args, coords: [*coords, ((1, 0), (1, 0))] if args == (TARGET,) else coords,
        r"face action broke",
    ),
    ("equivariance", "_act_on_spoke", ""): (
        lambda args, spoke: chain_to_stratum(OTHER_MAXIMAL).spoke
        if args == (chain_to_stratum(MAXIMAL), ONE)
        else spoke,
        r"stratum action broke",
    ),
    ("equivariance", "_act_on_spoke", "positive"): (
        lambda args, spoke: chain_to_stratum(OTHER).spoke if args == (chain_to_stratum(TARGET), ONE) else spoke,
        r"stratum action broke",
    ),
    ("equivariance", "chain_to_stratum", ""): (
        lambda args, s: chain_to_stratum(OTHER) if args == (TARGET,) else s,
        r"stratum action broke",
    ),
    ("equivariance", "enumerate_group", ""): (
        lambda args, group: group[:-1],
        r"vertex-orbit reinterpretation broke",
    ),
    ("products", "chain_to_stratum", "merge"): (
        lambda args, s: contract_spoke_edges(s, [1]) if args == (MAXIMAL,) else s,
        r"factor lists disagree",
    ),
    ("products", "chain_to_stratum", "drop"): (
        lambda args, s: contract_spoke_edges(s, [1]) if args == (TARGET,) else s,
        r"factor lists disagree",
    ),
    ("products", "coset_block_decomposition", ""): (
        lambda args, fs: fs[:-1] if args == (TARGET,) else fs,
        r"factor lists disagree",
    ),
    ("products", "coset_block_decomposition", "kind"): (
        lambda args, fs: (fs[0]._replace(kind="symmetric", exps=(0,) * fs[0].size), *fs[1:])
        if args == (TARGET,)
        else fs,
        r"coset is not the product of its blocks",
    ),
    ("products", "face_product_decomposition", ""): (
        lambda args, fs: fs[:-1] if args == (TARGET,) else fs,
        r"factor lists disagree",
    ),
    ("products", "_coset_words", ""): (
        lambda args, words: sorted(words)[1:] if args == (chain_to_coset(TARGET),) else words,
        r"coset is not the product of its blocks",
    ),
    ("products", "_block_product_words", ""): (
        lambda args, words: sorted(words)[1:] if args[0] == TARGET else words,
        r"coset is not the product of its blocks",
    ),
    # A fault every chain-side decomposition shares: the stratum's, the
    # coset's and the face's factor lists still agree, but the coset's blocks
    # land on the wrong columns, so their product is another set.
    ("products", "Chain.segments", "reversed"): (
        lambda args, segments: segments[::-1],
        r"coset is not the product of its blocks",
    ),
    ("nonempty", "_on_hyperplane_coords", ""): (
        lambda args, on: not on if args[1] == OTHER_MAXIMAL_COORDS and tuple(args[2]) == ((0, 0), (1, 1)) else on,
        r"hyperplane intersection is not the face's vertex set",
    ),
    ("nonempty", "_on_hyperplane_coords", "add"): (
        lambda args, on: True if args[1] == MAXIMAL_COORDS[1:] and tuple(args[2]) == ((0, 0),) else on,
        r"sortability and vertex scan disagree",
    ),
    ("nonempty", "_on_hyperplane_coords", "drop"): (
        lambda args, on: False if args[1] == MAXIMAL_COORDS and tuple(args[2]) == ((0, 0), (1, 1)) else on,
        r"sortability and vertex scan disagree",
    ),
    ("nonempty", "_on_hyperplane_coords", "empty"): (
        lambda args, on: False if tuple(args[2]) == ((0, 0),) else on,
        r"^sortability and vertex scan disagree on \[\{1: 0\}\]$",
    ),
    # The kernel tests coeffs[2:] for coeffs[1:], so a sum whose zeta
    # coefficient is nonzero can pass.  That moves no vertex onto another
    # hyperplane at (3,3), (4,3), (5,2) or (5,3); at (6,2) it does.
    ("nonempty", "_on_hyperplane_coords", "skip-coefficient"): (
        lambda args, on: (coeffs := cyclo._hyperplane_coeffs(*args[:3]))[0] == args[3] and not any(coeffs[2:]),
        r"sortability and vertex scan disagree",
        6,
        2,
    ),
    ("nonempty", "_hyperplanes_chain_key", "none"): (
        lambda args, key: None if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"sortability and vertex scan disagree",
    ),
    ("nonempty", "_hyperplanes_chain_key", "other"): (
        lambda args, key: OTHER_KEY if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"hyperplane intersection is not the face's vertex set",
    ),
    ("nonempty", "_hyperplanes_chain_key", "out-of-range"): (
        lambda args, key: (((3,),), ((3, 0),)) if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"assembled chain is not in the complex",
    ),
    ("nonempty", "_hyperplanes_chain_key", "noncanonical"): (
        lambda args, key: (key[0], tuple((i, e + 2) for i, e in key[1])) if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"assembled chain is not in the complex",
    ),
    ("nonempty", "_hyperplanes_chain_key", "equal-sizes"): (
        lambda args, key: OTHER_KEY if len(args[1]) == 2 and len(args[1][0][0]) == len(args[1][1][0]) else key,
        r"sortability and vertex scan disagree",
    ),
    ("nonempty", "_face_coords", ""): (
        lambda args, coords: [*coords, ((1, 0), (1, 0))] if args == (MAXIMAL,) else coords,
        r"hyperplane intersection is not the face's vertex set",
    ),
    ("nonempty", "chain_layers", ""): (
        lambda args, layers: (layers[0]._replace(exps=(1 - layers[0].exps[0],)), *layers[1:])
        if args == (MAXIMAL,)
        else layers,
        r"sortability and vertex scan disagree",
    ),
    ("nonempty", "chain_layers", "noncanonical"): (
        lambda args, layers: (layers[0]._replace(exps=(layers[0].exps[0] + 2,)), *layers[1:])
        if args == (MAXIMAL,)
        else layers,
        r"^layer is not a hyperplane of the complex on ",
    ),
    ("nonempty", "chain_layers", "foreign"): (
        lambda args, layers: (DecoratedSubset((3,), (0,)), *layers[1:]) if args == (MAXIMAL,) else layers,
        r"^layer is not a hyperplane of the complex on ",
    ),
    # A coarsening's layers still meet, so only the check that they assemble
    # into their own chain sees the top layer go.
    ("nonempty", "chain_layers", "drop-last"): (
        lambda args, layers: layers[:-1] if len(layers) > 1 else layers,
        r"layers do not nest into their chain",
    ),
    ("nonempty", "enumerate_vertices", ""): (
        lambda args, vertices: vertices[1:],
        r"hyperplane intersection is not the face's vertex set",
    ),
    ("nonempty", "delta", ""): (
        lambda args, bound: bound + 1 if args[1] == 1 else bound,
        r"sortability and vertex scan disagree",
    ),
    # zeta's entry flipped at r = 2, so zeta * x reads as x.  Swapping zeta
    # and zeta^2 at r = 3 would be no row: the swap is complex conjugation, a
    # field automorphism that keeps rational sums rational, so it moves no
    # vertex on or off a hyperplane (0 violations at (3, 2)).
    ("nonempty", "cyclo._zeta_powers", ""): (
        lambda args, powers: (powers[0], tuple([-c for c in powers[1]])) if args == (2,) else powers,
        r"more than n=2",
    ),
    # Phi_3 read as x^2 - 1, so zeta^2 reduces to 1 and zeta^2 * x reads as x.
    ("nonempty", "cyclo.cyclotomic_polynomial", ""): (
        lambda args, poly: (-1, 0, 1) if args == (3,) else poly,
        r"more than n=2",
        3,
        2,
    ),
}

# Library functions the suites call that need no fault row, and why.
NO_ROW = {
    "_check_nonnegative": "the cap's input gate: it runs before any route, and the refusal tests pin its texts",
    "_check_rn": "the (r, n) input gate: it runs before any route, and the refusal tests pin its texts",
    "_of_fields": "wraps fields a route computed; the suite compares those fields, not the wrapper",
    "enumerate_chains": (
        "the chain list every route runs over, not one of the routes compared on it; its cache holds that list"
    ),
}


def assert_reported(monkeypatch, suite, route, corrupt, violation, r=2, n=2):
    # The route is patched on its owner, `verify` unless the route names one.
    # Every library cache is cleared before and after the suite runs, so no
    # warm entry hides the fault and none carries it past the row.
    caches = library_caches().values()
    owner, _, name = route.rpartition(".")
    owner = getattr(pinwheel, owner) if owner else verify
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: corrupt(args, real(*args)))
    for cache in caches:
        cache.cache_clear()
    try:
        report = verify.SUITES[suite](r, n)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert any(re.search(violation, v) for v in report.violations), report.violations


def row_id(row):
    _, route, case = row
    return "-".join(filter(None, ("on_hyperplane" if route == "_on_hyperplane_coords" else route, case)))


def pytest_generate_tests(metafunc):
    # Each suite's class runs the rows of its own suite.
    if metafunc.function.__name__ == "test_a_broken_route_is_reported":
        rows = sorted(row for row in BROKEN if row[0] == metafunc.cls.SUITE)
        metafunc.parametrize("row", rows, ids=row_id)


class FaultRows:
    def test_a_broken_route_is_reported(self, monkeypatch, row):
        assert_reported(monkeypatch, *row[:2], *BROKEN[row])


def test_every_route_a_suite_calls_has_a_fault_row():
    # Each library function `verify` imports is a route some suite compares,
    # and each library cache serves one entry to many calls, so each needs a
    # row unless NO_ROW says why not.  A cache that `verify` imports goes by
    # its name there.
    imported = {
        value: name
        for name, value in vars(verify).items()
        if callable(value)
        and not isinstance(value, type)
        and value.__module__.startswith("pinwheel.")
        and value.__module__ != verify.__name__
    }
    routes = set(imported.values()) | {imported.get(cache, name) for name, cache in library_caches().items()}
    rows = {route for _, route, _ in BROKEN}
    assert sorted(routes - rows - set(NO_ROW)) == []
    assert sorted(set(NO_ROW) - (routes - rows)) == []


class TestThreeway(FaultRows):
    SUITE = "threeway"

    def test_octagon_counts(self):
        report = verify_threeway(2, 2)
        assert report.ok
        assert report.counts_by_dim == [8, 8, 1]

    def test_r3_counts(self):
        report = verify_threeway(3, 2)
        assert report.ok
        assert report.counts_by_dim == [18, 15, 1]

    def test_point_case(self):
        report = verify_threeway(4, 0)
        assert report.ok and report.counts_by_dim == [1]

    def test_cap(self):
        with pytest.raises(CapExceeded, match="max_group_order"):
            verify_threeway(4, 4)

    def test_cap_override(self):
        assert verify_threeway(2, 2, max_group_order=10**6).ok


class TestEquivariance(FaultRows):
    SUITE = "equivariance"

    def test_octagon(self):
        report = verify_equivariance(2, 2)
        assert report.ok and report.counts_by_dim == [8, 8, 1]

    def test_r3(self):
        assert verify_equivariance(3, 2).ok

    def test_cap(self):
        with pytest.raises(CapExceeded):
            verify_equivariance(3, 5)

    def test_an_image_outside_the_complex_is_reported(self, monkeypatch):
        stray = make_chain(2, 3, [[3]], {3: 0})
        real = verify._act_on_chain_key
        monkeypatch.setattr(
            verify,
            "_act_on_chain_key",
            lambda c, a: (stray.sets, stray.decoration) if (c, a) == (TARGET, ONE) else real(c, a),
        )
        report = verify_equivariance(2, 2)
        assert report.violations == [
            f"image is not a chain of the complex on {TARGET.to_json()} by {ONE.to_json()}"
        ]

    def test_one_pass_builds_each_entry_once(self, monkeypatch):
        # (2, 2) has 17 chains, 8 vertices and 8 group elements: one coset
        # enumeration, one face and one stratum per chain, one image key per
        # (chain, element) pair, and one table row per (vertex, element) and
        # per (element, element) pair.
        calls = Counter()
        for name in (
            "_coset_words",
            "_face_coords",
            "chain_to_stratum",
            "_act_on_chain_key",
            "_product",
            "_act_on_coords",
        ):
            real = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args)
            )
        assert verify_equivariance(2, 2).ok
        assert calls == {
            "_coset_words": 17,
            "_face_coords": 17,
            "chain_to_stratum": 17,
            "_act_on_chain_key": 136,
            "_product": 64,
            "_act_on_coords": 64,
        }

    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3)])
    def test_builds_no_point_or_element_per_pair(self, monkeypatch, r, n):
        # No point at all: the vertex table moves coordinate tuples, and the
        # coset action compares rep words.  One matrix per element, checked
        # or not, plus the rep of each chain's handle.  Caches are warmed and
        # the group is built first.
        assert verify_equivariance(r, n).ok
        group = enumerate_group(r, n)
        monkeypatch.setattr(verify, "enumerate_group", lambda r, n: group)
        built = count_builds(monkeypatch, YPoint, GenPerm)
        assert verify_equivariance(r, n).ok
        assert built[YPoint] == 0
        assert built[GenPerm] <= group_order(r, n) + len(enumerate_chains(r, n))

    def test_builds_no_chain_per_pair(self, monkeypatch):
        # Images are found by their (sets, decoration) key; the chains
        # themselves come from the cached enumeration.
        enumerate_chains(2, 2)
        built = count_builds(monkeypatch, Chain)
        assert verify_equivariance(2, 2).ok
        assert built[Chain] == 0


class TestProducts(FaultRows):
    SUITE = "products"

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_envelope_cases(self, r, n):
        assert verify_products(r, n).ok


class TestNonemptiness(FaultRows):
    SUITE = "nonempty"

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 1)])
    def test_small_cases(self, r, n):
        assert verify_nonemptiness(r, n).ok

    def test_a_vertex_on_every_hyperplane_is_reported_once(self, monkeypatch):
        # Every vertex lies on exactly n hyperplanes.  The kernel sees a
        # vertex's whole coordinate tuple only on the subset {1..n}, so here
        # it puts the base vertex on every hyperplane of that subset, r^n = 8
        # at (2,3), besides its two lower layers.  That star of 10 is reported
        # once, and none of its 1023 subfamilies is taken.
        r, n = 2, 3
        base = faces.enumerate_vertices(r, n)[0]
        real = verify._on_hyperplane_coords
        monkeypatch.setattr(
            verify, "_on_hyperplane_coords", lambda r, coords, *args: coords == base.coords or real(r, coords, *args)
        )
        violations = verify_nonemptiness(r, n).violations
        assert violations[0] == f"vertex {base.to_json()} lies on 10 hyperplanes, more than n=3"
        # The one family met only at that vertex: the layers of its maximal chain.
        assert violations[1:] == ["sortability and vertex scan disagree on [{1: 0}, {1: 0, 2: 0}, {1: 0, 2: 0, 3: 0}]"]

    @pytest.mark.parametrize("r,n,calls", [(2, 3, 708), (3, 3, 5913)])
    def test_each_distinct_restriction_takes_one_evaluation(self, monkeypatch, r, n, calls):
        # Per subset S, one kernel call per exponent word and distinct
        # restriction of the vertices to S: no prefilter skips one, and
        # nothing is carried from one subset to the next.
        expected = 0
        vertices = faces.enumerate_vertices(r, n)
        for size in range(1, n + 1):
            for elems in itertools.combinations(range(n), size):
                restrictions = {tuple(v.coords[i] for i in elems) for v in vertices}
                expected += r**size * len(restrictions)
        inputs = Counter()
        real = verify._on_hyperplane_coords

        def kernel(r, coords, terms, target):
            inputs.update([(coords, tuple(terms))])
            return real(r, coords, terms, target)

        monkeypatch.setattr(verify, "_on_hyperplane_coords", kernel)
        assert verify_nonemptiness(r, n).ok
        assert sum(inputs.values()) == expected == calls

    def test_caps_refuse_before_any_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated before the caps were checked")

        monkeypatch.setattr(verify, "enumerate_chains", refuse)
        monkeypatch.setattr(verify, "enumerate_vertices", refuse)
        with pytest.raises(CapExceeded, match="max_group_order"):
            verify_nonemptiness(4, 4)

    def test_hashes_no_decorated_subset(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a decorated subset was hashed")

        monkeypatch.setattr(DecoratedSubset, "__hash__", refuse)
        assert verify_nonemptiness(2, 2).ok
        assert verify_nonemptiness(3, 2).ok

    def test_negative_cap_is_refused_by_the_library(self):
        with pytest.raises(ValueError, match="^max_group_order must be >= 0, got -5$") as err:
            verify_nonemptiness(2, 2, max_group_order=-5)
        assert not isinstance(err.value, CapExceeded)

    def test_non_integer_cap_is_refused_by_the_library(self):
        with pytest.raises(TypeError):
            verify_nonemptiness(2, 2, max_group_order=2.5)
        # A bool is taken as the int it is: True caps at 1, which (2, 1) exceeds.
        with pytest.raises(CapExceeded, match=r"^group order 2 for \(r=2, n=1\) exceeds max_group_order=1$"):
            verify_nonemptiness(2, 1, max_group_order=True)

    @pytest.mark.parametrize("n", [1500, 10**6])
    def test_an_order_far_above_the_cap_is_refused_quickly(self, n):
        # r^n * n! would have more digits than an int may print; the check
        # stops at k = 5, where 2 * 4 * 6 * 8 * 10 = 3840 first passes 2000.
        start = time.perf_counter()
        refusal = rf"^group order at least 3840 for \(r=2, n={n}\) exceeds max_group_order=2000$"
        with pytest.raises(CapExceeded, match=refusal):
            verify_nonemptiness(2, n)
        assert time.perf_counter() - start < 1


class TestReports:
    def test_json_schema(self):
        report = verify_threeway(2, 2)
        data = report.to_json()
        assert sorted(data) == ["counts_by_dim", "n", "r", "suite", "violations"]
        assert data["suite"] == "threeway"
        assert data["violations"] == []

    def test_every_suite_checks_the_cap_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated before the cap was checked")

        monkeypatch.setattr(verify, "enumerate_chains", refuse)
        refusal = r"^group order 6144 for \(r=4, n=4\) exceeds max_group_order=2000$"
        for suite in verify.SUITES.values():
            with pytest.raises(CapExceeded, match=refusal):
                suite(4, 4)

    def test_every_suite_reports_r_and_n_as_ints(self):
        # A bool is taken as the int it is; the report holds that int.
        for suite in verify.SUITES.values():
            data = suite(2, True).to_json()
            assert (data["r"], data["n"]) == (2, 1)
            assert type(data["n"]) is int

    def test_every_suite_takes_r_and_n_by_index(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        for suite in verify.SUITES.values():
            assert suite(Index(2), Index(2)).to_json() == suite(2, 2).to_json()

    def test_suites_run_in_order(self):
        reports = [suite(2, 2) for suite in verify.SUITES.values()]
        assert [rep.suite for rep in reports] == [
            "threeway",
            "equivariance",
            "products",
            "nonempty",
        ]
        assert all(rep.ok for rep in reports)

    def test_the_census_reads_no_compared_route(self, monkeypatch):
        # `chain_dimension` is one of the four dimensions threeway compares;
        # every report's census counts chains by their own length.
        real = verify.chain_dimension
        monkeypatch.setattr(verify, "chain_dimension", lambda c: real(c) + 1)
        reports = {name: suite(2, 2) for name, suite in verify.SUITES.items()}
        assert any("dimension mismatch" in v for v in reports["threeway"].violations)
        assert {name: rep.counts_by_dim for name, rep in reports.items()} == dict.fromkeys(verify.SUITES, [8, 8, 1])
