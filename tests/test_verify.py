import re
import time
from collections import Counter
from dataclasses import replace

import pytest

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

from conftest import count_builds


# Chains over (2, 2) that the fault-injection tests corrupt one route on.
TARGET = make_chain(2, 2, [[1]], {1: 1})
OTHER = make_chain(2, 2, [[2]], {2: 0})
MAXIMAL = make_chain(2, 2, [[1], [1, 2]], {1: 0, 2: 1})
OTHER_MAXIMAL = make_chain(2, 2, [[2], [1, 2]], {1: 0, 2: 1})


# Route name in `pinwheel.verify`, with a "-<case>" suffix when one route
# has two cases -> (corruption of its result for one argument, the violation
# the threeway suite must then report).  The suite compares canonical keys,
# so each route is the key builder it calls.  A "-foreign" case names a chain
# or stratum outside the complex; a "-noncanonical" case emits an exponent
# e + r, which names the same object but not its canonical key.
TARGET_KEY = (TARGET.sets, TARGET.decoration)
BROKEN_ROUTES = {
    "_coset_chain_key": (
        lambda h, key: (OTHER.sets, OTHER.decoration) if key == TARGET_KEY else key,
        r"coset roundtrip broke",
    ),
    "_coset_chain_key-noncanonical": (
        lambda h, key: (key[0], tuple((i, e + 2) for i, e in key[1])) if key == TARGET_KEY else key,
        r"coset roundtrip broke",
    ),
    "_stratum_chain_key": (
        lambda s, key: (OTHER.sets, OTHER.decoration) if key == TARGET_KEY else key,
        r"stratum roundtrip broke",
    ),
    "face_dimension_bruteforce": (
        lambda c, dim: dim + 1 if c == TARGET else dim,
        r"dimension (mismatch|oracle)",
    ),
    "vertex_of_maximal_chain": (
        lambda c, v: vertex_of_maximal_chain(OTHER_MAXIMAL) if c == MAXIMAL else v,
        r"vertex is not the one point of its face",
    ),
    # Every vertex rotated by one place: the vertex set is closed under
    # coordinate permutations, so only the comparison with the face sees it.
    "vertex_of_maximal_chain-rotated": (
        lambda c, v: replace(v, coords=v.coords[1:] + v.coords[:1]),
        r"vertex is not the one point of its face",
    ),
    "_coset_words": (
        lambda h, words: sorted(words)[1:] if h == chain_to_coset(TARGET) else words,
        r"inclusion mismatch \(coset\)",
    ),
    "_coset_words-noncanonical": (
        lambda h, words: [(rows, (exps[0] + 2, *exps[1:])) for rows, exps in words]
        if h == chain_to_coset(TARGET)
        else words,
        r"inclusion mismatch \(coset\)",
    ),
    "_face_coords": (
        lambda c, coords: sorted(coords)[1:] if c == TARGET else coords,
        r"inclusion mismatch \(face\)",
    ),
    "spoke_contractions": (
        lambda s, out: list(out)[:-1] if s == chain_to_stratum(TARGET) else out,
        r"inclusion mismatch \(stratum\)",
    ),
    "_coarsening_keys": (
        lambda c, keys: list(keys)[:-1] if c == TARGET else keys,
        r"inclusion mismatch \((coset|face|stratum)\)",
    ),
    "_coarsening_keys-foreign": (
        lambda c, keys: [*keys, (((3,),), ((3, 0),))] if c == TARGET else keys,
        r"coarsening is not in the complex",
    ),
    "spoke_contractions-foreign": (
        lambda s, out: [*out, (((3, 0),),)] if s == chain_to_stratum(TARGET) else out,
        r"contraction is not in the complex",
    ),
}


# Case -> (name of a route in `pinwheel.verify` that the nonempty suite
# reaches, corruption of its result for one argument tuple, the violation the
# suite must then report).  MAXIMAL's vertex lies on the hyperplane of the set
# {1} with decoration 1 -> 0, and the one-set family of that hyperplane is
# sortable.  The suite names each hyperplane by its (elements, exps) key and
# looks assembled chains up by their canonical keys, so the assembly route is
# the key builder, whose second argument is the family of hyperplane keys; an
# "-out-of-range" key names element 3 at n = 2, and a "-noncanonical" one the
# exponent e + r, which `Chain` would fold into the same chain.  An
# "-equal-sizes" key accepts every pair of equal-size subsets, which never
# meet, so only the suite's pairs check calls the key builder on them.  The
# "on_hyperplane-add" case puts MAXIMAL's vertex on the hyperplane of {2} with
# decoration 2 -> 0 as well, and "-drop" takes it off the top layer of
# MAXIMAL, so that chain's layers no longer meet.  "-empty" takes every vertex
# off the hyperplane of {1} with decoration 1 -> 0; that one-set family is
# then named by the suite's chain side alone.  The "on_hyperplane" cases
# corrupt the per-pair kernel the suite calls, `_on_hyperplane_coords`, whose
# arguments are (r, coords, terms, target); a term is a 0-based index with its
# exponent, so {1} with 1 -> 0 is ((0, 0),).
ON_SET_ONE = ((1,), (0,))
OTHER_KEY = (OTHER.sets, OTHER.decoration)
MAXIMAL_COORDS = vertex_of_maximal_chain(MAXIMAL).coords
BROKEN_NONEMPTY_ROUTES = {
    "on_hyperplane": (
        "_on_hyperplane_coords",
        lambda args, on: not on if args[1] == MAXIMAL_COORDS and tuple(args[2]) == ((0, 0),) else on,
        r"hyperplane intersection is not the face's vertex set",
    ),
    "on_hyperplane-add": (
        "_on_hyperplane_coords",
        lambda args, on: True if args[1] == MAXIMAL_COORDS and tuple(args[2]) == ((1, 0),) else on,
        r"sortability and vertex scan disagree",
    ),
    "on_hyperplane-drop": (
        "_on_hyperplane_coords",
        lambda args, on: False if args[1] == MAXIMAL_COORDS and tuple(args[2]) == ((0, 0), (1, 1)) else on,
        r"sortability and vertex scan disagree",
    ),
    "on_hyperplane-empty": (
        "_on_hyperplane_coords",
        lambda args, on: False if tuple(args[2]) == ((0, 0),) else on,
        r"^sortability and vertex scan disagree on \[\{1: 0\}\]$",
    ),
    "_hyperplanes_chain_key-none": (
        "_hyperplanes_chain_key",
        lambda args, key: None if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"sortability and vertex scan disagree",
    ),
    "_hyperplanes_chain_key-other": (
        "_hyperplanes_chain_key",
        lambda args, key: OTHER_KEY if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"hyperplane intersection is not the face's vertex set",
    ),
    "_face_coords": (
        "_face_coords",
        lambda args, coords: [*coords, ((1, 0), (1, 0))] if args == (MAXIMAL,) else coords,
        r"hyperplane intersection is not the face's vertex set",
    ),
    "_hyperplanes_chain_key-out-of-range": (
        "_hyperplanes_chain_key",
        lambda args, key: (((3,),), ((3, 0),)) if tuple(args[1]) == (ON_SET_ONE,) else key,
        r"assembled chain is not in the complex",
    ),
    "_hyperplanes_chain_key-noncanonical": (
        "_hyperplanes_chain_key",
        lambda args, key: (key[0], tuple((i, e + 2) for i, e in key[1]))
        if tuple(args[1]) == (ON_SET_ONE,)
        else key,
        r"assembled chain is not in the complex",
    ),
    "_hyperplanes_chain_key-equal-sizes": (
        "_hyperplanes_chain_key",
        lambda args, key: OTHER_KEY
        if len(args[1]) == 2 and len(args[1][0][0]) == len(args[1][1][0])
        else key,
        r"sortability and vertex scan disagree",
    ),
}


# Route name in `pinwheel.verify`, with a "-<case>" suffix when one route has
# two cases -> (corruption of its result for one argument tuple at (2, 2), the
# violation the equivariance suite must then report).  The suite's base point
# is ((1, 0), (2, 0)); a "-positive" case acts on TARGET's stratum, which is
# not a vertex stratum.  "-foreign" and "-noncanonical" cases are as above: a
# stray vertex, or a word whose exponent is e + r.
ONE = identity(2, 2)
BASE = ((1, 0), (2, 0))
BROKEN_EQUIVARIANCE_ROUTES = {
    "_act_on_coords": (
        lambda args, coords: ((1, 1), (2, 0)) if args == (BASE, ONE) else coords,
        r"vertex-orbit reinterpretation broke",
    ),
    "_act_on_chain_key": (
        lambda args, key: (OTHER.sets, OTHER.decoration) if args == (TARGET, ONE) else key,
        r"face action broke",
    ),
    "_act_on_coset_key": (
        lambda args, key: chain_to_coset(OTHER).rep.sort_key()
        if args == (chain_to_coset(TARGET), ONE)
        else key,
        r"coset action missed the image coset",
    ),
    "_act_on_coset_key-noncanonical": (
        lambda args, key: (key[0], (key[1][0] + 2, *key[1][1:]))
        if args == (chain_to_coset(TARGET), ONE)
        else key,
        r"coset action missed the image coset",
    ),
    "_product": (
        lambda args, word: multiply(GenPerm(2, 2, *word), generator(2, 2, 0)).sort_key()
        if args == (ONE, ONE)
        else word,
        r"coset element action broke",
    ),
    "_product-noncanonical": (
        lambda args, word: (word[0], (word[1][0] + 2, *word[1][1:])) if args == (ONE, ONE) else word,
        r"coset element action broke",
    ),
    "_coset_words": (
        lambda args, words: sorted(words)[1:] if args == (chain_to_coset(TARGET),) else words,
        r"coset element action broke",
    ),
    "_coset_words-noncanonical": (
        lambda args, words: [(rows, (exps[0] + 2, *exps[1:])) for rows, exps in words]
        if args == (chain_to_coset(TARGET),)
        else words,
        r"coset element action broke",
    ),
    "_face_coords": (
        lambda args, coords: sorted(coords)[1:] if args == (TARGET,) else coords,
        r"face action broke",
    ),
    "_face_coords-foreign": (
        lambda args, coords: [*coords, ((1, 0), (1, 0))] if args == (TARGET,) else coords,
        r"face action broke",
    ),
    "_act_on_spoke": (
        lambda args, spoke: chain_to_stratum(OTHER_MAXIMAL).spoke
        if args == (chain_to_stratum(MAXIMAL), ONE)
        else spoke,
        r"stratum action broke",
    ),
    "_act_on_spoke-positive": (
        lambda args, spoke: chain_to_stratum(OTHER).spoke if args == (chain_to_stratum(TARGET), ONE) else spoke,
        r"stratum action broke",
    ),
    "chain_to_stratum": (
        lambda args, s: chain_to_stratum(OTHER) if args == (TARGET,) else s,
        r"stratum action broke",
    ),
}

# Route name in `pinwheel.verify`, with a "-<case>" suffix when one route has
# two cases -> (corruption of its result for one argument tuple at (2, 2), the
# violation the products suite must then report).  TARGET has a block-0 and a
# block-1 factor in each family; MAXIMAL has two spoke components.  The "-kind"
# case makes TARGET's reflection block symmetric with exponents 0, which the
# block product then reads too.
BROKEN_PRODUCT_ROUTES = {
    "chain_to_stratum-merge": (
        lambda args, s: contract_spoke_edges(s, [1]) if args == (MAXIMAL,) else s,
        r"factor lists disagree",
    ),
    "chain_to_stratum-drop": (
        lambda args, s: contract_spoke_edges(s, [1]) if args == (TARGET,) else s,
        r"factor lists disagree",
    ),
    "coset_block_decomposition": (
        lambda args, fs: fs[:-1] if args == (TARGET,) else fs,
        r"factor lists disagree",
    ),
    "face_product_decomposition": (
        lambda args, fs: fs[:-1] if args == (TARGET,) else fs,
        r"factor lists disagree",
    ),
    "coset_block_decomposition-kind": (
        lambda args, fs: (replace(fs[0], kind="symmetric", exps=(0,) * fs[0].size), *fs[1:])
        if args == (TARGET,)
        else fs,
        r"coset is not the product of its blocks",
    ),
    "_coset_words": (
        lambda args, words: sorted(words)[1:] if args == (chain_to_coset(TARGET),) else words,
        r"coset is not the product of its blocks",
    ),
}


class TestThreeway:
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

    @pytest.mark.parametrize("route", sorted(BROKEN_ROUTES))
    def test_a_broken_route_is_reported(self, monkeypatch, route):
        corrupt, violation = BROKEN_ROUTES[route]
        name = route.partition("-")[0]
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda arg: corrupt(arg, real(arg)))
        report = verify_threeway(2, 2)
        assert any(re.search(violation, v) for v in report.violations), report.violations


class TestEquivariance:
    def test_octagon(self):
        report = verify_equivariance(2, 2)
        assert report.ok and report.counts_by_dim == [8, 8, 1]

    def test_r3(self):
        assert verify_equivariance(3, 2).ok

    def test_cap(self):
        with pytest.raises(CapExceeded):
            verify_equivariance(3, 5)

    @pytest.mark.parametrize("route", sorted(BROKEN_EQUIVARIANCE_ROUTES))
    def test_a_broken_route_is_reported(self, monkeypatch, route):
        corrupt, violation = BROKEN_EQUIVARIANCE_ROUTES[route]
        name = route.partition("-")[0]
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args: corrupt(args, real(*args)))
        report = verify_equivariance(2, 2)
        assert any(re.search(violation, v) for v in report.violations), report.violations

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
        # or not, plus the rep of each chain's handle.  Caches are warmed
        # first.
        assert verify_equivariance(r, n).ok
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


class TestProducts:
    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_envelope_cases(self, r, n):
        assert verify_products(r, n).ok

    @pytest.mark.parametrize("route", sorted(BROKEN_PRODUCT_ROUTES))
    def test_a_broken_route_is_reported(self, monkeypatch, route):
        corrupt, violation = BROKEN_PRODUCT_ROUTES[route]
        name = route.partition("-")[0]
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args: corrupt(args, real(*args)))
        report = verify_products(2, 2)
        assert any(re.search(violation, v) for v in report.violations), report.violations

    def test_reversed_segments_are_reported(self, monkeypatch):
        # A fault every chain-side decomposition shares: the stratum's, the
        # coset's and the face's factor lists still agree, but the coset's
        # blocks land on the wrong columns, so their product is another set.
        real = Chain.segments
        monkeypatch.setattr(Chain, "segments", lambda c: real(c)[::-1])
        report = verify_products(2, 2)
        assert any(re.search("coset is not the product of its blocks", v) for v in report.violations)


class TestNonemptiness:
    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 1)])
    def test_small_cases(self, r, n):
        assert verify_nonemptiness(r, n).ok

    def test_a_vertex_on_every_hyperplane_is_reported_once(self, monkeypatch):
        # Every vertex lies on exactly n hyperplanes.  A larger star is
        # reported, and none of its subfamilies is taken: here they would be
        # every family of at most n hyperplanes, 2951 at (2,3).
        r, n = 2, 3
        base = faces.enumerate_vertices(r, n)[0]
        real = verify._on_hyperplane_coords
        monkeypatch.setattr(
            verify, "_on_hyperplane_coords", lambda r, coords, *args: coords == base.coords or real(r, coords, *args)
        )
        violations = verify_nonemptiness(r, n).violations
        assert violations[0] == f"vertex {base.to_json()} lies on 26 hyperplanes, more than n=3"
        # The one family met only at that vertex: the layers of its maximal chain.
        assert violations[1:] == ["sortability and vertex scan disagree on [{1: 0}, {1: 0, 2: 0}, {1: 0, 2: 0, 3: 0}]"]

    @pytest.mark.parametrize("r,n,pairs", [(2, 3, 1248), (3, 3, 10206)])
    def test_every_pair_takes_one_evaluation(self, monkeypatch, r, n, pairs):
        # |V| * ((r+1)^n - 1) kernel calls, none on a repeated input: no
        # prefilter skips a (vertex, hyperplane) pair and none is grouped.
        inputs = Counter()
        real = verify._on_hyperplane_coords

        def kernel(r, coords, terms, target):
            inputs.update([(coords, tuple(terms))])
            return real(r, coords, terms, target)

        monkeypatch.setattr(verify, "_on_hyperplane_coords", kernel)
        assert verify_nonemptiness(r, n).ok
        assert sum(inputs.values()) == group_order(r, n) * ((r + 1) ** n - 1) == pairs
        assert set(inputs.values()) == {1}

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

    @pytest.mark.parametrize("route", sorted(BROKEN_NONEMPTY_ROUTES))
    def test_a_broken_route_is_reported(self, monkeypatch, route):
        name, corrupt, violation = BROKEN_NONEMPTY_ROUTES[route]
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args: corrupt(args, real(*args)))
        report = verify_nonemptiness(2, 2)
        assert any(re.search(violation, v) for v in report.violations), report.violations

    def test_a_kernel_that_skips_a_coefficient_is_reported_at_r6(self, monkeypatch):
        # The kernel tests coeffs[2:] for coeffs[1:], so a sum whose zeta
        # coefficient is nonzero can pass.  That moves no vertex onto another
        # hyperplane at (3,3), (4,3), (5,2) or (5,3); at (6,2) it does.
        def kernel(r, coords, terms, target):
            coeffs = cyclo._hyperplane_coeffs(r, coords, terms)
            return coeffs[0] == target and not any(coeffs[2:])

        monkeypatch.setattr(verify, "_on_hyperplane_coords", kernel)
        report = verify_nonemptiness(6, 2)
        assert any(re.search("sortability and vertex scan disagree", v) for v in report.violations)


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
