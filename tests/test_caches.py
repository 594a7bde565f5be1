"""The library caches only where repeated calls hit the cache, and every cache is bounded,
so long-lived use cannot grow without limit; no enumerator, cached or not, answers a
float r or n; and no per-set-chain table hands one chain's decoration to another."""

import itertools
import random

import pytest

import pinwheel
from pinwheel import (
    GenPerm,
    TCosetHandle,
    chain_to_coset,
    make_chain,
    maximal_refinements,
    vertex_of_maximal_chain,
)
from pinwheel.chains import _coarsening_keys, _coarsening_sets
from pinwheel.cosets import _coset_rows
from pinwheel.faces import _face_coords, _face_shape

from conftest import library_caches


def test_every_lru_cache_has_a_finite_maxsize():
    sizes = {name: cache.cache_parameters()["maxsize"] for name, cache in library_caches().items()}
    assert {
        "cyclo.cyclotomic_polynomial",
        "cyclo._zeta_powers",
        "chains.enumerate_chains",
        "group._subgroup_closure",
        # threeway (2,4): 1,547 hits, 150 misses; (4,4): 22,683 hits, 150 misses.
        "faces._face_dimension",
        # Each read by one route and keyed on the set chain; threeway (2,4):
        # 1,547 hits, 150 misses; (4,4): 22,683 hits, 150 misses.
        "faces._face_shape",
        "cosets._coset_rows",
        "chains._coarsening_sets",
        # threeway (2,4): 1,692 hits, 5 misses, one per spoke length.
        "strata._contraction_runs",
    } == set(sizes)
    assert [name for name, size in sizes.items() if size is None] == []


@pytest.mark.parametrize(
    "enumerate_", [pinwheel.enumerate_chains, pinwheel.enumerate_group, pinwheel.enumerate_vertices]
)
def test_cached_enumerators_refuse_a_float_on_a_cold_and_a_warm_cache(enumerate_):
    # A float equal to an int hashes like it, so an untyped cache would
    # hand back the int entry once that entry is warm.  Only enumerate_chains
    # caches; the other two stay here so that a cache put back on them is typed.
    if hasattr(enumerate_, "cache_clear"):
        enumerate_.cache_clear()
    for _ in ("cold", "warm"):
        for r, n in ((2.0, 1), (2, 1.0)):
            with pytest.raises(ValueError, match=rf"^need r >= 2 and n >= 0, got r={r}, n={n}$"):
                enumerate_(r, n)
        enumerate_(2, 1)


def _coset_by_loop(c):
    """The handle of c's coset, its rows filled in straight from c with no table."""
    n = row = c.n
    rows, exps = [0] * n, [0] * n
    for s in c.sets + (range(1, n + 1),):
        for col in s:
            if not rows[col - 1]:
                rows[col - 1] = row
                row -= 1
    for col, e in c.decoration:
        exps[col - 1] = -e % c.r
    gens = frozenset(range(n)).difference([n - len(s) for s in c.sets])
    return TCosetHandle(gens, GenPerm(c.r, n, tuple(rows), tuple(exps)))


def _coarsening_keys_by_deletion(c):
    """The (sets, decoration) of each chain left after deleting some of c's sets.

    One per keep mask, masks in `itertools.product((True, False), ...)` order.
    """
    dec = dict(c.decoration)
    keys = []
    for mask in itertools.product((True, False), repeat=c.length):
        sets = [s for s, keep in zip(c.sets, mask) if keep]
        coarse = make_chain(c.r, c.n, sets, {i: dec[i] for i in (sets[-1] if sets else ())})
        keys.append((coarse.sets, coarse.decoration))
    return keys


@pytest.mark.parametrize("r,n", [(2, 0), (3, 0), (2, 1), (3, 1), (2, 3), (3, 3), (2, 4)])
def test_a_table_hit_carries_no_decoration_over(r, n):
    # Once in enumeration order on cold tables, where the chains of one set
    # chain follow each other and hit one entry; then in a seeded shuffle,
    # where entries are evicted and refilled.  At n = 0 and 1 a vertex is
    # placed without an itemgetter, which returns no tuple for under 2 indices.
    tables = (_face_shape, _coset_rows, _coarsening_sets)
    for table in tables:
        table.cache_clear()
    chains = list(pinwheel.enumerate_chains(r, n))
    shuffled = random.Random(r * 10 + n).sample(chains, len(chains))
    for c in chains + shuffled:
        assert _face_coords(c) == [vertex_of_maximal_chain(d).coords for d in maximal_refinements(c)]
        assert chain_to_coset(c) == _coset_by_loop(c)
        assert _coarsening_keys(c) == _coarsening_keys_by_deletion(c)
    assert all(table.cache_info().hits for table in tables)
