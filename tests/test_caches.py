"""The library caches only where repeated calls hit the cache, and every cache is bounded,
so long-lived use cannot grow without limit; no enumerator, cached or not, answers a
float r or n."""

import importlib
import pkgutil

import pytest

import pinwheel


def _caches():
    for info in pkgutil.iter_modules(pinwheel.__path__):
        module = importlib.import_module(f"pinwheel.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj.cache_parameters()["maxsize"]


def test_every_lru_cache_has_a_finite_maxsize():
    sizes = dict(_caches())
    assert {
        "pinwheel.cyclo.cyclotomic_polynomial",
        "pinwheel.cyclo._zeta_powers",
        "pinwheel.chains.enumerate_chains",
        "pinwheel.group._subgroup_closure",
        # threeway (2,4): 1,547 hits, 150 misses; (4,4): 22,683 hits, 150 misses.
        "pinwheel.faces._face_dimension",
        # threeway (2,4): 1,692 hits, 5 misses, one per chain length.
        "pinwheel.chains._kept_positions",
        # threeway (2,4): 1,692 hits, 5 misses, one per spoke length.
        "pinwheel.strata._contraction_runs",
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
