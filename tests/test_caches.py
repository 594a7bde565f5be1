"""Every lru_cache in the library is bounded, so long-lived use cannot grow without limit."""

import importlib
import pkgutil

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
        "pinwheel.faces.enumerate_vertices",
        "pinwheel.group.enumerate_group",
        "pinwheel.group._subgroup_closure",
    } <= set(sizes)
    assert [name for name, size in sizes.items() if size is None] == []
