"""One statement of the public API: each module's `__all__`.

A name is public when it has no leading underscore (the rule perfbench's
tracer follows), when its module's `__all__` lists it, and when
`import pinwheel` exposes it.  These tests keep the three in agreement.
"""

import importlib
import importlib.util
import inspect
import json
import types
from pathlib import Path

import pytest

import pinwheel

LIBRARY = ("cyclo", "group", "chains", "cosets", "faces", "strata", "verify")
MODULES = {name: importlib.import_module(f"pinwheel.{name}") for name in LIBRARY}


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_definition_is_in_all(name):
    mod = MODULES[name]
    defined = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (isinstance(obj, type) or inspect.isfunction(inspect.unwrap(obj)))
        and obj.__module__ == mod.__name__
    }
    assert defined <= set(mod.__all__), sorted(defined - set(mod.__all__))


@pytest.mark.parametrize("name", LIBRARY)
def test_every_all_entry_exists(name):
    mod = MODULES[name]
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_exposes_exactly_the_union_of_all():
    # Skip module objects: `pinwheel.cli` joins the namespace once anything imports it.
    exposed = {
        attr
        for attr, obj in vars(pinwheel).items()
        if not attr.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exposed == {attr for mod in MODULES.values() for attr in mod.__all__}


def test_names_once_missing_from_the_package_import():
    from pinwheel import chain_layers, coarsenings, spoke_contractions

    assert chain_layers is pinwheel.faces.chain_layers
    assert coarsenings is pinwheel.chains.coarsenings
    assert spoke_contractions is pinwheel.strata.spoke_contractions


REPO = Path(__file__).resolve().parents[1]


def traced_call_names() -> list[str]:
    """Each per-layer `<module>.<name>.calls` metric of the benchmark, without `.calls`."""
    per_layer = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    return [m["name"].removesuffix(".calls") for m in per_layer if m["name"].endswith(".calls")]


@pytest.mark.parametrize("name", traced_call_names())
def test_every_traced_name_is_public(name):
    # The traced benchmark exits 1 on a metric it cannot measure, so each
    # name must stay a public function, a class with its own __post_init__
    # (traced as `validate`) or a class with its own from_json.
    module, *path = name.split(".")
    mod = importlib.import_module(f"pinwheel.{module}")
    assert not any(part.startswith("_") for part in path)
    if len(path) == 1:
        assert inspect.isfunction(inspect.unwrap(getattr(mod, path[0])))
    else:
        cls, method = path
        own = vars(getattr(mod, cls))
        assert {"validate": "__post_init__", "from_json": "from_json"}[method] in own


def test_micro_cases_run_and_pass_their_checks():
    spec = importlib.util.spec_from_file_location("perfbench_micro", REPO / "perfbench" / "micro.py")
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    table = micro.cases()
    assert table
    assert [name for name, (call, check) in table.items() if not check(call())] == []
