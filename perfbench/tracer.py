"""Call counts and self time per public name of the pinwheel modules.

`Tracer.install()` wraps, from outside the program, every public function,
every public `from_json` and every public class's `__post_init__` (named
`<Class>.validate`) in the modules listed in MODULES, then rebinds every
module global (and every value of a module-level dict, such as
`verify.SUITES`) that holds an original.  Wrapping is by object identity and
each name comes from the object's defining module, so a re-export such as
`faces.YPoint` or a package-level `pinwheel.*` name is counted once.

Each thread keeps its own span stack and its own counters.  A span's self
time is its duration minus the union of its children's intervals.  A span
opened on a worker thread with an empty stack is a child of the span that is
open on the main thread, which is where the verify suites' thread pool is
driven from.  Self time is wall-clock time, so a span on a pool thread also
counts its waits for the interpreter lock, and the self times of a threaded
run can sum to more than its wall time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from time import perf_counter as clock

MODULES = ("cyclo", "group", "chains", "cosets", "faces", "strata", "verify", "cli")

# Left unwrapped: reached hundreds of thousands of times through its
# lru_cache, where a wrapper would cost more than the call.  Its time counts
# as self time of its callers (CycloNum validation and arithmetic).
UNWRAPPED = frozenset({"cyclo.cyclotomic_polynomial"})

# Calls that did useful work, for the waste ratios: a chain assembled, a
# point found on the hyperplane.
USEFUL = {
    "faces.hyperplanes_to_chain": lambda chain: chain is not None,
    "cyclo.on_hyperplane": bool,
}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s")

    def __init__(self, size: int) -> None:
        self.stack: list[list] = []
        self.calls = [0] * size
        self.self_s = [0.0] * size


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main_state: _ThreadState | None = None
        # Waste ratios at three public boundaries: distinct subgroup cache
        # keys, and the calls whose result was useful (USEFUL below).
        self.subgroup_keys: set = set()
        self.useful = dict.fromkeys(USEFUL, 0)

    # -- spans -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.names))
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _enter(self, state: _ThreadState) -> list:
        # frame: [start, own children's summed time, recorded intervals or
        # None, open children on other threads, parent on another thread]
        frame = [0.0, 0.0, None, 0, None]
        if not state.stack and state is not self._main_state and self._main_state is not None:
            try:
                parent = self._main_state.stack[-1]
            except IndexError:
                parent = None
            if parent is not None:
                with self._lock:
                    parent[3] += 1
                frame[4] = parent
        state.stack.append(frame)
        frame[0] = clock()
        return frame

    def _exit(self, state: _ThreadState, frame: list, idx: int, count: int) -> None:
        end = clock()
        start = frame[0]
        state.stack.pop()
        covered = frame[1]
        if frame[2] is not None:
            covered += _union_length(frame[2])
        state.calls[idx] += count
        state.self_s[idx] += (end - start) - covered
        if state.stack:
            parent = state.stack[-1]
            if parent[2] is None and not parent[3]:
                parent[1] += end - start
            else:
                # Children on other threads may overlap this one: keep the
                # interval for the union.
                with self._lock:
                    if parent[2] is None:
                        parent[2] = []
                    parent[2].append((start, end))
        elif frame[4] is not None:
            parent = frame[4]
            with self._lock:
                parent[3] -= 1
                if parent[2] is None:
                    parent[2] = []
                parent[2].append((start, end))

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        state_of, enter, leave = self._state, self._enter, self._exit
        useful = USEFUL.get(name)

        if inspect.isgeneratorfunction(inspect.unwrap(fn)):

            def gen_wrapper(*args, **kwargs):
                # One call per generator; its self time is summed over every
                # resumption, so the consumer's work between items is not in it.
                gen = fn(*args, **kwargs)
                count = 1
                while True:
                    state = state_of()
                    frame = enter(state)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(state, frame, idx, count)
                    count = 0
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            state = state_of()
            frame = enter(state)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(state, frame, idx, 1)
            if useful is not None and useful(result):
                with self._lock:
                    self.useful[name] += 1
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "pinwheel") -> None:
        replaced: dict[int, tuple[object, object]] = {}
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    own = vars(obj)
                    if "__post_init__" in own:
                        obj.__post_init__ = self._wrap(own["__post_init__"], f"{short}.{attr}.validate")
                    if isinstance(own.get("from_json"), staticmethod):
                        wrapped = self._wrap(own["from_json"].__func__, f"{short}.{attr}.from_json")
                        obj.from_json = staticmethod(wrapped)
                elif inspect.isfunction(inspect.unwrap(obj)) and f"{short}.{attr}" not in UNWRAPPED:
                    name = f"{short}.{attr}"
                    fn = self._count_keys(obj) if name == "group.generate_subgroup" else obj
                    replaced[id(obj)] = (obj, self._wrap(fn, name))
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == package or mod.__name__.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
        self._main_state = self._state()

    def _count_keys(self, fn):
        # generate_subgroup's cache key is (r, n, frozenset(gens)); taking the
        # frozenset here also keeps a one-shot iterator usable by the call.
        def call(r, n, gens):
            gens = frozenset(gens)
            with self._lock:
                self.subgroup_keys.add((r, n, gens))
            return fn(r, n, gens)

        return call

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        """calls and self_s per traced name, summed over threads."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, calls, self_s in zip(self.names, state.calls, state.self_s):
                out[name]["calls"] += calls
                out[name]["self_s"] += self_s
        return out
