"""Per-call timings of the building blocks, on the worked chain of the ROADMAP baseline.

The chain is {3} < {2,3,4} at (r, n) = (3, 4) with decoration 2->1, 3->0,
4->2.  Each case is timed in repeats of a calibrated number of calls; the
reported figure is the median per-call time in microseconds.  Caches the
library keeps (such as the subgroup closure behind `coset_elements`) are warm
after the first repeat, so these are steady-state costs.
"""

from __future__ import annotations

import statistics
import time


def cases() -> dict:
    """name -> (zero-argument call, check of its result)."""
    from pinwheel.chains import Chain, act_on_chain, maximal_refinements
    from pinwheel.cosets import chain_to_coset, coset_elements
    from pinwheel.cyclo import on_hyperplane
    from pinwheel.faces import chain_to_face_vertices, face_dimension_bruteforce, vertex_of_maximal_chain
    from pinwheel.group import GenPerm, act_on_tuple, multiply

    sets, dec = ((3,), (2, 3, 4)), ((2, 1), (3, 0), (4, 2))
    chain = Chain(3, 4, sets, dec)
    handle = chain_to_coset(chain)
    moved = GenPerm(3, 4, (2, 4, 1, 3), (1, 2, 0, 1))
    vertex = vertex_of_maximal_chain(maximal_refinements(chain)[0])
    return {
        "chains.Chain": (lambda: Chain(3, 4, sets, dec), lambda c: c == chain),
        "group.multiply": (lambda: multiply(handle.rep, moved), lambda g: g.n == 4),
        "group.act_on_tuple": (lambda: act_on_tuple(vertex, moved), lambda p: p.n == 4),
        "chains.act_on_chain": (lambda: act_on_chain(chain, moved), lambda c: c.length == 2),
        "cyclo.on_hyperplane": (lambda: on_hyperplane(vertex, (2, 3, 4), dict(dec)), lambda b: b is True),
        "cosets.coset_elements": (lambda: coset_elements(handle), lambda s: len(s) == 6),
        "faces.chain_to_face_vertices": (lambda: chain_to_face_vertices(chain), lambda s: len(s) == 6),
        "faces.face_dimension_bruteforce": (lambda: face_dimension_bruteforce(chain), lambda d: d == 2),
    }


def run(seconds: float) -> tuple[dict[str, float], int]:
    """Median microseconds per call for each case, and the number of failed checks."""
    table = cases()
    failed = sum(not check(call()) for call, check in table.values())
    number = {}
    for name, (call, _) in table.items():
        n, elapsed = 1, 0.0
        while elapsed < 0.002:
            n *= 2
            start = time.perf_counter()
            for _ in range(n):
                call()
            elapsed = time.perf_counter() - start
        number[name] = n
    samples: dict[str, list[float]] = {name: [] for name in table}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(map(len, samples.values())) < 5:
        for name, (call, _) in table.items():
            n = number[name]
            start = time.perf_counter()
            for _ in range(n):
                call()
            samples[name].append((time.perf_counter() - start) / n * 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}, failed
