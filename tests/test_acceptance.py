"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact (rational or cyclotomic); the runtime
limits are asserted with a monotonic clock.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from pinwheel import (
    GenPerm,
    chain_to_coset,
    chain_to_face_vertices,
    coset_elements,
    enumerate_chains,
    enumerate_vertices,
    face_membership,
    face_membership_product_form,
    group_order,
    make_chain,
    verify_equivariance,
    verify_nonemptiness,
    verify_products,
    verify_threeway,
)

from conftest import random_ypoints, signed

THREEWAY_ENVELOPE = [
    (r, n) for r in (2, 3, 4) for n in range(4)
] + [(2, 4), (3, 4), (5, 3), (6, 3)]

SMALL_ENVELOPE = [(r, n) for r in (2, 3) for n in range(4)]

# Scale points above the default group-order cap of 2000, each with the peak
# RSS (MB) its fresh child must stay under.  Every point of criteria 04 and
# 06 runs with the cap at its own group order, which the cap admits.
THREEWAY_SCALE = {(2, 5): 150, (4, 4): 130, (5, 4): 260}

# One threeway run in a fresh interpreter, so its peak RSS (ru_maxrss, KiB on
# Linux) is its own; the child inherits PYTHONPATH.
THREEWAY_CHILD = """
import json, resource, sys
from pinwheel import verify_threeway
r, n, cap = map(int, sys.argv[1:])
report = verify_threeway(r, n, cap)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"ok": report.ok, "violations": report.violations[:3], "maxrss_kib": peak}))
"""

# Scale points of the nonempty suite, whose cost is the vertex scan.  r = 5
# brings a cyclotomic field of degree 4, and r = 6 the first composite r.
NONEMPTY_SCALE = [(4, 3), (2, 4), (3, 4), (2, 5), (4, 4), (5, 3), (6, 3), (3, 5)]


@contextmanager
def criterion(number: int, name: str, limit: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_01_octagon():
    with criterion(1, "octagon reproduction", limit=1.0):
        vertices = {signed(v) for v in enumerate_vertices(2, 2)}
        expected = {
            (Fraction(a), Fraction(b))
            for a, b in [
                (2, 1), (2, -1), (-2, 1), (-2, -1),
                (1, 2), (1, -2), (-1, 2), (-1, -2),
            ]
        }
        assert vertices == expected
        chains = enumerate_chains(2, 2)
        by_dim = [sum(1 for c in chains if c.n - c.length == d) for d in range(3)]
        assert by_dim == [8, 8, 1]


def test_criterion_02_r3_census():
    with criterion(2, "triple-branch complex census", limit=1.0):
        assert len(enumerate_vertices(3, 2)) == 18
        one_dim = [c for c in enumerate_chains(3, 2) if c.length == 1]
        assert len(one_dim) == 15
        segments = [c for c in one_dim if len(c.sets[-1]) == 2]
        y_faces = [c for c in one_dim if len(c.sets[-1]) == 1]
        assert len(segments) == 9
        assert all(len(chain_to_face_vertices(c)) == 2 for c in segments)
        assert len(y_faces) == 6
        assert all(len(chain_to_face_vertices(c)) == 3 for c in y_faces)
        assert sum(1 for c in enumerate_chains(3, 2) if c.length == 0) == 1


def test_criterion_03_worked_coset_golden():
    with criterion(3, "worked coset example", limit=1.0):
        chain = make_chain(3, 4, [[3], [2, 3, 4]], {2: 1, 3: 0, 4: 2})
        handle = chain_to_coset(chain)
        assert handle.gens == frozenset({0, 2})
        expected = frozenset(
            [GenPerm(3, 4, (1, 3, 4, 2), (i, 2, 0, 1)) for i in range(3)]
            + [GenPerm(3, 4, (1, 2, 4, 3), (i, 2, 0, 1)) for i in range(3)]
        )
        assert coset_elements(handle) == expected


def test_criterion_04_threeway_suite():
    with criterion(4, "three-way correspondence suite", limit=60.0):
        for r, n in THREEWAY_ENVELOPE:
            report = verify_threeway(r, n, group_order(r, n))
            assert report.ok, f"violations at (r={r}, n={n}): {report.violations[:3]}"
        for (r, n), bound_mb in THREEWAY_SCALE.items():
            args = [sys.executable, "-c", THREEWAY_CHILD, str(r), str(n), str(group_order(r, n))]
            child = json.loads(subprocess.run(args, capture_output=True, text=True, check=True).stdout)
            assert child["ok"], f"violations at (r={r}, n={n}): {child['violations']}"
            peak_mb = child["maxrss_kib"] / 1024
            assert peak_mb < bound_mb, f"peak RSS {peak_mb:.0f} MB at (r={r}, n={n}), bound {bound_mb} MB"


def test_criterion_05_vertex_count_law():
    with criterion(5, "vertex count law"):
        for r, n in THREEWAY_ENVELOPE:
            chains = enumerate_chains(r, n)
            zero_dim = [c for c in chains if c.length == n]
            assert len(zero_dim) == group_order(r, n)
            assert len(set(enumerate_vertices(r, n))) == group_order(r, n)


def test_criterion_06_nonemptiness_equivalence():
    with criterion(6, "nonempty-face oracle equivalence", limit=120.0):
        for r, n in SMALL_ENVELOPE:
            report = verify_nonemptiness(r, n)
            assert report.ok, f"violations at (r={r}, n={n}): {report.violations[:3]}"
        for r, n in NONEMPTY_SCALE:
            report = verify_nonemptiness(r, n, group_order(r, n))
            assert report.ok, f"violations at (r={r}, n={n}): {report.violations[:3]}"


def test_criterion_07_membership_route_equivalence():
    with criterion(7, "face membership route equivalence"):
        for r, n in SMALL_ENVELOPE:
            points = random_ypoints(r, n, 1000, seed=9000 + 100 * r + n)
            for c in enumerate_chains(r, n):
                for x in points:
                    assert face_membership(x, c) == face_membership_product_form(x, c)
                for v in chain_to_face_vertices(c):
                    assert face_membership(v, c)
                    assert face_membership_product_form(v, c)


def test_criterion_08_equivariance_suite():
    with criterion(8, "equivariance suite", limit=120.0):
        # r = 5 and 6 join here, not in SMALL_ENVELOPE, which criterion 07 also runs.
        for r, n in SMALL_ENVELOPE + [(2, 4), (5, 2), (6, 2)]:
            report = verify_equivariance(r, n)
            assert report.ok, f"violations at (r={r}, n={n}): {report.violations[:3]}"
        # the worked action example: staircase vertex through the sample matrix
        from pinwheel import YPoint, act_on_tuple

        a = GenPerm(3, 4, (4, 1, 3, 2), (0, 2, 2, 1))
        base = YPoint(3, tuple((Fraction(i), 0) for i in (1, 2, 3, 4)))
        moved = act_on_tuple(base, a)
        assert moved.coords == (
            (Fraction(4), 0),
            (Fraction(1), 2),
            (Fraction(3), 2),
            (Fraction(2), 1),
        )


def test_criterion_09_product_compatibility():
    with criterion(9, "product decomposition compatibility"):
        for r, n in THREEWAY_ENVELOPE:
            report = verify_products(r, n)
            assert report.ok, f"violations at (r={r}, n={n}): {report.violations[:3]}"
