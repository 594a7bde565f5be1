"""Shared seeded samplers and independent oracles for the test suite.

Tests draw their inputs one way: a finite space enumerated whole, or a
`random.Random` with a fixed seed, so every run tests the same inputs.
"""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from pinwheel import Chain, DecoratedSubset, GenPerm, PinwheelStratum, YPoint
from pinwheel.cyclo import _of_fields


SMALL_RN = [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)]

# Every point on which a key builder is checked against the object builder it wraps.
KEY_RN = [(r, n) for r in (2, 3, 4) for n in range(4)] + [(2, 4), (3, 4)]


def base_stratum(r: int, n: int) -> PinwheelStratum:
    """The vertex stratum of the identity chain: orbit j sits on component n + 1 - j."""
    return PinwheelStratum(r, n, tuple(((n + 1 - j, 0),) for j in range(1, n + 1)))


def identity_maximal_chain(r: int, n: int) -> Chain:
    """The maximal chain {n} < {n-1, n} < ... < {1..n}, every decoration 0."""
    sets = tuple(tuple(range(n + 1 - j, n + 1)) for j in range(1, n + 1))
    return Chain(r, n, sets, tuple((i, 0) for i in range(1, n + 1)))


def signed(x: YPoint) -> tuple[Fraction, ...]:
    """An r = 2 point as a real vector: branch 1 negates the magnitude."""
    assert x.r == 2
    return tuple(m if b == 0 else -m for m, b in x.coords)


def decorated_subsets(r: int, n: int) -> list[DecoratedSubset]:
    """Every decorated subset of {1..n} with exponents in 0..r-1, in the nonempty suite's order."""
    return [
        DecoratedSubset(elems, exps)
        for size in range(1, n + 1)
        for elems in itertools.combinations(range(1, n + 1), size)
        for exps in itertools.product(range(r), repeat=size)
    ]


def sample(items, count: int = 8) -> tuple:
    """About `count` items spread over the sequence."""
    return tuple(items[:: max(1, len(items) // count)])


def count_builds(monkeypatch, *classes: type) -> Counter:
    """Count, per class, each run of its checking constructor and each `_of_fields` build of it.

    The checking runs alone are counted again under `(cls, "checked")`.
    `_of_fields` is patched in every pinwheel module that imported it.
    """
    built: Counter = Counter()
    for cls in classes:
        real = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda x, cls=cls, real=real: built.update([cls, (cls, "checked")]) or real(x)
        )

    def of_fields(cls, *values):
        if cls in classes:
            built[cls] += 1
        return _of_fields(cls, *values)

    for name, module in list(sys.modules.items()):
        if name.startswith("pinwheel.") and getattr(module, "_of_fields", None) is _of_fields:
            monkeypatch.setattr(module, "_of_fields", of_fields)
    return built


def random_genperm(r: int, n: int, rng: random.Random) -> GenPerm:
    rows = list(range(1, n + 1))
    rng.shuffle(rows)
    exps = tuple(rng.randrange(r) for _ in range(n))
    return GenPerm(r, n, tuple(rows), exps)


class DenseMatrix:
    """Independent oracle: a generalized permutation matrix held densely.

    Entries are None (zero) or an exponent in Z_r; multiplication follows
    the plain matrix product.
    """

    def __init__(self, r: int, entries: list[list[int | None]]):
        self.r = r
        self.entries = entries

    @classmethod
    def from_genperm(cls, g: GenPerm) -> "DenseMatrix":
        entries: list[list[int | None]] = [[None] * g.n for _ in range(g.n)]
        for col in range(1, g.n + 1):
            entries[g.row_of_col[col - 1] - 1][col - 1] = g.exp_of_col[col - 1]
        return cls(g.r, entries)

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        n = len(self.entries)
        out: list[list[int | None]] = [[None] * n for _ in range(n)]
        for a in range(n):
            for c in range(n):
                for b in range(n):
                    left, right = self.entries[a][b], other.entries[b][c]
                    if left is not None and right is not None:
                        assert out[a][c] is None, "two nonzero terms in a product entry"
                        out[a][c] = (left + right) % self.r
        return DenseMatrix(self.r, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseMatrix) and (self.r, self.entries) == (other.r, other.entries)


def random_ypoints(r: int, n: int, count: int, seed: int) -> list[YPoint]:
    """Seeded sample of points: small-denominator magnitudes in [0, n]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            den = rng.choice((1, 2, 3, 4))
            coords.append((Fraction(rng.randint(0, n * den), den), rng.randrange(r)))
        out.append(YPoint(r, tuple(coords)))
    return out


def brute_force_in_complex(x) -> bool:
    """All-subsets oracle for membership in the complex."""
    from pinwheel import delta

    n = x.n
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if sum(x.coords[i - 1][0] for i in subset) > delta(n, size):
                return False
    return True


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
