"""The group S(r, n) of generalized permutation matrices.

Elements are n x n matrices with exactly one nonzero entry in each row and
column, every nonzero entry an r-th root of unity.  An element is encoded by
columns: column b holds zeta^exp_of_col[b] in row row_of_col[b].  Rows,
columns and coordinates are 1-based everywhere in the public interface.

Validation runs where input arrives from outside: the `GenPerm` constructor
and `GenPerm.from_json` check every field.  Every element the library
computes itself is built from its word by `cyclo._of_fields`, which checks
nothing again: such a word is a permutation of 1..n with exponents in 0..r-1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index
from typing import Iterable, Mapping

from .cyclo import YPoint, _check_indices, _check_rn, _check_same_space, _json_int, _of_fields, _value_class

__all__ = [
    "GenPerm",
    "identity",
    "generator",
    "multiply",
    "inverse",
    "act_on_tuple",
    "generate_subgroup",
    "enumerate_group",
    "group_order",
]


class GenPerm(_value_class("GenPerm", "r n row_of_col exp_of_col")):
    """A generalized permutation matrix: permutation plus per-column exponents."""

    # No __slots__: the instance dict holds the cached `_col_of_row`.

    def __new__(cls, r: int, n: int, row_of_col: tuple[int, ...], exp_of_col: tuple[int, ...]) -> "GenPerm":
        return tuple.__new__(cls, (r, n, row_of_col, exp_of_col)).__post_init__()

    def __post_init__(self) -> "GenPerm":
        r, n = _check_rn(self.r, self.n)
        rows = tuple(map(index, self.row_of_col))
        exps = tuple([index(e) % r for e in self.exp_of_col])
        if len(rows) != n or len(exps) != n:
            raise ValueError(f"need {n} columns, got {len(rows)} rows / {len(exps)} exponents")
        _check_indices(rows, 1, n, "row")
        return tuple.__new__(type(self), (r, n, rows, exps))

    @cached_property
    def _col_of_row(self) -> tuple[int, ...]:
        out = [0] * self.n
        for col, row in enumerate(self.row_of_col, start=1):
            out[row - 1] = col
        return tuple(out)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.row_of_col, self.exp_of_col)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "cols": [
                {"col": c, "row": row, "exp": exp}
                for c, (row, exp) in enumerate(zip(self.row_of_col, self.exp_of_col), start=1)
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "GenPerm":
        r, n = _check_rn(_json_int(data["r"]), _json_int(data["n"]))
        cols = data["cols"]
        if len(cols) != n:
            raise ValueError(f"expected {n} columns, got {len(cols)}")
        entries = sorted(
            (_json_int(entry["col"]), _json_int(entry["row"]), _json_int(entry["exp"]))
            for entry in cols
        )
        _check_indices([col for col, _, _ in entries], 1, n, "column")
        rows = tuple(row for _, row, _ in entries)
        return GenPerm(r, n, rows, tuple(exp for _, _, exp in entries))


def identity(r: int, n: int) -> GenPerm:
    r, n = _check_rn(r, n)
    return _of_fields(GenPerm, r, n, tuple(range(1, n + 1)), (0,) * n)


def generator(r: int, n: int, i: int) -> GenPerm:
    """Standard generator s_i: s_0 scales column 1 by zeta, s_i swaps columns i, i+1."""
    r, n = _check_rn(r, n)
    (i,) = _check_indices((i,), 0, n - 1, "generator")
    if i == 0:
        return _of_fields(GenPerm, r, n, tuple(range(1, n + 1)), (1,) + (0,) * (n - 1))
    rows = list(range(1, n + 1))
    rows[i - 1], rows[i] = rows[i], rows[i - 1]
    return _of_fields(GenPerm, r, n, tuple(rows), (0,) * n)


def _product(a: GenPerm, b: GenPerm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical (row_of_col, exp_of_col) of a * b, exponents reduced mod r."""
    a_rows, a_exps, b_rows, r = a.row_of_col, a.exp_of_col, b.row_of_col, a.r
    # List comprehensions: at these lengths a generator expression costs more.
    rows = tuple([a_rows[row - 1] for row in b_rows])
    exps = tuple([(a_exps[row - 1] + e) % r for row, e in zip(b_rows, b.exp_of_col)])
    return rows, exps


def multiply(a: GenPerm, b: GenPerm) -> GenPerm:
    """Matrix product a * b."""
    _check_same_space(a, b)
    return _of_fields(GenPerm, a.r, a.n, *_product(a, b))


def inverse(a: GenPerm) -> GenPerm:
    rows = a._col_of_row
    exps = tuple([-a.exp_of_col[col - 1] % a.r for col in rows])
    return _of_fields(GenPerm, a.r, a.n, rows, exps)


def _act_on_coords(
    coords: tuple[tuple[int | Fraction, int], ...], a: GenPerm
) -> tuple[tuple[int | Fraction, int], ...]:
    """The canonical coords that `act_on_tuple` stores for a point with these coords.

    Coordinate b of the result is coordinate row_of_col[b] with its branch
    advanced by exp_of_col[b] mod r; a zero magnitude keeps branch 0 (and
    its own type), as `YPoint` stores it.
    """
    r = a.r
    out = []
    for row, e in zip(a.row_of_col, a.exp_of_col):
        mag, branch = coords[row - 1]
        out.append((mag, (branch + e) % r) if mag else (mag, 0))
    return tuple(out)


def act_on_tuple(x: YPoint, a: GenPerm) -> YPoint:
    """Right action on coordinate tuples: row vector times matrix.

    Magnitudes are permuted and branches shifted (see `_act_on_coords`).
    """
    _check_same_space(x, a)
    return _of_fields(YPoint, x.r, _act_on_coords(x.coords, a))


def group_order(r: int, n: int) -> int:
    r, n = _check_rn(r, n)
    return r**n * math.factorial(n)


# Keyed by generator set: one stream of the json-queries benchmark closes 56
# sets and takes 1162 more closures from the cache.
@lru_cache(maxsize=256, typed=True)
def _subgroup_closure(r: int, n: int, gens: frozenset[int]) -> frozenset[GenPerm]:
    # Breadth-first on words; each new word is wrapped once, unvalidated.
    seeds = [generator(r, n, i) for i in sorted(gens)]
    one = identity(r, n)
    words = {one.sort_key()}
    elements, frontier = [one], [one]
    while frontier:
        new = []
        for g in frontier:
            for s in seeds:
                word = _product(g, s)
                if word not in words:
                    words.add(word)
                    new.append(_of_fields(GenPerm, r, n, *word))
        elements.extend(new)
        frontier = new
    return frozenset(elements)


def generate_subgroup(r: int, n: int, gens: Iterable[int]) -> frozenset[GenPerm]:
    """Closure of the listed standard generators, distinct indices in 0..n-1."""
    return _subgroup_closure(r, n, frozenset(_check_indices(gens, 0, n - 1, "generator")))


def enumerate_group(r: int, n: int) -> tuple[GenPerm, ...]:
    """All elements of S(r, n), lexicographic on (row word, exponent word)."""
    r, n = _check_rn(r, n)
    out = []
    for rows in itertools.permutations(range(1, n + 1)):
        for exps in itertools.product(range(r), repeat=n):
            out.append(_of_fields(GenPerm, r, n, rows, exps))
    return tuple(out)
