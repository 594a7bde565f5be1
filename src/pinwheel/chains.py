"""Decorated nested chains, the index set shared by strata, cosets and faces.

A chain is a strictly nested list of nonempty subsets of {1,..,n} together
with a branch decoration on the largest set.  Chains are canonical: sets are
stored sorted, the decoration as sorted (element, exponent) pairs.  Any Chain
in existence is valid: the constructor runs only on the loose pieces of
`make_chain` (and so of `Chain.from_json`), and `_of_fields` builds every
other chain from canonical fields computed from valid objects.
"""

from __future__ import annotations

import collections.abc
import itertools
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator, Mapping

from .cyclo import _check_indices, _check_rn, _check_same_space, _json_int, _of_fields, _value_class
from .group import GenPerm

__all__ = [
    "Chain",
    "make_chain",
    "enumerate_chains",
    "refines",
    "chain_dimension",
    "act_on_chain",
    "maximal_refinements",
    "coarsenings",
]


class Chain(_value_class("Chain", "r n sets decoration")):
    __slots__ = ()

    def __new__(
        cls, r: int, n: int, sets: tuple[tuple[int, ...], ...], decoration: tuple[tuple[int, int], ...]
    ) -> "Chain":
        return tuple.__new__(cls, (r, n, sets, decoration)).__post_init__()

    def __post_init__(self) -> "Chain":
        r, n = _check_rn(self.r, self.n)
        sets = tuple([_check_indices(s, 1, n, "element") for s in self.sets])
        prev: frozenset[int] = frozenset()
        for cur in map(frozenset, sets):
            if not cur:
                raise ValueError("chain sets must be nonempty")
            if not cur > prev:
                raise ValueError(f"sets must be strictly nested, got {sets}")
            prev = cur
        top = sets[-1] if sets else ()
        dec = tuple(sorted([(index(i), index(e) % r) for i, e in self.decoration]))
        domain = tuple([i for i, _ in dec])
        if domain != top:
            raise ValueError(f"decoration domain {domain} must equal the largest set {top}")
        return tuple.__new__(type(self), (r, n, sets, dec))

    @property
    def length(self) -> int:
        return len(self.sets)

    def decoration_map(self) -> dict[int, int]:
        return dict(self.decoration)

    def segments(self) -> tuple[tuple[int, ...], ...]:
        """The successive differences I_1, I_2 - I_1, ..., each sorted."""
        return _segments(self.sets)

    def complement(self) -> tuple[int, ...]:
        """Elements of {1,..,n} not in the largest set, sorted."""
        return _complement(self.n, self.sets)

    def sort_key(self):
        return (self.length, self.sets, self.decoration)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "sets": [list(s) for s in self.sets],
            "decoration": {str(i): e for i, e in self.decoration},
        }

    @staticmethod
    def from_json(data: Mapping) -> "Chain":
        decoration = data["decoration"]
        if not isinstance(decoration, collections.abc.Mapping):
            raise ValueError(f"decoration must be an object, got {decoration!r}")
        dec = [(_json_int(i, decimal=True), _json_int(e)) for i, e in decoration.items()]
        sets = [[_json_int(i) for i in s] for s in data["sets"]]
        return make_chain(_json_int(data["r"]), _json_int(data["n"]), sets, dec)


def _segments(sets: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The successive differences of nested sorted sets, each sorted."""
    out = []
    prev: frozenset[int] = frozenset()
    for cur in sets:
        out.append(tuple([i for i in cur if i not in prev]))
        prev = frozenset(cur)
    return tuple(out)


def _complement(n: int, sets: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Elements of {1,..,n} outside the last of the nested sets, sorted."""
    top = frozenset(sets[-1]) if sets else frozenset()
    return tuple([i for i in range(1, n + 1) if i not in top])


def make_chain(
    r: int,
    n: int,
    sets: Iterable[Iterable[int]],
    decoration: Mapping[int, int] | Iterable[tuple[int, int]] = (),
) -> Chain:
    """Build a chain from loose pieces; sets may arrive in any order."""
    normalized = sorted((tuple(sorted(s)) for s in sets), key=lambda s: (len(s), s))
    if isinstance(decoration, collections.abc.Mapping):
        dec: Iterable[tuple[int, int]] = decoration.items()
    else:
        dec = decoration
    return Chain(r, n, tuple(normalized), tuple(dec))


def _set_chains(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    subsets = []
    for size in range(1, n + 1):
        subsets.extend((s, frozenset(s)) for s in itertools.combinations(range(1, n + 1), size))

    out: list[tuple[tuple[int, ...], ...]] = [()]

    def extend(prefix: tuple[tuple[int, ...], ...], last: frozenset[int]) -> None:
        for s, members in subsets:
            if last < members:
                longer = prefix + (s,)
                out.append(longer)
                extend(longer, members)

    extend((), frozenset())
    return tuple(out)


# Cached: every suite starts from this list and `enumerate_vertices` reads it
# again, so `verify --suite all` takes it 4 times from the cache for 1 build.
@lru_cache(maxsize=32, typed=True)
def enumerate_chains(r: int, n: int) -> tuple[Chain, ...]:
    """Every chain for the given (r, n), deduplicated, in deterministic order.

    Ordered by length ascending, then lexicographically on the set list and
    the decoration.
    """
    r, n = _check_rn(r, n)
    # One (element, exponent) pair object for each, shared by every decoration.
    pairs = [[(i, e) for e in range(r)] for i in range(n + 1)]
    chains = []
    for sets in _set_chains(n):
        top = sets[-1] if sets else ()
        for decoration in itertools.product(*[pairs[i] for i in top]):
            chains.append(_of_fields(Chain, r, n, sets, decoration))
    chains.sort(key=Chain.sort_key)
    return tuple(chains)


def refines(fine: Chain, coarse: Chain) -> bool:
    """Whether every set of `coarse` occurs in `fine` with matching decoration."""
    _check_same_space(fine, coarse)
    if not set(coarse.sets) <= set(fine.sets):
        return False
    dec = fine.decoration_map()
    return all(dec[i] == e for i, e in coarse.decoration)


def chain_dimension(c: Chain) -> int:
    return c.n - c.length


def _act_on_chain_key(c: Chain, a: GenPerm) -> tuple[tuple, tuple]:
    """The canonical (sets, decoration) of `act_on_chain(c, a)`, with no chain built."""
    cols, exps = a._col_of_row, a.exp_of_col
    sets = tuple([tuple(sorted([cols[i - 1] for i in s])) for s in c.sets])
    dec = sorted([(col := cols[i - 1], (e - exps[col - 1]) % c.r) for i, e in c.decoration])
    return sets, tuple(dec)


def act_on_chain(c: Chain, a: GenPerm) -> Chain:
    """Image of a chain under the right action of a group element.

    Sets map through the support of the matrix rows; the decoration of an
    image element drops the exponent of the matrix entry that carried it.
    """
    _check_same_space(c, a)
    return _of_fields(Chain, c.r, c.n, *_act_on_chain_key(c, a))


def maximal_refinements(c: Chain) -> tuple[Chain, ...]:
    """All maximal chains refining c.

    Orders each nesting gap in every possible way and extends beyond the
    largest set by every ordering and decoration of the leftover elements:
    segment orders vary slowest, then the leftover order, then its
    exponents.  Each refinement's prefixes and decoration are sorted here,
    so its fields are canonical.
    """
    r, n = c.r, c.n
    dec = c.decoration_map()
    tail = c.complement()
    out = []
    for seg_orders in itertools.product(*(itertools.permutations(s) for s in c.segments())):
        prefix = tuple(itertools.chain.from_iterable(seg_orders))
        for tail_order in itertools.permutations(tail):
            order = prefix + tail_order
            sets = tuple([tuple(sorted(order[: j + 1])) for j in range(n)])
            for tail_exps in itertools.product(range(r), repeat=len(tail)):
                exps = dec | dict(zip(tail_order, tail_exps))
                out.append(_of_fields(Chain, r, n, sets, tuple(sorted(exps.items()))))
    return tuple(out)


def _coarsening_keys(c: Chain) -> list[tuple[tuple, tuple]]:
    """The canonical (sets, decoration) of each coarsening, in `coarsenings`' order.

    Both parts equal the fields of the `Chain` that `coarsenings` builds
    from them, so they serve as lookup keys without building one.
    """
    # A coarsening's decoration is c's restricted to its largest set, made of
    # c's own pairs: one per set, and () for the coarsening that keeps none.
    pair = {p[0]: p for p in c.decoration}
    tops = [tuple([pair[i] for i in s]) for s in c.sets] + [()]
    return [(kept, tops[top]) for kept, top in _coarsening_sets(c.sets)]


# Cached: the kept sets read only the sets, and `enumerate_chains` lists the
# chains of one set chain next to each other: threeway (2,4) 1,547 hits, 150
# misses; (4,4) 22,683 hits, 150 misses.  Kept small, as `faces._face_shape` is.
@lru_cache(maxsize=4, typed=True)
def _coarsening_sets(sets: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, int], ...]:
    """Each coarsening's kept sets and its top set's position (-1 for none), one per keep mask."""
    out = []
    for mask in itertools.product((True, False), repeat=len(sets)):
        kept = list(itertools.compress(range(len(sets)), mask))
        out.append((tuple([sets[j] for j in kept]), kept[-1] if kept else -1))
    return tuple(out)


def coarsenings(c: Chain) -> Iterator[Chain]:
    """All chains obtained by deleting a subset of c's sets (including c itself).

    These are exactly the chains that c refines.
    """
    for sets, decoration in _coarsening_keys(c):
        yield _of_fields(Chain, c.r, c.n, sets, decoration)
