"""Right cosets of standard-generator subgroups, and their chain dictionary.

A handle stores the generating indices together with one canonical
representative; the coset itself is the subgroup closure of the generators
multiplied on the right by the representative.  Chains and handles determine
each other: the chain's set sizes fix the row blocks, the sets fix which
columns each block hits, and the decoration fixes the column exponents.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .chains import Chain
from .cyclo import _check_indices, _check_same_space, _of_fields, _value_class
from .group import GenPerm, _product, generate_subgroup

__all__ = [
    "TCosetHandle",
    "chain_to_coset",
    "coset_to_chain",
    "coset_elements",
    "CosetFactor",
    "coset_block_decomposition",
    "block_product_elements",
    "act_on_coset",
]


class TCosetHandle(_value_class("TCosetHandle", "gens rep")):
    """(generators, canonical representative) naming one right coset.

    Any representative is made canonical, so equal cosets compare equal.
    Rows i and i+1 share a block when s_i is a generator; each block's columns
    take its rows top-down in increasing column order; s_0's block has exponent 0.
    """

    __slots__ = ()

    def __new__(cls, gens: frozenset[int], rep: GenPerm) -> "TCosetHandle":
        return tuple.__new__(cls, (gens, rep)).__post_init__()

    def __post_init__(self) -> "TCosetHandle":
        rep = self.rep
        gens = frozenset(_check_indices(self.gens, 0, rep.n - 1, "generator"))
        word = _canonical_word(gens, rep.n, rep.row_of_col, rep.exp_of_col)
        if word != rep.sort_key():
            rep = _of_fields(GenPerm, rep.r, rep.n, *word)
        return tuple.__new__(type(self), (gens, rep))

    @property
    def r(self) -> int:
        return self.rep.r

    @property
    def n(self) -> int:
        return self.rep.n

    @property
    def dimension(self) -> int:
        return len(self.gens)

    def to_json(self) -> dict:
        return {"gens": sorted(self.gens), "rep": self.rep.to_json()}


def _canonical_word(
    gens: frozenset[int], n: int, rows: tuple[int, ...], exps: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical (row_of_col, exp_of_col) of the coset of <s_gens> through (rows, exps).

    Rows i and i+1 share a block when s_i is in gens; each block's columns
    take its rows top-down in increasing column order, and the columns in
    s_0's block get exponent 0 (see `TCosetHandle`).
    """
    top = list(range(n + 1))  # top[row]: the highest row of row's block
    for row in sorted(gens - {0}, reverse=True):  # s_row joins rows row and row + 1
        top[row] = top[row + 1]
    low = top[1] if 0 in gens else 0
    free = top[:]  # free[t]: the next row the block topped by t hands out
    out = []
    for row in rows:
        out.append(free[top[row]])
        free[top[row]] -= 1
    return tuple(out), tuple([e if row > low else 0 for row, e in zip(rows, exps)])


def chain_to_coset(c: Chain) -> TCosetHandle:
    """The coset whose row blocks and column exponents realize the chain."""
    rows, gens = _coset_rows(c.n, c.sets)
    exps = [0] * c.n
    for col, e in c.decoration:
        exps[col - 1] = -e % c.r
    return _of_fields(TCosetHandle, gens, _of_fields(GenPerm, c.r, c.n, rows, tuple(exps)))


# Cached: rows and generators read only n and the sets, and `enumerate_chains`
# lists the chains of one set chain next to each other: threeway (2,4) 1,547
# hits, 150 misses; (4,4) 22,683 hits, 150 misses.  Kept small, as
# `faces._face_shape` is.
@lru_cache(maxsize=4, typed=True)
def _coset_rows(n: int, sets: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], frozenset[int]]:
    """The representative's row_of_col and the generators of the coset of (n, sets)."""
    row = n
    rows = [0] * n
    # I_1 takes the top rows, then each later set its new columns, then the rest.
    for s in sets + (range(1, n + 1),):
        for col in s:
            if not rows[col - 1]:
                rows[col - 1] = row
                row -= 1
    return tuple(rows), frozenset(range(n)).difference([n - len(s) for s in sets])


def _coset_chain_key(h: TCosetHandle) -> tuple[tuple, tuple]:
    """The canonical (sets, decoration) of `coset_to_chain(h)`, with no `Chain` built."""
    n, r, cols, exps = h.n, h.r, h.rep._col_of_row, h.rep.exp_of_col
    # Each missing generator j cuts off the columns in rows above j, that is
    # cols[j:] (cols lists the columns by row), as one set.
    cuts = sorted([j for j in range(n) if j not in h.gens], reverse=True)
    sets = tuple([tuple(sorted(cols[j:])) for j in cuts])
    dec = tuple((c, -exps[c - 1] % r) for c in sets[-1]) if sets else ()
    return sets, dec


def coset_to_chain(h: TCosetHandle) -> Chain:
    """Read the chain back off a handle; inverse of `chain_to_coset`."""
    return _of_fields(Chain, h.r, h.n, *_coset_chain_key(h))


def _coset_words(h: TCosetHandle) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The canonical (row_of_col, exp_of_col) of each element g * rep of the coset.

    Each pair equals the fields of the `GenPerm` that `coset_elements` builds
    from it, so the pairs serve as keys without building one.
    """
    rep = h.rep
    return [_product(g, rep) for g in generate_subgroup(h.r, h.n, h.gens)]


def coset_elements(h: TCosetHandle) -> frozenset[GenPerm]:
    r, n = h.r, h.n
    return frozenset([_of_fields(GenPerm, r, n, rows, exps) for rows, exps in _coset_words(h)])


class CosetFactor(namedtuple("CosetFactor", "kind block columns size exps")):
    """One block of the block-diagonal decomposition of a coset.

    `kind` is "reflection" for the top block, a full S(r, size) whose `exps`
    are None as they vary, and "symmetric" for the lower blocks, symmetric
    groups whose `columns` keep the fixed `exps`.  `block` is 0 for the top
    block, else the 1-based index of the chain set that produced it.  The
    blocks take rows 1, 2, ... in list order.
    """

    __slots__ = ()


def coset_block_decomposition(c: Chain) -> tuple[CosetFactor, ...]:
    """Factors of the coset, top row block first, then lower blocks downward."""
    dec, tail = c.decoration_map(), c.complement()
    factors = [CosetFactor("reflection", 0, tail, len(tail), None)]
    for block, cols in reversed(list(enumerate(c.segments(), start=1))):
        exps = tuple([-dec[col] % c.r for col in cols])
        factors.append(CosetFactor("symmetric", block, cols, len(cols), exps))
    return tuple(factors)


def _block_product_words(
    c: Chain, factors: tuple[CosetFactor, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (row_of_col, exp_of_col) words of the product of c's coset blocks, with no group product.

    Each block offers every order of its rows, and every exponent word (reflection)
    or its `exps`; row and exponent words are placed in the columns, then paired.
    """

    def placed(local_words: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        word = [0] * c.n
        for f, local in zip(factors, local_words):
            for col, x in zip(f.columns, local):
                word[col - 1] = x
        return tuple(word)

    orders, exps, low = [], [], 0
    for f in factors:
        orders.append(itertools.permutations(range(low + 1, low + f.size + 1)))
        exps.append(itertools.product(range(c.r), repeat=f.size) if f.kind == "reflection" else [f.exps])
        low += f.size
    rows = [placed(p) for p in itertools.product(*orders)]
    return list(itertools.product(rows, [placed(p) for p in itertools.product(*exps)]))


def block_product_elements(c: Chain) -> frozenset[GenPerm]:
    """Reassemble the coset from its factors through the block embedding."""
    words = _block_product_words(c, coset_block_decomposition(c))
    return frozenset([_of_fields(GenPerm, c.r, c.n, *word) for word in words])


def _act_on_coset_key(h: TCosetHandle, b: GenPerm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical rep word of `act_on_coset(h, b)`, with no handle or matrix built."""
    return _canonical_word(h.gens, h.n, *_product(h.rep, b))


def act_on_coset(h: TCosetHandle, b: GenPerm) -> TCosetHandle:
    """Right action: same generators, representative multiplied by b."""
    _check_same_space(h.rep, b)
    return _of_fields(TCosetHandle, h.gens, _of_fields(GenPerm, h.r, h.n, *_act_on_coset_key(h, b)))
