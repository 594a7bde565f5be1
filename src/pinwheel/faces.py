"""The permutohedral complex: vertices, faces, exact membership and dimension.

The complex lives in Y^n (one root-of-unity ray bundle per coordinate) and is
cut out by bounding every subset sum of magnitudes.  Faces are intersections
with decorated-subset hyperplanes and are indexed by chains.  A vertex is the
face of a maximal chain: the element the chain adds at step j has magnitude
n + 1 - j on the branch opposite to its decoration.  A face's vertices are
built straight from the orders of its chain's maximal refinements, with no
`Chain` built per vertex; `_face_coords` yields their canonical coordinate
tuples, which every verify suite numbers as they are, and
`chain_to_face_vertices` wraps each in a `YPoint`.  Everything in them but
the decorated prefix comes from `_face_shape`, a small table made once per
set chain and keyed on exactly (r, n, sets).  `DeltaFace.to_json`
reads `_face_coords` too, so it builds no point.  `act_on_face` is the chain
action: the face of c moves onto the face of c·a, and `verify --suite
equivariance` checks that the vertex sets follow.  `_hyperplanes_chain_key`
nests hyperplanes named by their (elements, exps) keys, so `verify --suite
nonempty` assembles a family with no `DecoratedSubset` built.
`face_dimension_bruteforce` reads only n and the chain's sets, so it takes
each distinct set chain's rank once, keyed on those exact sets: no
symmetry of the complex is assumed.  All tests here are exact rational or
cyclotomic comparisons.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index, itemgetter
from typing import Sequence

from .chains import Chain, _complement, _segments, act_on_chain, enumerate_chains
from .cyclo import YPoint, _check_exact, _check_indices, _check_rn, _check_same_space, _of_fields
from .cyclo import _coords_json, delta
from .group import GenPerm

__all__ = [
    "DecoratedSubset",
    "DeltaFace",
    "chain_layers",
    "vertex_of_maximal_chain",
    "chain_to_face_vertices",
    "enumerate_vertices",
    "point_in_complex",
    "face_membership",
    "face_membership_product_form",
    "shifted_permutohedron_contains",
    "hyperplanes_to_chain",
    "face_dimension_bruteforce",
    "FaceFactor",
    "face_product_decomposition",
    "act_on_face",
    "hasse_dot",
]


@dataclass(frozen=True)
class DecoratedSubset:
    """A nonempty subset of {1,..,n} with a branch exponent on each element."""

    elements: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("decorated subset must be nonempty")
        if len(self.exps) != len(self.elements):
            raise ValueError("decoration must cover exactly the elements")
        # Sorted by element, each keeping its exponent, as a Chain's decoration is.
        pairs = sorted(zip(map(index, self.elements), map(index, self.exps)))
        elems = tuple([i for i, _ in pairs])
        if len(set(elems)) != len(elems):
            raise ValueError(f"repeated element in {elems}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "exps", tuple([e for _, e in pairs]))


def chain_layers(c: Chain) -> tuple[DecoratedSubset, ...]:
    """The decorated subsets (I_j, decoration restricted to I_j) of a chain."""
    dec = c.decoration_map()
    return tuple(_of_fields(DecoratedSubset, s, tuple(dec[i] for i in s)) for s in c.sets)


def vertex_of_maximal_chain(c: Chain) -> YPoint:
    """The one point of a maximal chain's face.

    The element the chain adds at step j carries magnitude n + 1 - j on the
    branch opposite to its decoration, reduced mod r, so the coordinate
    tuple is already the `coords` of the `YPoint` built from it.
    """
    r, n = c.r, c.n
    if c.length != n:
        raise ValueError(f"chain has length {c.length}, need a maximal chain of length {n}")
    dec = c.decoration_map()
    coords = [(0, 0)] * n
    for j, (i,) in enumerate(c.segments()):
        coords[i - 1] = (n - j, -dec[i] % r)
    return _of_fields(YPoint, r, tuple(coords))


def _face_coords(c: Chain) -> list[tuple[tuple[int, int], ...]]:
    """The canonical coords of each vertex of c's face, one per maximal refinement.

    Listed in `maximal_refinements` order: segment orders slowest, then the
    order of the leftover elements, then their exponents.  Each entry is
    the `coords` of `vertex_of_maximal_chain` of that refinement, and so of
    the matching `YPoint` of `chain_to_face_vertices`; it serves as a key
    without building one.  Everything but the decoration comes from a table
    made once per set chain (`_face_shape`): each vertex is one getter
    applied to the decorated prefix's (magnitude, branch) pairs followed by
    one tail word.
    """
    r, n = c.r, c.n
    branch = {i: -e % r for i, e in c.decoration}
    flats, words = _face_shape(r, n, c.sets)
    out = []
    for flat, getters in flats:
        prefix = tuple([(n - j, branch[i]) for j, i in enumerate(flat)])
        out += [get(prefix + word) for get in getters for word in words]
    return out


# Cached: the table reads only r, n and the sets, and `enumerate_chains` lists
# the chains of one set chain next to each other, so the suites' per-chain
# calls mostly hit: threeway (2,4) 1,547 hits, 150 misses; (4,4) 22,683 hits,
# 150 misses.  Callers that visit set chains in random order (one face per
# JSON request) rarely hit, so the table is kept small.
@lru_cache(maxsize=4, typed=True)
def _face_shape(r: int, n: int, sets: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple]:
    """The decoration-free part of `_face_coords` for the chains on (r, n, sets).

    One entry per segment-order flat order: the order, and one getter per
    order of the leftover elements that puts a vertex's pairs, listed in
    flat-then-leftover order, in coordinate order.  Then the leftover
    (magnitude, branch) words, one per exponent word: the element added k-th
    of m takes magnitude m - k on the branch opposite to its exponent.
    """
    tail = _complement(n, sets)
    m = len(tail)
    pairs = [[(m - k, -e % r) for e in range(r)] for k in range(m)]
    words = tuple(
        [tuple([pairs[k][e] for k, e in enumerate(exps)]) for exps in itertools.product(range(r), repeat=m)]
    )
    tail_orders = list(itertools.permutations(tail))
    flats = []
    for seg_orders in itertools.product(*(itertools.permutations(s) for s in _segments(sets))):
        flat = tuple(itertools.chain.from_iterable(seg_orders))
        getters = []
        for order in tail_orders:
            place = {i: p for p, i in enumerate(flat + order)}
            # With under 2 indices an itemgetter returns no tuple; the one
            # order of 0 or 1 elements is the coordinate order already.
            getters.append(itemgetter(*[place[i] for i in range(1, n + 1)]) if n > 1 else tuple)
        flats.append((flat, tuple(getters)))
    return tuple(flats), words


def chain_to_face_vertices(c: Chain) -> frozenset[YPoint]:
    """Vertices of the face: one per maximal refinement of the chain.

    Each vertex is built straight from the refinement's order and
    decoration (`_face_coords`): the element added at step j gets magnitude
    n + 1 - j on the branch opposite to its decoration.  No `Chain` is built
    per vertex, and no group element either, so this route shares no work
    with the coset route (`coset_elements`) it is compared against.
    """
    return frozenset(_of_fields(YPoint, c.r, coords) for coords in _face_coords(c))


@dataclass(frozen=True)
class DeltaFace:
    """A face of the complex, held as its chain; `to_json` lists its vertices."""

    chain: Chain

    @staticmethod
    def from_chain(c: Chain) -> "DeltaFace":
        return DeltaFace(c)

    def to_json(self) -> dict:
        """The chain and the vertices in coords order, written from `_face_coords`."""
        return {
            "chain": self.chain.to_json(),
            "vertices": [_coords_json(v) for v in sorted(_face_coords(self.chain))],
        }


def enumerate_vertices(r: int, n: int) -> tuple[YPoint, ...]:
    """All vertices of the complex, ordered by their maximal chains."""
    r, n = _check_rn(r, n)
    return tuple(vertex_of_maximal_chain(c) for c in enumerate_chains(r, n) if c.length == n)


def point_in_complex(x: YPoint) -> bool:
    """Whether every subset of magnitudes sums below its size bound.

    The binding subset of each size is the one with the largest magnitudes,
    so checking descending prefix sums covers all subsets.
    """
    total = 0
    for size, mag in enumerate(sorted(x.magnitudes(), reverse=True), start=1):
        total += mag
        if total > delta(x.n, size):
            return False
    return True


def face_membership(x: YPoint, c: Chain) -> bool:
    """Membership in the face: complex membership, pinned branches, tight sums."""
    _check_same_space(x, c)
    if not point_in_complex(x):
        return False
    for i, a in c.decoration:
        mag, branch = x.coords[i - 1]
        if mag and branch != (-a) % c.r:
            return False
    for s in c.sets:
        if sum(x.coords[i - 1][0] for i in s) != delta(c.n, len(s)):
            return False
    return True


def shifted_permutohedron_contains(xs: Sequence[int | Fraction], gamma) -> bool:
    """Whether an exact (int or Fraction) point lies in the permutohedron shifted by gamma.

    Proper subsets are bounded, the full sum is pinned; as in
    `point_in_complex`, descending prefixes stand in for all subsets.
    """
    m = len(xs)
    _check_exact(gamma, "gamma")
    for v in xs:
        _check_exact(v, "coordinate")
    ordered = sorted(xs, reverse=True)
    total = 0
    for size, v in enumerate(ordered, start=1):
        total += v
        if size < m and total > delta(m, size) + size * gamma:
            return False
    return total == delta(m, m) + m * gamma


def face_membership_product_form(x: YPoint, c: Chain) -> bool:
    """Factor-by-factor membership test, equivalent to `face_membership`.

    The leftover coordinates must lie in the smaller complex, decorated
    coordinates keep their pinned branches, and each nesting gap's magnitudes
    must lie in a shifted permutohedron.
    """
    _check_same_space(x, c)
    tail = c.complement()
    sub = _of_fields(YPoint, c.r, tuple(x.coords[i - 1] for i in tail))
    if not point_in_complex(sub):
        return False
    for i, a in c.decoration:
        mag, branch = x.coords[i - 1]
        if mag and branch != (-a) % c.r:
            return False
    for j, seg in enumerate(c.segments(), start=1):
        gamma = c.n - len(c.sets[j - 1])
        if not shifted_permutohedron_contains([x.coords[i - 1][0] for i in seg], gamma):
            return False
    return True


def _hyperplanes_chain_key(
    r: int, subsets: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
) -> tuple[tuple, tuple] | None:
    """The canonical (sets, decoration) of the chain the subsets nest into, or None.

    Each subset is the (elements, exps) fields of a `DecoratedSubset`, its
    elements sorted.  Distinct sets nest only if their sizes differ, so the
    subsets are ordered by size alone and an equal size means None.  Both
    parts equal the fields of the `Chain` that `hyperplanes_to_chain` builds
    from them, so they serve as lookup keys without building one.
    """
    by_size = {len(elements): (elements, exps) for elements, exps in subsets}
    if len(by_size) != len(subsets):
        return None
    ordered = [by_size[size] for size in sorted(by_size)]
    for (prev, _), (cur, _) in zip(ordered, ordered[1:]):
        if not set(cur).issuperset(prev):
            return None
    if not ordered:
        return (), ()
    dec = {i: e % r for i, e in zip(*ordered[-1])}
    for elements, exps in ordered[:-1]:
        if any(dec[i] != e % r for i, e in zip(elements, exps)):
            return None
    return tuple([elements for elements, _ in ordered]), tuple(dec.items())


def hyperplanes_to_chain(r: int, n: int, subsets: Sequence[DecoratedSubset]) -> Chain | None:
    """Assemble a chain from decorated subsets, or None when they cannot nest.

    Succeeds exactly when the sets are totally ordered by strict inclusion
    and all decorations agree where they overlap; the chain keeps the largest
    set's decoration.  An element outside 1..n, or naming one hyperplane
    twice (exponents mod r), raises.  The assembly is `_hyperplanes_chain_key`.
    """
    r, n = _check_rn(r, n)
    distinct = {_check_indices(s.elements, 1, n, "element") for s in subsets}
    if len(distinct) != len(subsets):
        # Equal sets never nest; with exponents equal mod r they are one hyperplane.
        if len({(s.elements, tuple([e % r for e in s.exps])) for s in subsets}) != len(subsets):
            raise ValueError("duplicate decorated subsets")
        return None
    key = _hyperplanes_chain_key(r, [(s.elements, s.exps) for s in subsets])
    return None if key is None else _of_fields(Chain, r, n, *key)


def _affine_rank(vectors: Sequence[tuple[int, ...]]) -> int:
    """Affine rank of integer vectors by fraction-free elimination.

    A row is cleared at a pivot's lead by `p*row - q*pivot`, and each new
    basis row is divided by the gcd of its entries, so the entries stay
    small integers (Bareiss-style integer-preserving elimination).
    """
    if not vectors:
        return 0
    base = vectors[0]
    basis: list[tuple[int, list[int]]] = []
    for vec in vectors[1:]:
        row = [a - b for a, b in zip(vec, base)]
        for lead, piv in basis:
            q = row[lead]
            if q:
                p = piv[lead]
                row = [p * a - q * b for a, b in zip(row, piv)]
        if any(row):
            g = math.gcd(*row)
            basis.append((next(i for i, v in enumerate(row) if v), [a // g for a in row]))
    return len(basis)


def face_dimension_bruteforce(c: Chain) -> int:
    """Dimension of the face measured from the vertices of its polytopal cells.

    Cell vertices permute each nesting gap's magnitude range and place a
    greedy descending prefix on any ordered subset of the leftover
    coordinates.  A branch assignment of the leftover coordinates selects
    one octant cell; each placed prefix lies in every octant, on the
    octant's own branches, and unplaced coordinates sit at the origin of
    their ray bundle.  So every octant has the same magnitude vectors, and
    the dimension is the affine rank of that one set.  That set reads only
    n and the chain's sets, so the rank is taken once per distinct
    (n, sets) (`_face_dimension`); chains that differ in r or decoration
    only share it.  The key is the sets themselves, not their orbit under
    relabeling the coordinates, so no symmetry of the complex is assumed.
    """
    return _face_dimension(c.n, c.sets)


# Cached: the oracle reads only n and the sets, and `enumerate_chains` lists
# the chains of one set chain next to each other, so the threeway suite's
# per-chain calls mostly hit: (2,4) 1,547 hits, 150 misses; (4,4) 22,683
# hits, 150 misses; (3,5) 164,552 hits, 1,082 misses.
@lru_cache(maxsize=64, typed=True)
def _face_dimension(n: int, sets: tuple[tuple[int, ...], ...]) -> int:
    """The affine rank of the cell magnitude vectors of the face of (n, sets)."""
    tail = _complement(n, sets)
    m = len(tail)
    vectors: set[tuple[int, ...]] = set()
    for seg_orders in itertools.product(*(itertools.permutations(s) for s in _segments(sets))):
        mags = [0] * n
        pos = 1
        for seg in seg_orders:
            for i in seg:
                mags[i - 1] = n + 1 - pos
                pos += 1
        for t in range(m + 1):
            for placed in itertools.permutations(tail, t):
                pmags = list(mags)
                for step, i in enumerate(placed):
                    pmags[i - 1] = m - step
                vectors.add(tuple(pmags))
    return _affine_rank(sorted(vectors))


@dataclass(frozen=True)
class FaceFactor:
    """One factor of a face: the leftover complex or a shifted permutohedron.

    `kind` is "complex" (block 0, the coordinates outside the largest set) or
    "permutohedron" (block j >= 1, one nesting gap, shifted by the count of
    elements outside that set and rotated onto the decorated branches).
    """

    kind: str
    block: int
    elements: tuple[int, ...]
    size: int
    shift: int | None = None
    branch_exps: tuple[tuple[int, int], ...] | None = None

    def to_json(self) -> dict:
        data: dict = {
            "kind": self.kind,
            "block": self.block,
            "elements": list(self.elements),
            "size": self.size,
        }
        if self.shift is not None:
            data["shift"] = self.shift
        if self.branch_exps is not None:
            data["branch_exps"] = {str(i): e for i, e in self.branch_exps}
        return data


def face_product_decomposition(c: Chain) -> tuple[FaceFactor, ...]:
    """Factor list of the face: leftover complex first, then one per gap."""
    dec = c.decoration_map()
    tail = c.complement()
    factors = [FaceFactor("complex", 0, tail, len(tail))]
    for j, seg in enumerate(c.segments(), start=1):
        gamma = c.n - len(c.sets[j - 1])
        exps = tuple((i, (-dec[i]) % c.r) for i in seg)
        factors.append(FaceFactor("permutohedron", j, seg, len(seg), gamma, exps))
    return tuple(factors)


def act_on_face(c: Chain, a: GenPerm) -> Chain:
    """Image chain of a face under the action: the face of c moves onto that of c·a.

    This is `act_on_chain`.  That the vertex sets follow the action is
    verified by `verify --suite equivariance`, not on every call.
    """
    return act_on_chain(c, a)


def hasse_dot(r: int, n: int) -> str:
    """DOT digraph of the covering relations of the refinement poset.

    Nodes carry chain JSON labels; each edge joins a chain to a chain
    obtained by deleting one of its sets (one dimension up).
    """
    chains = enumerate_chains(r, n)
    index = {(c.sets, c.decoration): i for i, c in enumerate(chains)}
    lines = ["digraph refinement {"]
    for i, c in enumerate(chains):
        label = json.dumps(c.to_json(), separators=(",", ":")).replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    for i, c in enumerate(chains):
        dec = c.decoration_map()
        for drop in range(c.length):
            kept = tuple(s for j, s in enumerate(c.sets) if j != drop)
            top = kept[-1] if kept else ()
            parent = index[kept, tuple((e, dec[e]) for e in top)]
            lines.append(f"  c{i} -> c{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
