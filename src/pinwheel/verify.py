"""Cross-validation suites for the three-way correspondence.

Each suite exhaustively checks one family of claims at desk scale and
returns a structured report: object counts per dimension plus a list of
violation strings (expected empty).  Each suite takes its group-order cap
as the int `max_group_order` (default 2000), checks it once, and refuses an
instance above it with `CapExceeded` before it enumerates anything, in
bounded time for any (r, n).

All four suites find a chain's data by its position in `enumerate_chains`
or by its canonical (sets, decoration) key; the nonempty suite, too, names
each hyperplane by its (elements, exps) key and looks each assembled family
up by its chain key.  A suite builds a library object only as a route's
output that it compares, never just to look something up, and builds it by
`_of_fields`, since its fields are computed and canonical.
Each key builder is the one its object builder wraps, so a key equals the
fields of the object it stands for.  One numbering rule holds in every
suite: a vertex is numbered by its coordinate tuple and a coset element by
its (rows, exps) word; a chain's ids are held as a tuple in item order and
compared as a set.
The threeway suite compares its four inclusion relations chain by chain:
for each chain it builds the chains it lies in four ways and drops them once
compared, so no relation is held whole.  The cosets and faces holding a
chain's ids are one C-level intersection of the holders of each id.
Three of its routes read a small table made once per set chain, each its
own: `_face_coords` (`faces._face_shape`), `chain_to_coset`
(`cosets._coset_rows`) and `_coarsening_keys` (`chains._coarsening_sets`);
each chain adds only its decoration, and no two compared routes share a
table.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Callable

from .chains import Chain, _act_on_chain_key, _coarsening_keys, chain_dimension, enumerate_chains
from .cosets import (
    _act_on_coset_key,
    _block_product_words,
    _coset_chain_key,
    _coset_words,
    chain_to_coset,
    coset_block_decomposition,
)
from .cyclo import _check_nonnegative, _check_rn, _of_fields, _on_hyperplane_coords, delta
from .faces import (
    _face_coords,
    _hyperplanes_chain_key,
    chain_layers,
    enumerate_vertices,
    face_dimension_bruteforce,
    face_product_decomposition,
    vertex_of_maximal_chain,
)
from .group import GenPerm, _act_on_coords, _product, enumerate_group, group_order
from .strata import (
    _act_on_spoke,
    _stratum_chain_key,
    chain_to_stratum,
    spoke_contractions,
)

__all__ = [
    "CapExceeded",
    "Report",
    "verify_threeway",
    "verify_equivariance",
    "verify_products",
    "verify_nonemptiness",
    "SUITES",
]


class CapExceeded(ValueError):
    """An instance is larger than the size cap allows."""


# The suites' default size cap; raise it to verify beyond desk scale.
_MAX_GROUP_ORDER = 2000


class Report(namedtuple("Report", "suite r n counts_by_dim violations")):
    """What a suite checked: chain counts by dimension, and the violations it appends."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return self._asdict()


def _start(suite: str, r: int, n: int, max_group_order: int) -> tuple[int, int, tuple[Chain, ...], Report]:
    """Every suite's prologue: r and n as ints, the cap (by arithmetic alone), the chains, a report."""
    cap, (r, n) = _check_nonnegative("max_group_order", max_group_order), _check_rn(r, n)
    # r^n * n! as the product of r * k over k = 1..n, stopped once past the
    # cap (about log2(cap) steps); a stop before k = n gives a lower bound.
    order = k = 1
    while order <= cap and k <= n:
        order, k = order * r * k, k + 1
    if order > cap:
        bound = order if k > n else f"at least {order}"
        raise CapExceeded(f"group order {bound} for (r={r}, n={n}) exceeds max_group_order={cap}")
    chains = enumerate_chains(r, n)
    # Counted by each chain's length, not by `chain_dimension`, a compared route.
    counts = [0] * (n + 1)
    for c in chains:
        counts[n - c.length] += 1
    return r, n, chains, Report(suite, r, n, counts, [])


def _numbered(items, ids: dict) -> tuple[int, ...]:
    # One integer per distinct vertex coordinate tuple or (rows, exps) word,
    # in item order, so the tuples kept for every chain hold no copy of
    # either; a key not yet numbered, such as a broken route's stray one, gets
    # a fresh id.  An item listed twice gives its id twice; every reader
    # compares the ids as a set.
    return tuple([ids.setdefault(item, len(ids)) for item in items])


def _holders(owned: list[tuple[int, ...]], count: int) -> list[tuple[int, ...]]:
    # Invert "chain index -> ids" to "id -> indices of the chains holding it",
    # each list frozen to a tuple once complete: a tuple of 32 ints takes 296
    # bytes, a set grown to hold them about 2 KB.
    holders: list = [[] for _ in range(count)]
    for i, ids in enumerate(owned):
        for item in ids:
            holders[item].append(i)
    for item, held in enumerate(holders):
        holders[item] = tuple(held)
    return holders


def _holding_all(ids: tuple[int, ...], holders: list[tuple[int, ...]]) -> set[int]:
    # A coset/face lies in another exactly when every one of its ids does, so
    # intersect the holders of its ids, all in one C-level call.
    if not ids:
        return set()
    first, *rest = ids
    return set(holders[first]).intersection(*[holders[i] for i in rest])


def verify_threeway(r: int, n: int, max_group_order: int = _MAX_GROUP_ORDER) -> Report:
    """Roundtrips, dimensions, each vertex against its face, the census, and the four-way inclusions."""
    r, n, chains, report = _start("threeway", r, n, max_group_order)
    fail = report.violations.append
    # Roundtrips compare (sets, decoration) keys, coarsenings and contractions
    # are looked up by their keys, and coset elements and face vertices are
    # numbered as (rows, exps) words and coordinate tuples, so no GenPerm,
    # YPoint, Chain or PinwheelStratum is built just to be compared.
    strata, elements, vertices, element_ids, vertex_ids = [], [], [], {}, {}
    census: set[int] = set()  # the vertex ids of the maximal chains
    for c in chains:
        key = (c.sets, c.decoration)
        h = chain_to_coset(c)
        if _coset_chain_key(h) != key:
            fail(f"coset roundtrip broke on {c.to_json()}")
        s = chain_to_stratum(c)
        if _stratum_chain_key(s) != key:
            fail(f"stratum roundtrip broke on {c.to_json()}")
        chain_dim, coset_dim, stratum_dim = chain_dimension(c), h.dimension, n - s.k
        face_dim = face_dimension_bruteforce(c)
        if not chain_dim == coset_dim == stratum_dim == face_dim:
            dims = {"chain": chain_dim, "coset": coset_dim, "stratum": stratum_dim, "face": face_dim}
            fail(f"dimension mismatch {dims} on {c.to_json()}")
        face = _face_coords(c)
        vertices.append(_numbered(face, vertex_ids))
        if c.length == n:
            if face != [vertex_of_maximal_chain(c).coords]:
                fail(f"vertex is not the one point of its face on {c.to_json()}")
            census.update(vertices[-1])
        strata.append(s)
        elements.append(_numbered(_coset_words(h), element_ids))
    if len(census) != group_order(r, n):
        fail(f"vertex census {len(census)} != {group_order(r, n)}")

    # Chain i lies in chain j four ways: j is a coarsening of i, j's coset
    # holds i's elements, j's face holds i's vertices, and j's stratum is a
    # contraction of i's.  Each way has its own lookup, and each chain's
    # three sets are compared with its coarsenings and dropped.
    index = {(c.sets, c.decoration): i for i, c in enumerate(chains)}
    stratum_index = {s.spoke: i for i, s in enumerate(strata)}
    element_holders = _holders(elements, len(element_ids))
    vertex_holders = _holders(vertices, len(vertex_ids))
    for i, c in enumerate(chains):
        coarse = set()
        for coarsening in _coarsening_keys(c):
            j = index.get(coarsening)
            if j is None:
                fail(f"coarsening is not in the complex on {c.to_json()}")
            else:
                coarse.add(j)
        contracted = set()
        for spoke in spoke_contractions(strata[i]):
            j = stratum_index.get(spoke)
            if j is None:
                fail(f"contraction is not in the complex on {c.to_json()}")
            else:
                contracted.add(j)
        for name, other in (
            ("coset", _holding_all(elements[i], element_holders)),
            ("face", _holding_all(vertices[i], vertex_holders)),
            ("stratum", contracted),
        ):
            for j in sorted(coarse ^ other):
                fail(f"inclusion mismatch ({name}) between {c.to_json()} and {chains[j].to_json()}")
    return report


def verify_equivariance(r: int, n: int, max_group_order: int = _MAX_GROUP_ORDER) -> Report:
    """Group action compatibility across chains, cosets, faces and strata."""
    r, n, chains, report = _start("equivariance", r, n, max_group_order)
    fail = report.violations.append
    group = enumerate_group(r, n)

    index = {(c.sets, c.decoration): i for i, c in enumerate(chains)}
    handles = [chain_to_coset(c) for c in chains]
    reps = [h.rep.sort_key() for h in handles]
    strata = [chain_to_stratum(c) for c in chains]
    element_ids = {g.sort_key(): i for i, g in enumerate(group)}
    vertex_ids: dict[tuple, int] = {}
    elements = [frozenset(_numbered(_coset_words(h), element_ids)) for h in handles]
    vertices = [frozenset(_numbered(_face_coords(c), vertex_ids)) for c in chains]
    base = vertex_ids.setdefault(tuple((i, 0) for i in range(1, n + 1)), len(vertex_ids))
    # One matrix per id, built once; each element then moves every id through
    # a table, vertices by their coords, so no pair builds a point or a matrix.
    points = list(vertex_ids)
    members = [_of_fields(GenPerm, r, n, *word) for word in element_ids]
    orbit = []
    for a in group:
        vmove = [vertex_ids.setdefault(_act_on_coords(p, a), len(vertex_ids)) for p in points]
        emove = [element_ids.setdefault(_product(g, a), len(element_ids)) for g in members]
        orbit.append(vmove[base])
        for c, vs, h, els, s in zip(chains, vertices, handles, elements, strata):
            j = index.get(_act_on_chain_key(c, a))
            if j is None:
                fail(f"image is not a chain of the complex on {c.to_json()} by {a.to_json()}")
                continue
            if frozenset([vmove[v] for v in vs]) != vertices[j]:
                fail(f"face action broke on {c.to_json()} by {a.to_json()}")
            if _act_on_coset_key(h, a) != reps[j]:
                fail(f"coset action missed the image coset on {c.to_json()} by {a.to_json()}")
            if frozenset([emove[e] for e in els]) != elements[j]:
                fail(f"coset element action broke on {c.to_json()} by {a.to_json()}")
            if _act_on_spoke(s, a) != strata[j].spoke:
                fail(f"stratum action broke on {c.to_json()} by {a.to_json()}")
    for c, vs, els in zip(chains, vertices, elements):
        if frozenset([i for i, v in enumerate(orbit) if v in vs]) != els:
            fail(f"vertex-orbit reinterpretation broke on {c.to_json()}")
    return report


def verify_products(r: int, n: int, max_group_order: int = _MAX_GROUP_ORDER) -> Report:
    """Factor lists agree across the three families, and each coset is the product of its blocks.

    Each list is read where it lives: the stratum's central orbits (block 0) and
    spoke components, `coset_block_decomposition`, and `face_product_decomposition`.
    The coset's own words must be those of its blocks' product (`_block_product_words`).
    """
    r, n, chains, report = _start("products", r, n, max_group_order)
    fail = report.violations.append

    for c in chains:
        s = chain_to_stratum(c)
        stratum_sizes = dict(enumerate([len(s.central_orbits()), *map(len, s.spoke)]))
        blocks = coset_block_decomposition(c)
        coset_sizes = {f.block: f.size for f in blocks}
        face_sizes = {f.block: f.size for f in face_product_decomposition(c)}
        if not stratum_sizes == coset_sizes == face_sizes:
            fail(
                f"factor lists disagree on {c.to_json()}: "
                f"strata {stratum_sizes}, cosets {coset_sizes}, faces {face_sizes}"
            )
        if set(_block_product_words(c, blocks)) != set(_coset_words(chain_to_coset(c))):
            fail(f"coset is not the product of its blocks on {c.to_json()}")
    return report


def _hyperplane_scan(
    r: int, n: int, coords: list[tuple]
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], list[frozenset[int]]]:
    """Every hyperplane's (elements, exps) key, by size, subset and exponent word, with its on-set.

    The on-set holds the positions in `coords` of the vertices on the
    hyperplane.  A hyperplane on the subset S reads only the coordinates in S,
    so the vertices are grouped once per S by their restriction to S.  Each
    exponent word on S then takes one full evaluation by the kernel per
    distinct restriction, its terms rebased to 0..|S|-1, and its on-set is the
    union of the groups that pass.  Nothing is carried from one S to the next.
    """
    keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    on_ids: list[frozenset[int]] = []
    for size in range(1, n + 1):
        target = delta(n, size)
        for elems in itertools.combinations(range(1, n + 1), size):
            groups: dict[tuple, list[int]] = {}
            for v, x in enumerate(coords):
                groups.setdefault(tuple([x[i - 1] for i in elems]), []).append(v)
            for exps in itertools.product(range(r), repeat=size):
                terms = tuple(enumerate(exps))
                keys.append((elems, exps))
                passed = [ids for part, ids in groups.items() if _on_hyperplane_coords(r, part, terms, target)]
                on_ids.append(frozenset(itertools.chain.from_iterable(passed)))
    return keys, on_ids


def verify_nonemptiness(r: int, n: int, max_group_order: int = _MAX_GROUP_ORDER) -> Report:
    """Nesting-sortability against the exhaustive vertex scan, on vertex stars."""
    r, n, chains, report = _start("nonempty", r, n, max_group_order)
    fail = report.violations.append

    # Each hyperplane is named by its (elements, exps) key, and the scan gives
    # each its on-set.
    vertices = enumerate_vertices(r, n)
    coords = [v.coords for v in vertices]
    hyperplanes, on_ids = _hyperplane_scan(r, n, coords)
    position = {key: i for i, key in enumerate(hyperplanes)}
    vertex_ids = {x: i for i, x in enumerate(coords)}
    index = {(c.sets, c.decoration): j for j, c in enumerate(chains)}
    face_ids = [frozenset(_numbered(_face_coords(c), vertex_ids)) for c in chains]

    def named(family: tuple[int, ...]) -> list[dict[int, int]]:
        return [dict(zip(*hyperplanes[i])) for i in family]

    # Scan side: a family meets exactly when it lies in some vertex's star,
    # the hyperplanes the scan puts that vertex on; a star lists them in
    # index order, so its subfamilies come out as sorted index tuples.  A
    # vertex lies on exactly its n chain layers, so a larger star is reported
    # once: its subfamilies, which grow without bound, are not taken, and the
    # vertex leaves every intersection, where it would be reported again.
    stars: list[list[int]] = [[] for _ in vertices]
    for i, ids in enumerate(on_ids):
        for v in ids:
            stars[v].append(i)
    # Each family that meets, with the index of the chain it assembles into
    # (None if none of the complex), which the nesting side reads.
    meeting: dict[tuple[int, ...], int | None] = {}
    crowded = {v for v, star in enumerate(stars) if len(star) > n}
    for v, star in enumerate(stars):
        if v in crowded:
            fail(f"vertex {vertices[v].to_json()} lies on {len(star)} hyperplanes, more than n={n}")
            continue
        for size in range(1, len(star) + 1):
            meeting.update(dict.fromkeys(itertools.combinations(star, size)))
    if crowded:
        on_ids = [ids - crowded for ids in on_ids]
        face_ids = [ids - crowded for ids in face_ids]
    for family in sorted(meeting, key=lambda f: (len(f), f)):
        key = _hyperplanes_chain_key(r, [hyperplanes[i] for i in family])
        j = meeting[family] = index.get(key)
        if key is None:
            fail(f"sortability and vertex scan disagree on {named(family)}")
        elif j is None:
            fail(f"assembled chain is not in the complex on {named(family)}")
        elif frozenset.intersection(*[on_ids[i] for i in family]) != face_ids[j]:
            fail(f"hyperplane intersection is not the face's vertex set on {chains[j].to_json()}")

    # Nesting side: every chain's layers, and every pair the key builder
    # accepts, must meet; a family found by both is reported once.  Layers
    # that meet must assemble into their own chain; a family that assembled
    # into nothing of the complex was reported above.  A layer that is not
    # one of the scan's hyperplane keys is reported on its chain.
    nesting = set()
    for i, c in enumerate(chains):
        if c.length:
            ids = [position.get((s.elements, s.exps)) for s in chain_layers(c)]
            if None in ids:
                fail(f"layer is not a hyperplane of the complex on {c.to_json()}")
                continue
            family = tuple(sorted(ids))
            nesting.add(family)
            if meeting.get(family) not in (None, i):
                fail(f"layers do not nest into their chain on {c.to_json()}")
    nesting.update(
        pair
        for pair in itertools.combinations(range(len(hyperplanes)), 2)
        if _hyperplanes_chain_key(r, [hyperplanes[i] for i in pair]) is not None
    )
    for family in sorted(nesting - meeting.keys(), key=lambda f: (len(f), f)):
        fail(f"sortability and vertex scan disagree on {named(family)}")
    return report


SUITES: dict[str, Callable[[int, int, int], Report]] = {
    "threeway": verify_threeway,
    "equivariance": verify_equivariance,
    "products": verify_products,
    "nonempty": verify_nonemptiness,
}
