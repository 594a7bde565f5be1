"""Boundary strata as pinwheel dual graphs.

A stratum is recorded by its generic topological type: the spoke length k
and, for each spoke component from outermost to innermost, the light orbit
members (orbit index, branch exponent) sitting on the distinguished spoke.
The remaining orbits live on the central component with all their members.
The full r-fold symmetric graph is derived from this data.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator

from .chains import Chain
from .cyclo import _check_indices, _check_rn, _check_same_space, _of_fields, _value_class
from .group import GenPerm

__all__ = [
    "PinwheelStratum",
    "chain_to_stratum",
    "stratum_to_chain",
    "contract_spoke_edges",
    "spoke_contractions",
    "act_on_stratum",
    "dual_graph_dot",
]


class PinwheelStratum(_value_class("PinwheelStratum", "r n spoke")):
    """Dual graph of a stratum: a pinwheel factor times Losev-Manin factors.

    spoke[j-1] lists the (orbit, exponent) light points on the j-th component
    of the distinguished spoke, outermost first; each such component is a
    Losev-Manin factor, and the central component, with the remaining orbits,
    is the pinwheel factor with fewer orbits.  Every spoke component must
    carry at least one light point; orbits appear at most once.
    """

    __slots__ = ()

    def __new__(cls, r: int, n: int, spoke: tuple[tuple[tuple[int, int], ...], ...]) -> "PinwheelStratum":
        return tuple.__new__(cls, (r, n, spoke)).__post_init__()

    def __post_init__(self) -> "PinwheelStratum":
        r, n = _check_rn(self.r, self.n)
        spoke = tuple(
            [tuple(sorted([(index(i), index(e) % r) for i, e in comp])) for comp in self.spoke]
        )
        if not all(spoke):
            raise ValueError("every spoke component must carry a light point")
        _check_indices([i for comp in spoke for i, _ in comp], 1, n, "orbit")
        return tuple.__new__(type(self), (r, n, spoke))

    @property
    def k(self) -> int:
        return len(self.spoke)

    def central_orbits(self) -> tuple[int, ...]:
        assigned = {i for comp in self.spoke for i, _ in comp}
        return tuple(i for i in range(1, self.n + 1) if i not in assigned)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "k": self.k,
            "spoke": [
                [{"orbit": i, "exp": e} for i, e in comp] for comp in self.spoke
            ],
        }


def chain_to_stratum(c: Chain) -> PinwheelStratum:
    """Spoke component j carries the decorated members of the j-th nesting gap."""
    # Each light point is the chain's own (element, exponent) pair.
    pair = {p[0]: p for p in c.decoration}
    spoke = tuple([tuple([pair[i] for i in seg]) for seg in c.segments()])
    return _of_fields(PinwheelStratum, c.r, c.n, spoke)


def _stratum_chain_key(s: PinwheelStratum) -> tuple[tuple, tuple]:
    """The canonical (sets, decoration) of `stratum_to_chain(s)`, with no `Chain` built."""
    sets = []
    acc: list[int] = []
    dec: list[tuple[int, int]] = []
    for comp in s.spoke:
        acc.extend(i for i, _ in comp)
        dec.extend(comp)
        sets.append(tuple(sorted(acc)))
    return tuple(sets), tuple(sorted(dec))


def stratum_to_chain(s: PinwheelStratum) -> Chain:
    """Read the chain back: set j indexes the orbits on the outermost j components."""
    return _of_fields(Chain, s.r, s.n, *_stratum_chain_key(s))


def contract_spoke_edges(s: PinwheelStratum, edges: Iterable[int]) -> PinwheelStratum:
    """Contract the listed spoke edge orbits, simultaneously on all r spokes.

    Edge j joins spoke component j to component j+1, with component k+1 the
    center; contracting edge j merges component j's light points inward, and
    contracting edge k returns its orbits (as full orbits) to the center.
    """
    edges = _check_indices(edges, 1, s.k, "edge")
    merged: list[tuple[tuple[int, int], ...]] = []
    carry: list[tuple[int, int]] = []
    for j, comp in enumerate(s.spoke, start=1):
        carry.extend(comp)
        if j not in edges:
            merged.append(tuple(sorted(carry)))
            carry = []
        # when j is contracted the points ride inward; past the last
        # component they dissolve into the center
    return _of_fields(PinwheelStratum, s.r, s.n, tuple(merged))


def spoke_contractions(s: PinwheelStratum) -> Iterator[tuple[tuple[tuple[int, int], ...], ...]]:
    """The canonical spokes reached by contracting each subset of s's spoke edges.

    s's own spoke comes first; each entry equals the `spoke` of the stratum
    `contract_spoke_edges` builds for the same edges.
    """
    spoke, k = s.spoke, s.k
    # runs[a][b - a]: components a..b (0-based) merged and sorted, built once
    # per interval; contracting edges a+1..b merges exactly that run.
    runs = []
    for a in range(k):
        carry: list[tuple[int, int]] = []
        row = []
        for comp in spoke[a:]:
            carry.extend(comp)
            row.append(tuple(sorted(carry)))
        runs.append(row)
    for merges in _contraction_runs(k):
        yield tuple([runs[a][b] for a, b in merges])


# Cached: one table per spoke length, read once per stratum by
# `spoke_contractions`; the threeway suite at (2,4) makes 1,692 hits and 5 misses.
@lru_cache(maxsize=16, typed=True)
def _contraction_runs(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The runs each contraction of k spoke edges merges, in `spoke_contractions`' order.

    Each run a..b of components (0-based) is given as (a, b - a), its place
    in `spoke_contractions`' table of merged runs.
    """
    out = []
    for size in range(k + 1):
        for edges in itertools.combinations(range(1, k + 1), size):
            merges = []
            start = 0
            for j in range(k):
                if j + 1 not in edges:
                    merges.append((start, j - start))
                    start = j + 1
            out.append(tuple(merges))
    return tuple(out)


def _act_on_spoke(s: PinwheelStratum, a: GenPerm) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The canonical `spoke` of `act_on_stratum(s, a)`, with no stratum built."""
    place = {i: (j, e) for j, comp in enumerate(s.spoke) for i, e in comp}
    spoke: list[list[tuple[int, int]]] = [[] for _ in s.spoke]
    for b, (i, x) in enumerate(zip(a.row_of_col, a.exp_of_col), start=1):
        if i in place:
            j, e = place[i]
            spoke[j].append((b, (e - x) % s.r))
    return tuple(map(tuple, spoke))


def act_on_stratum(s: PinwheelStratum, a: GenPerm) -> PinwheelStratum:
    """Right action on a stratum by relabeling the light points.

    Orbit b takes over the spoke position of orbit row_of_col[b], with its
    exponent reduced by the matrix exponent; central orbits stay central.
    """
    _check_same_space(s, a)
    return _of_fields(PinwheelStratum, s.r, s.n, _act_on_spoke(s, a))


def dual_graph_dot(s: PinwheelStratum) -> str:
    """DOT rendering of the full r-fold dual graph with half-edge labels."""
    lines = ["graph dualgraph {", "  node [shape=circle];"]
    central = [f"z_{i}^{l}" for i in s.central_orbits() for l in range(s.r)]
    central_label = " ".join(["x^+", "x^-"] + central)
    lines.append(f'  center [label="{central_label}"];')
    for l in range(s.r):
        for j, comp in enumerate(s.spoke, start=1):
            marks = [f"z_{i}^{(e + l) % s.r}" for i, e in comp]
            if j == 1:
                marks.insert(0, f"y^{l}")
            label = " ".join(marks)
            lines.append(f'  c_{l}_{j} [label="C^{l}_{j}: {label}"];')
        for j in range(1, s.k):
            lines.append(f"  c_{l}_{j} -- c_{l}_{j + 1};")
        if s.k:
            lines.append(f"  c_{l}_{s.k} -- center;")
    lines.append("}")
    return "\n".join(lines) + "\n"
