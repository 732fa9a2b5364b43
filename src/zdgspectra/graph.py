"""Zero-divisor graphs: construction, annihilators, degrees, exports.

The graph Gamma(R) has the nonzero zero-divisors of R as vertices and an
edge a-b exactly when ab = 0 or ba = 0.  Adjacency is a dense symmetric
numpy bool matrix with a zero diagonal; vertex order is the canonical
element order of the ring, so everything downstream is deterministic.

The graph runs on element indices (positions in the ring's canonical
element order), never on payloads.  `_build` takes the vertices' indices,
kept as `element_index`, from the ring's `_unit_mask`: every element but
0 and the units.  The adjacency comes from the ring's `zero_products`
table on those indices (ab = 0 for every vertex pair, built from per-ring
lookup tables one row block at a time), OR-ed in place with its
transpose, one pair of mirrored square tiles at a time, when the ring is
not commutative: the adjacency is the one V x V array the build holds,
and every temporary has at most `rings.BLOCK_ENTRIES` entries.  The
table's diagonal is kept as `loops`, the vertices that
square to 0, before the adjacency's is cleared: it marks the vertices
inside their own annihilator, and the ring is reduced exactly when no
vertex has a loop.  The payloads, `vertices`, are decoded from the
indices by one `ring.decode` call on first read, for the printed reports
and the tests; neither the ring nor the graph keeps a payload list
otherwise.
The per-element annihilator and reducedness definitions that check the
graph are the tests' references, in tests/reference.py.

`build_zdg` checks the caller's vertex cap against `vertex_count()`, a
closed count, before anything of size |R| exists.  That one cap bounds
|R| too: a ring with a vertex has |R| <= (V + 1)^2 (Ganesan, Math. Ann.
157, 1964; Koh, Math. Ann. 171, 1967), and a ring with none is a field,
whose graph `_build` makes without reading a unit mask.  It caches the
graph under the ring alone, one graph at a time: every reuse is of the
ring just built, so a sweep holds one V x V array, not one per ring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .counts import SemisimpleProfile, _check_q, semisimple_vertex_degree
from .rings import BLOCK_ENTRIES, Ring, RingError, row_blocks

DEFAULT_VERTEX_CAP = 5000


class GraphCapError(RingError):
    """Raised when the zero-divisor graph would exceed the vertex cap."""


@dataclass
class ZeroDivisorGraph:
    ring: Ring
    adjacency: np.ndarray  # bool, symmetric, zero diagonal
    loops: np.ndarray  # bool, loops[i] exactly when vertex i squares to 0
    element_index: np.ndarray  # int64, ascending: the element index of vertex i
    # flavor -> spectra.brute_spectrum of this graph; empty again after dataclasses.replace
    _oracle: dict = field(repr=False, compare=False, init=False, default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.element_index)

    @cached_property
    def vertices(self) -> list:
        """The vertices' payloads, decoded from `element_index` on first read."""
        return self.ring.decode(self.element_index)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def index_of(self, a) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise RingError(f"{self.ring.label(a)} is not a vertex of Gamma({self.ring.spec_string()})") from None

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)


def _build(ring: Ring) -> ZeroDivisorGraph:
    # the unit mask takes |R|, which only the vertex cap bounds: a ring with
    # no vertex is a field, of any size, and any other ring has
    # |R| <= (V + 1)^2 <= (cap + 1)^2
    if ring.vertex_count() > 0:
        zd = ~ring._unit_mask()
        zd[0] = False  # element 0 is the zero
        index = np.flatnonzero(zd)
    else:
        index = np.zeros(0, dtype=np.intp)
    index.flags.writeable = False  # the cached graph is shared
    adj = ring.zero_products(index)
    loops = adj.diagonal().copy()
    if not ring.commutative:
        _or_transpose(adj)
    np.fill_diagonal(adj, False)
    return ZeroDivisorGraph(ring, adj, loops, index)


def _or_transpose(z: np.ndarray) -> None:
    """z |= z.T in place, on each pair of mirrored square tiles of at most
    BLOCK_ENTRIES entries: a tile on the diagonal is its own mirror."""
    tiles = row_blocks(len(z), math.isqrt(BLOCK_ENTRIES))
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            upper, lower = z[rows, cols], z[cols, rows]
            upper |= lower.T
            lower[...] = upper.T


_build_cached = lru_cache(maxsize=1)(_build)


def build_zdg(ring: Ring, vertex_cap: int | None = None) -> ZeroDivisorGraph:
    """Construct Gamma(R), cached for the last ring: the cap refuses the
    graph from the ring's closed vertex count, before anything is
    enumerated, and never changes it."""
    vertex_cap = DEFAULT_VERTEX_CAP if vertex_cap is None else vertex_cap
    m = ring.vertex_count()
    if m > vertex_cap:
        raise GraphCapError(f"Gamma({ring.spec_string()}) has {m} vertices, over the cap {vertex_cap}")
    return _build_cached(ring)


def degree(graph: ZeroDivisorGraph, a) -> int:
    return int(graph.adjacency[graph.index_of(a)].sum())


def degree_zn(n: int, d: int) -> int:
    """Degree of any vertex x with gcd(x, n) = d in Gamma(Z_n).

    The annihilator of x is the d multiples of n/d; its d - 1 nonzero
    members are all zero-divisors, and x is one of them when n | d^2.
    """
    if not 1 < d < n or n % d != 0:
        raise RingError(f"{d} is not a nontrivial divisor of {n}")
    return d - 1 - (d * d % n == 0)


def degree_matring(n: int, q: int, r: int, squares_to_zero: bool) -> int:
    """Degree of a rank-r matrix in Gamma(M_n(F_q)): the one-factor case of
    `counts.semisimple_vertex_degree`, 2*q^(n(n-r)) - q^((n-r)^2) - 1, and
    one less when the matrix squares to zero (it then sits inside its own
    annihilator).  Only a matrix with 2r <= n can: its rank-r column space
    must lie in its rank-(n-r) kernel.
    """
    _check_q(q)
    if not 1 <= r <= n - 1:
        raise RingError("rank must be between 1 and n-1 for a zero-divisor matrix")
    if squares_to_zero and 2 * r > n:
        raise RingError(f"no rank-{r} matrix in M_{n}(F_{q}) squares to zero")
    return semisimple_vertex_degree(SemisimpleProfile(((n, q),), (r,)), squares_to_zero)


def connected_component_count(graph: ZeroDivisorGraph) -> int:
    """Breadth-first search a level at a time: the next is every unseen neighbor of this one."""
    seen = np.zeros(graph.order, dtype=bool)
    count = 0
    while not seen.all():
        count += 1
        frontier = np.arange(len(seen)) == np.argmin(seen)  # the first unseen vertex
        while frontier.any():
            seen |= frontier
            frontier = graph.adjacency[frontier].any(axis=0) & ~seen
    return count


def _edge_pairs(graph: ZeroDivisorGraph) -> list[list[int]]:
    """Every edge as [i, j] with i < j, in row-major (i, j) order: the
    nonzero entries above the diagonal, with no triangular copy of the
    adjacency."""
    i, j = np.nonzero(graph.adjacency)
    upper = i < j
    return np.column_stack([i[upper], j[upper]]).tolist()


def graph_json(graph: ZeroDivisorGraph) -> dict:
    ring = graph.ring
    return {
        "ring": ring.spec_string(),
        "vertices": [ring.label(v) for v in graph.vertices],
        "edges": _edge_pairs(graph),
    }
