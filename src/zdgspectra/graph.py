"""Zero-divisor graphs: construction, annihilators, degrees, exports.

The graph Gamma(R) has the nonzero zero-divisors of R as vertices and an
edge a-b exactly when ab = 0 or ba = 0.  Adjacency is a dense symmetric
numpy bool matrix with a zero diagonal; vertex order is the canonical
element order of the ring, so everything downstream is deterministic.

The adjacency comes from the ring's `zero_products` table (ab = 0 for
every vertex pair at once, built from per-ring lookup tables), OR-ed with
its transpose when the ring is not commutative.  The table's diagonal is
kept as `loops`, the vertices that square to 0, before the adjacency's
is cleared: it marks the vertices inside their own annihilator, and the
ring is reduced exactly when no vertex has a loop.  `annihilator_set`
keeps the per-element definition as an independent check.  There is one
graph per ring: `build_zdg` checks the caller's caps before any V x V
array exists and caches the graph under the ring alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import numth
from .rings import Ring, RingError

DEFAULT_VERTEX_CAP = 5000


class GraphCapError(RingError):
    """Raised when the zero-divisor graph would exceed the vertex cap."""


@dataclass
class ZeroDivisorGraph:
    ring: Ring
    vertices: list
    adjacency: np.ndarray  # bool, symmetric, zero diagonal
    loops: np.ndarray  # bool, loops[i] exactly when vertices[i] squares to 0
    _index: dict = field(repr=False, init=False)
    # flavor -> spectra.brute_spectrum of this graph; empty again after dataclasses.replace
    _oracle: dict = field(repr=False, compare=False, init=False, default_factory=dict)

    def __post_init__(self):
        self._index = {v: i for i, v in enumerate(self.vertices)}

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def index_of(self, a) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise RingError(f"{self.ring.label(a)} is not a vertex of Gamma({self.ring.spec_string()})") from None

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)


def _build(ring: Ring) -> ZeroDivisorGraph:
    zd = ring.zero_divisors(ring.cardinality)  # build_zdg checked the caller's caps
    z = ring.zero_products(zd)
    loops = z.diagonal().copy()
    adj = z if ring.commutative else z | z.T
    np.fill_diagonal(adj, False)
    return ZeroDivisorGraph(ring, list(zd), adj, loops)


_build_cached = lru_cache(maxsize=64)(_build)


def build_zdg(ring: Ring, vertex_cap: int | None = None, element_cap: int | None = None) -> ZeroDivisorGraph:
    """Construct Gamma(R), cached per ring: a cap refuses the graph, it never changes it."""
    vertex_cap = DEFAULT_VERTEX_CAP if vertex_cap is None else vertex_cap
    m = len(ring.zero_divisors(element_cap))
    if m > vertex_cap:
        raise GraphCapError(f"Gamma({ring.spec_string()}) has {m} vertices, over the cap {vertex_cap}")
    return _build_cached(ring)


def annihilator_set(ring: Ring, a, element_cap: int | None = None) -> set:
    """{x in Z(R) : ax = 0 or xa = 0}; contains a itself exactly when a^2 = 0.

    Computed straight from the definition (one pass of multiplications), so
    it doubles as an independent check on the adjacency matrix.
    """
    zero = ring.zero
    if a == zero:
        raise RingError("annihilator sets are defined for zero-divisors, not 0")
    if ring.is_unit(a):
        raise RingError(f"{ring.label(a)} is a unit, not a zero-divisor")
    mul = ring.mul
    comm = ring.commutative
    out = set()
    for x in ring.zero_divisors(element_cap):
        if mul(a, x) == zero or (not comm and mul(x, a) == zero):
            out.add(x)
    return out


def neighborhood(graph: ZeroDivisorGraph, a) -> set:
    """Open neighborhood N(a) as a set of ring elements."""
    i = graph.index_of(a)
    row = graph.adjacency[i]
    return {graph.vertices[j] for j in np.nonzero(row)[0]}


def degree(graph: ZeroDivisorGraph, a) -> int:
    return int(graph.adjacency[graph.index_of(a)].sum())


def degree_zn(n: int, d: int) -> int:
    """Degree of any vertex x with gcd(x, n) = d in Gamma(Z_n).

    Sums the sizes phi(n/d') of the divisor classes annihilating d and
    drops the self term when n | d^2.
    """
    if not 1 < d < n or n % d != 0:
        raise RingError(f"{d} is not a nontrivial divisor of {n}")
    total = 0
    for dd in numth.nontrivial_divisors(n):
        if (d * dd) % n == 0:
            total += numth.euler_phi(n // dd)
    if (d * d) % n == 0:
        total -= 1
    return total


def degree_matring(n: int, q: int, r: int, squares_to_zero: bool) -> int:
    """Degree of a rank-r matrix in Gamma(M_n(F_q)).

    2*q^(n(n-r)) - q^((n-r)^2) - 1, and one less when the matrix squares
    to zero (it then sits inside its own annihilator).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if not 1 <= r <= n - 1:
        raise RingError("rank must be between 1 and n-1 for a zero-divisor matrix")
    val = 2 * q ** (n * (n - r)) - q ** ((n - r) ** 2) - 1
    return val - 1 if squares_to_zero else val


def connected_component_count(graph: ZeroDivisorGraph) -> int:
    m = graph.order
    seen = np.zeros(m, dtype=bool)
    count = 0
    for start in range(m):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for j in np.nonzero(graph.adjacency[i] & ~seen)[0]:
                seen[j] = True
                stack.append(int(j))
    return count


def _edge_pairs(graph: ZeroDivisorGraph) -> list[list[int]]:
    """Every edge as [i, j] with i < j, in row-major (i, j) order."""
    return np.argwhere(np.triu(graph.adjacency, 1)).tolist()


def edge_list_text(graph: ZeroDivisorGraph) -> str:
    """One edge per line, 'u v' with canonical labels, (i, j) sorted."""
    labels = [graph.ring.label(v) for v in graph.vertices]
    lines = [f"{labels[i]} {labels[j]}" for i, j in _edge_pairs(graph)]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_json(graph: ZeroDivisorGraph) -> dict:
    ring = graph.ring
    return {
        "ring": ring.spec_string(),
        "vertices": [ring.label(v) for v in graph.vertices],
        "edges": _edge_pairs(graph),
    }
