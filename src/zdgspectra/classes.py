"""Equivalence relations on zero-divisors and the induced vertex partitions.

Two relations matter here, always on the vertex set Z(R)*:

  associate     a ~ b  iff a = ub and b = av for units u, v
  neighborhood  a == b iff N(a) = N(b) in Gamma(R)

Equal annihilators, ann(x) = {y : xy = 0 or yx = 0}, give the associate
classes on every ring the parser builds, as each is quasi-Frobenius; the
tests check this against an annihilator partition of their own.

A partition is the class id of each vertex, `cell_of`, with the classes
numbered 0, 1, ... in order of their smallest members (representatives),
and one claimed cell kind per class for the join machinery: an associate
class induces a complete subgraph exactly when its representative
squares to zero, and is edgeless otherwise; neighborhood classes are
always edgeless.  The member lists of `classes` derive from `cell_of`.

Every relation takes one path: `classes_for` numbers the vertices of the
caller's graph by a key per vertex through `rings.first_seen_ids`, which
numbers every partition and associate key of the package.  Associates
are keyed by `associate_keys` on the graph's `element_index` (gcd with n
for Z_n, the pair of kernels for a matrix, componentwise for a product),
with the cell kind read off the graph's `loops`; equal neighborhoods by
the adjacency rows.  The definitions these keys stand for (unit orbits,
pairwise row comparison, equal annihilators) and the agreement checks
between the relations are the tests' references, in tests/reference.py,
which numbers its classes without `first_seen_ids`.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import ZeroDivisorGraph, build_zdg  # unused: perfbench's tracer wraps this name for its graph.build span
from .rings import RingError, first_seen_ids


# one class as `ClassPartition.classes` lists it: smallest member, sorted members, size, kind
VertexClass = namedtuple("VertexClass", "representative members size kind")


@dataclass(eq=False)
class ClassPartition:
    """The class of each vertex as a read-only intp array, which must number
    the classes 0, 1, ... in order of their smallest members, and one
    claimed kind per class.  Partitions are equal when all three fields are."""

    relation: str  # 'associate' | 'neighborhood'
    cell_of: np.ndarray
    kinds: list[str]  # 'complete' | 'null'

    def __post_init__(self):
        self.cell_of = np.asarray(self.cell_of, dtype=np.intp)
        self.cell_of.flags.writeable = False
        # canonical: ids start at 0 and each is at most one above the largest
        # before it; the unsigned view reads a negative id as a huge one
        top = np.maximum.accumulate(self.cell_of.view(np.uintp))
        canonical = not top[:1].any() and bool((top[1:] - top[:-1] <= 1).all())
        if not canonical or int(self.cell_of.max(initial=-1)) + 1 != len(self.kinds):
            raise ValueError("cell_of must number its classes by smallest member, one kind each")

    def __eq__(self, other):
        same = isinstance(other, ClassPartition) and self.relation == other.relation and self.kinds == other.kinds
        return same and np.array_equal(self.cell_of, other.cell_of)

    @cached_property
    def classes(self) -> list[VertexClass]:
        order = np.argsort(self.cell_of, kind="stable")
        members = np.split(order, np.cumsum(np.bincount(self.cell_of))[:-1])
        return [VertexClass(int(m[0]), m.tolist(), len(m), kind) for m, kind in zip(members, self.kinds)]

    def member_sets(self, vertices) -> set[frozenset]:
        return {frozenset(vertices[i] for i in c.members) for c in self.classes}

    def to_json(self, graph: ZeroDivisorGraph) -> dict:
        labels = [graph.ring.label(v) for v in graph.vertices]
        classes = [
            dict(rep=labels[c.representative], size=c.size, kind=c.kind, members=[labels[i] for i in c.members])
            for c in self.classes
        ]
        return {"relation": self.relation, "classes": classes}


def _partition(relation, keys, kind) -> ClassPartition:
    """The classes of equal keys (an array or a list, rows for 2-D), numbered by
    `first_seen_ids`; kind(i) is the claimed kind of the class whose smallest member is vertex i."""
    cell_of = first_seen_ids(keys)
    # the running maximum of canonical ids first reaches c at the smallest member of class c
    first = np.searchsorted(np.maximum.accumulate(cell_of), np.arange(int(cell_of.max(initial=-1)) + 1))
    return ClassPartition(relation, cell_of, [kind(i) for i in first.tolist()])


def classes_neighborhood(graph: ZeroDivisorGraph) -> ClassPartition:
    """Partition by equal open neighborhoods.

    With a zero diagonal, N(a) = N(b) is exactly row equality: equality off
    positions {a, b} plus the forced non-adjacency of a and b (a in N(b)
    would put b's row apart from a's at position b).  Grouping by row ids
    therefore implements the masked comparison, which the tests' pairwise
    comparator checks.
    """
    return _partition("neighborhood", graph.adjacency, lambda i: "null")


def classes_for(graph: ZeroDivisorGraph, relation: str = "associate") -> ClassPartition:
    """The partition of the vertices of `graph` under the named relation,
    grouped by one key per vertex (see the module docstring); the tests'
    unit-orbit reference is the definition the associate classes must equal."""
    if relation == "associate":
        keys = graph.ring.associate_keys(graph.element_index)
        return _partition("associate", keys, lambda i: "complete" if graph.loops[i] else "null")
    if relation == "neighborhood":
        return classes_neighborhood(graph)
    raise RingError(f"unknown relation '{relation}'")
