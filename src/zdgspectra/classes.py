"""Equivalence relations on zero-divisors and the induced vertex partitions.

Two relations matter here, always on the vertex set Z(R)*:

  associate     a ~ b  iff a = ub and b = av for units u, v
  neighborhood  a == b iff N(a) = N(b) in Gamma(R)

A partition is the class id of each vertex, `cell_of`, with the classes
numbered 0, 1, ... in order of their smallest members (representatives),
and one claimed cell kind per class for the join machinery: an associate
class induces a complete subgraph exactly when its representative
squares to zero, and is edgeless otherwise; neighborhood classes are
always edgeless.  The member lists of `classes` derive from `cell_of`.

Both relations are read off the graph, in one function, `classes_for`.
With a zero diagonal, a vertex's adjacency row is its open neighborhood;
with its own bit set when it squares to 0 (the graph's `loops`), the row
is its annihilator among the vertices, {y : xy = 0 or yx = 0}.  Every ring
the parser builds (Z_n, GF(q), M_n(F_q) and their products) is
quasi-Frobenius, and there equal annihilators make associates: r(a) = r(b)
gives Ra = Rb and l(a) = l(b) gives aR = bR (Lam, Lectures on Modules and
Rings, section 15).  The proof, and the unit-orbit definition of the
associate classes that the tests compare with, are in tests/reference.py
(`check_relation_agreements`, `classes_associate`).  So the ring supplies
no associate key: its zero products make the graph, and the graph both
partitions.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import ZeroDivisorGraph, build_zdg  # unused: perfbench's tracer wraps this name for its graph.build span
from .rings import RingError, row_blocks


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

    def to_json(self, graph: ZeroDivisorGraph) -> dict:
        labels = [graph.ring.label(v) for v in graph.vertices]
        classes = [
            dict(rep=labels[c.representative], size=c.size, kind=c.kind, members=[labels[i] for i in c.members])
            for c in self.classes
        ]
        return {"relation": self.relation, "classes": classes}


def classes_for(graph: ZeroDivisorGraph, relation: str = "associate") -> ClassPartition:
    """The partition of the vertices of `graph` under the named relation:
    the classes of equal adjacency rows, each with the vertex's own bit
    set when it squares to 0 under the associate relation (see the module
    docstring).  The rows are packed into bytes one row block
    (`rings.row_blocks`, at most BLOCK_ENTRIES bytes) at a time, and one
    dict numbers them in order of first appearance, across the blocks."""
    associate = relation == "associate"
    if not associate and relation != "neighborhood":
        raise RingError(f"unknown relation '{relation}'")
    adj, loops = graph.adjacency, graph.loops
    width = -(-len(adj) // 8)  # the bytes of one packed row
    cell_of = np.empty(len(adj), dtype=np.intp)
    ids: dict = {}
    for rows in row_blocks(len(adj), width):
        packed = np.packbits(adj[rows], axis=1)
        if associate:  # vertex i's own bit is bit 7 - i % 8 of byte i // 8
            own = np.arange(rows.start, rows.stop)
            packed[own - rows.start, own >> 3] |= np.where(loops[rows], 128 >> (own & 7), 0).astype(np.uint8)
        keys = packed.view(np.dtype((np.void, width))).ravel()  # one byte string per row
        cell_of[rows] = [ids.setdefault(key, len(ids)) for key in keys.tolist()]
    # the running maximum of canonical ids first reaches c at the smallest member of class c
    first = np.searchsorted(np.maximum.accumulate(cell_of), np.arange(len(ids)))
    kinds = ["complete" if associate and loop else "null" for loop in loops[first].tolist()]
    return ClassPartition(relation, cell_of, kinds)
