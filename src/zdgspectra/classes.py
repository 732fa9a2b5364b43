"""Equivalence relations on zero-divisors and the induced vertex partitions.

Three relations matter here, always on the vertex set Z(R)*:

  associate     a ~ b  iff a = ub and b = av for units u, v
  neighborhood  a == b iff N(a) = N(b) in Gamma(R)
  annihilator   a ~m b iff ann(a) = ann(b), ann(x) = {y : xy = 0 or yx = 0}

A partition is the class id of each vertex, `cell_of`, with the classes
numbered 0, 1, ... in order of their smallest members (representatives),
and one claimed cell kind per class for the join machinery: an associate
class induces a complete subgraph exactly when its representative
squares to zero, and is edgeless otherwise; neighborhood classes are
always edgeless.  The member lists of `classes` derive from `cell_of`.

Every relation takes one path: `classes_for` numbers the vertices of the
caller's graph by a key per vertex through `rings.first_seen_ids`, which
numbers every partition, associate key and partition check of the
package.  Associates are keyed by `associate_keys` on the graph's
`element_index` (gcd with n for Z_n, the pair of kernels for a matrix,
componentwise for a product), with the cell kind read off the graph's
`loops`; equal neighborhoods by the adjacency rows; equal annihilators
by the adjacency rows with the graph's `loops` on the diagonal (a in
ann(a) iff a^2 = 0).
`classes_associate` (unit orbits) and `_neighborhood_classes_masked`
(pairwise row comparison) keep the definitions as the tests' references.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numth
from .graph import ZeroDivisorGraph, build_zdg  # unused: perfbench's tracer wraps this name for its graph.build span
from .rings import GF, MatRing, ProductRing, Ring, RingError, Zn, first_seen_ids


class RelationAgreementError(RingError):
    """A proven relation between the partitions failed on an actual ring."""


# one class as `ClassPartition.classes` lists it: smallest member, sorted members, size, kind
VertexClass = namedtuple("VertexClass", "representative members size kind")


@dataclass(eq=False)
class ClassPartition:
    """The class of each vertex as a read-only intp array, which must number
    the classes 0, 1, ... in order of their smallest members, and one
    claimed kind per class.  Partitions are equal when all three fields are."""

    relation: str  # 'associate' | 'neighborhood' | 'annihilator'
    cell_of: np.ndarray
    kinds: list[str | None]  # 'complete' | 'null' | None (annihilator partition)

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


def partitions_equal(p: ClassPartition, q: ClassPartition) -> bool:
    return np.array_equal(p.cell_of, q.cell_of)


def _refines(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether y is constant on each class of the ids x: the pairs (x, y)
    have as many classes as x alone."""
    return np.array_equal(first_seen_ids(np.stack([x, y], axis=1)), first_seen_ids(x))


def classes_associate(ring: Ring, element_cap: int | None = None) -> ClassPartition:
    """Associate classes by direct unit orbiting.

    The class of a is {ua : u a unit} meet {av : v a unit}; for a
    commutative ring the two orbits coincide and one suffices.
    """
    zd = ring.zero_divisors(element_cap)
    units = ring.units(element_cap)
    mul = ring.mul
    owner = {}  # element -> the first vertex of its orbit
    for i, a in enumerate(zd):
        if a in owner:
            continue
        orbit = {mul(u, a) for u in units}
        if not ring.commutative:
            orbit &= {mul(a, u) for u in units}
        owner.update(dict.fromkeys(orbit, i))
    keys = [owner[a] for a in zd]
    return _partition("associate", keys, lambda i: "complete" if mul(zd[i], zd[i]) == ring.zero else "null")


def classes_neighborhood(graph: ZeroDivisorGraph) -> ClassPartition:
    """Partition by equal open neighborhoods.

    With a zero diagonal, N(a) = N(b) is exactly row equality: equality off
    positions {a, b} plus the forced non-adjacency of a and b (a in N(b)
    would put b's row apart from a's at position b).  Grouping by row ids
    therefore implements the masked comparison; the pairwise masked
    comparator in _neighborhood_classes_masked exists as a cross-check.
    """
    return _partition("neighborhood", graph.adjacency, lambda i: "null")


def _neighborhood_classes_masked(graph: ZeroDivisorGraph) -> ClassPartition:
    """Quadratic comparator: rows equal off {a, b} and a, b non-adjacent."""
    m = graph.order
    adj = graph.adjacency
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if adj[i, j]:
                continue
            mask = np.ones(m, dtype=bool)
            mask[i] = mask[j] = False
            if np.array_equal(adj[i][mask], adj[j][mask]):
                parent[find(j)] = find(i)
    return _partition("neighborhood", [find(i) for i in range(m)], lambda i: "null")


def classes_annihilator(graph: ZeroDivisorGraph) -> ClassPartition:
    """Partition by equal annihilators: ann(a) as a row of bits is the
    adjacency row of a with its diagonal position set when a^2 = 0."""
    ann = graph.adjacency.copy()
    np.fill_diagonal(ann, graph.loops)
    return _partition("annihilator", ann, lambda i: None)


def classes_for(graph: ZeroDivisorGraph, relation: str = "associate") -> ClassPartition:
    """The partition of the vertices of `graph` under the named relation,
    grouped by one key per vertex (see the module docstring);
    `classes_associate` is the definition the associate classes must equal."""
    if relation == "associate":
        keys = graph.ring.associate_keys(graph.element_index)
        return _partition("associate", keys, lambda i: "complete" if graph.loops[i] else "null")
    if relation == "neighborhood":
        return classes_neighborhood(graph)
    if relation == "annihilator":
        return classes_annihilator(graph)
    raise RingError(f"unknown relation '{relation}'")


# ---------------------------------------------------------------------------
# structural agreements between the three relations


def _commutative_hypothesis(ring):
    """A unit u with (1-u)^2 != 0.  On a product it holds exactly when it
    holds in some factor: the other components of u can be 1."""
    if isinstance(ring, ProductRing):
        return any(_commutative_hypothesis(f) for f in ring.factors)
    return _scan_commutative_hypothesis(ring)


def _noncommutative_hypothesis(ring):
    """Units u, v with u + v = 1.  On a product it holds exactly when it
    holds in every factor, as units and sums are componentwise."""
    if isinstance(ring, ProductRing):
        return all(_noncommutative_hypothesis(f) for f in ring.factors)
    return _scan_noncommutative_hypothesis(ring)


def _scan_commutative_hypothesis(ring):
    """The commutative hypothesis by a scan over every unit of the ring."""
    one, zero = ring.one, ring.zero
    for u in ring.units(ring.cardinality):
        d = ring.sub(one, u)
        if ring.mul(d, d) != zero:
            return True
    return False


def _scan_noncommutative_hypothesis(ring):
    """The noncommutative hypothesis by a scan over every unit of the ring."""
    one = ring.one
    unit_set = set(ring.units(ring.cardinality))
    return any(ring.sub(one, u) in unit_set for u in unit_set)


def check_relation_agreements(graph: ZeroDivisorGraph) -> dict:
    """Verify the proven relationships between ~, == and ~m on the ring of
    `graph`, which passed the caller's caps: the unit scans read the whole ring.

    Raises RelationAgreementError on any applicable failure (that means an
    implementation bug, not bad input); returns a per-check report.
    """
    ring = graph.ring
    assoc = classes_for(graph, "associate")
    neigh = classes_neighborhood(graph)
    annih = classes_annihilator(graph)
    reduced = not graph.loops.any()  # a nonzero a with a^2 = 0 is a vertex with a loop
    checks = []
    failures = []

    def record(name, applicable, holds, detail=""):
        checks.append({"name": name, "applicable": applicable, "holds": holds, "detail": detail})
        if applicable and not holds:
            failures.append(name)

    holds = not reduced or partitions_equal(neigh, annih)
    record("reduced-ring neighborhood equals annihilator", reduced, holds)

    if ring.commutative:
        hyp = _commutative_hypothesis(ring)
        hyp_name = "unit u with (1-u)^2 != 0"
    else:
        hyp = _noncommutative_hypothesis(ring)
        hyp_name = "units u, v with u + v = 1"
    split_ok = True
    if hyp:
        # vertices that square to 0 stand alone, the rest keep their annihilator classes (free of such)
        expected = np.where(graph.loops, graph.order + np.arange(graph.order), annih.cell_of)
        pure = _refines(annih.cell_of, graph.loops)
        split_ok = pure and _refines(neigh.cell_of, expected) and _refines(expected, neigh.cell_of)
    record(f"neighborhood classes split by squares ({hyp_name})", hyp, split_ok)

    if isinstance(ring, Zn):
        gcd_classes = classes_associate(ring, ring.cardinality)
        record("Z_n associate classes are gcd classes", True, partitions_equal(gcd_classes, assoc))

    semisimple_like = isinstance(ring, MatRing) or (
        isinstance(ring, ProductRing)
        and all(isinstance(f, (GF, MatRing)) or (isinstance(f, Zn) and numth.is_prime(f.n)) for f in ring.factors)
    )
    holds = not semisimple_like or partitions_equal(assoc, annih)
    record("semisimple associate equals annihilator", semisimple_like, holds)

    record("associate refines annihilator", True, _refines(assoc.cell_of, annih.cell_of))

    if failures:
        raise RelationAgreementError(
            f"relation agreement failed on {ring.spec_string()}: {', '.join(failures)}"
        )
    return {"ring": ring.spec_string(), "reduced": reduced, "checks": checks}
