"""Equivalence relations on zero-divisors and the induced vertex partitions.

Three relations matter here, always on the vertex set Z(R)*:

  associate     a ~ b  iff a = ub and b = av for units u, v
  neighborhood  a == b iff N(a) = N(b) in Gamma(R)
  annihilator   a ~m b iff ann(a) = ann(b), ann(x) = {y : xy = 0 or yx = 0}

Every partition stores classes as sorted vertex-index lists, ordered by
representative (the smallest member), with the cell kind needed by the
join machinery: an associate class induces a complete subgraph exactly
when its representative squares to zero, and is edgeless otherwise;
neighborhood classes are always edgeless.

Every relation takes one path: `classes_for` groups the vertices of the
caller's graph by a key array.  Associates are keyed by `associate_keys`
on the graph's `element_index` (gcd with n for Z_n, the pair of kernels
for a matrix, componentwise for a product), with the cell kind read off
the graph's `loops`; equal
neighborhoods by the id of each adjacency row (`rings.row_keys`); equal
annihilators by the id of each adjacency row with the graph's `loops` on
the diagonal (a in ann(a) iff a^2 = 0).
`classes_associate` (unit orbits) and `_neighborhood_classes_masked`
(pairwise row comparison) keep the definitions as the tests' references.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numth
from .graph import ZeroDivisorGraph, build_zdg  # unused: perfbench's tracer wraps this name for its graph.build span
from .rings import GF, MatRing, ProductRing, Ring, RingError, Zn, row_keys


class RelationAgreementError(RingError):
    """A proven relation between the partitions failed on an actual ring."""


@dataclass
class VertexClass:
    representative: int  # vertex index of the smallest member
    members: list[int]  # sorted vertex indices
    size: int
    kind: str | None  # 'complete' | 'null' | None (annihilator partition)

    @staticmethod
    def make(members, kind):
        members = sorted(members)
        return VertexClass(members[0], members, len(members), kind)


@dataclass
class ClassPartition:
    relation: str  # 'associate' | 'neighborhood' | 'annihilator'
    classes: list[VertexClass]

    def index_sets(self) -> set[frozenset]:
        return {frozenset(c.members) for c in self.classes}

    def member_sets(self, vertices) -> set[frozenset]:
        return {frozenset(vertices[i] for i in c.members) for c in self.classes}

    def to_json(self, graph: ZeroDivisorGraph) -> dict:
        ring = graph.ring
        return {
            "relation": self.relation,
            "classes": [
                {
                    "rep": ring.label(graph.vertices[c.representative]),
                    "size": c.size,
                    "kind": c.kind,
                    "members": [ring.label(graph.vertices[i]) for i in c.members],
                }
                for c in self.classes
            ],
        }


def _finish(relation, blocks_with_kind) -> ClassPartition:
    classes = [VertexClass.make(members, kind) for members, kind in blocks_with_kind]
    classes.sort(key=lambda c: c.representative)
    return ClassPartition(relation, classes)


def _group(relation, keys: np.ndarray, kind) -> ClassPartition:
    """The classes of the vertices with equal keys[i]; kind(i) is the cell
    kind of the class whose smallest member is vertex i."""
    groups: dict[int, list[int]] = {}
    for i, key in enumerate(keys.tolist()):
        groups.setdefault(key, []).append(i)
    return _finish(relation, [(members, kind(members[0])) for members in groups.values()])


def partitions_equal(p: ClassPartition, q: ClassPartition) -> bool:
    return p.index_sets() == q.index_sets()


def _associate_kind(ring, rep) -> str:
    return "complete" if ring.mul(rep, rep) == ring.zero else "null"


def classes_associate(ring: Ring, element_cap: int | None = None) -> ClassPartition:
    """Associate classes by direct unit orbiting.

    The class of a is {ua : u a unit} meet {av : v a unit}; for a
    commutative ring the two orbits coincide and one suffices.
    """
    zd = ring.zero_divisors(element_cap)
    units = ring.units(element_cap)
    index = {a: i for i, a in enumerate(zd)}
    mul = ring.mul
    seen = set()
    blocks = []
    for i, a in enumerate(zd):
        if i in seen:
            continue
        left = {mul(u, a) for u in units}
        if ring.commutative:
            orbit = left
        else:
            orbit = left & {mul(a, u) for u in units}
        members = sorted(index[b] for b in orbit)
        seen.update(members)
        blocks.append((members, _associate_kind(ring, a)))
    return _finish("associate", blocks)


def classes_neighborhood(graph: ZeroDivisorGraph) -> ClassPartition:
    """Partition by equal open neighborhoods.

    With a zero diagonal, N(a) = N(b) is exactly row equality: equality off
    positions {a, b} plus the forced non-adjacency of a and b (a in N(b)
    would put b's row apart from a's at position b).  Grouping by row ids
    therefore implements the masked comparison; the pairwise masked
    comparator in _neighborhood_classes_masked exists as a cross-check.
    """
    return _group("neighborhood", row_keys(graph.adjacency), lambda i: "null")


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
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    blocks = [(members, "null") for members in groups.values()]
    return _finish("neighborhood", blocks)


def classes_annihilator(graph: ZeroDivisorGraph) -> ClassPartition:
    """Partition by equal annihilators: ann(a) as a row of bits is the
    adjacency row of a with its diagonal position set when a^2 = 0."""
    ann = graph.adjacency.copy()
    np.fill_diagonal(ann, graph.loops)
    return _group("annihilator", row_keys(ann), lambda i: None)


def classes_for(graph: ZeroDivisorGraph, relation: str = "associate") -> ClassPartition:
    """The partition of the vertices of `graph` under the named relation,
    grouped by one key per vertex (see the module docstring);
    `classes_associate` is the definition the associate classes must equal."""
    if relation == "associate":
        keys = graph.ring.associate_keys(graph.element_index)
        return _group("associate", keys, lambda i: "complete" if graph.loops[i] else "null")
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

    record(
        "reduced-ring neighborhood equals annihilator",
        reduced,
        partitions_equal(neigh, annih) if reduced else True,
    )

    if ring.commutative:
        hyp = _commutative_hypothesis(ring)
        hyp_name = "unit u with (1-u)^2 != 0"
    else:
        hyp = _noncommutative_hypothesis(ring)
        hyp_name = "units u, v with u + v = 1"
    split_ok = True
    if hyp:
        # each vertex that squares to 0 is alone in its class, the rest keep their annihilator classes
        expected = {frozenset([i]) for i in np.flatnonzero(graph.loops).tolist()}
        expected |= {frozenset(c.members) for c in annih.classes if not graph.loops[c.members].any()}
        split_ok = neigh.index_sets() == expected
    record(f"neighborhood classes split by squares ({hyp_name})", hyp, split_ok)

    if isinstance(ring, Zn):
        record(
            "Z_n associate classes are gcd classes",
            True,
            partitions_equal(classes_associate(ring, ring.cardinality), assoc),
        )

    semisimple_like = isinstance(ring, MatRing) or (
        isinstance(ring, ProductRing)
        and all(isinstance(f, (GF, MatRing)) or (isinstance(f, Zn) and numth.is_prime(f.n)) for f in ring.factors)
    )
    record(
        "semisimple associate equals annihilator",
        semisimple_like,
        partitions_equal(assoc, annih) if semisimple_like else True,
    )

    annih_of = np.empty(graph.order, dtype=np.intp)  # vertex -> annihilator class
    for n, c in enumerate(annih.classes):
        annih_of[c.members] = n
    refinement = all(len(set(annih_of[a.members].tolist())) == 1 for a in assoc.classes)
    record("associate refines annihilator", True, refinement)

    if failures:
        raise RelationAgreementError(
            f"relation agreement failed on {ring.spec_string()}: {', '.join(failures)}"
        )
    return {"ring": ring.spec_string(), "reduced": reduced, "checks": checks}
