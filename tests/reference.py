"""The definitions the tests check the package against.

Each reference states its definition directly: the lexicographic element
order that element indices count, associate classes as unit orbits, equal
neighborhoods by pairwise row comparison, equal annihilators vertex by
vertex, units, annihilators and reducedness element by element, the
index sets of a semisimple rank profile, the class skeleton of a product of fields, kernels and span containment by elimination over GF(q), the
divisors and Euler phi of n and the divisor classes of Z_n one divisor
at a time, and the proven agreements between the associate, neighborhood
and annihilator relations.  The package's pipeline calls none of them.

A partition built here numbers its classes with its own dict, by first
appearance in vertex order, and never through `rings.first_seen_ids` or
`classes._partition`: a fault in the package's numbering then breaks the
code under test and not its reference, and the comparison fails.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from zdgspectra import numth
from zdgspectra.classes import ClassPartition, classes_for, classes_neighborhood
from zdgspectra.counts import (
    SemisimpleProfile,
    semisimple_class_degree,
    semisimple_class_size,
    semisimple_vertex_degree,
)
from zdgspectra.graph import ZeroDivisorGraph
from zdgspectra.rings import GF, MatRing, ProductRing, Ring, RingError, Zn, gf_rref
from zdgspectra.spectra import SpectrumMultiset


class RelationAgreementError(RingError):
    """A proven relation between the partitions failed on an actual ring."""


# ---------------------------------------------------------------------------
# element order by definition


def enumerate_elements(ring: Ring) -> list:
    """Every element, lexicographic on the payload, so that element i is
    the one of index i: the residues or field codes in order, a matrix's
    rows in itertools.product order over the row tuples (lexicographic on
    the rows, so on the flat row-major entries too), and a product's
    factor lists in itertools.product order."""
    if isinstance(ring, (Zn, GF)):
        return list(range(ring.cardinality))
    if isinstance(ring, MatRing):
        rows = list(itertools.product(range(ring.field.q), repeat=ring.n))
        return list(itertools.product(rows, repeat=ring.n))
    if isinstance(ring, ProductRing):
        return list(itertools.product(*(enumerate_elements(f) for f in ring.factors)))
    raise TypeError(f"no enumeration for {type(ring).__name__}")


# ---------------------------------------------------------------------------
# vertex partitions by definition


def _first_appearance(keys, kind) -> tuple[list[int], list]:
    """Class ids for the keys, equal exactly where the keys are, numbered
    0, 1, ... in order of first appearance, and kind(i) for each class,
    with i the vertex where the class first appears."""
    ids: dict = {}
    kinds = []
    cell_of = []
    for i, key in enumerate(keys):
        if key not in ids:
            ids[key] = len(ids)
            kinds.append(kind(i))
        cell_of.append(ids[key])
    return cell_of, kinds


def classes_associate(ring: Ring) -> ClassPartition:
    """Associate classes by direct unit orbiting.

    The class of a is {ua : u a unit} meet {av : v a unit}; for a
    commutative ring the two orbits coincide and one suffices.
    """
    zd = ring.zero_divisors()
    units = ring.units()
    mul = ring.mul
    owner = {}  # element -> the first vertex of its orbit
    for i, a in enumerate(zd):
        if a in owner:
            continue
        orbit = {mul(u, a) for u in units}
        if not ring.commutative:
            orbit &= {mul(a, u) for u in units}
        owner.update(dict.fromkeys(orbit, i))
    cell_of, kinds = _first_appearance(
        [owner[a] for a in zd], lambda i: "complete" if mul(zd[i], zd[i]) == ring.zero else "null"
    )
    return ClassPartition("associate", cell_of, kinds)


def partitions_equal(p: ClassPartition, q: ClassPartition) -> bool:
    return np.array_equal(p.cell_of, q.cell_of)


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
    cell_of, kinds = _first_appearance([find(i) for i in range(m)], lambda i: "null")
    return ClassPartition("neighborhood", cell_of, kinds)


def classes_annihilator(graph: ZeroDivisorGraph) -> ClassPartition:
    """Equal annihilators, one vertex at a time: ann(a) on the vertices is
    N(a), the adjacency row of a, plus a itself when a^2 = 0 (its loop).
    Each class claims the kind of an associate class: complete when its
    smallest member squares to zero."""
    keys = []
    for i, row in enumerate(graph.adjacency):
        ann = row.copy()
        ann[i] = graph.loops[i]
        keys.append(ann.tobytes())
    cell_of, kinds = _first_appearance(keys, lambda i: "complete" if graph.loops[i] else "null")
    return ClassPartition("annihilator", cell_of, kinds)


# ---------------------------------------------------------------------------
# units, annihilators, neighborhoods and reducedness, element by element


def is_unit(ring: Ring, a) -> bool:
    """Whether the payload a is a unit: gcd 1 with n in Z_n, nonzero in a
    field, full rank by elimination for a matrix, componentwise in a product."""
    if isinstance(ring, Zn):
        return gcd(a, ring.n) == 1
    if isinstance(ring, GF):
        return a != 0
    if isinstance(ring, MatRing):
        return ring.rank(a) == ring.n
    if isinstance(ring, ProductRing):
        return all(is_unit(f, x) for f, x in zip(ring.factors, a))
    raise TypeError(f"no unit test for {type(ring).__name__}")


def annihilator_set(ring: Ring, a) -> set:
    """{x in Z(R) : ax = 0 or xa = 0}; contains a itself exactly when a^2 = 0.

    Computed straight from the definition (one pass of multiplications), so
    it doubles as an independent check on the adjacency matrix.
    """
    zero = ring.zero
    if a == zero:
        raise RingError("annihilator sets are defined for zero-divisors, not 0")
    if is_unit(ring, a):
        raise RingError(f"{ring.label(a)} is a unit, not a zero-divisor")
    mul = ring.mul
    comm = ring.commutative
    out = set()
    for x in ring.zero_divisors():
        if mul(a, x) == zero or (not comm and mul(x, a) == zero):
            out.add(x)
    return out


def neighborhood(graph: ZeroDivisorGraph, a) -> set:
    """Open neighborhood N(a) as a set of ring elements."""
    i = graph.index_of(a)
    row = graph.adjacency[i]
    return {graph.vertices[j] for j in np.nonzero(row)[0]}


def is_reduced(ring: Ring) -> bool:
    """True when the ring has no nonzero element squaring to zero."""
    zero = ring.zero
    return not any(a != zero and ring.mul(a, a) == zero for a in ring.elements())


def profile_index_sets(profile: SemisimpleProfile) -> tuple[tuple[int, ...], ...]:
    """(I1, I2, I3, I4), index sets over the factor positions of a class of
    zero-divisors in prod_k M_{n_k}(F_{q_k}):
      I1 = invertible components (r_k = n_k),
      I2 = zero components (r_k = 0),
      I3 = proper components (everything else),
      I4 = nonzero components (I1 union I3)."""
    pairs = [(n, r) for (n, _), r in zip(profile.factors, profile.ranks)]
    return (
        tuple(k for k, (n, r) in enumerate(pairs) if r == n),
        tuple(k for k, (_, r) in enumerate(pairs) if r == 0),
        tuple(k for k, (n, r) in enumerate(pairs) if 0 < r < n),
        tuple(k for k, (_, r) in enumerate(pairs) if r != 0),
    )


@dataclass
class BooleanSkeleton:
    """Class structure of Gamma(F_{q_1} x ... x F_{q_t}): one class per
    nonempty proper subset S of positions (the support of the element),
    classes S, T adjacent iff the supports are disjoint."""

    qs: tuple[int, ...]
    subsets: list[tuple[int, ...]]  # support tuples, sorted
    sizes: list[int]  # prod_{i in S} (q_i - 1)
    class_degrees: list[int]  # 2^{t - |S|} - 1
    vertex_degrees: list[int]  # prod_{i not in S} q_i - 1

    @property
    def class_count(self) -> int:
        return len(self.subsets)


def boolean_skeleton(qs) -> BooleanSkeleton:
    """The skeleton of prod_i F_{q_i}, read off the semisimple formulas: the
    class of support S is the rank profile with rank 1 on S and 0 off it,
    each field a factor (1, q_i)."""
    qs = tuple(qs)
    t = len(qs)
    if t < 2:
        raise ValueError("need at least two field factors")
    for q in qs:
        if numth.prime_power(q) is None:
            raise ValueError(f"{q} is not a prime power")
    subsets = sorted(s for size in range(1, t) for s in itertools.combinations(range(t), size))
    factors = tuple((1, q) for q in qs)
    profiles = [SemisimpleProfile(factors, tuple(int(i in s) for i in range(t))) for s in subsets]
    sizes = [semisimple_class_size(p) for p in profiles]
    class_degrees = [semisimple_class_degree(p) for p in profiles]
    vertex_degrees = [semisimple_vertex_degree(p) for p in profiles]
    return BooleanSkeleton(qs, subsets, sizes, class_degrees, vertex_degrees)


# ---------------------------------------------------------------------------
# kernels and span containment over GF, for the matrix class tables


def gf_nullspace(field, rows, width):
    """Canonical basis (RREF rows) of {v : M v^T = 0} for the row list M;
    the reference for `MatRing._class_table`."""
    rr = gf_rref(field, rows, width)
    pivots = []
    for row in rr:
        for j in range(width):
            if row[j] != 0:
                pivots.append(j)
                break
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(rr[i][f])
        basis.append(tuple(v))
    return gf_rref(field, basis, width)


def gf_span_contains(field, basis_rref, other_rows, width):
    """True if span(other_rows) is inside the space with the given RREF
    basis; the reference for `MatRing._class_table`."""
    stacked = gf_rref(field, tuple(basis_rref) + tuple(other_rows), width)
    return stacked == tuple(basis_rref)


# ---------------------------------------------------------------------------
# Z_n divisor arithmetic, one divisor at a time


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, a in numth.factorize(n) if n > 1 else []:
        out = [d * p**e for d in out for e in range(a + 1)]
    return sorted(out)


def nontrivial_divisors(n: int) -> list[int]:
    """Divisors d of n with 1 < d < n, ascending."""
    return [d for d in divisors(n) if 1 < d < n]


def euler_phi(n: int) -> int:
    if n == 1:
        return 1
    out = n
    for p, _ in numth.factorize(n):
        out = out // p * (p - 1)
    return out


def zn_profile_by_divisor_scan(n: int) -> dict:
    """The divisor classes of Gamma(Z_n) in the form of `spectra.zn_profile`,
    scanned divisor by divisor: one entry per nontrivial divisor d, of
    size phi(n/d), complete iff n | d^2, adjacent to d' iff n | d d', and
    N the total size of its neighbours.  The class count must come out as
    prod(k_i + 1) - 2 over the factorization n = prod p_i^{k_i}."""
    if n < 2:
        raise ValueError("n must be at least 2")
    sizes = {d: euler_phi(n // d) for d in nontrivial_divisors(n)}
    entries = []
    for d, size in sizes.items():
        neighbors = [e for e in sizes if e != d and (d * e) % n == 0]
        kind = "complete" if (d * d) % n == 0 else "null"
        big_n = sum(sizes[e] for e in neighbors)
        entries.append({"d": d, "size": size, "kind": kind, "neighbors": neighbors, "N": big_n})
    assert len(entries) == prod(a + 1 for _, a in numth.factorize(n)) - 2
    complete = sum(1 for e in entries if e["kind"] == "complete")
    return {"class_count": len(entries), "complete_count": complete, "entries": entries}


# ---------------------------------------------------------------------------
# spectra one eigenvalue at a time


def spectrum_from_pairs(pairs) -> SpectrumMultiset:
    """The spectrum of (value, provenance) pairs, one run per pair."""
    return SpectrumMultiset([(v, 1, tag) for v, tag in sorted(pairs, key=lambda t: t[0])])


# ---------------------------------------------------------------------------
# structural agreements between the relations


def _refines(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether y is constant on each class of the ids x: there are as many
    distinct (x, y) pairs as distinct x."""
    x, y = x.tolist(), y.tolist()
    return len(set(zip(x, y))) == len(set(x))


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
    for u in ring.units():
        d = ring.sub(one, u)
        if ring.mul(d, d) != zero:
            return True
    return False


def _scan_noncommutative_hypothesis(ring):
    """The noncommutative hypothesis by a scan over every unit of the ring."""
    one = ring.one
    unit_set = set(ring.units())
    return any(ring.sub(one, u) in unit_set for u in unit_set)


def check_relation_agreements(graph: ZeroDivisorGraph) -> dict:
    """Verify the proven relationships between ~, == and ~m on the ring of
    `graph`, which passed the caller's vertex cap: the unit scans read the
    whole ring, at most (cap + 1)^2 elements.

    Associate equals annihilator on every ring the parser builds.  Z_n,
    GF(q), M_n(F_q) and their products are finite quasi-Frobenius rings,
    where l(r(L)) = L for each left ideal L and r(l(K)) = K for each right
    ideal K (Lam, Lectures on Modules and Rings, GTM 189, section 15).  So
    r(a) = r(b) gives Ra = l(r(a)) = Rb, and l(a) = l(b) gives aR = bR;
    here Ra = Rb means b = ua for a unit u (equal gcd with n, equal row
    spaces, componentwise in a product), and aR = bR means b = av.  The
    key of ~m is the union l(a) | r(a), and equal unions give equal sides:
    |l(a)| = |r(a)| in these rings (q^(n(n-r)) for a matrix of rank r),
    and an additive subgroup inside the union of two lies in one of them,
    so l(b) and r(b) are each l(a) or r(a).  The crossed case l(b) = r(a),
    r(b) = l(a) makes r(a) a two-sided ideal, which is 0 or everything in
    each matrix factor, so there too l(a) = r(a).

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
        gcd_classes = classes_associate(ring)
        record("Z_n associate classes are gcd classes", True, partitions_equal(gcd_classes, assoc))

    record("associate equals annihilator", True, partitions_equal(assoc, annih))

    if failures:
        raise RelationAgreementError(
            f"relation agreement failed on {ring.spec_string()}: {', '.join(failures)}"
        )
    return {"ring": ring.spec_string(), "reduced": reduced, "checks": checks}
