"""The definitions the tests check the package against.

Each reference states its definition directly: payload arithmetic (the
rings supply none), the lexicographic element order that element indices
count, associate classes as unit orbits, equal neighborhoods by pairwise
row comparison, equal annihilators vertex by vertex, units,
annihilators, neighborhoods, connected components and reducedness
element by element, the index sets and class sizes of a semisimple rank
profile, the class skeleton of a product of fields, ranks, row and
column spaces, kernels and span containment by elimination over GF(q),
the divisors and Euler phi of n and the divisor classes of Z_n one
divisor at a time, a spectrum's provenance one eigenvalue at a time, the
blow-up of a decomposition to the whole adjacency, the exact spectra of
Gamma(F x F') and of Gamma(M_2(F_q)) at any q, the adjacency spectrum of
a product of fields from its factors' 2 x 2 eigenpairs, and the proven
agreements between the associate, neighborhood and annihilator
relations.  The paper's matrix lemmas are checked here too, each on its
explicitly built matrix at LEMMA_TOL relative to that matrix's scale:
Fiedler's two-graph combination, the shift identity for commuting B and
DAD, and the reciprocal pairing of Boolean spectra.  The package runs
none of them; `zdg lift` runs the one lemma it needs, vertex duplication
(`spectra.duplicate_lift`).

A partition built here numbers its classes with its own dict, by first
appearance in vertex order, and never through `classes.classes_for`: a
fault in the package's numbering then breaks the code under test and not
its reference, and the comparison fails.  A lemma check with a gate of
its own compares `multiset_equal`'s `max_deviation` with that gate.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache
from math import gcd, inf, prod, sqrt

import numpy as np

from zdgspectra import numth
from zdgspectra.classes import ClassPartition, classes_for
from zdgspectra.counts import SemisimpleProfile, gl_order, semisimple_class_degree, semisimple_vertex_degree
from zdgspectra.eig import dense_eigenvalues
from zdgspectra.graph import ZeroDivisorGraph
from zdgspectra.rings import GF, MatRing, ProductRing, Ring, RingError, Zn
from zdgspectra.spectra import (
    CLUSTER_GAP,
    LEMMA_TOL,
    JoinDecomposition,
    MultisetMatch,
    SpectrumMultiset,
    _eigen_residual_ok,
    multiset_equal,
)


class RelationAgreementError(RingError):
    """A proven relation between the partitions failed on an actual ring."""


# ---------------------------------------------------------------------------
# payload arithmetic by definition

Arithmetic = namedtuple("Arithmetic", "zero one add neg sub mul inv")


def schoolbook(field: GF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field's q x q add and mul tables and its neg list on codes, by
    schoolbook polynomial arithmetic modulo field.modulus over every pair
    at once: digits added mod p, and the digit convolution reduced from
    its top degree down.  The reference `MatRing._field_tables` must match."""
    p, k, q, m = field.p, field.k, field.q, field.modulus
    weights = p ** np.arange(k, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // weights % p  # [code, i]: coefficient of x^i
    product = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            product[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
    for d in range(2 * k - 2, k - 1, -1):  # x^d = x^(d-k) x^k, and m is monic of degree k
        top = product[:, :, d] % p
        for i in range(k + 1):
            product[:, :, d - k + i] -= top * m[i]
    return (digits[:, None] + digits) % p @ weights, product[:, :, :k] % p @ weights, -digits % p @ weights


@cache
def _field_lists(field: GF) -> tuple[list, list, list]:
    """`schoolbook`'s add and mul tables and neg list as lists, built once per field."""
    return tuple(table.tolist() for table in schoolbook(field))


def _arithmetic(zero, one, add, neg, mul, inv) -> Arithmetic:
    return Arithmetic(zero, one, add, neg, lambda a, b: add(a, neg(b)), mul, inv)


def arithmetic(ring: Ring) -> Arithmetic:
    """Zero, one, add, neg, sub, mul and inv on the ring's payloads: residues
    mod n, the field's `schoolbook` tables, tabulated once per field, rows
    times columns over the field, and componentwise on a product.  inv
    raises ValueError on a non-unit; a matrix's comes from eliminating
    [a | 1].  Only the field tables are cached: a cache of the rings would
    keep each ring's own tables alive for the whole test run."""
    if isinstance(ring, Zn):
        n = ring.n
        return _arithmetic(0, 1 % n, lambda a, b: (a + b) % n, lambda a: -a % n, lambda a, b: a * b % n, lambda a: pow(a, -1, n))
    if isinstance(ring, GF):
        add, mul, neg = _field_lists(ring)
        return _arithmetic(0, 1, lambda a, b: add[a][b], neg.__getitem__, lambda a, b: mul[a][b], lambda a: mul[a].index(1))
    if isinstance(ring, MatRing):
        F, n = arithmetic(ring.field), ring.n
        add, times, _ = _field_lists(ring.field)
        one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

        def mul(a, b):
            cols = list(zip(*b))
            out = []
            for row in a:
                entries = []
                for col in cols:
                    acc = 0
                    for x, y in zip(row, col):
                        acc = add[acc][times[x][y]]
                    entries.append(acc)
                out.append(tuple(entries))
            return tuple(out)

        def inv(a):
            rows = gf_rref(ring.field, [row + e for row, e in zip(a, one)], 2 * n)
            if tuple(row[:n] for row in rows) != one:
                raise ValueError(f"{ring.label(a)} is not a unit of {ring.spec_string()}")
            return tuple(row[n:] for row in rows)

        return _arithmetic(
            ((0,) * n,) * n,
            one,
            lambda a, b: tuple(tuple(map(F.add, ra, rb)) for ra, rb in zip(a, b)),
            lambda a: tuple(tuple(map(F.neg, row)) for row in a),
            mul,
            inv,
        )
    if isinstance(ring, ProductRing):
        parts = [arithmetic(f) for f in ring.factors]
        adds, negs, muls, invs = ([getattr(part, name) for part in parts] for name in ("add", "neg", "mul", "inv"))
        return _arithmetic(
            tuple(part.zero for part in parts),
            tuple(part.one for part in parts),
            lambda a, b: tuple([add(x, y) for add, x, y in zip(adds, a, b)]),
            lambda a: tuple([neg(x) for neg, x in zip(negs, a)]),
            lambda a, b: tuple([mul(x, y) for mul, x, y in zip(muls, a, b)]),
            lambda a: tuple([inv(x) for inv, x in zip(invs, a)]),
        )
    raise TypeError(f"no arithmetic for {type(ring).__name__}")


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


def _unit_generators(ring: Ring) -> list:
    """Units that generate the unit group U: each unit, in element order,
    that the group generated so far misses, until that group is all of U.
    The group generated is the closure of {1} under right multiplication
    by the generators, which in a finite ring is a group."""
    unit_list = units(ring)
    mul = arithmetic(ring).mul
    group, gens = {arithmetic(ring).one}, []
    for u in unit_list:
        if len(group) == len(unit_list):
            break
        if u in group:
            continue
        gens.append(u)
        frontier = [mul(x, u) for x in group]
        while frontier:
            new = set(frontier) - group
            group |= new
            frontier = [mul(x, g) for x in new for g in gens]
    return gens


def _orbit_owners(vertices, step) -> list[int]:
    """For each vertex, the first vertex of its orbit, the orbits being
    the closures under `step`, which maps a vertex to its images under
    the generators."""
    owner: dict = {}
    for i, a in enumerate(vertices):
        if a in owner:
            continue
        owner[a] = i
        frontier = [a]
        for x in frontier:  # the list grows while it is read
            for y in step(x):
                if y not in owner:
                    owner[y] = i
                    frontier.append(y)
    return [owner[a] for a in vertices]


def classes_associate(ring: Ring) -> ClassPartition:
    """Associate classes by direct unit orbiting.

    The class of a is {ua : u a unit} meet {av : v a unit}: b is in it
    exactly when the left orbits Ua and Ub are one and the right orbits
    aU and bU are one.  Each orbit is the closure of a vertex under
    multiplication by `_unit_generators`, one side at a time; for a
    commutative ring the two orbits coincide and one suffices.
    """
    zd = ring.zero_divisors()
    gens = _unit_generators(ring)
    zero, mul = arithmetic(ring).zero, arithmetic(ring).mul
    keys = _orbit_owners(zd, lambda a: [mul(g, a) for g in gens])
    if not ring.commutative:
        keys = list(zip(keys, _orbit_owners(zd, lambda a: [mul(a, g) for g in gens])))
    cell_of, kinds = _first_appearance(keys, lambda i: "complete" if mul(zd[i], zd[i]) == zero else "null")
    return ClassPartition("associate", cell_of, kinds)


def partitions_equal(p: ClassPartition, q: ClassPartition) -> bool:
    return np.array_equal(p.cell_of, q.cell_of)


def member_sets(partition: ClassPartition, vertices) -> set[frozenset]:
    return {frozenset(vertices[i] for i in c.members) for c in partition.classes}


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


def units(ring: Ring) -> list:
    """The units in element order, decoded from the ring's unit mask."""
    return ring.decode(np.flatnonzero(ring._unit_mask()))


def is_unit(ring: Ring, a) -> bool:
    """Whether the payload a is a unit: gcd 1 with n in Z_n, nonzero in a
    field, full rank by elimination for a matrix, componentwise in a product."""
    if isinstance(ring, Zn):
        return gcd(a, ring.n) == 1
    if isinstance(ring, GF):
        return a != 0
    if isinstance(ring, MatRing):
        return rank(ring, a) == ring.n
    if isinstance(ring, ProductRing):
        return all(is_unit(f, x) for f, x in zip(ring.factors, a))
    raise TypeError(f"no unit test for {type(ring).__name__}")


def annihilator_set(ring: Ring, a) -> set:
    """{x in Z(R) : ax = 0 or xa = 0}; contains a itself exactly when a^2 = 0.

    Computed straight from the definition (one pass of multiplications), so
    it doubles as an independent check on the adjacency matrix.
    """
    zero, mul = arithmetic(ring).zero, arithmetic(ring).mul
    if a == zero:
        raise RingError("annihilator sets are defined for zero-divisors, not 0")
    if is_unit(ring, a):
        raise RingError(f"{ring.label(a)} is a unit, not a zero-divisor")
    comm = ring.commutative
    out = set()
    for x in ring.zero_divisors():
        if mul(a, x) == zero or (not comm and mul(x, a) == zero):
            out.add(x)
    return out


def neighborhood(graph: ZeroDivisorGraph, a) -> set:
    """Open neighborhood N(a) as a set of ring elements; its size is the
    degree of a."""
    row = graph.adjacency[graph.vertices.index(a)]
    return {graph.vertices[j] for j in np.nonzero(row)[0]}


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


def is_reduced(ring: Ring) -> bool:
    """True when the ring has no nonzero element squaring to zero."""
    zero, mul = arithmetic(ring).zero, arithmetic(ring).mul
    return not any(a != zero and mul(a, a) == zero for a in ring.elements())


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


def semisimple_class_size(profile: SemisimpleProfile) -> int:
    """Size of the associate class: invertible components contribute all of
    GL_{n_k}(F_{q_k}), proper-rank components contribute |GL_{r_k}(F_{q_k})|,
    zero components contribute one choice."""
    total = 1
    for (n, q), r in zip(profile.factors, profile.ranks):
        if r > 0:
            total *= gl_order(r if r < n else n, q)
    return total


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
# elimination over GF: ranks, row and column spaces, kernels and span
# containment, for the matrix class tables


def gf_rref(field, rows, width):
    """Reduced row echelon form; returns the tuple of nonzero rows.

    The result is the canonical basis of the row space: pivots are 1,
    pivot columns are cleared above and below, rows ordered by pivot.
    """
    F = arithmetic(field)
    work = [list(r) for r in rows]
    nrows = len(work)
    top = 0  # the rows above are done
    for col in range(width):
        piv = None
        for i in range(top, nrows):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        inv = F.inv(work[top][col])
        work[top] = [F.mul(inv, v) for v in work[top]]
        for i in range(nrows):
            if i != top and work[i][col] != 0:
                f = work[i][col]
                work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(work[i], work[top])]
        top += 1
        if top == nrows:
            break
    return tuple(tuple(r) for r in work[:top])


def row_space(ring: MatRing, a):
    return gf_rref(ring.field, a, ring.n)


def column_space(ring: MatRing, a):
    return gf_rref(ring.field, tuple(zip(*a)), ring.n)


def rank(ring: MatRing, a) -> int:
    return len(row_space(ring, a))


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
            v[pc] = arithmetic(field).neg(rr[i][f])
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


def provenance(spectrum: SpectrumMultiset) -> list[str]:
    """Each run's provenance, repeated its multiplicity: aligned with `values`."""
    return [tag for _, k, tag in spectrum.runs for _ in range(k)]


def blow_up(dec: JoinDecomposition, cell_of: np.ndarray | None = None) -> np.ndarray:
    """The full adjacency matrix of the decomposition, laid out on the
    graph's vertices through `cell_of`, the `cell_of` of the partition that
    `spectra.decompose` read, or in cell order without one (the closed
    route), with one gather of the class table per axis; the diagonal is
    False.  `spectra.decompose` compares the same entries with the
    adjacency a tile at a time."""
    if cell_of is None:
        cell_of = np.repeat(np.arange(dec.class_count), dec.sizes)
    out = dec.table.take(cell_of, axis=1).take(cell_of, axis=0)
    np.fill_diagonal(out, False)
    return out


# ---------------------------------------------------------------------------
# exact spectra of whole families, at any size


def _runs(pairs) -> list[tuple[float, int]]:
    """(value, multiplicity) pairs as ascending runs of floats, without the
    pairs of multiplicity 0."""
    return [(float(v), k) for v, k in sorted(pairs) if k]


def _quadratic_roots(b: int, c: int) -> tuple[float, float]:
    """The roots of x^2 - b x - c for integers b >= 0 and c > 0, ascending:
    the larger from the formula and the smaller as -c over it, so neither
    cancels."""
    larger = (b + sqrt(b * b + 4 * c)) / 2
    return -c / larger, larger


def complete_bipartite_spectra(q1: int, q2: int) -> dict[str, list[tuple[float, int]]]:
    """Both spectra of Gamma(F x F') for fields of q1 and q2 elements, as
    exact runs: the zero-divisors (a, 0) and (0, b) make K_{q1-1,q2-1}, whose
    adjacency is -+sqrt((q1-1)(q2-1)) once each and 0 the other q1+q2-4
    times, and whose Laplacian is 0 once, q1-1 (q2-2 times), q2-1 (q1-2
    times) and q1+q2-2 once."""
    a, b = q1 - 1, q2 - 1
    root = sqrt(a * b)
    return {
        "adjacency": _runs([(-root, 1), (0, a + b - 2), (root, 1)]),
        "laplacian": _runs([(0, 1), (a, b - 1), (b, a - 1), (a + b, 1)]),
    }


def m2_spectra(q: int) -> dict[str, list[tuple[float, int]]]:
    """Both spectra of Gamma(M_2(F_q)), |V| = (q+1)(q^2-1), as exact runs.
    These forms were fitted to the closed route's spectra for q <= 32, not
    derived: the tests pin them until a derivation from the class
    structure replaces them."""
    order = (q + 1) * (q * q - 1)
    laplacian = [
        (0, 1),
        (q * q - 1, q),
        (2 * q * (q - 1), q * (q - 1) // 2),
        ((2 * q + 1) * (q - 1), order - (q + 1) ** 2),
        (2 * (q * q - 1), q * (q + 1) // 2),
        ((3 * q + 1) * (q - 1), q),
    ]
    adjacency = [
        (-q * (q - 1), q),
        (-(q - 1), (q - 2) * (q + 1) // 2),
        (-1, (q - 2) * (q + 1)),
        (q - 1, q * (q - 1) // 2),
    ]
    adjacency += [(x, 1) for x in _quadratic_roots(2 * q * q - 2 * q - 1, (q - 1) * (2 * q * q + q - 2))]
    adjacency += [(x, q) for x in _quadratic_roots(q * q - 2 * q, (q - 1) * (q * q - 2))]
    adjacency.append((0, order - sum(k for _, k in adjacency)))
    return {"adjacency": _runs(adjacency), "laplacian": _runs(laplacian)}


def field_product_adjacency(qs) -> list[tuple[float, int]]:
    """The adjacency spectrum of Gamma(GF(q_1) x ... x GF(q_k)), k >= 2, as
    runs, from the factors' 2 x 2 eigenpairs alone.

    Over the supports, each factor in the order (absent, present), the
    class table is W, the Kronecker product of W_i = [[1, s_i], [s_i, 0]]
    with s_i = sqrt(q_i - 1).  The adjacency quotient is W less two
    classes, all absent (the zero) and all present (the units); every
    other cell is null, so the rest of the spectrum is 0.  W's eigenvalues
    mu_j are products of the factors' (1 -+ sqrt(4 q_i - 3)) / 2, and g_j
    holds eigenvector j's entries at the two deleted classes, each a
    product of the factors' entries.  M(sigma) = sum_j g_j g_j^T /
    (mu_j - sigma) is the deleted 2 x 2 block of (W - sigma)^-1, so by
    Haynsworth's inertia additivity the quotient has #{mu_j < sigma} less
    M's count of negative eigenvalues below sigma.  Bisecting that count
    to brackets of width 1e-12 * max(1, |sigma|) places every eigenvalue
    with its multiplicity.
    """
    mu, g = np.ones(1), np.ones((2, 1))
    for q in qs:
        s = sqrt(q - 1)
        lam = (1 + np.array([-1.0, 1.0]) * sqrt(4 * q - 3)) / 2
        v = np.array([lam, [s, s]]) / np.hypot(lam, s)  # column t is lam[t]'s unit eigenvector
        mu = np.outer(mu, lam).ravel()
        g = np.stack([np.outer(g[i], v[i]).ravel() for i in (0, 1)])

    def below(sigma: float) -> int:
        while (mu == sigma).any():  # off the poles
            sigma = np.nextafter(sigma, inf)
        (a, b), (_, c) = (g / (mu - sigma)) @ g.T
        det = a * c - b * b
        return int((mu < sigma).sum()) - (1 if det < 0 else 2 if a + c < 0 else 0)

    m = len(mu) - 2
    bound = 2 * float(np.abs(mu).max())  # past W's spectrum, which interlaces the quotient's
    runs, pending = [], [(-bound, 0, bound, m)]
    while pending:
        lo, n_lo, hi, n_hi = pending.pop()
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            runs.append(((lo + hi) / 2, n_hi - n_lo))
            continue
        mid = (lo + hi) / 2
        n_mid = below(mid)
        for part in ((lo, n_lo, mid, n_mid), (mid, n_mid, hi, n_hi)):
            if part[3] > part[1]:  # the part holds an eigenvalue
                pending.append(part)
    vertices = prod(qs) - prod(q - 1 for q in qs) - 1
    return _runs([*runs, (0, vertices - m)])


def rank_deviation(spectrum: SpectrumMultiset, exact) -> float:
    """max |x - e| / max(1, |e|) over the eigenvalues x of `spectrum` and e
    of the exact runs of equal rank.  Both lists are constant between the
    ranks where either changes run, so the values are read at those ranks
    alone, and no spectrum is expanded; unequal totals fail at inf."""
    if len(spectrum) != sum(k for _, k in exact):
        return inf
    ends = [np.cumsum([run[1] for run in runs]) for runs in (spectrum.runs, exact)]
    ranks = np.union1d(*ends) - 1
    x, e = (
        np.array([run[0] for run in runs])[np.searchsorted(end, ranks, side="right")]
        for runs, end in zip((spectrum.runs, exact), ends)
    )
    return float((np.abs(x - e) / np.maximum(1.0, np.abs(e))).max(initial=0.0))


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
    ops = arithmetic(ring)
    for u in units(ring):
        d = ops.sub(ops.one, u)
        if ops.mul(d, d) != ops.zero:
            return True
    return False


def _scan_noncommutative_hypothesis(ring):
    """The noncommutative hypothesis by a scan over every unit of the ring."""
    ops = arithmetic(ring)
    unit_set = set(units(ring))
    return any(ops.sub(ops.one, u) in unit_set for u in unit_set)


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
    neigh = classes_for(graph, "neighborhood")
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


# ---------------------------------------------------------------------------
# the paper's matrix lemmas, checked on explicitly built matrices


class ShiftLemmaError(Exception):
    pass


@dataclass
class ShiftReport:
    pairs: list[tuple[float, float]]  # (eigenvalue of DAD, matched diagonal of B)
    matched: bool
    max_deviation: float


def _lemma_gate(matrix) -> float:
    """LEMMA_TOL relative to the scale of the explicit matrix: times
    ||matrix||_inf, with no floor, as in `spectra._eigen_residual_ok`.  A
    floor would accept on a matrix of norm below 1 a relative error that
    the gate refuses at norm 1, so scaling an instance down would loosen
    its check."""
    return LEMMA_TOL * float(np.abs(matrix).sum(axis=1).max(initial=0.0))


def _gated(match: MultisetMatch, gate: float) -> MultisetMatch:
    """The match judged at `gate` instead of DEFAULT_TOL: a length mismatch
    or a non-finite value stays at an infinite deviation, past any gate."""
    return replace(match, matched=match.max_deviation <= gate)


def fiedler_combine(alpha, u, beta, v, rho: float) -> list[float]:
    """Spectrum of [[A, rho*u*v^T], [rho*v*u^T, B]] given the spectra of A
    and B: alpha[0] and beta[0] must be the eigenvalues belonging to the
    unit eigenvectors u of A and v of B.  The result keeps alpha[1:] and
    beta[1:] and replaces alpha[0], beta[0] by the eigenvalues of
    [[alpha[0], rho], [rho, beta[0]]]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    for name, w in (("u", u), ("v", v)):
        norm = float(np.linalg.norm(w))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"{name} is not unit-norm (|{name}| = {norm!r})")
    alpha = [float(x) for x in alpha]
    beta = [float(x) for x in beta]
    corner = np.array([[alpha[0], rho], [rho, beta[0]]])
    return sorted(alpha[1:] + beta[1:] + dense_eigenvalues(corner))


def fiedler_check(a, b, u, v, rho: float) -> MultisetMatch:
    """Build the combined matrix M explicitly and compare its spectrum with
    fiedler_combine within LEMMA_TOL * ||M||_inf.  u and v must be
    unit eigenvectors of a and b, each residual within the relative gate of
    `spectra._eigen_residual_ok`.  M is exactly symmetric when a and b are:
    the transpose of each outer product is the other, bit for bit."""
    a, b, u, v = (np.asarray(x, dtype=np.float64) for x in (a, b, u, v))
    alpha_1 = float(u @ a @ u)
    beta_1 = float(v @ b @ v)
    for name, (mat, vec, val) in {"u": (a, u, alpha_1), "v": (b, v, beta_1)}.items():
        if not _eigen_residual_ok(float(np.max(np.abs(mat @ vec - val * vec))), mat, vec):
            raise ValueError(f"{name} is not an eigenvector of its matrix")

    def spectrum_without(mat, val):
        values = dense_eigenvalues(mat)
        values.pop(min(range(len(values)), key=lambda i: abs(values[i] - val)))
        return values

    alpha = [alpha_1] + spectrum_without(a, alpha_1)
    beta = [beta_1] + spectrum_without(b, beta_1)
    predicted = fiedler_combine(alpha, u, beta, v, rho)
    combined = np.block([[a, rho * np.outer(u, v)], [rho * np.outer(v, u), b]])
    return _gated(multiset_equal(predicted, dense_eigenvalues(combined)), _lemma_gate(combined))


def check_shift_lemma(b_diag, a, d_diag) -> ShiftReport:
    """Verify sigma(B + DAD) = sigma(B) + sigma(DAD) for diagonal B, D and
    symmetric A with AB = BA.

    Commutation makes DAD vanish between coordinates where B differs, so
    DAD splits into one block per distinct diagonal value beta of B; on
    that block B is beta times the identity.  Each eigenvalue mu of the
    block picks up beta, and the spectrum of the sum is the multiset of
    mu + beta.  The split is checked exactly and each block solved on its
    own, so no eigenvector of DAD ever mixes two eigenspaces of B.  DAD is
    A times the outer product of D's diagonal with itself, so it is
    exactly symmetric.  The two spectra are compared within LEMMA_TOL *
    ||B + DAD||_inf."""
    b_diag = np.asarray(b_diag, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d_diag = np.asarray(d_diag, dtype=np.float64)
    commutator = a * b_diag[None, :] - b_diag[:, None] * a
    if np.any(commutator != 0.0):
        raise ShiftLemmaError("A and B do not commute")
    dad = a * np.multiply.outer(d_diag, d_diag)
    if np.any(dad[b_diag[:, None] != b_diag[None, :]] != 0.0):
        raise ShiftLemmaError("DAD couples coordinates where B differs")
    pairs = []
    for beta in np.unique(b_diag).tolist():
        block = np.flatnonzero(b_diag == beta)
        pairs += [(mu, beta) for mu in dense_eigenvalues(dad[np.ix_(block, block)])]
    pairs.sort()
    summed = [mu + beta for mu, beta in pairs]
    direct = np.diag(b_diag) + dad
    match = _gated(multiset_equal(summed, dense_eigenvalues(direct)), _lemma_gate(direct))
    return ShiftReport(pairs, match.matched, match.max_deviation)


def boolean_pairing_report(values) -> dict:
    """Try to match the nonzero values into {lambda, -1/lambda} pairs.

    Works greedily from the largest magnitude down, pairing lambda with a
    value within CLUSTER_GAP of -1/lambda; reports the pairs, any
    leftovers, and the count of values within CLUSTER_GAP of zero.  This
    is a reporting check only: callers warn on failure instead of asserting."""
    values = [float(v) for v in (values.values if isinstance(values, SpectrumMultiset) else values)]
    zeros = [v for v in values if abs(v) <= CLUSTER_GAP]
    remaining = sorted((v for v in values if abs(v) > CLUSTER_GAP), key=abs, reverse=True)
    paired = []
    unpaired = []
    while remaining:
        lam = remaining.pop(0)
        target = -1.0 / lam
        best = None
        for idx, candidate in enumerate(remaining):
            if abs(candidate - target) <= CLUSTER_GAP:
                best = idx
                break
        if best is None:
            unpaired.append(lam)
        else:
            paired.append((lam, remaining.pop(best)))
    return {
        "paired": paired,
        "unpaired": unpaired,
        "zero_count": len(zeros),
        "matched": not unpaired,
    }
