"""The definitions the tests check the package against.

Each reference states its definition directly: the lexicographic element
order that element indices count, associate classes as unit orbits, equal
neighborhoods by pairwise row comparison, equal annihilators vertex by
vertex, units, annihilators, neighborhoods, connected components and
reducedness element by element, the index sets and class sizes of a
semisimple rank profile, the class skeleton of a product of fields,
ranks, row and column spaces, kernels and span containment by
elimination over GF(q), the divisors and Euler phi of n and the divisor
classes of Z_n one divisor at a time, a spectrum's provenance one
eigenvalue at a time, the blow-up of a decomposition to the whole
adjacency, and the proven agreements between the associate,
neighborhood and annihilator relations.  The paper's matrix lemmas are
checked here too, each on its explicitly built matrix at LEMMA_TOL
relative to that matrix's scale: Fiedler's two-graph combination, the
shift identity for commuting B and DAD, and the reciprocal pairing of
Boolean spectra.  The package runs none of them; `zdg lift` runs the
one lemma it needs, vertex duplication (`spectra.duplicate_lift`).

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
    unit_list = units(ring)
    mul = ring.mul
    owner = {}  # element -> the first vertex of its orbit
    for i, a in enumerate(zd):
        if a in owner:
            continue
        orbit = {mul(u, a) for u in unit_list}
        if not ring.commutative:
            orbit &= {mul(a, u) for u in unit_list}
        owner.update(dict.fromkeys(orbit, i))
    cell_of, kinds = _first_appearance(
        [owner[a] for a in zd], lambda i: "complete" if mul(zd[i], zd[i]) == ring.zero else "null"
    )
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
        inv = field.inv(work[top][col])
        work[top] = [field.mul(inv, v) for v in work[top]]
        for i in range(nrows):
            if i != top and work[i][col] != 0:
                f = work[i][col]
                work[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[top])]
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


def provenance(spectrum: SpectrumMultiset) -> list[str]:
    """Each run's provenance, repeated its multiplicity: aligned with `values`."""
    return [tag for _, k, tag in spectrum.runs for _ in range(k)]


def blow_up(dec: JoinDecomposition) -> np.ndarray:
    """The full adjacency matrix of the decomposition, laid out on the
    graph's vertices through `cell_of`, or in cell order when that is None
    (the closed route), with one gather of the class table per axis; the
    diagonal is False.  `spectra.decompose` compares the same entries with
    the adjacency a tile at a time."""
    cell_of = dec.cell_of
    if cell_of is None:
        cell_of = np.repeat(np.arange(dec.class_count), dec.sizes)
    out = dec.table.take(cell_of, axis=1).take(cell_of, axis=0)
    np.fill_diagonal(out, False)
    return out


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
    for u in units(ring):
        d = ring.sub(one, u)
        if ring.mul(d, d) != zero:
            return True
    return False


def _scan_noncommutative_hypothesis(ring):
    """The noncommutative hypothesis by a scan over every unit of the ring."""
    one = ring.one
    unit_set = set(units(ring))
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
    max(1, ||matrix||_inf), as `spectra._eigen_residual_ok` scales it."""
    return LEMMA_TOL * max(1.0, float(np.abs(matrix).sum(axis=1).max(initial=0.0)))


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
    fiedler_combine within LEMMA_TOL * max(1, ||M||_inf).  u and v must be
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
    return multiset_equal(predicted, dense_eigenvalues(combined), _lemma_gate(combined))


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
    max(1, ||B + DAD||_inf)."""
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
    match = multiset_equal(summed, dense_eigenvalues(direct), _lemma_gate(direct))
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
