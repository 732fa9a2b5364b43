"""Join decompositions of zero-divisor graphs and spectrum assembly.

The compressed graph of Gamma(R) under ~ (or under equal neighborhoods)
is a graph H on the classes; Gamma(R) is the generalized join over H of
the induced class subgraphs, each complete or edgeless.  The adjacency
and Laplacian spectra then split into values inherited from the cells
and the eigenvalues of two small quotient matrices:

    C_A[i][i] = r_i             C_A[i][j] = +sqrt(n_i n_j) on H-edges
    C_N[i][i] = N_i             C_N[i][j] = -sqrt(n_i n_j) on H-edges

with n_i the cell size, r_i its inner regularity (n_i - 1 if complete,
else 0) and N_i the total size of its H-neighborhood (`neighbor_weights`);
`quotient_adjacency` and `quotient_laplacian` return them as m x m
arrays.  A complete cell contributes -1 (adjacency) and N_i + n_i
(Laplacian), each n_i - 1 times; a null cell contributes 0 and N_i.
Everything is verified against a dense eigensolver oracle.

A decomposition holds its cells as aligned arrays and comes from one of
two routes, which both hand `JoinDecomposition` a bool class table.  The
graph route enumerates the ring, builds Gamma(R), partitions it and
checks the join structure: `decompose` reads the table off the class
representatives and compares the blow-up of its result with the
adjacency matrix entry for entry, at every graph size.  The closed route
reads the table off the ring's associate classes (`Ring.class_table`),
enumerating nothing; it takes every ring the parser builds, Z_n through
the CRT product of its Z_{p^a} tables, under one cap on the class count
(CLOSED_CELL_CAP).

Both spectrum routes solve with LAPACK (`eig.dense_eigenvalues`): the
assembled route the order-m quotient, the oracle the order-|V| matrix of
the whole graph, so the two share no matrix.  The oracle's spectrum is
kept on its graph, one per flavor, and `build_zdg` keeps one graph per
ring whatever the caps, so every caller that checks a ring (each relation
of `verify_ring`, `zdg spectrum --method both`) partitions that graph and
pays for the order-|V| solve once.  The pure-Python Jacobi solver of
`eig` (`jacobi_eigen`, `jacobi_eigen_system`) serves the combination and
shift identities.

A spectrum is stored as runs of (value, multiplicity, provenance): one
run per cell of two or more vertices and one per quotient eigenvalue,
so assembly costs time and memory in the class count m, not in the
vertex count |V|.  The flat per-vertex lists are expanded only when a
caller reads `values` or `provenance`.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .classes import ClassPartition, classes_for
from .counts import zn_profile  # unused: perfbench's tracer wraps this name for its counts.profile span
from .eig import dense_eigenvalues, jacobi_eigen, jacobi_eigen_system
from .graph import GraphCapError, ZeroDivisorGraph, build_zdg
from .rings import EnumerationCapError, Ring, RingError, Zn

DEFAULT_TOL = 1e-7
CLUSTER_GAP = 1e-6
CLOSED_CELL_CAP = 4096


class DecompositionError(Exception):
    """The partition does not induce a generalized join of the graph."""


class LiftError(Exception):
    pass


class LiftInapplicableError(LiftError):
    """The duplication formula's hypotheses do not hold for this input."""


class LiftVerificationError(LiftError):
    """The formula produced a value the explicit matrix disagrees with."""


class ShiftLemmaError(Exception):
    pass


@dataclass(eq=False)
class JoinDecomposition:
    """Gamma(R) as a generalized join over H, built by both routes from a
    symmetric bool m x m class table: its diagonal marks the complete
    cells and its off-diagonal part is H.  `cell_of` is None on the closed
    route, which lays the vertices out in cell order."""

    relation: str
    sizes: np.ndarray  # int64, n_i
    table: InitVar[np.ndarray]
    labels: list[str]
    cell_of: np.ndarray | None = None  # intp, the cell of each vertex
    complete: np.ndarray = field(init=False)  # bool, one per cell
    h_adjacency: np.ndarray = field(init=False)  # symmetric, no self-loops
    neighbor_weights: np.ndarray = field(init=False)  # int64, N_i = sum of n_j over H-neighbors

    def __post_init__(self, table):
        self.complete = table.diagonal().copy()
        self.h_adjacency = table & ~np.eye(len(self.sizes), dtype=bool)
        self.neighbor_weights = self.h_adjacency @ self.sizes

    @property
    def class_count(self) -> int:
        return len(self.sizes)

    @property
    def order(self) -> int:
        return int(self.sizes.sum())


@dataclass
class SpectrumMultiset:
    """An eigenvalue multiset as ascending runs (value, multiplicity,
    provenance), with provenance one of 'cell-inherited', 'quotient' or
    'brute'.  `len()` is the total multiplicity; `values` and `provenance`
    expand the runs into aligned per-eigenvalue lists."""

    runs: list[tuple[float, int, str]]

    def __post_init__(self):
        assert all(math.isfinite(v) and k >= 1 for v, k, _ in self.runs)
        assert all(a[0] <= b[0] for a, b in zip(self.runs, self.runs[1:]))

    def __len__(self) -> int:
        return sum(k for _, k, _ in self.runs)

    @property
    def values(self) -> list[float]:
        out: list[float] = []
        for v, k, _ in self.runs:
            out += [v] * k
        return out

    @property
    def provenance(self) -> list[str]:
        out: list[str] = []
        for _, k, tag in self.runs:
            out += [tag] * k
        return out

    @staticmethod
    def from_pairs(pairs) -> "SpectrumMultiset":
        return SpectrumMultiset([(v, 1, tag) for v, tag in sorted(pairs, key=lambda t: t[0])])

    def clusters(self, gap: float = CLUSTER_GAP) -> list[dict]:
        """Group near-equal sorted values for presentation only."""
        out = []
        run: list[float] = []
        for v in self.values:
            if run and v - run[-1] > gap:
                out.append({"value": sum(run) / len(run), "multiplicity": len(run)})
                run = []
            run.append(v)
        if run:
            out.append({"value": sum(run) / len(run), "multiplicity": len(run)})
        return out


@dataclass
class MultisetMatch:
    matched: bool
    max_deviation: float
    length_mismatch: bool = False


def _values_of(spectrum) -> list[float]:
    if isinstance(spectrum, SpectrumMultiset):
        return spectrum.values
    return [float(v) for v in spectrum]


def multiset_equal(s1, s2, tol: float = DEFAULT_TOL) -> MultisetMatch:
    """Compare two spectra as sorted multisets within an absolute tolerance."""
    a = sorted(_values_of(s1))
    b = sorted(_values_of(s2))
    if len(a) != len(b):
        return MultisetMatch(False, math.inf, length_mismatch=True)
    if not a:
        return MultisetMatch(True, 0.0)
    dev = max(abs(x - y) for x, y in zip(a, b))
    return MultisetMatch(dev <= tol, dev)


# ---------------------------------------------------------------------------
# decomposition


def decompose(graph: ZeroDivisorGraph, partition: ClassPartition) -> JoinDecomposition:
    """Turn a vertex partition into a generalized-join decomposition.

    Each part must induce a complete or an edgeless subgraph, and
    adjacency between two parts must be all-or-nothing; both facts are
    re-verified here rather than trusted.  H and each cell's kind are read
    off the class representatives, and the blow-up of the result is
    compared with the adjacency matrix entry for entry, at every graph
    size.  Only when they differ are the mismatches permuted into class
    order and OR-reduced to one flag per block: the first failing cell in
    order raises, then the first non-constant class pair in row-major
    order.
    """
    adj = graph.adjacency
    classes = partition.classes
    order = np.array([i for c in classes for i in c.members], dtype=np.intp)
    if sorted(order.tolist()) != list(range(graph.order)):
        raise DecompositionError("partition does not cover the vertex set exactly")

    m = len(classes)
    sizes = np.array([len(c.members) for c in classes], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    reps = order[starts]
    table = adj[reps[:, None], reps]
    # a cell of two or more vertices is complete when its representative
    # meets its second member; singletons are both complete and edgeless,
    # so they keep the claimed kind, which does not affect assembly
    complete = np.array([c.kind == "complete" for c in classes], dtype=bool)
    multi = sizes > 1
    complete[multi] = adj[reps[multi], order[starts[multi] + 1]]
    np.fill_diagonal(table, complete)
    cell_of = np.empty(graph.order, dtype=np.intp)
    cell_of[order] = np.repeat(np.arange(m), sizes)
    labels = [graph.ring.label(graph.vertices[c.representative]) for c in classes]
    dec = JoinDecomposition(partition.relation, sizes, table, labels, cell_of)

    mismatch = blow_up(dec)
    mismatch ^= adj
    bad = np.zeros((m, m), dtype=bool)
    if mismatch.any():
        bad = np.logical_or.reduceat(
            np.logical_or.reduceat(mismatch[order[:, None], order], starts, axis=0),
            starts,
            axis=1,
        )
    for c, label, is_complete, bad_cell in zip(classes, labels, complete, bad.diagonal()):
        kind = "complete" if is_complete else "null"
        if bad_cell:
            raise DecompositionError(
                f"class of {label} induces neither a complete nor an edgeless subgraph"
            )
        if len(c.members) > 1 and c.kind not in (None, kind):
            raise DecompositionError(
                f"claimed {c.kind} cell is actually {kind} (representative {label})"
            )
    if bad.any():
        i, j = np.argwhere(np.triu(bad, 1))[0]
        raise DecompositionError(
            f"adjacency between the classes of {labels[i]} and "
            f"{labels[j]} is not constant"
        )
    return dec


def blow_up(dec: JoinDecomposition) -> np.ndarray:
    """Reconstruct the full adjacency matrix from the decomposition.

    The result is laid out on the graph's vertices through `cell_of`, or
    in cell order when that is None (the closed route).  H fills the
    off-diagonal blocks and `complete` each cell's own block, with one
    gather per axis (columns first, so the rows come out C-contiguous like
    the graph's adjacency); the diagonal is False.  `decompose` checks
    every graph-route result against its adjacency this way."""
    cell_of = dec.cell_of
    if cell_of is None:
        cell_of = np.repeat(np.arange(dec.class_count), dec.sizes)
    pattern = dec.h_adjacency.copy()
    np.fill_diagonal(pattern, dec.complete)
    out = pattern.take(cell_of, axis=1).take(cell_of, axis=0)
    np.fill_diagonal(out, False)
    return out


def _quotient_entries(dec: JoinDecomposition, diagonal, sign: float) -> np.ndarray:
    """sign * sqrt(n_i n_j) on the H-edges, the given diagonal, 0 elsewhere.

    The size products are exact int64 and both the int-to-float cast and
    sqrt are correctly rounded, so every entry equals math.sqrt of the
    Python integer product bit for bit."""
    m = dec.class_count
    i, j = np.nonzero(dec.h_adjacency)
    c = np.zeros((m, m))
    c[i, j] = sign * np.sqrt(dec.sizes[i] * dec.sizes[j])
    np.fill_diagonal(c, diagonal)
    return c


def quotient_adjacency(dec: JoinDecomposition) -> np.ndarray:
    regularity = np.where(dec.complete, dec.sizes - 1, 0)  # r_i
    return _quotient_entries(dec, regularity, 1.0)


def quotient_laplacian(dec: JoinDecomposition) -> np.ndarray:
    return _quotient_entries(dec, dec.neighbor_weights, -1.0)


def _assemble(dec: JoinDecomposition, inherited: np.ndarray, quotient) -> SpectrumMultiset:
    """One run per cell (its inherited value, n_i - 1 times; singletons
    give none) and one per eigenvalue of the quotient matrix.  The stable
    sort keeps the cell runs ahead of equal quotient values, which is the
    tie order that sorting the per-vertex values gives."""
    multi = dec.sizes > 1
    runs = [
        (value, k, "cell-inherited")
        for value, k in zip(inherited[multi].tolist(), (dec.sizes[multi] - 1).tolist())
    ]
    if dec.class_count:
        runs += [(v, 1, "quotient") for v in dense_eigenvalues(quotient(dec))]
    runs.sort(key=lambda run: run[0])
    spectrum = SpectrumMultiset(runs)
    assert len(spectrum) == dec.order
    return spectrum


def assemble_adjacency_spectrum(dec: JoinDecomposition) -> SpectrumMultiset:
    """Cell-inherited values (-1 per complete cell, 0 per null cell, each
    n_i - 1 times) together with the eigenvalues of C_A."""
    return _assemble(dec, np.where(dec.complete, -1.0, 0.0), quotient_adjacency)


def assemble_laplacian_spectrum(dec: JoinDecomposition) -> SpectrumMultiset:
    """Cell-inherited values (N_i + n_i per complete cell, N_i per null
    cell, each n_i - 1 times) together with the eigenvalues of C_N."""
    big_n = dec.neighbor_weights
    inherited = np.where(dec.complete, big_n + dec.sizes, big_n).astype(np.float64)
    return _assemble(dec, inherited, quotient_laplacian)


def assemble_spectrum(dec: JoinDecomposition, flavor: str) -> SpectrumMultiset:
    if flavor == "adjacency":
        return assemble_adjacency_spectrum(dec)
    if flavor == "laplacian":
        return assemble_laplacian_spectrum(dec)
    raise ValueError(f"unknown flavor '{flavor}'")


# ---------------------------------------------------------------------------
# the oracle


def adjacency_matrix(graph: ZeroDivisorGraph) -> np.ndarray:
    return graph.adjacency.astype(np.float64)


def laplacian_matrix(graph: ZeroDivisorGraph) -> np.ndarray:
    # 0 - A keeps the off-diagonal zeros +0.0; the diagonal of A is zero
    lap = np.subtract(0.0, graph.adjacency, dtype=np.float64)
    np.fill_diagonal(lap, graph.degrees())
    return lap


def brute_spectrum(graph: ZeroDivisorGraph, flavor: str) -> SpectrumMultiset:
    """Direct dense eigendecomposition of A or D - A (LAPACK eigvalsh),
    solved once per graph and flavor: the result is kept on the graph."""
    memo = graph._oracle
    if flavor not in memo:
        if flavor == "adjacency":
            m = adjacency_matrix(graph)
        elif flavor == "laplacian":
            m = laplacian_matrix(graph)
        else:
            raise ValueError(f"unknown flavor '{flavor}'")
        memo[flavor] = SpectrumMultiset([(v, 1, "brute") for v in dense_eigenvalues(m)])
    return memo[flavor]


# ---------------------------------------------------------------------------
# closed-form decompositions (no element enumeration)


def decomposition_semisimple_closed(ring: Ring) -> JoinDecomposition:
    """Join decomposition of Gamma(ring) from `ring.class_table`, for every
    ring the parser builds (Z_n and Z_{p^a} factors too, despite the name):
    the cells are the classes other than 0 and the units, complete where
    the class squares to 0, and H joins two cells when their product is 0
    in either order.  No ring elements are enumerated; more than
    CLOSED_CELL_CAP cells raise RingError before any table is built."""
    sizes, kills, labels = ring.class_table(CLOSED_CELL_CAP + 2)
    kills = kills[1:-1, 1:-1]
    return JoinDecomposition("associate", sizes[1:-1], kills | kills.T, labels[1:-1])


# ---------------------------------------------------------------------------
# ring-level entry points


def ring_join_decomposition(
    ring: Ring,
    relation: str = "associate",
    method: str = "auto",
    element_cap: int | None = None,
    vertex_cap: int | None = None,
) -> JoinDecomposition:
    """Decompose Gamma(ring) by the requested relation.

    method 'graph' enumerates the ring and verifies the join structure;
    'closed' reads the cells and H off the ring's class table without
    enumeration (associate relation only, at most CLOSED_CELL_CAP cells);
    'auto' prefers the graph route while it fits under the caps, and when
    the closed route cannot take the ring either it raises the cap error,
    chained to the closed route's refusal."""
    if method not in ("auto", "graph", "closed"):
        raise ValueError(f"unknown method '{method}'")
    if method == "closed":
        if relation != "associate":
            raise RingError("closed-form decompositions exist for the associate relation only")
        return decomposition_semisimple_closed(ring)
    try:
        graph = build_zdg(ring, vertex_cap=vertex_cap, element_cap=element_cap)
    except (GraphCapError, EnumerationCapError) as cap_error:
        if method == "graph":
            raise
        try:
            return ring_join_decomposition(ring, relation, "closed")
        except RingError as closed_error:
            raise cap_error from closed_error
    return decompose(graph, classes_for(graph, relation))


def spectrum_pair(dec: JoinDecomposition) -> tuple[SpectrumMultiset, SpectrumMultiset]:
    return assemble_adjacency_spectrum(dec), assemble_laplacian_spectrum(dec)


def spectrum_zn(
    n: int, relation: str = "associate", method: str = "auto"
) -> tuple[SpectrumMultiset, SpectrumMultiset]:
    """Adjacency and Laplacian spectra of Gamma(Z_n) via the join."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return spectrum_pair(ring_join_decomposition(Zn(n), relation, method))


@dataclass
class VerifyOutcome:
    ring_spec: str
    order: int
    relation: str
    results: dict[str, MultisetMatch]

    @property
    def matched(self) -> bool:
        return all(r.matched for r in self.results.values())

    @property
    def max_deviation(self) -> float:
        devs = [r.max_deviation for r in self.results.values()]
        return max(devs) if devs else 0.0


def verify_ring(
    ring: Ring,
    relation: str = "associate",
    tol: float = DEFAULT_TOL,
    flavors=("adjacency", "laplacian"),
    element_cap: int | None = None,
    vertex_cap: int | None = None,
) -> VerifyOutcome:
    """Assemble spectra through the join and compare with the dense oracle.
    With every class a singleton (Z_2^k, associates) both routes solve one
    matrix, so a max_deviation of 0.0 there is no independent check; the
    Jacobi solver pins those spectra (`test_brute_spectrum_matches_jacobi`)."""
    graph = build_zdg(ring, vertex_cap=vertex_cap, element_cap=element_cap)
    dec = decompose(graph, classes_for(graph, relation))
    results = {}
    for flavor in flavors:
        assembled = assemble_spectrum(dec, flavor)
        oracle = brute_spectrum(graph, flavor)
        results[flavor] = multiset_equal(assembled, oracle, tol)
    return VerifyOutcome(ring.spec_string(), graph.order, relation, results)


# ---------------------------------------------------------------------------
# small matrix lemmas


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
    return sorted(alpha[1:] + beta[1:] + jacobi_eigen(corner))


def fiedler_check(a, b, u, v, rho: float, tol: float = 1e-8) -> MultisetMatch:
    """Build the combined matrix explicitly and compare its spectrum with
    fiedler_combine.  u and v must be unit eigenvectors of a and b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    alpha_1 = float(u @ a @ u)
    beta_1 = float(v @ b @ v)
    for name, (mat, vec, val) in {
        "u": (a, u, alpha_1),
        "v": (b, v, beta_1),
    }.items():
        if np.max(np.abs(mat @ vec - val * vec)) > tol:
            raise ValueError(f"{name} is not an eigenvector of its matrix within {tol}")

    def spectrum_without(mat, val):
        values = jacobi_eigen(mat)
        values.pop(min(range(len(values)), key=lambda i: abs(values[i] - val)))
        return values

    alpha = [alpha_1] + spectrum_without(a, alpha_1)
    beta = [beta_1] + spectrum_without(b, beta_1)
    predicted = fiedler_combine(alpha, u, beta, v, rho)

    top = np.hstack([a, rho * np.outer(u, v)])
    bottom = np.hstack([rho * np.outer(v, u), b])
    combined = np.vstack([top, bottom])
    return multiset_equal(predicted, jacobi_eigen(combined), tol)


@dataclass
class ShiftReport:
    pairs: list[tuple[float, float]]  # (eigenvalue of DAD, matched diagonal of B)
    matched: bool
    max_deviation: float


def check_shift_lemma(b_diag, a, d_diag, tol: float = 1e-8) -> ShiftReport:
    """Verify sigma(B + DAD) = sigma(B) + sigma(DAD) for diagonal B, D and
    symmetric A with AB = BA.

    Commutation makes B and DAD simultaneously diagonalizable: every
    eigenvector w of DAD must already be an eigenvector of B, so each
    eigenvalue mu of DAD picks up the diagonal value beta carried by w,
    and the spectrum of the sum is the multiset of mu + beta."""
    b_diag = np.asarray(b_diag, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d_diag = np.asarray(d_diag, dtype=np.float64)
    commutator = a * b_diag[None, :] - b_diag[:, None] * a
    if np.any(commutator != 0.0):
        raise ShiftLemmaError("A and B do not commute")
    dad = d_diag[:, None] * a * d_diag[None, :]
    mus, vecs = jacobi_eigen_system(dad)
    pairs = []
    for idx in range(len(mus)):
        w = vecs[:, idx]
        beta = float(w @ (b_diag * w))
        residual = float(np.max(np.abs(b_diag * w - beta * w)))
        if residual > tol:
            raise ShiftLemmaError(
                f"eigenvector {idx} of DAD is not an eigenvector of B "
                f"(residual {residual:.3e})"
            )
        pairs.append((float(mus[idx]), beta))
    summed = [mu + beta for mu, beta in pairs]
    direct = jacobi_eigen(np.diag(b_diag) + dad)
    match = multiset_equal(summed, direct, tol)
    return ShiftReport(pairs, match.matched, match.max_deviation)


@dataclass
class LiftResult:
    mu: float
    vector: np.ndarray
    matrix: np.ndarray
    residual: float


def duplicate_lift(b, j: int, m: int, lam: float, v, tol: float = 1e-8) -> LiftResult:
    """Track an eigenpair through duplicating index j of a matrix m times.

    Given B with eigenpair (lam, v), the matrix A = B[ix, ix] for the
    index list ix that repeats j m times has the eigenvalue

        mu = lam + (sum_i B[i, j] / sum_i v[i]) * (m - 1) * v[j]

    with eigenvector w = v[ix].  When v[j] = 0 the shift vanishes and
    mu = lam without touching the quotient.  The pair is verified on the
    explicitly built A; a residual above tol raises, reporting both the
    formula value and the Rayleigh quotient of w."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise LiftError("B must be a square matrix")
    n = b.shape[0]
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise LiftError("eigenvector length must match the matrix order")
    if not 0 <= j < n:
        raise LiftError(f"index {j} out of range for order {n}")
    if m < 1:
        raise LiftError("multiplicity must be at least 1")
    base_residual = float(np.max(np.abs(b @ v - lam * v))) if n else 0.0
    if base_residual > tol:
        raise LiftError(
            f"(lambda, v) is not an eigenpair of B (residual {base_residual:.3e})"
        )
    if m == 1:
        return LiftResult(float(lam), v.copy(), b.copy(), base_residual)

    if abs(v[j]) < 1e-12:
        mu = float(lam)
    else:
        v_sum = float(v.sum())
        if abs(v_sum) < 1e-12:
            raise LiftInapplicableError(
                "formula inapplicable: eigenvector entries sum to zero "
                "while the duplicated entry is nonzero"
            )
        col_sum = float(b[:, j].sum())
        mu = float(lam) + (col_sum / v_sum) * (m - 1) * float(v[j])

    ix = list(range(j)) + [j] * m + list(range(j + 1, n))
    a = b[np.ix_(ix, ix)]
    w = v[ix]
    residual = float(np.max(np.abs(a @ w - mu * w)))
    if residual > tol:
        rayleigh = float(w @ a @ w) / float(w @ w)
        raise LiftVerificationError(
            f"lifted pair fails verification: formula mu = {mu!r}, "
            f"Rayleigh quotient {rayleigh!r}, residual {residual:.3e}"
        )
    return LiftResult(mu, w, a, residual)


# ---------------------------------------------------------------------------
# the reciprocal-pairing report


def boolean_pairing_report(values, tol: float = CLUSTER_GAP) -> dict:
    """Try to match the nonzero values into {lambda, -1/lambda} pairs.

    Works greedily from the largest magnitude down; reports the pairs,
    any leftovers, and the count of (near-)zero values.  This is a
    reporting check only: callers warn on failure instead of asserting."""
    values = [float(v) for v in _values_of(values)]
    zeros = [v for v in values if abs(v) <= tol]
    remaining = sorted((v for v in values if abs(v) > tol), key=abs, reverse=True)
    paired = []
    unpaired = []
    while remaining:
        lam = remaining.pop(0)
        target = -1.0 / lam
        best = None
        for idx, candidate in enumerate(remaining):
            if abs(candidate - target) <= tol:
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
