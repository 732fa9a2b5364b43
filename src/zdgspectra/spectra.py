"""Join decompositions of zero-divisor graphs and spectrum assembly.

The compressed graph of Gamma(R) under ~ (or under equal neighborhoods)
is a graph H on the classes; Gamma(R) is the generalized join over H of
the induced class subgraphs, each complete or edgeless.  The adjacency
and Laplacian spectra then split into values inherited from the cells
and the eigenvalues of two small quotient matrices:

    C_A[i][i] = r_i             C_A[i][j] = +sqrt(n_i n_j) on H-edges
    C_N[i][i] = N_i             C_N[i][j] = -sqrt(n_i n_j) on H-edges

with n_i the cell size, r_i its inner regularity and N_i the total size
of its H-neighborhood.  A complete cell contributes -1 (adjacency) and
N_i + n_i (Laplacian), each n_i - 1 times; a null cell contributes 0 and
N_i.  Everything is verified against a dense eigensolver oracle.

A decomposition comes from one of two routes.  The graph route enumerates
the ring, builds Gamma(R), partitions it and checks the join structure
(`decompose`).  The closed route reads the cells and H off the ring's
associate-class table (`Ring.class_table`), enumerating nothing; it takes
every ring the parser builds, Z_n through the CRT product of its Z_{p^a}
tables, under one cap on the class count (CLOSED_CELL_CAP).

Both spectrum routes solve with LAPACK (`eig.dense_eigenvalues`): the
assembled route the order-m quotient, the oracle the order-|V| matrix of
the whole graph, so the two share no matrix.  The pure-Python Jacobi solver
serves the combination and shift identities.

A spectrum is stored as runs of (value, multiplicity, provenance): one
run per cell of two or more vertices and one per quotient eigenvalue,
so assembly costs time and memory in the class count m, not in the
vertex count |V|.  The flat per-vertex lists are expanded only when a
caller reads `values` or `provenance`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassPartition, classes_for
from .counts import zn_profile  # unused: perfbench's tracer wraps this name for its counts.profile span
from .eig import dense_eigenvalues, jacobi_eigen, jacobi_eigen_system
from .graph import GraphCapError, ZeroDivisorGraph, build_zdg
from .rings import EnumerationCapError, Ring, RingError, Zn

DEFAULT_TOL = 1e-7
CLUSTER_GAP = 1e-6
RECONSTRUCTION_LIMIT = 2000
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


@dataclass
class Cell:
    size: int  # n_i
    regularity: int  # r_i: size-1 for complete cells, 0 for null cells
    kind: str  # 'complete' | 'null'
    label: str
    members: list[int] | None  # original vertex indices; None on closed routes


@dataclass
class JoinDecomposition:
    relation: str
    cells: list[Cell]
    h_adjacency: np.ndarray  # boolean, symmetric, no self-loops
    neighbor_weights: list[int]  # N_i = sum of n_j over H-neighbors
    source: str  # 'graph' | 'closed'

    @property
    def class_count(self) -> int:
        return len(self.cells)

    @property
    def order(self) -> int:
        return sum(c.size for c in self.cells)


@dataclass
class QuotientMatrix:
    flavor: str  # 'adjacency' | 'laplacian'
    entries: np.ndarray

    @property
    def order(self) -> int:
        return self.entries.shape[0]


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


def decompose(
    graph: ZeroDivisorGraph,
    partition: ClassPartition,
    reconstruction_limit: int = RECONSTRUCTION_LIMIT,
) -> JoinDecomposition:
    """Turn a vertex partition into a generalized-join decomposition.

    Each part must induce a complete or an edgeless subgraph, and
    adjacency between two parts must be all-or-nothing; both facts are
    re-verified here rather than trusted.  H and each cell's kind are read
    off one vertex pair per block of the adjacency permuted into class
    order; the pattern they predict is expanded to full size, compared
    with the permuted adjacency, and the mismatches are OR-reduced to one
    flag per block.  The first failing cell in order raises, then the
    first non-constant class pair in row-major order.  For graphs of at
    most reconstruction_limit vertices the blow-up of the result is
    compared with the original adjacency matrix entry for entry.
    """
    adj = graph.adjacency
    classes = partition.classes
    order = np.array([i for c in classes for i in c.members], dtype=np.intp)
    if sorted(order.tolist()) != list(range(graph.order)):
        raise DecompositionError("partition does not cover the vertex set exactly")

    m = len(classes)
    sizes = np.array([len(c.members) for c in classes], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    permuted = adj[order[:, None], order]
    h = permuted[starts[:, None], starts]
    complete = np.zeros(m, dtype=bool)
    multi = sizes > 1
    complete[multi] = permuted[starts[multi], starts[multi] + 1]
    pattern = h.copy()
    np.fill_diagonal(pattern, complete)
    mismatch = _layout(pattern, np.repeat(np.arange(m), sizes))
    mismatch ^= permuted
    bad = np.zeros((m, m), dtype=bool)
    if m:  # reduceat rejects an empty index
        bad = np.logical_or.reduceat(
            np.logical_or.reduceat(mismatch, starts, axis=0), starts, axis=1
        )

    cells = []
    for i, c in enumerate(classes):
        label = graph.ring.label(graph.vertices[c.representative])
        if bad[i, i]:
            raise DecompositionError(
                f"class of {label} induces neither a complete nor an edgeless subgraph"
            )
        observed = "complete" if complete[i] else "null"
        kind = c.kind
        if kind is None or sizes[i] == 1:
            # singletons are both complete and edgeless; keep the claimed
            # kind when the partition supplies one, it does not affect
            # assembly (r_i = 0 either way)
            kind = c.kind or observed
        elif kind != observed:
            raise DecompositionError(
                f"claimed {kind} cell is actually {observed} (representative {label})"
            )
        n_i = len(c.members)
        cells.append(
            Cell(
                size=n_i,
                regularity=n_i - 1 if kind == "complete" else 0,
                kind=kind,
                label=label,
                members=list(c.members),
            )
        )
    if bad.any():
        i, j = np.argwhere(np.triu(bad, 1))[0]
        raise DecompositionError(
            f"adjacency between the classes of {cells[i].label} and "
            f"{cells[j].label} is not constant"
        )
    dec = JoinDecomposition(
        partition.relation, cells, h, _neighbor_weights(cells, h), source="graph"
    )

    if graph.order <= reconstruction_limit:
        if not np.array_equal(blow_up(dec), adj):
            raise DecompositionError("blow-up does not reproduce the adjacency matrix")
    return dec


def _layout(pattern: np.ndarray, cell_of: np.ndarray) -> np.ndarray:
    """Vertex-level adjacency of a join: entry (a, b) is
    pattern[cell_of[a], cell_of[b]] off the diagonal, False on it."""
    out = pattern[cell_of][:, cell_of]
    np.fill_diagonal(out, False)
    return out


def blow_up(dec: JoinDecomposition) -> np.ndarray:
    """Reconstruct the full adjacency matrix from the decomposition.

    Cells built from a graph carry their original vertex indices and the
    result is laid out on those; closed-form cells are laid out in cell
    order.  H fills the off-diagonal blocks and each cell's kind its own
    block, with one gather per axis."""
    m = dec.class_count
    pattern = dec.h_adjacency.copy()
    np.fill_diagonal(pattern, [c.kind == "complete" for c in dec.cells])
    cell_of = np.repeat(np.arange(m), _cell_sizes(dec.cells))  # in cell order
    if dec.cells and all(c.members is not None for c in dec.cells):
        in_cell_order = cell_of
        cell_of = np.empty_like(in_cell_order)
        cell_of[[i for c in dec.cells for i in c.members]] = in_cell_order
    return _layout(pattern, cell_of)


def _cell_sizes(cells: list[Cell]) -> np.ndarray:
    return np.array([c.size for c in cells], dtype=np.int64)


def _neighbor_weights(cells: list[Cell], h: np.ndarray) -> list[int]:
    """N_i = sum of n_j over the H-neighbors j of cell i."""
    return (h @ _cell_sizes(cells)).tolist()


def _quotient_entries(dec: JoinDecomposition, diagonal, sign: float) -> np.ndarray:
    """sign * sqrt(n_i n_j) on the H-edges, the given diagonal, 0 elsewhere.

    The size products are exact int64 and both the int-to-float cast and
    sqrt are correctly rounded, so every entry equals math.sqrt of the
    Python integer product bit for bit."""
    m = dec.class_count
    sizes = _cell_sizes(dec.cells)
    i, j = np.nonzero(dec.h_adjacency)
    c = np.zeros((m, m))
    c[i, j] = sign * np.sqrt(sizes[i] * sizes[j])
    np.fill_diagonal(c, diagonal)
    return c


def quotient_adjacency(dec: JoinDecomposition) -> QuotientMatrix:
    regularity = [c.regularity for c in dec.cells]
    return QuotientMatrix("adjacency", _quotient_entries(dec, regularity, 1.0))


def quotient_laplacian(dec: JoinDecomposition) -> QuotientMatrix:
    return QuotientMatrix("laplacian", _quotient_entries(dec, dec.neighbor_weights, -1.0))


def _assemble(dec: JoinDecomposition, inherited: list[float], quotient) -> SpectrumMultiset:
    """One run per cell (its inherited value, n_i - 1 times; singletons
    give none) and one per eigenvalue of the quotient matrix.  The stable
    sort keeps the cell runs ahead of equal quotient values, which is the
    tie order that sorting the per-vertex values gives."""
    runs = [
        (value, cell.size - 1, "cell-inherited")
        for value, cell in zip(inherited, dec.cells)
        if cell.size > 1
    ]
    if dec.class_count:
        runs += [(v, 1, "quotient") for v in dense_eigenvalues(quotient(dec).entries)]
    runs.sort(key=lambda run: run[0])
    spectrum = SpectrumMultiset(runs)
    assert len(spectrum) == dec.order
    return spectrum


def assemble_adjacency_spectrum(dec: JoinDecomposition) -> SpectrumMultiset:
    """Cell-inherited values (-1 per complete cell, 0 per null cell, each
    n_i - 1 times) together with the eigenvalues of C_A."""
    inherited = [-1.0 if cell.kind == "complete" else 0.0 for cell in dec.cells]
    return _assemble(dec, inherited, quotient_adjacency)


def assemble_laplacian_spectrum(dec: JoinDecomposition) -> SpectrumMultiset:
    """Cell-inherited values (N_i + n_i per complete cell, N_i per null
    cell, each n_i - 1 times) together with the eigenvalues of C_N."""
    inherited = [
        float(big_n + cell.size) if cell.kind == "complete" else float(big_n)
        for cell, big_n in zip(dec.cells, dec.neighbor_weights)
    ]
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
    a = adjacency_matrix(graph)
    return np.diag(a.sum(axis=1)) - a


def brute_spectrum(graph: ZeroDivisorGraph, flavor: str) -> SpectrumMultiset:
    """Direct dense eigendecomposition of A or D - A (LAPACK eigvalsh)."""
    if flavor == "adjacency":
        m = adjacency_matrix(graph)
    elif flavor == "laplacian":
        m = laplacian_matrix(graph)
    else:
        raise ValueError(f"unknown flavor '{flavor}'")
    return SpectrumMultiset([(v, 1, "brute") for v in dense_eigenvalues(m)])


# ---------------------------------------------------------------------------
# closed-form decompositions (no element enumeration)


def decomposition_semisimple_closed(
    ring: Ring, cell_cap: int = CLOSED_CELL_CAP
) -> JoinDecomposition:
    """Join decomposition of Gamma(ring) from `ring.class_table`, for every
    ring the parser builds (Z_n and Z_{p^a} factors too, despite the name):
    the cells are the classes other than 0 and the units, complete where
    the class squares to 0, and H joins two cells when their product is 0
    in either order.  No ring elements are enumerated; more than cell_cap
    cells raise RingError before any table is built."""
    sizes, kills, labels = ring.class_table(cell_cap + 2)
    kills = kills[1:-1, 1:-1]
    cells = [
        Cell(
            size=size,
            regularity=size - 1 if complete else 0,
            kind="complete" if complete else "null",
            label=label,
            members=None,
        )
        for size, complete, label in zip(
            sizes[1:-1].tolist(), np.diag(kills).tolist(), labels[1:-1]
        )
    ]
    h = kills | kills.T
    np.fill_diagonal(h, False)
    return JoinDecomposition("associate", cells, h, _neighbor_weights(cells, h), source="closed")


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
    partition = classes_for(ring, relation, element_cap)
    return decompose(graph, partition)


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
    """Assemble spectra through the join and compare with the dense oracle."""
    graph = build_zdg(ring, vertex_cap=vertex_cap, element_cap=element_cap)
    partition = classes_for(ring, relation, element_cap)
    dec = decompose(graph, partition)
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
