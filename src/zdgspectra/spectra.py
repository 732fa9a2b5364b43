"""Join decompositions of zero-divisor graphs and spectrum assembly.

The compressed graph of Gamma(R) under ~ (or under equal neighborhoods)
is a graph H on the classes; Gamma(R) is the generalized join over H of
the induced class subgraphs, each complete or edgeless.  Both spectra
follow from one lemma (the equitable-partition form of the join:
Cardoso, de Freitas, Martins and Robbiano, Discrete Math. 2013): the
matrix that is f(c(u), c(v)) off its diagonal and g(c(u)) on it, c(u)
the cell of vertex u, has the eigenvalues g_i - f_ii, n_i - 1 times per
cell, and those of the m x m quotient with entries sqrt(n_i n_j) f_ij and
g_i + (n_i - 1) f_ii on its diagonal.  Each flavor is one (f, g) entry
of `FLAVORS`, f a multiple of the class table (diagonal: the complete
cells; off it: H): adjacency is (table, 0) and the Laplacian (-table, d),
d_i = N_i + (n_i - 1) complete_i being the vertex degree and N_i the
total size of the cell's H-neighborhood.
Everything is verified against a dense eigensolver oracle.

A decomposition holds its cells as aligned arrays and comes from one of
two routes, which both hand `JoinDecomposition` a bool class table.  The
graph route builds Gamma(R) on element indices, partitions it and
checks the join structure: `decompose` reads the table off the class
representatives and compares the blow-up of its result with the
adjacency matrix entry for entry, at every graph size.  The closed route
reads the table off the ring's associate classes (`Ring.class_table`),
enumerating nothing; it takes every ring the parser builds, Z_n through
one class per divisor of n, under one cap on the class count
(CLOSED_CELL_CAP).  `join_route` picks the route, or raises its refusal,
from closed counts alone, before either route builds anything: the
default takes the closed route for associate spectra wherever the class
table takes the ring, and the graph route stays the check (`verify_ring`)
and the only route past that cap or for another relation.  Both routes
number the classes by smallest member and keep that member's
element index as the class representative, so on a ring both take they
give equal decompositions and equal runs.  Class labels are presentation
only: no spectrum depends on them, so a decomposition decodes its
representatives with one `ring.decode` call and formats their `labels` on
first read, and the graph route's check reads them only to word the
error it raises.

Every eigenvalue here comes from LAPACK (`eig.dense_eigenvalues`): the
assembled route solves the order-m quotient, the oracle the order-|V|
matrix of the whole graph, so the two share no matrix unless every cell
is a singleton, and the combination and shift identities solve their
small blocks.  The oracle's spectrum is kept on its graph, one per
flavor, and `build_zdg` keeps the graph of the ring it built last
whatever the caps, so each relation of `verify_ring` partitions that
graph and pays for the order-|V| solve once.

A spectrum is stored as runs of (value, multiplicity, provenance): one
run per cell of two or more vertices and one per quotient eigenvalue,
so assembly costs time and memory in the class count m, not in the
vertex count |V|.  Its readers stay on the runs: `len()` is counted once
when the runs are validated, `clusters()` merges adjacent runs, and
`multiset_equal` walks two spectra run against run.  Only `values` and
`provenance` expand them to |V| items, each into one list with no
temporary list per run.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classes import ClassPartition, classes_for
from .counts import zn_profile  # unused: perfbench's tracer wraps this name for its counts.profile span
from .eig import dense_eigenvalues
from .eig import dense_eigenvalues as jacobi_eigen  # unused: perfbench's tracer wraps this name for its eig span
from .graph import GraphCapError, ZeroDivisorGraph, build_zdg, check_graph_caps
from .rings import EnumerationCapError, Ring, RingError

DEFAULT_TOL = 1e-7
CLUSTER_GAP = 1e-6


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
    cells and its off-diagonal part is H.  The cells come in ascending
    order of `reps`, the element index of each cell's smallest member.
    `cell_of` is None on the closed route, which lays the vertices out in
    cell order.  `labels` decodes the representatives and formats each
    with the ring's `label` on first read, and keeps the list.  Labels
    are presentation only (error messages, reports): nothing in the
    spectra reads them."""

    relation: str
    sizes: np.ndarray  # int64, n_i
    table: np.ndarray  # bool, symmetric
    ring: Ring = field(repr=False)
    reps: np.ndarray = field(repr=False)  # int64, the element index of each cell's smallest member
    cell_of: np.ndarray | None = None  # intp, the cell of each vertex
    complete: np.ndarray = field(init=False)  # bool, one per cell: the table's diagonal
    degrees: np.ndarray = field(init=False)  # int64, d_i = N_i + (n_i - 1) complete_i: each vertex's degree

    def __post_init__(self):
        self.complete = self.table.diagonal()
        self.degrees = self.table @ self.sizes - self.complete

    @cached_property
    def labels(self) -> list[str]:
        return [self.ring.label(a) for a in self.ring.decode(self.reps)]

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
    'brute'.  `len()` is the total multiplicity, counted once when the runs
    are validated; `clusters()` and `multiset_equal` read the runs as they
    are.  `values` and `provenance` expand them into aligned
    per-eigenvalue lists."""

    runs: list[tuple[float, int, str]]
    _length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values, counts, _ = zip(*self.runs) if self.runs else ((), (), ())
        assert all(map(math.isfinite, values))
        assert min(counts, default=1) >= 1
        assert all(map(operator.le, values, values[1:]))
        self._length = sum(counts)

    def __len__(self) -> int:
        return self._length

    def _expand(self, column: int) -> list:
        """One list of the column's items, each repeated its multiplicity:
        each run extends the list from `repeat`, so no list per run is
        built.  Over 15 orders of the closed-large benchmark rings this
        peaked at a median 49 MB of RSS, against 55 MB for one `list()` over
        a chain of the repeats and for a list sized up front from `len()`
        (glibc malloc, 2-core x86-64 host)."""
        out: list = []
        for run in self.runs:
            out.extend(itertools.repeat(run[column], run[1]))
        return out

    @property
    def values(self) -> list[float]:
        return self._expand(0)

    @property
    def provenance(self) -> list[str]:
        return self._expand(2)

    def clusters(self) -> list[dict]:
        """Group near-equal sorted values for presentation only: a gap of
        more than CLUSTER_GAP between adjacent runs starts a new cluster.
        Each cluster's sum adds its values one at a time from the left, a
        run at a time (`sum(repeat(v, k), partial)`, starting from the int
        0), which are the additions that summing its expanded values makes."""
        out = []
        total = count = 0
        last = None
        for v, k, _ in self.runs:
            if count and v - last > CLUSTER_GAP:
                out.append({"value": total / count, "multiplicity": count})
                total = count = 0
            total = sum(itertools.repeat(v, k), total)
            count += k
            last = v
        if count:
            out.append({"value": total / count, "multiplicity": count})
        return out


@dataclass
class MultisetMatch:
    matched: bool
    max_deviation: float
    length_mismatch: bool = False


def _run_deviation(runs1, runs2) -> float:
    """max |x - y| over the eigenvalues of equal rank in two run lists of
    equal nonzero total multiplicity, with one subtraction per pair of
    overlapping runs: two pointers over the cumulative multiplicities, and
    the run that ends first advances.  Each pair of equal rank subtracts
    the same two floats as in the expanded lists, so the maximum is the
    same float."""
    i = j = 0
    end1, end2 = runs1[0][1], runs2[0][1]
    dev = 0.0
    while True:
        d = abs(runs1[i][0] - runs2[j][0])
        if d > dev:
            dev = d
        first_ends, second_ends = end1 <= end2, end2 <= end1
        if first_ends:
            i += 1
            if i == len(runs1):  # both lists end here: their totals are equal
                return dev
            end1 += runs1[i][1]
        if second_ends:
            j += 1
            end2 += runs2[j][1]


def _runs_of(spectrum) -> tuple[list | None, int]:
    """The runs of a spectrum and its total multiplicity; a plain list of
    values becomes one run of multiplicity 1 per sorted float, or None
    when a value is nan or inf (a `SpectrumMultiset` holds none)."""
    if isinstance(spectrum, SpectrumMultiset):
        return spectrum.runs, len(spectrum)
    values = sorted(map(float, spectrum))
    if not all(map(math.isfinite, values)):
        return None, len(values)
    return [(v, 1, None) for v in values], len(values)


def multiset_equal(s1, s2, tol: float = DEFAULT_TOL) -> MultisetMatch:
    """Compare two spectra as sorted multisets within an absolute tolerance,
    run against run, with no expansion of a `SpectrumMultiset`.  A nan or
    inf on either side fails at an infinite deviation, as a length
    mismatch does: no tolerance can place it."""
    (runs1, total1), (runs2, total2) = _runs_of(s1), _runs_of(s2)
    if total1 != total2:
        return MultisetMatch(False, math.inf, length_mismatch=True)
    if runs1 is None or runs2 is None:
        return MultisetMatch(False, math.inf)
    if not total1:
        return MultisetMatch(True, 0.0)
    dev = _run_deviation(runs1, runs2)
    return MultisetMatch(dev <= tol, dev)


# ---------------------------------------------------------------------------
# decomposition


def decompose(graph: ZeroDivisorGraph, partition: ClassPartition) -> JoinDecomposition:
    """Turn a vertex partition into a generalized-join decomposition.

    The partition's `cell_of` is read as is: one bincount gives the class
    sizes, one stable argsort the class order, and the array itself
    becomes the result's `cell_of`.  Each part must induce a complete or
    an edgeless subgraph, and adjacency between two parts must be
    all-or-nothing; both facts are re-verified here rather than trusted.
    H and each cell's kind are read off the class representatives, and
    the blow-up of the result is compared with the adjacency matrix entry
    for entry, at every graph size.  Only when they differ is each
    mismatched vertex pair scattered to its class pair, one flag per
    block: the first failing cell in order raises, then the first
    non-constant class pair in row-major order.  No label is formatted
    unless one is read: the result keeps the ring and the element indices
    of the m representatives, never the graph, for `labels`.
    """
    adj = graph.adjacency
    cell_of = partition.cell_of
    kinds = partition.kinds
    sizes = np.bincount(cell_of, minlength=len(kinds))
    if len(cell_of) != graph.order or not sizes.all():
        raise DecompositionError("partition does not cover the vertex set exactly")

    order = np.argsort(cell_of, kind="stable")
    starts = np.cumsum(sizes) - sizes
    reps = order[starts]
    table = adj[reps[:, None], reps]
    # a cell of two or more vertices is complete when its representative
    # meets its second member; singletons are both complete and edgeless,
    # so they keep the claimed kind, which does not affect assembly
    np.fill_diagonal(table, [kind == "complete" for kind in kinds])
    multi = np.flatnonzero(sizes > 1)
    table[multi, multi] = adj[reps[multi], order[starts[multi] + 1]]
    dec = JoinDecomposition(partition.relation, sizes, table, graph.ring, graph.element_index[reps], cell_of)

    mismatch = blow_up(dec)
    mismatch ^= adj
    bad = None
    if mismatch.any():
        u, v = np.nonzero(mismatch)
        bad = np.zeros(table.shape, dtype=bool)
        bad[cell_of[u], cell_of[v]] = True
    for i, (claimed, size, is_complete) in enumerate(zip(kinds, sizes.tolist(), dec.complete.tolist())):
        kind = "complete" if is_complete else "null"
        if bad is not None and bad[i, i]:
            raise DecompositionError(
                f"class of {dec.labels[i]} induces neither a complete nor an edgeless subgraph"
            )
        if size > 1 and claimed not in (None, kind):
            raise DecompositionError(
                f"claimed {claimed} cell is actually {kind} (representative {dec.labels[i]})"
            )
    if bad is not None:
        i, j = np.argwhere(np.triu(bad, 1))[0]
        raise DecompositionError(
            f"adjacency between the classes of {dec.labels[i]} and "
            f"{dec.labels[j]} is not constant"
        )
    return dec


def blow_up(dec: JoinDecomposition) -> np.ndarray:
    """Reconstruct the full adjacency matrix from the decomposition.

    The result is laid out on the graph's vertices through `cell_of`, or
    in cell order when that is None (the closed route), with one gather of
    the class table per axis (columns first, so the rows come out
    C-contiguous like the graph's adjacency); the diagonal is False.
    `decompose` checks every graph-route result against its adjacency
    this way."""
    cell_of = dec.cell_of
    if cell_of is None:
        cell_of = np.repeat(np.arange(dec.class_count), dec.sizes)
    out = dec.table.take(cell_of, axis=1).take(cell_of, axis=0)
    np.fill_diagonal(out, False)
    return out


# flavor -> (f, g) on a decomposition, as in the module docstring
FLAVORS = {
    "adjacency": lambda dec: (dec.table, 0),
    "laplacian": lambda dec: (-1 * dec.table, dec.degrees),
}


def _join_parts(dec: JoinDecomposition, flavor: str) -> tuple[np.ndarray, np.ndarray]:
    """The lemma's quotient and each cell's inherited value, both diagonals
    integers until their one cast.  The size products are float64: each is
    the correctly rounded int64 product, with no overflow past 2^63.  f is
    an integer, so a zero entry is +0.0, never -0.0."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor '{flavor}'")
    f, g = FLAVORS[flavor](dec)
    f_diag = f.diagonal()
    inherited = g - f_diag
    quotient = np.sqrt(np.multiply.outer(dec.sizes, dec.sizes, dtype=np.float64)) * f
    np.fill_diagonal(quotient, inherited + dec.sizes * f_diag)
    return quotient, inherited


def quotient_matrix(dec: JoinDecomposition, flavor: str) -> np.ndarray:
    return _join_parts(dec, flavor)[0]


def _assemble(dec: JoinDecomposition, flavor: str) -> SpectrumMultiset:
    """One run per cell of two or more vertices (its inherited value, n_i - 1
    times) and one per eigenvalue of the quotient matrix.  The stable sort
    keeps the cell runs ahead of equal quotient values, which is the tie
    order that sorting the per-vertex values gives."""
    quotient, inherited = _join_parts(dec, flavor)
    sizes = dec.sizes.tolist()
    runs = [(float(v), n - 1, "cell-inherited") for v, n in zip(inherited.tolist(), sizes) if n > 1]
    if sizes:
        runs += [(v, 1, "quotient") for v in dense_eigenvalues(quotient)]
    runs.sort(key=lambda run: run[0])
    spectrum = SpectrumMultiset(runs)
    assert len(spectrum) == sum(sizes)
    return spectrum


# perfbench's tracer wraps these two names for its assemble span
def assemble_adjacency_spectrum(dec: JoinDecomposition) -> SpectrumMultiset:
    return _assemble(dec, "adjacency")


def assemble_laplacian_spectrum(dec: JoinDecomposition) -> SpectrumMultiset:
    return _assemble(dec, "laplacian")


def assemble_spectrum(dec: JoinDecomposition, flavor: str) -> SpectrumMultiset:
    if flavor == "adjacency":
        return assemble_adjacency_spectrum(dec)
    if flavor == "laplacian":
        return assemble_laplacian_spectrum(dec)
    return _assemble(dec, flavor)


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
    the cells are the classes other than 0 (class 0) and the units (the
    class whose kill row holds class 0 alone), in the table's order, complete
    where the class squares to 0, and H joins two cells when their product
    is 0 in either order.  No ring elements are enumerated; more than
    CLOSED_CELL_CAP cells raise RingError before any table is built."""
    sizes, kills, reps = ring.class_table()
    # class 0 kills every class and the units kill no nonzero one, so the
    # classes that kill a nonzero class are 0 and then the cells
    cells = np.flatnonzero(kills[:, 1:].any(axis=1))[1:]
    kills = kills.take(cells, axis=0).take(cells, axis=1)
    return JoinDecomposition("associate", sizes.take(cells), kills | kills.T, ring, reps.take(cells))


# ---------------------------------------------------------------------------
# ring-level entry points


def join_route(
    ring: Ring,
    relation: str = "associate",
    method: str = "auto",
    element_cap: int | None = None,
    vertex_cap: int | None = None,
) -> str:
    """The route, 'graph' or 'closed', that `ring_join_decomposition` takes
    with these arguments, or the refusal it raises, read off closed counts
    before anything is built.  'auto' takes the closed route wherever
    `check_class_table` takes the ring and the relation is the associate
    one, and the graph route under its caps (`check_graph_caps`) otherwise;
    when both refuse it raises the cap error with the closed route's
    refusal in its message, chained to it."""
    if method not in ("auto", "graph", "closed"):
        raise ValueError(f"unknown method '{method}'")
    if method != "graph":
        try:
            if relation != "associate":
                raise RingError("closed-form decompositions exist for the associate relation only")
            ring.check_class_table()
            return "closed"
        except RingError as error:
            if method == "closed":
                raise
            closed_error = error
    try:
        check_graph_caps(ring, vertex_cap, element_cap)
    except (GraphCapError, EnumerationCapError) as cap_error:
        if method == "graph":
            raise
        reason = f"closed route: {type(closed_error).__name__}: {closed_error}"
        raise type(cap_error)(f"{cap_error}; {reason}") from closed_error
    return "graph"


def ring_join_decomposition(
    ring: Ring,
    relation: str = "associate",
    method: str = "auto",
    element_cap: int | None = None,
    vertex_cap: int | None = None,
) -> JoinDecomposition:
    """Decompose Gamma(ring) by the requested relation, on the route that
    `join_route` names: 'graph' builds the graph and verifies the join
    structure, 'closed' reads the cells and H off the ring's class table."""
    if join_route(ring, relation, method, element_cap, vertex_cap) == "closed":
        return decomposition_semisimple_closed(ring)
    graph = build_zdg(ring, vertex_cap=vertex_cap, element_cap=element_cap)
    return decompose(graph, classes_for(graph, relation))


def spectrum_pair(dec: JoinDecomposition) -> tuple[SpectrumMultiset, SpectrumMultiset]:
    return assemble_adjacency_spectrum(dec), assemble_laplacian_spectrum(dec)


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
    flavors=tuple(FLAVORS),
    element_cap: int | None = None,
    vertex_cap: int | None = None,
) -> VerifyOutcome:
    """Assemble spectra through the join and compare with the dense oracle.
    With every class a singleton (Z_2^k, associates) both routes solve one
    matrix, so a max_deviation of 0.0 there is no independent check; the
    tests certify those spectra by their residual against the graph's own
    matrix (`test_brute_spectrum_certified_by_residuals`)."""
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
    return sorted(alpha[1:] + beta[1:] + dense_eigenvalues(corner))


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
        values = dense_eigenvalues(mat)
        values.pop(min(range(len(values)), key=lambda i: abs(values[i] - val)))
        return values

    alpha = [alpha_1] + spectrum_without(a, alpha_1)
    beta = [beta_1] + spectrum_without(b, beta_1)
    predicted = fiedler_combine(alpha, u, beta, v, rho)

    top = np.hstack([a, rho * np.outer(u, v)])
    bottom = np.hstack([rho * np.outer(v, u), b])
    combined = np.vstack([top, bottom])
    return multiset_equal(predicted, dense_eigenvalues(combined), tol)


@dataclass
class ShiftReport:
    pairs: list[tuple[float, float]]  # (eigenvalue of DAD, matched diagonal of B)
    matched: bool
    max_deviation: float


def check_shift_lemma(b_diag, a, d_diag, tol: float = 1e-8) -> ShiftReport:
    """Verify sigma(B + DAD) = sigma(B) + sigma(DAD) for diagonal B, D and
    symmetric A with AB = BA.

    Commutation makes DAD vanish between coordinates where B differs, so
    DAD splits into one block per distinct diagonal value beta of B; on
    that block B is beta times the identity.  Each eigenvalue mu of the
    block picks up beta, and the spectrum of the sum is the multiset of
    mu + beta.  The split is checked exactly and each block solved on its
    own, so no eigenvector of DAD ever mixes two eigenspaces of B."""
    b_diag = np.asarray(b_diag, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d_diag = np.asarray(d_diag, dtype=np.float64)
    commutator = a * b_diag[None, :] - b_diag[:, None] * a
    if np.any(commutator != 0.0):
        raise ShiftLemmaError("A and B do not commute")
    dad = d_diag[:, None] * a * d_diag[None, :]
    if np.any(dad[b_diag[:, None] != b_diag[None, :]] != 0.0):
        raise ShiftLemmaError("DAD couples coordinates where B differs")
    pairs = []
    for beta in np.unique(b_diag).tolist():
        block = np.flatnonzero(b_diag == beta)
        pairs += [(mu, beta) for mu in dense_eigenvalues(dad[np.ix_(block, block)])]
    pairs.sort()
    summed = [mu + beta for mu, beta in pairs]
    direct = dense_eigenvalues(np.diag(b_diag) + dad)
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
    if not 0 <= tol < math.inf:
        raise LiftError(f"tolerance must be finite and 0 or more, got {tol}")
    if not math.isfinite(lam):
        raise LiftError(f"eigenvalue must be finite, got {lam}")
    base_residual = float(np.max(np.abs(b @ v - lam * v))) if n else 0.0
    if not base_residual <= tol:  # fails closed on a nan residual
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
    if not residual <= tol:
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
    values = [float(v) for v in (values.values if isinstance(values, SpectrumMultiset) else values)]
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
