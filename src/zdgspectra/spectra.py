"""Join decompositions of zero-divisor graphs and spectrum assembly.

The compressed graph of Gamma(R) under ~ (or under equal neighborhoods)
is a graph H on the classes; Gamma(R) is the generalized join over H of
the induced class subgraphs, each complete or edgeless.  Both spectra
follow from one lemma (the equitable-partition form of the join:
Cardoso, de Freitas, Martins and Robbiano, Discrete Math. 2013): the
matrix that is f(c(u), c(v)) off its diagonal and g(c(u)) on it, c(u)
the cell of vertex u, has the eigenvalues g_i - f_ii, n_i - 1 times per
cell, and those of the m x m quotient with entries sqrt(n_i n_j) f_ij
and g_i + (n_i - 1) f_ii on its diagonal.  Each flavor is one entry of
`FLAVORS`: its (sign, g), f = sign times the class table (diagonal: the
complete cells; off it: H), and the whole graph's matrix for the oracle.
Adjacency is (1, 0) and A, the Laplacian (-1, d) and D - A,
where d_i = N_i + (n_i - 1) complete_i is the vertex degree and N_i the
total size of the cell's H-neighborhood.  Everything is verified
against a dense eigensolver oracle.

A decomposition holds its cells as aligned arrays and comes from one of
two routes, which both hand `JoinDecomposition` a bool class table.  The
graph route builds Gamma(R) on element indices, partitions it and
checks the join structure: `decompose` reads the table off the class
representatives and compares the blow-up of its result with the
adjacency matrix entry for entry, at every graph size, a row block at a
time.  The closed route
reads the table off the ring's associate classes (`Ring.class_table`),
enumerating nothing; it takes every ring the parser builds, Z_n through
one class per divisor of n, under one cap on the class count
(CLOSED_CELL_CAP), checked before any table is built.  Both routes
number the classes by smallest member and keep
that member's element index as the class representative, so on a ring
both take they give equal decompositions and equal runs; `verify_ring`,
the one comparison with the oracle, requires them equal.  Class labels
are presentation only: no spectrum depends on them, so a decomposition
decodes its representatives with one `ring.decode` call and formats their
`labels` on first read, and the two checks read them only to word the
errors they raise.

Every eigenvalue here comes from LAPACK (`eig.dense_eigenvalues`): the
assembled route solves the order-m quotient, the oracle the order-|V|
matrix of the whole graph, so the two share no matrix unless every cell
is a singleton.  The oracle's spectrum is kept on its graph, one per
flavor, and `build_zdg` keeps the graph of the ring it built last
whatever the cap, so each relation of `verify_ring` partitions that
graph and pays for the order-|V| solve once.

A spectrum is stored as runs of (value, multiplicity, provenance): one
run per cell of two or more vertices and one per quotient eigenvalue,
so assembly costs time and memory in the class count m, not in the
vertex count |V|.  Its readers stay on the runs: `len()` is counted once
when the runs are validated, `clusters()` merges adjacent runs, and
`multiset_equal` walks two spectra run against run.  Only `values`
expands them, to |V| items in one list with no temporary list per run.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classes import ClassPartition, classes_for
from .eig import dense_eigenvalues
from .eig import dense_eigenvalues as jacobi_eigen  # unused: perfbench's tracer wraps this name for its eig span
from .graph import ZeroDivisorGraph, build_zdg
from .rings import Ring, RingError, Zn, row_blocks

DEFAULT_TOL = 1e-7
CLUSTER_GAP = 1e-6
LEMMA_TOL = 1e-8


class DecompositionError(Exception):
    """The partition does not induce a generalized join of the graph."""


class LiftError(Exception):
    pass


class LiftInapplicableError(LiftError):
    """The duplication formula's hypotheses do not hold for this input."""


class LiftVerificationError(LiftError):
    """The formula produced a value the explicit matrix disagrees with."""


@dataclass(eq=False)
class JoinDecomposition:
    """Gamma(R) as a generalized join over H, built by both routes from a
    symmetric bool m x m class table: its diagonal marks the complete
    cells and its off-diagonal part is H.  The cells come in ascending
    order of `reps`, the element index of each cell's smallest member;
    both routes keep only this class-level data.  `labels` decodes the
    representatives and formats each with the ring's `label` on first
    read, and keeps the list.  Labels are presentation only (error
    messages, reports): nothing in the spectra reads them."""

    sizes: np.ndarray  # int64, n_i
    table: np.ndarray  # bool, symmetric
    ring: Ring = field(repr=False)
    reps: np.ndarray = field(repr=False)  # int64, the element index of each cell's smallest member
    complete: np.ndarray = field(init=False)  # bool, one per cell: the table's diagonal
    degrees: np.ndarray = field(init=False)  # int64, d_i = N_i + (n_i - 1) complete_i: each vertex's degree

    def __post_init__(self):
        self.complete = self.table.diagonal()
        # a row block of the table at a time: the product casts its bool operand to int64
        degrees = np.empty_like(self.sizes)
        for rows in row_blocks(len(self.sizes), len(self.sizes)):
            degrees[rows] = self.table[rows] @ self.sizes
        self.degrees = degrees - self.complete

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
    are, and `values` expands them into one value per eigenvalue."""

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

    @property
    def values(self) -> list[float]:
        """One list of the values, each repeated its multiplicity: each run
        extends the list from `repeat`, so no list per run is built.  Over
        15 orders of the closed-large benchmark rings this peaked at a
        median 49 MB of RSS, against 55 MB for one `list()` over a chain of
        the repeats and for a list sized up front from `len()` (glibc
        malloc, 2-core x86-64 host)."""
        out: list[float] = []
        for run in self.runs:
            out.extend(itertools.repeat(run[0], run[1]))
        return out

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


def multiset_equal(s1, s2) -> MultisetMatch:
    """Compare two spectra as sorted multisets within DEFAULT_TOL, absolute,
    run against run, with no expansion of a `SpectrumMultiset`; a caller
    with another gate compares `max_deviation` with it.  A nan or inf on
    either side fails at an infinite deviation, as a length mismatch does:
    no gate can place it."""
    (runs1, total1), (runs2, total2) = _runs_of(s1), _runs_of(s2)
    if total1 != total2:
        return MultisetMatch(False, math.inf, length_mismatch=True)
    if runs1 is None or runs2 is None:
        return MultisetMatch(False, math.inf)
    if not total1:
        return MultisetMatch(True, 0.0)
    dev = _run_deviation(runs1, runs2)
    return MultisetMatch(dev <= DEFAULT_TOL, dev)


# ---------------------------------------------------------------------------
# decomposition


def decompose(graph: ZeroDivisorGraph, partition: ClassPartition) -> JoinDecomposition:
    """Turn a vertex partition into a generalized-join decomposition.

    The partition's `cell_of` is read as is: one bincount gives the class
    sizes, one stable argsort the class order, and the array itself
    is not kept.  Each part must induce a complete or
    an edgeless subgraph, and adjacency between two parts must be
    all-or-nothing; both facts are re-verified here rather than trusted.
    H and each cell's kind are read off the class representatives, and
    the blow-up of the result is compared with the adjacency matrix entry
    for entry, at every graph size, one tile of row and column blocks
    (`rings.row_blocks`) at a time, so no second V x V array exists: the
    class table is gathered to a block of columns, then to each block of
    rows.  Each mismatched vertex pair
    is scattered to its class pair, one flag per pair of classes: the
    first failing cell in order raises, then the first
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
    dec = JoinDecomposition(sizes, table, graph.ring, graph.element_index[reps])

    # the blow-up of `dec` XOR the adjacency, one tile at a time: the class
    # table's rows are gathered to a block of columns, then each block of
    # rows of the tile copies its classes' rows
    bad = None
    for cols in row_blocks(len(adj), len(kinds)):
        wide = table.take(cell_of[cols], axis=1)
        for rows in row_blocks(len(adj), cols.stop - cols.start):
            mismatch = wide.take(cell_of[rows], axis=0)
            first = max(rows.start, cols.start)  # the tile's first diagonal entry, if any
            np.fill_diagonal(mismatch[first - rows.start :, first - cols.start :], False)
            mismatch ^= adj[rows, cols]
            if mismatch.any():
                u, v = np.nonzero(mismatch)
                if bad is None:
                    bad = np.zeros(table.shape, dtype=bool)
                bad[cell_of[u + rows.start], cell_of[v + cols.start]] = True
    for i, (claimed, size, is_complete) in enumerate(zip(kinds, sizes.tolist(), dec.complete.tolist())):
        kind = "complete" if is_complete else "null"
        if bad is not None and bad[i, i]:
            raise DecompositionError(
                f"class of {dec.labels[i]} induces neither a complete nor an edgeless subgraph"
            )
        if size > 1 and claimed != kind:
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


def adjacency_matrix(graph: ZeroDivisorGraph) -> np.ndarray:
    return graph.adjacency.astype(np.float64)


def laplacian_matrix(graph: ZeroDivisorGraph) -> np.ndarray:
    # 0 - A keeps the off-diagonal zeros +0.0; the diagonal of A is zero
    lap = np.subtract(0.0, graph.adjacency, dtype=np.float64)
    np.fill_diagonal(lap, graph.degrees())
    return lap


# a flavor: its (sign, g) on a decomposition, sign +1 or -1 and f = sign * table
# as in the module docstring, and the whole graph's matrix, read off its
# adjacency and degrees alone, for the oracle
Flavor = namedtuple("Flavor", "join matrix")
FLAVORS = {
    "adjacency": Flavor(lambda dec: (1, 0), adjacency_matrix),
    "laplacian": Flavor(lambda dec: (-1, dec.degrees), laplacian_matrix),
}


def _join_parts(dec: JoinDecomposition, flavor: str) -> tuple[np.ndarray, np.ndarray]:
    """The lemma's quotient and each cell's inherited value, both diagonals
    integers until their one cast.  The size products are float64: each is
    the correctly rounded int64 product, with no overflow past 2^63.  The
    quotient is the one m x m array made: f = sign * table is applied as the
    bool table and then the sign, on the table's entries alone, so a zero
    entry is +0.0, never -0.0."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor '{flavor}'")
    sign, g = FLAVORS[flavor].join(dec)
    f_diag = sign * dec.complete
    inherited = g - f_diag
    quotient = np.multiply.outer(dec.sizes, dec.sizes, dtype=np.float64)
    np.sqrt(quotient, out=quotient)
    np.multiply(quotient, dec.table, out=quotient)
    if sign < 0:
        np.negative(quotient, out=quotient, where=dec.table)
    np.fill_diagonal(quotient, inherited + dec.sizes * f_diag)
    return quotient, inherited


def _assemble(dec: JoinDecomposition, flavor: str) -> SpectrumMultiset:
    """One run per cell of two or more vertices (its inherited value, n_i - 1
    times) and one per eigenvalue of the quotient matrix.  The stable sort
    keeps the cell runs ahead of equal quotient values, which is the tie
    order that sorting the per-vertex values gives."""
    quotient, inherited = _join_parts(dec, flavor)
    sizes = dec.sizes.tolist()
    runs = [(float(v), n - 1, "cell-inherited") for v, n in zip(inherited.tolist(), sizes) if n > 1]
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


def brute_spectrum(graph: ZeroDivisorGraph, flavor: str) -> SpectrumMultiset:
    """Dense eigendecomposition (LAPACK eigvalsh) of the flavor's graph matrix,
    solved once per graph and flavor: the result is kept on the graph."""
    memo = graph._oracle
    if flavor not in memo:
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor '{flavor}'")
        m = FLAVORS[flavor].matrix(graph)
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
    return JoinDecomposition(sizes.take(cells), kills | kills.T, ring, reps.take(cells))


def zn_profile(n: int) -> dict:
    """Gamma(Z_n) as a generalized join over its divisor classes, the report
    that `zdg counts --what zn-profile` prints, read off the lattice of
    `Zn._divisor_classes`: one entry per divisor 1 < d < n, ascending, with
    its class size phi(n/d), its kind (complete iff n | d^2), its
    H-neighbours (the d' != d with n | d d') and N, their total size.  The
    report solves nothing, so unlike `class_table` it takes any n >= 2,
    in Python ints."""
    if n < 2:
        raise ValueError("n must be at least 2")
    ds, sizes, kills = Zn(n)._divisor_classes()
    # object arrays: exact past int64, and every neighbour list holds ds's own ints
    ds, sizes = np.array(ds[2:], dtype=object), np.array(sizes[2:], dtype=object)
    h = kills[2:, 2:]  # the class {0} (d = n) and the units (d = 1) come first
    complete = h.diagonal().tolist()
    np.fill_diagonal(h, False)
    # row by row: h @ sizes would cast h to an m x m array of objects
    entries = [
        {
            "d": d,
            "size": size,
            "kind": "complete" if c else "null",
            "neighbors": ds[row].tolist(),
            "N": sizes[row].sum(),
        }
        for d, size, c, row in zip(ds.tolist(), sizes.tolist(), complete, h)
    ]
    return {"class_count": len(entries), "complete_count": sum(complete), "entries": entries}


# ---------------------------------------------------------------------------
# ring-level entry points


def ring_join_decomposition(ring: Ring, relation: str = "associate", method: str = "closed") -> JoinDecomposition:
    """Decompose Gamma(ring) by `relation`: 'closed', the default, reads the
    cells and H off the ring's class table, for the associate relation only;
    'graph' builds the graph under the default vertex cap and verifies the
    join.  Each method raises its own route's refusal and never falls back."""
    if method not in ("graph", "closed"):
        raise ValueError(f"unknown method '{method}'")
    if method == "closed":
        if relation != "associate":
            raise RingError("closed-form decompositions exist for the associate relation only")
        return decomposition_semisimple_closed(ring)
    graph = build_zdg(ring)
    return decompose(graph, classes_for(graph, relation))


def spectrum_pair(dec: JoinDecomposition) -> tuple[SpectrumMultiset, SpectrumMultiset]:
    return assemble_adjacency_spectrum(dec), assemble_laplacian_spectrum(dec)


@dataclass
class VerifyOutcome:
    order: int
    relation: str
    results: dict[str, MultisetMatch]

    @property
    def matched(self) -> bool:
        return all(r.matched for r in self.results.values())

    @property
    def max_deviation(self) -> float:
        return max(r.max_deviation for r in self.results.values())


def _closed_route_checked(dec: JoinDecomposition) -> JoinDecomposition:
    """The closed decomposition of the ring of `dec`, a graph-route
    associate one, required equal to it: sizes, class table and
    representatives, class by class.  The first class that differs is
    named by its graph-route label (the closed route's past the graph's
    last class)."""
    closed = decomposition_semisimple_closed(dec.ring)
    m = min(dec.class_count, closed.class_count)
    differs = (dec.sizes[:m] != closed.sizes[:m]) | (dec.reps[:m] != closed.reps[:m])
    differs |= (dec.table[:m, :m] != closed.table[:m, :m]).any(axis=1)
    i = next(iter(np.flatnonzero(differs).tolist()), m)
    if i < max(dec.class_count, closed.class_count):
        label = (dec if i < dec.class_count else closed).labels[i]
        raise DecompositionError(f"the closed route differs from the graph route at the class of {label}")
    return closed


def verify_ring(ring: Ring, relation: str = "associate", vertex_cap: int | None = None) -> VerifyOutcome:
    """Compare the spectrum of every flavor in FLAVORS with the dense
    oracle of the graph built under the vertex cap, at DEFAULT_TOL: the
    graph's decomposition, or the closed one, which must equal it, where
    the closed route takes the ring.  A ring over the cap raises
    GraphCapError.  With every class a singleton (Z_2^k, associates) both
    sides solve one matrix, so a max_deviation of 0.0 there is no
    independent check; the tests certify those spectra by their residual
    against the graph's own matrix
    (`test_brute_spectrum_certified_by_residuals`)."""
    graph = build_zdg(ring, vertex_cap)
    dec = decompose(graph, classes_for(graph, relation))
    # check the closed decomposition against the graph's when the relation
    # is associate and `ring.check_class_table()` accepts the ring
    if relation == "associate":
        try:
            ring.check_class_table()
        except RingError:
            pass
        else:
            dec = _closed_route_checked(dec)
    results = {}
    for flavor in FLAVORS:
        assembled = assemble_spectrum(dec, flavor)
        oracle = brute_spectrum(graph, flavor)
        results[flavor] = multiset_equal(assembled, oracle)
    return VerifyOutcome(graph.order, relation, results)


# ---------------------------------------------------------------------------
# the duplication lemma


def _eigen_residual_ok(residual: float, mat, vec) -> bool:
    """Whether a residual of mat @ vec = lam vec is within LEMMA_TOL times
    ||mat||_inf ||vec||_inf, with no floor, so scaling vec scales both
    sides; false when the residual or the scale is nan or infinite."""
    scale = float(np.abs(mat).sum(axis=1).max(initial=0.0)) * float(np.abs(vec).max(initial=0.0))
    return residual <= LEMMA_TOL * scale < math.inf


@dataclass
class LiftResult:
    mu: float
    vector: np.ndarray
    matrix: np.ndarray
    residual: float


def duplicate_lift(b, j: int, m: int, lam: float, v) -> LiftResult:
    """Track an eigenpair through duplicating index j of a matrix m times.

    Given B with eigenpair (lam, v), the matrix A = B[ix, ix] for the
    index list ix that repeats j m times has the eigenvalue

        mu = lam + (sum_i B[i, j] / sum_i v[i]) * (m - 1) * v[j]

    with eigenvector w = v[ix].  When m = 1 or v[j] = 0 the shift vanishes
    and mu = lam without touching the quotient; at m = 1, A is B.  v must
    have a nonzero entry, and both zero tests (v[j] and the sum of v) are
    relative to ||v||_inf, so scaling v by a power of 2 scales w and keeps
    mu and the verdict.  (lam, v) is checked on B and the lifted pair on
    the explicitly built A, each at LEMMA_TOL relative to its scale
    (`_eigen_residual_ok`); a lifted pair that fails reports both the
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
    if not math.isfinite(lam):
        raise LiftError(f"eigenvalue must be finite, got {lam}")
    if not v.any():
        raise LiftError("eigenvector must have a nonzero entry")
    base_residual = float(np.max(np.abs(b @ v - lam * v)))
    if not _eigen_residual_ok(base_residual, b, v):
        raise LiftError(
            f"(lambda, v) is not an eigenpair of B (residual {base_residual:.3e})"
        )
    v_max = float(np.abs(v).max())
    if m == 1 or abs(v[j]) < 1e-12 * v_max:
        mu = float(lam)
    else:
        v_sum = float(v.sum())
        if abs(v_sum) < 1e-12 * v_max:
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
    if not _eigen_residual_ok(residual, a, w):
        rayleigh = float(w @ a @ w) / float(w @ w)
        raise LiftVerificationError(
            f"lifted pair fails verification: formula mu = {mu!r}, "
            f"Rayleigh quotient {rayleigh!r}, residual {residual:.3e}"
        )
    return LiftResult(mu, w, a, residual)

