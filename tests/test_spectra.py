"""Join decompositions, quotient matrices, spectrum assembly, the
duplicate lift, and the two-graph combination and shift lemma checks of
tests/reference.py."""

import dataclasses
import gc
import itertools
import math
import random
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import reference
from reference import (
    ShiftLemmaError,
    blow_up,
    boolean_pairing_report,
    check_relation_agreements,
    check_shift_lemma,
    column_space,
    connected_component_count,
    fiedler_check,
    fiedler_combine,
    gf_nullspace,
    gf_span_contains,
    provenance,
    rank,
    row_space,
    spectrum_from_pairs,
    zn_profile_by_divisor_scan,
)
from zdgspectra import graph as graph_module
from zdgspectra import numth
from zdgspectra import rings as rings_module
from zdgspectra import spectra as spectra_module
from zdgspectra.classes import ClassPartition, classes_for
from zdgspectra.counts import class_count_matrix, gl_order
from zdgspectra.eig import dense_eigenvalues
from zdgspectra.graph import GraphCapError, build_zdg, degree_matring
from zdgspectra.rings import (
    GF,
    MatRing,
    ProductRing,
    RingError,
    Zn,
    _all_subspaces,
    parse_ring_spec,
)
from zdgspectra.spectra import (
    FLAVORS,
    DecompositionError,
    Flavor,
    LiftError,
    LiftInapplicableError,
    LiftVerificationError,
    SpectrumMultiset,
    adjacency_matrix,
    assemble_adjacency_spectrum,
    assemble_laplacian_spectrum,
    assemble_spectrum,
    brute_spectrum,
    decompose,
    decomposition_semisimple_closed,
    duplicate_lift,
    laplacian_matrix,
    multiset_equal,
    ring_join_decomposition,
    spectrum_pair,
    verify_ring,
)


def graph_route(ring, relation="associate"):
    g = build_zdg(ring)
    return decompose(g, classes_for(g, relation))


def decomposition_of(spec, relation="associate"):
    return graph_route(parse_ring_spec(spec), relation)


def cell_kinds(dec):
    return ["complete" if c else "null" for c in dec.complete.tolist()]


def h_adjacency(dec):
    """H: the class table off its diagonal."""
    h = dec.table.copy()
    np.fill_diagonal(h, False)
    return h


def neighbor_weights(dec):
    """N_i, the total size of cell i's H-neighborhood, read off the degrees."""
    return (dec.degrees - (dec.sizes - 1) * dec.complete).tolist()


def regularity(dec):
    """r_i: n_i - 1 on a complete cell, 0 on a null one."""
    return [n - 1 if k == "complete" else 0 for n, k in zip(dec.sizes.tolist(), cell_kinds(dec))]


def laplacian_of(adj):
    """D - A from a bool adjacency matrix, built here and not by the package."""
    return np.diag(adj.sum(axis=1)).astype(float) - adj


def certificate(full, x, lam):
    """(||AX - X diag(lam)||_F, ||X^T X - I||_F): when both are small, the
    columns of X are orthonormal eigenvectors of `full` with eigenvalues
    lam, up to a Weyl bound of the residual."""
    residual = full @ x - x * np.asarray(lam)
    return (
        float(np.linalg.norm(residual)),
        float(np.linalg.norm(x.T @ x - np.eye(x.shape[1]))),
    )


# --- decomposition structure ---


def test_zn8_decomposition_and_quotients():
    dec = decomposition_of("Zn(8)")
    assert list(zip(dec.sizes.tolist(), cell_kinds(dec), regularity(dec))) == [
        (2, "null", 0),
        (1, "complete", 0),
    ]
    assert neighbor_weights(dec) == [1, 2]
    ca = spectra_module._join_parts(dec, "adjacency")[0]
    assert ca == pytest.approx(np.array([[0, math.sqrt(2)], [math.sqrt(2), 0]]))
    cn = spectra_module._join_parts(dec, "laplacian")[0]
    assert cn == pytest.approx(np.array([[1, -math.sqrt(2)], [-math.sqrt(2), 2]]))
    # C_N of a connected join always has eigenvalue 0; here the other is 3
    import numpy.linalg as la

    assert sorted(la.eigvalsh(cn)) == pytest.approx([0.0, 3.0], abs=1e-12)


def test_zn18_decomposition():
    dec = decomposition_of("Zn(18)")
    idx = {label: i for i, label in enumerate(dec.labels)}
    size = dict(zip(dec.labels, dec.sizes.tolist()))
    kind = dict(zip(dec.labels, cell_kinds(dec)))
    assert size["2"] == 6 and kind["2"] == "null"
    assert size["3"] == 2 and kind["3"] == "null"
    assert size["6"] == 2 and kind["6"] == "complete"
    assert size["9"] == 1
    # H-edges: 2-9, 3-6, 6-9 (products divisible by 18)
    h = h_adjacency(dec)
    assert h[idx["2"], idx["9"]] and h[idx["3"], idx["6"]] and h[idx["6"], idx["9"]]
    assert not h[idx["2"], idx["3"]] and not h[idx["2"], idx["6"]]
    assert not h[idx["3"], idx["9"]]


def test_complete_cell_regularity():
    dec = decomposition_of("Zn(16)")
    kind = dict(zip(dec.labels, cell_kinds(dec)))
    # r_i is the diagonal of C_A
    r = dict(zip(dec.labels, np.diag(spectra_module._join_parts(dec, "adjacency")[0]).tolist()))
    # the class of 4 is {4, 12} with 4*12 = 48 = 0 mod 16: complete, K_2
    assert kind["4"] == "complete"
    assert r["4"] == 1
    assert kind["2"] == "null"
    assert r["2"] == 0


def test_blow_up_reconstructs_bit_exact():
    for spec in ["Zn(8)", "Zn(18)", "Zn(36)", "M(2,GF(2))", "Zn(2)xZn(4)"]:
        ring = parse_ring_spec(spec)
        g = build_zdg(ring)
        for relation in ("associate", "neighborhood"):
            dec = decompose(g, classes_for(g, relation))
            assert np.array_equal(blow_up(dec), adjacency_matrix(g)), (spec, relation)


def test_closed_blow_up_is_the_graph_in_cell_order():
    # the closed route has no vertices of its own: its blow-up lays the
    # cells out one after another, in the graph route's class order on Z_n
    for n in range(2, 201):
        g = build_zdg(Zn(n))
        order = np.argsort(graph_route(Zn(n)).cell_of, kind="stable")
        closed = ring_join_decomposition(Zn(n), method="closed")
        assert np.array_equal(blow_up(closed), g.adjacency[np.ix_(order, order)]), n


@pytest.mark.parametrize("spec", ["M(2,GF(3))", "M(3,GF(2))", "M(2,GF(2))xGF(3)"])
def test_closed_blow_up_has_the_graph_degrees(spec):
    ring = parse_ring_spec(spec)
    closed = ring_join_decomposition(ring, method="closed")
    degrees = blow_up(closed).sum(axis=1)
    assert sorted(degrees.tolist()) == sorted(build_zdg(ring).degrees().tolist())


def test_decompose_rejects_mixed_cell():
    # a partition that is not a generalized join: {2,4} in Zn(8) has one
    # adjacent pair and 6 is joined to 4 but not to 2
    ring = Zn(8)
    g = build_zdg(ring)
    part = classes_for(build_zdg(ring), "associate")
    # the vertices 2, 4, 6 as the classes {2, 4} and {6}, keeping the claimed
    # kinds of the associate classes {2, 6} (null) and {4} (complete)
    bad = ClassPartition("associate", np.array([0, 0, 1]), part.kinds)
    with pytest.raises(DecompositionError, match="claimed null cell is actually complete"):
        decompose(g, bad)


def test_decompose_rejects_incomplete_cover():
    ring = Zn(8)
    g = build_zdg(ring)
    part = classes_for(build_zdg(ring), "associate")
    # ids for the first two of the three vertices only
    bad = ClassPartition("associate", part.cell_of[:2], part.kinds)
    with pytest.raises(DecompositionError, match="does not cover the vertex set"):
        decompose(g, bad)


def blocks_partition(relation, blocks, order):
    """The partition whose classes are the (members, kind) blocks, as the
    id array numbered by each block's smallest member."""
    blocks = sorted(blocks, key=lambda block: min(block[0]))
    cell_of = np.empty(order, dtype=np.intp)
    for n, (members, _) in enumerate(blocks):
        cell_of[members] = n
    return ClassPartition(relation, cell_of, [kind for _, kind in blocks])


@pytest.mark.parametrize(
    "blocks, message",
    [
        # Gamma(Z_8) is the path 2 - 4 - 6 on the vertex indices 0, 1, 2
        ([([0, 1, 2], "null")], "neither a complete nor an edgeless"),
        ([([0, 2], "complete"), ([1], "complete")], "claimed complete cell is actually null"),
        ([([0, 1], "complete"), ([2], "null")], "classes of 2 and 6 is not constant"),
    ],
)
def test_decompose_error_messages(blocks, message):
    bad = blocks_partition("associate", blocks, 3)
    with pytest.raises(DecompositionError, match=message):
        decompose(build_zdg(Zn(8)), bad)


# Gamma(Z_16): the vertices 2, 4, ..., 14 sit at the indices 0..6
@pytest.mark.parametrize(
    "blocks, message",
    [
        # {4, 12} is complete, claimed null; the mixed {6, 8, 10} comes later
        (
            [([0], "null"), ([1, 5], "null"), ([2, 3, 4], "null"), ([6], "null")],
            "claimed null cell is actually complete (representative 4)",
        ),
        # {4, 6, 8} is mixed; the null {10, 12}, claimed complete, comes later
        (
            [([0], "null"), ([1, 2, 3], "null"), ([4, 5], "complete"), ([6], "null")],
            "class of 4 induces neither a complete nor an edgeless subgraph",
        ),
        # valid cells {2, 14}, {4}, {6, 12}, {8, 10}; the pairs (0, 3) and
        # (1, 2) are not constant, and row-major order names (0, 3)
        (
            [([0, 6], "null"), ([1], "complete"), ([2, 5], "null"), ([3, 4], "complete")],
            "adjacency between the classes of 2 and 8 is not constant",
        ),
    ],
    ids=["claimed-before-mixed", "mixed-before-claimed", "pair-behind-valid-cells"],
)
def test_decompose_raises_the_first_failure(blocks, message):
    bad = blocks_partition("associate", blocks, 7)
    with pytest.raises(DecompositionError) as raised:
        decompose(build_zdg(Zn(16)), bad)
    assert str(raised.value) == message


def smallest_member_labels(ring, g, dec):
    """The ring's label of each class's smallest vertex, class by class."""
    firsts = np.unique(dec.cell_of, return_index=True)[1]
    return [ring.label(g.vertices[i]) for i in firsts.tolist()]


@pytest.mark.parametrize("spec", ["Zn(18)", "M(2,GF(4))", "M(2,GF(2))xGF(4)", "Zn(4)xZn(9)xGF(2)"])
def test_success_path_formats_no_label(spec, monkeypatch):
    """decompose, spectrum_pair and verify_ring format no label; the first
    read of `labels` formats them and the list is kept."""
    calls = []
    for cls in (Zn, GF, MatRing, ProductRing):
        original = cls.label
        monkeypatch.setattr(cls, "label", lambda self, a, f=original: calls.append(a) or f(self, a))
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    dec = decompose(g, classes_for(g, "associate"))
    spectrum_pair(dec)
    verify_ring(ring)
    assert calls == []
    monkeypatch.undo()
    assert dec.labels == smallest_member_labels(ring, g, dec)
    assert dec.labels is dec.labels


@pytest.mark.parametrize("spec", ["Zn(720)", "GF(4)xZn(6)", "M(3,GF(2))", "M(2,GF(3))xZn(12)"])
def test_closed_route_formats_no_label(spec, monkeypatch):
    """The closed route keeps the representatives' element indices and
    formats their labels on the first read of `labels` only."""
    calls = []
    for cls in (Zn, GF, MatRing, ProductRing):
        original = cls.label
        monkeypatch.setattr(cls, "label", lambda self, a, f=original: calls.append(a) or f(self, a))
    dec = decomposition_semisimple_closed(parse_ring_spec(spec))
    spectrum_pair(dec)
    assert calls == []
    labels = dec.labels
    assert len(calls) >= 1 and dec.labels is labels


def test_decomposition_does_not_keep_its_graph_alive():
    ring = parse_ring_spec("M(2,GF(2))xZn(4)")
    g = build_zdg(ring)
    dec = decompose(g, classes_for(g, "associate"))
    expected = smallest_member_labels(ring, g, dec)
    ref = weakref.ref(g)
    del g
    graph_module._build_cached.cache_clear()
    gc.collect()
    assert ref() is None
    assert dec.labels == expected


def reference_decompose(g, partition):
    """decompose by its definition, one block at a time: each cell's induced
    block must be complete or edgeless (and match a claimed kind), then each
    class pair must be all-or-nothing.  Returns (cells, H, N_i) with cells
    as (size, kind, label, members)."""
    adj = g.adjacency
    classes = partition.classes
    if sorted(i for c in classes for i in c.members) != list(range(g.order)):
        raise DecompositionError("partition does not cover the vertex set exactly")
    cells = []
    for c in classes:
        label = g.ring.label(g.vertices[c.representative])
        n = len(c.members)
        inner = adj[np.ix_(c.members, c.members)][~np.eye(n, dtype=bool)]
        if inner.any() and not inner.all():
            raise DecompositionError(
                f"class of {label} induces neither a complete nor an edgeless subgraph"
            )
        observed = "complete" if inner.any() else "null"
        if n > 1 and c.kind != observed:
            raise DecompositionError(
                f"claimed {c.kind} cell is actually {observed} (representative {label})"
            )
        cells.append((n, observed if n > 1 else c.kind, label, list(c.members)))
    m = len(classes)
    h = np.zeros((m, m), dtype=bool)
    for i, j in itertools.combinations(range(m), 2):
        block = adj[np.ix_(classes[i].members, classes[j].members)]
        if block.any() and not block.all():
            raise DecompositionError(
                f"adjacency between the classes of {cells[i][2]} and {cells[j][2]} is not constant"
            )
        h[i, j] = h[j, i] = block.all()
    weights = [sum(cells[j][0] for j in range(m) if h[i, j]) for i in range(m)]
    return cells, h, weights


def bad_partitions(partition, rng):
    """The partition itself, then one seeded edit of each sort: two classes
    merged, one vertex moved, one claimed kind flipped."""
    blocks = [(list(c.members), c.kind) for c in partition.classes]
    yield blocks
    if len(blocks) > 1:
        i, j = sorted(rng.sample(range(len(blocks)), 2))
        yield [b for k, b in enumerate(blocks) if k not in (i, j)] + [
            (blocks[i][0] + blocks[j][0], blocks[i][1])
        ]
        movable = [k for k, (members, _) in enumerate(blocks) if len(members) > 1]
        if movable:
            i = rng.choice(movable)
            j = rng.choice([k for k in range(len(blocks)) if k != i])
            moved = [(list(members), kind) for members, kind in blocks]
            moved[j][0].append(moved[i][0].pop(rng.randrange(len(moved[i][0]))))
            yield moved
    if blocks:
        i = rng.randrange(len(blocks))
        flip = {"complete": "null", "null": "complete"}[blocks[i][1]]
        yield [(members, flip if k == i else kind) for k, (members, kind) in enumerate(blocks)]


@pytest.mark.parametrize(
    "specs",
    [[f"Zn({n})" for n in range(8, 61)], ["M(2,GF(2))"], ["Zn(2)xZn(4)"], ["Zn(4620)"]],
    ids=["Zn(8..60)", "M(2,GF(2))", "Zn(2)xZn(4)", "Zn(4620)"],
)
def test_decompose_equals_the_per_block_reference(specs):
    """The blow-up check gives the reference's cells, H and N_i, or its
    first error, on true and broken partitions; Zn(4620) has 3,659
    vertices."""
    rng = random.Random(12)
    outcomes = set()
    for spec in specs:
        g = build_zdg(parse_ring_spec(spec))
        for relation in ("associate", "neighborhood"):
            for blocks in bad_partitions(classes_for(g, relation), rng):
                partition = blocks_partition(relation, blocks, g.order)
                try:
                    expected = reference_decompose(g, partition)
                except DecompositionError as error:
                    with pytest.raises(DecompositionError) as raised:
                        decompose(g, partition)
                    assert str(raised.value) == str(error), (spec, relation, blocks)
                    kinds = ("neither", "claimed", "not constant")
                    outcomes.add(next(k for k in kinds if k in str(error)))
                    continue
                dec = decompose(g, partition)
                members = [
                    np.flatnonzero(dec.cell_of == i).tolist() for i in range(dec.class_count)
                ]
                cells = list(zip(dec.sizes.tolist(), cell_kinds(dec), dec.labels, members))
                assert cells == expected[0], (spec, relation)
                assert np.array_equal(h_adjacency(dec), expected[1]), (spec, relation)
                assert neighbor_weights(dec) == expected[2], (spec, relation)
                outcomes.add("ok")
    if len(specs) > 1:
        assert outcomes == {"ok", "neither", "claimed", "not constant"}, outcomes


@pytest.mark.parametrize("spec", ["Zn(720)", "Zn(4620)"])
def test_decompose_peak_memory_is_one_adjacency(spec):
    """The success path holds no permuted copy of the adjacency and no
    second layout: at most row blocks of the blow-up."""
    g = build_zdg(parse_ring_spec(spec))
    partition = classes_for(g, "associate")
    tracemalloc.start()
    try:
        decompose(g, partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * g.order**2, peak / g.order**2


def test_decompose_checks_the_join_in_row_blocks():
    """The blow-up is compared with the adjacency a row block at a time:
    no V x V array besides the graph's own."""
    g = build_zdg(Zn(9998))
    partition = classes_for(g, "associate")
    tracemalloc.start()
    try:
        decompose(g, partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 4999 and len(rings_module.row_blocks(g.order, g.order)) > 1
    assert peak < 0.25 * g.order**2, peak / g.order**2


@pytest.mark.parametrize(
    "merged, message",
    [
        # the classes of 4 and 8, merged, differ toward the class of 200 only
        ((1, 2), "adjacency between the classes of 4 and 200 is not constant"),
        # the last two classes, merged, form one mixed cell
        ((12, 13), "class of 250 induces neither a complete nor an edgeless subgraph"),
    ],
)
def test_decompose_reports_a_mismatch_past_the_first_row_block(merged, message):
    """Gamma(Z_1000) has 599 vertices, so it takes several row blocks, and
    the first of them lies inside the first class, which these merges leave
    consistent: every mismatch is found past it, with the same text."""
    g = build_zdg(Zn(1000))
    blocks = [(c.members, c.kind) for c in classes_for(g, "associate").classes]
    first = rings_module.row_blocks(g.order, g.order)[0]
    assert first.stop <= len(blocks[0][0]) and len(blocks) == 14
    i, j = merged
    kept = [block for k, block in enumerate(blocks) if k not in merged]
    bad = blocks_partition("associate", kept + [(blocks[i][0] + blocks[j][0], blocks[i][1])], g.order)
    with pytest.raises(DecompositionError) as raised:
        decompose(g, bad)
    assert str(raised.value) == message


@pytest.mark.parametrize("spec", ["GF(4)", "Zn(7)"])
def test_field_decomposes_to_no_cells(spec):
    for relation in ("associate", "neighborhood"):
        dec = decomposition_of(spec, relation)
        assert dec.class_count == 0 and dec.labels == [] and dec.table.shape == (0, 0)
        assert blow_up(dec).shape == (0, 0)


# --- assembled spectra against the dense oracle ---


def test_zn8_spectra_anchor():
    adj, lap = spectrum_pair(ring_join_decomposition(Zn(8)))
    assert adj.values == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-9)
    assert lap.values == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)


def test_zn9_spectra_anchor():
    adj, lap = spectrum_pair(ring_join_decomposition(Zn(9)))
    assert adj.values == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert lap.values == pytest.approx([0.0, 2.0], abs=1e-12)


def test_prime_gives_empty_spectra():
    adj, lap = spectrum_pair(ring_join_decomposition(Zn(13)))
    assert adj.values == [] and lap.values == []


def test_provenance_lengths_align():
    dec = decomposition_of("Zn(18)")
    s = assemble_adjacency_spectrum(dec)
    assert len(s.values) == len(provenance(s)) == 11
    assert provenance(s).count("quotient") == dec.class_count


def test_assembly_matches_brute_small_sweep():
    for n in range(6, 60):
        ring = Zn(n)
        g = build_zdg(ring)
        if g.order == 0:
            continue
        for relation in ("associate", "neighborhood"):
            dec = decompose(g, classes_for(g, relation))
            for flavor, assemble in (
                ("adjacency", assemble_adjacency_spectrum),
                ("laplacian", assemble_laplacian_spectrum),
            ):
                ours = assemble(dec)
                ref = brute_spectrum(g, flavor)
                match = multiset_equal(ours, ref)
                assert match.max_deviation <= 1e-7, (n, relation, flavor, match.max_deviation)


def test_brute_spectrum_certified_by_residuals():
    # the oracle's values against eigenvectors of the graph's own matrix,
    # with the residual taken from the adjacency and a Laplacian built
    # here; on Z_2^4 and Z_2^5 every associate class is a singleton, so
    # the assembled route solves the graph's own matrix and this residual
    # is the independent check
    for spec in ("Zn(36)", "x".join(["Zn(2)"] * 4), "x".join(["Zn(2)"] * 5)):
        g = build_zdg(parse_ring_spec(spec))
        for flavor, matrix, full in (
            ("adjacency", adjacency_matrix, g.adjacency.astype(float)),
            ("laplacian", laplacian_matrix, laplacian_of(g.adjacency)),
        ):
            brute = brute_spectrum(g, flavor)
            assert provenance(brute) == ["brute"] * g.order
            _, x = np.linalg.eigh(matrix(g))
            residual, loss = certificate(full, x, brute.values)
            assert residual <= 1e-9 and loss <= 1e-12, (spec, flavor, residual, loss)


def test_matrix_ring_spectra_match_brute():
    for q in (2, 3):
        ring = MatRing(2, GF(q))
        out = verify_ring(ring, relation="associate")
        assert out.matched, (q, out.results)
        out = verify_ring(ring, relation="neighborhood")
        assert out.matched, (q, out.results)


def assert_routes_equal(closed, via_graph, context):
    """Equal cells in equal order, and bit-identical runs, provenance included."""
    for name in ("sizes", "complete", "table"):
        assert np.array_equal(getattr(closed, name), getattr(via_graph, name)), (context, name)
    assert closed.labels == via_graph.labels, context
    for a, b in zip(spectrum_pair(closed), spectrum_pair(via_graph)):
        assert a.runs == b.runs, context


def test_closed_zn_route_equals_graph_route():
    for n in (8, 16, 18, 30, 36, 72, 100, 144):
        closed = ring_join_decomposition(Zn(n), method="closed")
        assert_routes_equal(closed, graph_route(Zn(n)), n)


def test_closed_semisimple_route_equals_graph_route():
    for spec in [
        "Zn(2)xZn(3)",
        "Zn(2)xZn(2)xZn(2)",
        "M(2,GF(2))xGF(2)",
        "M(2,GF(3))",
        "Zn(4)xM(2,GF(3))",
        "Zn(8)xZn(9)xGF(2)",
        "M(3,GF(2))",
        "M(2,GF(4))xGF(3)",
        "M(2,GF(2))xM(2,GF(3))xZn(2)",
    ]:
        closed = decomposition_semisimple_closed(parse_ring_spec(spec))
        assert_routes_equal(closed, graph_route(parse_ring_spec(spec)), spec)


def test_closed_zn_cells_equal_zn_profile():
    # the divisor-by-divisor scan of tests/reference.py is the oracle for
    # the CRT-built Z_n table: same classes in the same order
    for n in [n for n in range(4, 401) if not numth.is_prime(n)] + [720720]:
        dec = ring_join_decomposition(Zn(n), method="closed")
        profile = zn_profile_by_divisor_scan(n)["entries"]
        assert dec.labels == [str(e["d"]) for e in profile], n
        cells = list(zip(dec.sizes.tolist(), cell_kinds(dec)))
        assert cells == [(e["size"], e["kind"]) for e in profile], n
        neighbors = [[profile[j]["d"] for j in np.flatnonzero(row)] for row in h_adjacency(dec)]
        assert neighbors == [e["neighbors"] for e in profile], n
        assert neighbor_weights(dec) == [e["N"] for e in profile], n


@pytest.mark.parametrize(
    "spec", ["M(5,GF(2))", "M(3,GF(3))xM(3,GF(3))", "Zn(963761198400)", "Zn(97821761637600)"]
)
def test_closed_route_refuses_over_the_cap_before_building(spec):
    # 49,972, 115,598, 6,718 and 17,278 cells against the 4,096-cell cap;
    # the tables themselves would take gigabytes or minutes
    start = time.perf_counter()
    with pytest.raises(RingError, match="exceed the closed-route cap"):
        ring_join_decomposition(parse_ring_spec(spec), method="closed")
    assert time.perf_counter() - start < 1.0


def test_auto_route_names_both_refusals():
    # each method raises its own route's refusal: `auto` (the closed route
    # for the associate relation) the class cap's, with no fallback to the
    # graph route and no chained cap error, and `graph` the vertex cap's
    ring = Zn(963761198400)
    with pytest.raises(RingError) as auto:
        ring_join_decomposition(ring)
    assert type(auto.value) is RingError and auto.value.__cause__ is None
    assert str(auto.value) == "Zn(963761198400): 6718 zero-divisor classes exceed the closed-route cap of 4096"
    with pytest.raises(GraphCapError) as graph_only:
        ring_join_decomposition(ring, method="graph")
    assert str(graph_only.value) == "Gamma(Zn(963761198400)) has 806101243199 vertices, over the cap 5000"


@pytest.mark.parametrize("spec", ["GF(1000003)xZn(2)", "GF(1048576)xZn(2)"])
def test_closed_route_reads_a_large_prime_field_without_its_tables(spec, monkeypatch):
    # neither the modulus (seconds of search for GF(2^20)) nor the log tables are needed
    def no_search(p, k):
        raise AssertionError(f"searched for a modulus of GF({p}^{k})")

    monkeypatch.setattr(rings_module, "_smallest_irreducible", no_search)
    tracemalloc.start()
    try:
        ring = parse_ring_spec(spec)
        dec = ring_join_decomposition(ring, method="closed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(dec.sizes.tolist()) == [1, ring.factors[0].q - 1]
    assert peak < 1 << 20  # the field's log tables alone take tens of MB


# 2^11 - 2 = 2,046 classes, read without enumerating the ring
GF2_11 = "x".join(["GF(2)"] * 11)


def test_join_decomposition_sums_degrees_a_row_block_at_a_time():
    """The degrees read the bool class table a row block at a time, so no
    m x m int64 cast of it is made: about 8 m^2 bytes here."""
    dec = decomposition_semisimple_closed(parse_ring_spec(GF2_11))
    tracemalloc.start()
    try:
        again = spectra_module.JoinDecomposition(dec.sizes, dec.table, dec.ring, dec.reps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.class_count == 2046 and np.array_equal(again.degrees, dec.degrees)
    assert peak < 1 << 20, peak


def test_join_parts_build_the_quotient_in_place():
    """Each flavor's quotient is the one m x m float64 array its assembly
    makes: the size products, their roots, the product with the bool table
    and the Laplacian's sign share it."""
    dec = decomposition_semisimple_closed(parse_ring_spec(GF2_11))
    m = dec.class_count
    assert m >= 2000
    for flavor in ("adjacency", "laplacian"):
        tracemalloc.start()
        try:
            quotient, _ = spectra_module._join_parts(dec, flavor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert quotient.shape == (m, m), flavor
        assert peak < 1.1 * m * m * 8, (flavor, peak / (m * m * 8))
        del quotient


def test_closed_route_on_a_large_prime_modulus():
    # Z_n with n = 2^61 - 1 is a field: no zero-divisors, so no cells
    start = time.perf_counter()
    dec = ring_join_decomposition(Zn(2**61 - 1), method="closed")
    assert dec.class_count == 0 and dec.sizes.tolist() == []
    assert time.perf_counter() - start < 1.0


def test_closed_route_refuses_sizes_past_int64():
    for spec in ("Zn(1180591620717411303424)", "Zn(4)xZn(1180591620717411303424)"):
        with pytest.raises(RingError, match="2\\^63 or more elements"):
            ring_join_decomposition(parse_ring_spec(spec), method="closed")


def factor_class(f, a):
    """The class of the component a in the factor f, by elimination: for a
    matrix, (field, n, rank, RREF basis of the right kernel, column space,
    row space); a field is n = 1, rank 1 for a unit and 0 for 0."""
    if isinstance(f, MatRing):
        row = row_space(f, a)
        return f.field, f.n, rank(f, a), gf_nullspace(f.field, row, f.n), column_space(f, a), row
    return f, 1, int(a != 0), None, None, None


def cell_classes(ring, dec):
    """Per cell, the factor classes of its representative element."""
    factors = ring.factors if isinstance(ring, ProductRing) else [ring]
    out = []
    for element in ring.decode(dec.reps):
        components = element if isinstance(ring, ProductRing) else (element,)
        out.append([factor_class(f, a) for f, a in zip(factors, components)])
    return out


def all_cell_keys(ring):
    """(rank, row space, column space) per factor for every class but the
    all-zero and the all-unit one, rebuilt from `_all_subspaces`."""
    per_factor = []
    for f in ring.factors if isinstance(ring, ProductRing) else [ring]:
        if isinstance(f, MatRing):
            spaces = [list(_all_subspaces(f.field, f.n, r)) for r in range(f.n + 1)]
            per_factor.append([(r, row, col) for r, s in enumerate(spaces) for row in s for col in s])
        else:
            per_factor.append([(0, None, None), (1, None, None)])
    return list(itertools.product(*per_factor))[1:-1]


def left_kills_by_pairs(x, y) -> bool:
    """Does x * y = 0 hold in one factor, at class level: the pairwise
    span check the closed route's tables replace."""
    field, n, rank_x, kernel, _, _ = x
    _, _, rank_y, _, col, _ = y
    if rank_x == 0 or rank_y == 0:
        return True
    if rank_x == n or rank_y == n:
        return False
    return gf_span_contains(field, kernel, col, n)


def closed_h_by_pairs(classes):
    m = len(classes)
    h = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            left = all(map(left_kills_by_pairs, classes[i], classes[j]))
            h[i, j] = h[j, i] = left or all(map(left_kills_by_pairs, classes[j], classes[i]))
    return h


def cell_keys(classes):
    return [tuple((rank, row, col) for _, _, rank, _, col, row in cell) for cell in classes]


@pytest.mark.parametrize(
    "spec",
    [
        "M(3,GF(2))",
        "M(2,GF(3))xM(2,GF(2))",
        "M(2,GF(2))xGF(3)xGF(4)",
        "M(2,GF(4))",
        "M(2,GF(8))xGF(3)",
        "M(2,GF(9))",
    ],
)
def test_closed_h_equals_pairwise_span_checks(spec):
    # each cell's factor classes are read off its representative by
    # elimination: every class but 0 and the units once, in ascending
    # order of the representatives, with H from pairwise span checks
    ring = parse_ring_spec(spec)
    dec = decomposition_semisimple_closed(ring)
    classes = cell_classes(ring, dec)
    assert sorted(cell_keys(classes), key=repr) == sorted(all_cell_keys(ring), key=repr)
    assert (np.diff(dec.reps) > 0).all()
    assert np.array_equal(h_adjacency(dec), closed_h_by_pairs(classes))


def test_closed_m4_f2_spectra():
    # 45,375 vertices in 1,675 classes: no enumeration, only the traces
    # and the length are checked
    ring = parse_ring_spec("M(4,GF(2))")
    dec = decomposition_semisimple_closed(ring)
    classes = cell_classes(ring, dec)
    assert dec.class_count == class_count_matrix(4, 2) == 1675
    assert sorted(cell_keys(classes)) == sorted(all_cell_keys(ring))
    assert (np.diff(dec.reps) > 0).all()
    ranks = [cell[0][2] for cell in classes]
    assert dec.sizes.tolist() == [gl_order(r, 2) for r in ranks]
    adj, lap = spectrum_pair(dec)
    assert len(adj) == len(lap) == dec.order == 45375
    degree_sum = sum(
        n * degree_matring(4, 2, r, complete)
        for n, complete, r in zip(dec.sizes.tolist(), dec.complete.tolist(), ranks)
    )
    assert abs(math.fsum(v * k for v, k, _ in adj.runs)) <= 1e-9 * degree_sum
    assert abs(math.fsum(v * k for v, k, _ in lap.runs) - degree_sum) <= 1e-9 * degree_sum


def test_ring_join_decomposition_methods():
    ring = Zn(18)
    # only the graph route keeps each vertex's cell; `auto` takes the closed one
    for method, graph_route in (("auto", False), ("graph", True), ("closed", False)):
        dec = ring_join_decomposition(ring, "associate", method=method)
        assert (dec.cell_of is not None) == graph_route, method
        adj, lap = spectrum_pair(dec)
        g = build_zdg(ring)
        assert multiset_equal(adj, brute_spectrum(g, "adjacency")).matched, method
        assert multiset_equal(lap, brute_spectrum(g, "laplacian")).matched, method
    # closed method only exists for the associate relation
    with pytest.raises(Exception):
        ring_join_decomposition(ring, "neighborhood", method="closed")
    # for any other relation `auto` takes the graph route
    assert ring_join_decomposition(ring, "neighborhood").cell_of is not None
    assert ring_join_decomposition(Zn(30), "neighborhood").cell_of is not None


@pytest.mark.parametrize("spec", ["Zn(4620)", "M(2,GF(8))xZn(2)", "Zn(4)xM(2,GF(3))"])
def test_auto_route_builds_no_graph_where_the_class_table_takes_the_ring(spec, monkeypatch):
    # each ring's graph fits under the default caps
    def no_graph(ring):
        raise AssertionError(f"built the graph of {ring.spec_string()}")

    monkeypatch.setattr(graph_module, "_build", no_graph)
    monkeypatch.setattr(graph_module, "_build_cached", no_graph)
    ring = parse_ring_spec(spec)
    assert ring.vertex_count() <= graph_module.DEFAULT_VERTEX_CAP
    assert ring_join_decomposition(ring).cell_of is None


def test_verify_ring_reports():
    out = verify_ring(parse_ring_spec("Zn(30)"))
    assert out.ring_spec == "Zn(30)"
    assert set(out.results) == {"adjacency", "laplacian"}
    assert out.matched
    assert out.max_deviation <= 1e-7


def test_verify_ring_checks_the_closed_route_on_criterion_3_rings(monkeypatch):
    """Where `auto` takes the closed route, verify_ring requires the closed
    decomposition to equal the graph's and assembles it: the spectra it
    checks are the ones `zdg spectrum` prints."""
    from test_acceptance import MATRIX_RINGS, SEMISIMPLE_RINGS

    closed, assembled = [], []
    real_closed, real_assemble = decomposition_semisimple_closed, assemble_spectrum
    monkeypatch.setattr(
        spectra_module, "decomposition_semisimple_closed", lambda ring: closed.append(ring) or real_closed(ring)
    )
    monkeypatch.setattr(
        spectra_module,
        "assemble_spectrum",
        lambda dec, flavor: assembled.append(dec.cell_of is None) or real_assemble(dec, flavor),
    )
    specs = [f"Zn({n})" for n in range(6, 201)] + MATRIX_RINGS + SEMISIMPLE_RINGS
    for spec in specs:
        out = verify_ring(parse_ring_spec(spec))
        assert out.matched, (spec, out.results)
    assert [ring.spec_string() for ring in closed] == specs
    assert assembled == [True] * 2 * len(specs)


def corrupt_the_closed_route(monkeypatch, corrupt):
    """Pass each closed decomposition's sizes and table through `corrupt`."""

    def closed(ring):
        dec = decomposition_semisimple_closed(ring)
        sizes, table = dec.sizes.copy(), dec.table.copy()
        corrupt(sizes, table)
        return spectra_module.JoinDecomposition(sizes, table, dec.ring, dec.reps)

    monkeypatch.setattr(spectra_module, "decomposition_semisimple_closed", closed)


def flip_one_kill(sizes, table):
    # Z_36's cells are the classes of 2, 3, 4, 6, 9, 12 and 18; 3 times 12 is 0
    table[1, 5] = table[5, 1] = not table[1, 5]


def one_wrong_size(sizes, table):
    sizes[3] += 1  # the class of 6


@pytest.mark.parametrize("corrupt, label", [(flip_one_kill, "3"), (one_wrong_size, "6")], ids=["kill", "size"])
def test_verify_ring_refuses_a_closed_route_unlike_the_graph(corrupt, label, monkeypatch):
    corrupt_the_closed_route(monkeypatch, corrupt)
    message = f"the closed route differs from the graph route at the class of {label}"
    with pytest.raises(DecompositionError, match=f"^{message}$"):
        verify_ring(Zn(36))
    # the other relations have no closed route to check
    assert verify_ring(Zn(36), "neighborhood").matched


def test_verify_ring_past_the_class_cap_checks_the_graph_route(monkeypatch):
    # where the class table refuses the ring there is no closed route to
    # hold equal, and the graph's decomposition meets the oracle alone
    def unexpected(ring):
        raise AssertionError("built a closed decomposition past the class cap")

    monkeypatch.setattr(rings_module, "CLOSED_CELL_CAP", 2)
    monkeypatch.setattr(spectra_module, "decomposition_semisimple_closed", unexpected)
    assert verify_ring(Zn(30)).matched


def test_verify_ring_solves_each_oracle_once(monkeypatch):
    """Both relations of verify_ring check the one cached graph, so each
    flavor's order-|V| solve runs once; the results are those of a graph
    built afresh."""
    ring = Zn(72)
    graph_module._build_cached.cache_clear()
    orders = []

    def counting(m):
        orders.append(len(m))
        return dense_eigenvalues(m)

    monkeypatch.setattr(spectra_module, "dense_eigenvalues", counting)
    relations = ("associate", "neighborhood")
    outcomes = [verify_ring(ring, relation) for relation in relations]
    g = build_zdg(ring)
    assert orders.count(g.order) == 2
    assert brute_spectrum(g, "laplacian") is brute_spectrum(g, "laplacian")
    assert orders.count(g.order) == 2

    fresh = graph_module._build(ring)
    assert fresh._oracle == {}
    for relation, out in zip(relations, outcomes):
        dec = decompose(fresh, classes_for(fresh, relation))
        for flavor in ("adjacency", "laplacian"):
            ref = multiset_equal(assemble_spectrum(dec, flavor), brute_spectrum(fresh, flavor))
            assert out.results[flavor].matched == ref.matched
            assert out.results[flavor].max_deviation == ref.max_deviation


def test_verify_ring_partitions_the_graph_built_under_its_cap(monkeypatch):
    """Every relation partitions the one graph verify_ring built under the
    caller's cap, so a default cap below |V| refuses none of them."""
    monkeypatch.setattr(graph_module, "DEFAULT_VERTEX_CAP", 10)
    ring = Zn(30)
    graph_module._build_cached.cache_clear()
    for relation in ("associate", "neighborhood"):
        out = verify_ring(ring, relation, vertex_cap=100)
        assert out.order == 21 and out.matched, (relation, out.results)
    assert graph_module._build_cached.cache_info().misses == 1


def test_every_relation_reads_one_graph_per_ring():
    ring = parse_ring_spec("M(2,GF(2))xZn(4)")
    graph_module._build_cached.cache_clear()
    check_relation_agreements(build_zdg(ring, vertex_cap=20000))
    for relation in ("associate", "neighborhood"):
        assert verify_ring(ring, relation, vertex_cap=6000).matched, relation
    assert graph_module._build_cached.cache_info().misses == 1


def test_replaced_graph_recomputes_its_oracle(monkeypatch):
    g = build_zdg(Zn(48))
    before = brute_spectrum(g, "adjacency")
    solves = []

    def counting(m):
        solves.append(len(m))
        return dense_eigenvalues(m)

    monkeypatch.setattr(spectra_module, "dense_eigenvalues", counting)
    copy = dataclasses.replace(g)
    assert copy._oracle == {}
    after = brute_spectrum(copy, "adjacency")
    assert solves == [g.order]
    assert after is not before and after.runs == before.runs


@pytest.mark.parametrize("spec", ["Zn(30)", "Zn(64)", "M(2,GF(2))", "Zn(2)xZn(2)xZn(2)"])
def test_laplacian_matrix_equals_d_minus_a(spec):
    g = build_zdg(parse_ring_spec(spec))
    a = g.adjacency.astype(np.float64)
    ref = np.diag(a.sum(1)) - a
    lap = laplacian_matrix(g)
    assert lap.dtype == ref.dtype and np.array_equal(lap, ref)
    assert np.array_equal(np.signbit(lap), np.signbit(ref))


# --- trace and component invariants ---


INVARIANT_RINGS = ["Zn(24)", "Zn(64)", "M(2,GF(2))", "Zn(2)xZn(3)xZn(5)", "Zn(4)xZn(9)"]


@pytest.mark.parametrize("spec", INVARIANT_RINGS)
def test_trace_identities(spec):
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    dec = decompose(g, classes_for(g, "associate"))
    adj = assemble_adjacency_spectrum(dec)
    lap = assemble_laplacian_spectrum(dec)
    assert abs(sum(adj.values)) <= 1e-6
    assert abs(sum(lap.values) - 2 * g.edge_count) <= 1e-6


@pytest.mark.parametrize("spec", INVARIANT_RINGS)
def test_laplacian_positivity_and_components(spec):
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    dec = decompose(g, classes_for(g, "associate"))
    lap = assemble_laplacian_spectrum(dec)
    assert min(lap.values) >= -1e-8
    zero_mult = sum(1 for v in lap.values if abs(v) < 1e-6)
    assert zero_mult == connected_component_count(g)


# --- multiset comparison semantics ---


def test_multiset_equal_tolerance_edges():
    a = spectrum_from_pairs([(0.0, "x")])
    b = spectrum_from_pairs([(1e-06, "x")])
    # matched at DEFAULT_TOL, 1e-7; a caller with a looser gate reads max_deviation
    m = multiset_equal(a, b)
    assert not m.matched and m.max_deviation == 1e-06 and m.max_deviation <= 1e-5
    c = spectrum_from_pairs([(0.0, "x"), (0.0, "x")])
    m = multiset_equal(a, c)
    assert not m.matched and m.length_mismatch and not m.max_deviation <= 1e-5


@pytest.mark.parametrize(
    "s1, s2",
    [
        ([math.nan], [1.0]),
        ([math.inf], [math.inf]),
        ([1.0], [-math.inf]),
        ([0.0, math.nan], [0.0, 0.0]),
        (SpectrumMultiset([(1.0, 1, "quotient")]), [math.nan]),
    ],
    ids=["nan", "inf", "minus-inf", "nan-among-finite", "runs-against-nan"],
)
def test_multiset_equal_fails_on_a_non_finite_value(s1, s2):
    # no tolerance can place a nan or an inf, so neither side may hold one
    for m in (multiset_equal(s1, s2), multiset_equal(s2, s1)):
        assert (m.matched, m.max_deviation, m.length_mismatch) == (False, math.inf, False)


def test_fiedler_check_fails_on_a_nan_prediction(monkeypatch):
    combine = reference.fiedler_combine
    monkeypatch.setattr(reference, "fiedler_combine", lambda *a: [math.nan] + combine(*a)[1:])
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    m = fiedler_check(a, a, u, u, 0.5)
    assert (m.matched, m.max_deviation) == (False, math.inf)


def test_spectrum_multiset_validation():
    s = SpectrumMultiset([(-1.0, 2, "cell-inherited"), (0.5, 1, "quotient")])
    assert len(s) == 3
    assert s.values == [-1.0, -1.0, 0.5]
    assert provenance(s) == ["cell-inherited", "cell-inherited", "quotient"]
    with pytest.raises(AssertionError):
        SpectrumMultiset([(1.0, 1, "a"), (0.0, 1, "b")])  # runs not ascending
    with pytest.raises(AssertionError):
        SpectrumMultiset([(0.0, 0, "a")])  # empty run
    with pytest.raises(AssertionError):
        SpectrumMultiset([(math.nan, 1, "a")])  # not finite


# --- run-form assembly ---


def per_vertex_reference(dec, flavor):
    """Assembly with one (value, provenance) pair per eigenvalue, sorted by
    `spectrum_from_pairs`: the reference the run form must reproduce exactly.  It
    solves the quotient with the same solver as `_assemble`, so that the
    comparison is about how runs expand, not about the eigensolver."""
    pairs = []
    weights = neighbor_weights(dec)
    for size, kind, big_n in zip(dec.sizes.tolist(), cell_kinds(dec), weights):
        complete = kind == "complete"
        if flavor == "adjacency":
            inherited = -1.0 if complete else 0.0
        else:
            inherited = float(big_n + size) if complete else float(big_n)
        pairs.extend((inherited, "cell-inherited") for _ in range(size - 1))
    if dec.class_count:
        pairs.extend((v, "quotient") for v in dense_eigenvalues(spectra_module._join_parts(dec, flavor)[0]))
    return spectrum_from_pairs(pairs)


def run_form_decompositions():
    """(decomposition, full bool adjacency) pairs: the graph's own matrix on
    the graph route, the blow-up on the closed one."""
    out = []
    for n in range(6, 61):
        g = build_zdg(Zn(n))
        for relation in ("associate", "neighborhood"):
            out.append((decompose(g, classes_for(g, relation)), g.adjacency))
    dec = decomposition_semisimple_closed(parse_ring_spec("M(2,GF(3))xGF(2)"))
    out.append((dec, blow_up(dec)))
    return out


def test_runs_expand_to_per_vertex_assembly():
    for dec, _ in run_form_decompositions():
        for flavor in ("adjacency", "laplacian"):
            ours = assemble_spectrum(dec, flavor)
            ref = per_vertex_reference(dec, flavor)
            assert ours.values == ref.values, (dec.labels[0], flavor)
            assert provenance(ours) == provenance(ref), (dec.labels[0], flavor)


def test_quotient_runs_certified_by_lifted_residuals():
    # each quotient eigenvector y lifts to an eigenvector of the whole
    # matrix, y_i / sqrt(n_i) on every vertex of cell i (the equitable
    # partition lift); the assembled quotient runs must be its eigenvalues
    for dec, adj in run_form_decompositions():
        cell_of = dec.cell_of
        if cell_of is None:
            cell_of = np.repeat(np.arange(dec.class_count), dec.sizes)
        for flavor, full in (("adjacency", adj.astype(float)), ("laplacian", laplacian_of(adj))):
            ours = [v for v, _, tag in assemble_spectrum(dec, flavor).runs if tag == "quotient"]
            _, y = np.linalg.eigh(spectra_module._join_parts(dec, flavor)[0])
            x = y[cell_of] / np.sqrt(dec.sizes[cell_of])[:, None]
            residual, loss = certificate(full, x, ours)
            assert residual <= 1e-9 and loss <= 1e-12, (dec.labels[0], flavor, residual, loss)


def signless_laplacian(graph):
    """D + A of a graph, built here and not by the package."""
    return np.diag(graph.degrees()).astype(float) + graph.adjacency


# the signless Laplacian D + A as one entry of the flavor table
SIGNLESS = Flavor(lambda dec: (1, dec.degrees), signless_laplacian)


def test_assembly_takes_a_flavor_neither_route_uses(monkeypatch):
    # the signless Laplacian D + A is the entry (1, degrees), f = table:
    # no flavor of the package has f = table with a nonzero g, so this checks
    # the lemma's general (f, g) form against a solve of the whole matrix
    monkeypatch.setitem(FLAVORS, "signless", SIGNLESS)
    for dec, adj in run_form_decompositions():
        full = np.diag(adj.sum(axis=1)).astype(float) + adj
        ours = assemble_spectrum(dec, "signless")
        assert len(ours) == dec.order, dec.labels[0]
        expected = np.linalg.eigvalsh(full).tolist()
        dev = max((abs(a - b) for a, b in zip(ours.values, expected)), default=0.0)
        assert dev <= 1e-9, (dec.labels[0], dev)


def test_a_flavor_is_one_entry_of_the_table(monkeypatch):
    # the oracle reads the entry's matrix as the assembly reads its (f, g),
    # so verify_ring compares a new entry like the package's own flavors
    monkeypatch.setitem(FLAVORS, "signless", SIGNLESS)
    for spec in ("Zn(36)", "Zn(2)xZn(4)", "M(2,GF(2))", "GF(4)xGF(3)"):
        outcome = verify_ring(parse_ring_spec(spec))
        assert list(outcome.results) == ["adjacency", "laplacian", "signless"], spec
        assert outcome.matched, (spec, outcome.results["signless"])


def test_unknown_flavor_is_refused():
    with pytest.raises(ValueError, match="unknown flavor 'signless'"):
        brute_spectrum(build_zdg(Zn(12)), "signless")
    with pytest.raises(ValueError, match="unknown flavor 'signless'"):
        assemble_spectrum(graph_route(Zn(12)), "signless")


def test_closed_route_runs_scale_with_class_count():
    # 2^23 - 1 vertices in 23 classes: checked from the runs alone, since
    # expanding them would build lists of 8M entries
    dec = ring_join_decomposition(Zn(2**24), method="closed")
    adj, lap = spectrum_pair(ring_join_decomposition(Zn(2**24), method="closed"))
    m = dec.class_count
    edges2 = sum(
        n * (w + r)
        for n, w, r in zip(dec.sizes.tolist(), neighbor_weights(dec), regularity(dec))
    )
    assert len(adj) == len(lap) == 2**23 - 1
    assert len(adj.runs) <= 2 * m and len(lap.runs) <= 2 * m
    assert abs(math.fsum(v * k for v, k, _ in adj.runs)) <= 1e-6
    assert abs(math.fsum(v * k for v, k, _ in lap.runs) - edges2) <= 1e-12 * edges2


def quotient_by_loops(dec, flavor):
    m = dec.class_count
    sizes = dec.sizes.tolist()
    r = regularity(dec)
    weights = neighbor_weights(dec)
    c = np.zeros((m, m))
    for i in range(m):
        if flavor == "adjacency":
            c[i, i] = r[i]
        else:
            c[i, i] = weights[i]
        for j in range(i + 1, m):
            if dec.table[i, j]:
                root = math.sqrt(sizes[i] * sizes[j])
                c[i, j] = c[j, i] = root if flavor == "adjacency" else -root
    return c


def test_quotients_equal_loop_formula_bit_for_bit():
    for dec in (
        graph_route(Zn(720)),
        ring_join_decomposition(Zn(720), method="closed"),
        decomposition_semisimple_closed(parse_ring_spec("M(2,GF(3))xGF(2)")),
    ):
        sizes = dec.sizes.tolist()
        weights = [
            int(sum(sizes[j] for j in range(dec.class_count) if j != i and dec.table[i, j]))
            for i in range(dec.class_count)
        ]
        assert neighbor_weights(dec) == weights
        for flavor in ("adjacency", "laplacian"):
            # compare bit patterns, so that -0.0 against 0.0 counts too
            ours = spectra_module._join_parts(dec, flavor)[0].view(np.uint64)
            assert np.array_equal(ours, quotient_by_loops(dec, flavor).view(np.uint64)), flavor


# --- duplicate lift ---


def test_duplicate_lift_worked_example():
    b = [[-1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    res = duplicate_lift(b, j=1, m=2, lam=2.0, v=[0.0, 1.0, 0.0])
    assert res.mu == pytest.approx(4.0, abs=1e-12)
    assert list(res.vector) == [0.0, 1.0, 1.0, 0.0]
    assert res.residual <= 1e-8
    # duplicated matrix has the middle row and column repeated
    assert res.matrix.shape == (4, 4)
    assert np.allclose(res.matrix @ res.vector, res.mu * np.asarray(res.vector))


def test_duplicate_lift_vanishing_component():
    # second eigenpair of the same matrix: v_j = 0, so the shift vanishes
    b = [[-1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    res = duplicate_lift(b, j=1, m=2, lam=-1.0, v=[1.0, 0.0, 0.0])
    assert res.mu == pytest.approx(-1.0, abs=1e-12)
    assert list(res.vector) == [1.0, 0.0, 0.0, 0.0]


def test_lift_v_j_zero_keeps_eigenvalue():
    b = [[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
    res = duplicate_lift(b, j=1, m=3, lam=2.0, v=[1.0, 0.0, 0.0])
    assert res.mu == pytest.approx(2.0, abs=1e-12)
    assert res.residual <= 1e-8
    assert res.matrix.shape == (5, 5)


def test_lift_inapplicable_when_sum_zero():
    b = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(LiftInapplicableError):
        duplicate_lift(b, j=0, m=2, lam=-1.0, v=[1.0, -1.0])


def test_lift_rejects_non_eigenpair():
    b = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(LiftError):
        duplicate_lift(b, j=0, m=2, lam=0.5, v=[1.0, 1.0])


def test_lift_rejects_a_non_finite_eigenvalue():
    # nan and inf made the residuals nan, and nan > tol is False
    b = np.diag([2.0, 3.0])
    for lam in (math.nan, math.inf, -math.inf):
        for m in (1, 3):
            with pytest.raises(LiftError, match="eigenvalue must be finite"):
                duplicate_lift(b, j=0, m=m, lam=lam, v=[1.0, 0.0])


def test_lift_m_one_is_identity():
    b = [[3.0]]
    res = duplicate_lift(b, j=0, m=1, lam=3.0, v=[1.0])
    assert res.mu == pytest.approx(3.0)
    assert res.matrix.shape == (1, 1)


def test_lift_random_rank_one_family():
    # B = c * w w^T has eigenpair (c * |w|^2, w); duplicating any index works
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        w = rng.integers(1, 4, size=n).astype(float)
        c = float(rng.integers(1, 4))
        b = c * np.outer(w, w)
        lam = c * float(w @ w)
        j = int(rng.integers(0, n))
        m = int(rng.integers(2, 5))
        res = duplicate_lift(b, j=j, m=m, lam=lam, v=w)
        assert res.residual <= 1e-8
        # mu must be an exact eigenvalue of the duplicated matrix
        dup_vals = np.linalg.eigvalsh(res.matrix)
        assert min(abs(dup_vals - res.mu)) <= 1e-8


@pytest.mark.parametrize("c", [1e6, 1e8, 1e9])
def test_lift_gate_is_relative_to_the_scale(c):
    """B = c w w^T has the exact eigenpair (c |w|^2, w), whose rounded
    residual grows with c: the gate scales with ||B|| ||v||, so every exact
    pair passes, and a relative error of 1e-6 in lambda is still refused."""
    rng = np.random.default_rng(46)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        w = rng.uniform(0.1, 1.1, size=n)
        b = c * np.outer(w, w)
        lam = c * float(w @ w)
        j, m = int(rng.integers(0, n)), int(rng.integers(2, 5))
        res = duplicate_lift(b, j=j, m=m, lam=lam, v=w)
        assert res.mu == pytest.approx(c * float(res.vector @ res.vector), rel=1e-12)
        with pytest.raises(LiftError, match="not an eigenpair of B"):
            duplicate_lift(b, j=j, m=m, lam=lam * (1 + 1e-6), v=w)
    # an exact pair whose column j is not proportional to it lifts to a wrong mu at every scale
    with pytest.raises(LiftVerificationError):
        duplicate_lift(c * np.array([[0.0, 1.0], [1.0, 0.0]]), j=0, m=2, lam=c, v=[1.0, 1.0])


def test_lift_block_diagonal_v_j_zero_family():
    rng = np.random.default_rng(9)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        a = rng.integers(-3, 4, size=(k, k)).astype(float)
        a = (a + a.T) / 2
        vals, vecs = np.linalg.eigh(a)
        # embed a in a larger matrix with an untouched extra coordinate
        b = np.zeros((k + 1, k + 1))
        b[:k, :k] = a
        b[k, k] = float(rng.integers(-3, 4))
        v = np.zeros(k + 1)
        v[:k] = vecs[:, 0]
        res = duplicate_lift(b, j=k, m=4, lam=float(vals[0]), v=v)
        assert res.mu == pytest.approx(float(vals[0]), abs=1e-10)
        assert res.residual <= 1e-8


# --- two-graph eigenvalue combination ---


def test_fiedler_combine_two_triangles():
    # K_3 has spectrum {2, -1, -1} with Perron vector 1/sqrt(3) * ones
    alpha = [2.0, -1.0, -1.0]
    beta = [2.0, -1.0, -1.0]
    u = [1 / math.sqrt(3)] * 3
    v = [1 / math.sqrt(3)] * 3
    combined = fiedler_combine(alpha, u, beta, v, rho=1.0)
    assert len(combined) == 6
    # kept: both tails {-1,-1} twice; new pair from [[2, 1], [1, 2]]: {1, 3}
    assert sorted(combined) == pytest.approx([-1, -1, -1, -1, 1, 3])


def test_fiedler_check_on_explicit_matrix():
    a = np.zeros((3, 3)) + np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    b = a.copy()
    u = np.ones(3) / math.sqrt(3)
    v = np.ones(3) / math.sqrt(3)
    report = fiedler_check(a, b, u, v, rho=2.0)
    assert report.matched
    assert report.max_deviation <= 1e-8


def test_fiedler_check_rho_zero():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    report = fiedler_check(a, a, u, u, rho=0.0)
    assert report.matched


def test_fiedler_requires_unit_vectors():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([1.0, 1.0])  # not unit norm
    with pytest.raises(ValueError):
        fiedler_check(a, a, u, u, rho=1.0)


def test_fiedler_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(30):
        na = int(rng.integers(1, 8))
        nb = int(rng.integers(1, 8))
        a = rng.integers(-2, 3, size=(na, na)).astype(float)
        a = (a + a.T) / 2
        b = rng.integers(-2, 3, size=(nb, nb)).astype(float)
        b = (b + b.T) / 2
        va, ua = np.linalg.eigh(a)
        vb, ub = np.linalg.eigh(b)
        rho = float(rng.integers(-3, 4))
        report = fiedler_check(a, b, ua[:, -1], ub[:, -1], rho)
        assert report.matched and report.max_deviation <= 1e-8


# --- shift lemma ---


def test_shift_lemma_diagonal_blocks():
    # B = diag(1,1,5), A symmetric leaving the split invariant, D = diag
    b = np.diag([1.0, 1.0, 5.0])
    a = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    d = np.diag([1.0, 1.0, 2.0])
    report = check_shift_lemma(np.diagonal(b), a, np.diagonal(d))
    assert report.matched
    assert report.max_deviation <= 1e-8
    # sums pair up: eigenvalues of B + DAD are b_i + (DAD-eigenvalues)
    dad = d @ a @ d
    expect = np.sort(np.linalg.eigvalsh(b + dad))
    got = np.sort([p[0] + p[1] for p in report.pairs])
    assert np.allclose(got, expect, atol=1e-8)


def test_shift_lemma_scalar_b():
    # B = cI commutes with everything
    rng = np.random.default_rng(2)
    a = rng.integers(-2, 3, size=(4, 4)).astype(float)
    a = (a + a.T) / 2
    report = check_shift_lemma([3.0] * 4, a, [1.0, 2.0, 1.0, 0.5])
    assert report.matched


def test_shift_lemma_rejects_noncommuting():
    b = [1.0, 2.0]
    a = [[0.0, 1.0], [1.0, 0.0]]
    d = [1.0, 1.0]
    with pytest.raises(ShiftLemmaError):
        check_shift_lemma(b, a, d)


def test_shift_lemma_random_block_instances():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        n = n1 + n2
        # B constant on each block, A block-diagonal => AB = BA
        bdiag = np.concatenate([np.full(n1, float(rng.integers(-3, 4))),
                                np.full(n2, float(rng.integers(-3, 4)))])
        a = np.zeros((n, n))
        a1 = rng.integers(-2, 3, size=(n1, n1)).astype(float)
        a2 = rng.integers(-2, 3, size=(n2, n2)).astype(float)
        a[:n1, :n1] = (a1 + a1.T) / 2
        a[n1:, n1:] = (a2 + a2.T) / 2
        ddiag = rng.integers(1, 4, size=n).astype(float)
        report = check_shift_lemma(bdiag, a, ddiag)
        assert report.matched and report.max_deviation <= 1e-8


def interleaved_shift_instance(seed):
    """(b, a, d) with B taking two or three values on shuffled coordinates
    and DAD repeating one block on every eigenspace of B, so each
    eigenvalue of DAD is shared by all of them."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    values = rng.choice(np.arange(-3.0, 4.0), size=int(rng.integers(2, 4)), replace=False)
    labels = rng.permutation(np.repeat(np.arange(len(values)), k))
    block = rng.integers(-2, 3, size=(k, k)).astype(float)
    block = (block + block.T) / 2
    d_block = rng.integers(1, 4, size=k).astype(float)
    n = k * len(values)
    a = np.zeros((n, n))
    d = np.zeros(n)
    for c in range(len(values)):
        idx = np.flatnonzero(labels == c)
        a[np.ix_(idx, idx)] = block
        d[idx] = d_block
    return values[labels], a, d


def test_shift_lemma_interleaved_eigenspaces():
    # B = diag(1, 2, 1, 2): DAD couples 0 with 2 and 1 with 3 by the same
    # block, so its eigenvalues -1 and 1 each span both eigenspaces of B
    a = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    report = check_shift_lemma([1.0, 2.0, 1.0, 2.0], a, [1.0] * 4)
    assert report.matched and report.max_deviation <= 1e-8
    by_beta = sorted(report.pairs, key=lambda pair: (pair[1], pair[0]))
    assert np.allclose(by_beta, [(-1, 1), (1, 1), (-1, 2), (1, 2)], rtol=0.0, atol=1e-12)
    # on seed 0 and about half of the others, eigenvectors of the whole of
    # DAD from numpy.linalg.eigh (numpy 2.4) mix eigenspaces of B
    for seed in range(40):
        b, a, d = interleaved_shift_instance(seed)
        report = check_shift_lemma(b, a, d)
        assert report.matched and report.max_deviation <= 1e-8, seed
        assert sorted(beta for _, beta in report.pairs) == pytest.approx(sorted(b)), seed


def scaled_lemma_cases(c):
    """(check, arguments, order of the explicit matrix) at entry scale c:
    Fiedler's A = c u u^T and B = c v v^T with rho = c / 2, and the shift
    identity with B = c or 2c on shuffled coordinates (both taken), A c
    times a positive symmetric block on each, and D drawn from [1, 3)."""
    rng = np.random.default_rng(46)
    cases = []
    for _ in range(100):
        u, v = (rng.uniform(0.1, 1.1, size=int(rng.integers(2, 6))) for _ in range(2))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        cases.append((fiedler_check, (c * np.outer(u, u), c * np.outer(v, v), u, v, c / 2), len(u) + len(v)))
        n = int(rng.integers(2, 7))
        labels = rng.permutation(np.arange(n) % 2)
        a = c * rng.uniform(0.1, 1.1, size=(n, n))
        a = (a + a.T) / 2
        a[labels[:, None] != labels] = 0.0
        cases.append((check_shift_lemma, (c * (1.0 + labels), a, rng.uniform(1.0, 3.0, size=n)), n))
    return cases


@pytest.mark.parametrize("c", [1.0, 1e6, 1e8, 1e10])
def test_lemma_gates_are_relative_to_the_scale(c, monkeypatch):
    """The rounding of the explicit matrices grows with c: the lemma checks
    gate at LEMMA_TOL relative to each matrix, so every exact instance
    passes, and raising the largest eigenvalue of the explicit matrix by a
    relative 1e-6 is still refused."""
    order = 0

    def raise_the_largest(matrix):
        values = dense_eigenvalues(matrix)
        if len(values) == order:  # the explicit matrix; the lemma's own blocks are smaller
            values[-1] *= 1 + 1e-6
        return values

    for check, args, order in scaled_lemma_cases(c):
        assert check(*args).matched, (check.__name__, c)
        with monkeypatch.context() as patch:
            patch.setattr(reference, "dense_eigenvalues", raise_the_largest)
            assert not check(*args).matched, (check.__name__, c)


# --- boolean pairing ---


def test_boolean_pairing_on_z2_squared():
    adj, _ = spectrum_pair(ring_join_decomposition(parse_ring_spec("Zn(2)xZn(2)")))
    report = boolean_pairing_report(adj.values)
    assert report["matched"], report
    for lam, mate in report["paired"]:
        assert lam * mate == pytest.approx(-1.0, abs=1e-6)


def test_boolean_pairing_on_z2_cubed():
    adj, _ = spectrum_pair(
        ring_join_decomposition(parse_ring_spec("Zn(2)xZn(2)xZn(2)"))
    )
    report = boolean_pairing_report(adj.values)
    assert report["matched"], report
    assert report["zero_count"] == len(adj.values) - 2 * len(report["paired"])


def test_boolean_pairing_failure_is_reported_not_raised():
    report = boolean_pairing_report([2.0, 3.0])
    assert not report["matched"]
    assert report["unpaired"] == [2.0, 3.0] or set(report["unpaired"]) == {2.0, 3.0}
