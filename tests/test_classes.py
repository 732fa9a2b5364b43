"""Vertex equivalence classes: associates and equal neighborhoods, with
the tests' own equal-annihilator partition, which the associate one equals."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (
    RelationAgreementError,
    arithmetic,
    _neighborhood_classes_masked,
    check_relation_agreements,
    classes_annihilator,
    partitions_equal,
    classes_associate,
    euler_phi,
    member_sets,
    nontrivial_divisors,
)
from zdgspectra import classes
from zdgspectra import graph as graph_module
from zdgspectra import rings as rings_module
from zdgspectra.classes import ClassPartition, classes_for
from zdgspectra.graph import ZeroDivisorGraph, build_zdg
from zdgspectra.rings import GF, MatRing, ProductRing, Zn, parse_ring_spec

RING_BATTERY = [
    "Zn(8)",
    "Zn(16)",
    "Zn(18)",
    "Zn(30)",
    "Zn(36)",
    "Zn(72)",
    "M(2,GF(2))",
    "M(2,GF(3))",
    "Zn(2)xZn(3)",
    "Zn(2)xZn(4)",
    "Zn(2)xZn(2)xZn(2)",
    "M(2,GF(2))xGF(2)",
]


def index_sets(partition):
    """The classes as sets of vertex indices, read off `cell_of` directly."""
    cell_of = partition.cell_of
    return {frozenset(np.flatnonzero(cell_of == c).tolist()) for c in range(len(partition.kinds))}


def element_sets(ring, partition):
    vertices = build_zdg(ring).vertices
    return member_sets(partition, vertices)


def test_zn18_annihilator_classes():
    ring = Zn(18)
    part = classes_annihilator(build_zdg(ring))
    assert element_sets(ring, part) == {
        frozenset({2, 4, 8, 10, 14, 16}),
        frozenset({3, 15}),
        frozenset({6, 12}),
        frozenset({9}),
    }
    assert part.kinds == classes_for(build_zdg(ring), "associate").kinds
    assert partitions_equal(part, classes_for(build_zdg(ring), "associate"))


def test_zn18_neighborhood_classes_split_the_adjacent_pair():
    # 6 and 12 annihilate each other, so N(6) != N(12) even though
    # ann(6) = ann(12); the neighborhood relation keeps them apart
    ring = Zn(18)
    part = classes_for(build_zdg(ring), "neighborhood")
    assert element_sets(ring, part) == {
        frozenset({2, 4, 8, 10, 14, 16}),
        frozenset({3, 15}),
        frozenset({6}),
        frozenset({12}),
        frozenset({9}),
    }


def test_zn16_associate_classes():
    ring = Zn(16)
    part = classes_for(build_zdg(ring), "associate")
    assert element_sets(ring, part) == {
        frozenset({2, 6, 10, 14}),
        frozenset({8}),
        frozenset({4, 12}),
    }


def test_zn16_neighborhood_classes():
    ring = Zn(16)
    part = classes_for(build_zdg(ring), "neighborhood")
    assert element_sets(ring, part) == {
        frozenset({2, 6, 10, 14}),
        frozenset({8}),
        frozenset({4}),
        frozenset({12}),
    }


def test_m2f2_singletons():
    ring = MatRing(2, GF(2))
    part = classes_for(build_zdg(ring), "associate")
    assert len(part.classes) == 9
    assert all(c.size == 1 for c in part.classes)
    assert partitions_equal(part, classes_annihilator(build_zdg(ring)))


@pytest.mark.parametrize("spec", RING_BATTERY)
def test_associate_refines_annihilator(spec):
    ring = parse_ring_spec(spec)
    assoc = classes_for(build_zdg(ring), "associate")
    annih = classes_annihilator(build_zdg(ring))
    annih_sets = index_sets(annih)
    for c in assoc.classes:
        mem = set(c.members)
        assert any(mem <= big for big in annih_sets), (spec, c.representative)


@pytest.mark.parametrize("spec", RING_BATTERY)
def test_cross_class_adjacency_well_defined(spec):
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    part = classes_for(g, "associate")
    for ci in part.classes:
        for cj in part.classes:
            if ci is cj:
                continue
            bits = {bool(g.adjacency[a, b]) for a in ci.members for b in cj.members}
            assert len(bits) == 1, (spec, ci.representative, cj.representative)


@pytest.mark.parametrize("spec", RING_BATTERY)
def test_within_class_structure(spec):
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    for c in classes_for(g, "associate").classes:
        rep = g.vertices[c.representative]
        rep_sq_zero = arithmetic(ring).mul(rep, rep) == arithmetic(ring).zero
        assert (c.kind == "complete") == rep_sq_zero
        for x in c.members:
            for y in c.members:
                if x == y:
                    continue
                assert bool(g.adjacency[x, y]) == rep_sq_zero, spec
    # an equal-neighborhood class can never contain an adjacent pair
    for c in classes_for(build_zdg(ring), "neighborhood").classes:
        for x in c.members:
            for y in c.members:
                assert x == y or not g.adjacency[x, y]


def test_zn_fast_path_agreement():
    for n in range(6, 120):
        ring = Zn(n)
        if not ring.zero_divisors():
            continue
        assert partitions_equal(classes_for(build_zdg(ring)), classes_associate(ring)), n


def test_zn_class_sizes_are_phi():
    for n in range(6, 201):
        ring = Zn(n)
        if not ring.zero_divisors():
            continue
        vertices = build_zdg(ring).vertices
        part = classes_for(build_zdg(ring))
        by_rep = {vertices[c.representative]: c.size for c in part.classes}
        for d in nontrivial_divisors(n):
            assert by_rep[d] == euler_phi(n // d), (n, d)


def test_matrix_fast_path_agreement():
    for spec in ["M(2,GF(2))", "M(2,GF(3))", "M(2,GF(4))", "M(3,GF(2))"]:
        ring = parse_ring_spec(spec)
        assert partitions_equal(classes_for(build_zdg(ring)), classes_associate(ring)), spec


def test_product_fast_path_agreement():
    for spec in ["Zn(2)xZn(3)", "Zn(2)xZn(2)xZn(2)", "Zn(3)xZn(5)", "M(2,GF(2))xGF(2)"]:
        ring = parse_ring_spec(spec)
        assert partitions_equal(classes_for(build_zdg(ring)), classes_associate(ring)), spec


@pytest.mark.parametrize("spec", ["Zn(12)", "M(2,GF(2))"])
def test_reference_catches_a_fault_in_the_package_numbering(spec, monkeypatch):
    # the unit-orbit reference numbers its own classes, so a numbering that
    # is still canonical but merges the first two classes shows as a mismatch
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    assert classes_for(g) == classes_associate(ring)

    def merging(relation, cell_of, kinds):
        return ClassPartition(relation, cell_of - (cell_of >= 1), kinds[:1] + kinds[2:])

    monkeypatch.setattr(classes, "ClassPartition", merging)
    assert not partitions_equal(classes_for(g), classes_associate(ring))


def first_appearance(keys) -> list[int]:
    # plain-Python reference: each new key takes the next id
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


@st.composite
def square_rows(draw):
    """(rows, loops): a bool matrix of order 0 to 70 whose rows are drawn
    from up to three rows and their twins, which differ in the last entry
    only, so equal rows recur and unequal ones can differ past a packed
    byte, and one loop flag per row."""
    order = draw(st.integers(0, 70))
    pool = draw(st.lists(st.lists(st.booleans(), min_size=order, max_size=order), min_size=1, max_size=3))
    pool += [r[:-1] + [not r[-1]] for r in pool if r]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=order, max_size=order))
    loops = draw(st.lists(st.booleans(), min_size=order, max_size=order))
    return [pool[i] for i in picks], loops


@settings(max_examples=150, deadline=None)
@given(square_rows())
def test_classes_for_numbers_packed_rows(drawn):
    # classes_for reads the adjacency rows and the loops alone: the
    # neighborhood classes are the equal rows, the associate classes the
    # equal rows with each vertex's own entry set when it has a loop, both
    # numbered by first appearance across the row blocks, which a block
    # of 4 bytes makes one to four rows each; an associate class is
    # complete exactly when its first vertex has a loop
    rows, loops = drawn
    order = len(rows)
    adjacency = np.array(rows, dtype=bool).reshape(order, order)
    g = ZeroDivisorGraph(Zn(2), adjacency, np.array(loops, dtype=bool), np.arange(order))
    own = [tuple(r[:i] + [r[i] or loops[i]] + r[i + 1 :]) for i, r in enumerate(rows)]
    for relation, keys in (("neighborhood", [tuple(r) for r in rows]), ("associate", own)):
        ids = first_appearance(keys)
        firsts = [ids.index(c) for c in range(max(ids, default=-1) + 1)]
        kinds = ["complete" if relation == "associate" and loops[i] else "null" for i in firsts]
        for entries in (rings_module.BLOCK_ENTRIES, 4):
            with mock.patch.object(rings_module, "BLOCK_ENTRIES", entries):
                part = classes_for(g, relation)
            assert part.cell_of.tolist() == ids, (relation, entries)
            assert part.kinds == kinds, (relation, entries)


@pytest.mark.parametrize("relation", ["associate", "neighborhood"])
def test_partition_peak_is_a_small_part_of_the_graph(relation):
    # the rows are packed one row block at a time and one dict holds a key
    # per class, so the traced peak is a few row blocks, not a packed copy
    # of the adjacency (V^2 / 8 bytes) and its byte strings
    g = build_zdg(Zn(4620))
    tracemalloc.start()
    try:
        part = classes_for(g, relation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(part.cell_of) == g.order > 3000
    assert peak < 0.05 * g.order**2, peak / g.order**2
    # the 26 row blocks number one partition: the references agree with it
    assert all(check["holds"] for check in check_relation_agreements(g)["checks"])


def test_masked_and_raw_neighborhood_comparators_agree():
    # classes_for groups raw adjacency rows; the masked comparator
    # ignores the two columns of the pair under comparison but skips adjacent
    # pairs, which provably classifies identically; check that on the battery
    for spec in RING_BATTERY:
        ring = parse_ring_spec(spec)
        g = build_zdg(ring)
        raw = classes_for(g, "neighborhood")
        masked = _neighborhood_classes_masked(g)
        assert index_sets(raw) == index_sets(masked), spec


def test_relation_agreement_battery():
    for spec in RING_BATTERY:
        report = check_relation_agreements(build_zdg(parse_ring_spec(spec)))
        for check in report["checks"]:
            assert check["holds"], (spec, check)


def test_relation_check_reports_an_associate_class_across_annihilator_classes(monkeypatch):
    # Zn(2)xZn(4) has four annihilator classes, so one associate class
    # holding every vertex must fail the refinement check
    ring = parse_ring_spec("Zn(2)xZn(4)")
    merged = ClassPartition("associate", np.zeros(build_zdg(ring).order, dtype=np.intp), ["null"])
    monkeypatch.setattr(reference, "classes_for", lambda *args: merged)
    with pytest.raises(RelationAgreementError, match="associate equals annihilator"):
        check_relation_agreements(build_zdg(ring))


def test_relation_check_reports_an_annihilator_class_across_associate_classes(monkeypatch):
    # one of Zn(2)xZn(4)'s four annihilator classes has two members, so
    # singleton associate classes refine it and must still fail equality
    ring = parse_ring_spec("Zn(2)xZn(4)")
    order = build_zdg(ring).order
    split = ClassPartition("associate", np.arange(order), ["null"] * order)
    monkeypatch.setattr(reference, "classes_for", lambda *args: split)
    with pytest.raises(RelationAgreementError, match="associate equals annihilator"):
        check_relation_agreements(build_zdg(ring))


def test_relation_check_reads_the_callers_graph(monkeypatch):
    # Zn(30) has 21 vertices: the check must not rebuild its graph under the default cap
    monkeypatch.setattr(graph_module, "DEFAULT_VERTEX_CAP", 10)
    report = check_relation_agreements(build_zdg(Zn(30), vertex_cap=100))
    assert all(check["holds"] for check in report["checks"]), report


def test_reduced_ring_collapses_neighborhood_to_annihilator():
    # in a reduced ring no vertex squares to zero, so the diagonal bit never
    # fires and the two relations coincide
    for spec in ["Zn(2)xZn(3)", "Zn(3)xZn(5)", "Zn(2)xZn(2)xZn(2)"]:
        ring = parse_ring_spec(spec)
        assert partitions_equal(
            classes_for(build_zdg(ring), "neighborhood"), classes_annihilator(build_zdg(ring))
        ), spec


def test_annihilator_splits_only_square_zero_classes():
    ring = Zn(16)
    annih = element_sets(ring, classes_annihilator(build_zdg(ring)))
    neigh = element_sets(ring, classes_for(build_zdg(ring), "neighborhood"))
    # {4,12} has 4*4 = 0: it splits under the neighborhood relation
    assert frozenset({4, 12}) in annih
    assert frozenset({4}) in neigh and frozenset({12}) in neigh
    # {2,6,10,14} has 2*2 != 0: it survives intact
    assert frozenset({2, 6, 10, 14}) in annih and frozenset({2, 6, 10, 14}) in neigh


def test_partition_covers_all_vertices_once():
    for spec in RING_BATTERY:
        ring = parse_ring_spec(spec)
        order = len(ring.zero_divisors())
        g = build_zdg(ring)
        for part in (classes_for(g, "associate"), classes_for(g, "neighborhood"), classes_annihilator(g)):
            seen = []
            for c in part.classes:
                assert c.size == len(c.members)
                assert c.representative in c.members
                seen.extend(c.members)
            assert len(seen) == len(set(seen)) == order
            assert set(seen) == set(range(order))


@pytest.mark.parametrize("spec", RING_BATTERY)
def test_every_producer_numbers_classes_by_smallest_member(spec):
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    parts = [classes_for(g, relation) for relation in ("associate", "neighborhood")]
    parts += [classes_associate(ring), _neighborhood_classes_masked(g), classes_annihilator(g)]
    for part in parts:
        assert part.cell_of.dtype == np.intp and not part.cell_of.flags.writeable, part.relation
        ids = part.cell_of.tolist()
        assert len(ids) == g.order
        # the ids are 0, 1, ..., one per kind, and each class starts after the one before
        assert sorted(set(ids)) == list(range(len(part.kinds))), part.relation
        firsts = [ids.index(c) for c in range(len(part.kinds))]
        assert firsts == sorted(firsts), part.relation

    # index_sets equality is the definition partitions_equal replaced
    for p, q in itertools.product(parts, repeat=2):
        assert partitions_equal(p, q) == (index_sets(p) == index_sets(q)), (p.relation, q.relation)


@pytest.mark.parametrize(
    "cell_of, kinds",
    [
        ([1, 0], ["null", "null"]),  # numbered against first appearance
        ([0, 2, 1, 2], ["null", "null", "null"]),
        ([0, 0, 2], ["null", "null", "null"]),  # class 1 is empty
        ([0, -1, 1], ["null", "null"]),
        ([0, 1, 1], ["null"]),  # fewer kinds than classes
        ([0, 1, 1], ["null", "null", "null"]),  # a kind for no class
        ([], ["null"]),
    ],
)
def test_class_partition_refuses_a_non_canonical_array(cell_of, kinds):
    with pytest.raises(ValueError, match="cell_of must number its classes"):
        ClassPartition("associate", np.array(cell_of, dtype=np.intp), kinds)


def test_unknown_relation_rejected():
    with pytest.raises(Exception):
        classes_for(build_zdg(Zn(12)), "wibble")
