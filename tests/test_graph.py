"""Zero-divisor graph construction, annihilators, degrees."""

import gc
import importlib.util
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from reference import annihilator_set, enumerate_elements, is_unit, neighborhood
from zdgspectra import graph as graph_module
from zdgspectra import rings as rings_module
from zdgspectra.classes import classes_for
from zdgspectra.graph import (
    GraphCapError,
    build_zdg,
    connected_component_count,
    degree,
    degree_matring,
    degree_zn,
    graph_json,
)
from zdgspectra.rings import GF, MatRing, ProductRing, RingError, Zn, parse_ring_spec
from zdgspectra.spectra import ring_join_decomposition, verify_ring

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_pool_specs() -> list[str]:
    """The ring specs of the benchmark's ring-graph workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return list(module.POOL_FACTORS)


POOL_SPECS = load_pool_specs()


def edges_of(g):
    out = set()
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.adjacency[i, j]:
                out.add((g.vertices[i], g.vertices[j]))
    return out


def test_zn6_is_a_path():
    g = build_zdg(Zn(6))
    assert g.vertices == [2, 3, 4]
    assert edges_of(g) == {(2, 3), (3, 4)}


def test_zn8():
    g = build_zdg(Zn(8))
    assert g.vertices == [2, 4, 6]
    # 2*4 = 8 = 0, 4*6 = 24 = 0, but 2*6 = 12 = 4 != 0
    assert edges_of(g) == {(2, 4), (4, 6)}


def test_zn9_is_an_edge():
    g = build_zdg(Zn(9))
    assert g.vertices == [3, 6]
    assert edges_of(g) == {(3, 6)}


def test_field_gives_empty_graph():
    g = build_zdg(GF(5))
    assert g.order == 0
    assert g.edge_count == 0


def test_no_self_loops_and_symmetry():
    for spec in ["Zn(16)", "Zn(30)", "M(2,GF(2))", "Zn(2)xZn(4)"]:
        g = build_zdg(parse_ring_spec(spec))
        for i in range(g.order):
            assert not g.adjacency[i, i]
            for j in range(g.order):
                assert g.adjacency[i, j] == g.adjacency[j, i]


def test_annihilator_examples():
    ring = Zn(18)
    assert annihilator_set(ring, 6) == {3, 6, 9, 12, 15}
    ring = Zn(8)
    assert annihilator_set(ring, 4) == {2, 4, 6}
    # 2 is not in ann(2): 2*2 = 4 != 0 in Z_8
    assert annihilator_set(ring, 2) == {4}


def test_neighborhood_is_annihilator_minus_self():
    for spec in ["Zn(18)", "Zn(16)", "Zn(30)", "M(2,GF(2))", "Zn(2)xZn(4)"]:
        ring = parse_ring_spec(spec)
        g = build_zdg(ring)
        for a in g.vertices:
            assert neighborhood(g, a) == annihilator_set(ring, a) - {a}


def test_handshake():
    for spec in ["Zn(24)", "Zn(36)", "M(2,GF(3))", "Zn(2)xZn(3)xZn(5)"]:
        g = build_zdg(parse_ring_spec(spec))
        assert sum(degree(g, a) for a in g.vertices) == 2 * g.edge_count


def test_degree_zn_closed_form_full_sweep():
    """degree_zn(n, d) against the built graph for every n up to 200."""
    for n in range(2, 201):
        g = build_zdg(Zn(n))
        for d in g.vertices:
            if n % d == 0:
                assert degree_zn(n, d) == degree(g, d), (n, d)
    # degree is constant on each divisor class, so checking the divisor
    # representatives above covers the formula; spot-check a non-divisor too
    g = build_zdg(Zn(18))
    assert degree(g, 4) == degree_zn(18, 2)


def test_degree_matring_closed_form():
    for q in (2, 3):
        ring = MatRing(2, GF(q))
        g = build_zdg(ring)
        for a in g.vertices:
            r = ring.rank(a)
            sq_zero = ring.mul(a, a) == ring.zero
            assert degree(g, a) == degree_matring(2, q, r, sq_zero), (q, a)


def test_degree_matring_refuses_a_square_zero_class_that_cannot_exist():
    # a matrix squaring to 0 has its rank-r column space in its rank-(n-r)
    # kernel; on the built graph of M_3(F_2) no rank-2 vertex has a loop
    ring = MatRing(3, GF(2))
    g = build_zdg(ring)
    rank2 = [i for i, a in enumerate(g.vertices) if ring.rank(a) == 2]
    assert rank2 and not g.loops[rank2].any()
    assert set(g.degrees()[rank2].tolist()) == {degree_matring(3, 2, 2, False)} == {13}
    for n, r in ((3, 2), (2, 1), (4, 2), (5, 2)):  # refused exactly when 2r > n
        if 2 * r > n:
            with pytest.raises(RingError, match=f"no rank-{r} matrix in M_{n}"):
                degree_matring(n, 2, r, True)
        else:
            assert degree_matring(n, 2, r, True) == degree_matring(n, 2, r, False) - 1


def test_component_counts():
    assert connected_component_count(build_zdg(Zn(6))) == 1
    assert connected_component_count(build_zdg(GF(7))) == 0
    assert connected_component_count(build_zdg(MatRing(2, GF(2)))) == 1


def test_component_count_of_two_components():
    # Gamma(R) is always connected, so no ring reaches a second component:
    # the paths 0 - 5 - 2 and 1 - 4 - 3 interleave their vertex indices
    adjacency = np.zeros((6, 6), dtype=bool)
    for i, j in [(0, 5), (5, 2), (1, 4), (4, 3)]:
        adjacency[i, j] = adjacency[j, i] = True
    g = graph_module.ZeroDivisorGraph(Zn(6), adjacency, np.zeros(6, dtype=bool), np.arange(6))
    assert connected_component_count(g) == 2


def test_graph_cap():
    with pytest.raises(GraphCapError):
        build_zdg(Zn(210), vertex_cap=10)


def test_caps_refuse_a_graph_and_do_not_key_it():
    ring = Zn(60)
    g = build_zdg(ring)
    misses = graph_module._build_cached.cache_info().misses
    assert build_zdg(ring, vertex_cap=20000) is g
    with pytest.raises(GraphCapError, match=f"has {g.order} vertices, over the cap {g.order - 1}$"):
        build_zdg(ring, vertex_cap=g.order - 1)
    assert graph_module._build_cached.cache_info().misses == misses


@pytest.mark.parametrize("spec", ["GF(1099511627776)", "M(1,GF(1099511627776))", "Zn(2305843009213693951)"])
def test_fields_build_without_a_unit_mask(spec, monkeypatch):
    # a ring with no vertex is a field, of any size: its graph is empty, and
    # no array of |R| entries is made for it
    def no_mask(self):
        raise AssertionError("built a unit mask")

    for kind in (Zn, GF, MatRing, ProductRing):
        monkeypatch.setattr(kind, "_unit_mask", no_mask)
    graph_module._build_cached.cache_clear()
    g = build_zdg(parse_ring_spec(spec))
    assert g.order == g.edge_count == 0
    assert g.adjacency.shape == (0, 0) and g.loops.shape == (0,)
    assert g.element_index.dtype == np.intp and g.vertices == []


@pytest.mark.parametrize("entries", [1, 7, 100])
@pytest.mark.parametrize("spec", ["M(2,GF(3))", "M(2,GF(4))", "M(2,GF(2))xZn(4)", "Zn(36)xGF(2)"])
def test_blocked_build_equals_the_definition(spec, entries, monkeypatch):
    # row blocks and symmetrising tiles of a few entries: many of each, with
    # a short last one, must still give the graph of its definition
    for module in (rings_module, graph_module):
        monkeypatch.setattr(module, "BLOCK_ENTRIES", entries)
    ring = parse_ring_spec(spec)
    g = graph_module._build(ring)
    mul, zero = ring.mul, ring.zero
    assert g.vertices == [a for a in enumerate_elements(ring) if a != zero and not is_unit(ring, a)]
    assert g.loops.tolist() == [mul(a, a) == zero for a in g.vertices]
    expected = [[a != b and (mul(a, b) == zero or mul(b, a) == zero) for b in g.vertices] for a in g.vertices]
    assert g.adjacency.tolist() == expected


@pytest.mark.parametrize("spec", ["M(2,GF(16))", "M(2,GF(8))xZn(2)"])
def test_build_holds_one_adjacency(spec):
    # the unit mask, the zero products and the symmetrising all work in
    # blocks, so the adjacency is the one V x V array the build holds
    graph_module._build_cached.cache_clear()
    ring = parse_ring_spec(spec)
    tracemalloc.start()
    try:
        g = build_zdg(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    v = g.order
    assert v > 4000
    graph_module._build_cached.cache_clear()
    assert peak < 1.5 * v * v, peak / (v * v)


def test_cache_keeps_only_the_last_graph():
    # a sweep builds one ring after another; the cache must not keep the
    # V x V graphs (and their oracle spectra) of the rings it has left
    first = weakref.ref(build_zdg(Zn(90)))
    build_zdg(Zn(91))
    gc.collect()
    assert first() is None


def test_graph_json_is_deterministic():
    # the CSV rows the CLI prints from it are checked in test_cli
    g = build_zdg(Zn(12))
    j1, j2 = graph_json(g), graph_json(g)
    assert j1 == j2
    assert j1["ring"] == "Zn(12)"
    assert len(j1["vertices"]) == g.order
    assert len(j1["edges"]) == g.edge_count


@pytest.mark.parametrize("spec", [f"Zn({n})" for n in range(2, 401)] + POOL_SPECS)
def test_closed_counts_equal_enumeration(spec):
    ring = parse_ring_spec(spec)
    assert ring.unit_count() == len(ring.units()), spec
    assert ring.vertex_count() == len(ring.zero_divisors()), spec


def sub_rings(ring):
    """The ring, its factors and their fields: every ring object it holds."""
    yield ring
    inner = ring.factors if isinstance(ring, ProductRing) else [ring.field] if isinstance(ring, MatRing) else []
    for part in inner:
        yield from sub_rings(part)


@pytest.mark.parametrize("spec", POOL_SPECS)
def test_graph_route_keeps_no_payloads(spec):
    # the build reads element indices, and no payload list outlives it
    graph_module._build_cached.cache_clear()  # an equal ring's graph would serve this one
    ring = parse_ring_spec(spec)
    verify_ring(ring)
    ring_join_decomposition(ring, "associate", "graph")
    graph = build_zdg(ring)
    assert graph.ring is ring
    for part in sub_rings(ring):
        assert "_elements" not in vars(part), (spec, part)
    assert "vertices" not in vars(graph), spec
    expected = [a for a in enumerate_elements(ring) if a != ring.zero and not is_unit(ring, a)]
    assert graph.vertices == expected, spec  # decoded on this first read


def test_index_of():
    g = build_zdg(Zn(10))
    for i, v in enumerate(g.vertices):
        assert g.index_of(v) == i


def test_product_graph_matches_definition():
    ring = ProductRing([Zn(2), Zn(4)])
    g = build_zdg(ring)
    els = ring.elements()
    expected_vertices = set(ring.zero_divisors())
    assert set(g.vertices) == expected_vertices
    for a in g.vertices:
        for b in g.vertices:
            if a == b:
                continue
            joined = ring.mul(a, b) == ring.zero or ring.mul(b, a) == ring.zero
            i, j = g.index_of(a), g.index_of(b)
            assert bool(g.adjacency[i, j]) == joined
    assert len(els) == 8


def test_matrix_graph_over_gf3_matches_element_arithmetic():
    # M(3,GF(3)) has 8,450 vertices; _build leaves its 71 MB adjacency out
    # of the graph cache
    ring = MatRing(3, GF(3))
    g = graph_module._build(ring)
    mul, zero = ring.mul, ring.zero
    assert g.order == 8450
    assert g.loops.tolist() == [mul(a, a) == zero for a in g.vertices]
    rng = np.random.default_rng(3)
    edges = np.argwhere(g.adjacency)
    i = rng.integers(g.order, size=1500)
    j = (i + rng.integers(1, g.order, size=1500)) % g.order  # any pair with i != j
    pairs = np.concatenate([edges[rng.choice(len(edges), size=1500)], np.stack([i, j], axis=1)])
    for i, j in pairs.tolist():
        a, b = g.vertices[i], g.vertices[j]
        assert bool(g.adjacency[i, j]) == (mul(a, b) == zero or mul(b, a) == zero), (a, b)
    spaces = {}
    for i, a in enumerate(g.vertices):
        spaces.setdefault((ring.row_space(a), ring.column_space(a)), []).append(i)
    part = classes_for(g)
    assert len(part.classes) == 338
    assert {frozenset(c.members) for c in part.classes} == {frozenset(members) for members in spaces.values()}
