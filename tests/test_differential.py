"""Differential check of the graph route over random small products.

Each example is a product of at most three factors drawn from Zn(2..9),
GF(2|3|4|5), M(2,GF(2)) and M(2,GF(3)), with at most MAX_VERTICES
vertices.  The table-built adjacency is compared with the annihilator
definition, the join decomposition is checked under both relations
against the dense oracle, and every product is also compared with the
closed route.  The keyed associate partition and the unit list are
compared with their definitions (unit orbits, per-element `is_unit`).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgspectra import numth
from zdgspectra.classes import classes_associate, classes_for
from zdgspectra.counts import gl_order
from zdgspectra.graph import annihilator_set, build_zdg
from zdgspectra.rings import parse_ring_spec
from zdgspectra.spectra import (
    assemble_spectrum,
    blow_up,
    brute_spectrum,
    decompose,
    decomposition_semisimple_closed,
    multiset_equal,
)

MAX_VERTICES = 300
FLAVORS = ("adjacency", "laplacian")

# (spec, order, unit count)
FACTORS = (
    [(f"Zn({n})", n, numth.euler_phi(n)) for n in range(2, 10)]
    + [(f"GF({q})", q, q - 1) for q in (2, 3, 4, 5)]
    + [(f"M(2,GF({q}))", q**4, gl_order(2, q)) for q in (2, 3)]
)


def vertex_count(factors) -> int:
    return math.prod(f[1] for f in factors) - math.prod(f[2] for f in factors) - 1


products = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3).filter(
    lambda fs: vertex_count(fs) <= MAX_VERTICES
)


@settings(max_examples=40, deadline=None)
@given(products)
def test_graph_route_matches_definition_and_oracles(factors):
    spec = "x".join(f[0] for f in factors)
    ring = parse_ring_spec(spec)
    g = build_zdg(ring)
    assert g.order == vertex_count(factors)
    for i, a in enumerate(g.vertices):
        row = {g.vertices[j] for j in np.nonzero(g.adjacency[i])[0]}
        assert row == annihilator_set(ring, a) - {a}, (spec, a)

    assert classes_for(ring, "associate") == classes_associate(ring), spec
    assert ring.units() == [a for a in ring.elements() if a != ring.zero and ring.is_unit(a)], spec

    brute = {flavor: brute_spectrum(g, flavor) for flavor in FLAVORS}
    graph_route = {}
    for relation in ("associate", "neighborhood"):
        dec = decompose(g, classes_for(ring, relation))
        assert np.array_equal(blow_up(dec), g.adjacency), (spec, relation)
        for flavor in FLAVORS:
            assembled = assemble_spectrum(dec, flavor)
            match = multiset_equal(assembled, brute[flavor], tol=1e-7)
            assert match.matched, (spec, relation, flavor, match.max_deviation)
            graph_route[flavor] = assembled

    closed = decomposition_semisimple_closed(ring)
    for flavor in FLAVORS:
        match = multiset_equal(assemble_spectrum(closed, flavor), graph_route[flavor], tol=1e-7)
        assert match.matched, (spec, flavor, match.max_deviation)
