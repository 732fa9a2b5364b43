"""Differential check of the graph route over random small products.

Each example is a product of at most three factors drawn from Zn(2..9),
GF(2|3|4|5), M(2,GF(2)) and M(2,GF(3)), with at most MAX_VERTICES
vertices.  The table-built adjacency is compared with the annihilator
definition, the join decomposition is checked under both relations
against the dense oracle, and every product's associate decomposition is
also compared with the closed route's: equal cells in equal order and
bit-identical runs.  The keyed partitions and the unit list are compared with
their definitions: associates with unit orbits, equal neighborhoods with
the pairwise masked row comparison, units with per-element `is_unit`.
The tests' own equal-annihilator partition is compared with grouping by
`annihilator_set`, and the relation agreements hold, associate equal to
annihilator among them.  The graph's vertices,
decoded from its element indices, are compared with the zero-divisors of
the reference enumeration, told by `is_unit`, and the closed unit and
vertex counts with the lengths of the enumerated lists.  The graph's loops
are compared with a^2 = 0 and with `is_reduced`.  The runs that
`zdg spectrum --format runs` prints expand to the values the json format
prints, and `zdg verify` passes under every relation.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    _neighborhood_classes_masked,
    annihilator_set,
    blow_up,
    check_relation_agreements,
    classes_annihilator,
    classes_associate,
    enumerate_elements,
    euler_phi,
    is_reduced,
    is_unit,
    units,
)
from zdgspectra.cli import main
from zdgspectra.classes import classes_for
from zdgspectra.counts import gl_order
from zdgspectra.graph import build_zdg
from zdgspectra.rings import parse_ring_spec
from zdgspectra.spectra import (
    assemble_spectrum,
    brute_spectrum,
    decompose,
    decomposition_semisimple_closed,
    multiset_equal,
)

MAX_VERTICES = 300
FLAVORS = ("adjacency", "laplacian")

# (spec, order, unit count)
FACTORS = (
    [(f"Zn({n})", n, euler_phi(n)) for n in range(2, 10)]
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
    assert g.order == vertex_count(factors) == ring.vertex_count()
    els = enumerate_elements(ring)
    assert g.vertices == [a for a in els if a != ring.zero and not is_unit(ring, a)], spec
    assert ring.unit_count() == len(units(ring)), spec
    by_annihilator = {}
    for i, a in enumerate(g.vertices):
        ann = annihilator_set(ring, a)
        row = {g.vertices[j] for j in np.nonzero(g.adjacency[i])[0]}
        assert row == ann - {a}, (spec, a)
        assert g.loops[i] == (ring.mul(a, a) == ring.zero), (spec, a)
        by_annihilator.setdefault(frozenset(ann), []).append(i)
    assert is_reduced(ring) == (not g.loops.any()), spec

    assert classes_for(g, "associate") == classes_associate(ring), spec
    assert classes_for(g, "neighborhood") == _neighborhood_classes_masked(g), spec
    # members ascend and distinct classes start apart, so sorting puts them in representative order
    annihilator = [c.members for c in classes_annihilator(g).classes]
    assert annihilator == sorted(by_annihilator.values()), spec
    assert units(ring) == [a for a in els if a != ring.zero and is_unit(ring, a)], spec
    check_relation_agreements(g)

    brute = {flavor: brute_spectrum(g, flavor) for flavor in FLAVORS}
    graph_route = {}
    for relation in ("associate", "neighborhood"):
        dec = graph_route[relation] = decompose(g, classes_for(g, relation))
        assert np.array_equal(blow_up(dec), g.adjacency), (spec, relation)
        for flavor in FLAVORS:
            match = multiset_equal(assemble_spectrum(dec, flavor), brute[flavor], tol=1e-7)
            assert match.matched, (spec, relation, flavor, match.max_deviation)

    # the closed route lists the associate classes in the graph route's order
    closed, dec = decomposition_semisimple_closed(ring), graph_route["associate"]
    for name in ("sizes", "complete", "table"):
        assert np.array_equal(getattr(closed, name), getattr(dec, name)), (spec, name)
    assert closed.labels == dec.labels, spec
    for flavor in FLAVORS:
        assert assemble_spectrum(closed, flavor).runs == assemble_spectrum(dec, flavor).runs, (spec, flavor)


def cli_stdout(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(args)) == 0
    return json.loads(out.getvalue())


@settings(max_examples=20, deadline=None)
@given(products, st.sampled_from(["associate", "neighborhood"]))
def test_spectrum_runs_expand_to_the_json_values(factors, relation):
    ring = ["--ring", "x".join(f[0] for f in factors)]
    runs, values = cli_stdout("spectrum", *ring, "--format", "runs"), cli_stdout("spectrum", *ring)
    assert len(runs) == len(values) == 2
    for r, v in zip(runs, values):
        assert {k: r[k] for k in r if k != "runs"} == {k: v[k] for k in v if k not in ("values", "clusters")}
        assert [value for value, k, _ in r["runs"] for _ in range(k)] == v["values"], ring
    # the printed spectra are checked under the associate relation, and the
    # neighborhood decomposition of the graph against the same oracle
    assert cli_stdout("verify", *ring, "--relation", relation)["all_matched"], (ring, relation)
