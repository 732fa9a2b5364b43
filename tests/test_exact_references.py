"""Exact spectra of whole families against both routes.

`reference.complete_bipartite_spectra` and `reference.m2_spectra` give
the spectra of Gamma(F x F') and Gamma(M_2(F_q)) from q alone, at any
size, and `reference.field_product_adjacency` the adjacency spectrum of
a product of fields from its factors.  The closed route must match them
rank against rank within EXACT_TOL * max(1, |exact|), past the graph caps
too, and each reference must match the dense oracle wherever the graph
has at most about 600 vertices, so the references are themselves
checked.  Past 510 classes (GF(2)^11 and GF(2)^12 here) the closed
route's solve takes seconds, so the products of fields check there only
the trace identities: sum(lambda) = 0 and sum(lambda^2) = 2|E|.
"""

import itertools

import pytest

from math import prod

from reference import complete_bipartite_spectra, field_product_adjacency, m2_spectra, rank_deviation
from zdgspectra.graph import build_zdg
from zdgspectra.rings import parse_ring_spec
from zdgspectra.spectra import (
    FLAVORS,
    SpectrumMultiset,
    assemble_spectrum,
    brute_spectrum,
    ring_join_decomposition,
    spectrum_pair,
)

EXACT_TOL = 1e-9

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 64, 101, 128, 256]
# (spec, q, q') far past the vertex cap: |V| = q + q' - 2
LARGE_FIELD_PAIRS = [
    ("Zn(2)xZn(2305843009213693951)", 2, 2305843009213693951),
    ("Zn(1000003)xZn(1000000007)", 1000003, 1000000007),
    ("GF(4)xGF(1048576)", 4, 1048576),
]
M2_FIELD_ORDERS = [q for q in FIELD_ORDERS if q <= 32]
DENSE_M2_FIELD_ORDERS = [q for q in M2_FIELD_ORDERS if (q + 1) * (q * q - 1) <= 600]
# the factor orders of products of fields: equal factors, distinct ones,
# and factors up to 2^31 - 1, from 2 to 12 factors
FIELD_PRODUCTS = [
    (2,) * 6, (2,) * 9, (2,) * 11, (2,) * 12, (3,) * 5, (3,) * 7,
    (2, 3, 5, 7), (2, 2, 3, 3, 4), (4, 5, 7, 8, 9, 11),
    (2, 3), (5, 7), (2, 1000000007), (2, 3, 715827883, 2147483647), (2, 3, 5, 7, 11, 13, 1000000007),
]


def deviations(spectra, exact):
    """The rank deviation of each flavor's spectrum from its exact runs."""
    return {flavor: rank_deviation(spectrum, exact[flavor]) for flavor, spectrum in zip(FLAVORS, spectra)}


def closed_spectra(spec):
    return spectrum_pair(ring_join_decomposition(parse_ring_spec(spec)))


def dense_spectra(spec):
    graph = build_zdg(parse_ring_spec(spec))
    return [brute_spectrum(graph, flavor) for flavor in FLAVORS]


def test_complete_bipartite_matches_the_closed_route():
    pairs = [(f"GF({q1})xGF({q2})", q1, q2) for q1, q2 in itertools.product(FIELD_ORDERS, repeat=2)]
    for spec, q1, q2 in pairs + LARGE_FIELD_PAIRS:
        found = deviations(closed_spectra(spec), complete_bipartite_spectra(q1, q2))
        assert max(found.values()) <= EXACT_TOL, (spec, found)


def test_complete_bipartite_matches_the_dense_oracle():
    for q1, q2 in itertools.product(FIELD_ORDERS, repeat=2):
        assert q1 + q2 - 2 <= 600
        spec = f"GF({q1})xGF({q2})"
        found = deviations(dense_spectra(spec), complete_bipartite_spectra(q1, q2))
        assert max(found.values()) <= EXACT_TOL, (spec, found)


def test_m2_matches_the_closed_route():
    assert len(M2_FIELD_ORDERS) == 18
    for q in M2_FIELD_ORDERS:
        found = deviations(closed_spectra(f"M(2,GF({q}))"), m2_spectra(q))
        assert max(found.values()) <= EXACT_TOL, (q, found)


def test_m2_matches_the_dense_oracle():
    assert DENSE_M2_FIELD_ORDERS == [2, 3, 4, 5, 7, 8]  # M(2,GF(8)) has 567 vertices
    for q in DENSE_M2_FIELD_ORDERS:
        found = deviations(dense_spectra(f"M(2,GF({q}))"), m2_spectra(q))
        assert max(found.values()) <= EXACT_TOL, (q, found)


@pytest.mark.parametrize("q", [2, 9])
def test_rank_deviation_sees_one_moved_value(q):
    # each exact run's value moved by a relative 1e-6, and each multiplicity
    # moved by one, in turn: the first fails the gate, the second is inf
    for flavor, exact in m2_spectra(q).items():
        spectrum = SpectrumMultiset([(v, k, "quotient") for v, k in exact])
        assert rank_deviation(spectrum, exact) == 0.0, flavor
        for i, (v, k) in enumerate(exact):
            moved = exact[:i] + [(v + 1e-6 * max(1.0, abs(v)), k)] + exact[i + 1 :]
            assert rank_deviation(spectrum, moved) > EXACT_TOL, (flavor, i)
            grown = exact[:i] + [(v, k + 1)] + exact[i + 1 :]
            assert rank_deviation(spectrum, grown) == float("inf"), (flavor, i)


def product_spec(qs):
    return "x".join(f"GF({q})" for q in qs)


def test_field_products_match_the_closed_route():
    # up to 510 classes, 2^k - 2 for k factors
    checked = [qs for qs in FIELD_PRODUCTS if 2 ** len(qs) - 2 <= 510]
    assert len(checked) == 12
    for qs in checked:
        spectrum = assemble_spectrum(ring_join_decomposition(parse_ring_spec(product_spec(qs))), "adjacency")
        found = rank_deviation(spectrum, field_product_adjacency(qs))
        assert found <= EXACT_TOL, (qs, found)


def test_field_products_match_the_dense_oracle():
    checked = [qs for qs in FIELD_PRODUCTS if prod(qs) - prod(q - 1 for q in qs) - 1 <= 600]
    assert len(checked) == 7  # GF(2)^9 has 510 vertices
    for qs in checked:
        spectrum = brute_spectrum(build_zdg(parse_ring_spec(product_spec(qs))), "adjacency")
        found = rank_deviation(spectrum, field_product_adjacency(qs))
        assert found <= EXACT_TOL, (qs, found)


def test_field_products_keep_the_trace_identities():
    # 2|E| counts the ordered pairs of nonzero elements with disjoint
    # supports: prod(2q - 1) pairs of disjoint supports, weighted by their
    # sizes, less those where either element is 0
    for qs in FIELD_PRODUCTS:
        runs = field_product_adjacency(qs)
        twice_edges = prod(2 * q - 1 for q in qs) - 2 * prod(qs) + 1
        assert abs(sum(v * k for v, k in runs)) <= EXACT_TOL * twice_edges ** 0.5, qs
        assert abs(sum(v * v * k for v, k in runs) / twice_edges - 1) <= EXACT_TOL, qs

