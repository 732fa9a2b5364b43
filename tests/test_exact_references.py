"""Exact spectra of whole families against both routes.

`reference.complete_bipartite_spectra` and `reference.m2_spectra` give
the spectra of Gamma(F x F') and Gamma(M_2(F_q)) from q alone, at any
size.  The closed route must match them rank against rank within
EXACT_TOL * max(1, |exact|), past the graph caps too, and each reference
must match the dense oracle wherever the graph has at most about 600
vertices, so the references are themselves checked.
"""

import itertools

import pytest

from reference import complete_bipartite_spectra, m2_spectra, rank_deviation
from zdgspectra.graph import build_zdg
from zdgspectra.rings import parse_ring_spec
from zdgspectra.spectra import FLAVORS, SpectrumMultiset, brute_spectrum, ring_join_decomposition, spectrum_pair

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
