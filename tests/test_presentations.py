"""One ring, two presentations: a check of the closed route past the graph caps.

The closed route reaches isomorphic presentations through different code:
`Zn._class_table` does divisor arithmetic on one modulus, `ProductRing`
folds its factors' tables in mixed radix, and `MatRing` and `GF` have
tables of their own.  So the integer invariants of the join must be equal
on each pair, and the spectra must agree run against run within
C_BOUND * m * eps * ||C||_inf, the accuracy of a backward-stable symmetric
eigensolver on the order-m quotient C (Demmel, Applied Numerical Linear
Algebra, 1997, ch. 5).  None of these rings needs a graph; the Zn(n)
pairs past 10^9 are far past the graph caps.
"""

import math

import numpy as np
import pytest

from zdgspectra.rings import parse_ring_spec
from zdgspectra.spectra import FLAVORS, _join_parts, assemble_spectrum, multiset_equal, ring_join_decomposition

C_BOUND = 2  # fixed before any deviation was measured

# Zn(n) against the product of its Zn(p^a)
CRT_PAIRS = [
    (4620, [4, 3, 5, 7, 11]),
    (720720, [16, 9, 5, 7, 11, 13]),
    (963761198, [2, 107, 4503557]),
    (6469693230, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
    (6983776800, [32, 27, 25, 7, 11, 13, 17, 19]),
]

PRESENTATIONS = [(f"Zn({n})", "x".join(f"Zn({k})" for k in moduli)) for n, moduli in CRT_PAIRS] + [
    ("Zn(12)", "Zn(4)xZn(3)"),
    ("Zn(7)", "GF(7)"),
    ("Zn(7)", "M(1,GF(7))"),
    ("GF(7)", "M(1,GF(7))"),
    ("M(2,GF(3))xZn(4)", "Zn(4)xM(2,GF(3))"),
    ("M(2,GF(2))xGF(3)xGF(4)", "GF(4)xGF(3)xM(2,GF(2))"),
]


def _is_prime_power(k: int) -> bool:
    p = next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)  # the least prime factor
    while k % p == 0:
        k //= p
    return k == 1


@pytest.mark.parametrize("n, moduli", CRT_PAIRS)
def test_crt_pairs_split_n_into_coprime_prime_powers(n, moduli):
    # the list itself, by trial division, not by the package's factorization
    assert math.prod(moduli) == n
    assert all(_is_prime_power(k) for k in moduli)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :])


def join_invariants(ring, dec):
    """The class count, the vertex count and the sorted (n_i, N_i, complete_i)
    triples, N_i being the total size of cell i's H-neighborhood."""
    big_n = dec.degrees - (dec.sizes - 1) * dec.complete
    triples = sorted(zip(dec.sizes.tolist(), big_n.tolist(), dec.complete.tolist()))
    return ring.class_count(), ring.vertex_count(), dec.order, triples


@pytest.mark.parametrize("first, second", PRESENTATIONS)
def test_two_presentations_of_one_ring_agree(first, second):
    rings = [parse_ring_spec(spec) for spec in (first, second)]
    decs = [ring_join_decomposition(ring, method="closed") for ring in rings]
    invariants = [join_invariants(ring, dec) for ring, dec in zip(rings, decs)]
    assert invariants[0] == invariants[1]
    assert invariants[0][1] == invariants[0][2]
    m = decs[0].class_count
    for flavor in FLAVORS:
        norm = max(np.abs(_join_parts(dec, flavor)[0]).sum(axis=1).max(initial=0.0) for dec in decs)
        scale = m * np.finfo(np.float64).eps * norm
        check = multiset_equal(*(assemble_spectrum(dec, flavor) for dec in decs), tol=C_BOUND * scale)
        assert check.matched, (flavor, check.max_deviation, scale)
