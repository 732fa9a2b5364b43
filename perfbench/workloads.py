"""The benchmark's three workloads: which rings each op gets, what the op
calls in zdgspectra, and how the benchmark checks what came back.

Every workload turns a seed into a list of ring specs (`draw`), runs one op
per spec (`op`, the only timed part) and then checks the op's output with
arithmetic of its own (`check`, untimed).  Specs within one list are
distinct, so no op can reuse the graph or enumeration cache of another.

A pass over the list is one run.  Each workload has a fixed ring set and
the seed sets the order, so every run does the same work.  With the
current Jacobi kernel a few rings cost seconds each, because it runs all
100 sweeps before it raises; zn-verify runs that drew random subsets of
Zn(6..200) would spread by 50-150% in ops per second between seeds
(simulated from measured per-ring times).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

TOL = 1e-7  # the spectrum tolerance of the verify gate
TRACE_RTOL = 1e-9  # relative tolerance for trace sums over whole spectra

# zn-verify covers Zn(6..100).  The gate's full range Zn(6..200) takes
# about 230 s per pass with the current Jacobi kernel, more than one run
# may last.
ZN_VERIFY_RANGE = range(6, 101)
ZN_RELATIONS = ("associate", "neighborhood")

# closed-large: one Zn(n) from each of 40 equal-width bands of |V| over
# [V_MIN, V_MAX], none with more than CLASS_MAX classes.  Each n was drawn
# uniformly (random.Random(0)) from the moduli below 3 * band top that fall
# in the band; the set is fixed so that every run does the same work.
V_MIN = 100_000
V_MAX = 1_000_000
CLASS_MAX = 80
CLOSED_LARGE_MODULI = (
    235748, 237028, 292766, 537215, 360502, 319038, 674799, 729951,
    790075, 531902, 1038651, 477990, 780214, 802784, 1301493, 872038,
    1374033, 921044, 710070, 724020, 1695867, 1724139, 1211152, 1238985,
    902640, 1287512, 1205218, 1339078, 1600545, 1572417, 1590532, 2391267,
    1609616, 1689034, 1764058, 1993257, 1823546, 1908334, 1789862, 1976764,
)


# ---------------------------------------------------------------------------
# ring arithmetic the checks rely on, kept independent of zdgspectra


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def zn_vertex_count(n: int) -> int:
    """Nonzero zero-divisors of Z_n: everything but 0 and the units."""
    return n - euler_phi(n) - 1


def zn_degree_sum(n: int) -> int:
    """2|E| of Gamma(Z_n).  A vertex x with gcd(x, n) = d is adjacent to
    the d - 1 nonzero multiples of n/d, less itself when n | d^2; there
    are phi(n/d) such x."""
    return sum(
        euler_phi(n // d) * (d - 1 - (1 if (d * d) % n == 0 else 0))
        for d in divisors(n)[1:-1]
    )


# factors of the ring-graph pool: ("Zn", n), ("GF", q) or ("M", k, q)


def _factor_spec(f) -> str:
    if f[0] == "Zn":
        return f"Zn({f[1]})"
    if f[0] == "GF":
        return f"GF({f[1]})"
    return f"M({f[1]},GF({f[2]}))"


def _factor_order_units(f) -> tuple[int, int]:
    if f[0] == "Zn":
        return f[1], euler_phi(f[1])
    if f[0] == "GF":
        return f[1], f[1] - 1
    k, q = f[1], f[2]
    return q ** (k * k), math.prod(q**k - q**i for i in range(k))


def _factor_semisimple(f) -> bool:
    return f[0] != "Zn" or factorize(f[1]) == [(f[1], 1)]


def _z2(k):
    return tuple(("Zn", 2) for _ in range(k))


# ROADMAP's matrix and Boolean rings plus mixed products.  The products
# put enough ops around the median and the tail percentile that neither
# rests on one or two ops.  M(2,GF(2))xM(2,GF(2)) (8 s with the current
# Jacobi kernel), M(2,GF(9)) and Z_2^7 (about 10 s each) are left out so
# that a pass takes well under one run, even when the host runs slow.
RING_GRAPH_POOL = (
    [(("M", 2, q),) for q in (2, 3, 4, 5, 7, 8)]
    + [(("M", 3, 2),)]
    + [_z2(k) for k in range(2, 7)]
    + [
        (("M", 2, 3), ("GF", 2)),
        (("M", 2, 2), ("Zn", 4)),
        (("Zn", 4), ("Zn", 9), ("GF", 2)),
        (("M", 2, 2), ("GF", 3)),
        (("M", 2, 2), ("GF", 4)),
        (("M", 2, 2), ("Zn", 9)),
        (("M", 2, 3), ("Zn", 4)),
        (("GF", 4), ("GF", 8)),
        (("GF", 3), ("GF", 5), ("GF", 7)),
        (("GF", 2), ("GF", 4), ("GF", 8)),
        (("Zn", 8), ("GF", 3)),
        (("Zn", 9), ("GF", 4)),
        (("Zn", 4), ("Zn", 4)),
        (("Zn", 8), ("Zn", 2)),
        (("Zn", 27), ("GF", 2)),
        (("Zn", 16), ("GF", 3)),
        (("Zn", 4), ("Zn", 2), ("GF", 3)),
        (("Zn", 25), ("GF", 2)),
        (("Zn", 12), ("GF", 5)),
        (("M", 2, 2), ("GF", 5)),
        (("M", 2, 2), ("GF", 7)),
        (("M", 2, 2), ("GF", 8)),
        (("M", 2, 2), ("GF", 9)),
        (("M", 2, 2), ("Zn", 8)),
        (("M", 2, 2), ("Zn", 2), ("Zn", 2)),
        (("M", 2, 3), ("GF", 3)),
        _z2(4) + (("GF", 3),),
        (("GF", 3),) * 4,
        (("Zn", 8), ("Zn", 2), ("Zn", 2), ("GF", 3)),
        (("Zn", 4),) + _z2(3),
        (("GF", 4),) * 3,
        (("Zn", 9), ("Zn", 9)),
        (("Zn", 32), ("GF", 3)),
        (("GF", 2), ("GF", 3), ("GF", 4), ("GF", 5)),
    ]
)


def product_spec(factors) -> str:
    return "x".join(_factor_spec(f) for f in factors)


POOL_FACTORS = {product_spec(f): f for f in RING_GRAPH_POOL}
SEMISIMPLE = {
    spec: all(_factor_semisimple(f) for f in factors)
    for spec, factors in POOL_FACTORS.items()
}


# ---------------------------------------------------------------------------
# the workloads


@dataclass
class Outcome:
    """What the benchmark's check found for one op that returned."""

    reason: str | None  # None when every check passed
    max_dev: float = 0.0  # largest spectrum deviation the op compared


def _spectrum_deviation(a, b) -> float:
    a = sorted(a)
    b = sorted(b)
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _trace_ok(total: float, expected: float, values) -> bool:
    scale = max(1.0, math.fsum(abs(v) for v in values))
    return abs(total - expected) <= TRACE_RTOL * scale


class _FixedSet:
    """A workload over a fixed ring set; the seed sets the order."""

    specs: tuple[str, ...] = ()

    def draw(self, seed: int) -> list[str]:
        specs = list(self.specs)
        random.Random(seed).shuffle(specs)
        return specs


class ZnVerify(_FixedSet):
    """verify_ring(Zn(n), relation) for both relations and both flavors."""

    name = "zn-verify"
    specs = tuple(f"Zn({n})" for n in ZN_VERIFY_RANGE)

    def op(self, lib, spec, ring):
        return [lib.spectra.verify_ring(ring, relation) for relation in ZN_RELATIONS]

    def check(self, lib, spec, ring, outcomes) -> Outcome:
        dev = max(o.max_deviation for o in outcomes)
        for o in outcomes:
            if o.order != zn_vertex_count(ring.n):
                return Outcome(f"check:order-{o.relation}", dev)
            if not o.matched:
                return Outcome(f"check:oracle-mismatch-{o.relation}", dev)
        return Outcome(None, dev)


class RingGraph(_FixedSet):
    """Graph-route decomposition and spectra of non-Z_n rings; semisimple
    rings are cross-checked against the closed route."""

    name = "ring-graph"
    specs = tuple(POOL_FACTORS)

    def op(self, lib, spec, ring):
        dec = lib.spectra.ring_join_decomposition(ring, "associate", "graph")
        graph_route = lib.spectra.spectrum_pair(dec)
        closed_route = None
        if SEMISIMPLE[spec]:
            closed_route = lib.spectra.spectrum_pair(
                lib.spectra.ring_join_decomposition(ring, "associate", "closed")
            )
        return graph_route, closed_route

    def check(self, lib, spec, ring, result) -> Outcome:
        (adj, lap), closed_route = result
        sizes = [_factor_order_units(f) for f in POOL_FACTORS[spec]]
        order = math.prod(s for s, _ in sizes) - math.prod(u for _, u in sizes) - 1
        dev = 0.0
        if closed_route is not None:
            dev = max(
                _spectrum_deviation(adj.values, closed_route[0].values),
                _spectrum_deviation(lap.values, closed_route[1].values),
            )
        if len(adj.values) != order or len(lap.values) != order:
            return Outcome("check:length", dev)
        two_e = 2 * lib.graph.build_zdg(ring).edge_count
        if not _trace_ok(math.fsum(adj.values), 0.0, adj.values):
            return Outcome("check:adjacency-trace", dev)
        if not _trace_ok(math.fsum(lap.values), two_e, lap.values):
            return Outcome("check:laplacian-trace", dev)
        if dev > TOL:
            return Outcome("check:closed-route-mismatch", dev)
        return Outcome(None, dev)


class ClosedLarge(_FixedSet):
    """Closed-route spectra of Z_n with 10^5 <= |V| <= 10^6, no enumeration."""

    name = "closed-large"
    specs = tuple(f"Zn({n})" for n in CLOSED_LARGE_MODULI)

    def op(self, lib, spec, ring):
        dec = lib.spectra.ring_join_decomposition(ring, "associate", "closed")
        return dec, lib.spectra.spectrum_pair(dec)

    def check(self, lib, spec, ring, result) -> Outcome:
        dec, (adj, lap) = result
        n = ring.n
        order = zn_vertex_count(n)
        if dec.order != order or len(adj.values) != order or len(lap.values) != order:
            return Outcome("check:length")
        if not _trace_ok(math.fsum(adj.values), 0.0, adj.values):
            return Outcome("check:adjacency-trace")
        if not _trace_ok(math.fsum(lap.values), zn_degree_sum(n), lap.values):
            return Outcome("check:laplacian-trace")
        return Outcome(None)


WORKLOADS = {w.name: w for w in (ZnVerify(), RingGraph(), ClosedLarge())}
