"""Acceptance gate: ten numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; under a plain run the verdicts appear in the captured output and in
the per-test PASSED/FAILED column.
"""

import contextlib
import functools
import time
import warnings

import numpy as np
import pytest

from reference import (
    blow_up,
    boolean_pairing_report,
    check_shift_lemma,
    classes_annihilator,
    column_space,
    connected_component_count,
    fiedler_check,
    member_sets,
    neighborhood,
    rank,
    row_space,
    semisimple_class_size,
)
from zdgspectra.classes import classes_for
from zdgspectra.counts import (
    class_count_matrix,
    class_size_matrix,
    compressed_degree_matrix,
    idempotent_count,
    nilpotent2_count,
    q_binomial,
    rank_count,
    SemisimpleProfile,
    semisimple_class_degree,
    semisimple_vertex_degree,
)
from zdgspectra.graph import build_zdg
from zdgspectra.rings import GF, MatRing, Zn, parse_ring_spec
from zdgspectra.spectra import (
    adjacency_matrix,
    assemble_spectrum,
    brute_spectrum,
    decompose,
    duplicate_lift,
    multiset_equal,
    ring_join_decomposition,
    spectrum_pair,
)


@contextlib.contextmanager
def criterion(number, name):
    """Print one PASS/FAIL line for the numbered criterion."""
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL: {name}")
        raise
    print(f"criterion {number:2d}: PASS: {name}")


MATRIX_RINGS = ["M(2,GF(2))", "M(2,GF(3))"]
SEMISIMPLE_RINGS = [
    "Zn(2)xZn(3)",
    "Zn(2)xZn(2)xZn(2)",
    "M(2,GF(2))xGF(2)",
    "GF(2)xGF(3)xGF(5)",
]


@functools.lru_cache(maxsize=1)
def sweep_results():
    """Joined-vs-brute comparison data for every acceptance ring.

    Returns (elapsed_seconds, rows); each row carries the assembled and
    brute spectra for both relations and flavors plus the structural data
    criterion 8 needs. Cached so criteria 3, 4, 5 and 8 share one sweep.
    """
    specs = [f"Zn({n})" for n in range(6, 201)] + MATRIX_RINGS + SEMISIMPLE_RINGS
    rows = []
    started = time.perf_counter()
    for spec in specs:
        ring = parse_ring_spec(spec)
        g = build_zdg(ring)
        row = {
            "spec": spec,
            "order": g.order,
            "edges": g.edge_count,
            "components": connected_component_count(g),
            "checks": [],
        }
        if g.order:
            adjacency = adjacency_matrix(g)
            brute = {f: brute_spectrum(g, f) for f in ("adjacency", "laplacian")}
            for relation in ("associate", "neighborhood"):
                dec = decompose(g, classes_for(g, relation))
                reconstructed = np.array_equal(blow_up(dec), adjacency)
                for flavor in ("adjacency", "laplacian"):
                    ours = assemble_spectrum(dec, flavor)
                    match = multiset_equal(ours, brute[flavor], tol=1e-7)
                    row["checks"].append(
                        {
                            "relation": relation,
                            "flavor": flavor,
                            "matched": match.matched,
                            "max_dev": match.max_deviation,
                            "values": ours.values,
                            "reconstructed": reconstructed,
                        }
                    )
        rows.append(row)
    return time.perf_counter() - started, rows


def test_criterion_01_partition_anchors():
    with criterion(1, "Zn(18)/Zn(16) partition anchors, exact sets, < 1 s"):
        started = time.perf_counter()

        ring = Zn(18)
        vertices = build_zdg(ring).vertices
        annih = member_sets(classes_annihilator(build_zdg(ring)), vertices)
        assert annih == {
            frozenset({2, 4, 8, 10, 14, 16}),
            frozenset({3, 15}),
            frozenset({6, 12}),
            frozenset({9}),
        }
        neigh = member_sets(classes_for(build_zdg(ring), "neighborhood"), vertices)
        assert neigh == {
            frozenset({2, 4, 8, 10, 14, 16}),
            frozenset({3, 15}),
            frozenset({6}),
            frozenset({12}),
            frozenset({9}),
        }

        ring = Zn(16)
        vertices = build_zdg(ring).vertices
        assoc = member_sets(classes_for(build_zdg(ring), "associate"), vertices)
        assert assoc == {
            frozenset({2, 6, 10, 14}),
            frozenset({8}),
            frozenset({4, 12}),
        }
        neigh = member_sets(classes_for(build_zdg(ring), "neighborhood"), vertices)
        assert neigh == {
            frozenset({2, 6, 10, 14}),
            frozenset({8}),
            frozenset({4}),
            frozenset({12}),
        }

        assert time.perf_counter() - started < 1.0


def test_criterion_02_duplicate_lift_worked_example():
    with criterion(2, "duplicate_lift worked example mu = 4, < 0.1 s"):
        started = time.perf_counter()
        b = [[-1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        res = duplicate_lift(b, j=1, m=2, lam=2.0, v=[0.0, 1.0, 0.0])
        assert res.mu == pytest.approx(4.0, abs=1e-12)
        assert list(res.vector) == [0.0, 1.0, 1.0, 0.0]
        w = np.asarray(res.vector)
        assert float(np.max(np.abs(res.matrix @ w - res.mu * w))) <= 1e-8
        assert time.perf_counter() - started < 0.1


def test_criterion_03_zn_oracle_sweep():
    with criterion(3, "Zn sweep n in [6,200], both relations and flavors, <= 1e-7, < 60 s"):
        elapsed, rows = sweep_results()
        zn_rows = [r for r in rows if r["spec"].startswith("Zn(") and "x" not in r["spec"]]
        assert len(zn_rows) == 195
        worst = 0.0
        for row in zn_rows:
            for check in row["checks"]:
                assert check["matched"], (row["spec"], check["relation"], check["flavor"])
                worst = max(worst, check["max_dev"])
        assert worst <= 1e-7
        assert elapsed < 60.0


def test_criterion_04_matrix_ring_oracle_and_class_data():
    with criterion(4, "M_2(F_2), M_2(F_3) spectra + per-class data, < 5 s"):
        started = time.perf_counter()
        _, rows = sweep_results()
        for spec in MATRIX_RINGS:
            row = next(r for r in rows if r["spec"] == spec)
            assert row["checks"] and all(c["matched"] for c in row["checks"])

        for q in (2, 3):
            ring = MatRing(2, GF(q))
            g = build_zdg(ring)
            part = classes_for(build_zdg(ring), "associate")
            for c in part.classes:
                rep = g.vertices[c.representative]
                r = rank(ring, rep)
                sq_zero = ring.mul(rep, rep) == ring.zero
                assert c.size == class_size_matrix(r, q)
                assert (c.kind == "complete") == sq_zero
                # compressed degree: the closed form counts ordered
                # annihilating partner classes; subtracting the self term
                # for square-zero reps gives the loop-free class degree
                cdeg = 0
                for d in part.classes:
                    if d is c:
                        continue
                    other = g.vertices[d.representative]
                    if (
                        ring.mul(rep, other) == ring.zero
                        or ring.mul(other, rep) == ring.zero
                    ):
                        cdeg += 1
                assert compressed_degree_matrix(2, q, r) - int(sq_zero) == cdeg
        assert time.perf_counter() - started < 5.0


def test_criterion_05_semisimple_oracle_and_closed_forms():
    with criterion(5, "semisimple rings spectra + componentwise closed forms, < 10 s"):
        started = time.perf_counter()
        _, rows = sweep_results()
        for spec in SEMISIMPLE_RINGS:
            row = next(r for r in rows if r["spec"] == spec)
            assert row["checks"] and all(c["matched"] for c in row["checks"])

        for spec in SEMISIMPLE_RINGS:
            ring = parse_ring_spec(spec)
            g = build_zdg(ring)
            part = classes_for(build_zdg(ring), "associate")
            factors = ring.factors if hasattr(ring, "factors") else [ring]
            shape = []
            for f in factors:
                if hasattr(f, "n") and hasattr(f, "field"):
                    shape.append((f.n, f.field.q))
                elif hasattr(f, "q"):
                    shape.append((1, f.q))
                else:
                    shape.append((1, f.cardinality))
            for c in part.classes:
                rep = g.vertices[c.representative]
                comps = rep if isinstance(rep, tuple) and len(factors) > 1 else (rep,)
                ranks = []
                for f, comp in zip(factors, comps):
                    if isinstance(f, MatRing):
                        ranks.append(rank(f, comp))
                    else:
                        ranks.append(0 if comp == f.zero else 1)
                prof = SemisimpleProfile(tuple(shape), tuple(ranks))
                sq_zero = ring.mul(rep, rep) == ring.zero
                assert semisimple_class_size(prof) == c.size, (spec, rep)
                assert semisimple_vertex_degree(prof, sq_zero) == len(neighborhood(g, rep))
                cdeg = sum(
                    1
                    for d in part.classes
                    if d is not c
                    and (
                        ring.mul(rep, g.vertices[d.representative]) == ring.zero
                        or ring.mul(g.vertices[d.representative], rep) == ring.zero
                    )
                )
                assert semisimple_class_degree(prof, sq_zero) == cdeg, (spec, rep)
        assert time.perf_counter() - started < 10.0


def test_criterion_06_counting_census():
    with criterion(6, "counting census, exact integers vs enumeration, < 5 s"):
        started = time.perf_counter()

        assert idempotent_count(2, 2) == 6
        assert nilpotent2_count(2, 2) == 3
        assert class_count_matrix(2, 2) == 9
        assert class_count_matrix(2, 3) == 16
        assert rank_count(2, 2, 1, 2) == 9
        assert class_size_matrix(1, 3) == 2

        # brute-force oracles
        ring = MatRing(2, GF(2))
        els = ring.elements()
        assert idempotent_count(2, 2) == sum(
            1 for a in els if ring.mul(a, a) == a and a not in (ring.zero, ring.one)
        )
        assert nilpotent2_count(2, 2) == sum(
            1 for a in els if a != ring.zero and ring.mul(a, a) == ring.zero
        )
        assert class_count_matrix(2, 2) == len(
            {(row_space(ring, a), column_space(ring, a)) for a in ring.zero_divisors()}
        )
        assert rank_count(2, 2, 1, 2) == sum(1 for a in els if rank(ring, a) == 1)

        ring3 = MatRing(2, GF(3))
        assert class_count_matrix(2, 3) == len(
            {(row_space(ring3, a), column_space(ring3, a)) for a in ring3.zero_divisors()}
        )
        sizes = {
            c.size for c in classes_for(build_zdg(ring3), "associate").classes
        }
        assert sizes == {class_size_matrix(1, 3)}  # every class is rank 1

        assert time.perf_counter() - started < 5.0


def test_criterion_07_q_binomial_identities():
    with criterion(7, "q-binomial identities for n <= 6, q in {2,3,4,5}, < 1 s"):
        started = time.perf_counter()
        for q in (2, 3, 4, 5):
            for n in range(7):
                for r in range(n + 1):
                    assert q_binomial(n, r, q) == q_binomial(n, n - r, q)
                if n >= 1:
                    assert q_binomial(n, 1, q) == (q**n - 1) // (q - 1)
                lhs = sum(
                    q ** (r * r) * q_binomial(n, r, q) ** 2 for r in range(n + 1)
                )
                assert lhs == q_binomial(2 * n, n, q)
        assert time.perf_counter() - started < 1.0


def test_criterion_08_structural_invariants():
    with criterion(8, "trace, Laplacian sum, zero multiplicity, bit-exact blow-up"):
        _, rows = sweep_results()
        for row in rows:
            for check in row["checks"]:
                assert check["reconstructed"], row["spec"]
                values = check["values"]
                if check["flavor"] == "adjacency":
                    assert abs(sum(values)) <= 1e-6, row["spec"]
                else:
                    assert abs(sum(values) - 2 * row["edges"]) <= 1e-6, row["spec"]
                    zero_mult = sum(1 for v in values if abs(v) < 1e-6)
                    assert zero_mult == row["components"], row["spec"]


def test_criterion_09_fiedler_and_shift_randomized():
    with criterion(9, "100 random two-graph combinations + 100 shift instances"):
        rng = np.random.default_rng(20260819)

        for _ in range(100):
            na = int(rng.integers(1, 9))
            nb = int(rng.integers(1, 9))
            a = rng.integers(-3, 4, size=(na, na)).astype(float)
            a = (a + a.T) / 2
            b = rng.integers(-3, 4, size=(nb, nb)).astype(float)
            b = (b + b.T) / 2
            _, ua = np.linalg.eigh(a)
            _, ub = np.linalg.eigh(b)
            rho = float(rng.integers(-3, 4))
            report = fiedler_check(a, b, ua[:, -1], ub[:, -1], rho)
            assert report.matched and report.max_deviation <= 1e-8

        for _ in range(100):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            n = n1 + n2
            bdiag = np.concatenate(
                [
                    np.full(n1, float(rng.integers(-3, 4))),
                    np.full(n2, float(rng.integers(-3, 4))),
                ]
            )
            a = np.zeros((n, n))
            a1 = rng.integers(-3, 4, size=(n1, n1)).astype(float)
            a2 = rng.integers(-3, 4, size=(n2, n2)).astype(float)
            a[:n1, :n1] = (a1 + a1.T) / 2
            a[n1:, n1:] = (a2 + a2.T) / 2
            ddiag = rng.integers(1, 4, size=n).astype(float)
            report = check_shift_lemma(bdiag, a, ddiag)
            assert report.matched and report.max_deviation <= 1e-8


def test_criterion_10_boolean_pairing_informational():
    with criterion(10, "pairing {lambda, -1/lambda} on Z_2^2 and Z_2^3 (informational)"):
        for spec in ("Zn(2)xZn(2)", "Zn(2)xZn(2)xZn(2)"):
            adj, _ = spectrum_pair(ring_join_decomposition(parse_ring_spec(spec)))
            report = boolean_pairing_report(adj.values)
            if not report["matched"]:
                warnings.warn(
                    f"{spec}: nonzero adjacency eigenvalues do not admit a "
                    f"{{lambda, -1/lambda}} pairing within 1e-6: "
                    f"unpaired {report['unpaired']}"
                )
            else:
                for lam, mate in report["paired"]:
                    assert abs(lam * mate + 1.0) <= 1e-5
