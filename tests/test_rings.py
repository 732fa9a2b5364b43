"""Ring construction, arithmetic axioms, and the spec-string parser."""

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from reference import (
    classes_associate,
    divisors,
    column_space,
    enumerate_elements,
    euler_phi,
    is_unit,
    rank,
    row_space,
    units,
    _commutative_hypothesis,
    _noncommutative_hypothesis,
    _scan_commutative_hypothesis,
    _scan_noncommutative_hypothesis,
)
from test_acceptance import MATRIX_RINGS, SEMISIMPLE_RINGS
from test_differential import FACTORS as DIFFERENTIAL_FACTORS
from zdgspectra import numth
from zdgspectra import rings as rings_module
from zdgspectra.classes import classes_for
from zdgspectra.graph import build_zdg
from zdgspectra.rings import (
    GF,
    MatRing,
    ProductRing,
    RingError,
    RingSpecError,
    Zn,
    _smallest_irreducible,
    parse_ring_spec,
    row_blocks,
)
from zdgspectra.spectra import decomposition_semisimple_closed


def phi_trial(n: int) -> int:
    # independent Euler phi by trial counting, used as the oracle below
    return sum(1 for a in range(1, n) if _gcd(a, n) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# rings small enough for exhaustive axiom sweeps (cardinality <= 256)
AXIOM_RINGS = [
    Zn(12),
    Zn(16),
    Zn(30),
    GF(2, 2),
    GF(3, 2),
    GF(2, 3),
    MatRing(2, GF(2)),
    ProductRing([Zn(2), Zn(3)]),
    ProductRing([Zn(4), Zn(4)]),
]


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=lambda r: r.spec_string())
def test_axioms_exhaustive(ring):
    els = ring.elements()
    assert len(els) == ring.cardinality <= 256
    for a in els:
        assert ring.add(a, ring.zero) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.mul(a, ring.one) == a
        assert ring.mul(ring.one, a) == a
    # associativity and distributivity on the full cube is O(n^3); keep the
    # big rings to a deterministic stride so the sweep stays under a second
    stride = max(1, len(els) // 24)
    sample = els[::stride]
    for a in sample:
        for b in sample:
            ab = ring.mul(a, b)
            for c in sample:
                assert ring.mul(ab, c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(
                    ring.mul(a, b), ring.mul(a, c)
                )
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=lambda r: r.spec_string())
def test_units_match_inverse_search(ring):
    els = ring.elements()
    for a in els:
        has_inverse = any(
            ring.mul(a, b) == ring.one and ring.mul(b, a) == ring.one for b in els
        )
        assert is_unit(ring, a) == has_inverse


def test_zero_divisor_counts_zn():
    for n in range(2, 201):
        ring = Zn(n)
        zd = ring.zero_divisors()
        unit_set = set(units(ring))
        assert ring.zero not in zd
        assert not unit_set.intersection(zd)
        assert len(zd) == n - phi_trial(n) - 1


def test_zero_divisors_are_zero_divisors():
    for ring in AXIOM_RINGS:
        els = ring.elements()
        zd = set(ring.zero_divisors())
        for a in els:
            if a == ring.zero:
                continue
            witnessed = any(
                b != ring.zero
                and (ring.mul(a, b) == ring.zero or ring.mul(b, a) == ring.zero)
                for b in els
            )
            assert (a in zd) == witnessed


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_field_axioms(p, k):
    field = GF(p, k)
    assert field.cardinality == p**k
    els = field.elements()
    for a in els:
        if a == field.zero:
            continue
        inv = field.inv(a)
        assert field.mul(a, inv) == field.one
    # Frobenius x -> x^p is additive in characteristic p
    def power(x, e):
        y = field.one
        for _ in range(e):
            y = field.mul(y, x)
        return y

    for a in els:
        for b in els:
            assert power(field.add(a, b), p) == field.add(power(a, p), power(b, p))


def test_gf4_model():
    field = GF(2, 2)
    assert [field.label(e) for e in field.elements()] == ["0", "1", "x", "x+1"]
    # x^2 + x + 1 is the only monic irreducible quadratic over F_2
    assert field.modulus == (1, 1, 1)
    assert field.zero_divisors() == []


def schoolbook(field):
    """Sum, product and negation of field codes by schoolbook polynomial
    arithmetic modulo field.modulus: the reference the field's tables must
    match."""
    p, k, m = field.p, field.k, field.modulus

    def digits(a):
        return [a // p**i % p for i in range(k)]

    def code(cs):
        return sum(c * p**i for i, c in enumerate(cs))

    def add(a, b):
        return code([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):  # x^d = x^(d-k) x^k, and m is monic of degree k
            top = prod[d] % p
            for i in range(k + 1):
                prod[d - k + i] -= top * m[i]
        return code([c % p for c in prod[:k]])

    def neg(a):
        return code([-c % p for c in digits(a)])

    return add, mul, neg


def check_against_schoolbook(field, pairs):
    add, mul, neg = schoolbook(field)
    for a, b in pairs:
        assert field.add(a, b) == add(a, b), (a, b)
        assert field.mul(a, b) == mul(a, b), (a, b)
        assert field.neg(a) == neg(a), a
        if a:
            assert mul(a, field.inv(a)) == 1, a


FIELDS_TO_81 = [
    (p, k)
    for p in range(2, 82)
    if all(p % d for d in range(2, p))
    for k in range(1, 7)
    if p**k <= 81
]


@pytest.mark.parametrize("p,k", FIELDS_TO_81)
def test_field_arithmetic_every_pair(p, k):
    field = GF(p, k)
    q = field.q
    check_against_schoolbook(field, [(a, b) for a in range(q) for b in range(q)])
    with pytest.raises(RingError, match="0 has no inverse"):
        field.inv(0)


@pytest.mark.parametrize("p,k", [(23, 2), (2, 10), (3, 7)])
def test_field_arithmetic_random_pairs(p, k):
    field = GF(p, k)
    rng = random.Random(p * 100 + k)
    check_against_schoolbook(field, [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(2000)])


def test_gf512_builds_in_under_a_second():
    start = time.perf_counter()
    field = GF(2, 9)
    field.mul(2, 3)  # the first product builds the log tables
    assert time.perf_counter() - start < 1.0
    field.add(2, 3)
    # from then on add, neg, mul and inv index plain lists on the field
    assert all(type(vars(field)[name]) is list for name in ("_exp", "_log", "_zech"))


def test_prime_field_modulus_needs_no_scan():
    for p in (2, 3, 5, 7, 101, 1009):
        assert GF(p).modulus == (0, 1)
    for build in (lambda: _smallest_irreducible(1000003, 1), lambda: GF(1000003).modulus):
        tracemalloc.start()
        try:
            assert build() == (0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256])
def test_matring_field_tables_equal_the_field_arithmetic(q):
    # the tables are gathers on the log tables and digit sums: check them
    # against one call of the field's own mul and add per pair
    field = GF(*numth.prime_power(q))
    mul, add = MatRing(1, field)._field_tables
    for table, op in ((mul, field.mul), (add, field.add)):
        expected = np.array([[op(x, y) for y in range(q)] for x in range(q)])
        assert table.dtype == expected.dtype and np.array_equal(table, expected), op.__name__


def test_matring_basics():
    ring = MatRing(2, GF(2))
    e11 = ((1, 0), (0, 0))
    e22 = ((0, 0), (0, 1))
    assert ring.mul(e11, e22) == ring.zero
    assert not is_unit(ring, e11)
    assert len(ring.zero_divisors()) == 9
    assert not ring.commutative
    assert MatRing(1, GF(3)).commutative


def test_matring_rank_against_det():
    """For 2x2 matrices, rank has a closed description: 0 for the zero
    matrix, 2 when det is nonzero, 1 otherwise.  The determinant is
    written out, so it is independent of the elimination behind rank."""
    for q, field in ((2, GF(2)), (3, GF(3))):
        ring = MatRing(2, field)
        for a in ring.elements():
            (a00, a01), (a10, a11) = a
            det = field.sub(field.mul(a00, a11), field.mul(a01, a10))
            expected = 0 if a == ring.zero else (2 if det != 0 else 1)
            assert rank(ring, a) == expected, (q, a)


def test_matring_row_and_column_space():
    ring = MatRing(2, GF(2))
    a = ((1, 1), (1, 1))
    assert rank(ring, a) == 1
    assert row_space(ring, a) == (((1, 1),))
    assert column_space(ring, a) == (((1, 1),))


def test_product_ring():
    ring = ProductRing([Zn(2), Zn(3)])
    assert ring.cardinality == 6
    assert ring.commutative
    assert len(ring.zero_divisors()) == 3
    triple = parse_ring_spec("Zn(2) x Zn(3) x Zn(5)")
    assert isinstance(triple, ProductRing)
    assert len(triple.factors) == 3  # left-associative chain flattens
    assert triple.cardinality == 30


def test_parse_round_trips():
    for text, card in [
        ("Zn(18)", 18),
        ("GF(4)", 4),
        ("GF(8)", 8),
        ("M(2,GF(2))", 16),
        ("Zn(2)xZn(4)", 8),
        ("  M( 2 , GF( 3 ) ) x GF(2) ", 162),
    ]:
        ring = parse_ring_spec(text)
        assert ring.cardinality == card, text


def test_a_ring_is_its_spec():
    # equal specs are equal rings, however the ring was built, and the graph
    # cache serves a ring the graph of an equal one
    nested = ProductRing([ProductRing([Zn(2), Zn(4)]), GF(2, 2)])
    parsed = parse_ring_spec("Zn(2)xZn(4)xGF(4)")
    assert [f.spec_string() for f in nested.factors] == ["Zn(2)", "Zn(4)", "GF(4)"]
    assert nested == parsed and hash(nested) == hash(parsed)
    assert nested.elements() == parsed.elements()
    assert GF(2, 2) == parse_ring_spec("GF(4)") and MatRing(2, GF(3)) == parse_ring_spec("M(2,GF(3))")
    distinct = [Zn(4), GF(2, 2), MatRing(1, GF(2, 2)), Zn(2), ProductRing([Zn(2), Zn(2)])]
    assert len(set(distinct)) == len(distinct)
    assert all(a != b for a, b in itertools.combinations(distinct, 2))
    assert build_zdg(nested) is build_zdg(parsed)
    assert not any(hasattr(ring, "key") for ring in (*distinct, nested))


def test_parse_m1_behaves_as_field():
    ring = parse_ring_spec("M(1,GF(3))")
    assert ring.cardinality == 3
    assert ring.zero_divisors() == []
    labels = [ring.label(e) for e in ring.elements()]
    assert labels == ["[[0]]", "[[1]]", "[[2]]"]


def test_parse_errors_carry_positions():
    with pytest.raises(RingSpecError) as exc:
        parse_ring_spec("GF(6)")
    assert "prime power" in str(exc.value)
    assert exc.value.position == 3

    with pytest.raises(RingSpecError):
        parse_ring_spec("Zn(1)")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Qn(5)")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Zn(6) extra")
    with pytest.raises(RingSpecError):
        parse_ring_spec("M(2,Zn(4))")
    with pytest.raises(RingSpecError):
        parse_ring_spec("")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Zn(6) x")


ZN_TABLE_MODULI = list(range(2, 401)) + [720720, 6983776800, 48886437600, 2**40, 2 * 3**20]


@pytest.mark.parametrize("n", ZN_TABLE_MODULI, ids=str)
def test_zn_class_table_by_divisor_arithmetic(n):
    # class d holds the x with gcd(x, n) = d: phi(n/d) of them, the smallest
    # d % n, and the classes ascend in it; class d times class d' is 0
    # exactly when n/d divides d'; checked on Python ints
    sizes, kills, reps = Zn(n).class_table()
    ds = sorted(divisors(n), key=lambda d: d % n)
    assert reps.tolist() == [d % n for d in ds]
    assert sizes.tolist() == [euler_phi(n // d) for d in ds]
    assert sum(sizes.tolist()) == n
    assert kills.tolist() == [[dj % (n // di) == 0 for dj in ds] for di in ds]


def test_zn_zero_products_hold_one_int64_product():
    # the remainders are taken one row block at a time in one int64 buffer,
    # and the comparison in place: the bool result is the one V x V array
    # at the peak
    ring = Zn(2002)
    idx = np.flatnonzero(~ring._unit_mask())[1:]
    v = len(idx)
    assert v == 1281
    tracemalloc.start()
    try:
        zero = ring.zero_products(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zero.dtype == bool and zero.shape == (v, v)
    assert np.array_equal(zero, np.outer(idx, idx) % 2002 == 0)
    assert peak < 2 * v * v  # 1 byte of result per pair, and one int64 row block
    assert len(row_blocks(v, v)) > 1


def test_zn_zero_products_are_exact_for_every_int64_modulus():
    # y is in ann(x) exactly when n / gcd(x, n) divides y, and no two
    # residues are multiplied, so the table is exact wherever the products
    # would wrap in int64: at n = 55127^2, p(p - 1) * p(p - 2) is a multiple
    # of n, and at n = 3(2^61 - 1) the residues themselves pass 2^62;
    # n = 3,037,000,500 was the largest modulus whose products fit
    p = 55127
    q = 2**61 - 1
    m = 3_037_000_500
    cases = [
        (p * p, [p * (p - 1), p * (p - 2), 3 * p, 5]),
        (3 * q, [q, 3, 2 * q, 6, 5, 3 * q - 1]),
        (m, [m - 1, m // 2, 2, 5]),
    ]
    for n, idx in cases:
        expected = [[a * b % n == 0 for b in idx] for a in idx]
        assert Zn(n).zero_products(idx).tolist() == expected
    # a field of any size has no vertex, and an empty table
    assert Zn(q).zero_products([]).shape == (0, 0)


# one ring of each kind, and products mixing them
BLOCKED_RINGS = ["Zn(36)", "GF(8)", "M(2,GF(3))", "M(2,GF(4))", "M(2,GF(2))xZn(4)", "GF(4)xZn(6)xGF(2)"]


@pytest.mark.parametrize("entries", [1, 7, 100])
@pytest.mark.parametrize("spec", BLOCKED_RINGS)
def test_blocked_tables_equal_their_definitions(spec, entries, monkeypatch):
    # with row blocks of a few entries every table takes many blocks and a
    # short last one: each must still equal its definition, and so must the
    # degrees of the closed decomposition, summed a row block at a time
    monkeypatch.setattr(rings_module, "BLOCK_ENTRIES", entries)
    ring = parse_ring_spec(spec)
    els = ring.elements()
    assert ring._unit_mask().tolist() == [is_unit(ring, a) for a in els]
    idx = np.flatnonzero(~ring._unit_mask())[::-1]  # not ascending: rows are gathered by position
    table = ring.zero_products(idx)
    assert table.tolist() == [[ring.mul(els[a], els[b]) == ring.zero for b in idx] for a in idx]
    if isinstance(ring, Zn):
        ds, sizes, kills = ring._divisor_classes()
        assert kills.tolist() == [[di * dj % ring.n == 0 for dj in ds] for di in ds]
    dec = decomposition_semisimple_closed(ring)
    table, sizes = dec.table.tolist(), dec.sizes.tolist()
    degrees = [sum(n for t, n in zip(row, sizes) if t) - row[i] for i, row in enumerate(table)]
    assert dec.degrees.tolist() == degrees


@pytest.mark.parametrize("n", [6983776800, 963761198400])
def test_zn_divisor_classes_peak_at_their_table(n):
    # the kill table is built a row block at a time: the m x m bool table
    # and row-block temporaries at the peak, not an m x m comparison per prime
    ring = Zn(n)
    m = ring.class_count()
    tracemalloc.start()
    try:
        ds, sizes, kills = ring._divisor_classes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kills.shape == (m, m) and len(row_blocks(m, m)) > 1
    assert peak < 1.25 * m * m + (1 << 21), peak / (m * m)


# the rings small enough to check against enumeration here
ENUMERABLE = 20000

# every M(n, GF(q)), n >= 2, of at most ENUMERABLE elements
MATRIX_TABLE_SPECS = [
    f"M({n},GF({q}))"
    for n in (2, 3)
    for q in range(2, 12)
    if numth.prime_power(q) and q ** (n * n) <= ENUMERABLE
]
CLASS_TABLE_SPECS = (
    [f"Zn({n})" for n in ZN_TABLE_MODULI]
    + ["GF(8)", "M(1,GF(9))"]
    + MATRIX_TABLE_SPECS
    + ["M(2,GF(2))xZn(4)xGF(4)", "Zn(12)xM(2,GF(3))", "GF(8)xZn(2)xZn(9)"]
)


@pytest.mark.parametrize("spec", CLASS_TABLE_SPECS)
def test_class_table_lists_classes_by_smallest_member(spec):
    # (sizes, kills, reps) with no label function: reps ascend strictly from
    # 0, and the units are the one class that kills class 0 alone
    ring = parse_ring_spec(spec)
    table = ring.class_table()
    assert not any(callable(part) for part in table)
    sizes, kills, reps = table
    assert reps.dtype == np.int64 and reps[0] == 0 and (np.diff(reps) > 0).all()
    only_zero = ~kills[:, 1:].any(axis=1)
    assert only_zero.sum() == 1 and is_unit(ring, ring.decode([int(reps[np.argmax(only_zero)])])[0])
    if ring.cardinality <= ENUMERABLE:
        # against the unit orbits: {0}, the units and each orbit of
        # zero-divisors by the index of its first element, the class sizes,
        # and xy = 0 on the representatives
        unit = ring._unit_mask()
        vertex_index = np.flatnonzero(~unit)[1:]  # element 0 is the zero
        size_of = {0: 1, int(np.argmax(unit)): int(unit.sum())}
        size_of.update((int(vertex_index[c.representative]), c.size) for c in classes_associate(ring).classes)
        assert reps.tolist() == sorted(size_of)
        assert sizes.tolist() == [size_of[r] for r in sorted(size_of)]
        assert np.array_equal(kills, ring.zero_products(reps))


def test_vertex_count_bounds_the_ring(monkeypatch):
    # a ring with a zero-divisor has |R| <= (V + 1)^2 (Ganesan 1964; Koh
    # 1967), so the vertex cap bounds every array of |R| entries the graph
    # route makes; a ring with none is a field, of two associate classes.
    # Here equality holds at Z_{p^2} alone.  Closed counts only: nothing is
    # enumerated.
    def no_enumeration(self, *args):
        raise AssertionError("enumerated the ring")

    for kind in (Zn, GF, MatRing, ProductRing):
        monkeypatch.setattr(kind, "_unit_mask", no_enumeration)
        monkeypatch.setattr(kind, "decode", no_enumeration)
    differential = [
        "x".join(spec for spec, _, _ in factors)
        for k in (1, 2, 3)
        for factors in itertools.product(DIFFERENTIAL_FACTORS, repeat=k)
    ]
    acceptance = [f"Zn({n})" for n in range(6, 201)] + MATRIX_RINGS + SEMISIMPLE_RINGS
    specs = [f"Zn({n})" for n in range(2, 5001)] + CLASS_TABLE_SPECS + differential + acceptance
    squares = {f"Zn({p * p})" for p in range(2, 71) if numth.is_prime(p)}
    for spec in specs:
        ring = parse_ring_spec(spec)
        v = ring.vertex_count()
        if v == 0:
            assert ring.class_count() == 2, spec
        else:
            assert ring.cardinality <= (v + 1) ** 2, spec
        assert (ring.cardinality == (v + 1) ** 2) == (spec in squares), spec


def test_zn_unit_mask_sieves_the_primes():
    # one strided clear per prime of n, against the gcd definition
    for n in list(range(2, 2001)) + [720720, 2**20]:
        assert np.array_equal(Zn(n)._unit_mask(), np.gcd(np.arange(n), n) == 1), n


@pytest.mark.parametrize("q", [2, 9, 2003])
def test_one_by_one_matrices_read_the_field_table(q, monkeypatch):
    # M(1,GF(q)) is GF(q), and a 1 x 1 matrix's index is its entry's code,
    # so its table needs neither q x q table of the matrix route
    def no_table(self):
        raise AssertionError("built a q x q table")

    monkeypatch.setattr(MatRing, "_field_tables", property(no_table))
    monkeypatch.setattr(MatRing, "_kills", property(no_table))
    table = parse_ring_spec(f"M(1,GF({q}))").class_table()
    for part, expected in zip(table, parse_ring_spec(f"GF({q})").class_table(), strict=True):
        assert part.dtype == expected.dtype and np.array_equal(part, expected)


@pytest.mark.parametrize("spec", ["Zn(12)", "GF(8)", "M(2,GF(3))", "M(2,GF(2))xZn(4)xGF(4)"])
def test_element_decodes_an_index(spec):
    # one index at a time, as a label or a test reads one element
    ring = parse_ring_spec(spec)
    assert [ring.decode([i])[0] for i in range(ring.cardinality)] == enumerate_elements(ring)


DECODE_SPECS = [
    "Zn(12)",
    "GF(8)",
    "M(1,GF(9))",
    "M(2,GF(3))",
    "M(3,GF(2))",
    "M(2,GF(2))xZn(4)xGF(4)",
    "Zn(4)xM(2,GF(3))",
]


@pytest.mark.parametrize("spec", DECODE_SPECS)
def test_decode_equals_the_reference_enumeration(spec):
    # every index, a shuffle with repeats, one index and none, against the
    # lexicographic order stated in the reference, not against decode itself
    ring = parse_ring_spec(spec)
    expected = enumerate_elements(ring)
    assert ring.elements() == expected
    shuffled = np.random.default_rng(7).integers(0, ring.cardinality, size=2 * ring.cardinality)
    for idx in (np.arange(ring.cardinality), shuffled, np.array([ring.cardinality - 1]), np.arange(0)):
        assert ring.decode(idx) == [expected[i] for i in idx.tolist()], (spec, len(idx))


def test_class_table_refuses_a_huge_ring_before_factoring(monkeypatch):
    # the size check must come before the class count, so a factorization
    # here is a failure
    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(numth, "factorize", no_factorize)
    for spec in ("Zn(9223372036854775837)", "Zn(4294967311)xZn(4294967311)"):
        with pytest.raises(RingError, match="2\\^63 or more elements"):
            parse_ring_spec(spec).class_table()


def test_factorize_splits_large_prime_factors():
    # trial division up to the root ran for hours on each of these
    p, q = 2147483647, 2147483659
    assert numth.factorize(2**61 - 1) == [(2**61 - 1, 1)]
    assert numth.factorize(p * q) == [(p, 1), (q, 1)]
    assert numth.factorize(p * p) == [(p, 2)]
    assert numth.factorize(3 * 5 * p * q * q) == [(3, 1), (5, 1), (p, 1), (q, 2)]
    # one gcd finds the primes below 1,000; a cofactor below 1009^2 is prime
    assert numth.factorize(6 * 1018057) == [(2, 1), (3, 1), (1018057, 1)]  # the last prime below 1009^2
    assert numth.factorize(2 * 1009**2) == [(2, 1), (1009, 2)]
    assert numth.factorize(2 * 1009 * 1013) == [(2, 1), (1009, 1), (1013, 1)]
    assert numth.factorize(997**3 * 1018057) == [(997, 3), (1018057, 1)]
    fifteen = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 997, 1009, p]
    assert numth.factorize(math.prod(fifteen)) == [(f, 1) for f in fifteen]
    assert numth.is_prime(2**61 - 1) and not numth.is_prime(p * q)
    assert divisors(p * q) == [1, p, q, p * q]


def test_factorize_and_is_prime_agree_with_a_sieve():
    limit = 10**5
    smallest = list(range(limit + 1))  # smallest prime factor, by a sieve
    for f in range(2, int(limit**0.5) + 1):
        if smallest[f] == f:
            for m in range(f * f, limit + 1, f):
                smallest[m] = min(smallest[m], f)
    for n in range(2, limit + 1):
        expected, m = {}, n
        while m > 1:
            expected[smallest[m]] = expected.get(smallest[m], 0) + 1
            m //= smallest[m]
        assert numth.factorize(n) == sorted(expected.items()), n
        assert numth.is_prime(n) == (smallest[n] == n), n


# `_unit_mask` computes the units from element indices alone, so it relies on
# elements() being the sorted payloads; these rings cover every ring class
SPLIT_RINGS = [
    "M(3,GF(2))",
    "M(2,GF(4))",
    "M(2,GF(8))",
    "M(2,GF(3))xZn(4)",
    "M(2,GF(2))xGF(9)",
    "Zn(2)xZn(2)xZn(2)xZn(2)xZn(2)",
]
SPLIT_PRODUCTS = [spec for spec in SPLIT_RINGS if "x" in spec] + ["M(2,GF(2))xZn(3)"]


@pytest.mark.parametrize("spec", SPLIT_RINGS)
def test_units_and_zero_divisors_align_with_sorted_elements(spec):
    ring = parse_ring_spec(spec)
    els = ring.elements()
    assert len(els) == ring.cardinality
    assert els[0] == ring.zero
    assert all(a < b for a, b in zip(els, els[1:]))
    assert units(ring) == [a for a in els if is_unit(ring, a)]
    assert ring.zero_divisors() == [a for a in els if a != ring.zero and not is_unit(ring, a)]


@pytest.mark.parametrize("spec", SPLIT_PRODUCTS)
def test_product_hypotheses_read_the_factors(spec):
    ring = parse_ring_spec(spec)
    assert _commutative_hypothesis(ring) == _scan_commutative_hypothesis(ring)
    assert _noncommutative_hypothesis(ring) == _scan_noncommutative_hypothesis(ring)


# the ring tables read element indices (positions in elements()), never payloads
INDEX_RINGS = ["Zn(12)", "GF(4)", "M(2,GF(3))", "M(2,GF(4))", "M(2,GF(2))xZn(4)", "GF(4)xZn(6)"]


@pytest.mark.parametrize("spec", INDEX_RINGS)
def test_zero_products_read_element_indices(spec):
    ring = parse_ring_spec(spec)
    els = ring.elements()
    expected = np.array([[ring.mul(a, b) == ring.zero for b in els] for a in els])
    assert np.array_equal(ring.zero_products(np.arange(ring.cardinality)), expected)


@pytest.mark.parametrize("spec", INDEX_RINGS)
def test_associate_keys_read_element_indices(spec):
    ring = parse_ring_spec(spec)
    els = ring.elements()
    idx = np.array([els.index(a) for a in ring.zero_divisors()], dtype=np.int64)
    graph = build_zdg(ring)
    assert np.array_equal(graph.element_index, idx)
    assert not graph.element_index.flags.writeable  # shared with the ring's cache
    # the associate classes, read off the graph's tables on those indices, are the unit orbits
    assert classes_for(graph, "associate") == classes_associate(ring)
