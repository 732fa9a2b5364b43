"""Counting formulas against brute-force enumeration oracles.

Every closed form here is re-derived the slow way: loops over all matrices,
all subspaces, or all ring elements. Exact integer equality throughout.
"""

import itertools
import math

import pytest

from reference import (
    arithmetic,
    boolean_skeleton,
    column_space,
    euler_phi,
    neighborhood,
    nontrivial_divisors,
    profile_index_sets,
    rank,
    row_space,
    semisimple_class_size,
    units,
    zn_profile_by_divisor_scan,
)
from zdgspectra.counts import (
    SemisimpleProfile,
    class_count_matrix,
    class_size_matrix,
    compressed_degree_matrix,
    gl_order,
    idempotent_count,
    nilpotent2_count,
    q_binomial,
    rank_count,
    semisimple_class_degree,
    semisimple_vertex_degree,
)
from zdgspectra.classes import classes_for
from zdgspectra.graph import build_zdg, degree_matring, degree_zn
from zdgspectra.rings import GF, MatRing, ProductRing, RingError, Zn, parse_ring_spec
from zdgspectra.spectra import zn_profile


# --- plain mod-p linear algebra, independent of the package's field code ---


def rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for i in range(pivot_row, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], -1, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def all_matrices_mod_p(n, m, p):
    for flat in itertools.product(range(p), repeat=n * m):
        yield tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))


# --- the counting census (acceptance criterion values plus oracles) ---


def test_census_pinned_values():
    assert idempotent_count(2, 2) == 6
    assert nilpotent2_count(2, 2) == 3
    assert class_count_matrix(2, 2) == 9
    assert class_count_matrix(2, 3) == 16
    assert rank_count(2, 2, 1, 2) == 9
    assert class_size_matrix(1, 3) == 2


@pytest.mark.parametrize("q", [2, 3])
def test_idempotent_count_by_enumeration(q):
    ring = MatRing(2, GF(q))
    ops = arithmetic(ring)
    found = sum(1 for a in ring.elements() if ops.mul(a, a) == a and a != ops.zero and a != ops.one)
    assert idempotent_count(2, q) == found


@pytest.mark.parametrize("q", [2, 3])
def test_nilpotent2_count_by_enumeration(q):
    ring = MatRing(2, GF(q))
    mul, zero = arithmetic(ring).mul, arithmetic(ring).zero
    found = sum(1 for a in ring.elements() if a != zero and mul(a, a) == zero)
    assert nilpotent2_count(2, q) == found


@pytest.mark.parametrize("q", [2, 3])
def test_class_count_matrix_by_enumeration(q):
    ring = MatRing(2, GF(q))
    keys = {
        (row_space(ring, a), column_space(ring, a))
        for a in ring.zero_divisors()
    }
    assert class_count_matrix(2, q) == len(keys)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("p", [2, 3])
def test_rank_count_rectangular_by_enumeration(n, m, p):
    by_rank = {}
    for a in all_matrices_mod_p(n, m, p):
        r = rank_mod_p(a, p)
        by_rank[r] = by_rank.get(r, 0) + 1
    for r in range(min(n, m) + 1):
        assert rank_count(n, m, r, p) == by_rank.get(r, 0), (n, m, r, p)


def test_rank_count_sums_to_total():
    for n, m, q in [(2, 2, 2), (2, 3, 3), (3, 3, 4), (4, 2, 5)]:
        total = sum(rank_count(n, m, r, q) for r in range(min(n, m) + 1))
        assert total == q ** (n * m)


@pytest.mark.parametrize("q", [2, 3])
def test_class_size_by_enumeration(q):
    # every associate class of a rank-r 2x2 matrix has |GL_r(F_q)| members
    ring = MatRing(2, GF(q))
    part = classes_for(build_zdg(ring), "associate")
    g = build_zdg(ring)
    for c in part.classes:
        rep = g.vertices[c.representative]
        r = rank(ring, rep)
        assert c.size == class_size_matrix(r, q), (q, rep)


def test_gl_order_values():
    assert gl_order(1, 2) == 1
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    # oracle for GL_2(F_2): invertible = nonzero determinant
    ring = MatRing(2, GF(2))
    assert gl_order(2, 2) == len(units(ring))


# --- q-binomial identities ---


def test_q_binomial_small_values():
    assert q_binomial(2, 1, 2) == 3
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(3, 1, 3) == 13
    assert q_binomial(5, 0, 7) == 1
    assert q_binomial(5, 5, 7) == 1
    assert q_binomial(3, 4, 2) == 0


def test_q_binomial_counts_subspaces():
    # number of r-dimensional subspaces of F_p^n, counted by brute force
    # over all tuples of basis candidates (distinct row spaces)
    from zdgspectra.rings import GF as _GF
    from zdgspectra.rings import _all_subspaces

    for p in (2, 3):
        field = _GF(p)
        for n in range(5):
            for r in range(n + 1):
                spaces = list(_all_subspaces(field, n, r))
                assert len(spaces) == q_binomial(n, r, p), (n, r, p)
                assert len(set(spaces)) == len(spaces)


def test_q_binomial_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(7):
            for r in range(n + 1):
                assert q_binomial(n, r, q) == q_binomial(n, n - r, q)


def test_q_binomial_column_counts():
    # (n choose 1)_q = (q^n - 1)/(q - 1), the number of lines
    for q in (2, 3, 4, 5):
        for n in range(1, 7):
            assert q_binomial(n, 1, q) == (q**n - 1) // (q - 1)
            assert (q**n - 1) % (q - 1) == 0


def test_q_binomial_vandermonde_square_sum():
    # sum_r q^(r^2) * (n choose r)_q^2 = (2n choose n)_q: both sides count
    # n-dimensional subspaces of a 2n-dimensional space, the left one refined
    # by the intersection dimension with a fixed middle subspace
    for q in (2, 3, 4, 5):
        for n in range(7):
            lhs = sum(q ** (r * r) * q_binomial(n, r, q) ** 2 for r in range(n + 1))
            assert lhs == q_binomial(2 * n, n, q), (n, q)


def test_q_binomial_pascal():
    for q in (2, 3, 5):
        for n in range(1, 7):
            for r in range(1, n + 1):
                lhs = q_binomial(n, r, q)
                rhs = q_binomial(n - 1, r - 1, q) + q**r * q_binomial(n - 1, r, q)
                assert lhs == rhs


def test_q_binomial_limit_q_to_1():
    """The product form factors as prod (q^a - 1)/(q^b - 1); replacing every
    factor (q^a - 1)/(q - 1) by a evaluates the q -> 1 limit symbolically and
    must give the ordinary binomial."""
    for n in range(7):
        for r in range(n + 1):
            # (n r)_q = prod_{i=1}^{r} (q^(n-r+i) - 1)/(q^i - 1); each factor
            # tends to (n-r+i)/i, so the limit is the ordinary binomial
            num = 1
            den = 1
            for i in range(1, r + 1):
                num *= n - r + i
                den *= i
            assert num % den == 0
            assert num // den == math.comb(n, r)


def test_q_binomial_memoizes():
    q_binomial(4, 2, 3)
    hits = q_binomial.cache_info().hits
    assert q_binomial(4, 2, 3) == 130
    assert q_binomial.cache_info().hits == hits + 1
    assert q_binomial(4, 1, 3) == q_binomial(4, 4 - 1, 3) == 40
    assert q_binomial(2, 5, 3) == q_binomial(2, -1, 3) == 0
    with pytest.raises(ValueError, match="q must be at least 2"):
        q_binomial(4, 2, 1)


def test_rank_count_rejects_q_below_two():
    # at q = 1 the denominator q^r - q^j is zero
    with pytest.raises(ValueError, match="q must be at least 2"):
        rank_count(2, 2, 1, 1)


def test_gl_order_rejects_q_below_two():
    # at q = 1 the product would be an order of 0
    with pytest.raises(ValueError, match="q must be at least 2"):
        gl_order(1, 1)


def test_idempotent_count_rejects_n_below_one():
    # at n = 0 and n = -3 the formula would give -1 and -2
    assert idempotent_count(1, 2) == 0
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            idempotent_count(n, 2)


def test_nilpotent2_count_rejects_n_below_one():
    assert nilpotent2_count(1, 2) == 0
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be at least 1"):
            nilpotent2_count(n, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: compressed_degree_matrix(2, 1, 1), ValueError, "q must be at least 2"),
        (lambda: compressed_degree_matrix(2, 6, 5), ValueError, "rank must be in [1, n-1]"),
        (lambda: degree_matring(2, 6, 5, False), ValueError, "6 is not a prime power"),
        (lambda: degree_matring(0, 2, 1, False), RingError, "rank must be between 1 and n-1 for a zero-divisor matrix"),
        (lambda: degree_zn(12, 12), RingError, "12 is not a nontrivial divisor of 12"),
        (lambda: boolean_skeleton((2, 1)), ValueError, "1 is not a prime power"),
    ],
    ids=["cdm-q1", "cdm-rank", "matring-q6", "matring-n0", "zn-d=n", "skeleton-q1"],
)
def test_closed_forms_refuse_out_of_domain_inputs(call, error, message):
    # each entry point checks its own inputs before it reads a general formula
    with pytest.raises(Exception) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_one_by_one_matrix_ring_has_two_classes(q):
    # M_1(F_q) = F_q: the zero class and the units, no zero-divisor class
    assert parse_ring_spec(f"M(1,GF({q}))").class_count() == 2


def test_consistency_class_sizes_cover_rank_counts():
    # summing |class| over all (row space, column space) pairs of rank r
    # must recover the number of rank-r matrices
    for n in range(2, 5):
        for q in (2, 3, 4, 5):
            for r in range(1, n):
                classes = q_binomial(n, r, q) ** 2
                assert classes * class_size_matrix(r, q) == rank_count(n, n, r, q)


# --- compressed degrees ---


@pytest.mark.parametrize("q", [2, 3])
def test_compressed_degree_matrix_offset(q):
    """compressed_degree_matrix counts ordered annihilating partners among
    classes; the loop-free graph degree of a class differs by exactly one
    when the representative squares to zero."""
    ring = MatRing(2, GF(q))
    mul, zero = arithmetic(ring).mul, arithmetic(ring).zero
    g = build_zdg(ring)
    part = classes_for(build_zdg(ring), "associate")
    # compressed graph: one node per class, adjacency inherited
    reps = [g.vertices[c.representative] for c in part.classes]
    for c, rep in zip(part.classes, reps):
        r = rank(ring, rep)
        sq_zero = mul(rep, rep) == zero
        compressed_deg = 0
        for d, other in zip(part.classes, reps):
            if d is c:
                continue
            if mul(rep, other) == zero or mul(other, rep) == zero:
                compressed_deg += 1
        raw = compressed_degree_matrix(2, q, r)
        assert raw - (1 if sq_zero else 0) == compressed_deg, (q, rep)


def test_compressed_degree_matrix_small_values():
    # rank-1 classes of M_2(F_2): raw count 2*C(1,1)*C(2,1) - C(1,1)^2 = 5
    assert compressed_degree_matrix(2, 2, 1) == 5


# --- Z_n profiles ---


def test_zn_profile_18():
    prof = zn_profile(18)
    assert prof["class_count"] == 4
    assert prof["complete_count"] == 1
    by_d = {e["d"]: e for e in prof["entries"]}
    assert by_d[6]["kind"] == "complete"
    assert by_d[6]["size"] == euler_phi(3) == 2
    assert by_d[2]["kind"] == "null"
    assert sorted(by_d[9]["neighbors"]) == [2, 6]


def test_zn_profile_class_count_formula():
    # number of classes = prod(k_i + 1) - 2 over the prime factorization
    from zdgspectra.numth import factorize

    for n in range(6, 201):
        if not Zn(n).zero_divisors():
            continue
        prof = zn_profile(n)
        expected = 1
        for _, k in factorize(n):
            expected *= k + 1
        assert prof["class_count"] == expected - 2 == len(nontrivial_divisors(n))


def test_zn_profile_against_graph():
    for n in (12, 16, 18, 30, 36, 72, 100):
        g = build_zdg(Zn(n))
        prof = zn_profile(n)
        for e in prof["entries"]:
            assert e["size"] == euler_phi(n // e["d"])
            assert (e["kind"] == "complete") == (d_squares_to_zero(n, e["d"]))
            # N is the number of vertices adjacent to the whole class
            expected_big_n = sum(
                euler_phi(n // d2) for d2 in nontrivial_divisors(n) if (e["d"] * d2) % n == 0
            )
            if (e["d"] * e["d"]) % n == 0:
                expected_big_n -= e["size"]
            assert e["N"] == expected_big_n, (n, e["d"])


def d_squares_to_zero(n, d):
    return (d * d) % n == 0


def test_zn_profile_degrees_match_graph():
    from zdgspectra.graph import degree_zn

    for n in (18, 16, 48):
        g = build_zdg(Zn(n))
        for e in zn_profile(n)["entries"]:
            assert degree_zn(n, e["d"]) == len(neighborhood(g, e["d"]))


def test_zn_profile_equals_the_divisor_scan_up_to_3000():
    for n in range(2, 3001):
        assert zn_profile(n) == zn_profile_by_divisor_scan(n), n


@pytest.mark.parametrize("n", [720720, 6983776800, 2**64, 3**41], ids=str)
def test_zn_profile_equals_the_divisor_scan(n):
    # 2^64 and 3^41 are past int64, where the class table refuses the ring
    assert zn_profile(n) == zn_profile_by_divisor_scan(n)


def test_zn_profile_takes_rings_the_class_table_refuses():
    # the report solves nothing, so neither the cell cap nor int64 bounds it
    for n, classes in ((963761198400, 6718), (2**64, 63)):
        with pytest.raises(RingError):
            Zn(n).class_table()
        assert zn_profile(n)["class_count"] == classes


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_zn_profile_refuses_n_below_2(n):
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        zn_profile(n)


# --- semisimple profiles ---


def profile_for(ring_factors, element):
    """Build the (n, q, rank) profile of a product-ring element by hand."""
    factors = []
    ranks = []
    for (n, q, fring), comp in zip(ring_factors, element):
        factors.append((n, q))
        ranks.append(rank(fring, comp) if isinstance(fring, MatRing) else (0 if comp == arithmetic(fring).zero else 1))
    return SemisimpleProfile(tuple(factors), tuple(ranks))


def test_semisimple_profile_index_sets():
    i1, i2, i3, i4 = profile_index_sets(SemisimpleProfile(((2, 2), (1, 2), (1, 3)), (1, 0, 1)))
    assert i1 == (2,)  # unit component: full rank 1x1
    assert i2 == (1,)  # zero component
    assert i3 == (0,)  # proper singular matrix component
    assert i4 == (0, 2)  # everything of positive rank


def test_semisimple_profile_validation():
    with pytest.raises(ValueError):
        SemisimpleProfile(((2, 2),), (3,))  # rank above n
    with pytest.raises(ValueError):
        SemisimpleProfile(((2, 6),), (1,))  # 6 is not a prime power
    with pytest.raises(ValueError):
        SemisimpleProfile(((2, 2), (1, 2)), (1,))  # length mismatch


def test_semisimple_degrees_refuse_a_square_zero_class_that_cannot_exist():
    # x^2 = 0 needs 2 r_k <= n_k in every component; these returned a degree
    impossible = [(((3, 2),), (2,)), (((2, 2), (1, 3)), (1, 1)), (((4, 3), (2, 2)), (3, 0))]
    for factors, ranks in impossible:
        prof = SemisimpleProfile(factors, ranks)
        semisimple_vertex_degree(prof, False)
        with pytest.raises(ValueError, match="squares to zero"):
            semisimple_vertex_degree(prof, True)
    # a rank-1 component of size 2 beside a zero field component can
    possible = SemisimpleProfile(((2, 2), (1, 3)), (1, 0))
    assert semisimple_vertex_degree(possible, True) == semisimple_vertex_degree(possible, False) - 1


SEMISIMPLE_RINGS = [
    ("Zn(2)xZn(3)", [(1, 2), (1, 3)]),
    ("Zn(2)xZn(2)xZn(2)", [(1, 2), (1, 2), (1, 2)]),
    ("M(2,GF(2))xGF(2)", [(2, 2), (1, 2)]),
    ("Zn(2)xZn(3)xZn(5)", [(1, 2), (1, 3), (1, 5)]),
]


@pytest.mark.parametrize("spec,shape", SEMISIMPLE_RINGS, ids=lambda s: s if isinstance(s, str) else "")
def test_semisimple_closed_forms_by_enumeration(spec, shape):
    ring = parse_ring_spec(spec)
    mul, zero = arithmetic(ring).mul, arithmetic(ring).zero
    g = build_zdg(ring)
    part = classes_for(build_zdg(ring), "associate")
    fring_list = ring.factors

    for c in part.classes:
        rep = g.vertices[c.representative]
        ranks = []
        for (n, q), fr, comp in zip(shape, fring_list, rep):
            if isinstance(fr, MatRing):
                ranks.append(rank(fr, comp))
            else:
                ranks.append(0 if comp == arithmetic(fr).zero else 1)
        prof = SemisimpleProfile(tuple(shape), tuple(ranks))
        sq_zero = mul(rep, rep) == zero

        assert semisimple_class_size(prof) == c.size, (spec, rep)
        assert semisimple_vertex_degree(prof, sq_zero) == len(neighborhood(g, rep)), (spec, rep)

        # class degree: count neighbouring classes in the compressed graph
        cdeg = 0
        for d in part.classes:
            if d is c:
                continue
            other = g.vertices[d.representative]
            if mul(rep, other) == zero or mul(other, rep) == zero:
                cdeg += 1
        assert semisimple_class_degree(prof) - sq_zero == cdeg, (spec, rep)


def test_semisimple_worked_value():
    # x = (rank-1 non-nilpotent A, 1) in M_2(F_2) x F_2: 11 neighbours
    prof = SemisimpleProfile(((2, 2), (1, 2)), (1, 1))
    ring = parse_ring_spec("M(2,GF(2))xGF(2)")
    g = build_zdg(ring)
    mat, ops = ring.factors[0], arithmetic(ring.factors[0])
    witness = None
    for a in g.vertices:
        m, u = a
        if u == arithmetic(ring.factors[1]).one and rank(mat, m) == 1 and ops.mul(m, m) != ops.zero:
            witness = a
            break
    assert witness is not None
    assert semisimple_vertex_degree(prof, False) == len(neighborhood(g, witness))


# --- boolean skeleton ---


def test_boolean_skeleton_z2_cubed():
    skel = boolean_skeleton((2, 2, 2))
    assert len(skel.subsets) == 2**3 - 2
    ring = ProductRing([Zn(2), Zn(2), Zn(2)])
    g = build_zdg(ring)
    for subset, size, cdeg, vdeg in zip(
        skel.subsets, skel.sizes, skel.class_degrees, skel.vertex_degrees
    ):
        # members of this class: support exactly `subset`
        members = [
            v for v in g.vertices if {i for i, x in enumerate(v) if x != 0} == set(subset)
        ]
        assert len(members) == size
        assert all(len(neighborhood(g, v)) == vdeg for v in members)
    # class degree counts disjoint-support subsets
    for subset, cdeg in zip(skel.subsets, skel.class_degrees):
        others = sum(
            1
            for other in skel.subsets
            if other != subset and not (set(other) & set(subset))
        )
        assert cdeg == others


def test_boolean_skeleton_mixed_fields():
    skel = boolean_skeleton((2, 3, 5))
    ring = parse_ring_spec("Zn(2)xZn(3)xZn(5)")
    g = build_zdg(ring)
    for subset, size, vdeg in zip(skel.subsets, skel.sizes, skel.vertex_degrees):
        members = [
            v for v in g.vertices if {i for i, x in enumerate(v) if x != 0} == set(subset)
        ]
        assert len(members) == size
        assert all(len(neighborhood(g, v)) == vdeg for v in members)
    assert sum(skel.sizes) == g.order


def test_boolean_skeleton_rejects_short_input():
    with pytest.raises(ValueError):
        boolean_skeleton((2,))
