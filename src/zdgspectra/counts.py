"""Exact counting formulas for zero-divisor classes over finite fields.

Everything here is integer arithmetic; the formulas are checked against
exhaustive enumeration in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import numth


def _check_q(q: int) -> None:
    """Every formula here counts over a field of q >= 2 elements."""
    if q < 2:
        raise ValueError("q must be at least 2")


class QBinomTable:
    """Memo of Gaussian binomial coefficients at a fixed q."""

    def __init__(self, q: int):
        _check_q(q)
        self.q = q
        self._memo: dict[tuple[int, int], int] = {}

    def get(self, n: int, r: int) -> int:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if r < 0 or r > n:
            return 0
        if r > n - r:
            r = n - r  # symmetry keeps the memo small
        key = (n, r)
        if key not in self._memo:
            q = self.q
            num = 1
            den = 1
            for i in range(r):
                num *= q**n - q**i
                den *= q**r - q**i
            quotient, remainder = divmod(num, den)
            assert remainder == 0, "Gaussian binomial must divide exactly"
            self._memo[key] = quotient
        return self._memo[key]


_TABLES: dict[int, QBinomTable] = {}


def q_binomial(n: int, r: int, q: int) -> int:
    """Gaussian binomial coefficient: the number of r-dimensional subspaces
    of an n-dimensional space over a field with q elements."""
    table = _TABLES.get(q)
    if table is None:
        table = _TABLES[q] = QBinomTable(q)
    return table.get(n, r)


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    _check_q(q)
    return prod(q**n - q**i for i in range(n))


def rank_count(n: int, m: int, r: int, q: int) -> int:
    """Number of n x m matrices over F_q of rank exactly r:
    prod_{j=0}^{r-1} (q^n - q^j)(q^m - q^j) / (q^r - q^j), exact."""
    _check_q(q)
    if r < 0 or r > min(n, m):
        return 0
    num = 1
    den = 1
    for j in range(r):
        num *= (q**n - q**j) * (q**m - q**j)
        den *= q**r - q**j
    quotient, remainder = divmod(num, den)
    assert remainder == 0, "rank count must divide exactly"
    return quotient


def class_size_matrix(r: int, q: int) -> int:
    """Size of an associate class of rank-r matrix zero-divisors:
    prod_{i=0}^{r-1} (q^r - q^i), which is |GL_r(F_q)|."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    return gl_order(r, q)


def class_count_matrix(n: int, q: int) -> int:
    """Number of associate classes of zero-divisors in M_n(F_q):
    sum over ranks 1..n-1 of the squared Gaussian binomial, one class per
    (row space, column space) pair."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return sum(q_binomial(n, r, q) ** 2 for r in range(1, n))


def idempotent_count(n: int, q: int) -> int:
    """Nonzero non-identity idempotents in M_n(F_q):
    sum_{r=0}^{n} q^{r(n-r)} (n choose r)_q minus the two trivial ones."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(q ** (r * (n - r)) * q_binomial(n, r, q) for r in range(n + 1)) - 2


def nilpotent2_count(n: int, q: int) -> int:
    """Matrices A != 0 in M_n(F_q) with A^2 = 0: the column space must sit
    inside the kernel, forcing rank r <= n - r."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_q(q)
    return sum(
        q_binomial(n, r, q) * q_binomial(n - r, r, q) * class_size_matrix(r, q)
        for r in range(1, n // 2 + 1)
    )


def compressed_degree_matrix(n: int, q: int, r: int) -> int:
    """Closed-form degree of a rank-r class in the compressed graph of
    M_n(F_q):

        2 * sum_i C_q(n-r, i) C_q(n, i) - sum_i C_q(n-r, i)^2

    with i over 1..n-r.  The value counts annihilating classes including
    the class itself when it squares to zero; the loop-free graph degree
    is therefore smaller by exactly that indicator, which the tests pin
    down by explicit comparison.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("rank must be in [1, n-1]")
    crossed = sum(q_binomial(n - r, i, q) * q_binomial(n, i, q) for i in range(1, n - r + 1))
    both = sum(q_binomial(n - r, i, q) ** 2 for i in range(1, n - r + 1))
    return 2 * crossed - both


# ---------------------------------------------------------------------------
# Z_n profiles


@dataclass
class ZnClassInfo:
    d: int  # the divisor labelling the class
    size: int  # phi(n/d)
    kind: str  # 'complete' | 'null'
    neighbors: list[int]  # divisors d' != d with n | d d'
    big_n: int  # total size of neighboring classes, the join weight


@dataclass
class ZnProfile:
    n: int
    entries: list[ZnClassInfo]
    class_count: int
    complete_count: int


def zn_profile(n: int) -> ZnProfile:
    """Class-level description of Gamma(Z_n) without touching elements.

    One entry per nontrivial divisor d: size phi(n/d), complete iff
    n | d^2, adjacent to d' iff n | d d'.  The class count must come out
    as prod(k_i + 1) - 2 over the factorization n = prod p_i^{k_i}; the
    complete-cell count is taken by direct inspection of the divisors.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    divisors = numth.nontrivial_divisors(n)
    entries = []
    for d in divisors:
        size = numth.euler_phi(n // d)
        kind = "complete" if (d * d) % n == 0 else "null"
        neighbors = [e for e in divisors if e != d and (d * e) % n == 0]
        big_n = sum(numth.euler_phi(n // e) for e in neighbors)
        entries.append(ZnClassInfo(d, size, kind, neighbors, big_n))
    expected = prod(e + 1 for _, e in numth.factorize(n)) - 2
    assert expected == len(entries)
    complete = sum(1 for e in entries if e.kind == "complete")
    return ZnProfile(n, entries, len(entries), complete)


# ---------------------------------------------------------------------------
# semisimple rings: products of matrix rings over fields


@dataclass(frozen=True)
class SemisimpleProfile:
    """A class of zero-divisors in prod_k M_{n_k}(F_{q_k}), recorded as the
    tuple of component ranks (field factors have n_k = 1, rank 0 or 1).

    Index sets over the factor positions:
      I1 = invertible components (r_k = n_k),
      I2 = zero components (r_k = 0),
      I3 = proper components (everything else),
      I4 = nonzero components (I1 union I3).
    """

    factors: tuple[tuple[int, int], ...]  # (n_k, q_k) pairs
    ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) != len(self.ranks):
            raise ValueError("one rank per factor")
        for (n, q), r in zip(self.factors, self.ranks):
            if n < 1:
                raise ValueError("matrix sizes must be positive")
            if numth.prime_power(q) is None:
                raise ValueError(f"{q} is not a prime power")
            if not 0 <= r <= n:
                raise ValueError(f"rank {r} out of range for size {n}")
        if all(r == n for (n, _), r in zip(self.factors, self.ranks)):
            raise ValueError("all components invertible: not a zero-divisor")
        if all(r == 0 for r in self.ranks):
            raise ValueError("the zero element is not a vertex")

    @property
    def i1(self):
        return tuple(k for k, ((n, _), r) in enumerate(zip(self.factors, self.ranks)) if r == n)

    @property
    def i2(self):
        return tuple(k for k, r in enumerate(self.ranks) if r == 0)

    @property
    def i3(self):
        return tuple(
            k for k, ((n, _), r) in enumerate(zip(self.factors, self.ranks)) if 0 < r < n
        )

    @property
    def i4(self):
        return tuple(k for k, r in enumerate(self.ranks) if r != 0)


def semisimple_class_size(profile: SemisimpleProfile) -> int:
    """Size of the associate class: invertible components contribute all of
    GL_{n_k}(F_{q_k}), proper-rank components contribute |GL_{r_k}(F_{q_k})|,
    zero components contribute one choice."""
    total = 1
    for (n, q), r in zip(profile.factors, profile.ranks):
        if r > 0:
            total *= gl_order(r if r < n else n, q)
    return total


def semisimple_vertex_degree(profile: SemisimpleProfile, squares_to_zero: bool = False) -> int:
    """Degree in Gamma(R) of one vertex x with the given rank profile.

    y annihilates x on the left iff every component of y has column space
    inside ker(x_k), giving q^{n_k(n_k - r_k)} choices per factor; the
    right side matches by transposition, and two-sided annihilators have
    q^{(n_k - r_k)^2} choices per factor.  Inclusion-exclusion over the
    two sides, drop y = 0, and drop the self-loop when x^2 = 0.
    """
    left = prod(q ** (n * (n - r)) for (n, q), r in zip(profile.factors, profile.ranks))
    both = prod(q ** ((n - r) ** 2) for (n, q), r in zip(profile.factors, profile.ranks))
    return 2 * left - both - 1 - int(squares_to_zero)


def _factor_class_counts(n: int, q: int, r: int) -> tuple[int, int]:
    """For one factor M_n(F_q) and a component of rank r: the number of
    associate classes (zero and units included) whose members annihilate
    the component on one fixed side, and on both sides.  A one-sided
    annihilator is any matrix whose column space lies in the rank-(n-r)
    kernel; left and right counts agree by transposition."""
    one_sided = sum(q_binomial(n - r, i, q) * q_binomial(n, i, q) for i in range(0, n - r + 1))
    two_sided = sum(q_binomial(n - r, i, q) ** 2 for i in range(0, n - r + 1))
    return one_sided, two_sided


def semisimple_class_degree(profile: SemisimpleProfile, squares_to_zero: bool = False) -> int:
    """Degree of the class of x in the loop-free compressed graph.

    Classes adjacent to [x] are tuples annihilating x componentwise on the
    left or on the right: count each side as a product over factors, count
    the two-sided tuples the same way, apply inclusion-exclusion, remove
    the zero class from each count, and drop [x] itself when x^2 = 0."""
    left = 1
    both = 1
    for (n, q), r in zip(profile.factors, profile.ranks):
        l_k, b_k = _factor_class_counts(n, q, r)
        left *= l_k
        both *= b_k
    return 2 * (left - 1) - (both - 1) - int(squares_to_zero)


# ---------------------------------------------------------------------------
# products of fields: the Boolean skeleton


@dataclass
class BooleanSkeleton:
    """Class structure of Gamma(F_{q_1} x ... x F_{q_t}): one class per
    nonempty proper subset S of positions (the support of the element),
    classes S, T adjacent iff the supports are disjoint."""

    qs: tuple[int, ...]
    subsets: list[tuple[int, ...]]  # support tuples, sorted
    sizes: list[int]  # prod_{i in S} (q_i - 1)
    class_degrees: list[int]  # 2^{t - |S|} - 1
    vertex_degrees: list[int]  # prod_{i not in S} q_i - 1

    @property
    def class_count(self) -> int:
        return len(self.subsets)


def boolean_skeleton(qs) -> BooleanSkeleton:
    qs = tuple(qs)
    t = len(qs)
    if t < 2:
        raise ValueError("need at least two field factors")
    for q in qs:
        if numth.prime_power(q) is None:
            raise ValueError(f"{q} is not a prime power")
    import itertools

    subsets = []
    for size in range(1, t):
        subsets.extend(itertools.combinations(range(t), size))
    subsets.sort()
    sizes = [prod(qs[i] - 1 for i in s) for s in subsets]
    class_degrees = [2 ** (t - len(s)) - 1 for s in subsets]
    vertex_degrees = [prod(qs[i] for i in range(t) if i not in s) - 1 for s in subsets]
    assert len(subsets) == 2**t - 2
    return BooleanSkeleton(qs, subsets, sizes, class_degrees, vertex_degrees)
