"""Exact counting formulas for zero-divisor classes over finite fields.

Everything here is integer arithmetic; the formulas are checked against
exhaustive enumeration in the test suite.  The Z_n divisor classes are
not counted here: `spectra.zn_profile` reports them off the lattice of
`Zn._divisor_classes`, the one that the closed route reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from . import numth


def _check_q(q: int) -> None:
    """Every formula here counts over a field of q elements, a prime power."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if numth.prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")


@cache
def q_binomial(n: int, r: int, q: int) -> int:
    """Gaussian binomial coefficient: the number of r-dimensional subspaces
    of an n-dimensional space over a field with q elements."""
    _check_q(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if r < 0 or r > n:
        return 0
    r = min(r, n - r)  # symmetry shortens the products
    num = 1
    den = 1
    for i in range(r):
        num *= q**n - q**i
        den *= q**r - q**i
    quotient, remainder = divmod(num, den)
    assert remainder == 0, "Gaussian binomial must divide exactly"
    return quotient


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    _check_q(q)
    return prod(q**n - q**i for i in range(n))


def rank_count(n: int, m: int, r: int, q: int) -> int:
    """Number of n x m matrices over F_q of rank exactly r: one of the
    (n choose r)_q column spaces, onto which F_q^m maps in
    prod_{j=0}^{r-1} (q^m - q^j) ways."""
    _check_q(q)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if r < 0 or r > min(n, m):
        return 0
    return q_binomial(n, r, q) * prod(q**m - q**j for j in range(r))


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
    M_n(F_q), the one-factor case of `semisimple_class_degree`:

        2 * sum_i C_q(n-r, i) C_q(n, i) - sum_i C_q(n-r, i)^2

    with i over 1..n-r.  The value counts annihilating classes including
    the class itself when it squares to zero; the loop-free graph degree
    is therefore smaller by exactly that indicator, which the tests pin
    down by explicit comparison.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("rank must be in [1, n-1]")
    _check_q(q)
    return semisimple_class_degree(SemisimpleProfile(((n, q),), (r,)))


# ---------------------------------------------------------------------------
# semisimple rings: products of matrix rings over fields


@dataclass(frozen=True)
class SemisimpleProfile:
    """A class of zero-divisors in prod_k M_{n_k}(F_{q_k}), recorded as the
    tuple of component ranks (field factors have n_k = 1, rank 0 or 1)."""

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


def _check_square_zero(profile: SemisimpleProfile, squares_to_zero: bool) -> None:
    """x^2 = 0 puts the column space of each component x_k, of dimension
    r_k, inside its kernel, of dimension n_k - r_k: so 2 r_k <= n_k."""
    if squares_to_zero and any(2 * r > n for (n, _), r in zip(profile.factors, profile.ranks)):
        raise ValueError(f"no element of rank profile {profile.ranks} squares to zero")


def semisimple_vertex_degree(profile: SemisimpleProfile, squares_to_zero: bool = False) -> int:
    """Degree in Gamma(R) of one vertex x with the given rank profile.

    y annihilates x on the left iff every component of y has column space
    inside ker(x_k), giving q^{n_k(n_k - r_k)} choices per factor; the
    right side matches by transposition, and two-sided annihilators have
    q^{(n_k - r_k)^2} choices per factor.  Inclusion-exclusion over the
    two sides, drop y = 0, and drop the self-loop when x^2 = 0.
    """
    _check_square_zero(profile, squares_to_zero)
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
    _check_square_zero(profile, squares_to_zero)
    left = 1
    both = 1
    for (n, q), r in zip(profile.factors, profile.ranks):
        l_k, b_k = _factor_class_counts(n, q, r)
        left *= l_k
        both *= b_k
    return 2 * (left - 1) - (both - 1) - int(squares_to_zero)
