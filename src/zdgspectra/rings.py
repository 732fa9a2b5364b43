"""Finite rings: Z_n, GF(p^k), full matrix rings over GF, and direct products.

Ring elements are plain hashable payloads: residues and field elements
are ints, matrices are row-major tuples of tuples of field ints, product
elements are tuples of component payloads.  Each ring object supplies
table-built zero products, its units, a class table (the associate
classes with their sizes, xy = 0 relation and smallest members, built
without enumerating), closed counts of its units and zero-divisors,
zero-divisor enumeration and canonical labels for its own payloads, and
no payload arithmetic: the graph reads only which products vanish and
which elements are units, and the tests' reference arithmetic is
`arithmetic` in tests/reference.py.  No ring keys its associates: every
ring here is quasi-Frobenius, where associates are the elements of equal
annihilator, so `classes.classes_for` reads both partitions off the
graph that the zero products build (the proof is
`check_relation_agreements` in tests/reference.py).  Element order is
always lexicographic on the payload, so index 0 is the zero element and
enumeration is reproducible.  The tables read element indices (positions
in `elements()`), never payloads: an index is the payload for Z_n and
GF, the entries' base-q digits for a matrix and the factors' indices in
C order for a product.  One method per ring kind, `decode(idx)`, turns
an index array into the payloads in the same order; every payload list
comes from it.  A matrix ring's element and class tables read one dot
product, `MatRing._dot`, and no elimination.

A ring keeps no payloads unless a caller asks for them: the graph route
reads `_unit_mask` and the index tables, the V x V `zero_products` written
from each ring's `_zero_rows` one row block (`row_blocks`, at most
BLOCK_ENTRIES entries) at a time, and its vertex cap reads
`vertex_count()`, |R| less the closed `unit_count()` (phi(n), q - 1,
|GL_n(F_q)|, the product over the factors) and 1.  No element cap is
needed: a ring with a zero-divisor has |R| <= (|Z(R)*| + 1)^2 (Ganesan
1964; Koh 1967 for noncommutative rings), so the vertex cap bounds |R|
wherever the graph has a vertex.  Only `elements()` and
`zero_divisors()`, which the benchmark and the tests call, decode whole
index ranges, and only `elements()` keeps its list on the ring.

Field elements are encoded as integers in [0, p^k): the value
sum(c_i * p^i) stands for the coefficient vector (c_0, ..., c_{k-1}) of a
polynomial in x.  The modulus is the lexicographically smallest monic
irreducible of degree k, coefficients compared from the constant term up,
which makes GF(4) use x^2+x+1 and GF(9) use x^2+1.

The ring-spec grammar (whitespace is ignored, products flatten left to
right):

    ring := "Zn(" int ")" | "GF(" int ")" | "M(" int "," ring ")" | ring "x" ring
"""
from __future__ import annotations

import itertools
from functools import cached_property
from math import prod

import numpy as np

from . import numth
from .counts import class_count_matrix, gl_order

CLOSED_CELL_CAP = 4096  # zero-divisor classes that `class_table` takes
# entries in one row block: the graph route builds and checks its V x V
# tables a block at a time, so its only V x V array is the adjacency
BLOCK_ENTRIES = 1 << 16


class RingError(Exception):
    """Base class for ring construction and arithmetic errors."""


class RingSpecError(RingError):
    """Malformed ring-spec text; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (little-endian coefficient tuples)


def _remainder(a, m, p):
    """The remainder of a modulo the monic polynomial m, over F_p, as its
    len(m) - 1 low coefficients: one subtraction at each shift, top first."""
    a, dm = list(a), len(m) - 1
    for shift in range(len(a) - 1 - dm, -1, -1):
        lead = a[shift + dm]
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
    return a[:dm]


def _poly_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..k//2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for cs in itertools.product(range(p), repeat=d):
            if not any(_remainder(poly, cs + (1,), p)):
                return False
    return True


def _smallest_irreducible(p, k):
    # Lexicographic scan over (c_0, ..., c_{k-1}); leading coefficient is 1.
    if k == 1:
        return (0, 1)  # x; product() would first build tuple(range(p))
    for cs in itertools.product(range(p), repeat=k):
        poly = cs + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RingError(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------


def row_blocks(rows: int, width: int) -> list[slice]:
    """The row blocks of a rows x width table: consecutive slices of
    max(1, BLOCK_ENTRIES // width) rows that cover range(rows), so a table
    of at most BLOCK_ENTRIES entries is one block."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _distinct(keys, size):
    """The distinct entries of keys, an int array of entries below size,
    ascending, and the position of each key among them: np.unique with
    return_inverse, by a mask of size entries instead of a sort."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


class Ring:
    """Common behavior: closed counts, the closed route's refusal, and the
    element and zero-divisor lists that the benchmark and the tests read."""

    commutative = True
    cardinality = 0

    # a ring is its spec: equal specs build equal rings, so the graph cache
    # returns the graph of an equal ring
    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return self.spec_string()

    def spec_string(self) -> str:
        raise NotImplementedError

    def zero_products(self, idx) -> np.ndarray:
        """Bool array z of shape (len(idx), len(idx)) with z[i, j] exactly
        when the elements of indices idx[i] and idx[j] multiply to 0, built
        from tables without multiplying two elements.  It is not symmetric
        when the ring is not commutative.  The ring's `_zero_rows` writes
        it one row block (`row_blocks`) at a time, so z is the one array
        of its size."""
        rows_of = self._zero_rows(idx)
        out = np.empty((len(idx), len(idx)), dtype=bool)
        for rows in row_blocks(len(idx), len(idx)):
            rows_of(rows, out[rows])
        return out

    def _zero_rows(self, idx):
        """The zero-product table of idx by rows: a function rows_of(rows,
        out) that writes rows `rows` (a slice or an index array) of the
        table into `out`, a bool array of shape (number of rows, len(idx)).
        The ring's checks and its per-element tables are made before it
        returns."""
        raise NotImplementedError

    def class_count(self) -> int:
        """Number of associate classes, 0 and the units included."""
        raise NotImplementedError

    def class_table(self):
        """(sizes, kills, reps) over all associate classes, built without
        enumerating the ring: sizes an int64 array, kills the bool m x m
        table of "class i times class j is 0" (its diagonal marks the
        classes that square to 0) and reps the int64 element index of each
        class's smallest member.  The classes come in ascending order of
        reps, the order in which the graph route numbers them, so class 0
        is {0}; the units are the one class whose kill row holds class 0
        alone.  `check_class_table` refuses the ring first."""
        self.check_class_table()
        return self._class_table()

    def check_class_table(self) -> None:
        """Refuse a ring whose class table the closed route cannot take: its
        zero-divisor classes are counted against CLOSED_CELL_CAP, and its
        size (every element index must fit int64) before the count, from
        closed forms before any table is built."""
        if self.cardinality >= 2**63:
            raise RingError(f"{self.spec_string()} has 2^63 or more elements")
        count = self.class_count() - 2
        if count > CLOSED_CELL_CAP:
            raise RingError(
                f"{self.spec_string()}: {count} zero-divisor classes "
                f"exceed the closed-route cap of {CLOSED_CELL_CAP}"
            )

    def _class_table(self):
        raise NotImplementedError

    def label(self, a) -> str:
        return str(a)

    def decode(self, idx) -> list:
        """The elements of the element indices idx (positions in
        `elements()`), in the same order; Z_n and GF code their elements
        by index."""
        return np.asarray(idx, dtype=np.int64).tolist()

    def unit_count(self) -> int:
        """|U(R)|, in closed form: no element is enumerated."""
        raise NotImplementedError

    def vertex_count(self) -> int:
        """|Z(R)*|, the order of Gamma(R): in a finite ring every nonzero
        element is a unit or a zero-divisor, so it is |R| - |U(R)| - 1."""
        return self.cardinality - self.unit_count() - 1

    def elements(self) -> list:
        """All elements in canonical (lexicographic) order, zero first,
        decoded once and kept.  The pipeline never calls it: the graph
        route reads element indices."""
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = self.decode(np.arange(self.cardinality))
            self._elements = cached
        return cached

    def zero_divisors(self) -> list:
        """Nonzero non-units, in element order.

        In a finite ring every nonzero element is a unit or a (one-sided)
        zero divisor, so no annihilator search is needed here: every
        element but 0 (element 0) that `_unit_mask` leaves out, decoded
        from its index.  Tests check the definition directly.
        """
        zd = ~self._unit_mask()
        zd[0] = False
        return self.decode(np.flatnonzero(zd))

    def _unit_mask(self) -> np.ndarray:
        """Bool array aligned with `elements()`, set exactly at the units.
        It is computed from the element indices and reads no payload."""
        raise NotImplementedError


class Zn(Ring):
    """The ring of integers modulo n."""

    commutative = True

    def __init__(self, n: int):
        if n < 2:
            raise RingError("Zn modulus must be at least 2")
        self.n = n
        self.cardinality = n

    def spec_string(self):
        return f"Zn({self.n})"

    def _zero_rows(self, idx):
        # xy = 0 exactly when n / gcd(x, n) divides y: ann(x) is the
        # multiples of that step.  No two residues are multiplied, so every
        # n that int64 holds is exact
        vals = np.asarray(idx, dtype=np.int64)
        steps = self.n // np.gcd(vals, self.n)

        def rows_of(rows, out):
            np.equal(np.remainder(vals, steps[rows, None]), 0, out=out)

        return rows_of

    @cached_property
    def factors(self) -> list[tuple[int, int]]:  # computed once per ring
        return numth.factorize(self.n)

    def class_count(self):
        return prod(a + 1 for _, a in self.factors)

    def _divisor_classes(self):
        """The divisor lattice of n, the one Z_n class structure: (ds, sizes,
        kills) with one class per divisor d = prod p^e of n, the x with
        gcd(x, n) = d, phi(n/d) = prod phi(p^(a-e)) of them, whose smallest
        member is d % n.  By the CRT class d times class d' is 0 exactly
        when e + e' >= a at every prime.  Sorted by d % n, the divisors come
        as d = n (the class {0}), d = 1 (the units), then the rest
        ascending.  ds and sizes are Python ints, so any n is exact; kills
        is the bool m x m table.  `_class_table` casts it to int64 and
        `spectra.zn_profile` reports it."""
        divisors = [(1, (), 1)]  # (d, its exponents e, phi(n/d))
        for p, a in self.factors:
            phi = [p ** (a - e) - p ** (a - e - 1) for e in range(a)] + [1]
            divisors = [(d * p**e, es + (e,), s * phi[e]) for d, es, s in divisors for e in range(a + 1)]
        divisors.sort(key=lambda divisor: divisor[0] % self.n)
        ds, exps, sizes = zip(*divisors)
        exps = np.array(exps).T
        needs = [a - e for e, (_, a) in zip(exps, self.factors)]
        kills = np.empty((len(ds), len(ds)), dtype=bool)
        for rows in row_blocks(len(ds), len(ds)):  # by row block and prime: no m x m temporary
            block = kills[rows]
            block[...] = True
            for e, need in zip(exps, needs):
                block &= e[rows, None] >= need
        return ds, sizes, kills

    def _class_table(self):
        ds, sizes, kills = self._divisor_classes()
        reps = np.array([d % self.n for d in ds], dtype=np.int64)
        return np.array(sizes, dtype=np.int64), kills, reps

    def unit_count(self):
        """phi(n) = prod p^(a-1) (p - 1) over the prime powers p^a of n."""
        return prod(p ** (a - 1) * (p - 1) for p, a in self.factors)

    def _unit_mask(self):
        # gcd(x, n) = 1 exactly when no prime of n divides x: one sieve per prime
        mask = np.ones(self.n, dtype=bool)
        for p, _ in self.factors:
            mask[::p] = False
        return mask


class GF(Ring):
    """The finite field with p^k elements.

    Its tables need no arithmetic: every code but 0 is a unit.  The
    modulus, which only a matrix ring's field tables read, is found on
    first use, so a large GF(p^k) that only gives its class table or
    labels never searches for one.
    """

    commutative = True

    def __init__(self, p: int, k: int = 1):
        if not numth.is_prime(p):
            raise RingError(f"{p} is not prime")
        if k < 1:
            raise RingError("field extension degree must be at least 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.cardinality = self.q

    @cached_property
    def modulus(self) -> tuple[int, ...]:
        return _smallest_irreducible(self.p, self.k)

    def spec_string(self):
        return f"GF({self.q})"

    def _zero_rows(self, idx):
        zero = np.asarray(idx) == 0

        def rows_of(rows, out):
            np.logical_or(zero[rows, None], zero, out=out)

        return rows_of

    def class_count(self):
        return 2

    def _class_table(self):
        kills = np.array([[True, True], [True, False]])
        return np.array([1, self.q - 1], dtype=np.int64), kills, np.array([0, 1], dtype=np.int64)

    def unit_count(self):
        return self.q - 1

    def _unit_mask(self):
        return np.arange(self.q) != 0

    def label(self, a):
        cs = [a // self.p**i % self.p for i in range(self.k)]
        terms = []
        for d in range(self.k - 1, -1, -1):
            c = cs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                xs = "x" if d == 1 else f"x^{d}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(terms) if terms else "0"


def _all_subspaces(field, n: int, r: int):
    """Canonical RREF bases of every r-dimensional subspace of F_q^n,
    generated by pivot-column choice plus free entries."""
    for pivots in itertools.combinations(range(n), r):
        free = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p + 1, n)
            if j not in pivots
        ]
        for values in itertools.product(range(field.q), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows)


class MatRing(Ring):
    """Full n x n matrix ring over a GF field.

    Payloads are row-major tuples of tuples of field ints; lexicographic
    payload order makes the zero matrix element 0 and keeps enumeration
    deterministic.  A 1 x 1 matrix's index is its entry's code, so M(1, F)
    reads every table of the field's and builds no q x q table.

    M_n(F_q) is quasi-Frobenius: B = UA for a unit U exactly when B and A
    have one right kernel (one row space), and B = AV exactly when they
    have one left kernel, so equal annihilators make associates and the
    graph gives the associate classes (tests/reference.py,
    `check_relation_agreements`, holds the proof).
    """

    def __init__(self, n: int, field: GF):
        if n < 1:
            raise RingError("matrix size must be at least 1")
        if not isinstance(field, GF):
            raise RingError("matrix entries must come from a GF field")
        self.n = n
        self.field = field
        self.cardinality = field.q ** (n * n)
        self.commutative = n == 1

    def spec_string(self):
        return f"M({self.n},{self.field.spec_string()})"

    @cached_property
    def _field_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The field's q x q mul and add tables on codes, built once per ring
        from the modulus alone.  Times x is a linear map on the digit
        vectors, the modulus's companion matrix, so k - 1 steps of it give
        the digits of b x^i for every b, and ab = sum_i a_i b x^i is one
        matmul with a's digits; a + b adds the digits.  Both digit sums are
        reduced mod p and weighted together.  The digits are float64, so
        BLAS runs the matmuls, and every value is an integer below 2^53,
        so exact."""
        p, k, q = self.field.p, self.field.k, self.field.q
        weights = p ** np.arange(k, dtype=np.float64)
        digits = np.arange(q, dtype=np.float64)[:, None] // weights % p  # [code, i]: coefficient of x^i
        companion = np.eye(k, k, 1)  # row i: the digits of x^(i+1)
        companion[-1] = np.negative(self.field.modulus[:k]) % p
        shifts = [digits]  # shifts[i][b]: the digits of b x^i
        for _ in range(k - 1):
            shifts.append(shifts[-1] @ companion % p)
        products = (digits @ np.stack(shifts).reshape(k, q * k)).reshape(q, q, k)
        sums = np.stack([products, digits[:, None] + digits])
        sums -= p * np.floor(sums / p)
        mul, add = (sums @ weights).astype(np.int64)
        return mul, add

    def _dot(self, a, b) -> np.ndarray:
        """The codes of the dot products over F_q of a[..., k] and b[..., k]
        (field codes, broadcast over the leading axes): one gather in the
        field's mul and add tables per coordinate."""
        mul, add = self._field_tables
        dot = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), dtype=np.int64)
        for k in range(a.shape[-1]):
            dot = add[dot, mul[a[..., k], b[..., k]]]
        return dot

    @cached_property
    def _kills(self) -> np.ndarray:
        """The q^n x q^n bool table of "row vector code r times column
        vector code c is 0", vectors coded base q (entry k times q^k)."""
        n, q = self.n, self.field.q
        digits = np.arange(q**n)[:, None] // q ** np.arange(n) % q  # [code, k]: entry k
        return self._dot(digits[:, None, :], digits[None, :, :]) == 0

    @cached_property
    def _place(self) -> np.ndarray:
        """The weight of each entry in an element index, row by row, most
        significant first: index i lists the n^2 entries as its base-q digits."""
        return self.field.q ** np.arange(self.n * self.n - 1, -1, -1, dtype=np.int64)

    def _entries(self, idx) -> np.ndarray:
        """The n x n entry arrays of the matrices of indices idx."""
        return (np.asarray(idx, dtype=np.int64)[:, None] // self._place % self.field.q).reshape(-1, self.n, self.n)

    def decode(self, idx):
        """Each row is one base-q^n digit of the index, read at the row
        weights of `_place`: the distinct rows are decoded once, as
        tuples, and each matrix gathers its n rows."""
        n, q = self.n, self.field.q
        codes = np.asarray(idx, dtype=np.int64)[:, None] // self._place[n - 1 :: n] % q**n
        rows, pos = np.unique(codes, return_inverse=True)
        table = list(map(tuple, (rows[:, None] // self._place[-n:] % q).tolist()))
        return list(zip(*(map(table.__getitem__, col) for col in pos.reshape(codes.shape).T.tolist())))

    def _right_kernels(self, idx):
        """Right kernels and column codes of the matrices A_a of indices
        idx[a], vectors coded as in `_kills`: ker[a, c] is set exactly when
        A_a v = 0 for the vector v of code c, and cols[j, a] is the code of
        column j of A_a.  The kernel is the AND of the n row kernels."""
        mats = self._entries(idx)
        weights = self.field.q ** np.arange(self.n, dtype=np.int64)
        rows = mats.transpose(1, 0, 2) @ weights  # rows[i, a]: the code of row i of A_a
        ker = self._kills[rows[0]]  # one row gather per row of A, ANDed in place
        for code in rows[1:]:
            ker &= self._kills[code]
        return ker, mats.transpose(2, 0, 1) @ weights

    def _zero_rows(self, idx):
        """AB = 0 exactly when every column of B lies in the right kernel
        of A: each row block gathers its rows' right-kernel bitsets at the
        code of each column of B, and ANDs the gathers in place."""
        if self.n == 1:
            return self.field._zero_rows(idx)
        ker, cols = self._right_kernels(idx)

        def rows_of(rows, out):
            kernels = ker[rows]
            # the codes are in range, and mode="clip" keeps take from
            # buffering `out`, as it does under the default mode
            np.take(kernels, cols[0], axis=1, out=out, mode="clip")
            for col in cols[1:]:
                out &= kernels.take(col, axis=1)

        return rows_of

    def class_count(self):
        """The zero class, `class_count_matrix` proper-rank classes, and the units."""
        return 2 if self.n == 1 else class_count_matrix(self.n, self.field.q) + 2

    def _class_table(self):
        """One class per (row space R, column space C) pair of each rank
        r = 0..n, of size |GL_r(F_q)|: rank 0 is the class {0} and rank n
        the units.  With B_R and B_C the RREF bases of the spaces as
        `_all_subspaces` lists them, the class's smallest member is
        B_C^T J_r B_R, J_r the r x r reversal (J_n for the units).

        xy = 0 exactly when the column space of y lies in the right kernel
        of x: each basis row of that column space is orthogonal to each
        basis row of the row space of x.  `_dot` tests all pairs of RREF
        bases, padded with zero rows to n, at once: the table costs the
        square of the subspace count, not of the class count.  The same
        call with the bases' rows reversed gives the smallest members."""
        if self.n == 1:
            return self.field._class_table()
        n, q = self.n, self.field.q
        spaces = [s for r in range(n + 1) for s in _all_subspaces(self.field, n, r)]
        zeros = [((0,) * n,) * (n - len(s)) for s in spaces]
        basis = np.array([s + z for s, z in zip(spaces, zeros)], dtype=np.int64)
        flipped = np.array([s[::-1] + z for s, z in zip(spaces, zeros)], dtype=np.int64)  # J_r B
        contains = (self._dot(basis[:, None, :, None], basis[None, :, None, :]) == 0).all(axis=(2, 3))
        rank = np.array([len(s) for s in spaces], dtype=np.intp)
        rows, cols = np.nonzero(rank[:, None] == rank[None, :])
        # entry (i, j) of B_C^T J_r B_R: the dot over k of B_C[k, i] and B_R[r - 1 - k, j]
        members = self._dot(basis[cols].transpose(0, 2, 1)[:, :, None, :], flipped[rows].transpose(0, 2, 1)[:, None])
        reps = members.reshape(len(rows), n * n) @ self._place
        order = np.argsort(reps)
        rows, cols = rows[order], cols[order]
        sizes = np.array([gl_order(r, q) for r in range(n + 1)], dtype=np.int64)[rank[rows]]
        return sizes, contains[np.ix_(rows, cols)], reps[order]

    def unit_count(self):
        return gl_order(self.n, self.field.q)

    def _unit_mask(self):
        """A matrix is a unit exactly when its right kernel is {0}, read
        over blocks of elements, one q^n-bit kernel per element."""
        if self.n == 1:
            return self.field._unit_mask()
        mask = np.empty(self.cardinality, dtype=bool)
        for rows in row_blocks(self.cardinality, self.field.q**self.n):
            ker, _ = self._right_kernels(np.arange(rows.start, rows.stop))
            np.logical_not(ker[:, 1:].any(axis=1), out=mask[rows])
        return mask

    def label(self, a):
        F = self.field
        rows = ",".join("[" + ",".join(F.label(x) for x in row) + "]" for row in a)
        return "[" + rows + "]"


class ProductRing(Ring):
    """Direct product of component rings, elementwise operations on tuples."""

    def __init__(self, factors):
        # a product of products is the product of their factors, as parsed
        factors = [g for f in factors for g in (f.factors if isinstance(f, ProductRing) else [f])]
        if len(factors) < 2:
            raise RingError("a product ring needs at least two factors")
        self.factors = factors
        card = 1
        for f in factors:
            card *= f.cardinality
        self.cardinality = card
        self.commutative = all(f.commutative for f in factors)

    def spec_string(self):
        return "x".join(f.spec_string() for f in self.factors)

    def _components(self, idx):
        """The factors' element indices of the indices idx, one array per
        factor.  Elements are in C order over the factors, as
        itertools.product and `_unit_mask` list them."""
        return np.unravel_index(np.asarray(idx, dtype=np.int64), [f.cardinality for f in self.factors])

    def _factor_indices(self, idx):
        """Per factor: the factor, its element indices that occur in idx
        (ascending, deduped by a mask, not np.unique's slower sort) and the
        position of each idx[i]'s component among them, from `_components`."""
        for f, c in zip(self.factors, self._components(idx)):
            yield f, *_distinct(c, f.cardinality)

    def _zero_rows(self, idx):
        """A product is 0 exactly when it is 0 in every component: each row
        block ANDs one table per factor, the factor's rows for the block's
        distinct components, each expanded to the vertices with one column
        gather and then copied to the block's rows that hold it."""
        parts = [(f._zero_rows(values), len(values), pos) for f, values, pos in self._factor_indices(idx)]

        def rows_of(rows, out):
            out[...] = True
            for factor_rows, width, pos in parts:
                values, inverse = _distinct(pos[rows], width)
                table = np.empty((len(values), width), dtype=bool)
                factor_rows(values, table)
                out &= table.take(pos, axis=1)[inverse]

        return rows_of

    def class_count(self):
        return prod(f.class_count() for f in self.factors)

    def _class_table(self):
        """Associates and xy = 0 are componentwise: one class per tuple of
        factor classes, in C order of the index tuples, with the sizes
        multiplied, xy = 0 exactly when it holds in every component and the
        smallest member the factors' smallest members in mixed radix: a
        left-to-right Kronecker fold over the factors.  The factors' reps
        ascend, so the C order ascends in reps too."""
        sizes, kills, reps = np.ones(1, dtype=np.int64), np.ones((1, 1), dtype=bool), np.zeros(1, dtype=np.int64)
        for f in self.factors:
            factor_sizes, factor_kills, factor_reps = f._class_table()
            sizes = np.kron(sizes, factor_sizes)
            kills = np.kron(kills, factor_kills)
            reps = (reps[:, None] * f.cardinality + factor_reps).ravel()
        return sizes, kills, reps

    def unit_count(self):
        return prod(f.unit_count() for f in self.factors)

    def _unit_mask(self):
        # a unit in every component; C order is the order of itertools.product
        mask = np.ones((), dtype=bool)
        for f in self.factors:
            mask = np.logical_and.outer(mask, f._unit_mask())
        return mask.ravel()

    def label(self, a):
        return "(" + ",".join(f.label(x) for f, x in zip(self.factors, a)) + ")"

    def decode(self, idx):
        # `_components`, not `_factor_indices`, whose masks take a factor's
        # cardinality: the labels of a closed-route product such as
        # Zn(1000000007)xZn(2) need no array of that size
        return list(zip(*(f.decode(c) for f, c in zip(self.factors, self._components(idx)))))


# ---------------------------------------------------------------------------
# ring-spec parser


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message, pos=None):
        raise RingSpecError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos]), start

    def parse_name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos], start

    def parse_atom(self):
        name, start = self.parse_name()
        if name == "Zn":
            self.expect("(")
            n, npos = self.parse_int()
            self.expect(")")
            if n < 2:
                self.error("Zn modulus must be at least 2", npos)
            return Zn(n)
        if name == "GF":
            self.expect("(")
            q, qpos = self.parse_int()
            self.expect(")")
            pk = numth.prime_power(q)
            if pk is None:
                self.error(f"{q} is not a prime power", qpos)
            return GF(*pk)
        if name == "M":
            self.expect("(")
            n, npos = self.parse_int()
            self.expect(",")
            inner_pos = self.pos
            inner = self.parse_atom()
            self.expect(")")
            if n < 1:
                self.error("matrix size must be at least 1", npos)
            if not isinstance(inner, GF):
                self.error("matrix entries must come from a GF field", inner_pos)
            return MatRing(n, inner)
        self.error("expected Zn(...), GF(...) or M(...)", start)

    def parse(self):
        factors = [self.parse_atom()]
        while self.peek() == "x":
            self.pos += 1
            factors.append(self.parse_atom())
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        if len(factors) == 1:
            return factors[0]
        return ProductRing(factors)


def parse_ring_spec(text: str) -> Ring:
    """Parse a ring-spec string; raises RingSpecError with a position."""
    if not text or not text.strip():
        raise RingSpecError("empty ring spec", 0)
    return _SpecParser(text).parse()
