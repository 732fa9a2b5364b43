"""Finite rings: Z_n, GF(p^k), full matrix rings over GF, and direct products.

Ring elements are plain hashable payloads: residues and field elements are
ints, matrices are row-major tuples of tuples of field ints, product
elements are tuples of component payloads.  Each ring object supplies exact
arithmetic, table-built zero products and associate keys, a class table
(the associate classes with their sizes and xy = 0 relation, built
without enumerating), unit and zero-divisor enumeration and canonical
labels for its own payloads.  Element order is always lexicographic on
the payload, so index 0 is the zero element and enumeration is
reproducible.

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
from math import gcd, prod

import numpy as np

from . import numth
from .counts import gl_order, q_binomial

DEFAULT_ELEMENT_CAP = 20000
FIELD_TABLE_MAX_ORDER = 512


class RingError(Exception):
    """Base class for ring construction and arithmetic errors."""


class RingSpecError(RingError):
    """Malformed ring-spec text; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EnumerationCapError(RingError):
    """Raised when enumerating a ring would exceed the element cap."""


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (little-endian coefficient tuples)


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(_poly_trim(tuple(a))) - 1 >= dm:
        a = list(_poly_trim(tuple(a)))
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
    return _poly_trim(tuple(a))


def _poly_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..k//2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for cs in itertools.product(range(p), repeat=d):
            if not _poly_mod(poly, cs + (1,), p):
                return False
    return True


def _smallest_irreducible(p, k):
    # Lexicographic scan over (c_0, ..., c_{k-1}); leading coefficient is 1.
    for cs in itertools.product(range(p), repeat=k):
        poly = cs + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RingError(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------


class Ring:
    """Common behavior: cached enumeration, unit/zero-divisor splits."""

    kind = "?"
    commutative = True
    cardinality = 0

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.spec_string()

    def spec_string(self) -> str:
        raise NotImplementedError

    # arithmetic on payloads
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def zero_products(self, xs) -> np.ndarray:
        """Bool array z of shape (len(xs), len(xs)) with z[i, j] exactly
        when xs[i] * xs[j] == 0, built from tables instead of one `mul`
        per pair.  It is not symmetric when the ring is not commutative."""
        raise NotImplementedError

    def associate_keys(self, xs) -> np.ndarray:
        """Int64 array k with k[i] == k[j] exactly when xs[i] and xs[j] are
        associates (xs[i] = u xs[j] and xs[j] = xs[i] v for units u, v).
        0 is a class of its own and the units form one class.  Keys are
        comparable only within one call."""
        raise NotImplementedError

    def class_count(self) -> int:
        """Number of associate classes, 0 and the units included."""
        raise NotImplementedError

    def class_table(self, cap: int):
        """(sizes, kills, labels) over all associate classes, built without
        enumerating the ring: sizes an int64 array, kills the bool m x m
        table of "class i times class j is 0" (its diagonal marks the
        classes that square to 0) and one label per class.  Class 0 is
        {0} and the last class is the units.  The class count is checked
        against cap before any table is built."""
        count = self.class_count()
        if count > cap:
            raise RingError(
                f"{self.spec_string()}: {count} classes (0 and the units included) "
                f"exceed the closed-route cap of {cap}"
            )
        if self.cardinality >= 2**63:  # every class size must fit int64
            raise RingError(f"{self.spec_string()} has 2^63 or more elements")
        return self._class_table()

    def _class_table(self):
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def label(self, a) -> str:
        raise NotImplementedError

    def _enumerate(self):
        raise NotImplementedError

    def elements(self, cap: int | None = None) -> list:
        """All elements in canonical (lexicographic) order, zero first."""
        cap = DEFAULT_ELEMENT_CAP if cap is None else cap
        if self.cardinality > cap:
            raise EnumerationCapError(
                f"{self.spec_string()} has {self.cardinality} elements, over the cap {cap}"
            )
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = self._enumerate()
            self._elements = cached
        return cached

    def units(self, cap: int | None = None) -> list:
        els = self.elements(cap)  # checks the cap on every call
        if getattr(self, "_units", None) is None:
            self._split(els)
        return self._units

    def zero_divisors(self, cap: int | None = None) -> list:
        """Nonzero non-units, in element order.

        In a finite ring every nonzero element is a unit or a (one-sided)
        zero divisor, so no annihilator search is needed here: `_split`
        tells the units by the associate key of `one`.  Tests check the
        definition directly.
        """
        els = self.elements(cap)  # checks the cap on every call
        if getattr(self, "_zero_divisors", None) is None:
            self._split(els)
        return self._zero_divisors

    def _split(self, els):
        """Units and zero-divisors from one `associate_keys` call: the units
        are the associate class of `one`, and every element outside the
        classes of 0 and `one` is a zero-divisor."""
        keys = self.associate_keys([*els, self.one])
        unit = keys[:-1] == keys[-1]
        zd = ~unit & (keys[:-1] != keys[0])  # els[0] is 0
        self._units = [els[i] for i in np.flatnonzero(unit)]
        self._zero_divisors = [els[i] for i in np.flatnonzero(zd)]


class Zn(Ring):
    """The ring of integers modulo n."""

    kind = "Zn"
    commutative = True

    def __init__(self, n: int):
        if n < 2:
            raise RingError("Zn modulus must be at least 2")
        self.n = n
        self.cardinality = n
        self.zero = 0
        self.one = 1 % n

    def key(self):
        return ("Zn", self.n)

    def spec_string(self):
        return f"Zn({self.n})"

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def zero_products(self, xs):
        # the int64 products are exact for n below 3e9, far past any ring that can be enumerated
        vals = np.asarray(xs, dtype=np.int64)
        return np.outer(vals, vals) % self.n == 0

    def associate_keys(self, xs):
        # x ~ y exactly when gcd(x, n) = gcd(y, n)
        return np.gcd(np.asarray(xs, dtype=np.int64), self.n)

    def class_count(self):
        return prod(a + 1 for _, a in numth.factorize(self.n))

    def _class_table(self):
        """Z_n is the product of the Z_{p^a} over n = prod p^a (CRT).  The
        classes of Z_{p^a} are p^e times the units, of size phi(p^(a-e)),
        and p^e * p^f = 0 exactly when e + f >= a; indexed by i = a - e,
        0 comes first and the units last.  The product's classes are then
        put in the order 0, the proper classes by ascending d = prod p^e
        (the gcd of their members with n), the units."""
        factors = numth.factorize(self.n)
        tables = []
        for p, a in factors:
            i = np.arange(a + 1)
            sizes = [1] + [(p - 1) * p ** (k - 1) for k in range(1, a + 1)]
            tables.append((np.array(sizes, dtype=np.int64), i[:, None] + i[None, :] <= a))
        sizes, kills, idx = _product_table(tables)
        d = np.ones(len(sizes), dtype=np.int64)
        for (p, a), i in zip(factors, idx):
            d *= p ** (a - i)
        order = np.concatenate(([0], np.argsort(d[1:-1]) + 1, [len(d) - 1]))
        labels = ["0"] + [f"[{x}]" for x in d[order[1:-1]].tolist()] + ["u"]
        return sizes[order], kills[np.ix_(order, order)], labels

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def label(self, a):
        return str(a)

    def _enumerate(self):
        return list(range(self.n))


class GF(Ring):
    """The finite field with p^k elements.

    Multiplication and inverses go through lookup tables for orders up to
    FIELD_TABLE_MAX_ORDER; larger fields fall back to on-the-fly polynomial
    arithmetic modulo the stored irreducible.
    """

    kind = "GF"
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
        self.zero = 0
        self.one = 1
        self.modulus = _smallest_irreducible(p, k)
        self._tabled = self.q <= FIELD_TABLE_MAX_ORDER
        if self._tabled:
            self._build_tables()

    def key(self):
        return ("GF", self.p, self.k)

    def spec_string(self):
        return f"GF({self.q})"

    def _digits(self, a):
        cs, p = [], self.p
        for _ in range(self.k):
            a, r = divmod(a, p)
            cs.append(r)
        return tuple(cs)

    def _undigits(self, cs):
        v = 0
        for c in reversed(cs):
            v = v * self.p + c
        return v

    def _raw_add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._undigits(tuple((x + y) % self.p for x, y in zip(da, db)))

    def _raw_mul(self, a, b):
        prod = _poly_mul(_poly_trim(self._digits(a)), _poly_trim(self._digits(b)), self.p)
        rem = _poly_mod(prod, self.modulus, self.p)
        return self._undigits(rem + (0,) * (self.k - len(rem)))

    def _build_tables(self):
        q = self.q
        self._add_t = [[self._raw_add(a, b) for b in range(q)] for a in range(q)]
        self._mul_t = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]
        self._neg_t = [self._raw_mul(a, self._undigits(((self.p - 1),) + (0,) * (self.k - 1))) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            row = self._mul_t[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv_t = inv
        for a in range(1, q):
            if self._mul_t[a][inv[a]] != 1:  # construction sanity check
                raise RingError(f"inverse table broken at {a} in {self.spec_string()}")

    def add(self, a, b):
        if self._tabled:
            return self._add_t[a][b]
        return self._raw_add(a, b)

    def neg(self, a):
        if self._tabled:
            return self._neg_t[a]
        cs = self._digits(a)
        return self._undigits(tuple((-c) % self.p for c in cs))

    def mul(self, a, b):
        if self._tabled:
            return self._mul_t[a][b]
        return self._raw_mul(a, b)

    def zero_products(self, xs):
        z = np.asarray(xs) == 0
        return z[:, None] | z[None, :]

    def associate_keys(self, xs):
        return (np.asarray(xs, dtype=np.int64) != 0).astype(np.int64)

    def class_count(self):
        return 2

    def _class_table(self):
        kills = np.array([[True, True], [True, False]])
        return np.array([1, self.q - 1], dtype=np.int64), kills, ["0", "u"]

    def inv(self, a):
        if a == 0:
            raise RingError("0 has no inverse")
        if self._tabled:
            return self._inv_t[a]
        out, e, base = 1, self.q - 2, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def is_unit(self, a):
        return a != 0

    def label(self, a):
        if self.k == 1:
            return str(a)
        cs = self._digits(a)
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

    def _enumerate(self):
        return list(range(self.q))


def construct_field(p: int, k: int = 1) -> GF:
    """GF(p^k) with the canonical (smallest) irreducible modulus."""
    return GF(p, k)


# ---------------------------------------------------------------------------
# linear algebra over GF, on row-major tuple matrices


def gf_rref(field, rows, width):
    """Reduced row echelon form; returns the tuple of nonzero rows.

    The result is the canonical basis of the row space: pivots are 1,
    pivot columns are cleared above and below, rows ordered by pivot.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    rank = 0
    for col in range(width):
        piv = None
        for i in range(rank, nrows):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [field.mul(inv, v) for v in work[rank]]
        for i in range(nrows):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in work[:rank])


def gf_rank(field, rows, width):
    return len(gf_rref(field, rows, width))


def gf_nullspace(field, rows, width):
    """Canonical basis (RREF rows) of {v : M v^T = 0} for the row list M."""
    rr = gf_rref(field, rows, width)
    pivots = []
    for row in rr:
        for j in range(width):
            if row[j] != 0:
                pivots.append(j)
                break
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(rr[i][f])
        basis.append(tuple(v))
    return gf_rref(field, basis, width)


def gf_span_contains(field, basis_rref, other_rows, width):
    """True if span(other_rows) is inside the space with the given RREF basis."""
    stacked = gf_rref(field, tuple(basis_rref) + tuple(other_rows), width)
    return stacked == tuple(basis_rref)


def _all_subspaces(field, n: int, r: int):
    """Canonical RREF bases of every r-dimensional subspace of F_q^n,
    generated by pivot-column choice plus free entries."""
    if r == 0:
        yield ()
        return
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
    deterministic.
    """

    kind = "M"

    def __init__(self, n: int, field: GF):
        if n < 1:
            raise RingError("matrix size must be at least 1")
        if not isinstance(field, GF):
            raise RingError("matrix entries must come from a GF field")
        self.n = n
        self.field = field
        self.cardinality = field.q ** (n * n)
        self.commutative = n == 1
        self.zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        self.one = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def key(self):
        return ("M", self.n, self.field.key())

    def spec_string(self):
        return f"M({self.n},{self.field.spec_string()})"

    def add(self, a, b):
        F = self.field
        return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def neg(self, a):
        F = self.field
        return tuple(tuple(F.neg(x) for x in row) for row in a)

    def mul(self, a, b):
        F, n = self.field, self.n
        bt = tuple(zip(*b))  # columns of b
        out = []
        for row in a:
            orow = []
            for col in bt:
                acc = 0
                for x, y in zip(row, col):
                    if x and y:
                        acc = F.add(acc, F.mul(x, y))
                orow.append(acc)
            out.append(tuple(orow))
        return tuple(out)

    def _kills(self):
        """The q^n x q^n bool table of "row vector code r times column
        vector code c is 0", vectors coded base q (entry k times q^k).
        Built once per ring."""
        cached = getattr(self, "_kills_table", None)
        if cached is None:
            F, n, q = self.field, self.n, self.field.q
            digits = np.arange(q**n)[:, None] // q ** np.arange(n) % q  # [code, k]: entry k
            mul = np.array([[F.mul(a, b) for b in range(q)] for a in range(q)])
            add = np.array([[F.add(a, b) for b in range(q)] for a in range(q)])
            dot = np.zeros((q**n, q**n), dtype=np.int64)
            for k in range(n):
                dot = add[dot, mul[digits[:, k][:, None], digits[:, k][None, :]]]
            cached = self._kills_table = dot == 0
        return cached

    def _codes(self, xs):
        """Row and column codes of the matrices xs: [a, i] is the code of
        row i (column i) of xs[a]."""
        n = self.n
        mats = np.array(xs, dtype=np.int64).reshape(len(xs), n, n)
        weights = self.field.q ** np.arange(n, dtype=np.int64)
        return mats @ weights, weights @ mats

    def zero_products(self, xs):
        """AB = 0 exactly when every row of A times every column of B is 0:
        each of the n^2 (row i of A, column j of B) lookups is a gather
        from the `_kills` table."""
        kills = self._kills()
        row_codes, col_codes = self._codes(xs)
        out = np.ones((len(xs), len(xs)), dtype=bool)
        for i in range(self.n):
            rows = kills[row_codes[:, i]]
            for j in range(self.n):
                out &= rows[:, col_codes[:, j]]
        return out

    def associate_keys(self, xs):
        """B = UA for an invertible U exactly when B and A have one row
        space, that is one right kernel {v : Av = 0}; B = AV likewise for
        the column space and the left kernel {v : v^T A = 0}.  The key is
        the pair of kernels, as bitsets over F_q^n."""
        kills = self._kills()
        row_codes, col_codes = self._codes(xs)
        right = kills[row_codes].all(axis=1)
        left = kills.T[col_codes].all(axis=1)
        bits = np.packbits(np.concatenate([right, left], axis=1), axis=1)
        # one byte string per matrix: a 1-D unique, far faster than axis=0
        rows = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        return np.unique(rows, return_inverse=True)[1].astype(np.int64)

    def class_count(self):
        return sum(q_binomial(self.n, r, self.field.q) ** 2 for r in range(1, self.n)) + 2

    def _class_table(self):
        """0, one class per (row space, column space) pair of each rank
        r = 1..n-1, labelled r{r}.{row space}.{column space} by the index
        of each space among those of rank r in `_all_subspaces` order and
        of size |GL_r(F_q)|, then the units.

        xy = 0 exactly when the column space of y lies in the right kernel
        of x, which the row space of x fixes; so one span check per
        (row space, column space) pair fills the table, whose cost is the
        square of the subspace count rather than of the class count."""
        F, n, q = self.field, self.n, self.field.q
        spaces = [s for r in range(1, n) for s in _all_subspaces(F, n, r)]
        kernels = [gf_nullspace(F, s, n) for s in spaces]
        contains = np.array(
            [[gf_span_contains(F, k, s, n) for s in spaces] for k in kernels], dtype=bool
        ).reshape(len(spaces), len(spaces))
        rank = np.array([len(s) for s in spaces], dtype=np.intp)
        rows, cols = np.nonzero(rank[:, None] == rank[None, :])  # by rank, row, column
        first = np.searchsorted(rank, rank)  # where each space's rank starts
        m = len(rows) + 2
        kills = np.zeros((m, m), dtype=bool)
        kills[0, :] = kills[:, 0] = True
        kills[1:-1, 1:-1] = contains[np.ix_(rows, cols)]
        ranks = rank[rows].tolist()
        sizes = [1] + [gl_order(r, q) for r in ranks] + [gl_order(n, q)]
        proper = zip(ranks, (rows - first[rows]).tolist(), (cols - first[cols]).tolist())
        labels = ["0"] + [f"r{r}.{a}.{b}" for r, a, b in proper] + ["u"]
        return np.array(sizes, dtype=np.int64), kills, labels

    def det(self, a):
        F, n = self.field, self.n
        work = [list(row) for row in a]
        det = 1
        for col in range(n):
            piv = None
            for i in range(col, n):
                if work[i][col] != 0:
                    piv = i
                    break
            if piv is None:
                return 0
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = F.neg(det)
            det = F.mul(det, work[col][col])
            inv = F.inv(work[col][col])
            for i in range(col + 1, n):
                if work[i][col] != 0:
                    f = F.mul(work[i][col], inv)
                    work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], work[col])]
        return det

    def rank(self, a):
        return gf_rank(self.field, a, self.n)

    def row_space(self, a):
        return gf_rref(self.field, a, self.n)

    def column_space(self, a):
        return gf_rref(self.field, tuple(zip(*a)), self.n)

    def is_unit(self, a):
        return self.det(a) != 0

    def label(self, a):
        F = self.field
        rows = ",".join("[" + ",".join(F.label(x) for x in row) + "]" for row in a)
        return "[" + rows + "]"

    def _enumerate(self):
        n, elems = self.n, list(range(self.field.q))
        out = []
        for flat in itertools.product(elems, repeat=n * n):
            out.append(tuple(flat[i * n : (i + 1) * n] for i in range(n)))
        return out


def _product_table(tables):
    """Sizes and kills of a product of (sizes, kills) class tables: one
    class per tuple of factor classes, in C order of the index tuples,
    with the sizes multiplied and xy = 0 exactly when it holds in every
    component.  The index tuples come back too, one row per factor."""
    idx = np.indices([len(sizes) for sizes, _ in tables]).reshape(len(tables), -1)
    m = idx.shape[1]
    sizes = np.ones(m, dtype=np.int64)
    kills = np.ones((m, m), dtype=bool)
    for (factor_sizes, factor_kills), i in zip(tables, idx):
        sizes *= factor_sizes[i]
        kills &= factor_kills[i][:, i]
    return sizes, kills, idx


def _component(xs, k):
    """Distinct values of component k of the tuples xs, in first-seen
    order, and the position of each x[k] among them."""
    index = {}
    idx = np.array([index.setdefault(x[k], len(index)) for x in xs], dtype=np.intp)
    return list(index), idx


class ProductRing(Ring):
    """Direct product of component rings, elementwise operations on tuples."""

    kind = "x"

    def __init__(self, factors):
        factors = list(factors)
        if len(factors) < 2:
            raise RingError("a product ring needs at least two factors")
        self.factors = factors
        card = 1
        for f in factors:
            card *= f.cardinality
        self.cardinality = card
        self.commutative = all(f.commutative for f in factors)
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def key(self):
        return ("x",) + tuple(f.key() for f in self.factors)

    def spec_string(self):
        return "x".join(f.spec_string() for f in self.factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def zero_products(self, xs):
        """A product is 0 exactly when it is 0 in every component: the AND
        of each factor's table on the distinct values of that component."""
        out = np.ones((len(xs), len(xs)), dtype=bool)
        for k, f in enumerate(self.factors):
            values, idx = _component(xs, k)
            out &= f.zero_products(values)[idx][:, idx]
        return out

    def associate_keys(self, xs):
        """Associates componentwise: each factor's keys on the distinct
        values of its component, combined in mixed radix."""
        keys = np.zeros(len(xs), dtype=np.int64)
        for k, f in enumerate(self.factors):
            values, idx = _component(xs, k)
            fk = f.associate_keys(values)
            keys = keys * (int(fk.max()) + 1) + fk[idx]
        return keys

    def class_count(self):
        return prod(f.class_count() for f in self.factors)

    def _class_table(self):
        """Associates and xy = 0 are componentwise: the product of the
        factors' tables, so the all-zero class comes first and the all-unit
        class last."""
        tables = [f._class_table() for f in self.factors]
        sizes, kills, idx = _product_table([(s, k) for s, k, _ in tables])
        labels = [
            "(" + ",".join(t[2][c] for t, c in zip(tables, combo)) + ")"
            for combo in idx.T.tolist()
        ]
        return sizes, kills, labels

    def is_unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def label(self, a):
        return "(" + ",".join(f.label(x) for f, x in zip(self.factors, a)) + ")"

    def _enumerate(self):
        lists = [f.elements(cap=self.cardinality) for f in self.factors]
        return list(itertools.product(*lists))


def is_reduced(ring: Ring, cap: int | None = None) -> bool:
    """True when the ring has no nonzero element squaring to zero."""
    zero = ring.zero
    return not any(a != zero and ring.mul(a, a) == zero for a in ring.elements(cap))


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
