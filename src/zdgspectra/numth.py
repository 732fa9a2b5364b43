"""Small number-theory helpers: primality, factorization and prime powers.

`is_prime` is Miller-Rabin to the prime bases 2..37: exact below 3.3e24,
far past the 2^63 that `Ring.class_table` accepts.  `factorize` divides
out the primes below 1,000 by trial division and splits the rest by
Pollard's rho with Brent's cycle search (Brent 1980), so a large prime
factor costs milliseconds, not a trial division up to its root.
"""
from __future__ import annotations

from itertools import count
from math import gcd, isqrt

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1))]  # 168 of them


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # a passes when a^(d 2^i) = -1 for some i < s
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A factor 1 < d < n of a composite n with no factor below 1,000: Brent's
    cycle search on y -> y^2 + c mod n, with the next c if it finds only n."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as ordered (prime, exponent) pairs."""
    if n < 2:
        raise ValueError("factorize needs n >= 2")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # n is 1 or prime
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < 1009 * 1009 or is_prime(m):  # every factor of m is 1009 or more
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            rest += [d, m // d]
    return sorted(out.items())


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p**k if q is a prime power >= 2, else None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    return fac[0]
