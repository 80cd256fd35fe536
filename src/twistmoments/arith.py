"""Integer substrate: primes, factorization, and small multiplicative functions.

Everything here operates on ordinary Python/NumPy 64-bit integers; desk-scale
moduli and summation indices never approach that range.  factorize and the
multiplicative functions built on it use trial division in plain Python: their
callers factor moduli, group orders and divisors, a few hundred small
arguments a run.  smallest_prime_factors and sieve_primes sieve a numpy
table afresh on each call and keep nothing; numpy is imported only there.
"""

from __future__ import annotations

import math

# typing.TYPE_CHECKING without loading typing, which the numpy-free listing
# path would otherwise import for this flag alone; type checkers read any
# TYPE_CHECKING name as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


def smallest_prime_factors(limit: int) -> np.ndarray:
    """The least prime factor of n, n = 0..limit (0 for n < 2), sieved
    afresh into int32, which holds every n up to TAU_N_MAX < 2^31."""
    import numpy as np
    tab = np.zeros(limit + 1, dtype=np.int32)
    tab[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if tab[p] == 0:
            tab[p * p::2 * p][tab[p * p::2 * p] == 0] = p
    rest = tab[3::2] == 0
    tab[3::2][rest] = np.arange(3, limit + 1, 2, dtype=np.int32)[rest]
    return tab


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending.

    Args:
        limit: inclusive upper bound; values below 2 give an empty array.

    Returns:
        int64 array of primes.
    """
    import numpy as np
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    tab = smallest_prime_factors(limit)
    n = np.arange(2, limit + 1)
    return n[tab[2:limit + 1] == n]


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer by trial division: the canonical
    factorization n = prod p^e as (p, e) pairs, primes strictly ascending.

    Args:
        n: integer >= 1; n = 1 yields no pairs.

    Raises:
        ValueError: on n < 1.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    m = int(n)
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def mobius(n: int) -> int:
    """Mobius mu(n): 0 unless n is squarefree, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** j for j in range(e + 1) for d in divs]
    return sorted(divs)


def phi_star(q: int) -> int:
    """Number of primitive characters mod q: sum over c | q of mu(q/c) phi(c).

    Vanishes exactly for q = 2 mod 4 (no primitive characters exist there).
    """
    if q < 1:
        raise ValueError(f"phi_star needs q >= 1, got {q}")
    return sum(mobius(q // c) * euler_phi(c) for c in divisors(q))
