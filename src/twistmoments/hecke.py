"""Hecke eigenvalues of Delta, the level-1 eigenform of weight 12.

S_12(SL_2(Z)) is one-dimensional, so Delta is the only form of its weight
and level, and the one form every family here twists.

tau(n) comes exactly from tausieve, which runs only when a table is built:
a run that reads its table from the cache never executes the sieve, nor
compiles it when no bytecode is written.  Normalized eigenvalues
lambda(n) = tau(n)/n^(11/2) are stored as float64: the correctly rounded
floats of tau divided by n ** 5.5 taken by numpy's array power.  That
power is not libm's pow: it differs in the last bit for 1,025 of
n <= 20,000, so the table is not bit-equal to the Python expression
float(tau) / n ** 5.5.
shared_eigenform serves each request the first _rounded_size(n) terms of
one process table or, on request, of a longer validated table cached on disk.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import namedtuple

import numpy as np

from . import TAU_N_MAX, _replacing, arith, tausieve


def ramanujan_tau_table(n_max: int, *, floats: bool = False) -> np.ndarray:
    """Exact tau(1..n_max): entry n-1 is tau(n) as a signed decimal byte
    string (blank-padded, fixed width, read-only).

    tau(n) overflows 64-bit integers past n ~ 3000.  int() of an entry is
    the exact value, and astype(np.float64) of the array rounds each entry
    correctly.  With floats, entry n-1 is that float64 itself, read from the
    last squaring's limbs; callers wanting eigenvalues should go through
    build_eigenform.

    Raises:
        ValueError: n_max < 1 or beyond TAU_N_MAX.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > TAU_N_MAX:
        raise ValueError(
            f"n_max={n_max} exceeds the supported bound {TAU_N_MAX} "
            "(time and memory of the exact squarings)")
    return tausieve.exact_tau(n_max, floats)


class EigenformTable(namedtuple("EigenformTable", "n_max lam source",
                                defaults=("builtin-delta",))):
    """Normalized eigenvalues lambda(1..n_max) of Delta.

    lam is indexed so lam[n] is lambda(n); lam[0] is unused (zero).  source
    says where the table came from: a build, or the cache file it was read
    from.  A named tuple, like every record on a table-backed run's path, so
    such a run loads no dataclasses.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"EigenformTable(n_max={self.n_max!r}, source={self.source!r})"

    def lam_at(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 1..{self.n_max}")
        return float(self.lam[n])


# absolute (relative above 1) tolerance of every table invariant
_TABLE_TOL = 1e-9


# indices per block of the table validation, whose temporaries are then a
# few block-length arrays whatever the table length
_VALIDATE_BLOCK = 1 << 16


def _validate_table(lam: np.ndarray, n_max: int) -> None:
    # every test is written so that a NaN fails it
    if not abs(lam[1] - 1.0) <= _TABLE_TOL:
        raise ValueError(f"lambda(1) = {lam[1]!r}, must be 1")
    spf = arith.smallest_prime_factors(n_max)
    hecke_bad, first = 0, None
    # blocks of n in ascending order; a Deligne failure outranks the
    # relation, so the relation's failures are counted and reported last
    for lo in range(2, n_max + 1, _VALIDATE_BLOCK):
        hi = min(lo + _VALIDATE_BLOCK, n_max + 1)
        n, p = np.arange(lo, hi), spf[lo:hi]
        # Deligne at the primes, |lambda(p)| <= 2; the relation below then
        # carries |lambda(n)| <= d(n) to every n
        primes = n[p == n]
        bad = primes[~(np.abs(lam[primes]) <= 2.0 + _TABLE_TOL)]
        if len(bad):
            raise ValueError(f"Deligne bound violated at p={bad[0]}: "
                             f"|lambda|={abs(lam[bad[0]]):.6g} > 2")
        # one relation over every n >= 2, with p = spf(n):
        #   lambda(n) = lambda(p) lambda(n/p) - [p | n/p] lambda(n/p^2).
        # For n = p^a m, p not dividing m, it is multiplicativity at a = 1
        # and the Hecke recursion at p^a, times lambda(m), at a >= 2.
        m = n // p
        nxt = lam[p] * lam[m]
        again = m % p == 0
        nxt[again] -= lam[m[again] // p[again]]
        bad = np.nonzero(~(np.abs(lam[lo:hi] - nxt)
                           <= _TABLE_TOL * np.maximum(1.0, np.abs(nxt))))[0]
        if len(bad) and first is None:
            first = int(n[bad[0]]), int(p[bad[0]])
        hecke_bad += len(bad)
    if hecke_bad:
        raise ValueError(f"Hecke relation fails at {hecke_bad} indices, "
                         f"first n={first[0]} (p={first[1]})")


def build_eigenform(n_max: int = 1000) -> EigenformTable:
    """Build the eigenvalue table of Delta and validate it: lambda(1) = 1,
    the Deligne bound at the primes, and the Hecke recursion with
    multiplicativity (one relation over every n), each to _TABLE_TOL.

    Raises:
        ValueError: n_max out of range, or an invariant violation.
    """
    n = np.arange(n_max + 1, dtype=np.float64)
    lam = np.zeros(n_max + 1)
    lam[1:] = ramanujan_tau_table(n_max, floats=True)
    lam[1:] /= n[1:] ** 5.5
    _validate_table(lam, n_max)
    lam.setflags(write=False)
    return EigenformTable(n_max=n_max, lam=lam)


def rankin_prime_sum(table: EigenformTable, x: float) -> float:
    """Sum of lambda(p)^2/p over primes p <= x (grows like log log x)."""
    if x > table.n_max:
        raise ValueError(f"x={x} beyond table range {table.n_max}")
    primes = arith.sieve_primes(int(x))
    lam_p = table.lam[primes]
    return float(np.sum(lam_p * lam_p / primes))


# the process table that shared_eigenform serves views of
_shared_table: EigenformTable | None = None
_SHARED_STEP = 250_000
# Part of every cache key: files written under another format are ignored.
_CACHE_FORMAT = 2


def _rounded_size(n_max: int) -> int:
    """Table length built for a request: exact up to one 250k step, above
    that rounded up to whole steps so nearby requests share one table."""
    if n_max <= _SHARED_STEP:
        return n_max
    return -(-n_max // _SHARED_STEP) * _SHARED_STEP


# The 12 in the file names and keys is Delta's weight.  Changing it would
# make every cache already written a miss.
def _cache_path(cache_dir: str, n_max: int) -> str:
    key = hashlib.sha256(f"builtin-delta:12:{n_max}:v{_CACHE_FORMAT}"
                         .encode()).hexdigest()[:12]
    return os.path.join(cache_dir, f"eigenform_12_{n_max}_{key}.npy")


def _cached_lengths(cache_dir: str) -> list[int]:
    """Lengths of the current-format tables in cache_dir, ascending."""
    found = []
    for name in os.listdir(cache_dir):
        m = re.fullmatch(r"eigenform_12_(\d+)_\w+\.npy", name)
        if m and os.path.join(cache_dir, name) == _cache_path(
                cache_dir, int(m[1])):
            found.append(int(m[1]))
    return sorted(found)


def _load_cached(path: str, n_max: int) -> EigenformTable:
    """The first n_max terms of a cached table, validated like a fresh build.

    Raises:
        ValueError: "corrupt cache file ..." for an unreadable, short or
            invalid table.
    """
    try:
        raw = np.load(path, mmap_mode="r")
        if raw.dtype != np.float64 or raw.ndim != 1 or len(raw) <= n_max:
            raise ValueError(f"holds {raw.dtype} {raw.shape}, "
                             f"need float64 ({n_max + 1},) or longer")
        lam = np.array(raw[:n_max + 1])
        del raw
        _validate_table(lam, n_max)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"corrupt cache file {path}: {exc}") from None
    lam.setflags(write=False)
    return EigenformTable(n_max=n_max, lam=lam, source=f"cache:{path}")


def shared_eigenform(n_max: int,
                     cache_dir: str | None = None) -> EigenformTable:
    """Table of exactly _rounded_size(n_max) terms.

    Tau generation dominates table cost, so everything in one process shares
    a single table, built at _rounded_size and grown, never shrunk; a request
    gets a view of its first _rounded_size(n_max) terms.  Results therefore
    do not depend on what the process or the cache holds.

    With cache_dir the table is the validated prefix of the shortest cached
    table long enough; on a miss it comes from the process table as above
    and is written to the cache.

    Raises:
        ValueError: a cached table is unreadable or fails validation.
        OSError: the cache directory cannot be created or written.
    """
    global _shared_table
    size = _rounded_size(n_max)
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        hit = next((n for n in _cached_lengths(cache_dir) if n >= size),
                   None)
        if hit is not None:
            return _load_cached(_cache_path(cache_dir, hit), size)
    tab = _shared_table
    if tab is None or tab.n_max < size:
        tab = _shared_table = build_eigenform(n_max=size)
    tab = tab._replace(n_max=size, lam=tab.lam[:size + 1])
    if cache_dir is not None:
        with _replacing(_cache_path(cache_dir, size)) as fh:
            np.save(fh, tab.lam)
    return tab
