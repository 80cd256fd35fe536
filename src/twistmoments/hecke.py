"""Hecke eigenvalues for the fixed level-1 eigenform, default Delta (kappa=12).

tau(n) is computed exactly from Delta = x prod (1-x^m)^24.  The cube of the
eta-type product is Jacobi's sparse series sum (-1)^k (2k+1) x^{k(k+1)/2},
and three truncated squarings give the 24th power.  Each squaring is one
Kronecker substitution: the coefficients, biased to be non-negative, are
packed into fixed-width decimal slots of a single decimal.Decimal, squared
in an exact context (libmpdec multiplies operands this large by a
number-theoretic transform), and read back slot by slot.  The route needs
only the standard library and is exact at every size.

Normalized eigenvalues lambda(n) = tau(n)/n^((kappa-1)/2) are stored as
float64.  shared_eigenform keeps one table per process and, on request, an
on-disk cache of validated tables that serves any shorter request by prefix.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import itertools
import math
import os
import re
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import arith

_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


def _square_trunc(a: list[int], length: int) -> list[int]:
    """Exact coefficients of (sum a_i x^i)^2 below x^length.

    With c = max|a_i| every biased coefficient b_i = a_i + c lies in [0, 2c],
    so every coefficient of B(x)^2 is at most length (2c)^2 < 10^d and the
    base-10^d slots of B(10^d)^2 never carry into each other.  B is packed
    most significant slot first, so the slots below x^length are the leading
    digits of the square.  B = A + c U with U = sum_{i<length} x^i gives

        (A^2)_k = (B^2)_k - 2c sum_{i<=k} a_i - c^2 (k+1),   k < length.

    Args:
        a: signed integer coefficients; missing ones up to length are zero.
        length: number of output coefficients to keep.
    """
    vals = list(a[:length]) + [0] * (length - len(a))
    c = max(map(abs, vals), default=0)
    if c == 0:
        return [0] * length
    d = len(str(length * (2 * c) ** 2))
    packed = decimal.Decimal("".join([str(v + c).zfill(d) for v in vals]))
    square = _EXACT.multiply(packed, packed)
    del packed
    # the square holds 2*length - 1 slots; drop the length - 1 lowest
    top = _EXACT.scaleb(square, -d * (length - 1))
    del square
    digits = str(top.to_integral_value(decimal.ROUND_DOWN, _EXACT))
    del top
    digits = digits.zfill(length * d)
    c2, twice_c = c * c, 2 * c
    return [int(digits[k * d:(k + 1) * d]) - twice_c * s - c2 * (k + 1)
            for k, s in enumerate(itertools.accumulate(vals))]


def _jacobi_cube(length: int) -> list[int]:
    """Coefficients of prod (1-x^n)^3 = sum (-1)^k (2k+1) x^{k(k+1)/2}."""
    out = [0] * length
    k = 0
    while k * (k + 1) // 2 < length:
        out[k * (k + 1) // 2] = (2 * k + 1) * (-1 if k % 2 else 1)
        k += 1
    return out

# The route is exact at any size; this bound only limits the time and
# memory one request may take (5.58M terms: about 105 s and a 1.2 GB peak
# on one core of a 2-core machine).
TAU_N_MAX = 20_000_000


def ramanujan_tau_table(n_max: int) -> list[int]:
    """Exact tau(1..n_max) as Python integers.

    tau(n) overflows 64-bit integers past n ~ 3000, so the return type is a
    plain list; callers wanting floats should go through build_eigenform.

    Raises:
        ValueError: n_max < 1 or beyond TAU_N_MAX.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > TAU_N_MAX:
        raise ValueError(
            f"n_max={n_max} exceeds the supported bound {TAU_N_MAX} "
            "(time and memory of the exact squarings)")
    series = _jacobi_cube(n_max)
    for _ in range(3):
        series = _square_trunc(series, n_max)
    return series


@contextlib.contextmanager
def _replacing(path: str, mode: str):
    """Open a temporary file beside path; it replaces path only on success."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tau_file(path: str, taus: list[int]) -> None:
    """Write the coefficient file: one "n<TAB>tau(n)" line per n, no header."""
    with _replacing(path, "w") as fh:
        for i, t in enumerate(taus, start=1):
            fh.write(f"{i}\t{t}\n")


def read_coefficient_file(path: str) -> list[int]:
    """Read an "n<TAB>a(n)" file, validating ascending 1-based indices."""
    coeffs: list[int] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            n_str, a_str = line.split("\t")
            if int(n_str) != len(coeffs) + 1:
                raise ValueError(f"{path}: expected index {len(coeffs)+1}, "
                                 f"got {n_str}")
            coeffs.append(int(a_str))
    if not coeffs:
        raise ValueError(f"{path}: empty coefficient file")
    return coeffs


@dataclass(frozen=True)
class EigenformTable:
    """Normalized eigenvalues lambda(1..n_max) of a level-1 eigenform.

    lam is indexed so lam[n] is lambda(n); lam[0] is unused (zero).
    """

    weight: int
    n_max: int
    lam: np.ndarray = field(repr=False)
    source: str = "builtin-delta"

    def lam_at(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 1..{self.n_max}")
        return float(self.lam[n])


def _divisor_count_table(n_max: int) -> np.ndarray:
    """d(n) for n <= n_max; the i-loop is cut at n_max/32 and the short
    slices (divisors above that) are folded into 32 strided updates."""
    d = np.zeros(n_max + 1, dtype=np.int32)
    t = n_max // 32
    for i in range(1, t + 1):
        d[i::i] += 1
    for j in range(1, n_max // (t + 1) + 1):
        d[j * (t + 1)::j] += 1
    d[0] = 0
    return d


# absolute (relative above 1) tolerance of every table invariant
_TABLE_TOL = 1e-9


def _validate_table(lam: np.ndarray, n_max: int) -> None:
    if abs(lam[1] - 1.0) > _TABLE_TOL:
        raise ValueError(f"lambda(1) = {lam[1]!r}, must be 1")
    d = _divisor_count_table(n_max)
    bad = np.nonzero(np.abs(lam[1:]) > d[1:] + _TABLE_TOL)[0]
    if len(bad):
        n = int(bad[0]) + 1
        raise ValueError(f"Deligne bound violated at n={n}: "
                         f"|lambda|={abs(lam[n]):.6g} > d(n)={d[n]}")
    primes = arith.sieve_primes(n_max)
    # Hecke recursion at every prime power in range
    for p in primes[primes * primes <= n_max]:
        pa = int(p)
        while pa * p <= n_max:
            nxt = lam[p] * lam[pa] - (lam[pa // p] if pa > p else 1.0)
            if abs(lam[pa * p] - nxt) > _TABLE_TOL * max(1.0, abs(nxt)):
                raise ValueError(f"Hecke recursion fails at p={p}, p^a={pa}")
            pa *= p
    if n_max < 2:
        return
    # multiplicativity: split every n as p^a * m with p = spf(n), (p, m) = 1
    s = arith.smallest_prime_factors(n_max)[2:]
    pa = s.copy()
    m = np.arange(2, n_max + 1, dtype=np.int64) // s
    for _ in range(int(math.log2(max(n_max, 2))) + 1):
        msk = (m > 1) & (m % s == 0)
        if not msk.any():
            break
        pa[msk] *= s[msk]
        m[msk] //= s[msk]
    split = m > 1
    lhs = lam[2:][split]
    rhs = lam[pa[split]] * lam[m[split]]
    bad_mult = np.abs(lhs - rhs) > _TABLE_TOL * np.maximum(1.0, np.abs(lhs))
    if bad_mult.any():
        raise ValueError(
            f"multiplicativity fails at {int(bad_mult.sum())} indices")


def build_eigenform(source: str = "builtin-delta", n_max: int = 1000,
                    kappa: int = 12) -> EigenformTable:
    """Build the eigenvalue table and validate it: lambda(1) = 1, the Deligne
    bound, the Hecke recursion and multiplicativity, each to _TABLE_TOL.

    Args:
        source: "builtin-delta", or a path to an "n<TAB>a(n)" coefficient
            file holding unnormalized integer coefficients a(n).
        n_max: table length (for file sources, capped at the file length).
        kappa: weight; builtin-delta forces 12.

    Raises:
        ValueError: invariant violations, or unreadable source.
    """
    if source == "builtin-delta":
        if kappa != 12:
            raise ValueError("builtin-delta has weight 12")
        coeffs = ramanujan_tau_table(n_max)
    else:
        coeffs = read_coefficient_file(source)
        if len(coeffs) < n_max:
            n_max = len(coeffs)
    if kappa < 2 or kappa % 2:
        raise ValueError(f"weight must be a positive even integer, got {kappa}")
    n = np.arange(n_max + 1, dtype=np.float64)
    lam = np.zeros(n_max + 1)
    lam[1:] = np.array([float(c) for c in coeffs[:n_max]])
    lam[1:] /= n[1:] ** ((kappa - 1) / 2)
    _validate_table(lam, n_max)
    lam.setflags(write=False)
    return EigenformTable(weight=kappa, n_max=n_max, lam=lam, source=source)


def lambda_tilde(table: EigenformTable, n: int) -> float:
    """Completely multiplicative extension: prod lambda(p)^a over n's factors.

    Raises:
        ValueError: some prime factor of n exceeds the table range.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = 1.0
    for p, e in arith.factorize(n).factors:
        if p > table.n_max:
            raise ValueError(f"prime {p} outside table range {table.n_max}")
        out *= table.lam_at(p) ** e
    return out


def rankin_prime_sum(table: EigenformTable, x: float) -> float:
    """Sum of lambda(p)^2/p over primes p <= x (grows like log log x)."""
    if x > table.n_max:
        raise ValueError(f"x={x} beyond table range {table.n_max}")
    primes = arith.sieve_primes(int(x))
    lam_p = table.lam[primes]
    return float(np.sum(lam_p * lam_p / primes))


def mertens_log_sum(x: float) -> float:
    """Sum of (log p)/p over primes p <= x (equals log x + O(1))."""
    primes = arith.sieve_primes(int(x))
    if len(primes) == 0:
        return 0.0
    return float(np.sum(np.log(primes) / primes))


_shared_tables: dict[int, EigenformTable] = {}
_SHARED_STEP = 250_000
# Part of every cache key: files written under another format are ignored.
_CACHE_FORMAT = 2


def _rounded_size(n_max: int) -> int:
    """Table length built for a request: exact up to one 250k step, above
    that rounded up to whole steps so nearby requests share one table."""
    if n_max <= _SHARED_STEP:
        return n_max
    return -(-n_max // _SHARED_STEP) * _SHARED_STEP


def _cache_path(cache_dir: str, kappa: int, n_max: int) -> str:
    key = hashlib.sha256(f"builtin-delta:{kappa}:{n_max}:v{_CACHE_FORMAT}"
                         .encode()).hexdigest()[:12]
    return os.path.join(cache_dir, f"eigenform_{kappa}_{n_max}_{key}.npy")


def _cached_lengths(cache_dir: str, kappa: int) -> list[int]:
    """Lengths of the current-format tables in cache_dir, ascending."""
    found = []
    for name in os.listdir(cache_dir):
        m = re.fullmatch(rf"eigenform_{kappa}_(\d+)_\w+\.npy", name)
        if m and os.path.join(cache_dir, name) == _cache_path(
                cache_dir, kappa, int(m[1])):
            found.append(int(m[1]))
    return sorted(found)


def _load_cached(path: str, kappa: int, n_max: int) -> EigenformTable:
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
    return EigenformTable(weight=kappa, n_max=n_max, lam=lam,
                          source=f"cache:{path}")


def shared_eigenform(n_max: int, kappa: int = 12,
                     cache_dir: str | None = None) -> EigenformTable:
    """Builtin-delta table of exactly _rounded_size(n_max) terms.

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
    size = _rounded_size(n_max)
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        hit = next((n for n in _cached_lengths(cache_dir, kappa)
                    if n >= size), None)
        if hit is not None:
            return _load_cached(_cache_path(cache_dir, kappa, hit), kappa,
                                size)
    tab = _shared_tables.get(kappa)
    if tab is None or tab.n_max < size:
        tab = build_eigenform(n_max=size, kappa=kappa)
        _shared_tables[kappa] = tab
    if tab.n_max > size:
        tab = EigenformTable(weight=kappa, n_max=size,
                             lam=tab.lam[:size + 1], source=tab.source)
    if cache_dir is not None:
        with _replacing(_cache_path(cache_dir, kappa, size), "wb") as fh:
            np.save(fh, tab.lam)
    return tab
