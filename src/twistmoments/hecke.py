"""Hecke eigenvalues for the fixed level-1 eigenform, default Delta (kappa=12).

tau(n) is computed exactly from Delta = x prod (1-x^m)^24.  The cube of the
eta-type product is Jacobi's sparse series sum (-1)^k (2k+1) x^{k(k+1)/2}
with about sqrt(2n) nonzero terms, so its square (the 6th power) is one
exact int64 product over pairs of triangular numbers.  Two truncated
squarings then give the 24th power.

Between squarings a series is a pair of digit rows: a sign mask and a uint8
matrix holding |a_i| in D decimal digits, most significant first.  Each
squaring is one Kronecker substitution into a single decimal.Decimal: the
positive and the negative slots are laid out as two digit strings P and Q
by byte operations on the rows, the signed packed value is P - Q, and its
square is formed in an exact context (libmpdec multiplies operands this
large by a number-theoretic transform).  D is chosen so that every
coefficient of the square, even in the dropped tail, is a balanced slot of
absolute value at most 10^D/2 - 1; the leading slots then round out of the
square exactly and decode locally, by a nines complement and one carry
pass over the digit columns.  The route needs only numpy and the standard
library, builds no Python integer per coefficient, and is exact at every
size.

The table is returned as fixed-width signed decimal byte strings, which
int() reads exactly and astype(np.float64) rounds correctly.  Normalized
eigenvalues lambda(n) = tau(n)/n^((kappa-1)/2) are stored as float64.
shared_eigenform keeps one table per process and, on request, an on-disk
cache of validated tables that serves any shorter request by prefix.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import math
import os
import re
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import arith

_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)
_ZERO = ord("0")
# digits per int64 limb in _sum_of_squares: a limb product is below 10^10,
# so a column of up to 9*10^8 of them sums exactly
_LIMB = 5


def _eta6(length: int) -> np.ndarray:
    """Coefficients of prod (1-x^m)^6 below x^length, exactly, as int64.

    The cube is sum (-1)^k (2k+1) x^{T_k} over triangular T_k; its square
    is accumulated one k at a time, so no array of all the pairs is built.
    """
    k = np.arange(math.isqrt(2 * length) + 1)
    tri = k * (k + 1) // 2
    k, tri = k[tri < length], tri[tri < length]
    coef = np.where(k % 2, -(2 * k + 1), 2 * k + 1)
    # sum |a| * max |a| bounds every partial sum of every coefficient
    assert int(np.abs(coef).sum()) * int(np.abs(coef).max()) < 2**53
    out = np.zeros(length, dtype=np.int64)
    for t, c in zip(tri.tolist(), coef.tolist()):
        m = int(np.searchsorted(tri, length - t))
        out[t + tri[:m]] += c * coef[:m]
    return out


def _digit_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digit rows (sign mask, |values| in decimal digits) of int64s."""
    mag = np.abs(values)
    width = len(str(int(mag.max()))) if len(mag) else 1
    digits = np.empty((len(mag), width), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        mag, digits[:, col] = np.divmod(mag, 10)
    return values < 0, digits


def _sum_of_squares(digits: np.ndarray) -> int:
    """Exact sum of the squared row values, from a Gram matrix of limbs."""
    rows, width = digits.shape
    pad = -width % _LIMB
    n_limbs = (width + pad) // _LIMB
    limbs = np.zeros((n_limbs, rows), dtype=np.int64)
    for col in range(width):
        limb = limbs[(col + pad) // _LIMB]
        limb *= 10
        limb += digits[:, col]
    gram = limbs @ limbs.T
    top = 2 * n_limbs - 2
    return sum(int(gram[i, j]) * 10 ** (_LIMB * (top - i - j))
               for i in range(n_limbs) for j in range(n_limbs))


def _packed(digits: np.ndarray, rows: np.ndarray, length: int,
            width: int) -> decimal.Decimal:
    """sum over the selected rows of |a_i| 10^(width (length-1-i))."""
    text = np.full((length, width), _ZERO, dtype=np.uint8)
    np.add(digits, _ZERO, out=text[:len(digits), width - digits.shape[1]:],
           where=rows[:, None])
    # rebinding frees the byte matrix before the Decimal is parsed
    text = str(text.data, "ascii")
    return decimal.Decimal(text)


def _square_rows(neg: np.ndarray, digits: np.ndarray,
                 length: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficients of (sum a_i x^i)^2 below x^length, as digit rows.

    The input rows a_0 .. a_{length-1} are packed as A = sum a_i B^(length-1-i)
    with B = 10^D.  Every coefficient c_k of the square is at most
    S = sum a_i^2 in absolute value (Cauchy-Schwarz), and D is the least
    width with B/2 - 1 >= S.  The tail below the leading `length` slots of
    A^2 is then smaller than half of their unit, so rounding A^2 / B^(length-1)
    half-even gives sum_{k<length} c_k B^(length-1-k) exactly.  Its plain
    base-B digits s_k decode locally: slot k borrows (b_k = 1) exactly when
    s_k >= B/2, i.e. when its leading digit is 5 or more, and
    c_k = s_k + b_{k+1} - B b_k.

    Args:
        neg, digits: sign mask and most-significant-first decimal digits of
            |a_i|; rows past `length` are ignored, missing ones are zero.
        length: number of output coefficients to keep.

    Returns:
        The sign mask and digit matrix of c_0 .. c_{length-1}.
    """
    neg, digits = neg[:length], digits[:length]
    bound = _sum_of_squares(digits)
    if bound == 0:
        return np.zeros(length, dtype=bool), np.zeros((length, 1), np.uint8)
    width = len(str(2 * bound + 1))
    # |a_i| <= sqrt(S) < B, so any wider columns hold leading zeros only
    digits = digits[:, max(0, digits.shape[1] - width):]
    square = _EXACT.subtract(_packed(digits, ~neg, length, width),
                             _packed(digits, neg, length, width))
    square = _EXACT.multiply(square, square)
    top = _EXACT.scaleb(square, -width * (length - 1))
    del square
    text = str(top.to_integral_value(decimal.ROUND_HALF_EVEN, _EXACT))
    del top
    out = np.full(length * width, _ZERO, dtype=np.uint8)
    out[len(out) - len(text):] = np.frombuffer(text.encode("ascii"), np.uint8)
    del text
    out -= _ZERO
    out = out.reshape(length, width)
    borrow = out[:, 0] >= 5
    np.subtract(9, out, out=out, where=borrow[:, None])
    # |c_k| is the complement B - 1 - s_k plus 1 - b_{k+1} where slot k
    # borrows, and s_k + b_{k+1} where it does not: add b_k xor b_{k+1}
    carry = borrow.copy()
    carry[:-1] ^= borrow[1:]
    row, col = np.flatnonzero(carry), width - 1
    while len(row):
        out[row, col] += 1
        row = row[out[row, col] == 10]
        out[row, col] = 0
        col -= 1
    return borrow & out.any(axis=1), out


def _decimal_strings(neg: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Digit rows as right-aligned signed decimal byte strings, blank-padded
    to one width; read-only."""
    rows, width = digits.shape
    text = np.empty((rows, width + 1), dtype=np.uint8)
    text[:, 0] = ord(" ")
    text[:, 1:] = digits
    text[:, 1:] += _ZERO
    lead = np.logical_and.accumulate(digits[:, :-1] == 0, axis=1)
    text[:, 1:width][lead] = ord(" ")
    at = np.flatnonzero(neg)
    text[at, lead[at].sum(axis=1)] = ord("-")
    out = text.view(f"S{width + 1}").ravel()
    out.setflags(write=False)
    return out


# The route is exact at any size; this bound only limits the time and
# memory one request may take (5.58M terms: about 62 s and a 0.98 GB peak
# on one core of a 2-core machine).
TAU_N_MAX = 20_000_000


def ramanujan_tau_table(n_max: int) -> np.ndarray:
    """Exact tau(1..n_max): entry n-1 is tau(n) as a signed decimal byte
    string (blank-padded, fixed width, read-only).

    tau(n) overflows 64-bit integers past n ~ 3000.  int() of an entry is
    the exact value, and astype(np.float64) of the array rounds each entry
    correctly; callers wanting eigenvalues should go through build_eigenform.

    Raises:
        ValueError: n_max < 1 or beyond TAU_N_MAX.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > TAU_N_MAX:
        raise ValueError(
            f"n_max={n_max} exceeds the supported bound {TAU_N_MAX} "
            "(time and memory of the exact squarings)")
    neg, digits = _digit_rows(_eta6(n_max))
    for _ in range(2):
        neg, digits = _square_rows(neg, digits, n_max)
    return _decimal_strings(neg, digits)


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


def coefficient_lines(taus: np.ndarray) -> str:
    """The coefficient file for a ramanujan_tau_table result: one
    "n<TAB>tau(n)" line per n, no header."""
    rows = len(taus)
    width = len(str(rows))
    line = np.zeros((rows, width + taus.itemsize + 2), dtype=np.uint8)
    n = np.arange(1, rows + 1)
    for col in range(width - 1, -1, -1):
        # a digit position with nothing left to write stays 0, like padding
        left = n > 0
        n, d = np.divmod(n, 10)
        line[left, col] = d[left] + _ZERO
    line[:, width] = ord("\t")
    line[:, width + 1:-1] = taus.view(np.uint8).reshape(rows, -1)
    line[:, -1] = ord("\n")
    line[line == ord(" ")] = 0
    return line[line != 0].tobytes().decode("ascii")


def write_tau_file(path: str, taus: np.ndarray) -> None:
    """Write the coefficient file of a ramanujan_tau_table result."""
    with _replacing(path, "w") as fh:
        fh.write(coefficient_lines(taus))


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
        coeffs = ramanujan_tau_table(n_max).astype(np.float64)
    else:
        coeffs = read_coefficient_file(source)
        if len(coeffs) < n_max:
            n_max = len(coeffs)
        coeffs = np.array([float(c) for c in coeffs[:n_max]])
    if kappa < 2 or kappa % 2:
        raise ValueError(f"weight must be a positive even integer, got {kappa}")
    n = np.arange(n_max + 1, dtype=np.float64)
    lam = np.zeros(n_max + 1)
    lam[1:] = coeffs
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
