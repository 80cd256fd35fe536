"""Hecke eigenvalues for the fixed level-1 eigenform, default Delta (kappa=12).

tau(n) is computed exactly from Delta = x prod (1-x^m)^24.  The cube of the
eta-type product is Jacobi's sparse series sum (-1)^k (2k+1) x^{k(k+1)/2}
with about sqrt(2n) nonzero terms, so its square (the 6th power) is one
exact int64 product over pairs of triangular numbers.  Two truncated
squarings then give the 24th power.

Between squarings a series is a pair of digit rows: a sign mask and a uint8
matrix holding |a_i| in decimal digits, most significant first.  Each
squaring splits the rows into signed base-10^w limbs of at most 10^w/2 and
convolves them with float64 FFTs of a power-of-two length: one rfft per
limb and, for each diagonal l + m = s of limb pairs, one inverse transform
of the summed spectrum products.  Where it takes fewer transform points,
the rows are first cut into three pieces and each piece is transformed at
the length its own square needs; the pieces' products land at their
offsets.  Each diagonal is rounded to integers and carried in base 10^w,
least significant first, back into digit rows.  The limb width w is the
widest whose a-priori rounding bound (Percival's, from the limbs' l2 norms)
is at most 1/4, and every rounded value must lie within 1/8 of an integer,
else the squaring raises.  So the route is exact at every size; it needs
only numpy and builds no Python integer per coefficient.

The table is returned as signed decimal byte strings, blank-padded to the
width of the longest entry, which int() reads exactly and
astype(np.float64) rounds correctly.  Normalized eigenvalues
lambda(n) = tau(n)/n^((kappa-1)/2) are stored as float64: float(tau(n))
divided by n ** 5.5 (for kappa = 12) taken by numpy's array power.  That
power is not libm's pow: it differs in the last bit for 1,025 of
n <= 20,000, so the table is not bit-equal to the Python expression
float(tau) / n ** 5.5.
shared_eigenform keeps one table per process and, on request, an on-disk
cache of validated tables that serves any shorter request by prefix.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import arith

_ZERO = ord("0")
# unit roundoff of float64
_EPS = 2.0**-53
# error of one pocketfft twiddle factor: the product, rounded, of two table
# roots, each a cos and sin within one ulp (|error| <= sqrt(2) eps) of an
# angle rounded twice (<= 1.6 eps on an arc of at most pi/4):
# 2 (sqrt(2) + 1.6) eps + sqrt(5) eps < 10 eps
_BETA = 10 * _EPS
# an input limb is held in int16 and a carried output limb in uint16
_MAX_LIMB_DIGITS = 4
# spectrum products are accumulated this many entries at a time, so no
# full-length temporary is made
_BLOCK = 1 << 15


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
    if width < 10:
        # uint32 division is several times faster than int64
        mag = mag.astype(np.uint32)
    digits = np.empty((len(mag), width), dtype=np.uint8, order="F")
    for col in range(width - 1, -1, -1):
        mag, digits[:, col] = np.divmod(mag, 10)
    return values < 0, digits


def _balanced_limbs(neg: np.ndarray, columns: np.ndarray,
                    width: int) -> list[np.ndarray]:
    """Digit columns (the digit matrix transposed) as signed base-10^width
    limbs, least significant first: row i is sum_l limbs[l][i] 10^(width l),
    and |limbs| <= 10^width / 2.  Each limb is its own array, so it can be
    freed on its own."""
    cols, rows = columns.shape
    count = -(-cols // width)
    base = 10**width
    limbs = [np.zeros(rows, dtype=np.int16) for _ in range(count + 1)]
    for col, digit in enumerate(columns):
        limb = limbs[(cols - 1 - col) // width]
        limb *= 10
        limb += digit
    borrow = np.zeros(rows, dtype=bool)
    for limb in limbs:
        limb += borrow
        borrow = limb > base // 2
        limb -= borrow * np.int16(base)
    if not limbs[-1].any():
        limbs.pop()
    sign = np.where(neg, np.int16(-1), np.int16(1))
    for limb in limbs:
        limb *= sign
    return limbs


def _pieces(length: int) -> tuple[int, int]:
    """(P, k) for squaring `length` terms: the rows are cut into P pieces of
    ceil(length / P) terms, each transformed at the least length 2^k
    >= 2 piece - 1, so a piece's square does not wrap.  P is 3 where three
    pieces take fewer transform points in all than one, else 1."""
    one = (2 * length - 2).bit_length()
    third = (2 * -(-length // 3) - 2).bit_length()
    return (3, third) if 3 << third < 1 << one else (1, one)


def _rounding_bounds(norms: np.ndarray, levels: int) -> np.ndarray:
    """A-priori bound on the rounding error of every value of each diagonal
    z[s, d]: the sum over l + m = s and i + j = d of the convolutions
    x[l, i] * x[m, j] of limb l on piece i with limb m on piece j, computed
    with transforms of length 2^levels.  norms[l, i] is ||x[l, i]||.

    Percival ("Rapid multiplication modulo the sum and difference of highly
    composite numbers", Math. Comp. 72 (2003); Brent and Zimmermann, Modern
    Computer Arithmetic, sec. 3.3): x * y by two transforms of length 2^k,
    a pointwise product and an inverse transform is off by at most, in
    every entry,

        ||x|| ||y|| ((1+eps)^3k (1+eps sqrt5)^(3k+1) (1+beta)^3k - 1),

    with eps the unit roundoff and beta the error of a twiddle factor.  Its
    proof goes level by level: a radix-2 level multiplies the relative l2
    error by (1+eps) for its add and by (1+eps sqrt5)(1+beta) for its
    twiddle product.  numpy's pocketfft transforms a real vector of length
    2^k by radix-4 and radix-2 passes; a radix-4 pass is two radix-2 levels
    whose inner twiddles (+-1, +-i) are exact.  On top of that, a diagonal
    sums its spectrum products (one add each; doubling a cross term is
    exact), and the inverse scales by a rounded 1/M (two roundings).  A
    diagonal's scale is the sum of ||x[l, i]|| ||x[m, j]|| over its pairs.
    """
    count, pieces = norms.shape
    bounds = np.empty((2 * count - 1, pieces))
    for s in range(2 * count - 1):
        limbs = range(max(0, s - count + 1), min(s, count - 1) + 1)
        for d in range(pieces):
            scale = sum(norms[l, i] * norms[s - l, d - i]
                        for l in limbs for i in range(d + 1))
            products = len(limbs) * (d + 1)
            growth = ((3 * levels + products + 2) * math.log1p(_EPS)
                      + (3 * levels + 1) * math.log1p(_EPS * math.sqrt(5))
                      + 3 * levels * math.log1p(_BETA))
            bounds[s, d] = scale * math.expm1(growth)
    return bounds


def _split_limbs(neg: np.ndarray, digits: np.ndarray,
                 length: int) -> tuple[int, list[np.ndarray]]:
    """The widest limb width whose rounding bounds for squaring `length`
    terms are all at most 1/4, and the balanced limbs of that width, cut
    into the pieces of _pieces(length): limbs[l][i] is limb l of rows
    i piece .. (i + 1) piece - 1, zero past the last row."""
    pieces, levels = _pieces(length)
    piece = -(-length // pieces)
    rows, cols = digits.shape
    columns = np.zeros((cols, pieces * piece), dtype=np.uint8)
    columns[:, :rows] = digits.T
    signs = np.zeros(pieces * piece, dtype=bool)
    signs[:rows] = neg
    for width in range(_MAX_LIMB_DIGITS, 0, -1):
        limbs = [limb.reshape(pieces, piece)
                 for limb in _balanced_limbs(signs, columns, width)]
        norms = np.empty((len(limbs), pieces))
        for l, limb in enumerate(limbs):
            x = limb.astype(np.float64)
            norms[l] = np.sqrt(np.einsum("ij,ij->i", x, x))
        if _rounding_bounds(norms, levels).max() <= 0.25:
            return width, limbs
    raise ArithmeticError("no limb width keeps the FFT rounding below 1/4")


def _add_product(acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """acc[d] += sum over i + j = d of a[i] * b[j], one block at a time."""
    for d, row in enumerate(acc):
        for i in range(d + 1):
            for at in range(0, len(row), _BLOCK):
                end = at + _BLOCK
                row[at:end] += a[i, at:end] * b[d - i, at:end]


def _round(values: np.ndarray, diagonal: int) -> None:
    """Round values to integers in place, one block at a time.

    Raises:
        ArithmeticError: a value is farther than 1/8 from an integer.
    """
    for row in values:
        for at in range(0, len(row), _BLOCK):
            part = row[at:at + _BLOCK]
            near = np.rint(part)
            worst = np.abs(part - near).max()
            if worst > 0.125:
                raise ArithmeticError(f"FFT squaring: diagonal {diagonal} "
                                      f"is {worst:.3g} from an integer")
            part[...] = near


def _carry_limb(carry: np.ndarray,
                base: int) -> tuple[np.ndarray, np.ndarray]:
    """The least significant base-`base` limb of carry, and the carry
    above it; carry is overwritten."""
    high = carry // base
    carry -= high * base
    return carry.astype(np.uint16), high


def _square_rows(neg: np.ndarray, digits: np.ndarray,
                 length: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficients of (sum a_i x^i)^2 below x^length, as digit rows.

    With a_i = sum_l x_l[i] B^l in balanced limbs (B = 10^width, see
    _split_limbs), c_k = sum_s z_s[k] B^s where z_s = sum_{l+m=s} x_l * x_m.
    The rows are cut into P pieces of h terms (see _pieces), so that
    x_l = sum_i x[l, i] x^(ih), and z_s is the sum over d < P of the
    diagonal z[s, d] = sum_{i+j=d} sum_{l+m=s} x[l, i] * x[m, j], shifted
    by dh; pieces with i + j >= P land at or past x^length.  Each z[s, d]
    comes from one inverse rfft of length M, a power of two >= 2h - 1 (so
    no product of two pieces wraps), with the cross terms l != m doubled,
    and is rounded to integers.  _rounding_bounds keeps every rounding
    error at most 1/4 a priori, and a value farther than 1/8 from an
    integer raises.  The z_s are carried in base B from s = 0 upward,
    leaving limbs in [0, B) and a final carry of 0 or -1; a row whose carry
    is -1 holds c_k + B^N, and its magnitude is the nines complement plus 1.

    Args:
        neg, digits: sign mask and most-significant-first decimal digits of
            |a_i|; rows past `length` are ignored, missing ones are zero.
        length: number of output coefficients to keep.

    Returns:
        The sign mask and digit matrix of c_0 .. c_{length-1}, as wide as
        the longest |c_k|.

    Raises:
        ArithmeticError: a rounded value is farther than 1/8 from an
            integer, or no limb width meets the bound.
    """
    neg, digits = neg[:length], digits[:length]
    if not digits.any():
        return np.zeros(length, dtype=bool), np.zeros((length, 1), np.uint8)
    width, limbs = _split_limbs(neg, digits, length)
    pieces, levels = _pieces(length)
    count, base, size = len(limbs), 10**width, 1 << levels
    piece = limbs[0].shape[1]
    spectra = []
    carry = np.zeros(length, dtype=np.int64)
    out = []
    for s in range(2 * count - 1):
        if s < count:
            spectra.append(np.fft.rfft(limbs[s], size))
            limbs[s] = None
        lo = max(0, s - count + 1)
        acc = np.zeros((pieces, size // 2 + 1), dtype=complex)
        for l in range(lo, (s + 1) // 2):
            _add_product(acc, spectra[l], spectra[s - l])
        acc *= 2
        if s % 2 == 0:
            _add_product(acc, spectra[s // 2], spectra[s // 2])
        if s < count - 1:
            buffer = np.empty((pieces, size))
        else:
            # diagonal s is the last to use limb lo: the inverse transform
            # goes into the memory of its spectrum
            buffer = spectra[lo].view(np.float64)[:, :size]
            spectra[lo] = None
        values = np.fft.irfft(acc, size, out=buffer)
        del buffer, acc
        _round(values, s)
        for d in range(pieces):
            part = carry[d * piece:d * piece + size]
            np.add(part, values[d, :len(part)], out=part, casting="unsafe")
        # no view may keep the buffer or the old carry alive
        del values, part
        limb, carry = _carry_limb(carry, base)
        out.append(limb)
    del spectra
    while True:
        limb, carry = _carry_limb(carry, base)
        out.append(limb)
        if ((carry == 0) | ((carry == -1) & (limb != 0))).all():
            break
    sign = carry < 0
    # most significant limb first
    out.reverse()
    # negative rows: |c| = B^N - sum_l limb_l B^l, the complement plus one
    # (uint16 wraps, and every result lies in [0, B))
    for limb in out:
        limb += sign * (np.uint16(base - 1) - 2 * limb)
    row, level = np.flatnonzero(sign), len(out) - 1
    while len(row):
        out[level][row] += 1
        row = row[out[level][row] == base]
        out[level][row] = 0
        level -= 1
    while len(out) > 1 and not out[0].any():
        del out[0]
    columns = np.empty((len(out), width, length), dtype=np.uint8)
    for k in range(len(out)):
        limb, out[k] = out[k], None
        for j in range(width - 1, -1, -1):
            limb, columns[k, j] = np.divmod(limb, 10)
    columns = columns.reshape(-1, length)
    lead = columns[:width - 1].any(axis=1)
    columns = columns[int(lead.argmax()) if lead.any() else width - 1:]
    # column-major digit rows: each digit position is contiguous
    return sign, columns.T


def _decimal_strings(neg: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Digit rows as right-aligned signed decimal byte strings, blank-padded
    to one width; read-only."""
    rows, width = digits.shape
    text = np.empty((rows, width + 1), dtype=np.uint8)
    text[:, 0] = ord(" ")
    text[:, 1:] = digits
    text[:, 1:] += _ZERO
    # the rows whose digits so far are all zero, column by column: those
    # digits become blanks, and the sign goes after the last of them
    blank = np.arange(rows)
    lead = np.zeros(rows, dtype=np.intp)
    for col in range(width - 1):
        blank = blank[digits[blank, col] == 0]
        text[blank, col + 1] = ord(" ")
        lead[blank] += 1
    at = np.flatnonzero(neg)
    text[at, lead[at]] = ord("-")
    out = text.view(f"S{width + 1}").ravel()
    out.setflags(write=False)
    return out


# The route is exact at any size; this bound only limits the time and
# memory one request may take (5.58M terms: about 25 s and a 1.22 GB peak
# in a fresh process on one core of a 2-core machine).
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
def _replacing(path: str):
    """Open a temporary binary file beside path; it replaces path only on
    success."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
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
    if n_max < 2:
        return
    # one relation over every n >= 2, with p = spf(n):
    #   lambda(n) = lambda(p) lambda(n/p) - [p | n/p] lambda(n/p^2).
    # For n = p^a m, p not dividing m, it is multiplicativity at a = 1 and
    # the Hecke recursion at p^a, times lambda(m), at a >= 2.
    p = arith.smallest_prime_factors(n_max)[2:]
    m = np.arange(2, n_max + 1) // p
    nxt = lam[p] * lam[m]
    again = m % p == 0
    nxt[again] -= lam[m[again] // p[again]]
    bad = np.nonzero(np.abs(lam[2:] - nxt)
                     > _TABLE_TOL * np.maximum(1.0, np.abs(nxt)))[0]
    if len(bad):
        n = int(bad[0]) + 2
        raise ValueError(f"Hecke relation fails at {len(bad)} indices, "
                         f"first n={n} (p={p[n - 2]})")


def build_eigenform(source: str = "builtin-delta", n_max: int = 1000,
                    kappa: int = 12) -> EigenformTable:
    """Build the eigenvalue table and validate it: lambda(1) = 1, the Deligne
    bound, and the Hecke recursion with multiplicativity (one relation over
    every n), each to _TABLE_TOL.

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
        with _replacing(_cache_path(cache_dir, kappa, size)) as fh:
            np.save(fh, tab.lam)
    return tab
