"""Hecke eigenvalues of Delta, the level-1 eigenform of weight 12.

S_12(SL_2(Z)) is one-dimensional, so Delta is the only form of its weight
and level, and the one form every family here twists.

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
of the summed spectrum products.  The rows are first cut into P pieces,
P from the length alone by a cost model fitted on measured squarings, and
each piece is transformed at the length its own square needs; the pieces'
products land at their offsets.  Small transforms stay in cache, so a few
pieces beat one long transform.  Each diagonal is rounded to integers and
carried in base 10^w, least significant first.  The limb width w is the
widest whose a-priori rounding bound (Percival's, from the l2 norms of
that width's limbs, built once each) is at most 1/4, and every rounded
value must lie within 1/8 of an integer, else the squaring raises.  So the
route is exact at every size; it needs only numpy and builds no Python
integer per coefficient.

The carried limbs of the first squaring go back into digit rows for the
second.  Those of the second give the table: as signed decimal byte
strings, blank-padded to the width of the longest entry, which int() reads
exactly, or as float64, each correctly rounded straight from the limbs
(bit-equal to astype(np.float64) of the strings).  Normalized eigenvalues
lambda(n) = tau(n)/n^(11/2) are stored as float64: those floats divided by
n ** 5.5 taken by numpy's array power.  That power is not libm's pow: it
differs in the last bit for 1,025 of n <= 20,000, so the table is not
bit-equal to the Python expression float(tau) / n ** 5.5.
shared_eigenform serves each request the first _rounded_size(n) terms of
one process table or, on request, of a longer validated table cached on disk.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from collections import namedtuple

import numpy as np

from . import TAU_N_MAX, _replacing, arith

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
# rows converted to floats at a time, so their words stay in cache
_ROWS = 1 << 12
# the most pieces a squaring cuts its rows into, and the cost of a
# piece's spectrum products against one transform level (see _pieces)
_P_MAX = 16
_PRODUCT_COST = 0.4


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


def _block_limbs(columns: np.ndarray, width: int) -> np.ndarray:
    """Balanced base-10^width limbs of the magnitudes a block of digit
    columns holds, least significant first: an int16 array (count + 1,
    rows), row i summing to the value of column i, every limb in
    (-10^width / 2, 10^width / 2]."""
    cols, rows = columns.shape
    base = 10**width
    limbs = np.zeros((-(-cols // width) + 1, rows), dtype=np.int16)
    for col, digit in enumerate(columns):
        limb = limbs[(cols - 1 - col) // width]
        limb *= 10
        limb += digit
    borrow = np.zeros(rows, dtype=bool)
    for limb in limbs:
        limb += borrow
        borrow = limb > base // 2
        limb -= borrow * np.int16(base)
    return limbs


def _balanced_limbs(neg: np.ndarray, columns: np.ndarray, width: int,
                    size: int) -> list[np.ndarray]:
    """Digit columns (the digit matrix transposed) as signed base-10^width
    limbs, least significant first: row i is sum_l limbs[l][i] 10^(width l),
    and |limbs| <= 10^width / 2.  Each limb is its own array of size
    entries, zero past the last row, so it can be freed on its own; a top
    limb that is zero on every row is left out."""
    cols, rows = columns.shape
    limbs = [np.zeros(size, dtype=np.int16)
             for _ in range(-(-cols // width) + 1)]
    for at in range(0, rows, _BLOCK):
        end = min(at + _BLOCK, rows)
        block = _block_limbs(columns[:, at:end], width)
        block *= np.where(neg[at:end], np.int16(-1), np.int16(1))
        for limb, part in zip(limbs, block):
            limb[at:end] = part
    if not limbs[-1].any():
        limbs.pop()
    return limbs


def _pieces(length: int) -> tuple[int, int]:
    """(P, k) for squaring `length` terms: the rows are cut into P pieces of
    ceil(length / P) terms, each transformed at the least length 2^k
    >= 2 piece - 1, so a piece's square does not wrap.

    P in 1.._P_MAX minimises the cost model P 2^k (k + _PRODUCT_COST P),
    fitted on measured squarings: P transforms of 2^k points take time
    in proportion to P 2^k k, and the P (P + 1) / 2 spectrum products of
    every limb pair to P^2 2^k.  More pieces take fewer transform points
    in all, and smaller transforms stay in cache, until the products
    dominate.
    """
    def cost(plan):
        pieces, levels = plan
        return (pieces << levels) * (levels + _PRODUCT_COST * pieces)
    return min(((p, (2 * -(-length // p) - 2).bit_length())
                for p in range(1, _P_MAX + 1)), key=cost)


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
    i piece .. (i + 1) piece - 1, zero past the last row.  Widths are tried
    from the widest down; each one's limbs are built once, read in place
    from the digit rows, and bounded from their own l2 norms (each squared
    norm a sum of integers below 2^53, so exact).  A rejected width's limbs
    are dropped before the next width is built."""
    pieces, levels = _pieces(length)
    piece = -(-length // pieces)
    for width in range(_MAX_LIMB_DIGITS, 0, -1):
        limbs = [limb.reshape(pieces, piece) for limb in
                 _balanced_limbs(neg, digits.T, width, pieces * piece)]
        norms = np.sqrt([np.einsum("ij,ij->i", x, x, dtype=np.float64)
                         for x in limbs])
        if _rounding_bounds(norms, levels).max() <= 0.25:
            return width, limbs
        del limbs
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


def _square_limbs(rows: list[np.ndarray],
                  length: int) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Exact coefficients of (sum a_i x^i)^2 below x^length, as carried
    limbs.

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
        rows: [sign mask, most-significant-first decimal digits of |a_i|],
            handed over: the list is emptied, so the rows are freed once
            their limbs are built unless the caller holds them elsewhere.
            Rows past `length` are ignored, missing ones are zero.
        length: number of output coefficients to keep.

    Returns:
        (sign, limbs, width): the sign mask of c_0 .. c_{length-1} and
        |c_k| = sum_l limbs[l][k] 10^(width (N - 1 - l)) in uint16 limbs
        of [0, 10^width), most significant first; leading limbs that are
        zero on every row are dropped, down to one.

    Raises:
        ArithmeticError: a rounded value is farther than 1/8 from an
            integer, or no limb width meets the bound.
    """
    neg, digits = (row[:length] for row in rows)
    rows.clear()
    if not digits.any():
        return (np.zeros(length, dtype=bool),
                [np.zeros(length, dtype=np.uint16)], 1)
    width, limbs = _split_limbs(neg, digits, length)
    del neg, digits
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
    return sign, out, width


def _limb_digits(sign: np.ndarray, limbs: list[np.ndarray],
                 width: int) -> tuple[np.ndarray, np.ndarray]:
    """_square_limbs's result as digit rows (sign mask, decimal digits most
    significant first, as wide as the longest value); limbs is emptied."""
    length = len(sign)
    columns = np.empty((len(limbs), width, length), dtype=np.uint8)
    for k in range(len(limbs)):
        limb, limbs[k] = limbs[k], None
        for j in range(width - 1, -1, -1):
            limb, columns[k, j] = np.divmod(limb, 10)
    columns = columns.reshape(len(limbs) * width, length)
    lead = columns[:width - 1].any(axis=1)
    columns = columns[int(lead.argmax()) if lead.any() else width - 1:]
    # column-major digit rows: each digit position is contiguous
    return sign, columns.T


def _square_rows(neg: np.ndarray, digits: np.ndarray,
                 length: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficients of (sum a_i x^i)^2 below x^length, as digit rows
    (see _square_limbs)."""
    return _limb_digits(*_square_limbs([neg, digits], length))


def _limb_floats(sign: np.ndarray, limbs: list[np.ndarray],
                 width: int) -> np.ndarray:
    """_square_limbs's values as float64, each correctly rounded (to
    nearest, ties to even), as astype(np.float64) rounds their decimal
    strings.

    _ROWS rows at a time, the limbs are read in chunks of base
    C = 10^(width g) <= 10^9 < 2^30 into exact base-2^32 words by Horner's
    rule (word * C + carry < 2^62).  The top 64 bits of each value, from
    its three highest words, with a sticky bit for any lower bit set in
    the lowest place, round to float64 by one hardware conversion, as the
    whole value would: the 11 bits dropped compare with a half the same
    way.  A power of two then scales it exactly.
    """
    group = 9 // width
    step = np.uint64(10**(width * group))
    first = (len(limbs) - 1) % group + 1
    edges = [0, *range(first, len(limbs) + 1, group)]
    out = np.empty(len(sign))
    for at in range(0, len(sign), _ROWS):
        end = at + _ROWS
        # three zero words, then the value's words, least significant first
        words = [np.zeros(min(_ROWS, len(sign) - at), dtype=np.uint64)] * 3
        for lo, hi in zip(edges, edges[1:]):
            carry = limbs[lo][at:end].astype(np.uint64)
            for limb in limbs[lo + 1:hi]:
                carry = carry * np.uint64(10**width) + limb[at:end]
            for i in range(3, len(words)):
                carry = words[i] * step + carry
                words[i] = carry & np.uint64(0xFFFFFFFF)
                carry >>= np.uint64(32)
            words.append(carry)
        words = np.array(words)
        nonzero = words != 0
        # the highest nonzero word (the highest word for a zero value)
        top = len(words) - 1 - nonzero[::-1].argmax(axis=0)
        rows = np.arange(words.shape[1])
        high, middle, low = (words[top - j, rows] for j in range(3))
        # bits of the highest word, 1..32 (1 for a zero value)
        bits = np.maximum(np.frexp(high.astype(np.float64))[1], 1)
        shift = bits.astype(np.uint64)
        mantissa = ((high << (np.uint64(64) - shift))
                    | (middle << (np.uint64(32) - shift)) | (low >> shift))
        sticky = np.logical_or.accumulate(nonzero, axis=0)[top - 3, rows]
        sticky |= (low << (np.uint64(64) - shift)) != 0
        mantissa |= sticky
        part = out[at:end]
        np.ldexp(mantissa.astype(np.float64), 32 * (top - 3) + bits - 64,
                 out=part)
        np.negative(part, out=part, where=sign[at:end])
    return out


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
    # handed over: the first square's rows are freed once the second
    # squaring has built its limbs, before its transforms
    rows = list(_square_rows(*_digit_rows(_eta6(n_max)), n_max))
    tau = _square_limbs(rows, n_max)
    if floats:
        return _limb_floats(*tau)
    return _decimal_strings(*_limb_digits(*tau))


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
