"""Parameter ladder, prime segments, and the mollifier polynomial tower.

The ladder is a decreasing sequence of even lengths ell_1 > ... > ell_R.  Each
ell_j owns a prime segment P_j (short interval just above the previous one,
cut at q^(1/ell_j^2)) and three per-character quantities:

    P_j(chi)      short prime sum over P_j
    N_j(chi, a)   E_{ell_j}(a * P_j(chi)), truncated exponential
    Q_j(chi, k)   (c_k P_j(chi) / ell_j)^(r_k ell_j), the guard power

prime_sums(ctx, j) gives P_j for every character mod q at once, as one
characters.family_sums transform of the weights on segment j's primes.
tower(ctx, P) evaluates the rest at the ladder's k from one character's
P_j, with every guard power Q_j and the two ladder products N(chi, k) and
N(chi, k-1).  moments.family_towers builds one tower per character once per
run, and every audit reads those records.  This exp form is the production
route.  n_poly evaluates one N_j the same way, from a whole transform;
nothing in the package calls it.

N_j also has an exact Dirichlet-polynomial form: expanding the truncated
exponential multinomially gives sum over P_j-smooth n with Omega(n) <= ell_j
of lt(n) a^Omega(n) / w(n) * chi(n)/sqrt(n), where lt is the completely
multiplicative extension of the prime weights and w(p^e) = e!.  That form,
evaluate_coefficients(segment_coefficients(...), chi), is the oracle that
moments.verify_checks and the tests compare the exp form against, and the
source of explicit coefficient maps for family computations.

The prime sums are weighted by lambda(p), Delta's normalized eigenvalues,
so the Dirichlet form carries the eigenform's coefficients.  That is the
weighting of the source construction, and the one under which the diagonal
factorization identity and the local-factor shape hold.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import arith, characters
from .hecke import EigenformTable

# largest coefficient map a segment or the full mollifier may hold
_SUPPORT_CAP = 1_000_000
# trunc_exp_tail sums z^r/r! for ell < r < ell + _TAIL_TERMS at most
_TAIL_TERMS = 200


def c_k_value(k: float) -> float:
    return 64.0 * max(1.0, k)


def r_k_value(k: float) -> int:
    """Guard-power exponent multiplier.

    k >= 1 uses ceil(1 + 1/k) + 1 and 1/2 < k < 1 uses ceil(k/(2k-1)) + 1.
    For 0 < k <= 1/2 the second formula has no value (k/(2k-1) is
    undefined at k = 1/2 and negative below), so this package's rule is to
    use the first there too.  It exceeds 1 + 1/k, which is what the k <= 1
    large regime of moments.pointwise_inequality_audit needs: with c_k = 64
    and 64|P_j|/ell_j > 1, |Q_j(k)|^2 then bounds
    (64|P_j|/ell_j)^(2(1+1/k) ell_j).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if 0.5 < k < 1:
        return math.ceil(k / (2 * k - 1)) + 1
    return math.ceil(1 + 1 / k) + 1


class LadderParams(namedtuple("LadderParams", "k ell c_k r_k")):
    """The mollifier ladder: lengths ell (even, strictly decreasing) at the
    exponent k, with the k-dependent constants c_k and r_k."""

    __slots__ = ()

    @property
    def R(self) -> int:
        return len(self.ell)


def _validate_ell(ell: tuple[int, ...]):
    for l in ell:
        if l <= 0 or l % 2:
            raise ValueError(f"ladder entries must be positive even, got {l}")
    for a, b in zip(ell, ell[1:]):
        if not a > b:
            raise ValueError(f"ladder must decrease strictly: {ell}")
    if ell and sum(1.0 / l for l in ell) > 2.0 / ell[-1] + 1e-12:
        raise ValueError(
            f"ladder violates sum(1/ell_j) <= 2/ell_R: {ell}")


def build_ladder(q: int, k: float = 1.0, *,
                 override_ell: tuple[int, ...]) -> LadderParams:
    """The ladder override_ell at modulus q and exponent k.

    override_ell is the ladder itself, ell_1 > ... > ell_R, each entry
    even; an empty one gives R = 0, the mollifier identically 1.  It is the
    only source of a ladder.  The source construction's asymptotic (N, M)
    schedule keeps only entries of at least 12, whose segments end at or
    below q^(1/144) < 2, so below q = 2^144 it gives the empty mollifier.
    """
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    ell = tuple(int(l) for l in override_ell)
    _validate_ell(ell)
    return LadderParams(k=k, ell=ell, c_k=c_k_value(k), r_k=r_k_value(k))


class PrimeSegments(namedtuple("PrimeSegments", "q segments")):
    """Disjoint prime intervals, one per ladder entry: q and a tuple of
    prime tuples.

    Segment j ends at b_j = q^(1/ell_j^2).  Segment 1 is the odd primes up
    to b_1; segment j > 1 is the primes in (b_(j-1), b_j], read literally,
    so 2 belongs to the first later segment whose lower edge is below it.
    """

    __slots__ = ()


def build_segments(q: int, ladder: LadderParams) -> PrimeSegments:
    segs: list[tuple[int, ...]] = []
    lo = 2.0  # segment 1 takes odd primes only
    for l in ladder.ell:
        hi = q ** (1.0 / (l * l))
        primes = arith.sieve_primes(int(hi)) if hi >= 2 else ()
        segs.append(tuple(int(p) for p in primes if lo < p <= hi))
        lo = hi
    return PrimeSegments(q=q, segments=tuple(segs))


def trunc_exp(ell: int, z: complex) -> complex:
    """E_ell(z) = sum_{j<=ell} z^j / j!, by Horner."""
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    acc = 1.0 + 0.0j
    for j in range(ell, 0, -1):
        acc = 1.0 + z * acc / j
    return complex(acc)


def trunc_exp_tail(ell: int, z: complex) -> complex:
    """exp(z) - E_ell(z), summed directly as sum_{r>ell} z^r/r!.

    Evaluating the difference this way avoids the cancellation that makes
    exp(z) - trunc_exp(ell, z) pure rounding noise once the tail drops
    below machine epsilon.
    """
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    term = 1.0 + 0.0j
    for r in range(1, ell + 2):
        term *= z / r
    acc = 0.0 + 0.0j
    r = ell + 1
    while abs(term) > 1e-300 and r < ell + _TAIL_TERMS:
        acc += term
        r += 1
        term *= z / r
    return complex(acc)


def _ipow(z: complex, n: int) -> complex:
    """z**n for integer n >= 0 by repeated squaring."""
    acc = 1.0 + 0.0j
    base = complex(z)
    while n:
        if n & 1:
            acc *= base
        base *= base
        n >>= 1
    return acc


def prime_sums(ctx: MollifierContext, j: int) -> np.ndarray:
    """P_j(chi) = sum over segment j's primes p of lambda(p) chi(p)/sqrt(p),
    for every character mod q by flat index: one characters.family_sums
    transform of the weights carried on the primes' residues.  A prime
    dividing q sits on a non-unit, where every chi vanishes."""
    q = ctx.segments.q
    f = np.zeros(q)
    for p in ctx.segments.segments[j - 1]:
        f[p % q] += ctx.table.lam_at(p) / math.sqrt(p)
    return characters.family_sums(characters.build_group(q), f)


class MollifierContext:
    """Everything needed to evaluate the polynomial tower for one (q, ladder):
    the eigenform table, ladder and segments.  It caches nothing; each
    prime_sums call takes its transform afresh.
    Immutable in intent: do not mutate fields after construction.
    """

    def __init__(self, table: EigenformTable, ladder: LadderParams,
                 segments: PrimeSegments):
        if len(segments.segments) != ladder.R:
            raise ValueError("segments do not match ladder length")
        self.table = table
        self.ladder = ladder
        self.segments = segments


def n_poly(ctx: MollifierContext, chi: characters.Character, j: int,
           alpha: float) -> complex:
    """N_j(chi, alpha): the truncated exponential of alpha P_j(chi), from
    a whole prime_sums transform for one character.  It has no caller in
    the package, where tower reads every N_j from one transform per rung:
    the tests' one-character route, and a name that perfbench/trace_cli.py
    wraps."""
    if not 1 <= j <= ctx.ladder.R:
        raise ValueError(f"j={j} outside 1..{ctx.ladder.R}")
    return trunc_exp(ctx.ladder.ell[j - 1],
                     alpha * complex(prime_sums(ctx, j)[chi.index]))


class Tower(namedtuple("Tower", "P Nk Nk1 Q N N1 ladder")):
    """One character's tower at the ladder's k.  Entry j-1 of each tuple
    belongs to rung j: P_j, N_j(k), N_j(k-1) and the guard power
    Q_j(k) = (c_k P_j / ell_j)^(r_k ell_j).  N and N1 are the ladder
    products N(chi, k) and N(chi, k-1), 1 when R = 0."""

    __slots__ = ()


def tower(ctx: MollifierContext, P: tuple[complex, ...]) -> Tower:
    """The tower of the character whose prime sums are P (P_j for j = 1..R,
    as prime_sums gives them): N_j(k) and N_j(k-1), computed as n_poly
    defines them, Q_j(k), and the products, in rung order."""
    lad = ctx.ladder
    Nk = tuple(trunc_exp(ell, lad.k * p)
               for ell, p in zip(lad.ell, P, strict=True))
    Nk1 = tuple(trunc_exp(ell, (lad.k - 1) * p)
                for ell, p in zip(lad.ell, P, strict=True))
    Q = tuple(_ipow(lad.c_k * p / ell, lad.r_k * ell)
              for ell, p in zip(lad.ell, P, strict=True))
    return Tower(P=P, Nk=Nk, Nk1=Nk1, Q=Q, N=math.prod(Nk, start=1 + 0j),
                 N1=math.prod(Nk1, start=1 + 0j), ladder=lad)


def segment_coefficients(ctx: MollifierContext, j: int,
                         alpha: float) -> dict[int, float]:
    """Coefficient map of N_j as a Dirichlet polynomial: n -> coeff with
    N_j(chi, alpha) = sum coeff(n) chi(n)/sqrt(n).

    Support: P_j-smooth n with Omega(n) <= ell_j; coefficient
    lt(n) alpha^Omega(n) / w(n).  Depth-first over the segment primes,
    bounded by _SUPPORT_CAP.

    Raises:
        ValueError: support larger than the cap.
    """
    primes = ctx.segments.segments[j - 1]
    ell = ctx.ladder.ell[j - 1]
    out: dict[int, float] = {}

    def grow(idx: int, n: int, omega: int, coeff: float):
        if idx == len(primes):
            if len(out) >= _SUPPORT_CAP:
                raise ValueError(
                    f"segment {j} support exceeds cap {_SUPPORT_CAP}")
            out[n] = coeff * alpha ** omega
            return
        grow(idx + 1, n, omega, coeff)        # exponent 0 at this prime
        pv = primes[idx]
        wt = ctx.table.lam_at(pv)
        pk, c, e = n, coeff, 0
        while omega + e + 1 <= ell:
            e += 1
            pk *= pv
            c = c * wt / e
            grow(idx + 1, pk, omega + e, c)

    # recursion depth = segment size, small at any feasible cap
    grow(0, 1, 0, 1.0)
    return out


def mollifier_coefficients(ctx: MollifierContext,
                           alpha: float) -> dict[int, float]:
    """Coefficient map of the full product N(chi, alpha) =
    sum x(n) chi(n)/sqrt(n); x(1) = 1.

    Segments hold disjoint primes, so the product map is the pointwise
    product over all ways of combining one support element per segment.

    Raises:
        ValueError: product support larger than _SUPPORT_CAP.
    """
    total: dict[int, float] = {1: 1.0}
    for j in range(1, ctx.ladder.R + 1):
        seg = segment_coefficients(ctx, j, alpha)
        if len(total) * len(seg) > _SUPPORT_CAP:
            raise ValueError(
                f"mollifier support exceeds cap {_SUPPORT_CAP} "
                f"at segment {j}")
        nxt: dict[int, float] = {}
        for n1, c1 in total.items():
            for n2, c2 in seg.items():
                nxt[n1 * n2] = c1 * c2
        total = nxt
    return total


def evaluate_coefficients(coeffs: dict[int, float],
                          chi: characters.Character) -> complex:
    """sum coeff(n) chi(n)/sqrt(n) over the map's support (fixed n order),
    reading chi on the support only."""
    support = sorted(coeffs)
    q = chi.group.q
    acc = 0.0 + 0.0j
    for n, v in zip(support, chi([n % q for n in support])):
        acc += coeffs[n] * v / math.sqrt(n)
    return complex(acc)
