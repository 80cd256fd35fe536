"""Parameter ladder, prime segments, and the mollifier polynomial tower.

The ladder is a decreasing sequence of even lengths ell_1 > ... > ell_R.  Each
ell_j owns a prime segment P_j (short interval just above the previous one,
cut at q^(1/ell_j^2)) and three per-character quantities:

    P_j(chi)      short prime sum over P_j
    N_j(chi, a)   E_{ell_j}(a * P_j(chi)), truncated exponential
    Q_j(chi, k)   (c_k P_j(chi) / ell_j)^(r_k ell_j), the guard power

N_j also has an exact Dirichlet-polynomial form: expanding the truncated
exponential multinomially gives sum over P_j-smooth n with Omega(n) <= ell_j
of lt(n) a^Omega(n) / w(n) * chi(n)/sqrt(n), where lt is the completely
multiplicative extension of the prime weights and w(p^e) = e!.  Both forms
are implemented and must agree; the Dirichlet form is the enumeration oracle
and the source of explicit coefficient maps for family computations.

Two prime weightings exist in the source material: the bare chi(p)/sqrt(p)
sum, and the lambda(p)-weighted one that makes the Dirichlet form carry the
eigenform's coefficients.  A context flag selects between them; the weighted
form is the default because the diagonal factorization identity and the
local-factor shape only hold there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    The k <= 1/2 range, where the k < 1 formula degenerates (nonpositive or
    undefined at k = 1/2), reuses ceil(1 + 1/k) + 1, which dominates every
    exponent the proofs need; the deviation is recorded in the project
    decision log.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k >= 1:
        return math.ceil(1 + 1 / k) + 1
    if k > 0.5:
        return math.ceil(k / (2 * k - 1)) + 1
    return math.ceil(1 + 1 / k) + 1


@dataclass(frozen=True)
class LadderParams:
    """Lengths ell (decreasing, even), with the k-dependent constants."""

    k: float
    ell: tuple[int, ...]
    c_k: float
    r_k: int
    N: int | None = None
    M: int | None = None
    generated: bool = False

    @property
    def R(self) -> int:
        return len(self.ell)


def _validate_ell(ell: tuple[int, ...], generated: bool):
    for l in ell:
        if l <= 0 or l % 2:
            raise ValueError(f"ladder entries must be positive even, got {l}")
    for a, b in zip(ell, ell[1:]):
        if not a > b:
            raise ValueError(f"ladder must decrease strictly: {ell}")
        if generated and not a > b * b:
            raise ValueError(
                f"generated ladder violates ell_j > ell_(j+1)^2: {a} <= {b}^2")
    if ell and sum(1.0 / l for l in ell) > 2.0 / ell[-1] + 1e-12:
        raise ValueError(
            f"ladder violates sum(1/ell_j) <= 2/ell_R: {ell}")


def build_ladder(q: int, N: int | None = None, M: int | None = None,
                 k: float = 1.0,
                 override_ell: tuple[int, ...] | None = None) -> LadderParams:
    """Ladder from the (N, M) schedule, or from an explicit override.

    Schedule: ell_1 = 2 ceil(N log log q), ell_(j+1) = 2 ceil(N log ell_j),
    keeping entries while they exceed 10^M.  At desk-scale q the schedule
    gives R = 0 (an empty ladder, mollifier identically 1); overrides are the
    working mode and must be even and strictly decreasing.
    """
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    if override_ell is not None:
        ell = tuple(int(l) for l in override_ell)
        _validate_ell(ell, generated=False)
        return LadderParams(k=k, ell=ell, c_k=c_k_value(k), r_k=r_k_value(k),
                            N=N, M=M, generated=False)
    if N is None or M is None:
        raise ValueError("need N and M (or an override ladder)")
    if N < 1 or M < 1:
        raise ValueError(f"N, M must be >= 1, got N={N}, M={M}")
    threshold = 10 ** M
    ell: list[int] = []
    loglog = math.log(math.log(q))
    if loglog > 0:
        cur = 2 * math.ceil(N * loglog)
        while cur > threshold:
            ell.append(cur)
            nxt = 2 * math.ceil(N * math.log(cur))
            if nxt >= cur:
                break
            cur = nxt
    out = tuple(ell)
    _validate_ell(out, generated=True)
    return LadderParams(k=k, ell=out, c_k=c_k_value(k), r_k=r_k_value(k),
                        N=N, M=M, generated=True)


@dataclass(frozen=True)
class PrimeSegments:
    """Disjoint prime intervals, one per ladder entry.

    boundaries[j] = q^(1/ell_(j+1)^2).  Segment 1 is the odd primes up to
    boundaries[0]; segment j > 1 is the primes in
    (boundaries[j-2], boundaries[j-1]], read literally, so 2 belongs to the
    first later segment whose lower edge is below it.
    """

    q: int
    boundaries: tuple[float, ...]
    segments: tuple[tuple[int, ...], ...]

    @property
    def empty_flags(self) -> tuple[bool, ...]:
        return tuple(len(s) == 0 for s in self.segments)


def build_segments(q: int, ladder: LadderParams) -> PrimeSegments:
    bounds = tuple(q ** (1.0 / (l * l)) for l in ladder.ell)
    segs: list[tuple[int, ...]] = []
    lo = 2.0  # segment 1 takes odd primes only
    for j, hi in enumerate(bounds):
        primes = arith.sieve_primes(int(hi)) if hi >= 2 else np.array([], int)
        seg = tuple(int(p) for p in primes if lo < p <= hi)
        segs.append(seg)
        lo = hi
    return PrimeSegments(q=q, boundaries=bounds, segments=tuple(segs))


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


def prime_poly(chi: characters.Character, segment,
               table: EigenformTable | None = None) -> complex:
    """Short prime sum over the segment: sum of chi(p)/sqrt(p), optionally
    lambda(p)-weighted when an eigenform table is supplied."""
    vals = chi.values()
    q = chi.group.q
    acc = 0.0 + 0.0j
    for p in segment:
        w = table.lam_at(p) if table is not None else 1.0
        acc += w * vals[p % q] / math.sqrt(p)
    return complex(acc)


class MollifierContext:
    """Everything needed to evaluate the polynomial tower for one (q, ladder).

    Holds the eigenform table, ladder, segments and the weighting mode;
    caches per-character prime sums.  Immutable in intent: do not mutate
    fields after construction.
    """

    def __init__(self, table: EigenformTable, ladder: LadderParams,
                 segments: PrimeSegments, weighted: bool = True):
        if len(segments.segments) != ladder.R:
            raise ValueError("segments do not match ladder length")
        self.table = table
        self.ladder = ladder
        self.segments = segments
        self.weighted = weighted
        self._psums: dict[tuple[int, int], complex] = {}

    def weight_of(self, p: int) -> float:
        return self.table.lam_at(p) if self.weighted else 1.0

    def prime_sum(self, chi: characters.Character, j: int) -> complex:
        """P_j(chi) in the context's weighting, cached per (chi, j)."""
        key = (chi.index, j)
        got = self._psums.get(key)
        if got is None:
            seg = self.segments.segments[j - 1]
            got = prime_poly(chi, seg, self.table if self.weighted else None)
            self._psums[key] = got
        return got


def n_poly(ctx: MollifierContext, chi: characters.Character, j: int,
           alpha: float, mode: str = "exp") -> complex:
    """N_j(chi, alpha): truncated exponential of the prime sum ("exp"), or
    the expanded Dirichlet polynomial ("dirichlet"); the two agree exactly.
    """
    if not 1 <= j <= ctx.ladder.R:
        raise ValueError(f"j={j} outside 1..{ctx.ladder.R}")
    if mode == "exp":
        return trunc_exp(ctx.ladder.ell[j - 1],
                         alpha * ctx.prime_sum(chi, j))
    if mode == "dirichlet":
        coeffs = segment_coefficients(ctx, j, alpha)
        return evaluate_coefficients(coeffs, chi)
    raise ValueError(f"mode must be 'exp' or 'dirichlet', got {mode!r}")


def n_full(ctx: MollifierContext, chi: characters.Character,
           alpha: float, mode: str = "exp") -> complex:
    """N(chi, alpha): product of N_j over the whole ladder (1 when R=0)."""
    acc = 1.0 + 0.0j
    for j in range(1, ctx.ladder.R + 1):
        acc *= n_poly(ctx, chi, j, alpha, mode)
    return acc


def q_poly(ctx: MollifierContext, chi: characters.Character, j: int,
           k: float | None = None) -> complex:
    """Q_j(chi, k) = (c_k P_j(chi)/ell_j)^(r_k ell_j); Q_(R+1) is 1."""
    if j == ctx.ladder.R + 1:
        return 1.0 + 0.0j
    if not 1 <= j <= ctx.ladder.R:
        raise ValueError(f"j={j} outside 1..{ctx.ladder.R + 1}")
    kk = ctx.ladder.k if k is None else k
    ell = ctx.ladder.ell[j - 1]
    base = c_k_value(kk) * ctx.prime_sum(chi, j) / ell
    return _ipow(base, r_k_value(kk) * ell)


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
        wt = ctx.weight_of(pv)
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
    """sum coeff(n) chi(n)/sqrt(n) over the map's support (fixed n order)."""
    vals = chi.values()
    q = chi.group.q
    acc = 0.0 + 0.0j
    for n in sorted(coeffs):
        acc += coeffs[n] * vals[n % q] / math.sqrt(n)
    return complex(acc)


def segment_prime_sum_bounds(ctx: MollifierContext) -> list[dict]:
    """Per-segment report on sum of lambda(p)^2/p against ell_j/(4N) and
    (2/N) ell_j; skipped (with a flag) for empty segments or override
    ladders with no N."""
    lad = ctx.ladder
    out = []
    for j in range(1, lad.R + 1):
        seg = ctx.segments.segments[j - 1]
        ell = lad.ell[j - 1]
        rec = {"j": j, "ell": ell, "size": len(seg), "checked": False,
               "value": 0.0, "lower": None, "upper": None, "ok": None}
        if seg:
            rec["value"] = float(sum(
                ctx.table.lam_at(p) ** 2 / p for p in seg))
        if seg and lad.N is not None:
            rec["checked"] = True
            rec["lower"] = ell / (4 * lad.N)
            rec["upper"] = 2 * ell / lad.N
            rec["ok"] = rec["lower"] <= rec["value"] <= rec["upper"]
        out.append(rec)
    return out
