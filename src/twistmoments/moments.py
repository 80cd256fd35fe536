"""Family moments, twisted moments, and the numerical checks.

Everything here works over the family of primitive characters mod q, as
built once by lvalues.family_values: the caller builds it, then passes the
same records to every moment and audit.  The moment statistics are exact
finite sums of |L(1/2)| powers from the lvalues module.  Every check is a
CheckRecord: the audits check, instance by instance, the pointwise
truncated exponential bounds and the Hoelder splittings at family level;
verify_checks the identities, among them the exact diagonal factorization
behind the twisted first moment, building each coefficient map once.

The checks work at the k of the towers' ladder.  family_towers checks
that a MollifierContext and the characters share q, takes each rung's
prime sums for all of them in one transform (mollifier.prime_sums), then
builds one mollifier.Tower per character; the caller builds them once per
run and passes the same towers, with the records, to every audit.

Asymptotic statements (anything with an unspecified constant) are never
asserted: they surface as reported ratios so sweeps can eyeball boundedness,
while every constant-1 inequality is asserted with a small relative slack.

The records here are named-tuple subclasses, as on the rest of a
table-backed run's path, so no run loads dataclasses.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple

import numpy as np

from . import arith, characters, lvalues, mollifier
from .hecke import EigenformTable
from .lvalues import AfeConfig, DEFAULT_CONFIG

_SLACK = 1e-9
_TINY = 1e-300
# relative tolerance of the diagonal factorization identity
DIAGONAL_TOL = 1e-9
# terms of the Euler-factor series summed by diagonal_local_factor
_LOCAL_TERMS = 60
# the primes of verify_checks' Euler factors; mollifier-verify's table
# reaches the largest
LOCAL_FACTOR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                       47)
# the largest k at which diagonal_local_factor's envelope is established
LOCAL_FACTOR_K_MAX = 2.0


class MomentReport(namedtuple("MomentReport", (
        "q", "k", "phi_star", "raw_moment", "normalized",
        "ratio_to_logq_pow_k2"))):
    """One family moment: q, k, and Sum* |L(1/2)|^(2k) with normalizations:
    normalized is raw_moment / phi_star, ratio_to_logq_pow_k2 is
    normalized / (log q)^(k^2)."""

    __slots__ = ()


class CheckRecord(namedtuple("CheckRecord", "name subject lhs rhs ok")):
    """One check: an inequality's two sides, lhs <= rhs up to relative
    slack, or an identity's residual and tolerance; rhs is None for a
    skipped check."""

    __slots__ = ()


class InequalityAudit(namedtuple("InequalityAudit", "q k checks reported")):
    """Bundle of asserted checks (a tuple of CheckRecord) plus a dict of
    reported (not asserted) values."""

    __slots__ = ()

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.checks if not c.ok)


def family_moment(recs, k: float) -> MomentReport:
    """Sum* |L(1/2)|^(2k) over a family built by lvalues.family_values.

    k = 0 returns phi_star(q) exactly, as x ** 0.0 is 1.0 for every float x.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    q = recs[0].chi.group.q
    phi_star = arith.phi_star(q)
    if len(recs) != phi_star:
        raise AssertionError(
            f"family size {len(recs)} != phi_star {phi_star}")
    raw = float(sum(abs(r.value) ** (2 * k) for r in recs))
    normalized = raw / phi_star
    return MomentReport(
        q=q, k=k, phi_star=phi_star, raw_moment=raw, normalized=normalized,
        ratio_to_logq_pow_k2=normalized / math.log(q) ** (k * k))


def family_towers(ctx: mollifier.MollifierContext,
                  chis) -> list[mollifier.Tower]:
    """The tower of each character, in order, once their modulus is checked
    against the context's: one prime_sums transform per rung serves every
    character."""
    q = chis[0].group.q
    if ctx.segments.q != q:
        raise ValueError(f"mollifier context is built for q={ctx.segments.q}"
                         f" but the family is for q={q}")
    sums = [mollifier.prime_sums(ctx, j).tolist()
            for j in range(1, ctx.ladder.R + 1)]
    return [mollifier.tower(ctx, tuple(s[chi.index] for s in sums))
            for chi in chis]


def twisted_first_moment(recs, towers) -> complex:
    """Sum* L(1/2) N(conj chi, k) N(chi, k-1) over the family, from the
    family's towers at their ladder's k.

    Returned as a complex number; the family is closed under conjugation, so
    the imaginary part should be at noise level.
    """
    conj = recs[0].chi.group.conj
    # the family is closed under conjugation: chi-bar's record by its index
    position = {rec.chi.index: j for j, rec in enumerate(recs)}
    total = 0.0 + 0.0j
    for rec, tw in zip(recs, towers, strict=True):
        total += rec.value * towers[position[conj[rec.chi.index]]].N * tw.N1
    return total


def _coefficient_maps(ctx: mollifier.MollifierContext, k: float):
    """The coefficient maps the diagonal identity reads at k: those of
    N(., k-1) and N(., k), and each segment's at alpha = k and k-1, keyed
    (j, alpha)."""
    seg = {(j, alpha): mollifier.segment_coefficients(ctx, j, alpha)
           for j in range(1, ctx.ladder.R + 1) for alpha in (k, k - 1)}
    return (mollifier.mollifier_coefficients(ctx, k - 1),
            mollifier.mollifier_coefficients(ctx, k), seg)


def diagonal_factorization_check(ctx: mollifier.MollifierContext,
                                 k: float, maps=None) -> CheckRecord:
    """Exact identity behind the diagonal of the twisted first moment.

    With x the coefficient map of N(., k-1) and y that of N(., k), the
    double sum

        sum_b (y_b / b) sum_{a m = b} lambda(m) x_a

    factors as the product over segments of

        sum_n c_k(n)/n * sum_{n' | n} c_(k-1)(n') lambda(n / n'),

    where c_alpha is the per-segment coefficient map.  Both sides are finite
    and must agree to DIAGONAL_TOL, relative.  maps are _coefficient_maps'
    when not given.
    """
    x, y, seg = _coefficient_maps(ctx, k) if maps is None else maps
    top = max(y)
    if top > ctx.table.n_max:
        raise ValueError(
            f"support reaches {top} beyond the coefficient table"
            f" ({ctx.table.n_max})")
    lhs = 0.0
    for b, yb in y.items():
        inner = 0.0
        for a, xa in x.items():
            if b % a == 0:
                inner += ctx.table.lam_at(b // a) * xa
        lhs += yb / b * inner
    rhs = 1.0
    for j in range(1, ctx.ladder.R + 1):
        term = 0.0
        for n, cn in seg[j, k].items():
            inner = 0.0
            for np_, cn1 in seg[j, k - 1].items():
                if n % np_ == 0:
                    inner += cn1 * ctx.table.lam_at(n // np_)
            term += cn / n * inner
        rhs *= term
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), _TINY)
    return CheckRecord(name="diagonal_identity", subject=f"k={k!r}",
                       lhs=residual, rhs=DIAGONAL_TOL,
                       ok=residual < DIAGONAL_TOL)


def _lam_prime_powers(lam_p: float, jmax: int) -> list[float]:
    """lambda(p^j), j = 0..jmax, from the two-term Hecke recursion."""
    out = [1.0, lam_p]
    for _ in range(jmax - 1):
        out.append(lam_p * out[-1] - out[-2])
    return out[:jmax + 1]


def _local_factor(lam_p: float, p: int, k: float) -> float:
    """T_p = sum_i (lambda(p)^i k^i / (p^i i!)) *
             sum_{l<=i} (k-1)^l lambda(p)^l / l! * lambda(p^(i-l)),
    summed to _LOCAL_TERMS terms."""
    lpow = _lam_prime_powers(lam_p, _LOCAL_TERMS)
    # (k-1)^l lambda(p)^l / l!, l = 0..i, each computed once
    inner_w: list[float] = []
    total = 0.0
    for i in range(_LOCAL_TERMS + 1):
        outer = lam_p ** i * k ** i / (p ** i * math.factorial(i))
        if outer == 0.0 or abs(outer) < 1e-320:
            break
        inner_w.append((k - 1) ** i * lam_p ** i / math.factorial(i))
        inner = sum(w * lpow[i - l] for l, w in enumerate(inner_w))
        total += outer * inner
    return total


def diagonal_local_factor(table: EigenformTable, p: int,
                          k: float) -> CheckRecord:
    """Unrestricted Euler factor _local_factor of the diagonal identity at
    one prime, which should match 1 + k^2 lambda(p)^2 / p up to a remainder
    of size envelope/p^2.  The envelope is 10 for k <= 1 and 80 above: the
    p^-2 term carries k^2 lambda^2 (5k-2)/2, at most 2 k^2 (5k-2) as
    |lambda(p)| <= 2: 64 at k = 2, past 80 from k ~ 2.19.  So a k beyond
    LOCAL_FACTOR_K_MAX raises ValueError.
    """
    if not k <= LOCAL_FACTOR_K_MAX:
        raise ValueError(f"k={k:g} is beyond the local-factor envelope, "
                         f"established for k <= {LOCAL_FACTOR_K_MAX:g}")
    lam_p = table.lam_at(p)
    dev = abs(_local_factor(lam_p, p, k) - (1.0 + k * k * lam_p * lam_p / p))
    bound = (10.0 if k <= 1 else 80.0) / p ** 2
    return CheckRecord(name="diagonal_local_factor", subject=f"p={p}",
                       lhs=dev, rhs=bound, ok=dev <= bound)


def segment_weight_checks(
        ctx: mollifier.MollifierContext) -> list[CheckRecord]:
    """Per segment, sum of lambda(p)^2/p against ell_j/(4N) and (2/N) ell_j
    (rhs, the upper bound; ok takes both); skipped for empty segments or
    override ladders with no N."""
    lad = ctx.ladder
    out = []
    for j, (seg, ell) in enumerate(zip(ctx.segments.segments, lad.ell), 1):
        value = float(sum(ctx.table.lam_at(p) ** 2 / p for p in seg))
        if seg and lad.N is not None:
            upper = 2 * ell / lad.N
            out.append(CheckRecord("segment_prime_weight", f"j={j}", value,
                                   upper, ell / (4 * lad.N) <= value <= upper))
        else:
            out.append(CheckRecord("segment_prime_weight_skipped", f"j={j}",
                                   value, None, True))
    return out


def verify_checks(ctx: mollifier.MollifierContext, chis,
                  seed: int) -> InequalityAudit:
    """mollifier-verify's checks at the ladder's k, in row order: per rung,
    the exp form of N_j on chis' towers against its Dirichlet polynomial;
    trunc_exp_tail at 200 points drawn by random.Random(seed); then
    segment_weight_checks, diagonal_factorization_check and
    diagonal_local_factor.  reported sums up N(., k)'s coefficient map."""
    k = ctx.ladder.k
    towers = family_towers(ctx, chis)
    maps = _coefficient_maps(ctx, k)
    _, y, seg = maps
    checks = []
    for j in range(1, ctx.ladder.R + 1):
        worst = 0.0
        for alpha, n_j in ((k, [tw.Nk[j - 1] for tw in towers]),
                           (k - 1, [tw.Nk1[j - 1] for tw in towers])):
            for chi, a in zip(chis, n_j):
                b = mollifier.evaluate_coefficients(seg[j, alpha], chi)
                worst = max(worst, abs(a - b))
        checks.append(CheckRecord("dual_representation", f"j={j}", worst,
                                  1e-10, worst <= 1e-10))

    rng = random.Random(seed)
    worst_exact = 0.0
    worst_coarse = 0.0
    for _ in range(200):
        K = rng.randint(1, 6) * 2
        a = rng.uniform(0.05, 2.0)
        r = rng.uniform(1e-3, 1.0) * a * K / 20
        z = r * cmath.exp(2j * math.pi * rng.random())
        err = abs(mollifier.trunc_exp_tail(K, z))
        worst_exact = max(worst_exact, err / (r ** K / math.factorial(K)))
        worst_coarse = max(worst_coarse, err / (a * math.e / 20) ** K)
    checks.append(CheckRecord("trunc_exp_tail_vs_term", "200 samples",
                              worst_exact, 1.0, worst_exact <= 1.0))
    checks.append(CheckRecord("trunc_exp_tail_vs_geom", "200 samples",
                              worst_coarse, 1.0, worst_coarse <= 1.0))

    checks += segment_weight_checks(ctx)
    checks.append(diagonal_factorization_check(ctx, k, maps))
    checks += [diagonal_local_factor(ctx.table, p, k)
               for p in LOCAL_FACTOR_PRIMES]
    return InequalityAudit(
        q=ctx.segments.q, k=k, checks=tuple(checks),
        reported={"support_size": len(y),
                  "max_coefficient": max(abs(v) for v in y.values())})


def pointwise_inequality_audit(chi: characters.Character,
                               tw: mollifier.Tower) -> InequalityAudit:
    """Per-character regime checks of the truncated-exponential bounds, on
    chi's tower at its ladder's k.

    For each rung j, |P_j(chi)| picks a regime.  With x = exp(-ell_j):

    k <= 1, small (|P_j| <= ell_j/60):
        |N_j(k)^(1/k) N_j(k-1)|^2 <= |N_j(k)|^2 (1+x)^(2/k)
        |N_j(k-1)|^(2k) |N_j(k)|^(2(1-k)) >= (1-x)^2
    k <= 1, large: the product is <= (64|P_j|/ell_j)^(2(1+1/k) ell_j)
        <= |Q_j(k)|^2, and |Q_j(k)| >= 1.
    k > 1 uses threshold ell_j/(40k) and exponent 2k/(2k-1):
        small: |N_j(k) N_j(k-1)|^(2k/(2k-1))
               <= |N_j(k)|^2 (1+x)^(2k/(2k-1)) (1-x)^(-2(k-1)/(2k-1))
        large: same left side <= |Q_j(k)|^2, and |Q_j(k)| >= 1.

    All are exact inequalities; each instance is asserted with relative
    slack _SLACK.
    """
    kk = tw.ladder.k
    checks: list[CheckRecord] = []

    def add(name: str, j: int, lhs: float, rhs: float, lower: bool = False):
        ok = lhs >= rhs * (1 - _SLACK) if lower else lhs <= rhs * (1 + _SLACK)
        checks.append(CheckRecord(
            name=name, subject=f"chi={chi.index} j={j}",
            lhs=lhs, rhs=rhs, ok=ok))

    for j, ell in enumerate(tw.ladder.ell, 1):
        x = math.exp(-ell)
        P, Nk, Nk1 = (abs(v[j - 1]) for v in (tw.P, tw.Nk, tw.Nk1))
        if kk <= 1:
            if P <= ell / 60:
                add("product_small_regime", j,
                    Nk ** (2 / kk) * Nk1 ** 2,
                    Nk ** 2 * (1 + x) ** (2 / kk))
                add("lower_small_regime", j,
                    Nk1 ** (2 * kk) * Nk ** (2 * (1 - kk)),
                    (1 - x) ** 2, lower=True)
            else:
                Q = abs(tw.Q[j - 1])
                mid = (64 * P / ell) ** (2 * (1 + 1 / kk) * ell)
                add("product_large_regime", j, Nk ** (2 / kk) * Nk1 ** 2, mid)
                add("q_dominates_large_regime", j, mid, Q * Q)
                add("guard_unit", j, Q, 1.0, lower=True)
        else:
            e = 2 * kk / (2 * kk - 1)
            if P <= ell / (40 * kk):
                add("product_small_regime", j,
                    (Nk * Nk1) ** e,
                    Nk ** 2 * (1 + x) ** e
                    * (1 - x) ** (-2 * (kk - 1) / (2 * kk - 1)))
            else:
                Q = abs(tw.Q[j - 1])
                add("product_large_regime", j, (Nk * Nk1) ** e, Q * Q)
                add("guard_unit", j, Q, 1.0, lower=True)
    return InequalityAudit(q=chi.group.q, k=kk, checks=tuple(checks),
                           reported={})


def family_pointwise_audit(recs, towers) -> InequalityAudit:
    """Pointwise audit over every character of the family, on the family's
    towers."""
    checks: list[CheckRecord] = []
    for rec, tw in zip(recs, towers, strict=True):
        checks.extend(pointwise_inequality_audit(rec.chi, tw).checks)
    return InequalityAudit(q=recs[0].chi.group.q, k=towers[0].ladder.k,
                           checks=tuple(checks), reported={})


def _upper_weight(N, Q) -> float:
    """sum_v (prod_{j<=v} |N_j|^2) |Q_(v+1)|^2, with Q_(R+1) = 1."""
    total = 0.0
    running = 1.0
    for v, guard in enumerate(Q + (1.0,)):
        if v:
            running *= abs(N[v - 1]) ** 2
        total += running * abs(guard) ** 2
    return total


def _upper_terms(recs, towers):
    """Per-character terms of the guarded family sums, in family order.

    Returns five lists: |L N(chi, k-1)|^2, |L|^2 A(chi), the guarded product
    prod_j (|N_j(chi, k)|^2 + |Q_j(chi, k)|^2), A(chi) and B(chi), where
    A and B are the upper-principle weights at alpha = k-1 and k.
    """
    ln, la, guard, A, B = [], [], [], [], []
    for rec, tw in zip(recs, towers, strict=True):
        a = _upper_weight(tw.Nk1, tw.Q)
        ln.append(abs(rec.value * tw.N1) ** 2)
        la.append(abs(rec.value) ** 2 * a)
        guard.append(math.prod(abs(n) ** 2 + abs(g) ** 2
                               for n, g in zip(tw.Nk, tw.Q)))
        A.append(a)
        B.append(_upper_weight(tw.Nk, tw.Q))
    return ln, la, guard, A, B


def holder_chain_audit(recs, towers) -> InequalityAudit:
    """Family-level Hoelder splittings on the family's towers, at their
    ladder's k, asserted with constant 1.

    k <= 1 asserts the three-factor split of the twisted moment and the
    two-factor split of the upper principle; k > 1 asserts the two-factor
    exponent (1/(2k), (2k-1)/(2k)) split.  Quantities with unspecified
    constants are reported as ratios, never asserted: the guarded product
    family sum and the per-character weight min (which the arguments need
    to stay of size 1).
    """
    q = recs[0].chi.group.q
    ladder = towers[0].ladder
    k = ladder.k
    checks: list[CheckRecord] = []
    reported: dict = {}

    twisted = twisted_first_moment(recs, towers)
    S_2k = family_moment(recs, k).raw_moment
    reported["twisted_moment"] = abs(twisted)

    if k <= 1:
        ln, la, guard, A, B = _upper_terms(recs, towers)
        S_NN = sum(abs(tw.N) ** (2 / k) * abs(tw.N1) ** 2 for tw in towers)
        rhs = (S_2k ** 0.5 * sum(ln) ** ((1 - k) / 2) * S_NN ** (k / 2))
        checks.append(CheckRecord(
            name="holder_three_factor", subject=f"q={q}",
            lhs=abs(twisted), rhs=rhs, ok=abs(twisted) <= rhs * (1 + _SLACK)))

        S_guard = sum(guard)
        bump = math.prod((1 + math.exp(-l)) ** (2 / k)
                         for l in ladder.ell)
        checks.append(CheckRecord(
            name="guarded_product_dominates", subject=f"q={q}",
            lhs=S_NN, rhs=bump * S_guard,
            ok=S_NN <= bump * S_guard * (1 + _SLACK)))
        reported["guarded_product_ratio"] = S_NN / max(S_guard, _TINY)

        lhs_up = sum(x ** k * b ** (1 - k) for x, b in zip(la, B))
        rhs_up = sum(la) ** k * sum(B) ** (1 - k)
        checks.append(CheckRecord(
            name="holder_upper_principle", subject=f"q={q}",
            lhs=lhs_up, rhs=rhs_up, ok=lhs_up <= rhs_up * (1 + _SLACK)))
        weights = [a ** k * b ** (1 - k) for a, b in zip(A, B)]
        reported["upper_weight_min"] = min(weights)
        reported["upper_weight_max"] = max(weights)
    else:
        S_prod = sum((abs(tw.N) * abs(tw.N1)) ** (2 * k / (2 * k - 1))
                     for tw in towers)
        rhs = S_2k ** (1 / (2 * k)) * S_prod ** ((2 * k - 1) / (2 * k))
        checks.append(CheckRecord(
            name="holder_two_factor", subject=f"q={q}",
            lhs=abs(twisted), rhs=rhs, ok=abs(twisted) <= rhs * (1 + _SLACK)))
    return InequalityAudit(q=q, k=k, checks=tuple(checks),
                           reported=reported)


class FitResult(namedtuple("FitResult", "slope intercept r_squared points")):
    __slots__ = ()


def exponent_fit(reports) -> FitResult:
    """Least-squares slope of log(normalized moment) against log log q."""
    reports = list(reports)
    if len(reports) < 4:
        raise ValueError(f"need >= 4 reports, got {len(reports)}")
    ks = {r.k for r in reports}
    if len(ks) != 1:
        raise ValueError(f"reports mix k values: {sorted(ks)}")
    qs = [r.q for r in reports]
    if any(a >= b for a, b in zip(qs, qs[1:])):
        raise ValueError("reports must come in strictly increasing q")
    xs = np.array([math.log(math.log(r.q)) for r in reports])
    ys = np.array([math.log(r.normalized) for r in reports])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=r2, points=len(reports))


def sweep_reports(table: EigenformTable, q_list, k_list,
                  cfg: AfeConfig = DEFAULT_CONFIG) -> list[MomentReport]:
    """family_moment at each k over each modulus, ascending q, k within q.

    One family is built per modulus from the one coefficient table.
    """
    reports = []
    for q in sorted(q_list):
        recs = lvalues.family_values(table, q, cfg)
        reports.extend(family_moment(recs, k) for k in k_list)
    return reports
