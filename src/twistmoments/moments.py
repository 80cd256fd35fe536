"""Family moments, twisted moments, and the numerical inequality audits.

Everything here works over the family of primitive characters mod q, as
built once by lvalues.family_values: the caller builds it, then passes the
same records (with one MollifierContext for the modulus) to every moment and
audit, which check that the context and the family share q.  The
moment statistics are exact finite sums of |L(1/2)| powers from the lvalues
module; the audits check, instance by instance, the pointwise truncated
exponential bounds, the Hoelder splittings at family level, and the exact
diagonal factorization identity behind the twisted first moment.

Asymptotic statements (anything with an unspecified constant) are never
asserted: they surface as reported ratios so sweeps can eyeball boundedness,
while every constant-1 inequality is asserted with a small relative slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith, characters, lvalues, mollifier
from .hecke import EigenformTable
from .lvalues import AfeConfig, DEFAULT_CONFIG
from .mollifier import MollifierContext

_SLACK = 1e-9
_TINY = 1e-300
# relative tolerance of the diagonal factorization identity
DIAGONAL_TOL = 1e-9
# terms of the Euler-factor series summed by diagonal_local_factor
_LOCAL_TERMS = 60


@dataclass(frozen=True)
class MomentReport:
    """One family moment: q, k, and Sum* |L(1/2)|^(2k) with normalizations."""

    q: int
    k: float
    phi_star: int
    raw_moment: float
    normalized: float               # raw_moment / phi_star
    log_q: float
    ratio_to_logq_pow_k2: float     # normalized / (log q)^(k^2)


@dataclass(frozen=True)
class CheckRecord:
    """A single audited inequality instance: lhs <= rhs up to relative slack."""

    name: str
    subject: str
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class InequalityAudit:
    """Bundle of asserted checks plus reported (not asserted) ratios."""

    q: int
    k: float
    checks: tuple[CheckRecord, ...]
    reported: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.ok]


def _family_q(ctx: MollifierContext, recs) -> int:
    """The family's modulus, checked against the mollifier context's."""
    q = recs[0].chi.group.q
    if ctx.segments.q != q:
        raise ValueError(f"mollifier context is built for q={ctx.segments.q}"
                         f" but the family is for q={q}")
    return q


def family_moment(recs, k: float) -> MomentReport:
    """Sum* |L(1/2)|^(2k) over a family built by lvalues.family_values.

    k = 0 returns phi_star(q) exactly (every term is 1 by convention).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    q = recs[0].chi.group.q
    phi_star = arith.phi_star(q)
    logq = math.log(q)
    if k == 0:
        raw = float(phi_star)
    else:
        amps = [abs(r.value) ** (2 * k) for r in recs]
        if len(amps) != phi_star:
            raise AssertionError(
                f"family size {len(amps)} != phi_star {phi_star}")
        raw = float(sum(amps))
    normalized = raw / phi_star
    return MomentReport(
        q=q, k=k, phi_star=phi_star, raw_moment=raw, normalized=normalized,
        log_q=logq, ratio_to_logq_pow_k2=normalized / logq ** (k * k))


def twisted_first_moment(ctx: MollifierContext, recs, k: float) -> complex:
    """Sum* L(1/2) N(conj chi, k) N(chi, k-1) over the family.

    Returned as a complex number; the family is closed under conjugation, so
    the imaginary part should be at noise level.
    """
    _family_q(ctx, recs)
    group = recs[0].chi.group
    index = np.array([r.chi.index for r in recs])
    # the records ascend in index, so chi-bar's position is a sorted lookup
    mates = np.searchsorted(index, group.conj[index]).tolist()
    total = 0.0 + 0.0j
    for rec, mate in zip(recs, mates):
        total += (rec.value
                  * mollifier.n_full(ctx, recs[mate].chi, k)
                  * mollifier.n_full(ctx, rec.chi, k - 1))
    return total


@dataclass(frozen=True)
class DiagonalCheck:
    """Result of the exact convolution-vs-product identity."""

    lhs: float
    rhs: float
    residual: float
    ok: bool
    local_terms: tuple[float, ...]


def diagonal_factorization_check(ctx: MollifierContext,
                                 k: float) -> DiagonalCheck:
    """Exact identity behind the diagonal of the twisted first moment.

    With x the coefficient map of N(., k-1) and y that of N(., k), both in
    the lambda-weighted mode, the double sum

        sum_b (y_b / b) sum_{a m = b} lambda(m) x_a

    factors as the product over segments of

        sum_n c_k(n)/n * sum_{n' | n} c_(k-1)(n') lambda(n / n'),

    where c_alpha is the per-segment coefficient map.  Both sides are finite
    and must agree to DIAGONAL_TOL, relative.
    """
    if not ctx.weighted:
        raise ValueError("identity requires the lambda-weighted mode")
    x = mollifier.mollifier_coefficients(ctx, k - 1)
    y = mollifier.mollifier_coefficients(ctx, k)
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
    locals_: list[float] = []
    for j in range(1, ctx.ladder.R + 1):
        ck = mollifier.segment_coefficients(ctx, j, k)
        ck1 = mollifier.segment_coefficients(ctx, j, k - 1)
        term = 0.0
        for n, cn in ck.items():
            inner = 0.0
            for np_, cn1 in ck1.items():
                if n % np_ == 0:
                    inner += cn1 * ctx.table.lam_at(n // np_)
            term += cn / n * inner
        locals_.append(term)
        rhs *= term
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), _TINY)
    return DiagonalCheck(lhs=lhs, rhs=rhs, residual=residual,
                         ok=residual < DIAGONAL_TOL,
                         local_terms=tuple(locals_))


def _lam_prime_powers(lam_p: float, jmax: int) -> list[float]:
    """lambda(p^j), j = 0..jmax, from the two-term Hecke recursion."""
    out = [1.0, lam_p]
    for _ in range(jmax - 1):
        out.append(lam_p * out[-1] - out[-2])
    return out[:jmax + 1]


def diagonal_local_factor(table: EigenformTable, p: int, k: float,
                          envelope: float = 10.0) -> dict:
    """Unrestricted Euler factor of the diagonal identity at one prime.

    T_p = sum_i (lambda(p)^i k^i / (p^i i!)) *
          sum_{l<=i} (k-1)^l lambda(p)^l / l! * lambda(p^(i-l)),

    which should match 1 + k^2 lambda(p)^2 / p up to a remainder of size
    envelope/p^2.  The default envelope of 10 covers k <= 1; the remainder's
    constant grows like k^4 (the p^-2 term carries k^2 lambda^2 (5k-2)/2
    against it), so larger k needs a wider envelope.
    """
    lam_p = table.lam_at(p)
    lpow = _lam_prime_powers(lam_p, _LOCAL_TERMS)
    total = 0.0
    for i in range(_LOCAL_TERMS + 1):
        outer = lam_p ** i * k ** i / (p ** i * math.factorial(i))
        if outer == 0.0 or abs(outer) < 1e-320:
            break
        inner = sum((k - 1) ** l * lam_p ** l / math.factorial(l)
                    * lpow[i - l] for l in range(i + 1))
        total += outer * inner
    target = 1.0 + k * k * lam_p * lam_p / p
    dev = abs(total - target)
    bound = envelope / p ** 2
    return {"p": p, "value": total, "target": target, "deviation": dev,
            "bound": bound, "ok": dev <= bound}


def pointwise_inequality_audit(ctx: MollifierContext,
                               chi: characters.Character,
                               k: float | None = None) -> InequalityAudit:
    """Per-character regime checks of the truncated-exponential bounds.

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
    kk = ctx.ladder.k if k is None else k
    if kk <= 0:
        raise ValueError(f"k must be positive, got {kk}")
    checks: list[CheckRecord] = []

    def add(name: str, j: int, lhs: float, rhs: float, lower: bool = False):
        if lower:
            ok = lhs >= rhs * (1 - _SLACK)
        else:
            ok = lhs <= rhs * (1 + _SLACK)
        checks.append(CheckRecord(
            name=name, subject=f"chi={chi.index} j={j}",
            lhs=lhs, rhs=rhs, ok=ok))

    for j in range(1, ctx.ladder.R + 1):
        ell = ctx.ladder.ell[j - 1]
        x = math.exp(-ell)
        P = abs(ctx.prime_sum(chi, j))
        Nk = abs(mollifier.n_poly(ctx, chi, j, kk))
        Nk1 = abs(mollifier.n_poly(ctx, chi, j, kk - 1))
        Q = abs(mollifier.q_poly(ctx, chi, j, kk))
        if kk <= 1:
            if P <= ell / 60:
                add("product_small_regime", j,
                    Nk ** (2 / kk) * Nk1 ** 2,
                    Nk ** 2 * (1 + x) ** (2 / kk))
                add("lower_small_regime", j,
                    Nk1 ** (2 * kk) * Nk ** (2 * (1 - kk)),
                    (1 - x) ** 2, lower=True)
            else:
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
                add("product_large_regime", j, (Nk * Nk1) ** e, Q * Q)
                add("guard_unit", j, Q, 1.0, lower=True)
    return InequalityAudit(q=ctx.segments.q, k=kk, checks=tuple(checks))


def family_pointwise_audit(ctx: MollifierContext, recs,
                           k: float | None = None) -> InequalityAudit:
    """Pointwise audit over every character of the family."""
    q = _family_q(ctx, recs)
    checks: list[CheckRecord] = []
    kk = ctx.ladder.k if k is None else k
    for rec in recs:
        checks.extend(
            pointwise_inequality_audit(ctx, rec.chi, kk).checks)
    return InequalityAudit(q=q, k=kk, checks=tuple(checks))


def _upper_weights(ctx: MollifierContext, chi: characters.Character,
                   alpha: float, k: float) -> float:
    """sum_v (prod_{j<=v} |N_j(chi, alpha)|^2) |Q_(v+1)(chi, k)|^2."""
    total = 0.0
    running = 1.0
    for v in range(ctx.ladder.R + 1):
        if v >= 1:
            running *= abs(mollifier.n_poly(ctx, chi, v, alpha)) ** 2
        total += running * abs(mollifier.q_poly(ctx, chi, v + 1, k)) ** 2
    return total


def _upper_terms(ctx: MollifierContext, recs, k: float):
    """Per-character terms of the guarded family sums, in family order.

    Returns five lists: |L N(chi, k-1)|^2, |L|^2 A(chi), the guarded product
    prod_j (|N_j(chi, k)|^2 + |Q_j(chi, k)|^2), A(chi) and B(chi), where
    A and B are the upper-principle weights at alpha = k-1 and k.
    """
    ln, la, guard, A, B = [], [], [], [], []
    for rec in recs:
        c = rec.chi
        a = _upper_weights(ctx, c, k - 1, k)
        ln.append(abs(rec.value * mollifier.n_full(ctx, c, k - 1)) ** 2)
        la.append(abs(rec.value) ** 2 * a)
        guard.append(math.prod(abs(mollifier.n_poly(ctx, c, j, k)) ** 2
                               + abs(mollifier.q_poly(ctx, c, j, k)) ** 2
                               for j in range(1, ctx.ladder.R + 1)))
        A.append(a)
        B.append(_upper_weights(ctx, c, k, k))
    return ln, la, guard, A, B


def holder_chain_audit(ctx: MollifierContext, recs,
                       k: float) -> InequalityAudit:
    """Family-level Hoelder splittings, asserted with constant 1.

    k <= 1 asserts the three-factor split of the twisted moment and the
    two-factor split of the upper principle; k > 1 asserts the two-factor
    exponent (1/(2k), (2k-1)/(2k)) split.  Quantities with unspecified
    constants are reported as ratios, never asserted: the guarded product
    family sum and the per-character weight min (which the arguments need
    to stay of size 1).
    """
    q = _family_q(ctx, recs)
    chis = [r.chi for r in recs]
    checks: list[CheckRecord] = []
    reported: dict = {}

    twisted = twisted_first_moment(ctx, recs, k)
    S_2k = family_moment(recs, k).raw_moment
    reported["twisted_moment"] = abs(twisted)

    if k <= 1:
        ln, la, guard, A, B = _upper_terms(ctx, recs, k)
        S_NN = sum(abs(mollifier.n_full(ctx, c, k)) ** (2 / k)
                   * abs(mollifier.n_full(ctx, c, k - 1)) ** 2
                   for c in chis)
        rhs = (S_2k ** 0.5 * sum(ln) ** ((1 - k) / 2) * S_NN ** (k / 2))
        checks.append(CheckRecord(
            name="holder_three_factor", subject=f"q={q}",
            lhs=abs(twisted), rhs=rhs, ok=abs(twisted) <= rhs * (1 + _SLACK)))

        S_guard = sum(guard)
        bump = math.prod((1 + math.exp(-l)) ** (2 / k)
                         for l in ctx.ladder.ell)
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
        S_prod = sum(
            (abs(mollifier.n_full(ctx, c, k))
             * abs(mollifier.n_full(ctx, c, k - 1))) ** (2 * k / (2 * k - 1))
            for c in chis)
        rhs = S_2k ** (1 / (2 * k)) * S_prod ** ((2 * k - 1) / (2 * k))
        checks.append(CheckRecord(
            name="holder_two_factor", subject=f"q={q}",
            lhs=abs(twisted), rhs=rhs, ok=abs(twisted) <= rhs * (1 + _SLACK)))
    return InequalityAudit(q=q, k=k, checks=tuple(checks),
                           reported=reported)


@dataclass(frozen=True)
class Prop56Report:
    """The four guarded family sums with their (log q)^(k^2) normalizations."""

    q: int
    k: float
    phi_star: int
    sum_LN_sq: float            # Sum* |L N(chi, k-1)|^2
    sum_L_sq_weighted: float    # Sum* |L|^2 A(chi)
    sum_guarded_product: float  # Sum* prod_j (|N_j(k)|^2 + |Q_j(k)|^2)
    sum_weights_k: float        # Sum* B(chi)
    normalized: tuple[float, float, float, float]


def prop56_quantities(ctx: MollifierContext, recs, k: float) -> Prop56Report:
    """The guarded family sums that cap the moment from above.

    A(chi) and B(chi) are the upper-principle weights built from
    prod_{j<=v} |N_j|^2 times |Q_(v+1)|^2, at alpha = k-1 and k.
    """
    q = _family_q(ctx, recs)
    ln, la, guard, _, B = _upper_terms(ctx, recs, k)
    sums = (sum(ln), sum(la), sum(guard), sum(B))
    phi_star = arith.phi_star(q)
    scale = phi_star * math.log(q) ** (k * k)
    return Prop56Report(
        q=q, k=k, phi_star=phi_star,
        sum_LN_sq=sums[0], sum_L_sq_weighted=sums[1],
        sum_guarded_product=sums[2], sum_weights_k=sums[3],
        normalized=tuple(s / scale for s in sums))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    points: int


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
