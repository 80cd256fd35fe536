"""Family moments, twisted moments, and the numerical inequality audits.

Everything here works over the family of primitive characters mod q, as
built once by lvalues.family_values: the caller builds it, then passes the
same records to every moment and audit.  The moment statistics are exact
finite sums of |L(1/2)| powers from the lvalues module; the audits check,
instance by instance, the pointwise truncated exponential bounds, the
Hoelder splittings at family level, and the exact diagonal factorization
identity behind the twisted first moment.

The audits work at the k of the towers' ladder.  family_towers checks
that a MollifierContext and the family share q, takes each rung's prime
sums for the whole family in one transform (mollifier.prime_sums), then
builds one mollifier.Tower per character; the caller builds them once per
run and passes the same towers, with the records, to every audit.

Asymptotic statements (anything with an unspecified constant) are never
asserted: they surface as reported ratios so sweeps can eyeball boundedness,
while every constant-1 inequality is asserted with a small relative slack.

The records here are named-tuple subclasses, as on the rest of a
table-backed run's path, so no run loads dataclasses.
"""

from __future__ import annotations

import math
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


class MomentReport(namedtuple("MomentReport", (
        "q", "k", "phi_star", "raw_moment", "normalized", "log_q",
        "ratio_to_logq_pow_k2"))):
    """One family moment: q, k, and Sum* |L(1/2)|^(2k) with normalizations:
    normalized is raw_moment / phi_star, ratio_to_logq_pow_k2 is
    normalized / (log q)^(k^2)."""

    __slots__ = ()


class CheckRecord(namedtuple("CheckRecord", "name subject lhs rhs ok")):
    """A single audited inequality instance: lhs <= rhs up to relative slack."""

    __slots__ = ()


class InequalityAudit(namedtuple("InequalityAudit", "q k checks reported")):
    """Bundle of asserted checks (a tuple of CheckRecord) plus a dict of
    reported (not asserted) ratios."""

    __slots__ = ()

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


def family_towers(ctx: mollifier.MollifierContext,
                  recs) -> list[mollifier.Tower]:
    """The tower of each record's character, in family order, once the
    family's modulus is checked against the context's: one prime_sums
    transform per rung serves every character."""
    q = recs[0].chi.group.q
    if ctx.segments.q != q:
        raise ValueError(f"mollifier context is built for q={ctx.segments.q}"
                         f" but the family is for q={q}")
    sums = [mollifier.prime_sums(ctx, j).tolist()
            for j in range(1, ctx.ladder.R + 1)]
    return [mollifier.tower(ctx, tuple(s[rec.chi.index] for s in sums))
            for rec in recs]


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


class DiagonalCheck(namedtuple(
        "DiagonalCheck", "lhs rhs residual ok local_terms")):
    """Result of the exact convolution-vs-product identity; local_terms are
    the per-segment factors of the product side."""

    __slots__ = ()


def diagonal_factorization_check(ctx: mollifier.MollifierContext,
                                 k: float) -> DiagonalCheck:
    """Exact identity behind the diagonal of the twisted first moment.

    With x the coefficient map of N(., k-1) and y that of N(., k), the
    double sum

        sum_b (y_b / b) sum_{a m = b} lambda(m) x_a

    factors as the product over segments of

        sum_n c_k(n)/n * sum_{n' | n} c_(k-1)(n') lambda(n / n'),

    where c_alpha is the per-segment coefficient map.  Both sides are finite
    and must agree to DIAGONAL_TOL, relative.
    """
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


def diagonal_local_factor(table: EigenformTable, p: int, k: float) -> dict:
    """Unrestricted Euler factor of the diagonal identity at one prime.

    T_p = sum_i (lambda(p)^i k^i / (p^i i!)) *
          sum_{l<=i} (k-1)^l lambda(p)^l / l! * lambda(p^(i-l)),

    which should match 1 + k^2 lambda(p)^2 / p up to a remainder of size
    envelope/p^2.  The envelope is 10 for k <= 1 and 80 above: the
    remainder's constant grows like k^4 (the p^-2 term carries
    k^2 lambda^2 (5k-2)/2 against it), so larger k needs the wider one.
    """
    lam_p = table.lam_at(p)
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
    target = 1.0 + k * k * lam_p * lam_p / p
    dev = abs(total - target)
    bound = (10.0 if k <= 1 else 80.0) / p ** 2
    return {"p": p, "value": total, "target": target, "deviation": dev,
            "bound": bound, "ok": dev <= bound}


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
    slack _SLACK.  Q_j(k) is computed for the large regime only.
    """
    kk = tw.ladder.k
    checks: list[CheckRecord] = []

    def add(name: str, j: int, lhs: float, rhs: float, lower: bool = False):
        if lower:
            ok = lhs >= rhs * (1 - _SLACK)
        else:
            ok = lhs <= rhs * (1 + _SLACK)
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
                Q = abs(tw.guard(j))
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
                Q = abs(tw.guard(j))
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
