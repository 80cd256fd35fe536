"""Family moments, twisted moments, and the inequality-chain audits."""

import dataclasses
import math

import numpy as np
import pytest

from twistmoments import arith, characters, hecke, lvalues, moments, mollifier

CFG = lvalues.DEFAULT_CONFIG


@pytest.fixture(scope="module")
def fam7(table_100k):
    return lvalues.family_values(table_100k, 7, CFG)


@pytest.fixture(scope="module")
def fam53(family_table):
    return lvalues.family_values(family_table, 53, CFG)


@pytest.fixture(scope="module")
def fam101(family_table):
    return lvalues.family_values(family_table, 101, CFG)


def _context(table, q, k=1.0):
    lad = mollifier.build_ladder(q, k=k, override_ell=(8, 2))
    return mollifier.MollifierContext(table, lad,
                                      mollifier.build_segments(q, lad))


def test_zeroth_moment_counts_family(fam53):
    rep = moments.family_moment(fam53, 0.0)
    assert rep.raw_moment == 51.0
    assert rep.phi_star == 51
    with pytest.raises(ValueError):
        moments.family_moment(fam53, -1.0)


def test_first_moment_regressions(fam53, fam101):
    rep53 = moments.family_moment(fam53, 1.0)
    assert abs(rep53.raw_moment - 284.513421702588) < 1e-6 * 284.5
    assert abs(rep53.normalized - 5.578694543188) < 1e-8
    assert abs(rep53.ratio_to_logq_pow_k2 - 1.4051094137803284) < 1e-8
    assert rep53.log_q == math.log(53)

    rep101 = moments.family_moment(fam101, 1.0)
    assert abs(rep101.raw_moment - 537.1334319067472) < 1e-6 * 537.1
    assert abs(rep101.normalized - 5.425590221280275) < 1e-8


def test_power_mean_monotonicity(fam53):
    means = []
    for k in (0.25, 0.5, 1.0):
        rep = moments.family_moment(fam53, k)
        means.append(rep.normalized ** (1 / k))
    assert means[0] <= means[1] + 1e-12
    assert means[1] <= means[2] + 1e-12


def test_family_sum_nearly_real(fam53):
    total = sum(r.value for r in fam53)
    assert abs(total.imag) <= 1e-6 * sum(abs(r.value) for r in fam53)


def test_stirling_lower_bound():
    # (n/e)^n <= n! across the float-safe factorial range
    for n in range(1, 171):
        assert n * math.log(n) - n <= math.lgamma(n + 1) + 1e-12


def test_twisted_moment_degenerate_equals_plain_first_moment(table_100k,
                                                            fam7):
    ctx = _context(table_100k, 7)  # 7^(1/4) < 2: every segment is empty
    assert ctx.segments.empty_flags == (True, True)
    tw = moments.twisted_first_moment(ctx, fam7, 1.0)
    first = sum(r.value for r in fam7)
    assert abs(tw - first) < 1e-10


def test_twisted_moment_positive_at_desk_scale(family_table, fam53, fam101):
    for q, recs in ((53, fam53), (101, fam101)):
        tw = moments.twisted_first_moment(_context(family_table, q), recs,
                                          1.0)
        assert tw.real > 0.0


def test_twisted_moment_against_coefficient_oracle(family_table, fam53):
    k = 0.5
    ctx = _context(family_table, 53, k)
    ca = mollifier.mollifier_coefficients(ctx, k)
    cb = mollifier.mollifier_coefficients(ctx, k - 1)
    want = 0j
    for rec in fam53:
        chi = rec.chi
        bar = chi.group.character(chi.conjugate_index())
        want += (rec.value
                 * mollifier.evaluate_coefficients(ca, bar)
                 * mollifier.evaluate_coefficients(cb, chi))
    got = moments.twisted_first_moment(ctx, fam53, k)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("audit", [
    lambda ctx, recs: moments.twisted_first_moment(ctx, recs, 0.5),
    lambda ctx, recs: moments.family_pointwise_audit(ctx, recs, 0.5),
    lambda ctx, recs: moments.holder_chain_audit(ctx, recs, 0.5),
    lambda ctx, recs: moments.prop56_quantities(ctx, recs, 0.5),
])
def test_family_and_context_must_share_modulus(audit, table_100k, fam7):
    with pytest.raises(ValueError, match="q=11"):
        audit(_context(table_100k, 11, 0.5), fam7)


def test_diagonal_identity_synthetic(table_100k):
    lad = mollifier.build_ladder(11, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=11, boundaries=(5.0,), segments=((5,),))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chk = moments.diagonal_factorization_check(ctx, 1.0)
    assert chk.ok
    assert abs(chk.residual) < 1e-12
    assert len(chk.local_terms) == 1

    lad2 = mollifier.build_ladder(11, override_ell=(4, 2))
    segs2 = mollifier.PrimeSegments(q=11, boundaries=(3.5, 7.5),
                                    segments=((3,), (7,)))
    ctx2 = mollifier.MollifierContext(table_100k, lad2, segs2)
    chk2 = moments.diagonal_factorization_check(ctx2, 0.5)
    assert chk2.ok
    assert len(chk2.local_terms) == 2


def test_diagonal_identity_desk_ladder(family_table):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    ctx = mollifier.MollifierContext(family_table, lad, segs)
    for k in (0.5, 1.0, 2.0):
        assert moments.diagonal_factorization_check(ctx, k).ok


def test_diagonal_requires_weighted_context(table_100k):
    lad = mollifier.build_ladder(11, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=11, boundaries=(5.0,), segments=((5,),))
    ctx = mollifier.MollifierContext(table_100k, lad, segs, weighted=False)
    with pytest.raises(ValueError):
        moments.diagonal_factorization_check(ctx, 1.0)


def test_diagonal_rejects_small_table():
    tbl = hecke.build_eigenform(n_max=20)
    lad = mollifier.build_ladder(11, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=11, boundaries=(5.0,), segments=((5,),))
    ctx = mollifier.MollifierContext(tbl, lad, segs)
    with pytest.raises(ValueError):
        moments.diagonal_factorization_check(ctx, 1.0)


def test_diagonal_local_factor_envelopes(table_100k):
    primes = [int(p) for p in arith.sieve_primes(60)]
    for k in (0.5, 0.75, 1.0):
        for p in primes:
            rec = moments.diagonal_local_factor(table_100k, p, k)
            assert rec["ok"], (p, k)
            assert rec["ok"] == (rec["deviation"] <= rec["bound"])
    wide = [moments.diagonal_local_factor(table_100k, p, 2.0, envelope=80.0)
            for p in primes]
    assert all(r["ok"] for r in wide)
    narrow = [moments.diagonal_local_factor(table_100k, p, 2.0)
              for p in primes]
    assert not all(r["ok"] for r in narrow)  # k^4 growth breaks the k<=1 bound


@pytest.mark.parametrize("q, k, expect", [
    (53, 0.5, 255),
    (53, 2.0, 153),
    (101, 0.5, 492),
    (101, 2.0, 297),
])
def test_family_pointwise_audit_counts(q, k, expect, table_100k, request):
    ctx = _context(table_100k, q, k)
    audit = moments.family_pointwise_audit(
        ctx, request.getfixturevalue(f"fam{q}"), k=k)
    assert audit.all_ok
    assert audit.fail_count == 0
    assert audit.pass_count == expect
    assert audit.failures() == []


def test_pointwise_single_character_structure(table_100k):
    lad = mollifier.build_ladder(101, k=0.5, override_ell=(8, 2))
    segs = mollifier.build_segments(101, lad)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chi = characters.primitive_characters(characters.build_group(101))[0]
    audit = moments.pointwise_inequality_audit(ctx, chi)
    assert audit.all_ok
    names = {c.name for c in audit.checks}
    assert names <= {"product_small_regime", "lower_small_regime",
                     "product_large_regime", "q_dominates_large_regime",
                     "guard_unit"}
    lower_names = {"lower_small_regime", "guard_unit"}
    for c in audit.checks:
        if c.name in lower_names:
            assert c.lhs >= c.rhs * (1 - 1e-9)
        else:
            assert c.lhs <= c.rhs * (1 + 1e-9)


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_holder_chain_audit(k, family_table, fam53):
    audit = moments.holder_chain_audit(_context(family_table, 53, k), fam53,
                                       k)
    assert audit.all_ok
    names = [c.name for c in audit.checks]
    if k <= 1:
        assert names == ["holder_three_factor", "guarded_product_dominates",
                         "holder_upper_principle"]
        assert {"twisted_moment", "guarded_product_ratio",
                "upper_weight_min", "upper_weight_max"} <= set(audit.reported)
    else:
        assert names == ["holder_two_factor"]
        assert "twisted_moment" in audit.reported


def test_upper_bound_sums_degenerate(table_100k, fam7):
    ctx = _context(table_100k, 7)  # empty segments: N = 1, Q = 0
    rep = moments.prop56_quantities(ctx, fam7, 1.0)
    assert rep.phi_star == 5
    assert abs(rep.sum_guarded_product - 5.0) < 1e-12
    assert abs(rep.sum_weights_k - 5.0) < 1e-12
    raw = moments.family_moment(fam7, 1.0).raw_moment
    assert abs(rep.sum_LN_sq - raw) < 1e-9
    assert len(rep.normalized) == 4


def test_upper_bound_sums_over_sweep(family_table, fam53, fam101):
    families = {53: fam53, 101: fam101}
    for q in (149, 211):
        families[q] = lvalues.family_values(family_table, q, CFG)
    reps = [moments.prop56_quantities(_context(family_table, q, 0.5), recs,
                                      0.5)
            for q, recs in families.items()]
    # the mollified second-moment sum tracks phi* (log q)^(k^2) closely;
    # the guard-weighted sums do not (their guards are far above size 1 at
    # these moduli), so only positivity and structure are asserted for them
    vals = [r.normalized[0] for r in reps]
    assert min(vals) > 0
    assert max(vals) / min(vals) <= 4.0
    for r in reps:
        assert all(v > 0 for v in r.normalized)
        # ladder (8, 2) leaves segment 1 empty below 3^64, so the leading
        # guard vanishes and the two guard-weighted family sums coincide
        assert abs(r.sum_guarded_product - r.sum_weights_k) \
            <= 1e-9 * r.sum_weights_k
    raw_gp = [r.sum_guarded_product for r in reps]
    assert raw_gp == sorted(raw_gp)


def test_exponent_fit_recovers_synthetic_slope():
    qs = (53, 101, 149, 211, 307)
    reps = [moments.MomentReport(
        q=q, k=1.0, phi_star=0, raw_moment=0.0,
        normalized=3.0 * math.log(q) ** 0.25, log_q=math.log(q),
        ratio_to_logq_pow_k2=0.0) for q in qs]
    fit = moments.exponent_fit(reps)
    assert abs(fit.slope - 0.25) < 1e-9
    assert fit.r_squared > 0.999999
    assert fit.points == 5

    flat = [dataclasses.replace(r, normalized=2.0) for r in reps]
    fit0 = moments.exponent_fit(flat)
    assert abs(fit0.slope) < 1e-12
    assert fit0.r_squared == 1.0


def test_exponent_fit_rejections():
    qs = (53, 101, 149, 211)
    reps = [moments.MomentReport(
        q=q, k=1.0, phi_star=0, raw_moment=0.0, normalized=2.0,
        log_q=math.log(q), ratio_to_logq_pow_k2=0.0) for q in qs]
    with pytest.raises(ValueError):
        moments.exponent_fit(reps[:3])
    with pytest.raises(ValueError):
        moments.exponent_fit(reps[:3] + [dataclasses.replace(reps[3], k=2.0)])
    with pytest.raises(ValueError):
        moments.exponent_fit(list(reversed(reps)))


def test_sweep_reports_regression(family_table):
    reps = moments.sweep_reports(family_table, (53, 101), (1.0,))
    assert [r.q for r in reps] == [53, 101]
    assert abs(reps[0].normalized - 5.578694543188) < 1e-6
    assert abs(reps[1].normalized - 5.425590221280275) < 1e-6
