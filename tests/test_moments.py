"""Family moments, twisted moments, and the inequality-chain audits."""

import math

import numpy as np
import pytest

from twistmoments import arith, characters, hecke, lvalues, moments, mollifier

import helpers

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


def _chis(recs):
    return [rec.chi for rec in recs]


def _towers(table, recs, k=1.0):
    """The family's towers on the (8, 2) ladder at k."""
    return moments.family_towers(
        _context(table, recs[0].chi.group.q, k), _chis(recs))


def test_zeroth_moment_counts_family(fam53):
    rep = moments.family_moment(fam53, 0.0)
    assert rep.raw_moment == 51.0
    assert rep.phi_star == 51
    with pytest.raises(ValueError):
        moments.family_moment(fam53, -1.0)


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_partial_family_is_refused_at_every_k(fam53, k):
    # k = 0 reads no value, but three characters are still not the family
    with pytest.raises(AssertionError, match="family size 3 != phi_star 51"):
        moments.family_moment(fam53[:3], k)


def test_first_moment_regressions(fam53, fam101):
    rep53 = moments.family_moment(fam53, 1.0)
    assert abs(rep53.raw_moment - 284.513421702588) < 1e-6 * 284.5
    assert abs(rep53.normalized - 5.578694543188) < 1e-8
    assert abs(rep53.ratio_to_logq_pow_k2 - 1.4051094137803284) < 1e-8
    assert rep53.ratio_to_logq_pow_k2 == rep53.normalized / math.log(53)

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
    assert ctx.segments.segments == ((), ())
    tw = moments.twisted_first_moment(
        fam7, moments.family_towers(ctx, _chis(fam7)))
    first = sum(r.value for r in fam7)
    assert abs(tw - first) < 1e-10


def test_twisted_moment_positive_at_desk_scale(family_table, fam53, fam101):
    for q, recs in ((53, fam53), (101, fam101)):
        tw = moments.twisted_first_moment(recs, _towers(family_table, recs))
        assert tw.real > 0.0


def test_twisted_moment_against_coefficient_oracle(family_table, fam53):
    k = 0.5
    ctx = _context(family_table, 53, k)
    ca = mollifier.mollifier_coefficients(ctx, k)
    cb = mollifier.mollifier_coefficients(ctx, k - 1)
    want = 0j
    for rec in fam53:
        chi = rec.chi
        bar = characters.Character(chi.group, chi.group.conj[chi.index])
        want += (rec.value
                 * mollifier.evaluate_coefficients(ca, bar)
                 * mollifier.evaluate_coefficients(cb, chi))
    got = moments.twisted_first_moment(
        fam53, moments.family_towers(ctx, _chis(fam53)))
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("audit", [
    lambda recs, towers: moments.twisted_first_moment(recs, towers),
    lambda recs, towers: moments.family_pointwise_audit(recs, towers),
    lambda recs, towers: moments.holder_chain_audit(recs, towers),
])
def test_family_and_context_must_share_modulus(audit, table_100k, fam7):
    # every audit reads towers that family_towers built, and it refuses a
    # context for another modulus before any audit runs
    with pytest.raises(ValueError, match="q=11"):
        audit(fam7, moments.family_towers(_context(table_100k, 11, 0.5),
                                          _chis(fam7)))


def test_diagonal_identity_synthetic(table_100k):
    lad = mollifier.build_ladder(11, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=11, segments=((5,),))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chk = moments.diagonal_factorization_check(ctx, 1.0)
    assert chk.ok
    assert (chk.name, chk.subject, chk.rhs) == (
        "diagonal_identity", "k=1.0", moments.DIAGONAL_TOL)
    assert abs(chk.lhs) < 1e-12
    # the product side takes one local term per segment, from its maps at
    # alpha = k and k-1
    assert sorted(moments._coefficient_maps(ctx, 1.0)[2]) == [(1, 0.0),
                                                              (1, 1.0)]

    lad2 = mollifier.build_ladder(11, override_ell=(4, 2))
    segs2 = mollifier.PrimeSegments(q=11, segments=((3,), (7,)))
    ctx2 = mollifier.MollifierContext(table_100k, lad2, segs2)
    chk2 = moments.diagonal_factorization_check(ctx2, 0.5)
    assert chk2.ok
    assert sorted(moments._coefficient_maps(ctx2, 0.5)[2]) == [
        (1, -0.5), (1, 0.5), (2, -0.5), (2, 0.5)]


def test_diagonal_identity_desk_ladder(family_table):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    ctx = mollifier.MollifierContext(family_table, lad, segs)
    for k in (0.5, 1.0, 2.0):
        assert moments.diagonal_factorization_check(ctx, k).ok


def test_diagonal_rejects_small_table():
    tbl = hecke.build_eigenform(n_max=20)
    lad = mollifier.build_ladder(11, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=11, segments=((5,),))
    ctx = mollifier.MollifierContext(tbl, lad, segs)
    with pytest.raises(ValueError):
        moments.diagonal_factorization_check(ctx, 1.0)


def test_diagonal_local_factor_envelopes(table_100k):
    primes = [int(p) for p in arith.sieve_primes(60)]
    for k in (0.5, 0.75, 1.0):
        for p in primes:
            rec = moments.diagonal_local_factor(table_100k, p, k)
            assert rec.ok, (p, k)
            assert rec.ok == (rec.lhs <= rec.rhs)
            assert rec.rhs == 10.0 / p ** 2
            assert (rec.name, rec.subject) == ("diagonal_local_factor",
                                               f"p={p}")
    # k^4 growth breaks the k <= 1 envelope of 10, so k = 2 takes 80
    wide = [moments.diagonal_local_factor(table_100k, p, 2.0) for p in primes]
    assert all(r.ok for r in wide)
    assert [r.rhs for r in wide] == [80.0 / p ** 2 for p in primes]


def test_diagonal_local_factor_refuses_k_past_its_envelope(table_100k):
    # the p^-2 coefficient k^2 lambda^2 (5k-2)/2 is at most 2 k^2 (5k-2)
    # under Deligne's bound: 64 at k = 2, within 80, but past 80 from
    # k ~ 2.19, so the envelope is established up to k = 2 only
    assert moments.LOCAL_FACTOR_K_MAX == 2.0
    assert 2 * 2.0 ** 2 * (5 * 2.0 - 2) <= 80 < 2 * 2.2 ** 2 * (5 * 2.2 - 2)
    for k in (2.0 + 1e-12, 2.5, 3.0, 1e6):
        with pytest.raises(ValueError, match="envelope"):
            moments.diagonal_local_factor(table_100k, 47, k)


def test_diagonal_local_factor_equals_the_literal_sum(table_100k):
    # the weights (k-1)^l lambda(p)^l / l! are computed once per prime; the
    # value is the literal double sum to the bit
    for k in (0.5, 1.0, 2.0, 0.25, 3.0):
        for p in moments.LOCAL_FACTOR_PRIMES:
            lam_p = table_100k.lam_at(p)
            assert moments._local_factor(lam_p, p, k) == \
                helpers.local_factor_literal(lam_p, p, k,
                                             moments._LOCAL_TERMS), (p, k)


@pytest.mark.parametrize("q, k, expect", [
    (53, 0.5, 255),
    (53, 2.0, 153),
    (101, 0.5, 492),
    (101, 2.0, 297),
])
def test_family_pointwise_audit_counts(q, k, expect, table_100k, request):
    recs = request.getfixturevalue(f"fam{q}")
    audit = moments.family_pointwise_audit(recs,
                                           _towers(table_100k, recs, k))
    assert all(c.ok for c in audit.checks)
    assert audit.fail_count == 0
    assert audit.pass_count == expect


def test_pointwise_single_character_structure(table_100k):
    lad = mollifier.build_ladder(101, k=0.5, override_ell=(8, 2))
    segs = mollifier.build_segments(101, lad)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chi = characters.primitive_characters(characters.build_group(101))[0]
    audit = moments.pointwise_inequality_audit(chi, helpers.tower_of(ctx, chi))
    assert all(c.ok for c in audit.checks)
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
    audit = moments.holder_chain_audit(fam53, _towers(family_table, fam53, k))
    assert all(c.ok for c in audit.checks)
    names = [c.name for c in audit.checks]
    if k <= 1:
        assert names == ["holder_three_factor", "guarded_product_dominates",
                         "holder_upper_principle"]
        assert {"twisted_moment", "guarded_product_ratio",
                "upper_weight_min", "upper_weight_max"} <= set(audit.reported)
    else:
        assert names == ["holder_two_factor"]
        assert "twisted_moment" in audit.reported


def _upper_terms(ctx, recs):
    return moments._upper_terms(recs,
                                moments.family_towers(ctx, _chis(recs)))


def _upper_sums(ctx, recs):
    """The family sums of |L N(chi, k-1)|^2, |L|^2 A(chi), the guarded
    product and B(chi), from the terms holder_chain_audit reads."""
    ln, la, guard, _, B = _upper_terms(ctx, recs)
    return sum(ln), sum(la), sum(guard), sum(B)


def test_upper_bound_sums_degenerate(table_100k, fam7):
    ctx = _context(table_100k, 7)  # empty segments: N = 1, Q = 0
    terms = _upper_terms(ctx, fam7)
    assert [len(t) for t in terms] == [5] * 5     # phi*(7) = 5
    ln, _, guard, B = _upper_sums(ctx, fam7)
    assert abs(guard - 5.0) < 1e-12
    assert abs(B - 5.0) < 1e-12
    raw = moments.family_moment(fam7, 1.0).raw_moment
    assert abs(ln - raw) < 1e-9


def test_upper_bound_sums_over_sweep(family_table, fam53, fam101):
    families = {53: fam53, 101: fam101}
    for q in (149, 211):
        families[q] = lvalues.family_values(family_table, q, CFG)
    sums = {q: _upper_sums(_context(family_table, q, 0.5), recs)
            for q, recs in families.items()}
    # the mollified second-moment sum tracks phi* (log q)^(k^2) closely;
    # the guard-weighted sums do not (their guards are far above size 1 at
    # these moduli), so only positivity and structure are asserted for them
    vals = [s[0] / (arith.phi_star(q) * math.log(q) ** 0.25)
            for q, s in sums.items()]
    assert min(vals) > 0
    assert max(vals) / min(vals) <= 4.0
    for s in sums.values():
        assert min(s) > 0
        guard, B = s[2:]
        # ladder (8, 2) leaves segment 1 empty below 3^64, so the leading
        # guard vanishes and the two guard-weighted family sums coincide
        assert abs(guard - B) <= 1e-9 * B
    raw_gp = [s[2] for s in sums.values()]
    assert raw_gp == sorted(raw_gp)


def test_exponent_fit_recovers_synthetic_slope():
    qs = (53, 101, 149, 211, 307)
    reps = [moments.MomentReport(
        q=q, k=1.0, phi_star=0, raw_moment=0.0,
        normalized=3.0 * math.log(q) ** 0.25,
        ratio_to_logq_pow_k2=0.0) for q in qs]
    fit = moments.exponent_fit(reps)
    assert abs(fit.slope - 0.25) < 1e-9
    assert fit.r_squared > 0.999999
    assert fit.points == 5

    flat = [r._replace(normalized=2.0) for r in reps]
    fit0 = moments.exponent_fit(flat)
    assert abs(fit0.slope) < 1e-12
    assert fit0.r_squared == 1.0


def test_exponent_fit_rejections():
    qs = (53, 101, 149, 211)
    reps = [moments.MomentReport(
        q=q, k=1.0, phi_star=0, raw_moment=0.0, normalized=2.0,
        ratio_to_logq_pow_k2=0.0) for q in qs]
    with pytest.raises(ValueError):
        moments.exponent_fit(reps[:3])
    with pytest.raises(ValueError):
        moments.exponent_fit(reps[:3] + [reps[3]._replace(k=2.0)])
    with pytest.raises(ValueError):
        moments.exponent_fit(list(reversed(reps)))


def test_sweep_reports_regression(family_table):
    reps = moments.sweep_reports(family_table, (53, 101), (1.0,))
    assert [r.q for r in reps] == [53, 101]
    assert abs(reps[0].normalized - 5.578694543188) < 1e-6
    assert abs(reps[1].normalized - 5.425590221280275) < 1e-6
