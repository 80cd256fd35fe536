"""Mollifier tower: ladder schedule, prime segments, truncated exponentials,
the short Dirichlet polynomials and their coefficient expansions."""

import cmath
import itertools
import math

import numpy as np
import pytest
import sympy

from twistmoments import characters, hecke, mollifier


@pytest.mark.parametrize("k, ck, rk", [
    (0.25, 64.0, 6),
    (0.5, 64.0, 4),
    (0.75, 64.0, 3),
    (1.0, 64.0, 3),
    (2.0, 128.0, 3),
])
def test_ck_rk_table(k, ck, rk):
    assert mollifier.c_k_value(k) == ck
    assert mollifier.r_k_value(k) == rk


def test_rk_rejects_nonpositive_k():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            mollifier.r_k_value(bad)
        with pytest.raises(ValueError):
            mollifier.build_ladder(53, k=bad, override_ell=(8, 2))


def test_ladder_override_accepted():
    lad = mollifier.build_ladder(53, override_ell=(8, 2))
    assert lad.ell == (8, 2)
    assert lad.R == 2
    assert not lad.generated
    assert lad.c_k == 64.0
    assert lad.r_k == 3


@pytest.mark.parametrize("ell", [
    (8, 3),        # odd entry
    (2, 8),        # increasing
    (8, 8),        # not strictly decreasing
    (8, 6, 4, 2),  # harmonic sum exceeds 2 / ell_R
    (0,),
    (-2,),
])
def test_ladder_override_rejections(ell):
    with pytest.raises(ValueError):
        mollifier.build_ladder(53, override_ell=ell)


def test_generated_schedule():
    lad = mollifier.build_ladder(10**300, N=1, M=1)
    assert lad.generated
    assert lad.ell == (14,)
    assert lad.N == 1 and lad.M == 1
    # denser start violates the square-separation requirement
    with pytest.raises(ValueError):
        mollifier.build_ladder(10**300, N=3, M=1)
    # floor above the start value yields an empty ladder
    lad0 = mollifier.build_ladder(53, N=1, M=3)
    assert lad0.R == 0
    assert lad0.ell == ()


def test_ladder_requires_schedule_or_override():
    with pytest.raises(ValueError):
        mollifier.build_ladder(53)  # neither (N, M) nor an override
    with pytest.raises(ValueError):
        mollifier.build_ladder(53, N=0, M=1)
    with pytest.raises(ValueError):
        mollifier.build_ladder(2, override_ell=(8, 2))


def test_segments_desk_examples():
    lad = mollifier.build_ladder(101, override_ell=(4, 2))
    segs = mollifier.build_segments(101, lad)
    assert segs.segments == ((), (2, 3))
    assert segs.empty_flags == (True, False)

    lad53 = mollifier.build_ladder(53, override_ell=(8, 2))
    segs53 = mollifier.build_segments(53, lad53)
    assert segs53.segments == ((), (2,))


def test_segments_million_scale():
    q = 10**6 + 3
    lad = mollifier.build_ladder(q, override_ell=(6, 2))
    segs = mollifier.build_segments(q, lad)
    assert segs.segments[0] == ()  # q^(1/36) < 2 leaves nothing below
    assert segs.segments[1] == tuple(sympy.primerange(2, 32))


def test_segments_partition():
    for q in (53, 101, 997):
        lad = mollifier.build_ladder(q, override_ell=(8, 4, 2))
        segs = mollifier.build_segments(q, lad)
        flat = [p for seg in segs.segments for p in seg]
        assert flat == sorted(set(flat))  # disjoint, increasing
        b_last = q ** (1 / lad.ell[-1] ** 2)
        assert flat == list(sympy.primerange(2, math.floor(b_last) + 1))


def test_trunc_exp_small_cases():
    assert mollifier.trunc_exp(0, 3.7) == 1.0
    assert mollifier.trunc_exp(1, 2.0) == 3.0
    assert mollifier.trunc_exp(2, 2.0) == 5.0
    z = 0.3 + 0.4j
    want = 1 + z + z**2 / 2 + z**3 / 6
    assert abs(mollifier.trunc_exp(3, z) - want) < 1e-15
    with pytest.raises(ValueError):
        mollifier.trunc_exp(-1, 1.0)


def test_trunc_exp_plus_tail_is_exp():
    rng = np.random.default_rng(9)
    for _ in range(100):
        ell = int(rng.integers(0, 12))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        total = mollifier.trunc_exp(ell, z) + mollifier.trunc_exp_tail(ell, z)
        ref = cmath.exp(z)
        assert abs(total - ref) < 1e-12 * max(1.0, abs(ref))


def test_truncation_error_bound():
    # |E_K(z) - e^z| <= |z|^K / K! <= (a e / 20)^K  whenever |z| <= a K / 20
    rng = np.random.default_rng(17)
    for _ in range(200):
        K = 2 * int(rng.integers(1, 7))
        a = float(rng.uniform(0.05, 2.0))
        r = a * K / 20.0 * float(rng.uniform(0.2, 1.0))
        theta = float(rng.uniform(0, 2 * np.pi))
        z = r * complex(np.cos(theta), np.sin(theta))
        err = abs(mollifier.trunc_exp_tail(K, z))
        assert err <= abs(z) ** K / math.factorial(K) + 1e-15
        assert abs(z) ** K / math.factorial(K) <= (a * math.e / 20) ** K + 1e-15


def _single_prime_ctx(table, q=7, p=5, ell=2, weighted=True):
    lad = mollifier.build_ladder(q, override_ell=(ell,))
    segs = mollifier.PrimeSegments(q=q, boundaries=(float(p),),
                                   segments=((p,),))
    return mollifier.MollifierContext(table, lad, segs, weighted=weighted)


def test_prime_poly_examples(table_100k):
    g7 = characters.build_group(7)
    chi0 = next(c for c in g7.characters() if c.is_principal)
    assert mollifier.prime_poly(chi0, ()) == 0
    want = 1 / math.sqrt(3) + 1 / math.sqrt(5)
    assert abs(mollifier.prime_poly(chi0, (3, 5)) - want) < 1e-15
    t = table_100k
    wantw = t.lam_at(3) / math.sqrt(3) + t.lam_at(5) / math.sqrt(5)
    assert abs(mollifier.prime_poly(chi0, (3, 5), table=t) - wantw) < 1e-15


def test_prime_poly_triangle_bound(table_100k):
    g = characters.build_group(53)
    seg = (2, 3, 5, 7, 11)
    cap = sum(abs(table_100k.lam_at(p)) / math.sqrt(p) for p in seg)
    for chi in g.characters()[:20]:
        val = mollifier.prime_poly(chi, seg, table=table_100k)
        assert abs(val) <= cap + 1e-12


def test_context_weight_modes(table_100k):
    ctx_w = _single_prime_ctx(table_100k, weighted=True)
    ctx_u = _single_prime_ctx(table_100k, weighted=False)
    assert ctx_w.weight_of(5) == table_100k.lam_at(5)
    assert ctx_u.weight_of(5) == 1.0
    chi0 = next(c for c in characters.build_group(7).characters()
                if c.is_principal)
    assert abs(ctx_w.prime_sum(chi0, 1)
               - table_100k.lam_at(5) / math.sqrt(5)) < 1e-15
    assert abs(ctx_u.prime_sum(chi0, 1) - 1 / math.sqrt(5)) < 1e-15


def test_context_validates_segment_count(table_100k):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))  # R = 2
    segs = mollifier.PrimeSegments(q=53, boundaries=(2.0,), segments=((2,),))
    with pytest.raises(ValueError):
        mollifier.MollifierContext(table_100k, lad, segs)


def test_n_poly_single_prime_binomial(table_100k):
    ctx = _single_prime_ctx(table_100k)
    chi = characters.build_group(7).character(1)
    alpha = 0.7
    P = mollifier.prime_poly(chi, (5,), table=table_100k)
    want = 1 + alpha * P + (alpha * P) ** 2 / 2
    assert abs(mollifier.n_poly(ctx, chi, 1, alpha) - want) < 1e-12
    assert abs(mollifier.n_poly(ctx, chi, 1, 0.0) - 1.0) < 1e-15


def test_n_poly_against_monomial_expansion(table_100k):
    q = 11
    lad = mollifier.build_ladder(q, override_ell=(4,))
    segs = mollifier.PrimeSegments(q=q, boundaries=(5.0,), segments=((3, 5),))
    g = characters.build_group(q)
    for weighted in (True, False):
        ctx = mollifier.MollifierContext(table_100k, lad, segs,
                                         weighted=weighted)
        for chi in (g.character(1), g.character(3)):
            for alpha in (0.5, -0.5, 1.0):
                want = 0j
                for m in range(5):
                    for tup in itertools.product((3, 5), repeat=m):
                        term = alpha ** m / math.factorial(m)
                        for p in tup:
                            term *= ctx.weight_of(p) * chi(p) / math.sqrt(p)
                        want += term
                for mode in ("exp", "dirichlet"):
                    got = mollifier.n_poly(ctx, chi, 1, alpha, mode=mode)
                    assert abs(got - want) < 1e-12, (weighted, mode, alpha)


def test_n_poly_argument_validation(table_100k):
    ctx = _single_prime_ctx(table_100k)
    chi = characters.build_group(7).character(1)
    with pytest.raises(ValueError):
        mollifier.n_poly(ctx, chi, 0, 1.0)
    with pytest.raises(ValueError):
        mollifier.n_poly(ctx, chi, 2, 1.0)
    with pytest.raises(ValueError):
        mollifier.n_poly(ctx, chi, 1, 1.0, mode="series")


def test_q_poly_scaling_identity(table_100k):
    ctx = _single_prime_ctx(table_100k)  # k = 1: c = 64, r = 3
    chi = characters.build_group(7).character(1)
    lad = ctx.ladder
    P = mollifier.prime_poly(chi, (5,), table=table_100k)
    Q = mollifier.q_poly(ctx, chi, 1)
    root = abs(Q) ** (1 / (lad.r_k * lad.ell[0]))
    assert abs(root - lad.c_k * abs(P) / lad.ell[0]) < 1e-9


def test_q_poly_edges(table_100k):
    lad = mollifier.build_ladder(7, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=7, boundaries=(1.5,), segments=((),))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chi = characters.build_group(7).character(1)
    assert mollifier.q_poly(ctx, chi, 1) == 0
    assert mollifier.q_poly(ctx, chi, 2) == 1  # past the last rung
    with pytest.raises(ValueError):
        mollifier.q_poly(ctx, chi, 3)


def test_q_poly_guard_at_desk_modulus(table_100k):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    g = characters.build_group(53)
    ell2 = lad.ell[1]
    for chi in characters.primitive_characters(g)[:12]:
        P = mollifier.prime_poly(chi, segs.segments[1], table=table_100k)
        assert abs(P) >= ell2 / 60  # |lambda(2)|/sqrt(2) = 0.375 for all chi
        assert abs(mollifier.q_poly(ctx, chi, 2)) >= 1.0 - 1e-12


def test_segment_coefficients_single_prime(table_100k):
    # coefficient convention: N_j = sum coeff(n) chi(n)/sqrt(n), so the
    # sqrt is not part of the stored coefficient
    ctx = _single_prime_ctx(table_100k)
    lam5 = table_100k.lam_at(5)
    coeffs = mollifier.segment_coefficients(ctx, 1, 1.0)
    assert set(coeffs) == {1, 5, 25}
    assert coeffs[1] == 1.0
    assert abs(coeffs[5] - lam5) < 1e-15
    assert abs(coeffs[25] - lam5 * lam5 / 2) < 1e-15


def test_mollifier_coefficients_convolve_segments(table_100k):
    q = 11
    lad = mollifier.build_ladder(q, override_ell=(4, 2))
    segs = mollifier.PrimeSegments(q=q, boundaries=(3.5, 7.5),
                                   segments=((3,), (5, 7)))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    alpha = -0.5
    full = mollifier.mollifier_coefficients(ctx, alpha)
    a = mollifier.segment_coefficients(ctx, 1, alpha)
    b = mollifier.segment_coefficients(ctx, 2, alpha)
    conv = {}
    for m, cm in a.items():
        for n, cn in b.items():
            conv[m * n] = conv.get(m * n, 0.0) + cm * cn
    assert set(full) == set(conv)
    for n, c in conv.items():
        assert abs(full[n] - c) < 1e-12, n
    assert full[1] == 1.0


def test_coefficient_cap_enforced(table_100k, monkeypatch):
    # segment supports of C(13, 5) = 1287 and C(12, 6) = 924 terms: their
    # product map would pass the 10^6 cap, so it is refused before it is built
    lad = mollifier.build_ladder(101, override_ell=(8, 6))
    segs = mollifier.PrimeSegments(
        q=101, boundaries=(13.5, 37.5),
        segments=((3, 5, 7, 11, 13), (17, 19, 23, 29, 31, 37)))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    assert len(mollifier.segment_coefficients(ctx, 1, 1.0)) == 1287
    assert len(mollifier.segment_coefficients(ctx, 2, 1.0)) == 924
    with pytest.raises(ValueError, match="mollifier support exceeds cap"):
        mollifier.mollifier_coefficients(ctx, 1.0)
    # a single segment past the cap needs 10^6 terms; a lower cap shows it
    monkeypatch.setattr(mollifier, "_SUPPORT_CAP", 1000)
    with pytest.raises(ValueError, match="segment 1 support exceeds cap"):
        mollifier.segment_coefficients(ctx, 1, 1.0)


def test_dirichlet_dual_full_product(table_100k):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    g = characters.build_group(53)
    for weighted in (True, False):
        ctx = mollifier.MollifierContext(table_100k, lad, segs,
                                         weighted=weighted)
        for chi in characters.primitive_characters(g)[:8]:
            for alpha in (0.5, -0.5):
                e = mollifier.n_full(ctx, chi, alpha)
                d = mollifier.n_full(ctx, chi, alpha, mode="dirichlet")
                assert abs(d - e) < 1e-12
                coeffs = mollifier.mollifier_coefficients(ctx, alpha)
                v = mollifier.evaluate_coefficients(coeffs, chi)
                assert abs(v - e) < 1e-12


def test_evaluate_coefficients_deterministic(table_100k):
    ctx = _single_prime_ctx(table_100k)
    chi = characters.build_group(7).character(2)
    coeffs = mollifier.segment_coefficients(ctx, 1, 0.5)
    a = mollifier.evaluate_coefficients(coeffs, chi)
    b = mollifier.evaluate_coefficients(dict(reversed(coeffs.items())), chi)
    assert a == b  # summation order is fixed internally


def test_prime_sum_of_the_prime_two(table_100k):
    lad = mollifier.build_ladder(53, k=0.5, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chi = characters.primitive_characters(characters.build_group(53))[0]
    # P_2 = lambda(2) chi(2)/sqrt(2), so its modulus is 24/2^6 = 0.375
    assert abs(abs(ctx.prime_sum(chi, 2)) - 0.375) < 1e-12


def test_segment_prime_sum_bounds(table_100k):
    lad = mollifier.build_ladder(53, N=2, M=1, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    recs = mollifier.segment_prime_sum_bounds(ctx)
    assert [r["j"] for r in recs] == [1, 2]
    assert recs[0]["checked"] is False  # empty segment skipped
    r2 = recs[1]
    assert r2["checked"] is True
    assert abs(r2["value"] - table_100k.lam_at(2) ** 2 / 2) < 1e-15
    assert r2["lower"] == lad.ell[1] / (4 * 2)
    assert r2["upper"] == 2 * lad.ell[1] / 2
    assert r2["ok"] == (r2["lower"] <= r2["value"] <= r2["upper"])

    # override ladder without N: diagnostics report but do not check
    plain = mollifier.build_ladder(53, override_ell=(8, 2))
    ctx2 = mollifier.MollifierContext(table_100k, plain,
                                      mollifier.build_segments(53, plain))
    recs2 = mollifier.segment_prime_sum_bounds(ctx2)
    assert all(r["checked"] is False for r in recs2)
    assert recs2[1]["value"] > 0
