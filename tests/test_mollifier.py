"""Mollifier tower: ladder, prime segments, truncated exponentials,
the short Dirichlet polynomials and their coefficient expansions."""

import cmath
import itertools
import math

import numpy as np
import pytest
import sympy

from twistmoments import characters, hecke, mollifier

import helpers


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


def test_ladder_requires_schedule_or_override():
    with pytest.raises(ValueError):
        mollifier.build_ladder(2, override_ell=(8, 2))


def test_segments_desk_examples():
    lad = mollifier.build_ladder(101, override_ell=(4, 2))
    segs = mollifier.build_segments(101, lad)
    assert segs.segments == ((), (2, 3))

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


def _single_prime_ctx(table, q=7, p=5, ell=2):
    lad = mollifier.build_ladder(q, override_ell=(ell,))
    segs = mollifier.PrimeSegments(q=q, segments=((p,),))
    return mollifier.MollifierContext(table, lad, segs)


def _segments_ctx(table, q, *segments):
    """A context at q with the given prime segments, one rung each."""
    lad = mollifier.build_ladder(
        q, override_ell=tuple(2 * (len(segments) - j)
                              for j in range(len(segments))))
    segs = mollifier.PrimeSegments(q=q, segments=segments)
    return mollifier.MollifierContext(table, lad, segs)


def test_prime_poly_examples(table_100k):
    t = table_100k
    ctx = _segments_ctx(t, 7, (), (3, 5))
    assert not mollifier.prime_sums(ctx, 1).any()
    want = t.lam_at(3) / math.sqrt(3) + t.lam_at(5) / math.sqrt(5)
    assert abs(mollifier.prime_sums(ctx, 2)[0] - want) < 1e-15


def test_prime_poly_triangle_bound(table_100k):
    seg = (2, 3, 5, 7, 11)
    cap = sum(abs(table_100k.lam_at(p)) / math.sqrt(p) for p in seg)
    vals = mollifier.prime_sums(_segments_ctx(table_100k, 53, seg), 1)
    assert len(vals) == 52
    assert np.abs(vals).max() <= cap + 1e-12


def test_context_weight_modes(table_100k):
    # the one weighting: lambda(p) chi(p) / sqrt(p)
    ctx = _single_prime_ctx(table_100k)
    assert abs(mollifier.prime_sums(ctx, 1)[0]
               - table_100k.lam_at(5) / math.sqrt(5)) < 1e-15


def test_context_validates_segment_count(table_100k):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))  # R = 2
    segs = mollifier.PrimeSegments(q=53, segments=((2,),))
    with pytest.raises(ValueError):
        mollifier.MollifierContext(table_100k, lad, segs)


def test_n_poly_single_prime_binomial(table_100k):
    ctx = _single_prime_ctx(table_100k)
    chi = characters.Character(characters.build_group(7), 1)
    alpha = 0.7
    P = helpers.prime_sum_literal(chi, (5,), table_100k)
    want = 1 + alpha * P + (alpha * P) ** 2 / 2
    assert abs(mollifier.n_poly(ctx, chi, 1, alpha) - want) < 1e-12
    assert abs(mollifier.n_poly(ctx, chi, 1, 0.0) - 1.0) < 1e-15


def test_n_poly_against_monomial_expansion(table_100k):
    q = 11
    lad = mollifier.build_ladder(q, override_ell=(4,))
    segs = mollifier.PrimeSegments(q=q, segments=((3, 5),))
    g = characters.build_group(q)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    for chi in (characters.Character(g, 1), characters.Character(g, 3)):
        for alpha in (0.5, -0.5, 1.0):
            want = 0j
            for m in range(5):
                for tup in itertools.product((3, 5), repeat=m):
                    term = alpha ** m / math.factorial(m)
                    for p in tup:
                        term *= table_100k.lam_at(p) * chi(p) / math.sqrt(p)
                    want += term
            coeffs = mollifier.segment_coefficients(ctx, 1, alpha)
            for mode, got in (
                    ("exp", mollifier.n_poly(ctx, chi, 1, alpha)),
                    ("dirichlet",
                     mollifier.evaluate_coefficients(coeffs, chi))):
                assert abs(got - want) < 1e-12, (mode, alpha)


def test_n_poly_argument_validation(table_100k):
    ctx = _single_prime_ctx(table_100k)
    chi = characters.Character(characters.build_group(7), 1)
    with pytest.raises(ValueError):
        mollifier.n_poly(ctx, chi, 0, 1.0)
    with pytest.raises(ValueError):
        mollifier.n_poly(ctx, chi, 2, 1.0)


def test_q_poly_scaling_identity(table_100k):
    ctx = _single_prime_ctx(table_100k)  # k = 1: c = 64, r = 3
    chi = characters.Character(characters.build_group(7), 1)
    lad = ctx.ladder
    P = helpers.prime_sum_literal(chi, (5,), table_100k)
    Q = helpers.tower_of(ctx, chi).Q[0]
    root = abs(Q) ** (1 / (lad.r_k * lad.ell[0]))
    assert abs(root - lad.c_k * abs(P) / lad.ell[0]) < 1e-9


def test_q_poly_edges(table_100k):
    lad = mollifier.build_ladder(7, override_ell=(2,))
    segs = mollifier.PrimeSegments(q=7, segments=((),))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    chi = characters.Character(characters.build_group(7), 1)
    assert helpers.tower_of(ctx, chi).Q == (0,)


def test_q_poly_guard_at_desk_modulus(table_100k):
    lad = mollifier.build_ladder(53, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    g = characters.build_group(53)
    ell2 = lad.ell[1]
    P2 = mollifier.prime_sums(ctx, 2)
    for chi in characters.primitive_characters(g)[:12]:
        P = P2[chi.index]
        assert abs(P) >= ell2 / 60  # |lambda(2)|/sqrt(2) = 0.375 for all chi
        assert abs(helpers.tower_of(ctx, chi).Q[1]) >= 1.0 - 1e-12


@pytest.mark.parametrize("q", [53, 101])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_tower_matches_the_scalar_routes(q, k, table_100k):
    lad = mollifier.build_ladder(q, k=k, override_ell=(8, 2))
    ctx = mollifier.MollifierContext(table_100k, lad,
                                     mollifier.build_segments(q, lad))
    full = mollifier.mollifier_coefficients(ctx, k)
    full1 = mollifier.mollifier_coefficients(ctx, k - 1)
    sums = [mollifier.prime_sums(ctx, j) for j in (1, 2)]
    for chi in characters.primitive_characters(characters.build_group(q)):
        tw = helpers.tower_of(ctx, chi)
        for j, (ell, seg) in enumerate(zip(lad.ell, ctx.segments.segments),
                                       1):
            P = complex(sums[j - 1][chi.index])
            assert tw.P[j - 1] == P
            assert abs(P - helpers.prime_sum_literal(chi, seg, table_100k)) \
                <= 1e-14
            assert tw.Nk[j - 1] == mollifier.n_poly(ctx, chi, j, k)
            assert tw.Nk1[j - 1] == mollifier.n_poly(ctx, chi, j, k - 1)
            assert tw.Q[j - 1] == mollifier._ipow(lad.c_k * P / ell,
                                                  lad.r_k * ell)
        assert abs(tw.N - mollifier.evaluate_coefficients(full, chi)) < 1e-10
        assert abs(tw.N1
                   - mollifier.evaluate_coefficients(full1, chi)) < 1e-10


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
    segs = mollifier.PrimeSegments(q=q, segments=((3,), (5, 7)))
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
        q=101, segments=((3, 5, 7, 11, 13), (17, 19, 23, 29, 31, 37)))
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
    # at k = 0.5 the tower's products are N(chi, 0.5) and N(chi, -0.5)
    lad = mollifier.build_ladder(53, k=0.5, override_ell=(8, 2))
    segs = mollifier.build_segments(53, lad)
    g = characters.build_group(53)
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    for chi in characters.primitive_characters(g)[:8]:
        tw = helpers.tower_of(ctx, chi)
        for alpha, e in ((0.5, tw.N), (-0.5, tw.N1)):
            d = math.prod(mollifier.evaluate_coefficients(
                mollifier.segment_coefficients(ctx, j, alpha), chi)
                for j in (1, 2))
            assert abs(d - e) < 1e-12
            coeffs = mollifier.mollifier_coefficients(ctx, alpha)
            v = mollifier.evaluate_coefficients(coeffs, chi)
            assert abs(v - e) < 1e-12


def test_evaluate_coefficients_deterministic(table_100k):
    ctx = _single_prime_ctx(table_100k)
    chi = characters.Character(characters.build_group(7), 2)
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
    P = mollifier.prime_sums(ctx, 2)[chi.index]
    assert abs(abs(P) - 0.375) < 1e-12


@pytest.mark.parametrize("q, ell, segment", [
    (53, (8, 2), None),
    (101, (8, 2), None),
    (1024, (8, 2), None),         # segment 2 is (2, 3, 5), and 2 divides q
    (53, (2,), tuple(p for p in sympy.primerange(2, 400))),
    (1024, (2,), tuple(p for p in sympy.primerange(2, 200))),
])
def test_prime_sums_against_the_literal_sum(q, ell, segment, table_100k):
    # every character's P_j from the transform against
    # sum lambda(p) chi(p)/sqrt(p) one prime at a time, on the desk ladder's
    # segments and on long segments whose primes pass q and share residues
    lad = mollifier.build_ladder(q, override_ell=ell)
    segs = (mollifier.build_segments(q, lad) if segment is None else
            mollifier.PrimeSegments(q=q, segments=(segment,)))
    ctx = mollifier.MollifierContext(table_100k, lad, segs)
    g = characters.build_group(q)
    for j, seg in enumerate(segs.segments, 1):
        got = mollifier.prime_sums(ctx, j)
        assert got.shape == (g.phi_q,)
        for chi in helpers.all_characters(g):
            want = helpers.prime_sum_literal(chi, seg, table_100k)
            assert abs(got[chi.index] - want) <= 1e-13, (j, chi)
