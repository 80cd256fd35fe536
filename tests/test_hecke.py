"""Eigenform coefficient tables: tau, Hecke relations, prime-sum diagnostics."""

import math

import numpy as np
import pytest

from twistmoments import arith, hecke

import helpers

KNOWN_TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def _ints(taus):
    return [int(t) for t in taus]


def test_tau_table_matches_q_expansion_oracle():
    got = _ints(hecke.ramanujan_tau_table(300))
    assert got == helpers.tau_q_expansion(300)
    assert got[:10] == KNOWN_TAU


def test_tau_table_tiny_sizes():
    # the leading slots of a short square can be zero; make sure the digit
    # string is padded instead of shifting every slot
    for n in (1, 2, 3, 6, 7, 11):
        assert _ints(hecke.ramanujan_tau_table(n)) == helpers.tau_q_expansion(n)


def test_tau_table_matches_biased_square_oracle():
    for n in [*range(1, 65), 20_000]:
        taus = hecke.ramanujan_tau_table(n)
        assert not taus.flags.writeable
        assert _ints(taus) == helpers.tau_by_biased_squares(n), n


def test_eigenform_lambda_matches_oracle_bits():
    n_max = 20_000
    lam = hecke.build_eigenform(n_max=n_max).lam
    tau = np.array([float(t) for t in helpers.tau_by_biased_squares(n_max)])
    # numpy's power, as the table divides by, not Python's: they differ in
    # the last bit at about 5 % of these n
    want = tau / np.arange(1, n_max + 1, dtype=np.float64) ** 5.5
    assert lam[0] == 0.0 and np.array_equal(lam[1:], want)


def _convolve_trunc(a, length):
    """Schoolbook square of sum a_i x^i below x^length, in exact integers."""
    out = [0] * length
    for i, u in enumerate(a[:length]):
        for j, v in enumerate(a[:length - i]):
            out[i + j] += u * v
    return out


def _square(a, length):
    """hecke._square_rows on Python integers."""
    return helpers.row_values(
        *hecke._square_rows(*helpers.digit_rows(a), length))


def test_eta6_sparse_stage_matches_schoolbook_square():
    for n in (1, 2, 3, 4, 50, 2000):
        want = _convolve_trunc(helpers.jacobi_cube(n), n)
        got = hecke._eta6(n)
        assert got.dtype == np.int64 and got.tolist() == want, n


@pytest.mark.parametrize("size,length,scale", [
    (40, 40, 10),           # small signed coefficients
    (40, 25, 10**6),        # output shorter than the input
    (25, 40, 10**6),        # output longer: the square's tail and zeros
    (60, 60, 2**70),        # coefficients past 2^63
    (1, 1, 5),
    (2, 7, 3),
])
def test_square_trunc_matches_exact_convolution(size, length, scale):
    rng = np.random.default_rng(size * length)
    for _ in range(5):
        a = [int(v) * scale // 7 for v in rng.integers(-7, 8, size=size)]
        assert _square(a, length) == _convolve_trunc(a, length)


def test_square_trunc_extreme_inputs():
    assert _square([0] * 9, 6) == [0] * 6
    assert _square([], 3) == [0, 0, 0]
    assert _square([5, -1], 0) == []
    # every coefficient at -c: the packed value is negative
    c = 2**64 + 13
    assert _square([-c] * 8, 8) == [c * c * (k + 1) for k in range(8)]
    # one coefficient at +c and the rest at -c
    a = [c] + [-c] * 30
    assert _square(a, 31) == _convolve_trunc(a, 31)


def _edge_palindrome(width):
    """A palindrome a with sum a_i^2 = 10^width/2 - 1 and mixed signs: the
    middle coefficient of its square is that sum, so the slot width of the
    squaring is exactly `width` and that slot sits at its upper limit."""
    s = 10**width // 2 - 1
    for m in range(1, math.isqrt(s) + 1, 2):
        rest = (s - m * m) // 2
        for x in range(math.isqrt(rest), 0, -1):
            y2 = rest - x * x
            y = math.isqrt(y2)
            z = math.isqrt(y2 - y * y)
            if y * y + z * z == y2 and y and z:
                return [x, -y, z, m, z, -y, x]
    raise AssertionError("no palindrome found")


@pytest.mark.parametrize("a", [
    [1, 1, -1, -1],          # width 1: c_3 = -4 = -(10/2 - 1)
    [1, -1, -1, 1],          # width 1: c_3 = +4
    _edge_palindrome(5),     # width 5: the middle slot is 49999
    _edge_palindrome(12),
])
def test_square_rows_balanced_slot_edges(a):
    s = sum(v * v for v in a)
    width = len(str(s))
    assert 10**width // 2 - 1 == s
    want = _convolve_trunc(a + [0] * len(a), 2 * len(a) - 1)
    assert max(map(abs, want)) == s
    assert min(want) < 0 < max(want)
    for length in range(2 * len(a) + 2):
        assert _square(a, length) == (want + [0] * length)[:length]


def test_pieces_cover_every_square_without_wrap():
    lengths = range(1, 5000)
    plans = [hecke._pieces(length) for length in lengths]
    for length, (pieces, levels) in zip(lengths, plans):
        piece, size = -(-length // pieces), 1 << levels
        # the least power of two that holds the square of one piece
        assert size // 2 < 2 * piece - 1 <= size
        assert 1 <= pieces <= hecke._P_MAX
    # the plan depends on the length alone, not on what was asked before
    assert [hecke._pieces(length) for length in reversed(lengths)] == \
        plans[::-1]


def _plan_changes(limit):
    """Every length below limit where _pieces picks another piece count
    than one term shorter, and that shorter length."""
    return sorted({at for length in range(2, limit)
                   if hecke._pieces(length)[0] != hecke._pieces(length - 1)[0]
                   for at in (length - 1, length)})


def test_square_rows_at_every_short_length():
    # every piece count, and every length whose square of a piece ends one
    # past a power of two, so a transform one point short would wrap
    rng = np.random.default_rng(11)
    for length in sorted({*range(1, 200), *_plan_changes(5000)}):
        a = [int(v) for v in rng.integers(-10**9, 10**9, size=length)]
        assert _square(a, length) == helpers.square_trunc_biased(a, length), \
            length


def test_tau_table_100k_matches_biased_square_oracle():
    # the benchmark's size: both squarings take 4-digit limbs here
    n = 100_000
    assert _ints(hecke.ramanujan_tau_table(n)) == \
        helpers.tau_by_biased_squares(n)


def _bounds(neg, digits, width, length):
    """The rounding bounds of squaring `length` rows with limbs of width
    digits, cut into pieces as _square_rows cuts them."""
    pieces, levels = hecke._pieces(length)
    piece = -(-length // pieces)
    norms = [[math.sqrt(float(np.dot(x.astype(np.int64), x)))
              for x in limb.reshape(pieces, piece)]
             for limb in hecke._balanced_limbs(neg[:length], digits[:length].T,
                                               width, pieces * piece)]
    return hecke._rounding_bounds(np.array(norms), levels)


@pytest.mark.parametrize("length", [1, 7, 100, 5000, 71_942])
def test_split_limbs_match_limbs_of_padded_rows(length):
    # the limbs built in place from the digit rows equal those built from a
    # copy of the rows zero-padded to whole pieces, bit for bit, with the
    # same top limb dropped when no row borrows into it; past the last row
    # every limb is zero
    rng = np.random.default_rng(length)
    vals = [int(v) * 10**12 + int(w) for v, w in
            zip(rng.integers(-10**9, 10**9, size=length),
                rng.integers(0, 10**12, size=length))]
    vals[0] = 10**21 - 1
    neg, digits = helpers.digit_rows(vals)
    # the rows as the squarings hand them over: one column per digit
    digits = np.asfortranarray(digits)
    width, limbs = hecke._split_limbs(neg, digits, length)
    pieces, _ = hecke._pieces(length)
    piece = -(-length // pieces)
    columns = np.zeros((digits.shape[1], pieces * piece), dtype=np.uint8)
    columns[:, :length] = digits.T
    signs = np.zeros(pieces * piece, dtype=bool)
    signs[:length] = neg
    want = hecke._balanced_limbs(signs, columns, width, pieces * piece)
    assert len(limbs) == len(want)
    for got, limb in zip(limbs, want):
        assert got.dtype == np.int16 and got.shape == (pieces, piece)
        assert np.array_equal(got.ravel(), limb)
        assert not got.ravel()[length:].any()


def test_limb_width_is_widest_within_bound():
    neg, digits = helpers.digit_rows(
        [v * 10**18 + 123456789 for v in range(-50, 50)])
    for length in (1, 7, 100):
        width, limbs = hecke._split_limbs(neg[:length], digits[:length],
                                          length)
        assert width == 4 and max(np.abs(x).max() for x in limbs) <= 5000
        assert _bounds(neg, digits, width, length).max() <= 0.25


def test_square_rows_narrows_limbs_past_the_bound():
    # every balanced 4-digit limb at +-5000 and 2^15 terms: the rounding
    # bound of 4-digit limbs passes 1/4, so the squaring takes 3-digit limbs
    length = 2**15
    top = int("5000" * 6)
    signs = np.random.default_rng(5).integers(0, 2, size=length)
    a = [top if s else -top for s in signs.tolist()]
    rows = helpers.digit_rows(a)
    assert _bounds(*rows, 4, length).max() > 0.25
    width, _ = hecke._split_limbs(*rows, length)
    assert width == 3 and _bounds(*rows, 3, length).max() <= 0.25
    assert _square(a, length) == helpers.square_trunc_biased(a, length)


def test_square_rows_raises_when_a_transform_is_off(monkeypatch):
    irfft = np.fft.irfft

    def shifted(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out += 0.3
        return out
    monkeypatch.setattr(np.fft, "irfft", shifted)
    with pytest.raises(ArithmeticError, match="from an integer"):
        _square([3, -1, 4, 1, -5], 5)


def test_tau_floats_match_the_parsed_strings():
    # every n <= 100,000: the floats read from the limbs are numpy's
    # parse of the decimal strings, bit for bit
    n = 100_000
    got = hecke.ramanujan_tau_table(n, floats=True)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), helpers.tau_floats(n).view(
        np.int64))


def _float_cases():
    """Integers at the edges of float64 rounding, up to 41 digits."""
    vals = [0, 1, -1, 9, 10**4 - 1, 10**4, 2**53 - 1, 2**53, 2**64 - 1,
            10**40, 10**41 - 1, -(10**41 - 1), 2**136 - 1]
    for shift in (0, 1, 11, 31, 32, 33, 63, 64, 65, 80):
        for top in (2**52, 2**53 - 1, 2**52 + 1, 0x1A2B3C4D5E6F7):
            # odd and even ties, and one above and below each: a half ulp
            tie = (2 * top + 1) << shift
            vals += [tie, tie - 1, tie + 1, -tie]
        # all 54 bits set: rounds up into the next binade
        vals += [(2**54 - 1) << shift, ((2**54 - 1) << shift) + 1]
    rng = np.random.default_rng(7)
    for digits in (15, 16, 17, 20, 28, 33, 40, 41):
        vals += [int(rng.integers(1, 10)) * 10**(digits - 1)
                 + int(rng.integers(0, 2**62)) * int(rng.integers(-1, 2))
                 for _ in range(50)]
    vals += [-v for v in vals[1::5]]
    assert max(map(abs, vals)) < 10**41
    return vals


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_limb_floats_round_like_the_string_parse(width):
    vals = _float_cases()
    sign, limbs = helpers.limb_rows(vals, width)
    got = hecke._limb_floats(sign, limbs, width)
    text = hecke._decimal_strings(*hecke._limb_digits(sign, list(limbs),
                                                      width))
    assert [int(t) for t in text] == vals
    want = text.astype(np.float64)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # and Python's correctly rounded int to float
    assert got.tolist() == [float(v) for v in vals]


def test_coefficient_lines_match_plain_format():
    vals = [0, 5, -5, 10**30, 1 - 10**30, -7, 0] * 200
    taus = hecke._decimal_strings(*helpers.digit_rows(vals))
    assert _ints(taus) == vals
    assert hecke.coefficient_lines(taus) == "".join(
        f"{n}\t{v}\n" for n, v in enumerate(vals, start=1))


def _check_tau_identities(n_max, min_checked):
    taus = [0] + _ints(hecke.ramanujan_tau_table(n_max))
    assert len(taus) == n_max + 1
    # Ramanujan: tau(n) = sigma_11(n) mod 691, for every n
    d = np.arange(1, n_max + 1, dtype=np.int64) % 691
    p11 = np.ones(n_max, dtype=np.int64)
    for _ in range(11):
        p11 = p11 * d % 691
    sigma = np.zeros(n_max + 1, dtype=np.int64)
    for k in range(1, n_max + 1):
        sigma[k::k] += p11[k - 1]
    assert [t % 691 for t in taus[1:]] == (sigma[1:] % 691).tolist()
    # tau(p^(a+1)) = tau(p) tau(p^a) - p^11 tau(p^(a-1)), exactly
    checked = 0
    for p in helpers.trial_primes(math.isqrt(n_max)):
        pa = p
        while pa * p <= n_max:
            prev = taus[pa // p]
            assert taus[pa * p] == taus[p] * taus[pa] - p**11 * prev, (p, pa)
            pa *= p
            checked += 1
    assert checked > min_checked
    # multiplicativity: tau(n) = tau(p^a) tau(n / p^a) with p^a || n and p
    # the least prime factor, for every n, again exactly
    spf = list(range(n_max + 1))
    for p in helpers.trial_primes(math.isqrt(n_max)):
        for m in range(p * p, n_max + 1, p):
            if spf[m] == m:
                spf[m] = p
    for n in range(2, n_max + 1):
        p = pa = spf[n]
        while n % (pa * p) == 0:
            pa *= p
        assert taus[n] == taus[pa] * taus[n // pa], n


def test_tau_table_20000_congruence_and_hecke_recursion():
    _check_tau_identities(20_000, 40)


def test_tau_table_100k_congruence_hecke_recursion_and_multiplicativity():
    _check_tau_identities(100_000, 90)


def test_tau_multiplicativity():
    taus = _ints(hecke.ramanujan_tau_table(200))
    assert taus[6 - 1] == taus[2 - 1] * taus[3 - 1]
    assert taus[200 - 1] == taus[8 - 1] * taus[25 - 1]


def test_tau_table_size_limit():
    with pytest.raises(ValueError):
        hecke.ramanujan_tau_table(hecke.TAU_N_MAX + 1)
    with pytest.raises(ValueError):
        hecke.ramanujan_tau_table(0)


def test_tau_file_round_trip(tmp_path):
    taus = hecke.ramanujan_tau_table(50)
    path = tmp_path / "tau.tsv"
    path.write_text(hecke.coefficient_lines(taus))
    assert helpers.read_coefficient_file(str(path)) == _ints(taus)
    lines = path.read_text().splitlines()
    assert lines[0] == "1\t1"
    assert len(lines) == 50


@pytest.mark.parametrize("body", [
    "",                    # empty
    "2\t-24\n",            # does not start at 1
    "1\t1\n3\t252\n",      # index gap
    "1\t1\n2 -24\n",       # missing tab
    "1\t1\n2\tx\n",        # non-integer entry
])
def test_coefficient_file_rejections(tmp_path, body):
    # the reader is the oracle of the tau file round trips, so it must
    # refuse a malformed file instead of reading past the fault
    path = tmp_path / "bad.tsv"
    path.write_text(body)
    with pytest.raises(ValueError):
        helpers.read_coefficient_file(str(path))


def test_eigenform_basic_identities():
    t = hecke.build_eigenform(n_max=10_000)
    assert t.lam[1] == 1.0
    assert t.lam_at(1) == 1.0
    # lambda(4) = lambda(2)^2 - 1 from the prime-power recursion
    assert abs(t.lam_at(4) - (t.lam_at(2) ** 2 - 1.0)) < 1e-12
    d = np.array([helpers.divisor_count(n) for n in range(1, 10_001)],
                 dtype=float)
    assert np.all(np.abs(t.lam[1:]) <= d + 1e-9)


def test_hecke_relation_on_random_pairs(table_100k):
    t = table_100k
    rng = np.random.default_rng(3)
    for _ in range(500):
        m, n = (int(v) for v in rng.integers(1, 317, size=2))
        lhs = t.lam_at(m) * t.lam_at(n)
        rhs = sum(t.lam_at(m * n // (d * d))
                  for d in arith.divisors(math.gcd(m, n)))
        assert abs(lhs - rhs) < 1e-10, (m, n)


def test_lambda_tilde(table_100k):
    t = table_100k
    want = t.lam_at(2) ** 2 * t.lam_at(3)
    assert abs(helpers.lambda_tilde(t, 12) - want) < 1e-15
    for n in range(1, 10_001):
        if arith.mobius(n) != 0:
            diff = helpers.lambda_tilde(t, n) - t.lam_at(n)
            assert abs(diff) < 1e-12 * helpers.divisor_count(n), n
    with pytest.raises(ValueError):
        helpers.lambda_tilde(t, 0)


def test_rankin_prime_sum_values(table_100k):
    t = table_100k
    assert abs(hecke.rankin_prime_sum(t, 2) - t.lam_at(2) ** 2 / 2) < 1e-15
    assert abs(hecke.rankin_prime_sum(t, 100) - 0.8690134446666661) < 1e-12
    with pytest.raises(ValueError):
        hecke.rankin_prime_sum(t, 2 * t.n_max)


def test_rankin_tracks_loglog(table_100k):
    t = table_100k
    vals = [hecke.rankin_prime_sum(t, x) for x in (10.0, 1e2, 1e3, 1e4, 1e5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    resid = [hecke.rankin_prime_sum(t, x) - math.log(math.log(x))
             for x in (1e3, 1e4, 1e5)]
    assert max(resid) - min(resid) < 0.05
    assert abs(resid[-1] + 0.687356) < 1e-4


def test_mertens_log_sum():
    assert helpers.mertens_log_sum(1.5) == 0.0
    assert abs(helpers.mertens_log_sum(2) - math.log(2) / 2) < 1e-15
    want = sum(math.log(p) / p for p in (2, 3, 5, 7))
    assert abs(helpers.mertens_log_sum(10) - want) < 1e-12
    resid = helpers.mertens_log_sum(1e5) - math.log(1e5)
    assert abs(resid + 1.3286305110533725) < 1e-9


def test_shared_eigenform_cache_serves_prefix(tmp_path):
    cache = str(tmp_path)
    big = hecke.shared_eigenform(3000, cache_dir=cache)
    assert big.n_max == 3000
    small = hecke.shared_eigenform(1000, cache_dir=cache)
    assert small.n_max == 1000
    assert small.source.startswith("cache:")
    assert np.array_equal(small.lam, hecke.build_eigenform(n_max=1000).lam)
    assert len(list(tmp_path.glob("eigenform_*.npy"))) == 1
    # a file under another key (an older format) is never read
    stale = tmp_path / "eigenform_12_5000_000000000000.npy"
    np.save(stale, np.zeros(5001))
    again = hecke.shared_eigenform(4000, cache_dir=cache)
    assert again.n_max == 4000 and not again.source.startswith("cache:")
    assert len(list(tmp_path.glob("eigenform_*.npy"))) == 3


@pytest.mark.parametrize("n", [2, 4, 5, 10, 25, 27, 97, 1000])
def test_validation_flags_each_perturbed_entry(n):
    # primes, prime powers (the Hecke recursion) and coprime products
    # (multiplicativity) are all read by the one relation
    lam = np.array(hecke.build_eigenform(n_max=1000).lam)
    hecke._validate_table(lam, 1000)
    lam[n] += 1e-6
    with pytest.raises(ValueError, match="Hecke relation fails"):
        hecke._validate_table(lam, 1000)


def test_validation_flags_deligne_at_a_large_prime():
    # 997 > n_max / 2 enters the relation only as lambda(997) lambda(1),
    # so only the bound at the primes sees it
    lam = np.array(hecke.build_eigenform(n_max=1000).lam)
    lam[997] = 2.5
    with pytest.raises(ValueError, match="Deligne"):
        hecke._validate_table(lam, 1000)


@pytest.mark.parametrize("n, check", [(1, r"lambda\(1\)"), (2, "Deligne"),
                                      (10, "Hecke relation"),
                                      (997, "Deligne")])
def test_validation_rejects_nan(n, check):
    # each check must fail for NaN, and the first one to read the entry
    # says so: lambda(1), the bound at a prime, the relation at a composite
    lam = np.array(hecke.build_eigenform(n_max=1000).lam)
    lam[n] = np.nan
    with pytest.raises(ValueError, match=check):
        hecke._validate_table(lam, 1000)


def _validation_message(lam, n_max):
    with pytest.raises(ValueError) as info:
        hecke._validate_table(lam, n_max)
    return str(info.value)


@pytest.mark.parametrize("n, value, check", [
    (5, None, "Hecke relation"),          # first block, read in every block
    (70_001, None, "Hecke relation"),     # a later block
    (99_991, 2.5, "Deligne"),             # a prime in a later block
    (131_073, None, "Hecke relation"),    # the last index of a block
    (199_999, 2.5, "Deligne"),            # a prime in the last block
    (200_000, None, "Hecke relation"),    # the last index of the table
])
@pytest.mark.parametrize("block", [1 << 12, None], ids=["4096", "default"])
def test_blocked_validation_keeps_the_one_pass_message(n, value, check,
                                                       block, monkeypatch):
    # the count of failing indices, the first n and its p, or the first
    # prime past the bound, exactly as one pass over the whole table says
    n_max = 200_000
    lam = np.array(hecke.shared_eigenform(n_max).lam)
    hecke._validate_table(lam, n_max)
    lam[n] = lam[n] + 1e-6 if value is None else value
    if block is not None:
        monkeypatch.setattr(hecke, "_VALIDATE_BLOCK", block)
    got = _validation_message(lam, n_max)
    monkeypatch.setattr(hecke, "_VALIDATE_BLOCK", n_max)
    assert got == _validation_message(lam, n_max)
    assert got.startswith(check)


def test_shared_eigenform_rejects_invalid_cache(tmp_path):
    cache = str(tmp_path)
    hecke.shared_eigenform(500, cache_dir=cache)
    (path,) = tmp_path.glob("eigenform_*.npy")
    lam = np.load(path)
    # lambda(15) = lambda(3) lambda(5) with its sign flipped stays within the
    # Deligne bound and off the prime powers: only multiplicativity sees it
    for n in (7, 15):
        bad = lam.copy()
        bad[n] = -bad[n]
        np.save(path, bad)
        with pytest.raises(ValueError, match="corrupt cache file"):
            hecke.shared_eigenform(500, cache_dir=cache)
    np.save(path, lam[:100])  # shorter than the name says
    with pytest.raises(ValueError, match="corrupt cache file"):
        hecke.shared_eigenform(500, cache_dir=cache)
    whole = path.read_bytes()
    for body in (b"not a table", b"", whole[:40], whole[:-8]):
        path.write_bytes(body)
        with pytest.raises(ValueError, match="corrupt cache file"):
            hecke.shared_eigenform(500, cache_dir=cache)


def test_shared_eigenform_reuses_table():
    a = hecke.shared_eigenform(1000)
    assert a.n_max == 1000
    b = hecke.shared_eigenform(500)
    assert b.n_max == 500 and len(b.lam) == 501
    assert np.shares_memory(b.lam, a.lam)
    assert np.array_equal(b.lam, a.lam[:501])
    c = hecke.shared_eigenform(1200)
    assert c.n_max == 1200
    assert c.lam[1] == 1.0
