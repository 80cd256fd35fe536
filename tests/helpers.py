"""Independent reference implementations used to cross-check the package.

Everything here is deliberately slow and obvious: trial division instead of
a sieve, the raw q-expansion instead of the squared-eta shortcut, literal
definition sums instead of folded contours, one unbinned sum per character
instead of residue bins.  Tests compare the fast production paths against
these.
"""

from __future__ import annotations

import decimal
import itertools
import math

import mpmath
import numpy as np
from scipy.special import loggamma

from twistmoments import (arith, characters, hecke, lvalues, mollifier, sums,
                          weights)


def trial_primes(limit: int) -> list[int]:
    """All primes <= limit, by trial division."""
    out: list[int] = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def trial_factor(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def read_coefficient_file(path: str) -> list[int]:
    """Read an "n<TAB>a(n)" file, validating ascending 1-based indices."""
    coeffs: list[int] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            n_str, a_str = line.split("\t")
            if int(n_str) != len(coeffs) + 1:
                raise ValueError(f"{path}: expected index {len(coeffs)+1}, "
                                 f"got {n_str}")
            coeffs.append(int(a_str))
    if not coeffs:
        raise ValueError(f"{path}: empty coefficient file")
    return coeffs


def tau_q_expansion(n_max: int) -> list[int]:
    """tau(1..n_max) read off x prod_m (1 - x^m)^24, in exact integers.

    Quadratic in n_max and pure Python on purpose; keep n_max modest.
    """
    coeffs = [0] * n_max
    coeffs[0] = 1
    for m in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    return coeffs


_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


def square_trunc_biased(a: list[int], length: int) -> list[int]:
    """Exact coefficients of (sum a_i x^i)^2 below x^length, by one decimal
    square of the non-negative biased series.

    With c = max|a_i| every biased coefficient b_i = a_i + c lies in [0, 2c],
    so every coefficient of B(x)^2 is at most length (2c)^2 < 10^d and the
    base-10^d slots of B(10^d)^2 never carry into each other.  B = A + c U
    with U = sum_{i<length} x^i gives

        (A^2)_k = (B^2)_k - 2c sum_{i<=k} a_i - c^2 (k+1),   k < length.
    """
    vals = list(a[:length]) + [0] * (length - len(a))
    c = max(map(abs, vals), default=0)
    if c == 0:
        return [0] * length
    d = len(str(length * (2 * c) ** 2))
    packed = decimal.Decimal("".join([str(v + c).zfill(d) for v in vals]))
    square = _EXACT.multiply(packed, packed)
    # the square holds 2*length - 1 slots; drop the length - 1 lowest
    top = _EXACT.scaleb(square, -d * (length - 1))
    digits = str(top.to_integral_value(decimal.ROUND_DOWN, _EXACT))
    digits = digits.zfill(length * d)
    c2, twice_c = c * c, 2 * c
    return [int(digits[k * d:(k + 1) * d]) - twice_c * s - c2 * (k + 1)
            for k, s in enumerate(itertools.accumulate(vals))]


def jacobi_cube(length: int) -> list[int]:
    """Coefficients of prod (1-x^n)^3 = sum (-1)^k (2k+1) x^{k(k+1)/2}."""
    out = [0] * length
    k = 0
    while k * (k + 1) // 2 < length:
        out[k * (k + 1) // 2] = (2 * k + 1) * (-1 if k % 2 else 1)
        k += 1
    return out


def tau_by_biased_squares(n_max: int) -> list[int]:
    """tau(1..n_max) as the cube's 8th power, by three biased squarings."""
    series = jacobi_cube(n_max)
    for _ in range(3):
        series = square_trunc_biased(series, n_max)
    return series


def digit_rows(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python integers as digit rows: a sign mask and |v| in decimal digits,
    most significant first, all rows one width."""
    width = max((len(str(abs(v))) for v in values), default=1)
    text = "".join(str(abs(v)).zfill(width) for v in values)
    digits = np.frombuffer(text.encode(), np.uint8) - ord("0")
    return (np.array([v < 0 for v in values], dtype=bool),
            digits.reshape(len(values), width))


def limb_rows(values: list[int],
              width: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Python integers as carried limbs: a sign mask and uint16 limbs of
    |v| in base 10^width, most significant first, one more limb than the
    largest value needs (a leading limb of zeros)."""
    base = 10**width
    count = max((len(str(abs(v))) for v in values), default=1) // width + 2
    return (np.array([v < 0 for v in values], dtype=bool),
            [np.array([abs(v) // base**(count - 1 - l) % base
                       for v in values], dtype=np.uint16)
             for l in range(count)])


def tau_floats(n_max: int) -> np.ndarray:
    """tau(1..n_max) as float64, each decimal string of the tau table
    rounded by numpy's own parser: astype(np.float64) of
    hecke.ramanujan_tau_table, the route the eigenform once took."""
    return hecke.ramanujan_tau_table(n_max).astype(np.float64)


def row_values(neg: np.ndarray, digits: np.ndarray) -> list[int]:
    """The Python integers that digit rows hold."""
    return [(-1 if n else 1) * int("".join(map(str, row)))
            for n, row in zip(neg.tolist(), digits.tolist())]


def kloosterman_loop(u: int, v: int, q: int) -> complex:
    """S(u, v, q) as the straight complex sum over units h, one at a time."""
    total = 0j
    for h in range(1, q):
        if math.gcd(h, q) == 1:
            total += np.exp(2j * np.pi * ((u * h + v * pow(h, -1, q)) % q)
                            / q)
    return total


def conductor_by_periodicity(values: np.ndarray, q: int, divisors) -> int:
    """Smallest f | q with chi(a) = 1 for every unit a = 1 (mod f).

    Args:
        values: the character's value array over residues 0..q-1.
        q: the modulus.
        divisors: divisors of q in ascending order.
    """
    a = np.arange(q)
    unit = values != 0
    for f in divisors:
        sel = unit & (a % f == 1 % f)
        if np.abs(values[sel] - 1.0).max() < 1e-9:
            return f
    raise AssertionError("no divisor qualified; chi(1) != 1?")


def conductors_for_value_matrix(V: np.ndarray, q: int, divisors) -> np.ndarray:
    """Vectorized conductor_by_periodicity for a (characters x residues)
    value matrix; returns one conductor per row."""
    a = np.arange(q)
    unit = np.array([math.gcd(n, q) == 1 for n in range(q)])
    cond = np.full(V.shape[0], q)
    undecided = np.ones(V.shape[0], dtype=bool)
    for f in divisors:
        sel = unit & (a % f == 1 % f)
        ok = np.abs(V[:, sel] - 1.0).max(axis=1) < 1e-9
        cond[undecided & ok] = f
        undecided &= ~ok
    assert not undecided.any()
    return cond


def all_characters(group) -> list:
    """Every character of the group, ascending flat index."""
    return [characters.Character(group, i) for i in range(group.phi_q)]


def gauss_sum_literal(chi, q: int) -> complex:
    """Definition sum: sum over a mod q of chi(a) e(a/q)."""
    return sum(complex(chi(a)) * np.exp(2j * np.pi * a / q)
               for a in range(q))


def prime_sum_literal(chi, segment, table) -> complex:
    """sum over the segment's primes of lambda(p) chi(p) / sqrt(p), one
    character value at a time."""
    return sum((table.lam_at(p) * complex(chi(p)) / math.sqrt(p)
                for p in segment), 0j)


def tower_of(ctx, chi):
    """mollifier.tower of one character, from its entries of each rung's
    prime_sums transform, as moments.family_towers reads them."""
    return mollifier.tower(ctx, tuple(
        complex(mollifier.prime_sums(ctx, j)[chi.index])
        for j in range(1, ctx.ladder.R + 1)))


def central_values_direct(f, chis, cfg) -> list[complex]:
    """L(1/2, f tensor chi) for each primitive chi mod one q by the
    first-power route at cfg.X: per character, one compensated sum term by
    term over n = 1..n_cap, and the root factor i^12 tau(chi)^2 / q
    = tau(chi)^2 / q from the literal Gauss sum."""
    q = chis[0].group.q
    ev = lvalues.default_evaluators()[0]
    cap = lvalues.required_n_cap(q, cfg)
    n = np.arange(1, cap + 1)
    coeff = f.lam[1:cap + 1] / np.sqrt(n)
    w1 = coeff * ev(n * (cfg.X / q))
    w2 = coeff * ev(n / (q * cfg.X))
    out = []
    for chi in chis:
        chiv = chi(n)
        tau = gauss_sum_literal(chi, q)
        out.append(sums.block_sum_complex(w1 * chiv)
                   + tau * tau / q
                   * sums.block_sum_complex(w2 * np.conj(chiv)))
    return out


def chars_rows(q_list) -> list[tuple]:
    """The rows of a chars listing, (q, index, conductor, primitive, even)
    per character, for cli._render's generic column formatting: the route
    that cli._cmd_chars, formatting each group's lines directly, must match
    byte for byte."""
    rows = []
    for q in q_list:
        grp = characters.build_group(q)
        rows.extend(zip([q] * grp.phi_q, range(grp.phi_q), grp.conductors,
                        [c == q for c in grp.conductors], grp.even))
    return rows


def first_power_bins_one_pass(f, q, cfg) -> tuple:
    """The first-power residue bins (b1, b2) as one bincount over every
    n <= n_cap, the unblocked pass that lvalues._first_power_bins fills one
    block at a time."""
    ev = lvalues.default_evaluators()[0]
    cap = lvalues.required_n_cap(q, cfg)
    n = np.arange(1, cap + 1)
    coeff = f.lam[1:cap + 1] / np.sqrt(n)
    idx = n % q
    b2 = np.bincount(idx, weights=coeff * ev(n / (q * cfg.X)), minlength=q)
    b1 = b2 if cfg.X == 1 else np.bincount(
        idx, weights=coeff * ev(n * (cfg.X / q)), minlength=q)
    return b1, b2


def local_factor_literal(lam_p: float, p: int, k: float,
                         terms: int) -> float:
    """T_p of moments._local_factor term by term as its docstring
    writes it, every power and factorial taken afresh in each (i, l)
    term, the terms added in the same order."""
    lpow = [1.0, lam_p]
    for _ in range(terms - 1):
        lpow.append(lam_p * lpow[-1] - lpow[-2])
    total = 0.0
    for i in range(terms + 1):
        outer = lam_p ** i * k ** i / (p ** i * math.factorial(i))
        if outer == 0.0 or abs(outer) < 1e-320:
            break
        inner = sum((k - 1) ** l * lam_p ** l / math.factorial(l)
                    * lpow[i - l] for l in range(i + 1))
        total += outer * inner
    return total


def kernel_exact(kind: str, x: float, kappa: int = 12) -> float:
    """W(x) or W2(x) at 25 digits, rounded to a float.

    With a = kappa/2, z = 2 pi x and Q(a, y) = e^{-y} sum_{j<a} y^j / j!:
    W is E[Q(a, z e^{-V})] for V ~ N(0, 2), by mpmath's tanh-sinh quadrature
    on [-40, 60] (the Gaussian mass outside is below 1e-170), broken where
    Q climbs from 0 to 1.  W2 = E[Q(a, z/Y)] for Y ~ Gamma(a) is, by
    int_0^inf t^(nu-1) e^(-t - z/t) dt = 2 z^(nu/2) K_nu(2 sqrt z), the
    closed form (2/Gamma(a)) sum_{j<a} z^((a+j)/2) K_(a-j)(2 sqrt z) / j!.
    """
    a = kappa // 2
    with mpmath.workdps(25):
        z = 2 * mpmath.pi * mpmath.mpf(x)
        if kind == "W2":
            return float(2 / mpmath.gamma(a) * mpmath.fsum(
                z ** (mpmath.mpf(a + j) / 2)
                * mpmath.besselk(a - j, 2 * mpmath.sqrt(z))
                / mpmath.factorial(j) for j in range(a)))

        def integrand(v):
            y = z * mpmath.exp(-v)
            return mpmath.exp(-v * v / 4 - y) * mpmath.fsum(
                y ** j / mpmath.factorial(j) for j in range(a))

        lz = float(mpmath.log(z))
        breaks = sorted({-40.0, -20.0, 0.0, lz - 3, lz, lz + 3, 20.0, 60.0})
        return float(mpmath.quad(integrand, breaks)
                     / mpmath.sqrt(4 * mpmath.pi))


def w2_log_slope_exact(x: float, kappa: int = 12) -> float:
    """d log W2 / d log x at 25 digits over kernel_exact's W2, rounded to a
    float.

    With a, z and Q as in kernel_exact, dQ/dy = -e^{-y} y^(a-1)/(a-1)!, so
    z dW2/dz = -E[(z/Y)^a e^{-z/Y}]/(a-1)!, and the same Bessel integral at
    nu = 0 gives x W2'(x) = -2 z^a K_0(2 sqrt z) / ((a-1)!)^2.
    """
    a = kappa // 2
    with mpmath.workdps(25):
        z = 2 * mpmath.pi * mpmath.mpf(x)
        return float(-2 * z ** a * mpmath.besselk(0, 2 * mpmath.sqrt(z))
                     / mpmath.factorial(a - 1) ** 2
                     / kernel_exact("W2", x, kappa))


def contour_weight_two_sided(kind: str, x: float, kappa: int = 12,
                             c: float = 1.0, T: float | None = None,
                             h: float = 1.0 / 64) -> complex:
    """Trapezoid for the weight integral over the full segment [-T, T].

    No folding and no realness tricks: the raw complex value comes back so
    the imaginary part can be inspected directly.
    """
    s, kern = _two_sided_kernel(kind, kappa, c, T, h)
    return complex(np.sum(kern * np.exp(-s * math.log(2 * math.pi * x)))
                   * h / (2 * math.pi))


def contour_weight_samples(kind: str, xs, kappa: int = 12, c: float = 1.0,
                           T: float | None = None,
                           h: float = 1.0 / 64) -> np.ndarray:
    """Real parts of contour_weight_two_sided at every x in xs, with the
    Gamma factor formed once."""
    s, kern = _two_sided_kernel(kind, kappa, c, T, h)
    return np.array([(np.sum(kern * np.exp(-s * math.log(2 * math.pi * x)))
                      * h / (2 * math.pi)).real for x in xs])


def _two_sided_kernel(kind, kappa, c, T, h):
    """Nodes s = c + it, |t| <= T, and the trapezoid-weighted x-free factor
    Gamma-part / s of the weight integrand, from scipy's loggamma."""
    if T is None:
        T = 12.0 if kind == "W" else 40.0
    n = int(round(T / h))
    t = np.arange(-n, n + 1) * h
    s = c + 1j * t
    lg = loggamma(kappa / 2 + s) - loggamma(kappa / 2)
    ln_k = lg + s * s if kind == "W" else 2.0 * lg
    kern = np.exp(ln_k) / s
    kern[0] *= 0.5
    kern[-1] *= 0.5
    return s, kern


def searchsorted_spline(spline, t) -> np.ndarray:
    """The spline's values at t, each point's interval found by a binary
    search over the knots: the lookup the index arithmetic replaced."""
    knots = spline._x
    i = np.clip(np.searchsorted(knots, t, side="right") - 1,
                0, len(knots) - 2)
    d = t - knots[i]
    a, b, c, e = spline._coef[i].T
    return ((a * d + b) * d + c) * d + e


def searchsorted_weight(ev, x):
    """WeightEvaluator.__call__ on whole arrays with masks and a binary
    search per point, for the same contract: the left-edge value below the
    grid, 0 past the support, ValueError for a non-positive or NaN x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ValueError("weight argument must be positive")
    out = np.zeros(len(xs))
    low = xs < weights._GRID_LO
    out[low] = ev._left_val
    mid = ~low & (xs <= ev._support_end)
    if np.any(mid):
        out[mid] = np.exp(searchsorted_spline(ev._spline, np.log(xs[mid])))
    return out if np.ndim(x) else float(out[0])


# Multiplicative functions, prime sums and identities with no caller in the
# package, kept as oracles for the tests that pin their values.

def big_omega(n: int) -> int:
    """Omega(n): number of prime factors counted with multiplicity."""
    return sum(e for _, e in arith.factorize(n))


def divisor_count(n: int) -> int:
    """d(n) = prod (e+1)."""
    out = 1
    for _, e in arith.factorize(n):
        out *= e + 1
    return out


def w_of(n: int) -> int:
    """w(n) = prod alpha! over the exponents; w(p^a) = a!."""
    out = 1
    for _, e in arith.factorize(n):
        out *= math.factorial(e)
    return out


def lambda_tilde(table, n: int) -> float:
    """Completely multiplicative extension: prod lambda(p)^a over n's factors.

    Raises:
        ValueError: some prime factor of n exceeds the table range.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = 1.0
    for p, e in arith.factorize(n):
        if p > table.n_max:
            raise ValueError(f"prime {p} outside table range {table.n_max}")
        out *= table.lam_at(p) ** e
    return out


def mertens_log_sum(x: float) -> float:
    """Sum of (log p)/p over primes p <= x (equals log x + O(1))."""
    primes = arith.sieve_primes(int(x))
    if len(primes) == 0:
        return 0.0
    return float(np.sum(np.log(primes) / primes))


def decay_audit(ev, c_test: float) -> float:
    """Max of |W(x)| x^{c_test} over a log grid x in [1, 1e4]: the implied
    constant in the min(1, x^{-c}) decay bound at exponent c_test."""
    if not 0 < c_test < weights._A:
        raise ValueError(
            f"c_test must lie in (0, {weights._A}), got {c_test}")
    x = np.geomspace(1.0, 1e4, 200)
    return float(np.max(np.abs(ev.quad(x)) * x ** c_test))


def primitive_sum_identity(a: int, q: int, audit: bool = False) -> int:
    """Sum of chi(a) over primitive chi mod q, via the Mobius side.

    Returns sum over c | (q, a-1) of mu(q/c) phi(c).  With audit=True the
    left side is formed by direct summation of chi(a) over the primitive
    characters of build_group(q), each by the phase formula, and both sides
    are required to agree within 1e-6.

    Raises:
        ValueError: gcd(a, q) > 1.
    """
    if math.gcd(a, q) != 1:
        raise ValueError(f"need (a, q) = 1, got a={a}, q={q}")
    g = math.gcd(q, a - 1) if a != 1 else q
    rhs = sum(arith.mobius(q // c) * arith.euler_phi(c)
              for c in arith.divisors(q) if g % c == 0)
    if audit:
        grp = characters.build_group(q)
        prims = [i for i, c in enumerate(grp.conductors) if c == q]
        lhs = sum(complex(characters.Character(grp, i)(a)) for i in prims)
        if abs(lhs - rhs) > 1e-6:
            raise AssertionError(
                f"sum over primitive chi mod {q} of chi({a}) = {lhs}, "
                f"Mobius side = {rhs}")
    return rhs
