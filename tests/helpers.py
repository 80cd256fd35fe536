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

import numpy as np
from scipy.special import loggamma

from twistmoments import lvalues, sums


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


def gauss_sum_literal(chi, q: int) -> complex:
    """Definition sum: sum over a mod q of chi(a) e(a/q)."""
    return sum(complex(chi(a)) * np.exp(2j * np.pi * a / q)
               for a in range(q))


def central_values_direct(f, chis, cfg) -> list[complex]:
    """L(1/2, f tensor chi) for each primitive chi mod one q by the
    first-power route at cfg.X: per character, one compensated sum term by
    term over n = 1..n_cap, and the root factor i^kappa tau(chi)^2 / q from
    the literal Gauss sum."""
    q = chis[0].group.q
    ev = lvalues.default_evaluators(f.weight)[0]
    cap = lvalues.required_n_cap(q, cfg, f.weight)
    n = np.arange(1, cap + 1)
    coeff = f.lam[1:cap + 1] / np.sqrt(n)
    w1 = coeff * ev(n * (cfg.X / q))
    w2 = coeff * ev(n / (q * cfg.X))
    out = []
    for chi in chis:
        chiv = chi.values()[n % q]
        tau = gauss_sum_literal(chi, q)
        out.append(sums.block_sum_complex(w1 * chiv)
                   + (1, 1j, -1, -1j)[f.weight % 4] * tau * tau / q
                   * sums.block_sum_complex(w2 * np.conj(chiv)))
    return out


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
