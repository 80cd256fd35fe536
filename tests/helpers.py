"""Independent reference implementations used to cross-check the package.

Everything here is deliberately slow and obvious: trial division instead of
a sieve, the raw q-expansion instead of the squared-eta shortcut, literal
definition sums instead of folded contours.  Tests compare the fast
production paths against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import loggamma


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
