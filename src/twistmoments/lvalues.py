"""Central values L(1/2, f tensor chi) via two approximate functional
equations, with envelope-driven truncation and mutual cross-validation.

First-power route (exact for every balance parameter X > 0):

    L = sum_n lambda(n) chi(n) / sqrt(n) W(n X / q)
      + iota_chi sum_n lambda(n) chibar(n) / sqrt(n) W(n / (q X))

Squared route:

    |L|^2 = 2 sum_{a,b} lambda(a) lambda(b) chi(a) chibar(b) / sqrt(ab)
                 W2(2 pi a b / q^2)

(The 2 pi in the W2 argument is forced: it is the unique scaling under which
the contour-shift derivation closes, since the completed L-function of the
twist carries (q/2pi)^s per factor; numerically the two routes then agree to
~1e-10 relative, while dropping the 2 pi leaves a 30-50% mismatch.)

Truncation lengths come from the measured decay envelope of the kernels: the
cap is the smallest index whose kernel argument passes the point where the
running majorant of |W| drops below tail_eps / SAFETY.  That is far tighter
than a power-law bound (W decays like exp(-log^2), W2 like exp(-c sqrt(x)))
and is validated by the doubling test: doubling the cap moves values by well
under 10 * tail_eps.

The family route bins coefficients by residue class mod q once
(O(n_cap)), then each character costs one length-q dot product.  The squared
route is paid per family, not per character: for units a, b mod q,
chi(a) chibar(b) = chi(a b^-1), so every primitive chi reads one real
length-q table G built in O(m_cap log m_cap), and |L|^2 = 2 sum_c Re chi(c)
G[c] is one more length-q dot.

`family_values` is the one way a family is built.  Callers build it once per
(modulus, config) and hand the records to every moment and audit; each record
carries the primitive character it was evaluated at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import characters, sums, weights
from .hecke import EigenformTable


@dataclass(frozen=True)
class AfeConfig:
    """Truncation and audit policy for the functional-equation sums.

    tail_eps is the target absolute tail of each truncated sum.
    audit_count characters per family get the expensive |L|^2 double-sum
    cross-check (0 disables it).
    """

    X: float = 1.0
    tail_eps: float = 1e-8
    audit_count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.X <= 0:
            raise ValueError(f"X must be positive, got {self.X}")
        if self.tail_eps <= 0:
            raise ValueError("tail_eps must be positive")


@dataclass(frozen=True)
class CentralValue:
    """One family member: the primitive character chi, L(1/2, f tensor chi)
    from the first-power route, |L|^2 from the squared route when audited
    (else |value|^2), and their mismatch."""

    chi: characters.Character
    value: complex
    sq_direct: float
    residual: float
    audited: bool


DEFAULT_CONFIG = AfeConfig()

# divides tail_eps before the envelope lookup, absorbing the divisor-weighted
# mass of the terms past the cutoff
SAFETY = 8.0
# largest relative mismatch allowed between the two routes on an audited
# character
CROSS_TOL = 1e-3
# largest truncation length either route may ask for
CAP_LIMIT = 200_000_000
# relative-residual denominator floor: below this scale the two routes are
# compared at absolute resolution instead of relative
_RESIDUAL_FLOOR = 1e-2


@lru_cache(maxsize=8)
def default_evaluators(kappa: int) -> tuple[weights.WeightEvaluator,
                                            weights.WeightEvaluator]:
    """Shared grid-backed evaluators (W, W2) for one eigenform weight."""
    return (weights.WeightEvaluator("W", kappa=kappa),
            weights.WeightEvaluator("W2", kappa=kappa))


def required_n_cap(q: int, cfg: AfeConfig = DEFAULT_CONFIG,
                   kappa: int = 12) -> int:
    """Truncation length for the first-power route at modulus q."""
    ev = default_evaluators(kappa)[0]
    x_eps = ev.envelope_cutoff(cfg.tail_eps / SAFETY)
    cap = int(np.ceil(x_eps * q * max(cfg.X, 1.0 / cfg.X)))
    if cap > CAP_LIMIT:
        raise ValueError(f"n_cap {cap} exceeds the limit "
                         f"{CAP_LIMIT} at q={q}")
    return cap


def required_m_cap(q: int, cfg: AfeConfig = DEFAULT_CONFIG,
                   kappa: int = 12) -> int:
    """Truncation length (on the product ab) for the squared route."""
    ev2 = default_evaluators(kappa)[1]
    x_eps = ev2.envelope_cutoff(cfg.tail_eps / SAFETY)
    cap = int(np.ceil(x_eps * q * q / (2 * np.pi)))
    if cap > CAP_LIMIT:
        raise ValueError(f"m_cap {cap} exceeds the limit "
                         f"{CAP_LIMIT} at q={q}; the squared route "
                         "is an audit tool, not a production path")
    return cap


def _check_table(f: EigenformTable, cap: int):
    if cap > f.n_max:
        raise ValueError(
            f"eigenform table covers n <= {f.n_max} but the truncation "
            f"needs n <= {cap}; rebuild the table with a larger n_max")


def _w2_table(q: int, cap: int, kappa: int) -> np.ndarray:
    """W2(2 pi m / q^2) / sqrt(m) for m = 1..cap."""
    m = np.arange(1, cap + 1)
    return default_evaluators(kappa)[1](m * (2 * np.pi / (q * q))) / np.sqrt(m)


def central_value_sq(f: EigenformTable, chi: characters.Character,
                     cfg: AfeConfig = DEFAULT_CONFIG) -> float:
    """|L(1/2, f tensor chi)|^2 by the squared route for one character.

    This is the per-character oracle for `family_values`, which reads the
    shared residue table instead; no package code calls it, and it is kept
    for the tests and for the name perfbench/trace_cli.py wraps.  Groups the
    double sum by the product m = ab: one pass over a with a strided dot
    against the W2(2 pi m/q^2)/sqrt(m) table.
    """
    if not chi.is_primitive:
        raise ValueError(f"central_value_sq needs a primitive character, "
                         f"got {chi!r}")
    q = chi.group.q
    cap = required_m_cap(q, cfg, f.weight)
    _check_table(f, cap)
    w2s = _w2_table(q, cap, f.weight)
    chiv = chi.values()[np.arange(1, cap + 1) % q]
    u = f.lam[1:cap + 1] * chiv            # lambda(a) chi(a), index a-1
    vbar = np.conj(u)                      # lambda(b) chibar(b), index b-1
    # ordered pairs (a, b), ab <= cap, split at a0 = isqrt(cap): the short-a
    # half loops over a, the long-a half over b, so the Python-level loop
    # count is 2 sqrt(cap) instead of cap
    a0 = int(np.sqrt(cap))
    while (a0 + 1) * (a0 + 1) <= cap:
        a0 += 1
    partials = np.empty(a0 + cap // (a0 + 1), dtype=complex)
    for a in range(1, a0 + 1):
        top = cap // a
        # strided view of W2(2 pi ab/q^2)/sqrt(ab) at b = 1..top for this a
        partials[a - 1] = u[a - 1] * np.dot(vbar[:top], w2s[a - 1::a][:top])
    for b in range(1, cap // (a0 + 1) + 1):
        hi = cap // b
        partials[a0 + b - 1] = vbar[b - 1] * np.dot(
            u[a0:hi], w2s[(a0 + 1) * b - 1::b][:hi - a0])
    total = 2.0 * sums.block_sum_complex(partials)
    scale = max(abs(total.real), 1e-12)
    if abs(total.imag) > 1e-8 * scale:
        raise AssertionError(
            f"squared-route imaginary part {total.imag:.3e} too large "
            f"(real {total.real:.3e})")
    return total.real


def _unit_inverses(q: int) -> np.ndarray:
    """c^-1 mod q at each unit c, 0 at the non-units."""
    inv = np.zeros(q, dtype=np.int64)
    for c in range(1, q):
        if math.gcd(c, q) == 1:
            inv[c] = pow(c, -1, q)
    return inv


def _check_inverse_symmetry(g: np.ndarray, inv: np.ndarray) -> None:
    """G[c] = G[c^-1] (swap a and b), so sum_c chi(c) G[c] is real; this
    stands in for the per-character imaginary-part check."""
    units = inv > 0
    gap = np.max(np.abs(g[units] - g[inv[units]]))
    scale = max(float(np.max(np.abs(g))), 1e-300)
    if gap > 1e-8 * scale:
        raise AssertionError(f"residue table not inverse-symmetric: "
                             f"gap {gap:.3e} at max |G| {scale:.3e}")


def _residue_table(f: EigenformTable, q: int, cap: int) -> np.ndarray:
    """G[c] = sum of lambda(a) lambda(b) W2(2 pi ab/q^2)/sqrt(ab) over the
    units a, b mod q with ab <= cap and a b^-1 = c (mod q).

    For primitive chi mod q, |L(1/2, f tensor chi)|^2 = 2 sum_c chi(c) G[c].
    The pairs are split at isqrt(cap) as in `central_value_sq`, with a
    bincount over the residue of the long index in place of each dot; the
    short index, a unit, then permutes the bins onto a b^-1.
    """
    w2s = _w2_table(q, cap, f.weight)
    res = np.arange(1, cap + 1) % q          # residue of a (or b), index a-1
    inv = _unit_inverses(q)
    binv = inv[res]                          # residue of a^-1, 0 off units
    lam = np.where(binv > 0, f.lam[1:cap + 1], 0.0)
    d = np.arange(q)
    g = np.zeros(q)
    a0 = math.isqrt(cap)
    for a in range(1, a0 + 1):
        if lam[a - 1] == 0.0:
            continue
        top = cap // a
        h = np.bincount(binv[:top], weights=lam[:top] * w2s[a - 1::a][:top],
                        minlength=q)
        g[res[a - 1] * d % q] += lam[a - 1] * h
    for b in range(1, cap // (a0 + 1) + 1):
        if lam[b - 1] == 0.0:
            continue
        hi = cap // b
        h = np.bincount(res[a0:hi], weights=lam[a0:hi]
                        * w2s[(a0 + 1) * b - 1::b][:hi - a0], minlength=q)
        g[d * binv[b - 1] % q] += lam[b - 1] * h
    _check_inverse_symmetry(g, inv)
    return g


def _residual(value: complex, sq: float) -> float:
    lhs = abs(value) ** 2
    return abs(lhs - sq) / max(lhs, abs(sq), _RESIDUAL_FLOOR)


def family_values(f: EigenformTable, q: int,
                  cfg: AfeConfig = DEFAULT_CONFIG) -> list[CentralValue]:
    """L(1/2, f tensor chi) over every primitive chi mod q, ascending index.

    The records are the family that moments and audits take: build it once
    per modulus and pass it on.  Since the indices ascend, chi-bar's record
    is found by looking up chi.conjugate_index() among them.

    The audit subsample (cfg.audit_count characters, seeded choice) is
    recomputed through both independent routes, the squared one from the
    family's residue table; the squared route is skipped with a flag when
    its truncation would outrun the eigenform table.
    """
    prims = characters.primitive_characters(characters.build_group(q))
    ev = default_evaluators(f.weight)[0]
    cap = required_n_cap(q, cfg, f.weight)
    _check_table(f, cap)

    n = np.arange(1, cap + 1)
    coeff = f.lam[1:cap + 1] / np.sqrt(n)
    idx = n % q
    b2 = np.bincount(idx, weights=coeff * ev(n / (q * cfg.X)), minlength=q)
    # at X = 1 both sums weigh n by W(n/q)
    b1 = b2 if cfg.X == 1 else np.bincount(
        idx, weights=coeff * ev(n * (cfg.X / q)), minlength=q)

    audit_set: set[int] = set()
    if cfg.audit_count > 0:
        try:
            m_cap = required_m_cap(q, cfg, f.weight)
            can_audit = m_cap <= f.n_max
        except ValueError:
            can_audit = False
        if can_audit:
            rng = np.random.default_rng(cfg.seed)
            count = min(cfg.audit_count, len(prims))
            audit_set = set(
                int(prims[i].index) for i in
                rng.choice(len(prims), size=count, replace=False))
            g = _residue_table(f, q, m_cap)

    out = []
    for chi in prims:
        v = chi.values()
        value = complex(v @ b1) + characters.iota(chi, f.weight, v) * complex(
            v @ b2).conjugate()
        if chi.index in audit_set:
            # G[c] = G[c^-1] and chi(c^-1) = conj chi(c): the sum is real
            sq = 2.0 * float(v.real @ g)
            audited = True
        else:
            sq = abs(value) ** 2
            audited = False
        res = _residual(value, sq)
        if audited and res > CROSS_TOL:
            raise AssertionError(
                f"q={q} chi_index={chi.index}: squared-route residual "
                f"{res:.3e} beyond {CROSS_TOL:g}")
        out.append(CentralValue(chi=chi, value=value, sq_direct=sq,
                                residual=res, audited=audited))
    return out
