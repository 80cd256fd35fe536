"""Central values L(1/2, f tensor chi) via two approximate functional
equations, with envelope-driven truncation and mutual cross-validation.

f is Delta, of weight 12, the weight for which the kernels W and W2 and the
root factor iota_chi below are written.

First-power route (exact for every balance parameter X > 0):

    L = sum_n lambda(n) chi(n) / sqrt(n) W(n X / q)
      + iota_chi sum_n lambda(n) chibar(n) / sqrt(n) W(n / (q X))

with iota_chi = tau(chi)^2 / q.

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
(O(n_cap) time, in blocks of n so its memory does not grow with n_cap).
Every character sum after that is taken for the whole family at once by
characters.family_sums, one DFT on the unit group: the two bin sums, the
Gauss sums tau(chi) (the transform of e(r/q)) and with them iota_chi.  The
squared route is paid per family, not per character: for units a, b mod q,
chi(a) chibar(b) = chi(a b^-1), so every primitive chi reads one real
length-q table G built in O(m_cap log m_cap), and |L|^2 = 2 sum_c Re chi(c)
G[c] is one more transform.

`family_values` is the one way a family is built.  Callers build it once per
(modulus, config) and hand the records to every moment and audit; each record
carries the primitive character it was evaluated at.  `audit_plan` is where
the family's squared-route audit is decided, and why it is skipped.

The records are named-tuple subclasses and the audit sample is drawn by
random.Random, so no run loads dataclasses or numpy.random; the eigenform
table's class is imported for annotations only, so building the kernels
alone runs no hecke code.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np

from . import TAU_N_MAX, characters, sums, weights

# typing.TYPE_CHECKING without loading typing, as in arith
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .hecke import EigenformTable


class AfeConfig(namedtuple("AfeConfig", "X tail_eps audit_count seed")):
    """Truncation and audit policy for the functional-equation sums.

    tail_eps is the target absolute tail of each truncated sum.
    audit_count characters per family get the squared-route |L|^2
    cross-check, one length-q dot against the family's residue table
    (0 disables it); seed picks them.
    """

    __slots__ = ()

    def __new__(cls, X: float = 1.0, tail_eps: float = 1e-8,
                audit_count: int = 8, seed: int = 0):
        # written so that NaN fails each test
        if not 0 < X < math.inf:
            raise ValueError(f"X must be positive and finite, got {X}")
        if not tail_eps > 0:
            raise ValueError("tail_eps must be positive")
        return super().__new__(cls, X, tail_eps, audit_count, seed)


class CentralValue(namedtuple(
        "CentralValue", "chi value sq_direct residual audited")):
    """One family member: the primitive character chi, L(1/2, f tensor chi)
    from the first-power route, |L|^2 from the squared route when audited
    (else |value|^2), and their mismatch."""

    __slots__ = ()


DEFAULT_CONFIG = AfeConfig()

# divides tail_eps before the envelope lookup, absorbing the divisor-weighted
# mass of the terms past the cutoff
SAFETY = 8.0
# largest relative mismatch allowed between the two routes on an audited
# character
CROSS_TOL = 1e-3
# terms per block of the first-power binning, which then holds a few
# block-length arrays beside the bins whatever n_cap is
_BIN_BLOCK = 1 << 16
# relative-residual denominator floor: below this scale the two routes are
# compared at absolute resolution instead of relative
_RESIDUAL_FLOOR = 1e-2


# the process's (W, W2), set by the first default_evaluators call
_evaluators: tuple | None = None


def default_evaluators(cache_dir: str | None = None) -> tuple[
        weights.WeightEvaluator, weights.WeightEvaluator]:
    """Shared grid-backed evaluators (W, W2), built by the first call, with
    that call's cache_dir (weights.evaluators); later calls return the same
    pair whatever they pass.  The grids are the same bits either way."""
    global _evaluators
    if _evaluators is None:
        _evaluators = weights.evaluators(cache_dir)
    return _evaluators


def required_n_cap(q: int, cfg: AfeConfig = DEFAULT_CONFIG) -> int:
    """Truncation length for the first-power route at modulus q."""
    ev = default_evaluators()[0]
    x_eps = ev.envelope_cutoff(cfg.tail_eps / SAFETY)
    cap = int(np.ceil(x_eps * q * max(cfg.X, 1.0 / cfg.X)))
    # no eigenform table holds more than TAU_N_MAX terms
    if cap > TAU_N_MAX:
        raise ValueError(f"n_cap {cap:.4g} exceeds the limit "
                         f"{TAU_N_MAX} at q={q}")
    return cap


def required_m_cap(q: int, cfg: AfeConfig = DEFAULT_CONFIG) -> int:
    """Truncation length (on the product ab) for the squared route."""
    ev2 = default_evaluators()[1]
    x_eps = ev2.envelope_cutoff(cfg.tail_eps / SAFETY)
    cap = int(np.ceil(x_eps * q * q / (2 * np.pi)))
    if cap > TAU_N_MAX:
        raise ValueError(f"m_cap {cap} exceeds the limit {TAU_N_MAX} "
                         f"at q={q}")
    return cap


def audit_plan(f: EigenformTable, q: int,
               cfg: AfeConfig = DEFAULT_CONFIG) -> tuple[int, str | None]:
    """(m_cap, None) when family_values audits the family at q through the
    squared route, which is an audit tool, not a production path; else
    (0, the reason it audits no character)."""
    if cfg.audit_count == 0:
        return 0, "audit-count 0"
    try:
        m_cap = required_m_cap(q, cfg)
    except ValueError as exc:
        return 0, str(exc)
    if m_cap > f.n_max:
        return 0, f"m_cap {m_cap} > table {f.n_max}"
    return m_cap, None


def _check_table(f: EigenformTable, cap: int):
    if cap > f.n_max:
        raise ValueError(
            f"eigenform table covers n <= {f.n_max} but the truncation "
            f"needs n <= {cap}; rebuild the table with a larger n_max")


def _w2_table(q: int, cap: int) -> np.ndarray:
    """W2(2 pi m / q^2) / sqrt(m) for m = 1..cap."""
    m = np.arange(1, cap + 1)
    return default_evaluators()[1](m * (2 * np.pi / (q * q))) / np.sqrt(m)


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
    cap = required_m_cap(q, cfg)
    _check_table(f, cap)
    w2s = _w2_table(q, cap)
    chiv = chi(np.arange(q))[np.arange(1, cap + 1) % q]
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
    w2s = _w2_table(q, cap)
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


def _first_power_bins(f: EigenformTable, q: int, cfg: AfeConfig,
                      cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The residue bins (b1, b2) of the first-power route: b[r] is the sum
    over n <= cap, n = r mod q, of lambda(n)/sqrt(n) W(n X/q) for b1 and
    W(n/(q X)) for b2.  At X = 1 they are one array.

    The bins are filled one block of n at a time.  np.add.at adds in index
    order, as one bincount over every n would, so they are the same to the
    bit.
    """
    ev = default_evaluators()[0]
    b2 = np.zeros(q)
    b1 = b2 if cfg.X == 1 else np.zeros(q)
    for lo in range(1, cap + 1, _BIN_BLOCK):
        hi = min(lo + _BIN_BLOCK, cap + 1)
        n = np.arange(lo, hi)
        coeff = f.lam[lo:hi] / np.sqrt(n)
        idx = n % q
        np.add.at(b2, idx, coeff * ev(n / (q * cfg.X)))
        if b1 is not b2:
            np.add.at(b1, idx, coeff * ev(n * (cfg.X / q)))
    return b1, b2


def family_values(f: EigenformTable, q: int,
                  cfg: AfeConfig = DEFAULT_CONFIG) -> list[CentralValue]:
    """L(1/2, f tensor chi) over every primitive chi mod q, ascending index.

    The records are the family that moments and audits take: build it once
    per modulus and pass it on.  Since the indices ascend, chi-bar's record
    is found by looking up chi.group.conj[chi.index] among them.

    The audit subsample (cfg.audit_count characters, drawn by
    random.Random(cfg.seed)) is recomputed through both independent routes,
    the squared one from the family's residue table.  audit_plan decides
    whether the squared route runs; when it does not, every record's
    audited flag is false.
    """
    grp = characters.build_group(q)
    prims = characters.primitive_characters(grp)
    idx = [chi.index for chi in prims]
    cap = required_n_cap(q, cfg)
    _check_table(f, cap)

    b1, b2 = _first_power_bins(f, q, cfg, cap)
    s1 = characters.family_sums(grp, b1)[idx]
    # b2 is real, so conj(sum_r b2(r) chi(r)) is the sum against chi-bar
    s2 = s1 if b2 is b1 else characters.family_sums(grp, b2)[idx]
    tau = characters.family_sums(grp, np.exp(2j * np.pi * np.arange(q) / q))
    # the root factor iota_chi = tau(chi)^2 / q
    values = s1 + tau[idx] ** 2 / q * s2.conj()

    audit_set: set[int] = set()
    m_cap, skipped = audit_plan(f, q, cfg)
    if skipped is None:
        count = min(cfg.audit_count, len(prims))
        audit_set = {prims[i].index for i in
                     random.Random(cfg.seed).sample(range(len(prims)), count)}
        # G[c] = G[c^-1] and chi(c^-1) = conj chi(c): the sums are real
        sq_all = 2.0 * characters.family_sums(
            grp, _residue_table(f, q, m_cap)).real

    out = []
    for chi, value in zip(prims, values.tolist()):
        audited = chi.index in audit_set
        sq = float(sq_all[chi.index]) if audited else abs(value) ** 2
        res = _residual(value, sq)
        if audited and res > CROSS_TOL:
            raise AssertionError(
                f"q={q} chi_index={chi.index}: squared-route residual "
                f"{res:.3e} beyond {CROSS_TOL:g}")
        out.append(CentralValue(chi=chi, value=value, sq_direct=sq,
                                residual=res, audited=audited))
    return out
