"""Dirichlet character groups mod q, Gauss and Kloosterman sums, identities.

Any q >= 3 with q not congruent to 2 mod 4 is accepted.  The unit group is
decomposed into cyclic components (one per odd prime power, the <-1, 5> pair
for 2^a with a >= 3), each with a discrete-log table dlog_i and order d_i.
A character is an exponent tuple (e_i), flattened to a single integer index,
and takes exact roots of unity: chi(n) = e(t(n)/D) with D = lcm(d_i) and

    t(n) = sum_i e_i (D/d_i) dlog_i(n) mod D.

That one formula gives character values, parity (t(-1) = 0) and the sums
over primitive characters.  A Character is a (group, index) handle and holds
no arrays.  Each group holds conductors, parity and conjugation as integer
vectors over the flat index, computed once; conductors and conjugation come
in closed form from the component exponents.  The conductor is multiplicative
over the CRT components, and on each component it depends only on the order
of the exponent there.

Convention: e(z) = exp(2*pi*i*z).  The Kloosterman sum here is
S(u,v,q) = sum over units h of e((u h + v h^-1)/q); some sources write the
exponential without the 2*pi*i, but the Weil bound fixes this normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith


def _is_primitive_root(g: int, m: int, phi: int, phi_primes: tuple[int, ...]) -> bool:
    if math.gcd(g, m) != 1:
        return False
    return all(pow(g, phi // r, m) != 1 for r in phi_primes)


def least_primitive_root(m: int) -> int:
    """Least primitive root of m; caller guarantees one exists (m odd prime
    power, or m in {2, 4})."""
    phi = arith.euler_phi(m)
    phi_primes = tuple(p for p, _ in arith.factorize(phi).factors)
    for g in range(2, m):
        if _is_primitive_root(g, m, phi, phi_primes):
            return g
    raise ValueError(f"no primitive root mod {m}")


def _cyclic_dlog(m: int, gen: int, order: int) -> np.ndarray:
    """Exponent of n mod m with respect to gen (-1 off the orbit)."""
    small = np.full(m, -1, dtype=np.int64)
    acc = 1
    for t in range(order):
        small[acc] = t
        acc = acc * gen % m
    return small


def _two_power_dlogs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint exponents for units mod m = 2^a, a >= 3: n = (-1)^s 5^t."""
    t_sign = np.full(m, -1, dtype=np.int64)
    t_five = np.full(m, -1, dtype=np.int64)
    acc = 1
    for t in range(m // 4):
        t_sign[acc] = 0
        t_five[acc] = t
        t_sign[m - acc] = 1
        t_five[m - acc] = t
        acc = acc * 5 % m
    return t_sign, t_five


def _conductors(fac: tuple[tuple[int, int], ...],
                tuples: np.ndarray) -> np.ndarray:
    """Conductor of every character: the product of its local conductors.

    On an odd p^a a character of local order o > 1 has local conductor
    p times the p-part of o.  On 4 it is 4 for an odd exponent.  On 2^a with
    a >= 3, sign s and <5>-exponent of local order o, it is 4o when o > 1,
    else 4 if s = 1.  Local order 1 always gives 1.
    """
    cond = np.ones(tuples.shape[1], dtype=np.int64)
    row = 0
    for p, a in fac:
        e = tuples[row]
        if p != 2:
            d = (p - 1) * p ** (a - 1)
            o = d // np.gcd(e, d)
            cond *= np.where(o > 1, p * (o // np.gcd(o, p - 1)), 1)
            row += 1
        elif a == 2:
            cond *= np.where(e % 2 == 1, 4, 1)
            row += 1
        else:
            d = 2 ** (a - 2)
            o = d // np.gcd(tuples[row + 1], d)
            cond *= np.where(o > 1, 4 * o, np.where(e == 1, 4, 1))
            row += 2
    return cond


def _exponent_tuples(orders, index: np.ndarray) -> np.ndarray:
    """Row i: the exponent on component i of each flat index; the flat index
    is mixed radix with component 0 least significant."""
    return np.array(np.unravel_index(index, tuple(orders[::-1]))[::-1])


def _phase(exps: np.ndarray, orders, index, n) -> np.ndarray:
    """t(n) = sum_i e_i (D/d_i) dlog_i(n) mod D for the characters at flat
    `index` (int or array, rows) and the residues `n` (index into the
    columns of `exps`).  Non-units get an arbitrary phase."""
    exponent = math.lcm(*orders)
    scaled = _exponent_tuples(orders, index).T * (exponent // np.array(orders))
    return scaled @ exps[:, n] % exponent


@dataclass(frozen=True)
class CharacterGroup:
    """Unit group mod q with discrete-log tables for character evaluation.

    Each component is (modulus, generator, order), and row i of `exps` is
    its discrete log: for an odd prime power q there is one component, whose
    generator g is the least primitive root, and exps[0][g^t mod q] = t.
    The exponent D is the lcm of the component orders.  `conductors`, `even`
    and `conj` are vectors over the flat character index: the conductor of
    chi, whether chi(-1) = 1, and the flat index of chi-bar.  Every array is
    read-only, since `build_group` hands one group to all its callers.
    """

    q: int
    phi_q: int
    components: tuple[tuple[int, int, int], ...]  # (modulus, generator, order)
    exponent: int
    exps: np.ndarray          # shape (ncomp, q), -1 at non-units
    unit_mask: np.ndarray     # shape (q,), bool
    roots: np.ndarray         # exp(2 pi i t / D), t = 0..D-1
    conductors: np.ndarray    # shape (phi_q,), int64
    even: np.ndarray          # shape (phi_q,), bool
    conj: np.ndarray          # shape (phi_q,), int64

    def orders(self) -> tuple[int, ...]:
        return tuple(c[2] for c in self.components)

    def character(self, index: int) -> "Character":
        if not 0 <= index < self.phi_q:
            raise ValueError(f"character index {index} out of 0..{self.phi_q - 1}")
        return Character(self, index)

    def characters(self) -> list["Character"]:
        return [Character(self, e) for e in range(self.phi_q)]


@lru_cache(maxsize=16)
def build_group(q: int) -> CharacterGroup:
    """Build the character group mod q, any q >= 3 with q != 2 (mod 4).

    Groups are memoised, so every caller at one modulus shares one group;
    all of its arrays are read-only.

    Raises:
        ValueError: q = 2 mod 4 (no primitive characters) or q < 3.
    """
    if q < 3:
        raise ValueError(f"q={q}: group building needs q >= 3")
    if q % 4 == 2:
        raise ValueError(f"q={q} = 2 (mod 4): no primitive characters exist")
    fac = arith.factorize(q).factors

    components: list[tuple[int, int, int]] = []
    small_tables: list[np.ndarray] = []
    for p, e in fac:
        m = p ** e
        if p == 2:
            if e == 2:
                components.append((4, 3, 2))
                small_tables.append(_cyclic_dlog(4, 3, 2))
            else:
                t_sign, t_five = _two_power_dlogs(m)
                components.append((m, m - 1, 2))           # <-1>
                small_tables.append(t_sign)
                components.append((m, 5, m // 4))          # <5>, order 2^(e-2)
                small_tables.append(t_five)
        else:
            g = least_primitive_root(m)
            d = arith.euler_phi(m)
            components.append((m, g, d))
            small_tables.append(_cyclic_dlog(m, g, d))

    nn = np.arange(q, dtype=np.int64)
    exps = np.stack([tab[nn % m]
                     for tab, (m, _, _) in zip(small_tables, components)])
    unit_mask = np.gcd(nn, q) == 1
    if not np.all(exps[:, unit_mask] >= 0):
        raise AssertionError(f"dlog table incomplete for q={q}")
    orders = [d for _, _, d in components]
    exponent = math.lcm(*orders)
    phi_q = arith.euler_phi(q)
    assert math.prod(orders) == phi_q
    roots = np.exp(2j * np.pi * np.arange(exponent) / exponent)

    index = np.arange(phi_q)
    tuples = _exponent_tuples(orders, index)
    orders_col = np.array(orders).reshape(-1, 1)
    conj = np.ravel_multi_index(tuple((-tuples % orders_col)[::-1]),
                                orders[::-1])
    arrays = {"exps": exps, "unit_mask": unit_mask, "roots": roots,
              "conductors": _conductors(fac, tuples),
              "even": _phase(exps, orders, index, q - 1) == 0,
              "conj": conj}
    for v in arrays.values():
        v.setflags(write=False)
    return CharacterGroup(q=q, phi_q=phi_q, components=tuple(components),
                          exponent=exponent, **arrays)


class Character:
    """One Dirichlet character mod q: a (group, index) handle.

    The flat index is the mixed-radix encoding of the per-component exponent
    tuple (e_1, ..., e_m); for cyclic groups it is just the exponent e with
    chi(n) = e(e * dlog(n) / phi(q)).  Index 0 is the principal character.
    """

    __slots__ = ("group", "index")

    def __init__(self, group: CharacterGroup, index: int):
        self.group = group
        self.index = index

    def values(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 as a read-only complex array (0 at
        non-units), evaluated afresh on each call."""
        grp = self.group
        phase = _phase(grp.exps, grp.orders(), self.index, slice(None))
        vals = np.where(grp.unit_mask, grp.roots[phase], 0.0)
        vals.setflags(write=False)
        return vals

    def __call__(self, n):
        return self.values()[np.asarray(n) % self.group.q]

    @property
    def conductor(self) -> int:
        """Smallest f | q from which chi is induced."""
        return int(self.group.conductors[self.index])

    @property
    def is_primitive(self) -> bool:
        return bool(self.group.conductors[self.index] == self.group.q)

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def conjugate_index(self) -> int:
        """Flat index of chi-bar."""
        return int(self.group.conj[self.index])

    def __repr__(self):
        return (f"Character(q={self.group.q}, index={self.index}, "
                f"conductor={self.conductor})")


def primitive_characters(group: CharacterGroup) -> list[Character]:
    """All primitive characters, ascending flat index; length phi_star(q)."""
    prims = [Character(group, int(i))
             for i in np.flatnonzero(group.conductors == group.q)]
    assert len(prims) == arith.phi_star(group.q)
    return prims


@lru_cache(maxsize=64)
def _e_table(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


def gauss_sum(chi: Character, values: np.ndarray | None = None) -> complex:
    """tau(chi) = sum over a mod q of chi(a) e(a/q).

    values: chi.values(), when the caller already holds them.
    """
    if values is None:
        values = chi.values()
    return complex(np.dot(values, _e_table(chi.group.q)))


def iota(chi: Character, values: np.ndarray) -> complex:
    """Root factor tau(chi)^2 / q of the functional equation of the twist of
    Delta by chi (the i^kappa of a weight-kappa form is i^12 = 1).

    values: chi.values(), which every caller already holds.

    Raises:
        ValueError: chi not primitive (the factor is only defined there).
    """
    if not chi.is_primitive:
        raise ValueError(f"iota needs a primitive character, got {chi!r}")
    t = gauss_sum(chi, values)
    return t * t / chi.group.q


def kloosterman(u: int, v: int, q: int) -> float:
    """S(u, v, q) = sum over units h of e((u h + v h^-1)/q); real.

    The imaginary residue of the straight complex sum is checked below 1e-9
    and discarded (h <-> -h pairing makes the sum real; that is verified
    numerically rather than assumed).
    """
    if q < 2:
        raise ValueError(f"kloosterman needs q >= 2, got {q}")
    h = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    # h^-1 = h^(phi(q)-1) by square and multiply; every product is below q^2,
    # which int64 holds for any q whose e-table fits in memory
    inv, base, e = np.ones_like(h), h, arith.euler_phi(q) - 1
    while e:
        if e & 1:
            inv = inv * base % q
        base = base * base % q
        e >>= 1
    total = complex(_e_table(q)[(u % q * h + v % q * inv) % q].sum())
    if abs(total.imag) >= 1e-9:
        raise AssertionError(
            f"S({u},{v},{q}) imaginary part {total.imag:.3e} not negligible")
    return float(total.real)


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
        grp = build_group(q)
        phase = _phase(grp.exps, grp.orders(),
                       np.flatnonzero(grp.conductors == q), a % q)
        lhs = complex(np.sum(grp.roots[phase]))
        if abs(lhs - rhs) > 1e-6:
            raise AssertionError(
                f"sum over primitive chi mod {q} of chi({a}) = {lhs}, "
                f"Mobius side = {rhs}")
    return rhs
