"""Dirichlet character groups mod q, Gauss and Kloosterman sums.

Any q >= 3 with q not congruent to 2 mod 4 is accepted.  The unit group is
decomposed into cyclic components (one per odd prime power, the <-1, 5> pair
for 2^a with a >= 3), each with a discrete-log table dlog_i and order d_i.
A character is an exponent tuple (e_i), flattened to a single integer index,
and takes exact roots of unity: chi(n) = e(t(n)/D) with D = lcm(d_i) and

    t(n) = sum_i e_i (D/d_i) dlog_i(n) mod D.

That one formula gives every character value.  In these coordinates the
characters are those of Z/d_1 x ... x Z/d_m, so sum_r f(r) chi(r) for every
chi at once is one DFT of f placed on the grid of dlog tuples
(family_sums).  A Character is a (group, index) handle and holds no arrays.
Each group holds conductors, parity and conjugation as tuples of Python ints
and bools over the flat index, built with the group in one plain-Python
pass: each follows in closed form from the exponents on each prime power.
The discrete-log rows, the unit mask and the roots of unity are numpy
arrays, built on the first evaluation of a character value or sum and kept
with the group, so listing a family imports no numpy.  Nor does it import
dataclasses: CharacterGroup, like cli.RunConfig, is a named-tuple subclass,
since dataclasses loads inspect, ast, dis and tokenize and generates each
record's methods when its class is defined, about 10 ms of a listing
process that does nothing else.

Convention: e(z) = exp(2*pi*i*z).  The Kloosterman sum here is
S(u,v,q) = sum over units h of e((u h + v h^-1)/q); some sources write the
exponential without the 2*pi*i, but the Weil bound fixes this normalization.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property, lru_cache

from . import arith

# typing.TYPE_CHECKING without loading typing, as in arith
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


def least_primitive_root(m: int) -> int:
    """Least primitive root of m; caller guarantees one exists (m odd prime
    power, or m in {2, 4})."""
    phi = arith.euler_phi(m)
    phi_primes = tuple(p for p, _ in arith.factorize(phi))
    for g in range(2, m):
        if math.gcd(g, m) == 1 and all(pow(g, phi // r, m) != 1
                                       for r in phi_primes):
            return g
    raise ValueError(f"no primitive root mod {m}")


def _cyclic_dlog(m: int, gen: int, order: int) -> np.ndarray:
    """Exponent of n mod m with respect to gen (-1 off the orbit)."""
    import numpy as np
    small = np.full(m, -1, dtype=np.int64)
    acc = 1
    for t in range(order):
        small[acc] = t
        acc = acc * gen % m
    return small


def _two_power_dlogs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint exponents for units mod m = 2^a, a >= 3: n = (-1)^s 5^t."""
    import numpy as np
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


def _local_conductors(m: int, p: int, d: int) -> list[int]:
    """Conductor of exponent e = 0..d-1 on a cyclic component of order d of
    m = p^a: m / gcd(e, p^k) with p^k the p-part of d, and 1 at e = 0.  On
    an odd p^a that is p times the p-part of the order d/gcd(e, d), on <5>
    mod 2^a it is 4 times that order."""
    out = [m] * d
    step = p
    while d % step == 0:
        out[::step] = [m // step] * (d // step)
        step *= p
    out[0] = 1
    return out


def _exponents(orders, index: int) -> list[int]:
    """The exponent on each component of a flat index: mixed radix,
    component 0 least significant."""
    out = []
    for d in orders:
        index, e = divmod(index, d)
        out.append(e)
    return out


class CharacterGroup(namedtuple(
        "CharacterGroup",
        "q phi_q components exponent conductors even conj")):
    """Unit group mod q with discrete-log tables for character evaluation.

    Each component is (modulus, generator, order), and row i of `exps` is
    its discrete log: for an odd prime power q there is one component, whose
    generator g is the least primitive root, and exps[0][g^t mod q] = t.
    The exponent D is the lcm of the component orders.  `conductors`, `even`
    and `conj` are tuples over the flat character index: the conductor of
    chi, whether chi(-1) = 1, and the flat index of chi-bar.  `exps`,
    `unit_mask` and `roots` are built on first use and kept read-only, since
    `build_group` hands one group to all its callers; the class has no
    __slots__, so its instances carry the __dict__ those caches live in.
    """

    def orders(self) -> tuple[int, ...]:
        return tuple(c[2] for c in self.components)

    @cached_property
    def exps(self) -> np.ndarray:
        """Shape (ncomp, q): the discrete log of n on each component, -1 at
        non-units."""
        import numpy as np
        rows = []
        for m, g, d in self.components:
            if m % 8:                   # cyclic: an odd p^a, or 4
                rows.append(_cyclic_dlog(m, g, d))
            elif g == m - 1:            # <-1> of 2^a, and <5> after it
                rows.extend(_two_power_dlogs(m))
        nn = np.arange(self.q, dtype=np.int64)
        exps = np.stack([row[nn % m]
                         for row, (m, _, _) in zip(rows, self.components)])
        if not np.all(exps[:, self.unit_mask] >= 0):
            raise AssertionError(f"dlog table incomplete for q={self.q}")
        exps.setflags(write=False)
        return exps

    @cached_property
    def unit_mask(self) -> np.ndarray:
        """Shape (q,): whether gcd(n, q) = 1."""
        import numpy as np
        mask = np.gcd(np.arange(self.q, dtype=np.int64), self.q) == 1
        mask.setflags(write=False)
        return mask

    @cached_property
    def roots(self) -> np.ndarray:
        """exp(2 pi i t / D), t = 0..D-1."""
        import numpy as np
        roots = np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)
        roots.setflags(write=False)
        return roots


@lru_cache(maxsize=16)
def build_group(q: int) -> CharacterGroup:
    """Build the character group mod q, any q >= 3 with q != 2 (mod 4).

    Groups are memoised, so every caller at one modulus shares one group;
    its vectors are tuples and its arrays read-only.

    Raises:
        ValueError: q = 2 mod 4 (no primitive characters) or q < 3.
    """
    if q < 3:
        raise ValueError(f"q={q}: group building needs q >= 3")
    if q % 4 == 2:
        raise ValueError(f"q={q} = 2 (mod 4): no primitive characters exist")

    # per prime power p^a, by local index: the conductor, whether chi(-1)
    # = 1, and the local index of chi-bar.  -1 is g^(d/2) on a cyclic
    # component, so chi(-1) there is (-1)^e; on 2^a, a >= 3, the local index
    # is s + 2t for (-1)^s 5^t, and chi(-1) = (-1)^s.
    components: list[tuple[int, int, int]] = []
    local: list[tuple[list[int], list[bool], list[int]]] = []
    for p, a in arith.factorize(q):
        m = p ** a
        if p == 2 and a >= 3:
            d = m // 4
            components += [(m, m - 1, 2), (m, 5, d)]          # <-1>, <5>
            # the sign alone has conductor 4; any t != 0 has 4 * order >= 8
            cond = [f for f in _local_conductors(m, 2, d) for _ in (0, 1)]
            cond[:2] = [1, 4]
            local.append((cond, [True, False] * d,
                          [s + 2 * (-t % d) for t in range(d) for s in (0, 1)]))
        elif p == 2:
            components.append((4, 3, 2))
            local.append(([1, 4], [True, False], [0, 1]))
        else:
            d = arith.euler_phi(m)
            components.append((m, least_primitive_root(m), d))
            local.append((_local_conductors(m, p, d), [True, False] * (d // 2),
                          [-e % d for e in range(d)]))

    # one mixed-radix pass, p^a blocks in ascending p, the first least
    # significant: conductors multiply over the coprime blocks, parities
    # multiply, and chi-bar is chi-bar on every block
    conductors, even, conj = [1], [True], [0]
    for cond, par, neg in local:
        stride = len(conj)
        conductors = [c * f for f in cond for c in conductors]
        even = [e == t for t in par for e in even]
        conj = [i + stride * n for n in neg for i in conj]
    orders = [d for _, _, d in components]
    phi_q = arith.euler_phi(q)
    assert math.prod(orders) == phi_q
    return CharacterGroup(q=q, phi_q=phi_q, components=tuple(components),
                          exponent=math.lcm(*orders),
                          conductors=tuple(conductors), even=tuple(even),
                          conj=tuple(conj))


class Character:
    """One Dirichlet character mod q: a (group, index) handle.

    The flat index is the mixed-radix encoding of the per-component exponent
    tuple (e_1, ..., e_m); for cyclic groups it is just the exponent e with
    chi(n) = e(e * dlog(n) / phi(q)).  Index 0 is the principal character.
    """

    __slots__ = ("group", "index")

    def __init__(self, group: CharacterGroup, index: int):
        """Raises ValueError for an index outside 0..phi(q)-1, and
        TypeError for one that is not an integer."""
        index = operator.index(index)
        if not 0 <= index < group.phi_q:
            raise ValueError(f"character index {index} outside "
                             f"0..{group.phi_q - 1} at q={group.q}")
        self.group = group
        self.index = index

    def __call__(self, n):
        """chi(n) for an integer n (a numpy scalar) or an integer array n
        (an array of its shape), 0 where gcd(n, q) > 1: the phase t(n) of
        the module docstring, computed at the residues n mod q only."""
        import numpy as np
        grp = self.group
        orders, D = grp.orders(), grp.exponent
        scaled = np.array([e * (D // d) for e, d in
                           zip(_exponents(orders, self.index), orders)])
        r = np.asarray(n, dtype=np.int64) % grp.q
        phase = scaled @ grp.exps[:, r.ravel()] % D
        return np.where(grp.unit_mask[r], grp.roots[phase.reshape(r.shape)],
                        0.0)[()]

    @property
    def conductor(self) -> int:
        """Smallest f | q from which chi is induced."""
        return self.group.conductors[self.index]

    @property
    def is_primitive(self) -> bool:
        return self.group.conductors[self.index] == self.group.q

    def __repr__(self):
        return (f"Character(q={self.group.q}, index={self.index}, "
                f"conductor={self.conductor})")


def primitive_characters(group: CharacterGroup) -> list[Character]:
    """All primitive characters, ascending flat index; length phi_star(q)."""
    prims = [Character(group, i)
             for i, c in enumerate(group.conductors) if c == group.q]
    assert len(prims) == arith.phi_star(group.q)
    return prims


@lru_cache(maxsize=64)
def _e_table(q: int) -> np.ndarray:
    import numpy as np
    return np.exp(2j * np.pi * np.arange(q) / q)


def family_sums(group: CharacterGroup, f) -> np.ndarray:
    """sum over r mod q of f(r) chi(r) for every chi mod q, by flat index,
    for a length-q array f (its entries at non-units are not read).

    chi(r) = e(sum_i e_i dlog_i(r) / d_i), so this is one unnormalised
    inverse DFT of f on the grid of dlog tuples, whose axes run from the
    last component to the first: its C-order ravel is the flat index.
    """
    import numpy as np
    exps = group.exps[:, group.unit_mask]
    grid = np.zeros(group.orders()[::-1], dtype=complex)
    grid[tuple(exps[::-1])] = np.asarray(f)[group.unit_mask]
    return np.fft.ifftn(grid, norm="forward").ravel()


def gauss_sum(chi: Character) -> complex:
    """tau(chi) = sum over a mod q of chi(a) e(a/q), one character at a
    time: the oracle for the family's transform, and a name that
    perfbench/trace_cli.py wraps."""
    import numpy as np
    q = chi.group.q
    return complex(np.dot(chi(np.arange(q)), _e_table(q)))


def kloosterman(u: int, v: int, q: int) -> float:
    """S(u, v, q) = sum over units h of e((u h + v h^-1)/q); real.

    The imaginary residue of the straight complex sum is checked below 1e-9
    and discarded (h <-> -h pairing makes the sum real; that is verified
    numerically rather than assumed).
    """
    import numpy as np
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
