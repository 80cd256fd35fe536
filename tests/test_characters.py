"""Dirichlet characters: construction, conductors, Gauss and Kloosterman sums."""

import cmath
import math

import numpy as np
import pytest
import sympy

from twistmoments import arith, characters

import helpers


def test_group_structure_prime():
    g = characters.build_group(7)
    assert g.q == 7
    assert g.phi_q == 6
    assert sympy.n_order(g.components[0][1], 7) == 6
    assert len(helpers.all_characters(g)) == 6


def test_group_structure_prime_power():
    g = characters.build_group(9)
    assert g.phi_q == 6
    assert sympy.n_order(g.components[0][1], 9) == 6


def test_least_primitive_root():
    assert characters.least_primitive_root(7) == 3
    assert characters.least_primitive_root(9) == 2
    for m in (7, 9, 25, 121):
        r = characters.least_primitive_root(m)
        assert sympy.n_order(r, m) == sympy.totient(m)


@pytest.mark.parametrize("q", [0, 1, 2, 10, 14])
def test_build_group_rejects_bad_moduli(q):
    with pytest.raises(ValueError):
        characters.build_group(q)


@pytest.mark.parametrize("q", [12, 15, 45])
def test_general_composite_groups(q):
    g = characters.build_group(q)
    assert g.phi_q == sympy.totient(q)
    assert len(characters.primitive_characters(g)) == arith.phi_star(q)


def test_character_call_periodic_multiplicative_zero_off_units():
    g = characters.build_group(9)
    chi = characters.Character(g, 1)
    assert chi(3) == 0
    assert chi(6) == 0
    for n in (1, 2, 5, 100):
        assert abs(chi(n) - chi(n % 9)) < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = (int(v) for v in rng.integers(1, 200, size=2))
        assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12


def test_character_index_range():
    # at q = 7, 3 is the generator, so index e takes chi(3) = e(e / 6); an
    # index past phi(q) - 1 or below 0 is refused, not wrapped or dropped
    g = characters.build_group(7)
    for e in range(6):
        for index in (e, np.int64(e)):
            chi = characters.Character(g, index)
            assert abs(chi(3) - cmath.exp(2j * math.pi * e / 6)) < 1e-15
            assert type(chi.index) is int
    for index in (6, 7, -1):
        with pytest.raises(ValueError, match=r"index .* outside 0\.\.5"):
            characters.Character(g, index)
    with pytest.raises(TypeError):
        characters.Character(g, 2.0)


@pytest.mark.parametrize("q", [9, 16, 105, 1024])
def test_call_equals_the_value_array_bit_for_bit(q):
    # chi(n) computes phases at n mod q alone; it must give the entries of
    # its values at 0..q-1 to the bit, with the same types, at units and
    # at non-units, for scalar and array n of any shape
    g = characters.build_group(q)
    n = np.arange(-q, 2 * q)
    scalars = [0, 1, 2, 3, 5, q - 1, q, q + 7, -3, 10**12 + 1]
    for chi in helpers.all_characters(g):
        v = chi(np.arange(q))
        got, want = chi(n), v[n % q]
        assert type(got) is np.ndarray and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        got = chi(n.reshape(3, q))
        assert got.shape == (3, q) and got.tobytes() == want.tobytes()
        for s in scalars:
            got, want = chi(s), v[s % q]
            assert type(got) is type(want) is np.complex128, s
            assert got.tobytes() == want.tobytes(), (chi.index, s)


@pytest.mark.parametrize("q", [9, 27, 49])
def test_conductor_against_periodicity_oracle(q):
    g = characters.build_group(q)
    divs = list(arith.divisors(q))
    for chi in helpers.all_characters(g):
        want = helpers.conductor_by_periodicity(chi(np.arange(q)), q, divs)
        assert chi.conductor == want
        assert chi.is_primitive == (want == q)
        assert (chi.index == 0) == (want == 1)


def test_quadratic_character_mod9_has_conductor3():
    g = characters.build_group(9)
    quads = [c for c in helpers.all_characters(g)
             if c.index != 0
             and np.allclose(c(np.arange(9))[g.unit_mask] ** 2, 1.0)]
    assert len(quads) == 1
    assert quads[0].conductor == 3
    assert not quads[0].is_primitive


def test_primitive_count_mod9():
    g = characters.build_group(9)
    prims = characters.primitive_characters(g)
    assert len(prims) == 4 == arith.phi_star(9)


def test_conjugation_pairs_close():
    g = characters.build_group(27)
    for chi in helpers.all_characters(g):
        bar = characters.Character(g, chi.group.conj[chi.index])
        n = np.arange(27)
        assert np.allclose(bar(n), chi(n).conj())
        assert bar.group.conj[bar.index] == chi.index


def test_gauss_sum_quadratic_mod5():
    g = characters.build_group(5)
    chi = next(c for c in helpers.all_characters(g)
               if c.index != 0 and c.group.conj[c.index] == c.index)
    got = characters.gauss_sum(chi)
    assert abs(got - helpers.gauss_sum_literal(chi, 5)) < 1e-12
    assert abs(got - math.sqrt(5)) < 1e-12


@pytest.mark.parametrize("q", [7, 9, 25, 53])
def test_gauss_sum_magnitude_primitive(q):
    g = characters.build_group(q)
    for chi in characters.primitive_characters(g):
        assert abs(abs(characters.gauss_sum(chi)) ** 2 - q) < 1e-9 * q


def test_gauss_sum_principal_is_mobius():
    for q in (7, 11, 13, 9):
        g = characters.build_group(q)
        chi0 = characters.Character(g, 0)
        assert abs(characters.gauss_sum(chi0) - arith.mobius(q)) < 1e-12


@pytest.mark.parametrize("q", [7, 9, 25, 49])
def test_gauss_sum_conjugation_identity(q):
    # tau(conj chi) = chi(-1) conj(tau(chi))
    g = characters.build_group(q)
    for chi in characters.primitive_characters(g):
        bar = characters.Character(g, chi.group.conj[chi.index])
        lhs = characters.gauss_sum(bar)
        rhs = complex(chi(q - 1)) * characters.gauss_sum(chi).conjugate()
        assert abs(lhs - rhs) < 1e-9


def _root_factors(g):
    """iota_chi = tau(chi)^2 / q for every character, with the Gauss sums
    taken as family_values takes them: the transform of e(r/q)."""
    tau = characters.family_sums(g, np.exp(2j * np.pi * np.arange(g.q) / g.q))
    return tau * tau / g.q


def test_root_number_factor_unit_modulus():
    g = characters.build_group(7)
    iota = _root_factors(g)
    for chi in characters.primitive_characters(g):
        assert abs(abs(iota[chi.index]) - 1.0) < 1e-9


def test_root_number_factor_quadratic_mod5_is_one():
    g = characters.build_group(5)
    chi = next(c for c in helpers.all_characters(g)
               if c.index != 0 and c.group.conj[c.index] == c.index)
    assert abs(_root_factors(g)[chi.index] - 1.0) < 1e-12


def test_kloosterman_small_cases():
    # S(1,1,3) = e(2/3) + e(4/3) = 2 cos(4 pi/3) = -1
    assert abs(characters.kloosterman(1, 1, 3) + 1.0) < 1e-12
    for q in (3, 5, 7, 9, 15):
        assert abs(characters.kloosterman(1, 0, q) - arith.mobius(q)) < 1e-9
    with pytest.raises(ValueError):
        characters.kloosterman(1, 1, 1)


def test_kloosterman_matches_loop_oracle():
    for q in range(2, 201):
        for u, v in ((1, 1), (1, 0), (2, 5), (q - 1, 7), (3, q + 4)):
            want = helpers.kloosterman_loop(u, v, q)
            assert abs(want.imag) < 1e-9
            assert abs(characters.kloosterman(u, v, q) - want.real) \
                <= 1e-12 * q, (u, v, q)


def test_kloosterman_symmetry_and_weil():
    for q in (3, 9, 25):
        bound = helpers.divisor_count(q) * math.sqrt(q)
        for v in range(q):
            s = characters.kloosterman(1, v, q)
            assert abs(s) <= bound + 1e-9
            assert abs(s - characters.kloosterman(v, 1, q)) < 1e-9


def test_row_orthogonality_desk_moduli():
    for q in range(3, 102):
        if q % 4 == 2:
            continue
        g = characters.build_group(q)
        V = np.array([c(np.arange(q)) for c in helpers.all_characters(g)])
        Vu = V[:, g.unit_mask]
        gram = Vu @ Vu.conj().T
        err = np.abs(gram - g.phi_q * np.eye(g.phi_q)).max()
        assert err < 1e-7 * g.phi_q, q


def test_primitive_sum_identity():
    assert helpers.primitive_sum_identity(1, 9) == arith.phi_star(9)
    assert helpers.primitive_sum_identity(2, 9) == 0
    assert helpers.primitive_sum_identity(4, 3) == 1
    for q in (9, 27):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                helpers.primitive_sum_identity(a, q, audit=True)
    with pytest.raises(ValueError):
        helpers.primitive_sum_identity(3, 9)


_VECTOR_MODULI = ([q for q in range(3, 401) if q % 4 != 2]
                  + [2 ** a for a in range(3, 11) if 2 ** a > 400]
                  + [1331, 1369, 1452, 1485])


@pytest.mark.parametrize("q", _VECTOR_MODULI)
def test_group_vectors_against_value_oracles(q):
    # conductors, parity and conjugation come from the component exponents;
    # check them against the character values themselves
    g = characters.build_group(q)
    V = np.array([c(np.arange(q)) for c in helpers.all_characters(g)])
    divs = list(arith.divisors(q))
    want = np.array([helpers.conductor_by_periodicity(v, q, divs)
                     for v in V])
    assert np.array_equal(g.conductors, want)
    assert np.array_equal(g.even, np.abs(V[:, q - 1] - 1.0) < 1e-9)
    conj = np.asarray(g.conj)
    assert np.abs(V[conj] - np.conj(V)).max() < 1e-9
    assert np.array_equal(conj[conj], np.arange(g.phi_q))
    prims = characters.primitive_characters(g)
    assert len(prims) == arith.phi_star(q)
    assert [c.index for c in prims] == list(np.flatnonzero(want == q))


@pytest.mark.parametrize("q", [7, 16, 105])
def test_shared_groups_are_read_only(q):
    # build_group hands one memoised group to every caller, so none of its
    # vectors or lazily built arrays may be written through
    g = characters.build_group(q)
    assert characters.build_group(q) is g
    for name in ("conductors", "even", "conj"):
        vec = getattr(g, name)
        with pytest.raises(TypeError):
            vec[0] = vec[0]
    for name in ("exps", "unit_mask", "roots"):
        arr = getattr(g, name)
        assert getattr(g, name) is arr
        with pytest.raises(ValueError):
            arr[0] = arr[0]


# every group shape: odd primes and prime powers, 4 | q, 2^a with a >= 3,
# and composites mixing them
_SHAPE_MODULI = [5, 9, 16, 17, 53, 64, 81, 105, 125, 211, 1001, 1024, 1155,
                 1200, 1452, 1499]


@pytest.mark.parametrize("q", _SHAPE_MODULI)
def test_family_sums_against_literal_sums(q):
    # one transform against sum_r f(r) chi(r), one character at a time, for
    # a random complex f with random entries at the non-units too
    g = characters.build_group(q)
    rng = np.random.default_rng(q)
    f = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    got = characters.family_sums(g, f)
    n = np.arange(q)
    want = np.array([np.dot(chi(n), f) for chi in helpers.all_characters(g)])
    assert got.shape == (g.phi_q,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("q", [5, 9, 16, 17, 53, 64, 105, 125])
def test_family_gauss_sums_against_literal(q):
    # the Gauss sums of every character, primitive or not, as the
    # transform of e(r/q); |tau(chi)| <= sqrt(q)
    g = characters.build_group(q)
    tau = characters.family_sums(g, np.exp(2j * np.pi * np.arange(q) / q))
    for chi in helpers.all_characters(g):
        assert abs(tau[chi.index] - helpers.gauss_sum_literal(chi, q)) \
            <= 1e-13 * math.sqrt(q), chi
