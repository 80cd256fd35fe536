"""Dirichlet characters: construction, conductors, Gauss and Kloosterman sums."""

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
    assert len(g.characters()) == 6


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


def test_character_index_bounds():
    g = characters.build_group(7)
    with pytest.raises(ValueError):
        g.character(6)
    with pytest.raises(ValueError):
        g.character(-1)


def test_character_call_periodic_multiplicative_zero_off_units():
    g = characters.build_group(9)
    chi = g.character(1)
    assert chi(3) == 0
    assert chi(6) == 0
    for n in (1, 2, 5, 100):
        assert abs(chi(n) - chi(n % 9)) < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = (int(v) for v in rng.integers(1, 200, size=2))
        assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12


def test_values_array_write_protected():
    g = characters.build_group(7)
    v = g.character(1).values()
    with pytest.raises(ValueError):
        v[0] = 1.0


@pytest.mark.parametrize("q", [9, 27, 49])
def test_conductor_against_periodicity_oracle(q):
    g = characters.build_group(q)
    divs = list(arith.divisors(q))
    for chi in g.characters():
        want = helpers.conductor_by_periodicity(chi.values(), q, divs)
        assert chi.conductor == want
        assert chi.is_primitive == (want == q)
        assert chi.is_principal == (want == 1)


def test_quadratic_character_mod9_has_conductor3():
    g = characters.build_group(9)
    quads = [c for c in g.characters()
             if not c.is_principal
             and np.allclose(c.values()[g.unit_mask] ** 2, 1.0)]
    assert len(quads) == 1
    assert quads[0].conductor == 3
    assert not quads[0].is_primitive


def test_primitive_count_mod9():
    g = characters.build_group(9)
    prims = characters.primitive_characters(g)
    assert len(prims) == 4 == arith.phi_star(9)


def test_conjugation_pairs_close():
    g = characters.build_group(27)
    for chi in g.characters():
        bar = g.character(chi.conjugate_index())
        assert np.allclose(bar.values(), chi.values().conj())
        assert bar.conjugate_index() == chi.index


def test_gauss_sum_quadratic_mod5():
    g = characters.build_group(5)
    chi = next(c for c in g.characters()
               if not c.is_principal and c.conjugate_index() == c.index)
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
        chi0 = next(c for c in g.characters() if c.is_principal)
        assert abs(characters.gauss_sum(chi0) - arith.mobius(q)) < 1e-12


@pytest.mark.parametrize("q", [7, 9, 25, 49])
def test_gauss_sum_conjugation_identity(q):
    # tau(conj chi) = chi(-1) conj(tau(chi))
    g = characters.build_group(q)
    for chi in characters.primitive_characters(g):
        bar = g.character(chi.conjugate_index())
        lhs = characters.gauss_sum(bar)
        rhs = complex(chi(q - 1)) * characters.gauss_sum(chi).conjugate()
        assert abs(lhs - rhs) < 1e-9


def test_root_number_factor_unit_modulus():
    g = characters.build_group(7)
    for chi in characters.primitive_characters(g):
        v = characters.iota(chi, 12, chi.values())
        assert abs(abs(v) - 1.0) < 1e-9
        # the i^kappa wheel: weights 12 and 14 differ by i^2 = -1
        assert abs(characters.iota(chi, 14, chi.values()) + v) < 1e-9


def test_root_number_factor_quadratic_mod5_is_one():
    g = characters.build_group(5)
    chi = next(c for c in g.characters()
               if not c.is_principal and c.conjugate_index() == c.index)
    assert abs(characters.iota(chi, 12, chi.values()) - 1.0) < 1e-12


def test_root_number_factor_rejects_imprimitive():
    g = characters.build_group(9)
    chi0 = next(c for c in g.characters() if c.is_principal)
    with pytest.raises(ValueError):
        characters.iota(chi0, 12, chi0.values())


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
        bound = arith.divisor_count(q) * math.sqrt(q)
        for v in range(q):
            s = characters.kloosterman(1, v, q)
            assert abs(s) <= bound + 1e-9
            assert abs(s - characters.kloosterman(v, 1, q)) < 1e-9


def test_row_orthogonality_desk_moduli():
    for q in range(3, 102):
        if q % 4 == 2:
            continue
        g = characters.build_group(q)
        V = np.array([c.values() for c in g.characters()])
        Vu = V[:, g.unit_mask]
        gram = Vu @ Vu.conj().T
        err = np.abs(gram - g.phi_q * np.eye(g.phi_q)).max()
        assert err < 1e-7 * g.phi_q, q


def test_primitive_sum_identity():
    assert characters.primitive_sum_identity(1, 9) == arith.phi_star(9)
    assert characters.primitive_sum_identity(2, 9) == 0
    assert characters.primitive_sum_identity(4, 3) == 1
    for q in (9, 27):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                characters.primitive_sum_identity(a, q, audit=True)
    with pytest.raises(ValueError):
        characters.primitive_sum_identity(3, 9)


_VECTOR_MODULI = ([q for q in range(3, 401) if q % 4 != 2]
                  + [2 ** a for a in range(3, 11) if 2 ** a > 400]
                  + [1331, 1369, 1452, 1485])


@pytest.mark.parametrize("q", _VECTOR_MODULI)
def test_group_vectors_against_value_oracles(q):
    # conductors, parity and conjugation come from the component exponents;
    # check them against the character values themselves
    g = characters.build_group(q)
    V = np.array([c.values() for c in g.characters()])
    divs = list(arith.divisors(q))
    want = np.array([helpers.conductor_by_periodicity(v, q, divs)
                     for v in V])
    assert np.array_equal(g.conductors, want)
    assert np.array_equal(g.even, np.abs(V[:, q - 1] - 1.0) < 1e-9)
    assert np.abs(V[g.conj] - np.conj(V)).max() < 1e-9
    assert np.array_equal(g.conj[g.conj], np.arange(g.phi_q))
    prims = characters.primitive_characters(g)
    assert len(prims) == arith.phi_star(q)
    assert [c.index for c in prims] == list(np.flatnonzero(want == q))


@pytest.mark.parametrize("q", [7, 16, 105])
def test_shared_groups_are_read_only(q):
    # build_group hands one memoised group to every caller, so none of its
    # arrays may be written through
    g = characters.build_group(q)
    assert characters.build_group(q) is g
    for name in ("exps", "unit_mask", "roots", "conductors", "even", "conj"):
        arr = getattr(g, name)
        with pytest.raises(ValueError):
            arr[0] = arr[0]
