"""Integer utility layer: sieve, factorization, multiplicative functions."""

import math

import numpy as np
import pytest
import sympy

from twistmoments import arith

import helpers


def test_sieve_matches_trial_division():
    assert arith.sieve_primes(100).tolist() == helpers.trial_primes(100)
    assert arith.sieve_primes(1).size == 0
    assert arith.sieve_primes(2).tolist() == [2]


def test_sieve_against_sympy():
    assert arith.sieve_primes(10_000).tolist() == list(
        sympy.primerange(2, 10_001))


def test_sieve_table_grows_to_the_request():
    # every request sieves its own table to its own length, and arith
    # keeps none of them between calls
    assert arith.smallest_prime_factors(97)[97] == 97
    assert len(arith.smallest_prime_factors(97)) == 98
    assert arith.smallest_prime_factors(150)[150] == 2
    assert arith.smallest_prime_factors(150).dtype == np.int32
    for n in range(2, 500):
        assert (arith.smallest_prime_factors(n)[n]
                == min(helpers.trial_factor(n))), n
    # factorize divides by trial and never reads the table
    for n in range(1, 500):
        assert dict(arith.factorize(n)) == helpers.trial_factor(n), n
    assert arith.sieve_primes(1000).tolist() == helpers.trial_primes(1000)
    assert arith.sieve_primes(30).tolist() == helpers.trial_primes(30)
    assert arith.sieve_primes(30).dtype == np.int64
    assert not [name for name, v in vars(arith).items()
                if isinstance(v, np.ndarray)]


def test_factorize_examples():
    assert arith.factorize(12) == ((2, 2), (3, 1))
    assert arith.factorize(9801) == ((3, 4), (11, 2))
    assert arith.factorize(1) == ()
    assert arith.factorize(97) == ((97, 1),)
    with pytest.raises(ValueError):
        arith.factorize(0)
    with pytest.raises(ValueError):
        arith.factorize(-6)


def test_factorize_random_against_sympy():
    rng = np.random.default_rng(7)
    for n in rng.integers(1, 10**7, size=120):
        n = int(n)
        assert dict(arith.factorize(n)) == sympy.factorint(n)


@pytest.mark.parametrize("fn, oracle", [
    (helpers.big_omega, lambda n: sum(sympy.factorint(n).values())),
    (helpers.divisor_count, sympy.divisor_count),
    (arith.mobius, sympy.mobius),
    (arith.euler_phi, sympy.totient),
])
def test_small_range_against_sympy(fn, oracle):
    for n in range(1, 400):
        assert fn(n) == oracle(n), n


def test_w_of_examples():
    # product of e! over the exponents of the factorization
    assert helpers.w_of(1) == 1
    assert helpers.w_of(8) == 6
    assert helpers.w_of(12) == 2
    assert helpers.w_of(2 * 3 * 5) == 1
    assert helpers.w_of(2**4 * 3**2) == math.factorial(4) * 2


def test_divisors_sorted():
    assert list(arith.divisors(1)) == [1]
    assert list(arith.divisors(28)) == [1, 2, 4, 7, 14, 28]
    for n in (36, 97, 5040):
        assert list(arith.divisors(n)) == sympy.divisors(n)


def test_mobius_divisor_sum_is_delta():
    for n in range(1, 2001):
        s = sum(arith.mobius(d) for d in arith.divisors(n))
        assert s == (1 if n == 1 else 0)


def test_phi_star_examples():
    assert arith.phi_star(1) == 1
    assert arith.phi_star(4) == 1
    assert arith.phi_star(7) == 5
    assert arith.phi_star(9) == 4
    assert arith.phi_star(53) == 51
    assert [arith.phi_star(q) for q in (2, 6, 10, 94)] == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        arith.phi_star(0)


def test_phi_star_inverts_phi():
    # phi(q) recovered as the divisor sum of phi_star
    for q in range(1, 201):
        total = sum(arith.phi_star(f) for f in arith.divisors(q))
        assert total == sympy.totient(q), q


def test_multiplicativity_on_coprime_pairs():
    rng = np.random.default_rng(11)
    fns = (helpers.divisor_count, arith.euler_phi, arith.mobius,
           helpers.w_of, arith.phi_star)
    checked = 0
    while checked < 200:
        a, b = (int(v) for v in rng.integers(2, 5000, size=2))
        if math.gcd(a, b) != 1:
            continue
        for fn in fns:
            assert fn(a * b) == fn(a) * fn(b), (fn.__name__, a, b)
        assert (helpers.big_omega(a * b)
                == helpers.big_omega(a) + helpers.big_omega(b))
        checked += 1
