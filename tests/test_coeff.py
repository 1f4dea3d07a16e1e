import math
import time

import pytest
from hypothesis import given, strategies as st

from umatch import GF, DivisionByZeroError, FieldMismatchError, UsageError
from umatch.coeff import Field, _is_prime

PRIMES = [2, 3, 7, 101]


def test_known_sums():
    f7 = GF(7)
    assert (f7.element(3) + f7.element(5)).value == 1
    f2 = GF(2)
    assert (f2.element(1) + f2.element(1)).value == 0
    assert (f7.element(0) + f7.element(4)).value == 4


def test_known_inverses_and_negation():
    f7 = GF(7)
    assert f7.element(3).inverse().value == 5
    assert GF(2).inv(1) == 1
    assert (-f7.element(6)).value == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZeroError):
        GF(7).inv(0)
    with pytest.raises(DivisionByZeroError):
        GF(2).element(0).inverse()


def test_mismatched_moduli_rejected():
    with pytest.raises(FieldMismatchError):
        GF(7).element(1) + GF(3).element(1)


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(UsageError):
            GF(bad)


def test_large_prime_modulus_is_fast():
    # Field itself, not the cached GF, so that the primality test runs
    t0 = time.perf_counter()
    f = Field(2**61 - 1)
    assert time.perf_counter() - t0 < 0.5
    assert GF(2**61 - 1) == f
    assert f.mul(f.inv(12345), 12345) == 1


def test_pseudoprimes_and_huge_moduli_rejected():
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5 and 7,
    # and a multiple of 3 next to a Mersenne prime
    for bad in (561, 3215031751, 2**61 + 1):
        with pytest.raises(UsageError):
            GF(bad)
    # 2**64 + 13 is prime, but the modulus is bounded
    for big in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(UsageError):
            GF(big)


def test_is_prime_agrees_with_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(10**5))


def test_gf2_specialization_behaves_like_xor():
    f = GF(2)
    for a in (0, 1):
        assert f.neg(a) == a
        for b in (0, 1):
            assert f.add(a, b) == a ^ b
            assert f.sub(a, b) == a ^ b
            assert f.mul(a, b) == a & b
    assert f.inv(1) == 1
    assert f.div(0, 1) == 0 and f.div(1, 1) == 1
    assert f.normalize(-1) == 1
    with pytest.raises(DivisionByZeroError):
        f.inv(0)


@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_field_axioms(p, a, b, c):
    f = GF(p)
    a, b, c = f.normalize(a), f.normalize(b), f.normalize(c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.mul(a, 1) == a


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**6))
def test_inverse_involution(p, a):
    f = GF(p)
    a = f.normalize(a)
    if a == 0:
        a = 1
    assert f.mul(f.inv(a), a) == 1
    assert f.inv(f.inv(a)) == a


def test_element_operators():
    f = GF(7)
    x, y = f.element(6), f.element(4)
    assert (x * y).value == 3
    assert (x - y).value == 2
    assert (-x).value == 1
    assert bool(f.element(0)) is False
