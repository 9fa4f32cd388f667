"""The primes of `delcode.modular`, and the Newton and locator-root reference
that `tests/bitword_oracle.py` decodes with."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delcode import BoundViolated, VTParams, next_prime_above
from delcode.modular import is_prime

from bitword_oracle import locator_roots, power_sums_to_elementary


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class TestPrimes:
    def test_is_prime_matches_trial_division_small(self):
        for n in range(2000):
            assert is_prime(n) == trial_division(n), n

    def test_is_prime_matches_trial_division_sampled(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            assert is_prime(n) == trial_division(n), n

    def test_is_prime_matches_a_sieve(self):
        # below 10^5 against Eratosthenes, and next_prime_above on [2, 10^4] is the
        # sieve's next prime
        limit = 10**5
        sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
        for q in range(2, 10**4 + 1):
            assert next_prime_above(q) == sieve.index(1, q + 1), q

    def test_largest_default_cap_modulus_is_quick(self):
        # 19,999,999 is prime, and p <= 2q <= 2 * 10^7 under the default cap
        start = time.perf_counter()
        assert is_prime(19_999_999)
        assert time.perf_counter() - start < 0.05

    def test_modulus_rejects_composites(self):
        # composites in (q, 2q] fail the primality test; other moduli fail the range
        # check, which runs first
        for q, bad in ((3, 4), (300, 561), (8, 9), (8, 15)):
            with pytest.raises(ValueError, match=f"{bad} is not prime"):
                VTParams(q, 2, 1, bad, (0,))
        for bad in (0, 1, 9, 561):
            with pytest.raises(ValueError, match=f"need q < p <= 2q, got q=3, p={bad}"):
                VTParams(3, 2, 1, bad, (0,))

    def test_next_prime_above_examples(self):
        assert next_prime_above(2) == 3
        assert next_prime_above(10) == 11
        assert next_prime_above(8) == 11
        assert next_prime_above(8) <= 16

    def test_next_prime_above_minimal_exhaustive(self):
        for q in range(2, 200):
            p = next_prime_above(q)
            assert p > q
            assert trial_division(p)
            assert not any(trial_division(m) for m in range(q + 1, p))

    def test_bertrand_bound_sampled(self):
        rng = random.Random(1)
        qs = list(range(2, 1000)) + [rng.randrange(10**3, 10**6) for _ in range(50)]
        for q in qs:
            p = next_prime_above(q)
            assert q < p <= 2 * q

    def test_bertrand_failure_raises(self, monkeypatch):
        # a primality test that misses every prime up to 2q must not go unnoticed
        monkeypatch.setattr("delcode.modular.is_prime", lambda n: n > 100)
        with pytest.raises(BoundViolated):
            next_prime_above(10)

    def test_rejects_tiny_q(self):
        with pytest.raises(ValueError):
            next_prime_above(1)


class TestNewtonIdentities:
    def test_single_power_sum_is_identity(self):
        for r in range(11):
            assert power_sums_to_elementary((r,), 11) == (r,)

    def test_two_roots_mod_seven(self):
        # roots {2, 3}: e1 = 5, e2 = 6
        assert power_sums_to_elementary((5, 6), 7) == (5, 6)

    def test_three_roots_mod_eleven(self):
        # roots {1, 2, 4}: power sums (7, 21, 73) = (7, 10, 7) mod 11
        assert power_sums_to_elementary((7, 10, 7), 11) == (7, 3, 8)

    def test_too_many_terms_rejected(self):
        with pytest.raises(ValueError):
            power_sums_to_elementary((1, 2, 3), 3)


class TestLocatorRoots:
    def test_quadratic_example(self):
        assert locator_roots((5, 6), range(1, 7), 7) == {2, 3}

    def test_linear_locator(self):
        assert locator_roots((4,), {4}, 7) == {4}

    def test_roots_absent_from_candidates(self):
        assert locator_roots((5, 6), {1, 4, 5}, 7) == set()

    def test_locator_polynomial_signs(self):
        # (X - 1)(X - 2)(X - 4) = X^3 - 7X^2 + 14X - 8: e = (7, 14, 8) = (7, 3, 8) mod 11.
        # Flipping the sign of the odd terms would give the roots -1, -2, -4 = 10, 9, 7 instead.
        assert locator_roots((7, 3, 8), range(11), 11) == {1, 2, 4}


def roundtrip(q: int, deleted: tuple[int, ...]) -> set[int]:
    p = next_prime_above(q)
    e = len(deleted)
    sums = tuple(sum(pow(i, k, p) for i in deleted) % p for k in range(1, e + 1))
    return locator_roots(power_sums_to_elementary(sums, p), range(1, q + 1), p)


class TestRoundTrip:
    def test_exhaustive_small(self):
        # every subset of [1, q] with at most 4 elements comes back intact
        for q in range(2, 13):
            for e in range(1, min(q, 4) + 1):
                for deleted in itertools.combinations(range(1, q + 1), e):
                    assert roundtrip(q, deleted) == set(deleted), (q, deleted)

    @given(st.data())
    def test_random_larger(self, data):
        q = data.draw(st.integers(13, 40))
        e = data.draw(st.integers(1, 4))
        deleted = tuple(data.draw(st.sets(st.integers(1, q), min_size=e, max_size=e)))
        assert roundtrip(q, deleted) == set(deleted)
