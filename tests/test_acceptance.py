"""Acceptance suite: one test per criterion.  Each criterion reports a
pass/fail line in the "acceptance criteria" section of the pytest summary."""

import itertools
import math
from fractions import Fraction

from delcode import (
    MultFreeCodeSpec,
    PermCodeBook,
    SetCode,
    VTParams,
    Word,
    apply_unstable_deletions,
    best_class,
    build_code,
    class_sizes,
    decode_steps,
    delete_positions,
    enumerate_class,
    greedy_sd_code,
    induced_permutation,
    induced_set,
    next_prime_above,
    psi,
    redundancy,
    redundancy_bound,
    sd_decode,
    set_decode,
    simulate,
    size_lower_bound,
    symbol_ranks,
    verify_sd_property,
)

from bitword_oracle import decode_asymmetric, subset_to_bitword
from deletion_oracle import apply_stable_deletions


def patterns_up_to(n, t):
    for size in range(min(t, n) + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def test_criterion_1_worked_example_fidelity(criterion):
    with criterion(1, "worked-example fidelity", max_seconds=1.0):
        book = PermCodeBook(5, 2, ((1, 2, 3, 4, 5), (4, 5, 2, 3, 1)))
        sets = (0b00011111, 0b11111000)  # {0, 1, 2, 3, 4} and {3, 4, 5, 6, 7}
        spec = MultFreeCodeSpec(8, 5, 2, "stable", SetCode(8, 5, 2, sets=sets), book)
        words = [w.symbols for w in build_code(spec)]
        assert words == [(0, 1, 2, 3, 4), (3, 4, 1, 2, 0), (3, 4, 5, 6, 7), (6, 7, 4, 5, 3)]

        recovered, ranks, sigma, codeword = decode_steps(spec, Word((6, 4, 3), 8, multiplicity_free=True))
        assert recovered == 0b11111000
        assert ranks == (4, 2, 1)
        assert sigma == (4, 5, 2, 3, 1)
        assert codeword.symbols == (6, 7, 4, 5, 3)


def test_criterion_2_bijection_suite(criterion):
    with criterion(2, "decomposition bijection", max_seconds=1.0):
        q, n = 6, 3
        words = [
            Word(symbols, q, multiplicity_free=True)
            for symbols in itertools.permutations(range(q), n)
        ]
        assert len(words) == 120
        for x in words:
            assert psi(induced_set(x), induced_permutation(x), q) == x
        pairs = 0
        for members in itertools.combinations(range(q), n):
            subset = sum(1 << s for s in members)
            for sigma in itertools.permutations(range(1, n + 1)):
                x = psi(subset, sigma, q)
                assert (induced_set(x), induced_permutation(x)) == (subset, sigma)
                pairs += 1
        assert pairs == 120


def test_criterion_3_vt_asymmetric_decoding(criterion):
    with criterion(3, "constant-weight asymmetric decoding", max_seconds=30.0):
        q, n, t = 10, 5, 2
        p = next_prime_above(q)
        assert p == 11
        a, _ = best_class(q, n, t, p)
        params = VTParams(q, n, t, p, a)
        masks = enumerate_class(q, n, t, p, a)
        class_words = [subset_to_bitword(m, q) for m in masks]
        assert class_words
        for codeword in class_words:
            ones = [i for i, bit in enumerate(codeword, start=1) if bit]
            for e in range(t + 1):
                for flips in itertools.combinations(ones, e):
                    y = list(codeword)
                    for i in flips:
                        y[i - 1] = 0
                    y = tuple(y)
                    mask = sum(bit << i for i, bit in enumerate(y))
                    got = subset_to_bitword(set_decode(mask, params), q)
                    assert got == codeword
                    # the bitword reference decoder agrees
                    assert decode_asymmetric(y, params) == got
                    # brute-force class-search oracle: unique dominating word
                    dominating = [
                        c for c in class_words if all(ci >= yi for ci, yi in zip(c, y))
                    ]
                    assert dominating == [got]


def test_criterion_4_pigeonhole_bound(criterion):
    with criterion(4, "pigeonhole class size and partition"):
        q, n, t = 10, 5, 2
        p = next_prime_above(q)
        _, size = best_class(q, n, t, p)
        assert size >= math.ceil(252 / 121) == 3
        sizes = class_sizes(q, n, t, p)
        assert sum(sizes.values()) == math.comb(10, 5) == 252


def test_criterion_5_permutation_sd_suite(criterion):
    with criterion(5, "stable-deletion permutation codes", max_seconds=60.0):
        book = greedy_sd_code(5, 2)
        assert verify_sd_property(book)
        for sigma in book.codewords:
            for pat in patterns_up_to(5, 2):
                received = apply_stable_deletions(sigma, pat).symbols
                assert sd_decode(book, received) == sigma
        for n in range(1, 7):
            assert len(greedy_sd_code(n, 0).codewords) == math.factorial(n)


def test_criterion_6_commutation_laws(criterion):
    with criterion(6, "deletion commutation laws"):
        for q in range(2, 9):
            for n in range(1, min(q, 5) + 1):
                for symbols in itertools.permutations(range(q), n):
                    x = Word(symbols, q, multiplicity_free=True)
                    sigma = induced_permutation(x)
                    subset = induced_set(x)
                    for pat in patterns_up_to(n, 2):
                        y = delete_positions(x, pat)
                        assert symbol_ranks(subset, y) == apply_stable_deletions(sigma, pat).symbols
                        assert induced_permutation(y) == apply_unstable_deletions(sigma, pat)


def test_criterion_7_monte_carlo_channel(criterion):
    with criterion(7, "seeded channel recovery", max_seconds=60.0):
        q, n, t = 12, 5, 2
        p = next_prime_above(q)
        a, _ = best_class(q, n, t, p)
        spec = MultFreeCodeSpec(
            q, n, t, "stable", SetCode.from_vt(VTParams(q, n, t, p, a)), greedy_sd_code(n, t)
        )
        first = simulate(spec, trials=1000, t_max=2, seed=2024)
        assert first.failures == 0
        assert first.successes == 1000
        second = simulate(spec, trials=1000, t_max=2, seed=2024)
        assert first == second


def test_criterion_8_bounds_arithmetic(criterion):
    with criterion(8, "bounds arithmetic"):
        exact, log2_direct = size_lower_bound(8, 5, 2)
        assert abs(float(exact) - 0.0002625) <= 1e-10
        assert exact == Fraction(21, 80_000)
        assert redundancy(8, 5, 4) == 13.0
        assert redundancy_bound(1024, 16, 1) == 21.0
        log2_log_space = (
            sum(math.log2(8 - i) for i in range(5)) - 5 * math.log2(10) - 2 * math.log2(16)
        )
        assert abs(log2_direct - log2_log_space) < 1e-10
