import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delcode import (
    PermCodeBook,
    Word,
    apply_unstable_deletions,
    delete_positions,
    draw_deletion_pattern,
    induced_permutation,
    induced_set,
)
from delcode.model import ball_index, check_permutation, set_bits

from deletion_oracle import apply_stable_deletions


def is_subsequence(short, long):
    # two-pointer oracle, independent of the library's membership tests
    j = 0
    for s in short:
        while j < len(long) and long[j] != s:
            j += 1
        if j == len(long):
            return False
        j += 1
    return True


class TestWord:
    def test_symbols_must_fit_alphabet(self):
        with pytest.raises(ValueError):
            Word((0, 5), 5)
        with pytest.raises(ValueError):
            Word((-1,), 5)

    def test_multiplicity_free_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Word((1, 2, 1), 5, multiplicity_free=True)

    def test_multiplicity_free_capped_by_alphabet(self):
        # distinct symbols in [0, q) number at most q, so the range check refuses it
        with pytest.raises(ValueError, match="symbol 2 outside"):
            Word((0, 1, 2), 2, multiplicity_free=True)

    def test_flag_checks_the_symbols_and_is_not_kept(self):
        assert Word.__slots__ == ("symbols", "alphabet_size")
        plain, checked = Word((1, 2), 3), Word((1, 2), 3, True)
        assert plain == checked and hash(plain) == hash(checked)
        assert len({plain, checked}) == 1

    def test_empty_word(self):
        assert len(Word((), 4)) == 0


class TestSymbolSet:
    # a symbol set is its characteristic mask; induced_set converts symbols to it
    def test_from_symbols_roundtrip(self):
        mask = induced_set(Word((5, 0, 2), 6))
        assert mask == 0b100101
        assert set_bits(mask) == [0, 2, 5]
        assert mask.bit_count() == 3
        assert mask >> 2 & 1 and not mask >> 3 & 1

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            induced_set(Word((1, 1), 4))


class TestSetBits:
    @given(st.data())
    def test_symbols_are_the_set_bits_in_order(self, data):
        q = data.draw(st.integers(0, 80))
        mask = data.draw(st.integers(0, (1 << q) - 1))
        assert set_bits(mask) == [i for i in range(q) if mask >> i & 1]


class TestPermutation:
    """A permutation is the tuple of its images; `check_permutation` refuses any
    other sequence, and a book checks each of its codewords with it."""

    def test_images_must_be_rearrangement(self):
        message = r"^images are not a rearrangement of 1\.\.n$"
        for images in (1, 1, 2), (0, 1), (0, 1, 2), (2, 3):
            with pytest.raises(ValueError, match=message):
                check_permutation(images)
            # each codeword is checked, not only the first
            with pytest.raises(ValueError, match=message):
                PermCodeBook(len(images), 0, (tuple(range(1, len(images) + 1)), images))

    def test_empty_permutation_allowed(self):
        assert check_permutation([]) == ()
        assert PermCodeBook(0, 0, ((),)).codewords == ((),)

    def test_returns_the_images_as_a_tuple(self):
        assert check_permutation([2, 3, 1]) == (2, 3, 1)
        assert check_permutation(iter((1, 2))) == (1, 2)


class TestDeletePositions:
    def test_drops_requested_positions(self):
        x = Word((6, 7, 4, 5, 3), 8, multiplicity_free=True)
        got = delete_positions(x, (2, 4))
        assert got.symbols == (6, 4, 3)

    def test_empty_pattern_is_identity(self):
        x = Word((1, 2, 3), 4)
        assert delete_positions(x, ()) == x

    def test_full_deletion_yields_empty_word(self):
        x = Word((0, 9, 0, 9), 10)
        assert delete_positions(x, (1, 2, 3, 4)).symbols == ()

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            delete_positions(Word((1, 2), 4), (3,))

    @given(st.data())
    def test_result_is_subsequence_of_right_length(self, data):
        q = data.draw(st.integers(2, 9))
        symbols = tuple(data.draw(st.lists(st.integers(0, q - 1), max_size=12)))
        k = data.draw(st.integers(0, len(symbols)))
        positions = data.draw(
            st.sets(st.integers(1, max(len(symbols), 1)), min_size=k, max_size=k)
            if symbols
            else st.just(set())
        )
        x = Word(symbols, q)
        got = delete_positions(x, tuple(positions))
        assert len(got) == len(x) - len(positions)
        assert is_subsequence(got.symbols, x.symbols)

    def test_composition_matches_combined_pattern_exhaustively(self):
        # deleting I, then J on the shifted coordinates, equals one combined deletion
        for n in range(1, 6):
            x = Word(tuple(range(10, 10 + n)), 20, multiplicity_free=True)
            for r in range(n + 1):
                for first in itertools.combinations(range(1, n + 1), r):
                    survivors = [k for k in range(1, n + 1) if k not in first]
                    mid = delete_positions(x, first)
                    for r2 in range(len(survivors) + 1):
                        for second in itertools.combinations(range(1, len(survivors) + 1), r2):
                            two_step = delete_positions(mid, second)
                            combined = tuple(first) + tuple(survivors[j - 1] for j in second)
                            one_step = delete_positions(x, combined)
                            assert two_step == one_step


class TestPositionsCheck:
    """The one check of a deletion pattern, made where it is applied: a repeated
    position, or one outside [1, len], raises ValueError; otherwise the
    survivors come back in order."""

    @given(st.data())
    def test_refused_exactly_when_repeated_or_out_of_range(self, data):
        n = data.draw(st.integers(0, 10))
        positions = tuple(data.draw(st.lists(st.integers(0, n + 1), max_size=5)))
        valid = len(set(positions)) == len(positions) and all(1 <= k <= n for k in positions)
        x = Word(tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))), 4)
        sigma = tuple(data.draw(st.permutations(range(1, n + 1))))
        kept_symbols = tuple(s for k, s in enumerate(x.symbols, start=1) if k not in positions)
        kept_images = [v for k, v in enumerate(sigma, start=1) if k not in positions]
        ranks = tuple(sorted(kept_images).index(v) + 1 for v in kept_images)
        if valid:
            assert delete_positions(x, positions) == Word(kept_symbols, 4)
            assert apply_unstable_deletions(sigma, positions) == ranks
        else:
            with pytest.raises(ValueError):
                delete_positions(x, positions)
            with pytest.raises(ValueError):
                apply_unstable_deletions(sigma, positions)

    def test_error_texts(self):
        x = Word((1, 2, 3), 4)
        with pytest.raises(ValueError, match=r"^duplicate deletion position$"):
            delete_positions(x, (2, 2))
        for bad in (0, 4):
            with pytest.raises(ValueError, match=rf"^position {bad} outside \[1, 3\]$"):
                delete_positions(x, (1, bad))


class TestStableDeletions:
    def test_single_deletion(self):
        got = apply_stable_deletions((2, 3, 1, 4, 5), (2,))
        assert got.symbols == (2, 1, 4, 5)

    def test_double_deletion(self):
        got = apply_stable_deletions((4, 5, 2, 3, 1), (2, 4))
        assert got.symbols == (4, 2, 1)

    def test_empty_pattern(self):
        sigma = (1, 2, 3)
        assert apply_stable_deletions(sigma, ()).symbols == (1, 2, 3)

    def test_result_is_word_not_permutation(self):
        got = apply_stable_deletions((2, 3, 1), (3,))
        assert isinstance(got, Word)
        # surviving values keep their range, so they need the full [n] alphabet
        assert got.alphabet_size == 4


class TestUnstableDeletions:
    @pytest.mark.parametrize("sigma", [(0, 1, 2), (1, 1, 2)])
    def test_refuses_a_non_permutation(self, sigma):
        # unchecked, rank compression would return (1, 2, 3) and (2, 2, 3)
        for positions in ((), (3,)):
            with pytest.raises(ValueError, match=r"^images are not a rearrangement of 1\.\.n$"):
                apply_unstable_deletions(sigma, positions)

    def test_single_deletion(self):
        got = apply_unstable_deletions((2, 3, 1, 4, 5), (2,))
        assert got == (2, 1, 3, 4)

    def test_double_deletion(self):
        got = apply_unstable_deletions((2, 3, 1, 4, 5), (2, 4))
        assert got == (2, 1, 3)

    def test_identity_is_fixed(self):
        for n in range(1, 6):
            for r in range(min(2, n) + 1):
                for positions in itertools.combinations(range(1, n + 1), r):
                    got = apply_unstable_deletions(tuple(range(1, n + 1)), positions)
                    assert got == tuple(range(1, n - r + 1))

    def test_matches_rank_compressed_stable_deletion_exhaustively(self):
        for n in range(1, 6):
            for sigma in itertools.permutations(range(1, n + 1)):
                for r in range(min(2, n) + 1):
                    for positions in itertools.combinations(range(1, n + 1), r):
                        stable = apply_stable_deletions(sigma, positions)
                        assert apply_unstable_deletions(sigma, positions) == induced_permutation(stable)


class TestChannel:
    def test_zero_budget_gives_empty_pattern(self):
        for seed in range(20):
            assert draw_deletion_pattern(random.Random(seed), 5, 0) == ()

    def test_deterministic_for_fixed_seed(self):
        for seed in (0, 1, 12345):
            draw = draw_deletion_pattern(random.Random(seed), 9, 3)
            assert draw == draw_deletion_pattern(random.Random(seed), 9, 3)

    def test_seeded_draws_pinned(self):
        # sorted position tuples; the digest was taken when a draw was a record, from its positions
        rng = random.Random(7)
        draws = [draw_deletion_pattern(rng, (5, 7, 9)[i % 3], i % 4) for i in range(1000)]
        assert all(type(draw) is tuple and list(draw) == sorted(set(draw)) for draw in draws)
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == "bb98489e782c04312c46c8137dd17ca3f6e5effa8d06c55a456109b2f13c72ad"

    def test_budget_above_length_rejected(self):
        with pytest.raises(ValueError):
            draw_deletion_pattern(random.Random(0), 3, 4)

    def test_size_distribution_uniform(self):
        # two-stage draw: the size itself is uniform over {0, 1, 2}
        counts = {0: 0, 1: 0, 2: 0}
        samples = 10_000
        for seed in range(samples):
            counts[len(draw_deletion_pattern(random.Random(seed), 5, 2))] += 1
        for size, count in counts.items():
            assert abs(count / samples - 1 / 3) <= 0.02, (size, count)
        expected = samples / 3
        chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi_square < 13.82  # 99.9% quantile, 2 degrees of freedom


class TestBallIndex:
    def test_positions_and_meetings(self):
        index = ball_index(["ab", "bc"], lambda word: [word, word[0], word[1]])
        assert index == {"ab": 0, "a": 0, "b": None, "bc": 1, "c": 1}

    def test_repeated_member_meets_itself(self):
        # compared by position, so an equal value at another position still meets
        assert ball_index([5, 5], lambda m: [m]) == {5: None}

    def test_key_yielded_twice_in_one_ball(self):
        assert ball_index([7, 8], lambda m: [m, m, -m, m]) == {7: 0, -7: 0, 8: 1, -8: 1}

    def test_empty(self):
        assert ball_index([], lambda m: [m]) == {}
