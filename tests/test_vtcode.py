import gc
import itertools
import json
import math
import random
import time
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcode import (
    BoundViolated,
    DecodeError,
    MultFreeCodeSpec,
    PermCodeBook,
    ScaleGuardExceeded,
    SetCode,
    SetDecodeFailed,
    VTParams,
    Word,
    best_class,
    class_size,
    class_sizes,
    decode_steps,
    enumerate_class,
    is_codeword,
    load_spec,
    next_prime_above,
    save_spec,
    set_decode,
    vtcode,
)

from delcode.model import set_bits

from bitword_oracle import decode_asymmetric, subset_to_bitword, vt_syndrome
from bitword_oracle import is_codeword as is_bitword_codeword


def flips_of(codeword, budget):
    ones = [i for i, bit in enumerate(codeword, start=1) if bit]
    for e in range(min(budget, len(ones)) + 1):
        for chosen in itertools.combinations(ones, e):
            hit = list(codeword)
            for i in chosen:
                hit[i - 1] = 0
            yield tuple(hit)


def to_mask(word):
    return sum(bit << i for i, bit in enumerate(word))


def oracle_census(q, n, t, p):
    """Reference syndrome partition: walk every n-subset of the q positions.
    combinations yields them in encode order, so each class lists its masks in
    the order of their sorted symbols."""
    classes = {}
    for positions in itertools.combinations(range(1, q + 1), n):
        label = tuple(sum(pow(i, k, p) for i in positions) % p for k in range(1, t + 1))
        classes.setdefault(label, []).append(sum(1 << (i - 1) for i in positions))
    return classes


def dominating_search(y, class_words, n):
    # brute-force oracle: the unique full-weight class word covering y
    hits = [c for c in class_words if all(ci >= yi for ci, yi in zip(c, y))]
    assert len(hits) == 1
    return hits[0]


class TestSyndrome:
    def test_all_zeros(self):
        assert vt_syndrome((0,) * 6, 3, 7) == (0, 0, 0)

    def test_single_one_at_position_one(self):
        assert vt_syndrome((1, 0, 0, 0, 0), 2, 7) == (1, 1)

    def test_two_ones(self):
        # positions 2 and 4: 2+4 = 6, 4+16 = 20 = 6 mod 7
        assert vt_syndrome((0, 1, 0, 1, 0), 2, 7) == (6, 6)

    def test_modulus_must_exceed_length(self):
        with pytest.raises(ValueError):
            vt_syndrome((0,) * 7, 1, 7)

    @given(st.lists(st.integers(0, 1), max_size=30), st.integers(0, 4))
    def test_matches_power_sums(self, word, t):
        p = next_prime_above(max(len(word), 2))
        ones = [i for i, bit in enumerate(word, start=1) if bit]
        expected = tuple(sum(pow(i, k, p) for i in ones) % p for k in range(1, t + 1))
        assert vt_syndrome(word, t, p) == expected


class TestParams:
    def make(self):
        return VTParams(5, 2, 2, 7, (6, 6))

    def test_membership_definitional(self):
        params = self.make()
        assert is_bitword_codeword((0, 1, 0, 1, 0), params)
        assert not is_bitword_codeword((0, 0, 0, 0, 0), params)  # weight mismatch
        assert not is_bitword_codeword((1, 1, 0, 0, 0), params)  # wrong syndrome

    def test_json_roundtrip(self, tmp_path):
        params = self.make()
        path = tmp_path / "spec.json"
        book = PermCodeBook(2, 2, ((1, 2),))
        save_spec(MultFreeCodeSpec(5, 2, 2, "stable", SetCode.from_vt(params), book), path)
        assert json.loads(path.read_text())["set_code"] == {"q": 5, "n": 2, "t": 2, "p": 7, "a": [6, 6]}
        assert load_spec(path).set_code.vt == params

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            VTParams(5, 6, 1, 7, (0,))  # n > q
        with pytest.raises(ValueError):
            VTParams(5, 2, 1, 5, (0,))  # p <= q
        with pytest.raises(ValueError):
            VTParams(5, 2, 1, 11, (0,))  # p > 2q
        with pytest.raises(ValueError):
            VTParams(5, 2, 0, 7, ())  # t < 1
        with pytest.raises(ValueError):
            VTParams(5, 2, 2, 7, (6,))  # wrong length
        with pytest.raises(ValueError):
            VTParams(5, 2, 1, 7, (7,))  # residue range


class TestDecodeAsymmetric:
    def setup_method(self):
        self.params = VTParams(5, 2, 2, 7, (6, 6))
        self.codeword = (0, 1, 0, 1, 0)

    def test_zero_error_passthrough(self):
        assert decode_asymmetric(self.codeword, self.params) == self.codeword

    def test_single_flip(self):
        assert decode_asymmetric((0, 0, 0, 1, 0), self.params) == self.codeword

    def test_double_flip(self):
        assert decode_asymmetric((0, 0, 0, 0, 0), self.params) == self.codeword

    def test_weight_too_low(self):
        params = VTParams(5, 3, 1, 7, (1,))
        with pytest.raises(SetDecodeFailed, match="below n - t"):
            decode_asymmetric((1, 0, 0, 0, 0), params)

    def test_overweight_rejected(self):
        with pytest.raises(SetDecodeFailed, match="exceeds the code weight"):
            decode_asymmetric((1, 1, 1, 0, 0), self.params)

    def test_corrupt_full_weight_word(self):
        with pytest.raises(SetDecodeFailed, match="no 0 clear positions"):
            decode_asymmetric((1, 1, 0, 0, 0), self.params)

    def test_soundness_exhaustive_and_oracle_agreement(self):
        # every class of every (q, n, t) in the desk box decodes every
        # at-most-t flip pattern back to its source, matching the brute oracle
        for q in range(2, 13):
            p = next_prime_above(q)
            for n in range(1, min(q, 6) + 1):
                for t in range(1, 4):
                    classes: dict[tuple, list] = {}
                    for positions in itertools.combinations(range(1, q + 1), n):
                        word = tuple(1 if i + 1 in positions else 0 for i in range(q))
                        label = vt_syndrome(word, t, p)
                        classes.setdefault(label, []).append(word)
                    for label, words in classes.items():
                        params = VTParams(q, n, t, p, label)
                        for codeword in words:
                            for y in flips_of(codeword, t):
                                got = decode_asymmetric(y, params)
                                assert got == codeword
                                assert got == dominating_search(y, words, n)


class TestEnumeration:
    def test_full_weight_class(self):
        p = 7
        a_match = vt_syndrome((1, 1, 1), 1, p)
        assert enumerate_class(3, 3, 1, p, a_match) == [0b111]
        a_miss = ((a_match[0] + 1) % 7,)
        assert enumerate_class(3, 3, 1, p, a_miss) == []

    def test_known_member(self):
        got = enumerate_class(5, 2, 2, 7, (6, 6))
        assert to_mask((0, 1, 0, 1, 0)) in got

    def test_lexicographic_order(self):
        # encode order: strictly ascending in the sorted symbols, no sort needed
        for q, n, t in [(8, 3, 1), (12, 5, 2), (13, 6, 3)]:
            p = next_prime_above(q)
            a, size = best_class(q, n, t, p)
            symbols = [set_bits(m) for m in enumerate_class(q, n, t, p, a)]
            assert len(symbols) == size > 1
            assert all(x < y for x, y in zip(symbols, symbols[1:]))

    def test_partition(self):
        # classes are disjoint and their sizes add up to C(q, n)
        q, n, t, p = 5, 2, 2, 7
        seen = set()
        total = 0
        for label in itertools.product(range(7), repeat=t):
            words = enumerate_class(q, n, t, p, label)
            assert seen.isdisjoint(words)
            seen.update(words)
            total += len(words)
        assert total == math.comb(q, n) == len(seen)

    def test_class_sizes_census(self):
        sizes = class_sizes(5, 2, 2, 7)
        assert sum(sizes.values()) == 10
        assert sizes[(6, 6)] == len(enumerate_class(5, 2, 2, 7, (6, 6)))


class TestAgainstOracle:
    """The counting DP and the pruned walk match the subset walk on the desk box."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_census_and_classes(self, t):
        for q in range(2, 13):
            p = next_prime_above(q)
            if p**t > 2500:
                continue
            for n in range(q + 1):
                oracle = oracle_census(q, n, t, p)
                sizes = class_sizes(q, n, t, p)
                assert sizes == {label: len(words) for label, words in oracle.items()}
                assert list(sizes) == sorted(sizes)
                # every class at t = 1; at t >= 2 the extremes, the middle label and an empty one
                labels = sorted(oracle, key=lambda label: (len(oracle[label]), label))
                if t >= 2:
                    labels = [labels[0], labels[len(labels) // 2], labels[-1]]
                    every = itertools.product(range(p), repeat=t)
                    labels += [label for label in every if label not in oracle][:1]
                for label in labels:
                    assert enumerate_class(q, n, t, p, label) == oracle.get(label, [])
                    assert class_size(q, n, t, p, label) == len(oracle.get(label, []))

    def test_modulus_below_length(self):
        # p <= q: positions i and i + p share a residue vector, so the walk
        # meets several candidates for its last one
        for q, p, t in itertools.product((6, 8), (3, 5), (1, 2)):
            for n in range(q + 1):
                oracle = oracle_census(q, n, t, p)
                assert class_sizes(q, n, t, p) == {a: len(w) for a, w in oracle.items()}
                for label, words in oracle.items():
                    assert enumerate_class(q, n, t, p, label) == words

    def test_label_outside_the_partition_is_empty(self):
        p = 7
        assert enumerate_class(5, 2, 2, p, (7, 0)) == []
        assert class_size(5, 2, 2, p, (1,)) == 0


class CountingTable(bytearray):
    """A suffix-count table that counts the nonzero fields read from it."""

    nonzero = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice) and any(got):
            self.nonzero += 1
        return got


def walk_with_counted_reads(q, n, t, p, label):
    """enumerate_class on a counting copy of the table: the masks and the
    number of nonzero fields the walk read."""
    table, width = vtcode._census(q, n, t, p)
    counting = CountingTable(table)
    with mock.patch.object(vtcode, "_census", lambda *args: (counting, width)):
        masks = enumerate_class(q, n, t, p, label)
    return masks, counting.nonzero


def lookup_depth(q, n, size):
    """How many last ones the walk looks up: the largest k of 1, 2, 3 (k <= n)
    with C(q, k) <= n * size."""
    return max(k for k in (1, 2, 3) if k == 1 or k <= n and math.comb(q, k) <= n * size)


def member_prefixes(masks, longest):
    """Distinct first-k-positions prefixes of the members, 1 <= k <= longest."""
    prefixes = set()
    for mask in masks:
        positions = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        prefixes.update(positions[:k] for k in range(1, longest + 1))
    return prefixes


class TestWalkPruning:
    """The walk enters a branch only for a prefix of some member, down to the
    last k ones, which it looks up.  Each entered branch is one nonzero read;
    one more is class_size's guard."""

    @pytest.mark.parametrize("q, n, t", [(26, 6, 2), (20, 7, 1)])
    def test_enters_member_prefixes_only(self, q, n, t):
        p = next_prime_above(q)
        label, size = best_class(q, n, t, p)
        masks, reads = walk_with_counted_reads(q, n, t, p, label)
        assert len(masks) == size
        assert reads == 1 + len(member_prefixes(masks, n - lookup_depth(q, n, size)))
        assert reads == {(26, 6, 2): 616, (20, 7, 1): 1261}[q, n, t]

    @given(st.data())
    def test_enters_member_prefixes_only_anywhere(self, data):
        q = data.draw(st.integers(2, 12))
        n = data.draw(st.integers(1, q))
        t = data.draw(st.integers(1, 2))
        p = next_prime_above(q)
        oracle = oracle_census(q, n, t, p)
        label = data.draw(st.sampled_from(sorted(oracle)))
        masks, reads = walk_with_counted_reads(q, n, t, p, label)
        assert masks == oracle[label]
        depth = lookup_depth(q, n, len(masks))
        assert reads == 1 + len(member_prefixes(oracle[label], n - depth))

    @pytest.mark.parametrize(
        "q, n, t, depth",
        [(12, 5, 2, 1), (64, 4, 1, 2), (26, 6, 2, 2), (20, 7, 1, 3),
         (24, 7, 2, 3), (30, 7, 2, 3), (40, 6, 1, 3)],
    )
    def test_lookup_depth_rule(self, q, n, t, depth):
        # every depth gives the same walk; the encode-order pins of these
        # points are in test_multfree's SET_ORDER_SHA256
        p = next_prime_above(q)
        label, size = best_class(q, n, t, p)
        assert vtcode._tail_depth(q, n, size) == lookup_depth(q, n, size) == depth
        masks = enumerate_class(q, n, t, p, label)
        if q <= 26:  # the oracle walks all C(q, n) subsets
            assert masks == oracle_census(q, n, t, p)[label]
        for forced in range(1, min(n, 3) + 1):
            with mock.patch.object(vtcode, "_tail_depth", lambda *args: forced):
                assert enumerate_class(q, n, t, p, label) == masks


def list_shift(row, i, t, p):
    """Reference move of a row by position i: one slice rotation per residue
    level of the flat layout, on a list or a bytearray."""
    for k in range(1, t + 1):
        block = p ** (t - k)
        span = p * block
        cut = span - pow(i, k, p) * block
        out = row[:0]
        for s in range(0, len(row), span):
            out += row[s + cut : s + span] + row[s : s + cut]
        row = out
    return row


def list_census(q, n, t, p):
    """Reference census: the syndrome-class DP on lists of Python ints, as a
    dict in flat order, residue 1 most significant."""
    size = p**t
    rows = [[1] + [0] * (size - 1)] + [[0] * size for _ in range(n)]
    for i in range(1, q + 1):
        for w in range(min(i, n), 0, -1):
            rows[w] = [x + y for x, y in zip(rows[w], list_shift(rows[w - 1], i, t, p))]
    labels = []
    for r in range(size):
        digits = []
        for _ in range(t):
            r, d = divmod(r, p)
            digits.append(d)
        labels.append(tuple(reversed(digits)))
    return {label: c for label, c in zip(labels, rows[n]) if c}


def bytearray_reach_table(q, n, t, p):
    """Reference suffix flags, one bytearray row per (i, w), moved by list_shift."""
    size = p**t
    flags = bytearray((q + 2) * n * size)
    flags[(q + 1) * n * size] = 1
    for i in range(q, 0, -1):
        for w in range(min(n - 1, q - i + 1) + 1):
            zero = ((i + 1) * n + w) * size
            row = flags[zero : zero + size]
            if w:
                moved = list_shift(flags[zero - size : zero], i, t, p)
                row = bytearray(x | y for x, y in zip(row, moved))
            flags[(i * n + w) * size : (i * n + w + 1) * size] = row
    return flags


def table_rows(q, n, t, p):
    """The suffix-count table read back as (i, w) -> list of p^t counts."""
    table, width = vtcode._census(q, n, t, p)
    step, size = width // 8, p**t
    assert len(table) == (q + 1) * (n + 1) * size * step
    fields = [int.from_bytes(table[j : j + step], "little") for j in range(0, len(table), step)]
    return {
        (i, w): fields[((i - 1) * (n + 1) + w) * size : ((i - 1) * (n + 1) + w + 1) * size]
        for i in range(1, q + 2)
        for w in range(n + 1)
    }


def assert_table_matches_references(q, n, t, p):
    """Root row (1, n) against the list census, and the nonzero pattern of
    every row (i, w < n) against the bytearray reach flags."""
    rows = table_rows(q, n, t, p)
    labels = itertools.product(range(p), repeat=t)
    root = {label: c for label, c in zip(labels, rows[1, n]) if c}
    assert list(root.items()) == list(list_census(q, n, t, p).items())
    if n == 0:
        return
    flags, size = bytearray_reach_table(q, n, t, p), p**t
    for i in range(1, q + 2):
        for w in range(n):
            start = (i * n + w) * size
            assert [1 if c else 0 for c in rows[i, w]] == list(flags[start : start + size])


class TestPackedRows:
    """The suffix-count table against the list DP, the bytearray reach flags
    and a brute-force suffix count."""

    GRID = [(64, 4, 1), (26, 6, 2), (24, 7, 2), (20, 7, 1), (30, 7, 2), (13, 6, 3), (90, 45, 1)]

    @pytest.mark.parametrize("q, n, t", GRID)
    def test_census_matches_list_dp(self, q, n, t):
        p = next_prime_above(q)
        expected = list_census(q, n, t, p)
        assert list(class_sizes(q, n, t, p).items()) == list(expected.items())
        a = max(expected, key=expected.get)
        assert class_size(q, n, t, p, a) == expected[a]
        empty = next((r for r in itertools.product(range(p), repeat=t) if r not in expected), None)
        if empty is not None:
            assert class_size(q, n, t, p, empty) == 0

    def test_counts_wider_than_64_bits(self):
        q, n, t = 90, 45, 1
        p = next_prime_above(q)
        _, width = vtcode._census(q, n, t, p)
        assert width >= math.comb(q, n).bit_length() > 64
        assert max(class_sizes(q, n, t, p).values()) > 2**64

    @pytest.mark.parametrize("q, n, t", GRID)
    def test_reach_table_matches_bytearray(self, q, n, t):
        assert_table_matches_references(q, n, t, next_prime_above(q))

    # the largest draws take 0.20-0.23 s, over Hypothesis's 200 ms default deadline
    @settings(deadline=2000)
    @given(st.integers(0, 14), st.data())
    def test_small_points_match(self, q, data):
        # moduli below, near and above the block length
        n = data.draw(st.integers(0, q))
        t = data.draw(st.integers(1, 3))
        p = data.draw(st.sampled_from([2, 3, 5, 7, 13, 17]))
        if p**t > 3000:
            t = 1
        sizes = class_sizes(q, n, t, p)
        assert list(sizes.items()) == list(list_census(q, n, t, p).items())
        assert sum(sizes.values()) == math.comb(q, n)
        assert_table_matches_references(q, n, t, p)

    @pytest.mark.parametrize("t", [1, 2])
    def test_every_field_matches_brute_force(self, t):
        # moduli below and above the block length; labels in flat order
        for q in range(11):
            for p in {3, 5, next_prime_above(max(q, 2))}:
                flat = {label: r for r, label in enumerate(itertools.product(range(p), repeat=t))}
                expected = {}  # (i, w) -> per-label count of the w-subsets of positions i..q
                for i in range(1, q + 2):
                    for w in range(q - i + 2):
                        row = expected[i, w] = [0] * p**t
                        for ones in itertools.combinations(range(i, q + 1), w):
                            label = tuple(sum(j**k for j in ones) % p for k in range(1, t + 1))
                            row[flat[label]] += 1
                for n in range(q + 1):
                    for (i, w), row in table_rows(q, n, t, p).items():
                        assert row == expected.get((i, w), [0] * p**t), (q, n, t, p, i, w)


class TestBestClass:
    def test_pigeonhole_bound(self):
        a, size = best_class(10, 5, 2, 11)
        assert size >= math.ceil(252 / 121)

    def test_single_word_space(self):
        a, size = best_class(3, 3, 1, 5)
        assert size == 1

    def test_small_case(self):
        _, size = best_class(5, 2, 1, 7)
        assert size >= 2

    # C(10, 5) = 252 words over 121 classes: a largest class below 3 is impossible
    @pytest.mark.parametrize("census", [{(0, 0): 2, (0, 1): 1}, {}])
    def test_undersized_census_raises(self, monkeypatch, census):
        monkeypatch.setattr("delcode.vtcode.class_sizes", lambda q, n, t, p: census)
        with pytest.raises(BoundViolated):
            best_class(10, 5, 2, 11)

    def test_tie_break_smallest_label(self):
        # q=2, n=1: words (1,0) and (0,1) land in distinct singleton classes
        a, size = best_class(2, 1, 1, 3)
        assert size == 1
        assert a == (1,)


class TestScaleGuard:
    def test_default_guard_trips(self):
        p = next_prime_above(40)
        with pytest.raises(ScaleGuardExceeded):
            enumerate_class(40, 20, 1, p, (0,))

    def test_env_override_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("DELCODE_SCALE_GUARD", "5")
        with pytest.raises(ScaleGuardExceeded):
            enumerate_class(5, 2, 2, 7, (6, 6))

    def test_guard_holds_after_a_cached_census(self, monkeypatch):
        q, n, t, p = 12, 5, 2, 13
        sizes = class_sizes(q, n, t, p)
        misses = vtcode._suffix_counts.cache_info().misses
        assert class_sizes(q, n, t, p) == sizes
        assert vtcode._suffix_counts.cache_info().misses == misses  # served from the cache
        monkeypatch.setenv("DELCODE_SCALE_GUARD", str(q * (n + 1) * p**t - 1))
        with pytest.raises(ScaleGuardExceeded):
            class_sizes(q, n, t, p)

    def test_table_cache_evicts_the_oldest(self):
        # a bounded cache: a third table evicts the first, the newest stays
        size = vtcode._suffix_counts.cache_info().maxsize
        assert size is not None and size >= 2
        points = [(q, 3, 1, next_prime_above(q)) for q in range(10, 11 + size)]
        vtcode._suffix_counts.cache_clear()
        for point in points:
            class_sizes(*point)
        assert vtcode._suffix_counts.cache_info().currsize == size
        misses = vtcode._suffix_counts.cache_info().misses
        class_sizes(*points[-1])
        assert vtcode._suffix_counts.cache_info().misses == misses
        class_sizes(*points[0])
        assert vtcode._suffix_counts.cache_info().misses == misses + 1

    def test_decoder_tables_live_on_the_params(self):
        # the packed rows and the lost-set table are built once per VTParams over
        # many decodes, and released with it
        q, n, t = 26, 6, 2
        p = next_prime_above(q)
        params = VTParams(q, n, t, p, best_class(q, n, t, p)[0])
        tables = None
        for mask in enumerate_class(q, n, t, p, params.a)[:100]:
            assert is_codeword(mask, params)
            first, second = (1 << s for s in set_bits(mask)[:2])
            for lost in (first, second, first | second):  # each reads the lost-set table
                assert set_decode(mask ^ lost, params) == mask
            tables = tables or (params._packed_rows, params._lost_sets)
            assert params._packed_rows is tables[0] and params._lost_sets is tables[1]
        assert set(vars(params)) == {"_packed_rows", "_lost_sets"}
        alive = weakref.ref(params)
        del params
        gc.collect()
        assert alive() is None

    def test_lost_set_keys_guarded_on_load(self):
        # sum of C(q, e) for e <= 3: 9,963,071 at q = 391, 10,039,708 at q = 392
        VTParams(391, 5, 3, next_prime_above(391), (0, 0, 0))
        with pytest.raises(ScaleGuardExceeded, match="lost-set keys would visit 10039708 items"):
            VTParams(392, 5, 3, next_prime_above(392), (0, 0, 0))

    def test_t1_alphabet_reaches_the_key_cap(self):
        # at t = 1 the q keys are the one set-decoder guard: q = 10^7 loads, one more is refused
        q = 10**7
        VTParams(q, 5, 1, next_prime_above(q), (0,))  # no table is built
        with pytest.raises(ScaleGuardExceeded, match="lost-set keys would visit 10000001 items"):
            VTParams(q + 1, 5, 1, next_prime_above(q + 1), (0,))

    @pytest.mark.parametrize("q, p, t", [(10_000, 10_007, 3_000), (40_000, 40_009, 5_000)])
    def test_lost_set_count_stops_at_the_cap(self, q, p, t):
        # the whole sum took 1.55 s and 8.0 s; the second has more than 4,300 digits,
        # so printing it raised Python's digit-limit ValueError
        start = time.perf_counter()
        with pytest.raises(ScaleGuardExceeded, match="lost-set keys would visit more than 10000000 items"):
            VTParams(q, 5, t, p, (0,) * t)
        assert time.perf_counter() - start < 1

    def test_cheap_checks_run_before_the_primality_test(self, monkeypatch):
        # 2^4423 - 1 is prime and far above 2q: the range check refuses it with no
        # trial division, and so does the key guard at q = 2^89 - 2
        monkeypatch.setattr(vtcode, "is_prime", lambda p: pytest.fail("is_prime ran"))
        with pytest.raises(ValueError, match=f"need q < p <= 2q, got q=12, p={2**4423 - 1}$"):
            VTParams(12, 5, 2, 2**4423 - 1, (1, 3))
        with pytest.raises(ScaleGuardExceeded, match="lost-set keys"):
            VTParams(2**89 - 2, 5, 1, 2**89 - 1, (0,))

    def test_env_override_raises_cap(self, monkeypatch):
        monkeypatch.setenv("DELCODE_SCALE_GUARD", str(10**9))
        got = enumerate_class(5, 2, 2, 7, (6, 6))
        assert to_mask((0, 1, 0, 1, 0)) in got


class TestBitwordBridge:
    def test_known_subset(self):
        subset = 0b101100101  # {0, 2, 5, 6, 8}
        assert subset_to_bitword(subset, 9) == (1, 0, 1, 0, 0, 1, 1, 0, 1)
        assert to_mask((1, 0, 1, 0, 0, 1, 1, 0, 1)) == subset

    def test_empty_set(self):
        assert subset_to_bitword(0, 4) == (0, 0, 0, 0)
        assert subset_to_bitword(0, 0) == ()

    def test_random_masks_roundtrip(self):
        rng = random.Random(0)
        for _ in range(1000):
            q = rng.randrange(1, 24)
            mask = rng.randrange(1 << q)
            word = subset_to_bitword(mask, q)
            assert word == tuple(int(s in set_bits(mask)) for s in range(q))
            assert to_mask(word) == mask


class TestSetDecode:
    def test_identity_on_codeword_set(self):
        codeword_set = 0b11111000  # {3, 4, 5, 6, 7}
        p = next_prime_above(8)
        a = vt_syndrome(subset_to_bitword(codeword_set, 8), 2, p)
        params = VTParams(8, 5, 2, p, a)
        assert set_decode(codeword_set, params) == codeword_set

    def test_recovers_after_two_deletions(self):
        codeword_set = 0b11111000  # {3, 4, 5, 6, 7}
        p = next_prime_above(8)
        a = vt_syndrome(subset_to_bitword(codeword_set, 8), 2, p)
        params = VTParams(8, 5, 2, p, a)
        survivors = 0b01011000  # {3, 4, 6}
        assert set_decode(survivors, params) == codeword_set

    def test_alphabet_mismatch(self):
        # the mask decoder has no alphabet; decode_steps checks the received word's
        params = VTParams(5, 2, 2, 7, (6, 6))
        book = PermCodeBook(2, 2, ((1, 2),))
        spec = MultFreeCodeSpec(5, 2, 2, "stable", SetCode.from_vt(params), book)
        with pytest.raises(ValueError, match="alphabet size 4 differs from q = 5"):
            decode_steps(spec, Word((), 4))

    def test_exhaustive_deletions_over_best_class(self):
        q, n, t = 10, 5, 2
        p = next_prime_above(q)
        a, _ = best_class(q, n, t, p)
        params = VTParams(q, n, t, p, a)
        for mask in enumerate_class(q, n, t, p, a):
            for e in range(t + 1):
                for removed in itertools.combinations(set_bits(mask), e):
                    survivors = mask & ~sum(1 << s for s in removed)
                    assert set_decode(survivors, params) == mask


class TestDecoderTableCertificate:
    """`verify`'s certificate passes the lost-set table the decoder builds, and
    lists the sets a corrupted table misreads."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 7, 8, 9, 16, 17, 30])
    def test_built_tables_pass(self, q, t):
        params = VTParams(q, 0, t, next_prime_above(q), (0,) * t)
        assert vtcode.misread_lost_sets(params) == []

    def test_misread_sets_come_in_deletion_order(self):
        params = VTParams(9, 3, 2, next_prime_above(9), (0, 0))
        lost_sets = params._lost_sets
        keys = {positions: key for key, positions in lost_sets.items()}
        for positions in [(8, 9), (1,), (2, 4)]:  # given out of order
            del lost_sets[keys[positions]]
        lost_sets[keys[(3,)]] = (3, 5)  # a set read with a position too many
        assert vtcode.misread_lost_sets(params) == [0b1, 0b100, 0b1010, 0b110000000]


def outcome(decoder, *args):
    """What a decoder returns, or the class and message of the DecodeError it raises."""
    try:
        return decoder(*args)
    except DecodeError as exc:
        return type(exc), str(exc)


def reference_mask(mask, params):
    word = subset_to_bitword(mask, params.q)
    return to_mask(decode_asymmetric(word, params))


def agree(mask, params):
    assert outcome(set_decode, mask, params) == outcome(reference_mask, mask, params)
    word = subset_to_bitword(mask, params.q)
    assert is_codeword(mask, params) == is_bitword_codeword(word, params)


class TestDecodeMask:
    """The bitmask decoder and membership test against the bitword reference
    decode_asymmetric and its is_codeword."""

    @pytest.mark.parametrize(
        "q, n, t", [(64, 4, 1), (26, 6, 2), (24, 7, 2), (20, 7, 1), (30, 8, 3), (20, 8, 3)]
    )
    def test_every_deletion_of_every_member(self, q, n, t):
        p = next_prime_above(q)
        a, _ = best_class(q, n, t, p)
        params = VTParams(q, n, t, p, a)
        for mask in enumerate_class(q, n, t, p, a):
            bits = [1 << s for s in set_bits(mask)]
            for e in range(t + 1):
                for removed in itertools.combinations(bits, e):
                    survivors = mask ^ sum(removed)
                    got = outcome(set_decode, survivors, params)
                    assert got == outcome(reference_mask, survivors, params) == mask

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_every_mask_and_label_exhaustive(self, t):
        # q = 6: every weight, class label and n, so every error path is hit
        q, p = 6, 7
        for n in range(q + 1):
            for label in itertools.product(range(7), repeat=t):
                params = VTParams(q, n, t, p, label)
                for mask in range(1 << q):
                    agree(mask, params)

    def test_every_mask_and_label_at_p_13(self):
        # p = 13 is 1 mod 4, so -1 is a square: v and -v are squares together,
        # where at p = 7 exactly one of them is.  Every two-loss locator's
        # discriminant 2 s2 - s1^2 is met: zero, a square and a non-square
        q, t, p = 7, 2, 13
        for n in range(q + 1):
            for label in itertools.product(range(13), repeat=t):
                params = VTParams(q, n, t, p, label)
                for mask in range(1 << q):
                    agree(mask, params)

    @pytest.mark.parametrize("q", [9, 16, 17])
    @pytest.mark.parametrize("t", [1, 2])
    def test_masks_across_byte_boundaries(self, q, t):
        # members with ones on both sides of bits 7 | 8 and with bit q - 1 set,
        # and every mask under them, at the members' own label and a wrong one
        p = next_prime_above(q)
        spread = sorted({0, 6, 7, 8, 9, 15, q - 1} & set(range(q)))
        for size in range(2, len(spread) + 1):
            for chosen in itertools.combinations(spread, size):
                mask = sum(1 << b for b in chosen)
                if not (mask & 0xFF and mask >> 8 and mask >> (q - 1)):
                    continue
                label = vt_syndrome(subset_to_bitword(mask, q), t, p)
                for shift in (0, 1):
                    params = VTParams(q, size, t, p, tuple((r + shift) % p for r in label))
                    for kept in range(size + 1):
                        for bits in itertools.combinations(chosen, kept):
                            agree(sum(1 << b for b in bits), params)

    @given(st.data())
    def test_arbitrary_masks(self, data):
        q, n, t = data.draw(st.sampled_from([(10, 5, 2), (9, 4, 1), (12, 5, 3), (13, 6, 2)]))
        p = next_prime_above(q)
        label = data.draw(st.tuples(*[st.integers(0, p - 1)] * t))
        params = VTParams(q, n, t, p, label)
        # weights from below n - t through overweight, members included
        weight = data.draw(st.integers(0, q))
        symbols = data.draw(st.sets(st.integers(0, q - 1), min_size=weight, max_size=weight))
        agree(sum(1 << s for s in symbols), params)
        members = enumerate_class(q, n, t, p, label)
        if members:
            agree(data.draw(st.sampled_from(members)), params)

    @pytest.mark.parametrize("q, n, t", [(30, 8, 3), (20, 8, 3), (26, 6, 2), (64, 4, 1)])
    def test_lost_set_keys_do_not_collide(self, q, n, t):
        # one key per set of at most t positions: a shared key would drop a set unseen
        p = next_prime_above(q)
        lost_sets = VTParams(q, n, t, p, (0,) * t)._lost_sets
        assert len(lost_sets) == sum(math.comb(q, e) for e in range(1, t + 1))
        for key, lost in lost_sets.items():
            assert list(lost) == sorted(set(lost)) and 1 <= lost[0] and lost[-1] <= q
            assert key == vt_syndrome(subset_to_bitword(sum(1 << i - 1 for i in lost), q), t, p)

    def test_lost_set_build_streams_its_largest_level(self):
        # each set's key is read off the summed packed rows, so the build peaks near
        # what the table holds: 1.44 times it at q = 40,000 with a residue tuple per position
        for q, t in [(300, 2), (40_000, 1)]:
            p = next_prime_above(q)
            params = VTParams(q, 5, t, p, (0,) * t)
            tracemalloc.start()
            try:
                lost_sets = params._lost_sets
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * held
            expected = {}
            for e in range(1, t + 1):
                for chosen in itertools.combinations(range(1, q + 1), e):
                    key = tuple(sum(pow(i, k, p) for i in chosen) % p for k in range(1, t + 1))
                    expected[key] = chosen
            assert lost_sets == expected
            # fewest positions first, then combinations order
            assert list(lost_sets.values()) == list(expected.values())

    def test_lost_sets_grow_with_the_keys(self):
        # each key holds its positions, not a q-bit mask: 112.3 MB here when it held masks
        params = VTParams(40_000, 5, 1, 40_009, (0,))
        tracemalloc.start()
        try:
            params._lost_sets
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 15 * 2**20
        assert params._lost_sets[(40_000,)] == (40_000,)

    def test_zero_deficits_build_no_lost_set_table(self):
        # members decoded whole, and a short word with the class's own syndrome,
        # have no nonzero deficit to look up
        q, n, t = 26, 6, 2
        p = next_prime_above(q)
        a, _ = best_class(q, n, t, p)
        params = VTParams(q, n, t, p, a)
        for mask in enumerate_class(q, n, t, p, a):
            assert set_decode(mask, params) == mask
        short = enumerate_class(q, n - 1, t, p, a)[0]
        with pytest.raises(SetDecodeFailed, match="no 1 clear positions"):
            set_decode(short, params)
        assert "_lost_sets" not in vars(params)

    def test_bits_outside_the_block_rejected(self):
        params = VTParams(5, 2, 2, 7, (6, 6))
        for mask in (-1, 1 << 5):
            with pytest.raises(ValueError):
                set_decode(mask, params)
            with pytest.raises(ValueError):
                is_codeword(mask, params)

    def test_huge_alphabet_refused_before_any_table(self, monkeypatch):
        # q = 2^89 - 2 sits below the Mersenne prime 2^89 - 1; nothing of size q is built
        q = 2**89 - 2
        builds = []
        monkeypatch.setattr(vtcode, "_power_rows", lambda *args: builds.append(args))
        with pytest.raises(ScaleGuardExceeded):
            VTParams(q, 5, 1, q + 1, (0,))
        assert builds == []
