import ast
import functools
import gc
import hashlib
import itertools
import json
import math
import pathlib
import random
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcode import (
    DecodeError,
    InputTooShort,
    MultFreeCodeSpec,
    PermCodeBook,
    PermDecodeFailed,
    SetCode,
    SetDecodeFailed,
    VTParams,
    Word,
    apply_unstable_deletions,
    best_class,
    build_code,
    code_size,
    decode,
    decode_steps,
    delete_positions,
    errors,
    encode_index,
    greedy_sd_code,
    greedy_ud_code,
    induced_permutation,
    induced_set,
    load_spec,
    next_prime_above,
    psi,
    save_spec,
    symbol_ranks,
    vtcode,
)
from delcode.model import set_bits

from deletion_oracle import apply_stable_deletions
from pairwise_oracle import pairwise_intersection_bound


def multfree_words(q, n):
    for symbols in itertools.permutations(range(q), n):
        yield Word(symbols, q, multiplicity_free=True)


def patterns_up_to(n, t):
    for size in range(min(t, n) + 1):
        yield from itertools.combinations(range(1, n + 1), size)


distinct_words = st.integers(2, 16).flatmap(
    lambda q: st.integers(0, min(q, 8)).flatmap(
        lambda n: st.permutations(range(q)).map(
            lambda perm: Word(tuple(perm[:n]), q, multiplicity_free=True)
        )
    )
)


class TestDecomposition:
    def test_induced_set_example(self):
        x = Word((8, 0, 6, 5, 2), 9, multiplicity_free=True)
        assert induced_set(x) == 0b101100101
        assert set_bits(induced_set(x)) == [0, 2, 5, 6, 8]

    def test_induced_set_empty(self):
        assert induced_set(Word((), 5)) == 0

    def test_induced_set_ignores_order(self):
        x = Word((3, 1, 2), 5)
        assert induced_set(x) == induced_set(Word((1, 2, 3), 5))

    def test_induced_set_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate symbol 1"):
            induced_set(Word((1, 1), 5))

    def test_induced_permutation_example(self):
        x = Word((8, 0, 6, 5, 2), 9, multiplicity_free=True)
        assert induced_permutation(x) == (5, 1, 4, 3, 2)

    def test_induced_permutation_monotone_words(self):
        assert induced_permutation(Word((2, 4, 7), 8)) == (1, 2, 3)
        assert induced_permutation(Word((7, 4, 2), 8)) == (3, 2, 1)

    def test_induced_permutation_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate symbol 1"):
            induced_permutation(Word((1, 1), 5))

    def test_psi_example(self):
        got = psi(0b101100101, (5, 1, 4, 3, 2), 9)  # {0, 2, 5, 6, 8}
        assert got == Word((8, 0, 6, 5, 2), 9, multiplicity_free=True)

    def test_psi_identity_gives_sorted_listing(self):
        assert psi(0b1010010, (1, 2, 3), 8).symbols == (1, 4, 6)

    def test_psi_size_mismatch(self):
        with pytest.raises(ValueError):
            psi(0b110, (1, 2, 3), 5)

    @pytest.mark.parametrize("sigma", [(0, 1, 2), (1, 1, 2)])
    def test_psi_refuses_a_non_permutation(self, sigma):
        # unchecked, (0, 1, 2) would index the set from its end: the word (2, 0, 1)
        with pytest.raises(ValueError, match=r"^images are not a rearrangement of 1\.\.n$"):
            psi(0b111, sigma, 8)

    def test_psi_refuses_a_symbol_outside_the_alphabet(self):
        # the set's symbols are its distinct bits, so only the word's range check is left
        with pytest.raises(ValueError, match=r"^symbol 8 outside \[0, 7\]$"):
            psi(0b11 | 1 << 8, (1, 2, 3), 8)

    def test_bijection_exhaustive(self):
        # both directions over every length-3 distinct-symbol word on 6 symbols
        q, n = 6, 3
        words = list(multfree_words(q, n))
        assert len(words) == 120
        for x in words:
            assert psi(induced_set(x), induced_permutation(x), q) == x
        pairs = 0
        for members in itertools.combinations(range(q), n):
            subset = sum(1 << s for s in members)
            for sigma in itertools.permutations(range(1, n + 1)):
                x = psi(subset, sigma, q)
                assert induced_set(x) == subset
                assert induced_permutation(x) == sigma
                pairs += 1
        assert pairs == math.comb(q, n) * math.factorial(n) == 120

    @given(distinct_words)
    def test_bijection_random(self, x):
        assert psi(induced_set(x), induced_permutation(x), x.alphabet_size) == x


class TestSymbolRanks:
    def test_matches_stable_deletion_of_rank_permutation(self):
        x = Word((6, 7, 4, 5, 3), 8, multiplicity_free=True)
        pat = (2, 4)
        y = delete_positions(x, pat)
        tau = symbol_ranks(induced_set(x), y)
        assert tau == apply_stable_deletions(induced_permutation(x), pat).symbols
        assert tau == (4, 2, 1)

    def test_symbol_outside_set(self):
        with pytest.raises(ValueError, match="received symbol 4 is not in the recovered set"):
            symbol_ranks(0b110, Word((1, 4), 5))  # the set {1, 2}


class TestCommutation:
    def test_stable_and_unstable_laws_moderate_box(self):
        # the acceptance suite runs the full n <= 5, q <= 8 box; this covers a
        # faster sub-box during regular development runs
        for q in range(2, 7):
            for n in range(1, min(q, 4) + 1):
                for x in multfree_words(q, n):
                    sigma = induced_permutation(x)
                    subset = induced_set(x)
                    for pat in patterns_up_to(n, 2):
                        y = delete_positions(x, pat)
                        assert symbol_ranks(subset, y) == apply_stable_deletions(sigma, pat).symbols
                        assert induced_permutation(y) == apply_unstable_deletions(sigma, pat)

    @given(st.data())
    def test_laws_on_random_larger_words(self, data):
        q = data.draw(st.integers(6, 20))
        n = data.draw(st.integers(1, min(q, 8)))
        symbols = tuple(data.draw(st.permutations(range(q)))[:n])
        x = Word(symbols, q, multiplicity_free=True)
        k = data.draw(st.integers(0, n))
        pat = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
        y = delete_positions(x, pat)
        sigma = induced_permutation(x)
        assert symbol_ranks(induced_set(x), y) == apply_stable_deletions(sigma, pat).symbols
        assert induced_permutation(y) == apply_unstable_deletions(sigma, pat)


def superset_search(code, survivors):
    """The linear search explicit set codes were decoded by before the ball-key
    lookup, kept as its oracle: the one member holding the survivors, if at
    least n - t of its elements survive."""
    if survivors.bit_count() < code.n - code.t:
        raise SetDecodeFailed("too few survivors")
    hits = [m for m in code.sets if survivors & ~m == 0]
    if len(hits) != 1:
        raise SetDecodeFailed(f"{len(hits)} candidate supersets, expected exactly one")
    return hits[0]


def first_fit_sets(q, n, t):
    """An explicit set code: the n-subsets of range(q) in lexicographic order,
    each kept if it shares at most n - t - 1 elements with every one kept."""
    kept = []
    for symbols in itertools.combinations(range(q), n):
        mask = sum(1 << s for s in symbols)
        if all((mask & k).bit_count() < n - t for k in kept):
            kept.append(mask)
    return tuple(kept)


def set_outcome(decoder, *args):
    try:
        return decoder(*args)
    except SetDecodeFailed:
        return SetDecodeFailed


EXPLICIT_POINTS = [(8, 5, 2), (9, 4, 1), (10, 5, 2), (10, 4, 1), (12, 6, 3)]


class TestSetCode:
    def explicit_sets(self):
        return (0b00011111, 0b11111000)  # {0, 1, 2, 3, 4} and {3, 4, 5, 6, 7}

    def explicit_code(self):
        return SetCode(8, 5, 2, sets=self.explicit_sets())

    def test_explicit_rejects_close_sets(self):
        # the sets share three elements, so two deletions can collide
        close = (0b00011111, 0b01111100)  # {0, 1, 2, 3, 4} and {2, 3, 4, 5, 6}
        with pytest.raises(ValueError):
            SetCode(8, 5, 2, sets=close)
        assert not pairwise_intersection_bound(close, 5, 2)
        assert pairwise_intersection_bound(close, 5, 1)
        assert pairwise_intersection_bound(self.explicit_sets(), 5, 2)

    def test_explicit_mask_must_fit_alphabet(self):
        # a bit at or above q, a negative mask and a wrong weight are refused
        for bad in (0b1000, -1, 0b11):
            with pytest.raises(ValueError, match="wrong alphabet or cardinality"):
                SetCode(3, 1, 1, sets=(bad,))

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="deletion budget t=-1 is negative"):
            SetCode(8, 5, -1, sets=self.explicit_sets())
        with pytest.raises(ValueError, match="deletion budget t=-1 is negative"):
            load_set_code(tmp_path, {"q": 8, "n": 5, "t": -1, "sets": [[0, 1, 2, 3, 4]]})
        # a budget above n is still a code: its one member's ball holds the empty set
        lone = SetCode(8, 5, 6, sets=self.explicit_sets()[:1])
        assert lone.decode_mask(0) == lone.masks[0]

    def test_explicit_rejects_empty(self, tmp_path):
        # the check lives in construction, so every path to a SetCode meets it
        with pytest.raises(ValueError, match="must be nonempty"):
            SetCode(12, 5, 2, sets=())
        with pytest.raises(ValueError, match="must be nonempty"):
            load_set_code(tmp_path, {"q": 12, "n": 5, "t": 2, "sets": []})

    @given(st.data())
    @settings(max_examples=300)
    def test_explicit_check_matches_pairwise_oracle(self, data):
        q = data.draw(st.integers(1, 9))
        n = data.draw(st.integers(0, q))
        t = data.draw(st.integers(0, q + 2))
        subsets = st.sets(st.integers(0, q - 1), min_size=n, max_size=n)
        # sampling from a small pool makes repeated sets common
        pool = data.draw(st.lists(subsets, min_size=1, max_size=6))
        family = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        sets = tuple(sum(1 << s for s in symbols) for symbols in family)
        try:
            code = SetCode(q, n, t, sets=sets)
        except ValueError as exc:
            assert str(exc) == "explicit sets too close to correct t deletions"
            accepted = False
        else:
            assert code.balls_disjoint()
            accepted = True
        assert accepted == pairwise_intersection_bound(sets, n, t)

    def test_explicit_family_of_a_class(self):
        # a syndrome class corrects t deletions, so its members pass as an
        # explicit family, in the same encode order
        for q, n, t in [(64, 4, 1), (26, 6, 2)]:
            vt = best_class_spec(q, n, t).set_code
            code = SetCode(q, n, t, sets=vt.masks[::-1])
            assert code.masks == vt.masks

    def test_explicit_decode_unique_superset(self):
        # the survivors {3, 4, 6} of the member {3, 4, 5, 6, 7}
        assert self.explicit_code().decode_mask(0b01011000) == 0b11111000

    def test_explicit_decode_failures(self):
        sc = self.explicit_code()
        with pytest.raises(SetDecodeFailed):
            sc.decode_mask(0b00011000)  # {3, 4}: too few survivors
        with pytest.raises(SetDecodeFailed):
            sc.decode_mask(0b01100100)  # {2, 5, 6}: no superset

    @pytest.mark.parametrize("q, n, t", EXPLICIT_POINTS)
    def test_explicit_lookup_matches_superset_search(self, q, n, t):
        # every deletion of every member: at most t decode, more are too short
        code = SetCode(q, n, t, sets=first_fit_sets(q, n, t))
        assert len(code.sets) > 1
        for member in code.masks:
            symbols = set_bits(member)
            for e in range(n + 1):
                for removed in itertools.combinations(symbols, e):
                    survivors = member ^ sum(1 << s for s in removed)
                    got = set_outcome(code.decode_mask, survivors)
                    assert got == set_outcome(superset_search, code, survivors)
                    assert got == (member if e <= t else SetDecodeFailed)

    @pytest.mark.parametrize("q, n, t", EXPLICIT_POINTS)
    def test_explicit_lookup_on_every_mask(self, q, n, t):
        code = SetCode(q, n, t, sets=first_fit_sets(q, n, t))
        for mask in range(1 << q):
            assert set_outcome(code.decode_mask, mask) == set_outcome(superset_search, code, mask)

    def test_vt_backend_decode_and_materialize(self):
        q, n, t = 10, 5, 2
        p = next_prime_above(q)
        a, size = best_class(q, n, t, p)
        sc = SetCode.from_vt(VTParams(q, n, t, p, a))
        sets = sc.masks
        assert len(sets) == size
        assert list(sets) == sorted(sets, key=set_bits)
        for s in sets:
            elements = set_bits(s)
            for removed in itertools.combinations(elements, 2):
                survivors = s & ~sum(1 << e for e in removed)
                assert sc.decode_mask(survivors) == s

    def test_vt_backend_decode_failure_wrapped(self):
        q, n, t = 10, 5, 2
        p = next_prime_above(q)
        a, _ = best_class(q, n, t, p)
        sc = SetCode.from_vt(VTParams(q, n, t, p, a))
        with pytest.raises(SetDecodeFailed):
            sc.decode_mask(0b11)  # {0, 1}: below n - t survivors

    def test_json_roundtrip_both_backends(self, tmp_path):
        explicit = self.explicit_code()
        path = tmp_path / "explicit.json"
        book = PermCodeBook(5, 2, ((1, 2, 3, 4, 5),))
        save_spec(MultFreeCodeSpec(8, 5, 2, "stable", explicit, book), path)
        assert json.loads(path.read_text())["set_code"]["sets"] == [[0, 1, 2, 3, 4], [3, 4, 5, 6, 7]]
        assert load_spec(path).set_code == explicit

        vt = best_class_spec(10, 5, 2)
        save_spec(vt, tmp_path / "vt.json")
        assert load_spec(tmp_path / "vt.json").set_code == vt.set_code

    def test_mismatched_vt_params_rejected(self):
        p = next_prime_above(10)
        a, _ = best_class(10, 5, 2, p)
        with pytest.raises(ValueError):
            SetCode(10, 4, 2, vt=VTParams(10, 5, 2, p, a))
        with pytest.raises(ValueError):
            SetCode(10, 5, 2)  # neither backend


# sha256 of repr(list(spec.set_code.masks)) for the best class,
# taken from the previous code, which materialized bitwords and sorted them
SET_ORDER_SHA256 = {
    (64, 4, 1): "4fd2bef113f3751893cd16a8d7f8cc17afe6905b95bee1632cbaed70eaf8ff0d",
    (26, 6, 2): "2754821ef460fa4089ef296c38a4df280ddc0f114a2f81e9882bff17fd769992",
    (24, 7, 2): "e21cc5b99f4f373f9ee02cfd31a705caf5ec6562fcd50f6d339d774d8beac096",
    (20, 7, 1): "850b73612a2d7945b15f2bfa17201fc2ba79d0920185fba73aec32ac6887196c",
    # taken from the walk that looked up the last one only
    (12, 5, 2): "9c776e79003455fc8bac6e9b8199b577f5766b026fe0c0b3059e3ee83bbd7ecf",
    (30, 7, 2): "d543e15105c9617667f716b809c9b11e70e44edcfb61103d7316b877484aecd4",
    (40, 6, 1): "ae3f29a7ce001e046ee73f2006fd4b477d5c9730a9ca128b57415a91587fe9cd",
    (30, 8, 3): "dc9d93510e3540daeee7d4aa1cdf0892f834678ed4dd0cbbb41d7cfdc30b656d",
}


def load_set_code(tmp_path, set_code):
    """The set code `load_spec` builds from a spec file holding the given one."""
    n, t = set_code["n"], set_code["t"]
    book = {"n": n, "t": t, "codewords": [list(range(1, n + 1))]}
    spec = {"q": set_code["q"], "n": n, "t": t, "mode": "stable", "set_code": set_code, "perm_code": book}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return load_spec(tmp_path / "spec.json").set_code


def best_class_spec(q, n, t):
    p = next_prime_above(q)
    a, _ = best_class(q, n, t, p)
    book = PermCodeBook(n, t, (tuple(range(1, n + 1)),))
    return MultFreeCodeSpec(q, n, t, "stable", SetCode.from_vt(VTParams(q, n, t, p, a)), book)


class TestClassMaterialization:
    @pytest.mark.parametrize("q, n, t", sorted(SET_ORDER_SHA256))
    def test_pinned_encode_order(self, q, n, t):
        members = list(best_class_spec(q, n, t).set_code.masks)
        assert hashlib.sha256(repr(members).encode()).hexdigest() == SET_ORDER_SHA256[q, n, t]

    def test_census_runs_once_per_spec(self):
        # best_class, code_size, the class walk and encode_index share one census
        vtcode._suffix_counts.cache_clear()
        spec = best_class_spec(14, 5, 2)
        assert code_size(spec) == len(spec.set_code.masks)
        encode_index(spec, code_size(spec) - 1)
        assert vtcode._suffix_counts.cache_info().misses == 1

    def test_three_specs_in_turn_build_each_table_once(self):
        # each code holds its size, its members and its decoder tables, so a third
        # spec in the rotation evicts nothing and no call rebuilds a table
        specs = [best_class_spec(q, n, t) for q, n, t in ((24, 7, 2), (26, 6, 2), (30, 7, 2))]
        vtcode._suffix_counts.cache_clear()
        rng = random.Random(20)
        rows = {}
        for k in range(300):  # 600 calls, alternating encode_index and decode
            spec = specs[k % 3]
            x = encode_index(spec, rng.randrange(code_size(spec)))
            deleted = rng.sample(range(1, spec.n + 1), rng.randint(0, spec.t))
            assert decode(spec, delete_positions(x, deleted)) == x
            assert rows.setdefault(k % 3, spec.set_code.vt._packed_rows) is spec.set_code.vt._packed_rows
        assert vtcode._suffix_counts.cache_info().misses <= len(specs)
        assert len(rows) == len(specs)

    def test_members_live_on_the_code(self):
        # built once per code, and released with it
        code = best_class_spec(14, 5, 2).set_code
        assert code.masks is code.masks
        alive = weakref.ref(code)
        del code
        gc.collect()
        assert alive() is None

    def test_peak_memory(self):
        # the class is held as masks, never as length-q bitwords
        spec = best_class_spec(64, 4, 1)
        tracemalloc.start()
        try:
            sets = spec.set_code.masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sets) == 9486
        assert peak < 3_000_000


class TestSpecValidation:
    def test_component_parameters_must_agree(self, explicit_spec):
        sc = explicit_spec.set_code
        book = explicit_spec.perm_code
        with pytest.raises(ValueError):
            MultFreeCodeSpec(8, 5, 1, "stable", sc, book)
        with pytest.raises(ValueError):
            MultFreeCodeSpec(9, 5, 2, "stable", sc, book)
        with pytest.raises(ValueError):
            MultFreeCodeSpec(8, 5, 2, "sideways", sc, book)

    def test_permutation_code_must_match_the_spec(self, explicit_spec):
        # the set code agrees with (8, 5, 2), so the book's (n, t) is what is refused
        for book in (PermCodeBook(5, 1, ()), PermCodeBook(4, 2, ())):
            with pytest.raises(ValueError, match=r"^permutation code disagrees with the spec's \(n, t\)$"):
                MultFreeCodeSpec(8, 5, 2, "stable", explicit_spec.set_code, book)

    def test_unstable_mode_requires_single_deletion_budget(self, explicit_spec):
        with pytest.raises(ValueError):
            MultFreeCodeSpec(
                8, 5, 2, "unstable", explicit_spec.set_code, explicit_spec.perm_code
            )


class TestBuildCode:
    def test_explicit_example_listing(self, explicit_spec):
        words = [w.symbols for w in build_code(explicit_spec)]
        assert words == [
            (0, 1, 2, 3, 4),
            (3, 4, 1, 2, 0),
            (3, 4, 5, 6, 7),
            (6, 7, 4, 5, 3),
        ]

    def test_count_is_component_product(self, explicit_spec):
        assert code_size(explicit_spec) == 4
        assert len(list(build_code(explicit_spec))) == 4

    def test_singleton_components(self):
        sc = SetCode(6, 3, 1, sets=(0b10101,))  # {0, 2, 4}
        book = PermCodeBook(3, 1, ((2, 3, 1),))
        spec = MultFreeCodeSpec(6, 3, 1, "stable", sc, book)
        assert [w.symbols for w in build_code(spec)] == [(2, 4, 0)]


class TestEncodeIndex:
    def test_endpoints(self, explicit_spec):
        assert encode_index(explicit_spec, 0).symbols == (0, 1, 2, 3, 4)
        assert encode_index(explicit_spec, 3).symbols == (6, 7, 4, 5, 3)

    def test_matches_enumeration(self, explicit_spec):
        for i, word in enumerate(build_code(explicit_spec)):
            assert encode_index(explicit_spec, i) == word

    def test_out_of_range(self, explicit_spec):
        with pytest.raises(IndexError):
            encode_index(explicit_spec, 4)
        with pytest.raises(IndexError):
            encode_index(explicit_spec, -1)

    def test_out_of_order_book(self, tmp_path):
        # a book given out of order encodes, enumerates and saves in lex order
        lex = greedy_sd_code(4, 1).codewords
        assert len(lex) > 2
        book = PermCodeBook(4, 1, lex[1:] + lex[:1])
        spec = MultFreeCodeSpec(8, 4, 1, "stable", best_class_spec(8, 4, 1).set_code, book)
        expected = [psi(m, sigma, 8) for m in spec.set_code.masks for sigma in lex]
        assert list(build_code(spec)) == expected
        assert [encode_index(spec, i) for i in range(code_size(spec))] == expected
        save_spec(spec, tmp_path / "spec.json")
        saved = json.loads((tmp_path / "spec.json").read_text())["perm_code"]["codewords"]
        assert saved == [list(sigma) for sigma in lex]

    def test_zero_deletion_roundtrip(self, explicit_spec):
        for i in range(code_size(explicit_spec)):
            word = encode_index(explicit_spec, i)
            assert decode(explicit_spec, word) == word


class TestDecode:
    def test_worked_example_with_steps(self, explicit_spec):
        y = Word((6, 4, 3), 8, multiplicity_free=True)
        recovered, ranks, sigma, codeword = decode_steps(explicit_spec, y)
        assert recovered == 0b11111000  # {3, 4, 5, 6, 7}
        assert ranks == (4, 2, 1)
        assert sigma == (4, 5, 2, 3, 1)
        assert codeword.symbols == (6, 7, 4, 5, 3)

    def test_codeword_passthrough(self, explicit_spec):
        x = Word((3, 4, 1, 2, 0), 8, multiplicity_free=True)
        assert decode(explicit_spec, x) == x

    def test_exhaustive_deletions(self, explicit_spec):
        for x in build_code(explicit_spec):
            for pat in patterns_up_to(5, 2):
                assert decode(explicit_spec, delete_positions(x, pat)) == x

    def test_deletions_of_a_plain_word_decode_to_it(self):
        # a word built without the multiplicity-free flag equals the codeword it spells
        spec = q12_spec()
        for i in range(code_size(spec)):
            plain = Word(encode_index(spec, i).symbols, spec.q)
            for pat in patterns_up_to(spec.n, spec.t):
                assert decode(spec, delete_positions(plain, pat)) == plain

    def test_too_short_rejected(self, explicit_spec):
        with pytest.raises(InputTooShort):
            decode(explicit_spec, Word((6, 4), 8, multiplicity_free=True))

    def test_too_long_rejected(self, explicit_spec):
        with pytest.raises(ValueError):
            decode(explicit_spec, Word((0, 1, 2, 3, 4, 5), 8, multiplicity_free=True))

    def test_set_decode_failure_surfaces(self, explicit_spec):
        # {2, 5, 6} is inside no codeword set
        with pytest.raises(SetDecodeFailed):
            decode(explicit_spec, Word((2, 5, 6), 8, multiplicity_free=True))


class TestUnstableMode:
    def build_spec(self):
        q, n = 7, 4
        p = next_prime_above(q)
        a, _ = best_class(q, n, 1, p)
        sc = SetCode.from_vt(VTParams(q, n, 1, p, a))
        return MultFreeCodeSpec(q, n, 1, "unstable", sc, greedy_ud_code(n, 1))

    def test_end_to_end_single_deletion(self):
        spec = self.build_spec()
        assert code_size(spec) >= 1
        for x in build_code(spec):
            for pat in patterns_up_to(4, 1):
                y = delete_positions(x, pat)
                recovered, ranks, sigma, codeword = decode_steps(spec, y)
                assert (recovered, codeword) == (induced_set(x), x)
                # the word's own ranks, not its ranks in the recovered set
                assert ranks == induced_permutation(y)


    def test_substituted_words_decode_only_to_supersequences(self):
        # one deletion and one substituted symbol: ranks can match a codeword whose
        # deletions never give the received word, and that decode is refused
        spec = syndrome_class_specs()[1]
        rng = random.Random(7)
        refused = 0
        for _ in range(300):
            x = encode_index(spec, rng.randrange(code_size(spec)))
            symbols = list(delete_positions(x, (rng.randint(1, spec.n),)).symbols)
            symbols[rng.randrange(len(symbols))] = rng.choice(sorted(set(range(spec.q)) - set(symbols)))
            y = Word(tuple(symbols), spec.q, True)
            try:
                got = decode(spec, y)
            except PermDecodeFailed as exc:
                refused += str(exc) == "the decoded codeword does not contain the received word"
                continue
            except DecodeError:
                continue
            remaining = iter(got.symbols)
            assert all(s in remaining for s in y.symbols), (y, got)
        assert refused > 0


@functools.cache
def construct_spec(q, n, t, mode):
    """The spec that `construct` writes at this point."""
    p = next_prime_above(q)
    a, _ = best_class(q, n, t, p)
    book = greedy_sd_code(n, t) if mode == "stable" else greedy_ud_code(n, t)
    return MultFreeCodeSpec(q, n, t, mode, SetCode.from_vt(VTParams(q, n, t, p, a)), book)


@functools.cache
def syndrome_class_specs():
    points = ((10, 5, 2, "stable"), (9, 5, 1, "unstable"), (12, 5, 2, "stable"), (10, 5, 1, "unstable"))
    return [construct_spec(*point) for point in points]


class TestDecodeFuzz:
    @given(st.data())
    @settings(max_examples=400)
    def test_any_word_fails_only_with_decode_errors(self, data):
        # the decode contract: a DecodeError, or a codeword holding the word as a subsequence
        spec = data.draw(st.sampled_from(syndrome_class_specs()))
        length = data.draw(st.integers(spec.n - spec.t, spec.n))
        symbols = data.draw(st.permutations(range(spec.q)))[:length]
        try:
            got = decode(spec, Word(tuple(symbols), spec.q, multiplicity_free=True))
        except DecodeError:
            return
        assert len(got) == spec.n
        assert spec.set_code.decode_mask(induced_set(got)) == induced_set(got)
        remaining = iter(got.symbols)
        assert all(s in remaining for s in symbols), (symbols, got)


def q12_spec():
    # the spec that `construct --q 12 --n 5 --t 2` writes: 7 sets times 4 permutations
    set_code = SetCode.from_vt(VTParams(12, 5, 2, 13, (1, 3)))
    return MultFreeCodeSpec(12, 5, 2, "stable", set_code, greedy_sd_code(5, 2))


class TestThreeFailures:
    """A decode fails in one of three ways, one per stage: too short a word,
    a set decode, or a permutation decode."""

    def test_every_word_at_q12(self):
        spec = q12_spec()
        assert code_size(spec) == 28
        outcomes = Counter()
        for length in range(spec.n - spec.t, spec.n + 1):
            for x in multfree_words(spec.q, length):
                try:
                    decode(spec, x)
                    outcomes["decoded"] += 1
                except DecodeError as exc:
                    outcomes[type(exc)] += 1
        # each codeword with 0, 1 or 2 of its 5 symbols deleted: 28 * 16
        assert outcomes == {"decoded": 448, SetDecodeFailed: 106_140, PermDecodeFailed: 1_652}

    @pytest.mark.parametrize("kind", ["syndrome", "explicit"])
    def test_set_decode_returns_a_superset(self, kind, explicit_spec):
        # so every received symbol has a rank in the recovered set
        code = (q12_spec() if kind == "syndrome" else explicit_spec).set_code
        decoded = 0
        for mask in range(1 << code.q):
            try:
                got = code.decode_mask(mask)
            except SetDecodeFailed:
                continue
            assert got & mask == mask
            decoded += 1
        assert decoded > 0

    def test_every_error_class_is_raised(self):
        # the two base classes are only caught; every other class has a raise in the package
        package = pathlib.Path(errors.__file__).parent
        raised = {
            node.exc.func.id
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
        }
        defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
        assert defined - raised == {"DelcodeError", "DecodeError"}


# what `decode` does with 200 seeded codewords of each channel spec, each sent
# with t deletions, with t + 1, and with t and one symbol replaced by one the
# received word does not hold; pinned so a change to the decoder shows
DECODE_OUTCOMES = {
    (24, 7, 2, "stable"): {
        "t": {"returned_sent": 200},
        "t+1": {"InputTooShort": 200},
        "substituted": {"returned_sent": 6, "silent_miscorrection": 21, "SetDecodeFailed": 149, "PermDecodeFailed": 24},
    },
    (20, 7, 1, "unstable"): {
        "t": {"returned_sent": 200},
        "t+1": {"InputTooShort": 200},
        "substituted": {"returned_sent": 4, "silent_miscorrection": 30, "SetDecodeFailed": 85, "PermDecodeFailed": 81},
    },
}


class TestDecodeOutcomes:
    @pytest.mark.parametrize("point", DECODE_OUTCOMES, ids="{0[0]}-{0[1]}-{0[2]}-{0[3]}".format)
    def test_tallies(self, point):
        spec = construct_spec(*point)
        rng = random.Random(7)
        tallies = {kind: Counter() for kind in DECODE_OUTCOMES[point]}
        for _ in range(200):
            x = encode_index(spec, rng.randrange(code_size(spec)))
            kept = delete_positions(x, tuple(rng.sample(range(1, spec.n + 1), spec.t)))
            symbols = list(kept.symbols)
            symbols[rng.randrange(len(symbols))] = rng.choice(sorted(set(range(spec.q)) - set(symbols)))
            received = {
                "t": kept,
                "t+1": delete_positions(x, tuple(rng.sample(range(1, spec.n + 1), spec.t + 1))),
                "substituted": Word(tuple(symbols), spec.q, True),
            }
            for kind, y in received.items():
                try:
                    outcome = "returned_sent" if decode(spec, y) == x else "silent_miscorrection"
                except DecodeError as exc:
                    outcome = type(exc).__name__
                tallies[kind][outcome] += 1
        assert tallies == DECODE_OUTCOMES[point]


class TestSpecSerialization:
    def test_roundtrip_explicit(self, explicit_spec, tmp_path):
        path = tmp_path / "spec.json"
        save_spec(explicit_spec, path)
        assert load_spec(path) == explicit_spec

    def test_roundtrip_vt(self, tmp_path):
        q, n, t = 10, 5, 2
        p = next_prime_above(q)
        a, _ = best_class(q, n, t, p)
        book = PermCodeBook(n, t, (tuple(range(1, n + 1)),))
        spec = MultFreeCodeSpec(q, n, t, "stable", SetCode.from_vt(VTParams(q, n, t, p, a)), book)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec
