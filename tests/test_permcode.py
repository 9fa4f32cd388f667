import hashlib
import inspect
import itertools
import json
import math
from bisect import bisect
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delcode import (
    MultFreeCodeSpec,
    PermCodeBook,
    PermDecodeFailed,
    ScaleGuardExceeded,
    SetCode,
    apply_unstable_deletions,
    cli,
    greedy_sd_code,
    greedy_ud_code,
    load_spec,
    reference_size_bound,
    save_spec,
    sd_decode,
    ud_decode,
    verify_sd_property,
    verify_ud_property,
)
from delcode import permcode
from delcode.permcode import _ball_keys, ball_collision

from deletion_oracle import apply_stable_deletions
from deletion_oracle import sd_decode as scan_sd_decode


def stable_deletion_ball(sigma, t):
    """Every word reachable from sigma by at most t stable deletions, by the oracle."""
    return {apply_stable_deletions(sigma, pat) for pat in all_patterns(len(sigma), t)}


def unstable_deletion_ball(sigma, t):
    """Every permutation reachable from sigma by at most t unstable deletions."""
    return {apply_unstable_deletions(sigma, pat) for pat in all_patterns(len(sigma), t)}


def decode_outcome(decode, book, received):
    """The codeword a stable decoder returns, or the class and message of the error it raises."""
    try:
        return decode(book, received)
    except PermDecodeFailed as exc:
        return type(exc), str(exc)


def all_patterns(n, t):
    for size in range(t + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def position_deletion_keys(images, t, unstable):
    # a ball's keys listed by deleting exactly t positions, survivors
    # rank-compressed for unstable keys
    keys = []
    for dropped in itertools.combinations(range(len(images)), t):
        kept = tuple(v for k, v in enumerate(images) if k not in dropped)
        if unstable:
            ordered = sorted(kept)
            kept = tuple(bisect(ordered, v) for v in kept)
        keys.append(kept)
    return sorted(keys)


def naive_greedy(n, t, delete):
    # quadratic re-implementation: explicit pairwise ball intersections
    chosen = []
    balls = []
    for sigma in itertools.permutations(range(1, n + 1)):
        ball = {delete(sigma, pat) for pat in all_patterns(n, t)}
        if all(ball.isdisjoint(other) for other in balls):
            chosen.append(sigma)
            balls.append(ball)
    return chosen


def naive_greedy_sd(n, t):
    return naive_greedy(n, t, lambda sigma, pat: apply_stable_deletions(sigma, pat).symbols)


def naive_greedy_ud(n, t):
    return naive_greedy(n, t, apply_unstable_deletions)


# sha256 of json.dumps(book_file_form(book), sort_keys=True): any change to the
# admission order or to the ball contents changes a lex first-fit codebook
SD_CODEBOOK_SHA256 = {
    (1, 1): "603884859743753eff4a4e417c62ab980c9422363ca4279802f9614ad6a82632",
    (2, 1): "1b5c09d4504d65cd971160728f0b508d1926178930c2b7ed3cf9b409cf553b55",
    (2, 2): "f3ef5f91af6b6fa500dd74183116d76098bbadf49c33dedeb2987ae36f3cb8b8",
    (3, 1): "bccfb9472eac8795b6f129ef3b849abaaaa9be877dc30592b9389dd9075a2e10",
    (3, 2): "17ad192e248a235a9a9e8c9dd009d9e95137c3d948c8c65a10393e56a8478ff4",
    (3, 3): "5802d3210073e3793a04e55cf6d801ffb020291915eb4dc33222a0acfb23c980",
    (4, 1): "5e5019c8f6855e2b0a6217ab327b3d51cb0d9fd7fec3cfd38812407274b42e6d",
    (4, 2): "31da038554518cad344f108ca4cf39bbfed5fdff3adf47bf2fdd4dfb8c4160f9",
    (4, 3): "c0bfd1ec45da1f3b02837db787a3f13b7d92ff90a67395a48aad80713e2e6d96",
    (4, 4): "6bc5697d3435d15ba919c1a9920355e44f5245c6b030ce77a8ead20322256b5f",
    (5, 1): "5e61146599cddbc5e0fb591bed287a4d4f6a7663ffa32ee9ec420285d8538949",
    (5, 2): "ae271a2f51c95b499a8f7ea7ee98ec3902aff6d97deab8d1a90dbf53a72f13cd",
    (5, 3): "7dee87f730a992dedf51ec37cebde7a7c39e407a72013e2b23be69896b223244",
    (5, 4): "b66ce52708249a850a0757f7dc80012cacbf3d87f0d9c3615bb8f570ade1808f",
    (5, 5): "9b6e932aa4e7fbf6bdb1536dd25d20791a2d5675bec35bb92d03f80b678eac0d",
    (6, 1): "efee52fb70a3a5aa1188ff0fc141a0f9950b8753c3ca270e226791e9c481979a",
    (6, 2): "b036fa23e737ed4baf816e166481a77947d63b17e4ebd03ad96902b84f21fa4f",
    (6, 3): "7d91209ef8035548d741bad5fae71c82833d53bb5ae5413c461ae607a3debc53",
    (6, 4): "11993bfe1e3daecb8cb9386690035824958b03e91296020091f1445869cce96c",
    (6, 5): "a2d2e5d944cf731f0f1f65b331bf473801c2e3160e7a8c2eabe7496db7b95b7c",
    (6, 6): "a026d8d2949f3352f668458f0e3572b18a19c48a0f638598461243eac3917135",
    (7, 1): "3da954fd156f1611256db39a1b6ff4db0ed17e0fd5a73613f69b1ba0a71f14d3",
    (7, 2): "6566b9a0378a147c16d48830bec91696e6f63eb2f42e3f957e655e8523a3af39",
    (7, 3): "c2bfec40d4bb1206e8add9d0a75fb78557760a9fa7fadbdb79d730b30dcc2ca3",
    (7, 4): "20c0da20f73661b525b875e8ca526afa8323f394189b5af51110febcff33e4e3",
    (7, 5): "f16a451f4c29319f1acdbd3c8a68bd4ac787cd771968a5195f754d8b81026d93",
    (7, 6): "b483ca4b372a8cb4101b3a8625993a7e68e6b0cea1cfeaaf7167725c4561f772",
    (7, 7): "8c35bc0a40a8d9c9d30e759b2f17941b038d14ed1627ce70e72f533acbc43167",
    (8, 1): "0259a8a6fee473d6b3685f032a3fefa33bb17467be3453c4ea6065f20a027c56",
    (8, 2): "6f6918761032eac0e6cf8c4a862d1a10d60fa1cd11c661b32273d542fe98a28f",
    (8, 3): "d19c7e2200ec0bd7a66180f9d2d656eceaef9f98f8029f78be72b57db8a2cd45",
    (8, 4): "c89d987439e10759cbab117e36eb59f0ed48c7aa1f7c4ca119c7c622d18b5621",
    (8, 5): "1d52a8432cda444b0189c4ba61a789ca062c2d7b5154543277f8daf8e38d8d87",
    (8, 6): "9f29af57449083367186f08c5e1d961bbd571b5e252b18d9bf4d93654e671c8f",
    (8, 7): "7def59e7bd2cd1b9dbebb71ca171e27011daa2eb37bc7a1a1f147395ddf7baa7",
    (8, 8): "936f5600699dde885dba2cdced73bc241dd87da643952c07d9e2ac08f6bf05de",
}
UD_CODEBOOK_SHA256 = {
    1: "603884859743753eff4a4e417c62ab980c9422363ca4279802f9614ad6a82632",
    2: "1b5c09d4504d65cd971160728f0b508d1926178930c2b7ed3cf9b409cf553b55",
    3: "bccfb9472eac8795b6f129ef3b849abaaaa9be877dc30592b9389dd9075a2e10",
    4: "901e0d2727fd5ac4d6735163479039810f0acd050941d8f9278fc23b8787c5a4",
    5: "f51918f2d438245973e61ee83af998ce15154cab8a069c57b6f5384ba2c6f4dd",
    6: "fe811756903d2e167515c6c8b92712d98feaa5bd5cd79662f2791dc97f5abca4",
    7: "0a3a476da4b611bc08268240bfaaa5bba59cf17365a04f0fd364d3a2fd2f2439",
    8: "9c24e6ad641df87797ed5dc624d04ae772e2efda7f0557c72966b1649d393d45",
}


def book_file_form(book):
    """The book as a spec file holds it under "perm_code"."""
    return {"n": book.n, "t": book.t, "codewords": [list(s) for s in book.codewords], "order": "lex"}


def codebook_sha256(book):
    return hashlib.sha256(json.dumps(book_file_form(book), sort_keys=True).encode()).hexdigest()


def saved_spec(book, path):
    """Save a stable spec with the book over one set of n symbols, and return
    the file's parsed JSON."""
    sets = SetCode(book.n + 1, book.n, book.t, sets=((1 << book.n) - 1,))
    save_spec(MultFreeCodeSpec(book.n + 1, book.n, book.t, "stable", sets, book), path)
    return json.loads(path.read_text())


class TestBalls:
    def test_radius_zero_is_singleton(self):
        sigma = (3, 1, 2)
        assert stable_deletion_ball(sigma, 0) == {apply_stable_deletions(sigma, ())}
        assert unstable_deletion_ball(sigma, 0) == {sigma}

    def test_two_element_example(self):
        ball = {w.symbols for w in stable_deletion_ball((1, 2), 1)}
        assert ball == {(1, 2), (1,), (2,)}

    def test_matches_pattern_enumeration(self):
        # the keys are the members of the oracle's ball with exactly n - t symbols
        for n in range(1, 7):
            for sigma in itertools.permutations(range(1, n + 1)):
                for t in range(n + 1):
                    stable = {w.symbols for w in stable_deletion_ball(sigma, t) if len(w) == n - t}
                    unstable = {p for p in unstable_deletion_ball(sigma, t) if len(p) == n - t}
                    assert set(_ball_keys(n, t, False)(sigma)) == stable
                    assert {tuple(key) for key in _ball_keys(n, t, True)(sigma)} == unstable

    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
    def test_bytes_keys_match_position_deletions(self, images, data):
        t = data.draw(st.integers(0, len(images)))
        for unstable in (False, True):
            keys = sorted(tuple(key) for key in _ball_keys(len(images), t, unstable)(tuple(images)))
            assert keys == position_deletion_keys(images, t, unstable)
            assert len(keys) == math.comb(len(images), t)

    def test_values_above_a_byte_refused(self):
        # only the unstable rank tables need values that fit a byte
        with pytest.raises(ValueError, match="at most 255"):
            _ball_keys(256, 1, True)
        with pytest.raises(ValueError, match="at most 255"):
            verify_ud_property(PermCodeBook(256, 1, (tuple(range(1, 257)),)))
        assert verify_sd_property(PermCodeBook(256, 1, (tuple(range(1, 257)),)))

    def test_balls_meet_iff_words_share_n_minus_t_symbols(self):
        # the fact every ball test rests on: two whole balls meet iff their
        # exact keys meet, stable and unstable, for every pair at n <= 5
        checks = 0
        for unstable, ball in ((False, stable_deletion_ball), (True, unstable_deletion_ball)):
            for n in range(1, 6):
                perms = list(itertools.permutations(range(1, n + 1)))
                for t in range(n + 1):
                    keys = _ball_keys(n, t, unstable)
                    balls = [ball(images, t) for images in perms]
                    exact = [set(keys(images)) for images in perms]
                    for i, j in itertools.combinations_with_replacement(range(len(perms)), 2):
                        assert balls[i].isdisjoint(balls[j]) == exact[i].isdisjoint(exact[j])
                        checks += 1
        assert checks == 2 * 45_155

    def test_size_bounded_by_pattern_count(self):
        for t in range(4):
            bound = sum(math.comb(5, i) for i in range(t + 1))
            assert len(stable_deletion_ball((2, 5, 3, 1, 4), t)) <= bound

    def test_invalid_radius(self):
        for unstable in (False, True):
            with pytest.raises(ValueError, match="deletion radius t=3 outside"):
                _ball_keys(2, 3, unstable)


class TestGreedyConstruction:
    def test_zero_budget_admits_everything(self):
        for n in range(1, 7):
            assert len(greedy_sd_code(n, 0).codewords) == math.factorial(n)

    def test_identity_admitted_first(self):
        for n, t in ((4, 1), (5, 2), (6, 1)):
            book = greedy_sd_code(n, t)
            assert book.codewords[0] == tuple(range(1, n + 1))

    def test_matches_naive_oracle(self):
        for n, t in ((4, 1), (5, 2)):
            assert list(greedy_sd_code(n, t).codewords) == naive_greedy_sd(n, t)

    @pytest.mark.parametrize("n, t", sorted(SD_CODEBOOK_SHA256))
    def test_sd_codebook_pinned(self, n, t):
        assert codebook_sha256(greedy_sd_code(n, t)) == SD_CODEBOOK_SHA256[n, t]

    @pytest.mark.parametrize("n", sorted(UD_CODEBOOK_SHA256))
    def test_ud_codebook_pinned(self, n):
        assert codebook_sha256(greedy_ud_code(n, 1)) == UD_CODEBOOK_SHA256[n]

    def test_result_verifies(self):
        for n, t in ((4, 1), (5, 1), (5, 2), (6, 2)):
            assert verify_sd_property(greedy_sd_code(n, t))

    def test_monotone_in_budget(self):
        sizes = [len(greedy_sd_code(5, t).codewords) for t in range(3)]
        assert sizes == sorted(sizes, reverse=True)

    def test_scale_guard(self):
        with pytest.raises(ScaleGuardExceeded):
            greedy_sd_code(9, 1)

    def test_order_tag(self, tmp_path):
        # the one order there is: written by save_spec, neither a field nor an attribute
        assert "order" not in inspect.signature(PermCodeBook).parameters
        assert not hasattr(greedy_sd_code(3, 1), "order")
        assert saved_spec(greedy_sd_code(3, 1), tmp_path / "spec.json")["perm_code"]["order"] == "lex"


class TestVerify:
    def test_disjoint_pair(self):
        book = PermCodeBook(5, 2, ((1, 2, 3, 4, 5), (4, 5, 2, 3, 1)))
        assert verify_sd_property(book)

    def test_single_codeword(self):
        assert verify_sd_property(PermCodeBook(4, 2, ((2, 4, 1, 3),)))

    def test_overlapping_pair(self):
        cases = (
            # both stable balls contain (1, 2) and (1, 3)
            (verify_sd_property, (1, 3, 2)),
            # deleting position 1 of the first or position 2 of the second gives (1, 2)
            (verify_ud_property, (2, 1, 3)),
        )
        for verify, second in cases:
            book = PermCodeBook(3, 1, ((1, 2, 3), second))
            assert not verify(book)


class TestStableDecode:
    def setup_method(self):
        self.book = PermCodeBook(
            5, 2, ((1, 2, 3, 4, 5), (4, 5, 2, 3, 1))
        )

    def test_codeword_passthrough(self):
        assert sd_decode(self.book, (4, 5, 2, 3, 1)) == (4, 5, 2, 3, 1)

    def test_two_deletions(self):
        assert sd_decode(self.book, (4, 2, 1)) == (4, 5, 2, 3, 1)

    def test_not_found(self):
        with pytest.raises(PermDecodeFailed, match="no codeword ball"):
            sd_decode(self.book, (3, 2, 1))

    def test_too_short(self):
        with pytest.raises(PermDecodeFailed, match="below n - t"):
            sd_decode(self.book, (1, 2))

    def test_ambiguous_on_corrupt_book(self):
        book = PermCodeBook(3, 1, ((1, 2, 3), (1, 3, 2)))
        with pytest.raises(PermDecodeFailed, match="multiple codeword balls"):
            sd_decode(book, (1, 2))

    def test_prefix_in_two_balls_raises_on_corrupt_book(self):
        # the whole word lies in one ball only, but its first n - t symbols lie
        # in both: the lookup refuses where the subsequence scan returns a codeword
        a, b = (1, 2, 3, 4, 5), (1, 2, 3, 5, 4)
        book = PermCodeBook(5, 1, (a, b))
        assert scan_sd_decode(book, a) == a
        with pytest.raises(PermDecodeFailed) as caught:
            sd_decode(book, a)
        assert str(caught.value) == "multiple codeword balls contain the received word's first n - t symbols"
        assert not verify_sd_property(book)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, n),
                st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4),
                st.lists(st.integers(0, n + 1), max_size=n + 1, unique=True),
            )
        )
    )
    def test_never_returns_a_codeword_without_the_received_word(self, case):
        # on any book, corrupt ones included
        n, t, codewords, symbols = case
        book = PermCodeBook(n, t, codewords)
        outcome = decode_outcome(sd_decode, book, tuple(symbols))
        if outcome[0] is not PermDecodeFailed:  # a codeword, not an error's class and text
            assert outcome in book.codewords
            it = iter(outcome)
            assert all(s in it for s in symbols)

    def test_exhaustive_channels_never_ambiguous(self):
        # every genuine at-most-t output of a verified greedy book decodes to its source
        for n, t in ((4, 2), (5, 2), (6, 1), (6, 2)):
            book = greedy_sd_code(n, t)
            for sigma in book.codewords:
                for pat in all_patterns(n, t):
                    received = apply_stable_deletions(sigma, pat).symbols
                    assert sd_decode(book, received) == sigma


class TestLookupMatchesScan:
    """The ball-index lookup against the subsequence scan of every codeword."""

    @pytest.mark.parametrize("n, t", [(n, t) for n in range(1, 8) for t in (1, 2) if t <= n])
    def test_every_arrangement(self, n, t):
        book = greedy_sd_code(n, t)
        decoded = set()
        for length in range(n - t, n + 1):
            for symbols in itertools.permutations(range(1, n + 1), length):
                outcome = decode_outcome(sd_decode, book, symbols)
                assert outcome == decode_outcome(scan_sd_decode, book, symbols), symbols
                decoded.add(outcome)
        assert set(book.codewords) <= decoded

    def test_corrupt_book_ambiguous_on_both_paths(self, tmp_path, capsys):
        # two neighbours swapped: Ulam distance 1, so the radius-1 balls meet
        book = PermCodeBook(5, 1, ((1, 2, 3, 4, 5), (2, 1, 3, 4, 5)))
        for decode in (sd_decode, scan_sd_decode):
            with pytest.raises(PermDecodeFailed, match="multiple codeword balls"):
                decode(book, (1, 3, 4, 5))
        assert not verify_sd_property(book)
        sets = SetCode(6, 5, 1, sets=(0b11111,))
        save_spec(MultFreeCodeSpec(6, 5, 1, "stable", sets, book), tmp_path / "corrupt.json")
        assert cli.main(["verify", "--spec", str(tmp_path / "corrupt.json")]) == 1
        assert json.loads(capsys.readouterr().out)["checks"]["perm_balls_disjoint"] is False

    @pytest.mark.parametrize("mode", ["stable", "unstable"])
    def test_verify_names_the_colliding_pair(self, mode, tmp_path, capsys):
        # the Ulam-distance-1 book above: verify prints both codewords and a key
        # that lies in both balls, found by the book's own deletion oracle
        a, b = (1, 2, 3, 4, 5), (2, 1, 3, 4, 5)
        sets = SetCode(6, 5, 1, sets=(0b11111,))
        path = tmp_path / f"corrupt-{mode}.json"
        save_spec(MultFreeCodeSpec(6, 5, 1, mode, sets, PermCodeBook(5, 1, (a, b))), path)
        assert cli.main(["verify", "--spec", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["perm_balls_disjoint"] is False
        witness = payload["perm_balls_witness"]
        assert witness["codewords"] == [list(a), list(b)]
        key = tuple(witness["key"])
        assert len(key) == 5 - 1
        patterns = [pos for e in (0, 1) for pos in itertools.combinations(range(1, 6), e)]
        for sigma in (a, b):
            if mode == "stable":
                ball = {apply_stable_deletions(sigma, pat).symbols for pat in patterns}
            else:
                ball = {apply_unstable_deletions(sigma, pat) for pat in patterns}
            assert key in ball

    @pytest.mark.parametrize("t", [0, 1])
    def test_repeated_codeword(self, t):
        sigma = (2, 4, 1, 3)
        book = PermCodeBook(4, t, (sigma, sigma))
        assert not verify_sd_property(book)
        assert not verify_ud_property(book)
        for decode in (sd_decode, scan_sd_decode):
            with pytest.raises(PermDecodeFailed, match="multiple codeword balls"):
                decode(book, sigma)

    @pytest.mark.parametrize("stray", [0, 6, 255, 256, 1000])
    def test_symbol_outside_the_book_not_found(self, stray):
        book = greedy_sd_code(5, 1)
        for decode in (sd_decode, scan_sd_decode):
            with pytest.raises(PermDecodeFailed, match="no codeword ball"):
                decode(book, (1, 2, 3, stray))

    def test_index_built_on_first_use_and_kept(self):
        book = greedy_sd_code(5, 1)
        assert "_stable_index" not in vars(book)  # construction does not pay for it
        assert sd_decode(book, book.codewords[0]) == book.codewords[0]
        index = vars(book)["_stable_index"]
        assert verify_sd_property(book) and book._stable_index is index


class TestUnstable:
    def test_index_built_once_for_check_and_witness(self, monkeypatch):
        # verify_ud_property and ball_collision read the book's one unstable index
        book = PermCodeBook(3, 1, ((1, 2, 3), (2, 1, 3)))
        real, builds = permcode.ball_index, []
        monkeypatch.setattr(permcode, "ball_index", lambda *args: builds.append(args) or real(*args))
        assert not verify_ud_property(book)
        assert ball_collision(book, True) == (book.codewords[0], book.codewords[1], bytes((1, 2)))
        assert len(builds) == 1 and "_stable_index" not in vars(book)

    def test_no_collision_in_disjoint_balls(self):
        stable, unstable = greedy_sd_code(5, 1), greedy_ud_code(5, 1)
        assert verify_sd_property(stable) and ball_collision(stable, False) is None
        assert verify_ud_property(unstable) and ball_collision(unstable, True) is None

    def test_greedy_rejects_multi_deletion_budget(self):
        with pytest.raises(ValueError):
            greedy_ud_code(5, 2)

    def test_greedy_verifies(self):
        for n in (3, 4, 5):
            assert verify_ud_property(greedy_ud_code(n, 1))

    def test_matches_naive_oracle(self):
        for n in range(1, 6):
            assert list(greedy_ud_code(n, 1).codewords) == naive_greedy_ud(n, 1)

    def test_zero_budget(self):
        assert len(greedy_ud_code(4, 0).codewords) == 24

    def test_exhaustive_single_deletion_decoding(self):
        for n in (4, 5):
            book = greedy_ud_code(n, 1)
            assert len(book.codewords) >= 2
            for sigma in book.codewords:
                for pat in all_patterns(n, 1):
                    received = apply_unstable_deletions(sigma, pat)
                    assert ud_decode(book, received) == sigma

    def test_not_found_and_length_guards(self):
        book = greedy_ud_code(4, 1)
        with pytest.raises(PermDecodeFailed, match="outside"):
            ud_decode(book, (1,))  # two deletions, budget is one
        lone = PermCodeBook(4, 1, ((1, 2, 3, 4),))
        # identity's unstable deletions all stay the identity
        assert unstable_deletion_ball((1, 2, 3, 4), 1) == {
            (1, 2, 3, 4),
            (1, 2, 3),
        }
        with pytest.raises(PermDecodeFailed, match="no codeword ball"):
            ud_decode(lone, (3, 2, 1))

    def test_ambiguous_on_corrupt_book(self):
        book = PermCodeBook(3, 1, ((1, 2, 3), (2, 1, 3)))
        # deleting position 1 of the first or position 2 of the second gives (1, 2)
        with pytest.raises(PermDecodeFailed, match="multiple codeword balls"):
            ud_decode(book, (1, 2))


class TestReferenceBound:
    def test_values(self):
        assert reference_size_bound(5, 2) == Fraction(120, 100_000)
        assert reference_size_bound(5, 1) == Fraction(120, 100)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            reference_size_bound(5, 0)

    def test_comparison_is_report_only(self):
        # the greedy size and the reference target are both computable; no
        # ordering is asserted because they describe different constructions
        for n, t in ((4, 1), (5, 1), (5, 2)):
            greedy_size = len(greedy_sd_code(n, t).codewords)
            target = reference_size_bound(n, t)
            assert greedy_size >= 1 and target > 0


class TestCodebookSerialization:
    def test_codewords_held_as_sorted_tuples(self):
        # a book read from a file gets lists; it is the book built from tuples in any order
        from_lists = PermCodeBook(3, 1, [[2, 1, 3], [1, 2, 3]])
        from_tuples = PermCodeBook(3, 1, ((1, 2, 3), (2, 1, 3)))
        assert from_lists.codewords == ((1, 2, 3), (2, 1, 3))
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)

    def test_json_roundtrip(self, tmp_path):
        book = greedy_sd_code(4, 1)
        data = saved_spec(book, tmp_path / "spec.json")["perm_code"]
        assert data["n"] == 4 and data["t"] == 1 and data["order"] == "lex"
        assert all(isinstance(c, list) for c in data["codewords"])
        # the form the pinned codebook digests hash is the one the file holds
        assert data == book_file_form(book)
        assert load_spec(tmp_path / "spec.json").perm_code == book

    def test_validation(self):
        with pytest.raises(ValueError):
            PermCodeBook(3, 4, ())
        with pytest.raises(ValueError):
            PermCodeBook(3, 1, ((1, 2),))
