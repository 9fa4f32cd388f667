"""Greedy deletion-ball packings in the symmetric group, their checks and decoders.

A radius-t stable ball is the set of subsequences of length >= n - t; unstable
deletions also rank-compress the survivors (codebooks only for t <= 1).  Two balls
meet iff they share a subsequence of exactly n - t symbols, so the one key function
yields those alone, for the scan, the checks, the witness and the decode index."""

import math
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import combinations, permutations

from .errors import PermDecodeFailed
from .guards import PERM_ENUM_CAP, check_enumerable, scale_cap
from .model import Record, apply_unstable_deletions, ball_index, check_permutation, is_subsequence


class PermCodeBook(Record):
    """A permutation code with its deletion budget.  The codewords are images
    tuples, each checked to be a permutation, held sorted: the one order there is."""

    __slots__ = ("n", "t", "codewords", "__dict__")

    def __init__(self, n: int, t: int, codewords: Iterable[tuple[int, ...]]):
        codewords = tuple(sorted(map(check_permutation, codewords)))
        check_radius(n, t)
        for sigma in codewords:
            if len(sigma) != n:
                raise ValueError(f"codeword of length {len(sigma)} in a length-{n} book")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "codewords", codewords)

    @cached_property
    def _stable_index(self) -> dict[tuple, int | None]:
        """Stable ball index, built on first use and kept."""
        return ball_index(self.codewords, _ball_keys(self.n, self.t, False))

    @cached_property
    def _unstable_index(self) -> dict[bytes, int | None]:
        return ball_index(self.codewords, _ball_keys(self.n, self.t, True))


def check_radius(n: int, t: int) -> None:
    if not 0 <= t <= n:
        raise ValueError(f"deletion radius t={t} outside [0, {n}]")


def _ball_keys(n: int, t: int, unstable: bool) -> Callable:
    """Lazy keys of a radius-t ball around a permutation's images tuple: its C(n, t)
    subsequences of exactly n - t symbols.  A longer subsequence two balls share
    cuts down to one of these, and deleting the same position from two rank-equal
    sequences leaves them rank-equal, so two balls meet iff they share a key."""
    check_radius(n, t)
    if not unstable:
        return lambda images: combinations(images, n - t)
    if n > 255:
        raise ValueError(f"unstable ball keys hold values as bytes, so n={n} must be at most 255")
    # values are distinct, so deleting positions keeps what deleting their values
    # keeps; a rank table maps x -> x - #{deleted values < x}: the ranks 0, 1, ...
    # with a filler byte inserted at each deleted value, lowest first
    deletes = [bytes(values) for values in combinations(range(1, n + 1), t)]
    tables = [bytearray(range(256 - t)) for _ in deletes]
    for table, values in zip(tables, deletes):
        for v in values:
            table.insert(v, 0)
    return lambda images: map(bytes(images).translate, tables, deletes)


def _first_fit(candidates: Iterable[tuple], ball_keys: Callable) -> Iterator[tuple]:
    """Yield each candidate whose ball shares no key with the ball of an earlier
    yielded one; admission only consults earlier admissions."""
    taken = set()
    for images in candidates:
        if taken.isdisjoint(ball_keys(images)):
            # merging a whole set grows the table less eagerly than adding keys one by one
            taken |= set(ball_keys(images))
            yield images


def _greedy_book(n: int, t: int, unstable: bool) -> PermCodeBook:
    cap, count, k = scale_cap(PERM_ENUM_CAP), 1, 1
    while count <= cap and k < n:  # n! counted no further than the cap
        k += 1
        count *= k
    check_enumerable(count, PERM_ENUM_CAP, "symmetric-group scan", k >= n)
    admitted = _first_fit(permutations(range(1, n + 1)), _ball_keys(n, t, unstable))
    return PermCodeBook(n, t, admitted)


def greedy_sd_code(n: int, t: int) -> PermCodeBook:
    """First-fit scan of S_n in lexicographic order: admit a permutation iff its
    radius-t stable-deletion ball avoids every previously admitted ball."""
    return _greedy_book(n, t, False)


def greedy_ud_code(n: int, t: int) -> PermCodeBook:
    """Same first-fit scan with unstable balls; only t <= 1 is supported because
    multiple-unstable-deletion codes are not constructed here."""
    if t not in (0, 1):
        raise ValueError("unstable-deletion codebooks are only built for t <= 1")
    return _greedy_book(n, t, True)


def verify_sd_property(book: PermCodeBook) -> bool:
    """True iff the radius-t stable-deletion balls are pairwise disjoint."""
    return None not in book._stable_index.values()


def verify_ud_property(book: PermCodeBook) -> bool:
    """True iff the radius-t unstable-deletion balls are pairwise disjoint."""
    return None not in book._unstable_index.values()


def ball_collision(book: PermCodeBook, unstable: bool) -> tuple[tuple, tuple, tuple | bytes] | None:
    """Two codewords whose radius-t balls meet, and a key in both, for a book
    that fails its disjointness check: the first key the ball index marks as
    shared, a common subsequence of exactly n - t symbols (rank-compressed in
    unstable mode).  None when the balls are disjoint."""
    index = book._unstable_index if unstable else book._stable_index
    key = next((k for k, owner in index.items() if owner is None), None)
    if key is None:
        return None
    keys = _ball_keys(book.n, book.t, unstable)
    first, second = [s for s in book.codewords if key in keys(s)][:2]
    return first, second, key


def sd_decode(book: PermCodeBook, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """The unique codeword whose radius-t stable-deletion ball contains the received
    ranks: one index lookup of their first n - t, then one O(n) test that the
    codeword found holds them all.  On a corrupt book, a prefix in two balls raises."""
    head = ranks[:book.n - book.t]
    if len(head) < book.n - book.t:
        raise PermDecodeFailed(f"received length {len(ranks)} is below n - t = {book.n - book.t}")
    owner = book._stable_index.get(head, -1)
    if owner is None:
        raise PermDecodeFailed("multiple codeword balls contain the received word's first n - t symbols")
    if owner < 0 or not is_subsequence(ranks, book.codewords[owner]):
        raise PermDecodeFailed("no codeword ball contains the received word")
    return book.codewords[owner]


def ud_decode(book: PermCodeBook, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """The unique codeword reaching the received ranks by <= t unstable deletions,
    by brute force over every codeword and deletion pattern."""
    missing = book.n - len(ranks)
    if missing < 0 or missing > book.t:
        raise PermDecodeFailed(f"received length {len(ranks)} is outside [n - t, n]")
    hits = []
    for sigma in book.codewords:
        if any(
            apply_unstable_deletions(sigma, positions) == ranks
            for positions in combinations(range(1, book.n + 1), missing)
        ):
            hits.append(sigma)
    if not hits:
        raise PermDecodeFailed("no codeword ball contains the received permutation")
    if len(hits) > 1:
        raise PermDecodeFailed("multiple codeword balls contain the received permutation")
    return hits[0]


def reference_size_bound(n: int, t: int) -> "Fraction":
    """Literature size target n!/(2n)^(3t-1) for stable-deletion permutation codes,
    reported for comparison only; the greedy scan makes no promise against it."""
    from fractions import Fraction  # imported here: the CLI never needs it

    if t < 1:
        raise ValueError("the reference bound applies to t >= 1")
    return Fraction(math.factorial(n), (2 * n) ** (3 * t - 1))
