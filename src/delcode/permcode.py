"""Greedy deletion-ball packings in the symmetric group, their checks and decoders.

A radius-t stable ball is the set of subsequences of length >= n - t; unstable
deletions also rank-compress the survivors (codebooks only for t <= 1).  One key
function serves the unstable scan, the disjointness checks and the decode index;
the stable scan needs only the subsequences of exactly n - t symbols."""

import math
from collections.abc import Callable, Hashable, Iterable, Iterator
from functools import cached_property, partial
from itertools import combinations, permutations

from .errors import PermDecodeFailed
from .guards import PERM_ENUM_CAP, check_enumerable
from .model import Permutation, Record, Word, apply_unstable_deletions, ball_index


class PermCodeBook(Record):
    """A permutation code with its deletion budget.  The codewords are held
    sorted by their images, the one order there is: spec files name it "lex"."""

    __slots__ = ("n", "t", "codewords", "__dict__")
    order = "lex"

    def __init__(self, n: int, t: int, codewords: tuple[Permutation, ...]):
        codewords = tuple(sorted(codewords, key=lambda s: s.images))
        if not 0 <= t <= n:
            raise ValueError(f"deletion budget t={t} outside [0, {n}]")
        for sigma in codewords:
            if len(sigma) != n:
                raise ValueError(f"codeword of length {len(sigma)} in a length-{n} book")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "codewords", codewords)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "codewords": [list(sigma.images) for sigma in self.codewords],
            "order": self.order,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PermCodeBook":
        if "order" in data and data["order"] != cls.order:
            raise ValueError(f"unknown codeword order {data['order']!r}")
        return cls(data["n"], data["t"], tuple(Permutation(tuple(images)) for images in data["codewords"]))

    @cached_property
    def _stable_index(self) -> dict[bytes, int | None]:
        """Stable ball index, built on first use and kept; `_ball_keys` refuses n > 255 first."""
        return ball_index((bytes(s.images) for s in self.codewords), _ball_keys(self.n, self.t, False))

    @cached_property
    def _unstable_index(self) -> dict[bytes, int | None]:
        return ball_index((bytes(s.images) for s in self.codewords), _ball_keys(self.n, self.t, True))


def check_radius(n: int, t: int) -> None:
    if not 0 <= t <= n:
        raise ValueError(f"deletion radius t={t} outside [0, {n}]")


def _ball_keys(n: int, t: int, unstable: bool) -> Callable:
    """Lazy keys of a radius-t ball around a permutation held as bytes.  Values are
    distinct, so deleting positions keeps what deleting their values keeps: the keys
    are images.translate(table, deleted) over every set of at most t values, most
    values first so that a lazy disjointness test meets a taken key early."""
    check_radius(n, t)
    if n > 255:
        raise ValueError(f"ball keys hold values as bytes, so n={n} must be at most 255")
    deletes = [bytes(values) for size in range(t, -1, -1)
               for values in combinations(range(1, n + 1), size)]
    tables = [None] * len(deletes)
    if unstable:
        # an unstable table ranks the survivors, x -> x - #{deleted values < x}: the
        # ranks 0, 1, ... with a filler byte inserted at each deleted value, lowest first
        tables = [bytearray(range(256 - len(values))) for values in deletes]
        for table, values in zip(tables, deletes):
            for v in values:
                table.insert(v, 0)
    return lambda images: map(images.translate, tables, deletes)


def _first_fit(candidates: Iterable[Hashable], ball_keys: Callable) -> Iterator[Hashable]:
    """Yield each candidate whose ball shares no key with the ball of an earlier
    yielded one; admission only consults earlier admissions."""
    taken: set[Hashable] = set()
    for images in candidates:
        if taken.isdisjoint(ball_keys(images)):
            # merging a whole set grows the table less eagerly than adding keys one by one
            taken |= set(ball_keys(images))
            yield images


def _greedy_book(n: int, t: int, unstable: bool) -> PermCodeBook:
    check_enumerable(math.factorial(n), PERM_ENUM_CAP, "symmetric-group scan")
    check_radius(n, t)
    candidates = permutations(range(1, n + 1))
    if unstable:
        admitted = _first_fit(map(bytes, candidates), _ball_keys(n, t, True))
    else:
        # two stable balls meet iff the words share n - t symbols in order, so the
        # subsequences of exactly that length are all the keys a test needs
        admitted = _first_fit(candidates, partial(combinations, r=n - t))
    return PermCodeBook(n, t, tuple(Permutation(images) for images in admitted))


def greedy_sd_code(n: int, t: int) -> PermCodeBook:
    """First-fit scan of S_n in lexicographic order: admit a permutation iff its
    radius-t stable-deletion ball avoids every previously admitted ball."""
    return _greedy_book(n, t, False)


def greedy_ud_code(n: int, t: int = 1) -> PermCodeBook:
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


def ball_collision(book: PermCodeBook, unstable: bool) -> tuple[Permutation, Permutation, bytes] | None:
    """Two codewords whose radius-t balls meet, and a key in both, for a book
    that fails its disjointness check: the first key the ball index marks as
    shared.  A stable key is a common subsequence of length >= n - t.  None
    when the balls are disjoint."""
    index = book._unstable_index if unstable else book._stable_index
    key = next((k for k, owner in index.items() if owner is None), None)
    if key is None:
        return None
    keys = _ball_keys(book.n, book.t, unstable)
    first, second = [s for s in book.codewords if key in keys(bytes(s.images))][:2]
    return first, second, key


def sd_decode(book: PermCodeBook, received: Word) -> Permutation:
    """The unique codeword whose radius-t stable-deletion ball contains the
    received word: one lookup in the book's stable ball index."""
    if len(received) < book.n - book.t:
        raise PermDecodeFailed(f"received length {len(received)} is below n - t = {book.n - book.t}")
    index = book._stable_index  # a symbol above a byte is above n, so in no key
    key = bytes(received.symbols) if max(received.symbols, default=0) < 256 else None
    if key not in index:
        raise PermDecodeFailed("no codeword ball contains the received word")
    if index[key] is None:
        raise PermDecodeFailed("multiple codeword balls contain the received word")
    return book.codewords[index[key]]


def ud_decode(book: PermCodeBook, received: Permutation) -> Permutation:
    """The unique codeword reaching the received permutation by <= t unstable deletions.
    Brute force, not indexed: ROADMAP item 10 decodes unstable specs by the stable lookup."""
    missing = book.n - len(received)
    if missing < 0 or missing > book.t:
        raise PermDecodeFailed(f"received length {len(received)} is outside [n - t, n]")
    hits = []
    for sigma in book.codewords:
        if any(
            apply_unstable_deletions(sigma, positions) == received
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
