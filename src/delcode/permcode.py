"""Greedy deletion-ball packings in the symmetric group, with brute-force
decoders.

Stable deletions keep surviving values, so a radius-t ball is exactly the set
of subsequences of length >= n - t; unstable deletions rank-compress survivors
and yield smaller permutations (codebooks only for t <= 1).  One raw-tuple key
function per semantics serves the greedy scan, disjointness checks and balls.
"""

import math
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, permutations
from typing import Callable, Iterable, Iterator

from .errors import Ambiguous, NotFound
from .guards import PERM_ENUM_CAP, check_enumerable
from .model import DeletionPattern, Permutation, Word, apply_unstable_deletions


@dataclass(frozen=True)
class PermCodeBook:
    """A permutation code with its deletion budget and enumeration-order tag."""

    n: int
    t: int
    codewords: tuple[Permutation, ...]
    order: str = "lex"

    def __post_init__(self):
        object.__setattr__(self, "codewords", tuple(self.codewords))
        if not 0 <= self.t <= self.n:
            raise ValueError(f"deletion budget t={self.t} outside [0, {self.n}]")
        for sigma in self.codewords:
            if len(sigma) != self.n:
                raise ValueError(f"codeword of length {len(sigma)} in a length-{self.n} book")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "codewords": [list(sigma.images) for sigma in self.codewords],
            "order": self.order,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PermCodeBook":
        return cls(
            data["n"],
            data["t"],
            tuple(Permutation(tuple(images)) for images in data["codewords"]),
            data.get("order", "lex"),
        )


def _stable_keys(n: int, t: int) -> Callable:
    """Lazy keys of a radius-t stable ball: every subsequence of length >= n - t,
    shortest first, so that a lazy disjointness test meets a taken key early."""
    if not 0 <= t <= n:
        raise ValueError(f"deletion radius t={t} outside [0, {n}]")
    masks = [tuple(k not in dropped for k in range(n))
             for size in range(t, -1, -1) for dropped in combinations(range(n), size)]
    return lambda images: (tuple(compress(images, keep)) for keep in masks)


def _unstable_keys(n: int, t: int) -> Callable:
    """Lazy keys of a radius-t unstable ball: the stable keys, rank-compressed."""
    stable_keys = _stable_keys(n, t)

    def keys(images):
        for kept in stable_keys(images):
            ordered = sorted(kept)
            yield tuple([bisect(ordered, v) for v in kept])

    return keys


def stable_deletion_ball(sigma: Permutation, t: int) -> set[Word]:
    """Every word reachable from sigma by at most t stable deletions."""
    keys = _stable_keys(len(sigma), t)(sigma.images)
    return {Word(key, len(sigma) + 1, multiplicity_free=True) for key in keys}


def unstable_deletion_ball(sigma: Permutation, t: int) -> set[Permutation]:
    """Every permutation reachable from sigma by at most t unstable deletions."""
    return {Permutation(key) for key in _unstable_keys(len(sigma), t)(sigma.images)}


def _first_fit(candidates: Iterable[tuple[int, ...]], ball_keys: Callable) -> Iterator[tuple[int, ...]]:
    """Yield each candidate whose ball shares no key with the ball of an earlier
    yielded one; admission only consults earlier admissions."""
    taken: set[tuple[int, ...]] = set()
    for images in candidates:
        if taken.isdisjoint(ball_keys(images)):
            # merging a whole set grows the table less eagerly than adding keys one by one
            taken |= set(ball_keys(images))
            yield images


def _greedy_book(n: int, t: int, ball_keys: Callable) -> PermCodeBook:
    check_enumerable(math.factorial(n), PERM_ENUM_CAP, "symmetric-group scan")
    admitted = _first_fit(permutations(range(1, n + 1)), ball_keys)
    return PermCodeBook(n, t, tuple(Permutation(images) for images in admitted), "lex")


def greedy_sd_code(n: int, t: int) -> PermCodeBook:
    """First-fit scan of S_n in lexicographic order: admit a permutation iff its
    radius-t stable-deletion ball avoids every previously admitted ball."""
    return _greedy_book(n, t, _stable_keys(n, t))


def greedy_ud_code(n: int, t: int = 1) -> PermCodeBook:
    """Same first-fit scan with unstable balls; only t <= 1 is supported because
    multiple-unstable-deletion codes are not constructed here."""
    if t not in (0, 1):
        raise ValueError("unstable-deletion codebooks are only built for t <= 1")
    return _greedy_book(n, t, _unstable_keys(n, t))


def verify_sd_property(book: PermCodeBook) -> bool:
    """True iff the radius-t stable-deletion balls are pairwise disjoint."""
    images = [sigma.images for sigma in book.codewords]
    return len(list(_first_fit(images, _stable_keys(book.n, book.t)))) == len(images)


def verify_ud_property(book: PermCodeBook) -> bool:
    """True iff the radius-t unstable-deletion balls are pairwise disjoint."""
    images = [sigma.images for sigma in book.codewords]
    return len(list(_first_fit(images, _unstable_keys(book.n, book.t)))) == len(images)


def _is_subsequence(short: tuple[int, ...], long: tuple[int, ...]) -> bool:
    it = iter(long)
    return all(s in it for s in short)


def sd_decode(book: PermCodeBook, received: Word) -> Permutation:
    """The unique codeword whose radius-t stable-deletion ball contains the
    received word; ball membership is a subsequence test."""
    if len(received) < book.n - book.t:
        raise NotFound(f"received length {len(received)} is below n - t = {book.n - book.t}")
    hits = [s for s in book.codewords if _is_subsequence(received.symbols, s.images)]
    if not hits:
        raise NotFound("no codeword ball contains the received word")
    if len(hits) > 1:
        raise Ambiguous("multiple codeword balls contain the received word")
    return hits[0]


def ud_decode(book: PermCodeBook, received: Permutation) -> Permutation:
    """The unique codeword reaching the received permutation by <= t unstable deletions."""
    missing = book.n - len(received)
    if missing < 0 or missing > book.t:
        raise NotFound(f"received length {len(received)} is outside [n - t, n]")
    hits = []
    for sigma in book.codewords:
        if any(
            apply_unstable_deletions(sigma, DeletionPattern(positions, book.n)) == received
            for positions in combinations(range(1, book.n + 1), missing)
        ):
            hits.append(sigma)
    if not hits:
        raise NotFound("no codeword ball contains the received permutation")
    if len(hits) > 1:
        raise Ambiguous("multiple codeword balls contain the received permutation")
    return hits[0]


def reference_size_bound(n: int, t: int) -> Fraction:
    """Literature size target n!/(2n)^(3t-1) for stable-deletion permutation codes,
    reported for comparison only; the greedy scan makes no promise against it."""
    if t < 1:
        raise ValueError("the reference bound applies to t >= 1")
    return Fraction(math.factorial(n), (2 * n) ** (3 * t - 1))
