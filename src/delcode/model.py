"""Words, the set bits of a symbol-set mask, permutations, position deletion,
unstable (rank-compressing) deletion of permutations, a seeded deletion channel
and the deletion-ball index.

Positions are 1-based throughout the public API and in every file format.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Word:
    """A q-ary sequence; the multiplicity_free flag asserts pairwise-distinct symbols."""

    symbols: tuple[int, ...]
    alphabet_size: int
    multiplicity_free: bool = False

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.alphabet_size < 0:
            raise ValueError("alphabet size must be nonnegative")
        for s in self.symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError(f"symbol {s} outside [0, {self.alphabet_size - 1}]")
        if self.multiplicity_free:
            if len(set(self.symbols)) != len(self.symbols):
                raise ValueError("duplicate symbol in a multiplicity-free word")
            if len(self.symbols) > self.alphabet_size:
                raise ValueError("multiplicity-free word longer than its alphabet")

    def __len__(self) -> int:
        return len(self.symbols)


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending, in O(popcount) steps."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def ball_index(members, ball_keys) -> dict:
    """Each ball key -> its member's position, or None where two positions' balls meet."""
    index = {}
    for position, member in enumerate(members):
        for key in ball_keys(member):
            if index.setdefault(key, position) != position:
                index[key] = None
    return index


@dataclass(frozen=True)
class Permutation:
    """A bijection on [n], written as the sequence of its images."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images are not a rearrangement of 1..n")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class DeletionPattern:
    """Sorted 1-based deletion positions inside a length-n word."""

    positions: tuple[int, ...]
    original_length: int

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(sorted(self.positions)))
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("duplicate deletion position")
        for pos in self.positions:
            if not 1 <= pos <= self.original_length:
                raise ValueError(f"position {pos} outside [1, {self.original_length}]")

    @property
    def size(self) -> int:
        return len(self.positions)


def _check_positions(pattern: DeletionPattern, length: int) -> None:
    if pattern.positions and pattern.positions[-1] > length:
        raise ValueError(f"position {pattern.positions[-1]} out of range for length {length}")


def delete_positions(x: Word, pattern: DeletionPattern) -> Word:
    """Remove the pattern's positions from x, preserving the order of survivors."""
    _check_positions(pattern, len(x))
    drop = set(pattern.positions)
    kept = tuple(s for k, s in enumerate(x.symbols, start=1) if k not in drop)
    return Word(kept, x.alphabet_size, x.multiplicity_free)


def apply_unstable_deletions(sigma: Permutation, pattern: DeletionPattern) -> Permutation:
    """Drop positions, then rank-compress survivors back onto 1..(n - |I|)."""
    _check_positions(pattern, len(sigma))
    drop = set(pattern.positions)
    kept = [v for k, v in enumerate(sigma.images, start=1) if k not in drop]
    rank = {v: j for j, v in enumerate(sorted(kept), start=1)}
    return Permutation(tuple(rank[v] for v in kept))


def draw_deletion_pattern(rng: random.Random, n: int, t_max: int) -> DeletionPattern:
    """Channel draw: size uniform in {0..t_max}, then a uniform subset of [n] of that size."""
    if not 0 <= t_max <= n:
        raise ValueError(f"t_max {t_max} must lie in [0, {n}]")
    size = rng.randint(0, t_max)
    return DeletionPattern(tuple(rng.sample(range(1, n + 1), size)), n)
