"""Words, the set bits of a symbol-set mask, the permutation check, position
deletion, the subsequence test, unstable (rank-compressing) deletion of
permutations, a seeded deletion channel and the deletion-ball index.

A permutation of [n] is the tuple of its images, (sigma_1, ..., sigma_n); the
entries that take one check it with `check_permutation`.  Positions are 1-based
throughout the public API and in every file format.  A deletion pattern is a
tuple of positions, checked against the word it is applied to.
"""

import random
from operator import attrgetter


class Record:
    """Base of the immutable record types.  A record names its fields in
    `__slots__`, in constructor order, and its `__init__` sets them with
    `object.__setattr__`; equality, hashing, repr and pickling follow the
    fields, and assigning or deleting an attribute raises AttributeError.
    A `"__dict__"` slot only makes room for cached properties."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        key = attrgetter(*fields)  # one field's value, or a tuple of several

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            values = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
            return f"{type(self).__qualname__}({values})"

        def __reduce__(self):
            return type(self), tuple(getattr(self, name) for name in fields)

        cls.__eq__, cls.__hash__, cls.__repr__, cls.__reduce__ = __eq__, __hash__, __repr__, __reduce__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Word(Record):
    """A q-ary sequence: its symbols and its alphabet size.  A word is
    multiplicity-free when its symbols are pairwise distinct, a fact about the
    symbols rather than a field; `multiplicity_free=True` only checks the input."""

    __slots__ = ("symbols", "alphabet_size")

    def __init__(self, symbols: tuple[int, ...], alphabet_size: int, multiplicity_free: bool = False):
        symbols = tuple(symbols)
        if alphabet_size < 0:
            raise ValueError("alphabet size must be nonnegative")
        for s in symbols:
            if not 0 <= s < alphabet_size:
                raise ValueError(f"symbol {s} outside [0, {alphabet_size - 1}]")
        if multiplicity_free and len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbol in a multiplicity-free word")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet_size", alphabet_size)

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


def check_permutation(images) -> tuple[int, ...]:
    """The images as a tuple, refused unless they rearrange 1..len(images)."""
    images = tuple(images)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError("images are not a rearrangement of 1..n")
    return images


def _kept(seq: tuple, positions: tuple[int, ...]) -> tuple:
    """The entries of seq at none of the 1-based positions, in order.  A repeated
    position, or one outside [1, len(seq)], raises ValueError."""
    drop = set(positions)
    if len(drop) != len(positions):
        raise ValueError("duplicate deletion position")
    for pos in positions:
        if not 1 <= pos <= len(seq):
            raise ValueError(f"position {pos} outside [1, {len(seq)}]")
    return tuple(s for k, s in enumerate(seq, start=1) if k not in drop)


def delete_positions(x: Word, positions: tuple[int, ...]) -> Word:
    """Remove the given positions from x, preserving the order of survivors."""
    return Word(_kept(x.symbols, positions), x.alphabet_size)


def is_subsequence(short: tuple, long: tuple) -> bool:
    """True iff deleting some entries of long leaves short, in one O(len(long)) pass."""
    remaining = iter(long)
    return all(s in remaining for s in short)


def apply_unstable_deletions(sigma: tuple[int, ...], positions: tuple[int, ...]) -> tuple[int, ...]:
    """Drop positions from the permutation sigma, then rank-compress survivors
    back onto 1..(n - |I|)."""
    kept = _kept(check_permutation(sigma), positions)
    rank = {v: j for j, v in enumerate(sorted(kept), start=1)}
    return tuple(rank[v] for v in kept)


def draw_deletion_pattern(rng: random.Random, n: int, t_max: int) -> tuple[int, ...]:
    """Channel draw: size uniform in {0..t_max}, then a uniform subset of [n] of
    that size, as its sorted positions."""
    if not 0 <= t_max <= n:
        raise ValueError(f"t_max {t_max} must lie in [0, {n}]")
    size = rng.randint(0, t_max)
    return tuple(sorted(rng.sample(range(1, n + 1), size)))
