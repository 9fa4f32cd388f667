"""Constant-weight binary codes cut out by weighted power-sum syndromes and
their decoder for asymmetric 1->0 errors on bitmasks.

Bit positions are 1-based to match the syndrome weights; alphabet symbol s sits
at position s + 1, so that symbol 0 stays visible to every syndrome row.
"""

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import combinations, product

from .errors import BoundViolated, SetDecodeFailed
from .guards import CLASS_ENUM_CAP, check_enumerable
from .model import Record
from .modular import is_prime


class VTParams(Record):
    """Parameters of one syndrome class: block length q, weight n, error budget t,
    prime modulus p and the class label a, t residues mod p."""

    __slots__ = ("q", "n", "t", "p", "a", "__dict__")

    def __init__(self, q: int, n: int, t: int, p: int, a: tuple[int, ...]):
        a = tuple(a)
        if not 0 <= n <= q:
            raise ValueError(f"need 0 <= n <= q, got n={n}, q={q}")
        if not q < p <= 2 * q:
            raise ValueError(f"need q < p <= 2q, got q={q}, p={p}")
        if t < 1:
            raise ValueError("error budget t must be at least 1")
        if len(a) != t:
            raise ValueError(f"syndrome vector has {len(a)} entries, expected t={t}")
        for r in a:
            if not 0 <= r < p:
                raise ValueError(f"residue {r} outside [0, {p - 1}]")
        # one key per subset of at most t positions, counted before _lost_sets builds them;
        # the packed rows, one per position, are no more than the keys
        lost_sets = sum(math.comb(q, e) for e in range(1, t + 1))
        check_enumerable(lost_sets, CLASS_ENUM_CAP, "set-decoder lost-set keys")
        if not is_prime(p):  # last: the one check whose cost grows with the digits of p
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)

    @cached_property
    def _packed_rows(self) -> tuple[list[int], int]:
        """Position i's residues (i, i^2, ..., i^t) mod p as one int at index i,
        i^k in field k - 1, and the field width in bits.  A field sums at most q
        values below p, so a width holding q (p - 1) never carries.  Built on
        the first decode or membership test; callers only read the list."""
        q, t, p = self.q, self.t, self.p
        width = (q * (p - 1)).bit_length()
        rows = [sum(pow(i, k, p) << (k - 1) * width for k in range(1, t + 1)) for i in range(q + 1)]
        return rows, width

    @cached_property
    def _lost_sets(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The positions of every set of 1..t positions, ascending, keyed by
        its power sums s_1..s_t mod p.  No two sets share a key: zeros added to
        the smaller of two sets leave its sums as they are, Newton's identities
        (at most q < p elements) then give both one polynomial, so one set of
        roots, and no position is 0 mod p.  Built on first use: a nonzero
        deficit, or `verify`."""
        levels = _subset_sums(_residue_rows(self.q, self.t, self.p), self.t, self.p)
        return {sums: positions for level in levels for positions, sums in level}


def _flat(residues: Sequence[int], p: int) -> int:
    index = 0
    for r in residues:
        index = index * p + r
    return index


@lru_cache(maxsize=None)
def _repunit(groups: int, span: int) -> int:
    """A set bit at the start of each of `groups` runs of `span` bits."""
    return int.from_bytes((b"\1" + bytes(span // 8 - 1)) * groups, "little")


def _shift(row: int, i: int, t: int, p: int, width: int) -> int:
    """Move a packed row over the p^t residue vectors by position i's syndrome
    contribution (i, i^2, ..., i^t): out[r + v_i] = row[r].  The row is one int
    of p^t fields, `width` bits each (a multiple of 8), in flat label order.
    Level k is a ring of p blocks in each of p^(k - 1) groups, so the move is
    two shifts per level: the low fields of every group go up, the rest down,
    under a mask built from the level's repunit (a one at each group's start).
    """
    for k in range(1, t + 1):
        block = p ** (t - k) * width
        span = p * block
        up = pow(i, k, p) * block
        if up:
            rep = _repunit(p ** (k - 1), span)
            low = row & (rep << span - up) - rep
            row = low << up | (row ^ low) >> span - up
    return row


def _census(q: int, n: int, t: int, p: int) -> tuple[bytearray, int]:
    """The suffix-count table of weight-n words of length q and its field width
    in bits.  The scale guard runs on every call, the table is built once per
    (q, n, t, p)."""
    if n < 0 or t < 0:
        raise ValueError(f"weight n and budget t must be nonnegative, got n={n}, t={t}")
    check_enumerable(q * (n + 1) * p**t, CLASS_ENUM_CAP, "syndrome-class DP")
    return _suffix_counts(q, n, t, p)


@lru_cache(maxsize=2)  # a channel holds two specs; a table can reach tens of MB
def _suffix_counts(q: int, n: int, t: int, p: int) -> tuple[bytearray, int]:
    """The table behind _census: row (i, w), for 1 <= i <= q + 1 and
    0 <= w <= n, is p^t whole-byte fields in flat label order, starting at
    field ((i - 1) * (n + 1) + w) * p^t.  Field r counts the ways positions
    i..q can hold w ones with residue vector r, so row (1, n) is the census.

    Built from the empty word at q + 1 down: a word on i..q leaves i clear, or
    is a word on i + 1..q of weight w - 1 with a one added at i, which moves
    its row by v_i.  No count exceeds C(q, min(n, q // 2)), so fields of that
    size never carry.
    """
    width = -(-math.comb(q, min(n, q // 2)).bit_length() // 8) * 8
    row_bytes = p**t * width // 8
    table = bytearray((q + 1) * (n + 1) * row_bytes)
    rows = [1] + [0] * n
    for i in range(q + 1, 0, -1):
        top = min(n, q - i + 1)
        for w in range(top, 0, -1):
            rows[w] += _shift(rows[w - 1], i, t, p, width)
        for w in range(top + 1):
            start = ((i - 1) * (n + 1) + w) * row_bytes
            table[start : start + row_bytes] = rows[w].to_bytes(row_bytes, "little")
    return table, width


def class_sizes(q: int, n: int, t: int, p: int) -> dict[tuple[int, ...], int]:
    """Census of the syndrome partition: class label -> number of weight-n
    words, nonempty classes only, in label order."""
    table, width = _census(q, n, t, p)
    step, row_bytes = width // 8, p**t * width // 8
    root = table[n * row_bytes : (n + 1) * row_bytes]
    counts = (int.from_bytes(root[j : j + step], "little") for j in range(0, row_bytes, step))
    return {label: c for label, c in zip(product(range(p), repeat=t), counts) if c}


def class_size(q: int, n: int, t: int, p: int, a: Sequence[int]) -> int:
    """Number of weight-n words of length q with syndrome a."""
    if len(a) != t or not all(0 <= r < p for r in a):
        return 0
    table, width = _census(q, n, t, p)
    step = width // 8
    field = (n * p**t + _flat(a, p)) * step
    return int.from_bytes(table[field : field + step], "little")


def _residue_rows(q: int, t: int, m: int) -> list:
    """Each position's residue vector (i, i^2, ..., i^t) mod m, at index i."""
    return [None] + [tuple(pow(i, k, m) for k in range(1, t + 1)) for i in range(1, q + 1)]


def _subset_sums(rows: list, k: int, m: int) -> Iterator[Iterable[tuple[tuple[int, ...], tuple]]]:
    """Yield levels 1..k of the sets of positions 1..q (rows from
    _residue_rows): level e holds every e-set in combinations order as (its
    positions, ascending; the sum of their rows mod m), each an (e - 1)-set
    plus a later position and its row.  The last and largest level is a
    generator, so it streams to the caller instead of sitting in a list."""
    q = len(rows) - 1
    level = [((), (0,) * len(rows[-1]))]
    for e in range(1, k + 1):
        level = (
            ((*positions, j), tuple((x + y) % m for x, y in zip(sums, rows[j])))
            for positions, sums in level
            for j in range(positions[-1] + 1 if positions else 1, q + 1)
        )
        if e < k:
            level = list(level)
        yield level


def _tail_depth(q: int, n: int, size: int) -> int:
    """How many last ones the class walk places by one lookup: the largest k
    of 1, 2, 3 (k <= n) whose C(q, k) combinations, the lookup table, are no
    more than the n * size steps of the walk they replace."""
    return max(k for k in (1, 2, 3) if k == 1 or k <= n and math.comb(q, k) <= n * size)


def enumerate_class(q: int, n: int, t: int, p: int, a: Sequence[int]) -> list[int]:
    """Masks of all weight-n words of length q with syndrome a, bit i - 1 for
    position i, in encode order: lexicographic in the sorted positions.

    An explicit-stack walk over the positions of the ones that enters a branch
    only if the suffix-count table has a nonzero count for what it still has to
    place, so it visits class members only.  Each branch carries its mask;
    pushing later positions first pops earlier ones first, so no sort is
    needed.  The last k ones (_tail_depth) are looked up by their summed
    residue vector: per key, the k-combinations' first positions and OR-ed
    bits in combinations order, so the ones after the branch's last position
    are one slice of that key's lists, already in encode order.
    """
    size = class_size(q, n, t, p, a)
    check_enumerable(size, CLASS_ENUM_CAP, "class materialization")
    if size == 0:
        return []
    if n == 0:
        return [0]
    vectors = _residue_rows(q, t, p)
    depth = _tail_depth(q, n, size)
    tails: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    *_, last_level = _subset_sums(vectors, depth, p)
    for positions, key in last_level:
        firsts, bits = tails.setdefault(key, ([], []))
        firsts.append(positions[0])
        bits.append(sum(1 << i - 1 for i in positions))
    table, width = _census(q, n, t, p)
    step, stride = width // 8, p**t
    zero = bytes(step)
    masks = []
    stack = [(0, 0, n, tuple(a))]  # (mask, last position, ones left, residue left)
    while stack:
        mask, pos, w, need = stack.pop()
        if w == depth:
            firsts, bits = tails[need]  # the table counted at least one tail after pos
            masks.extend(map(mask.__or__, bits[bisect_right(firsts, pos) :]))
            continue
        for j in range(q - w + 1, pos, -1):
            rest = tuple((x - y) % p for x, y in zip(need, vectors[j]))
            # row (j + 1, w - 1): the ones left after a one at j
            field = ((j * (n + 1) + w - 1) * stride + _flat(rest, p)) * step
            if table[field : field + step] != zero:
                stack.append((mask | 1 << (j - 1), j, w - 1, rest))
    return masks


def best_class(q: int, n: int, t: int, p: int) -> tuple[tuple[int, ...], int]:
    """Largest syndrome class; ties go to the lexicographically smallest label.

    Raises BoundViolated if the largest class is below the pigeonhole bound
    ceil(C(q, n) / p^t), which a correct census always meets.
    """
    counts = class_sizes(q, n, t, p)
    label, size = min(counts.items(), key=lambda kv: (-kv[1], kv[0]), default=((0,) * t, 0))
    if size * p**t < math.comb(q, n):
        raise BoundViolated(
            f"largest of the {p}^{t} classes has {size} of C({q}, {n}) words, "
            "below the pigeonhole bound"
        )
    return label, size


def misread_lost_sets(params: VTParams) -> list[int]:
    """The sets of 1..t positions, as masks, fewest first and then in
    `combinations` order, that the lost-set table does not return under their
    own power sums, re-derived by `pow`: the only sets a member can lose and
    not decode back from, as a member's deficits after a loss are the lost
    set's power sums."""
    q, t, p = params.q, params.t, params.p
    misread = []
    for e in range(1, t + 1):
        for positions in combinations(range(1, q + 1), e):
            sums = tuple(sum(pow(i, k, p) for i in positions) % p for k in range(1, t + 1))
            if params._lost_sets.get(sums) != positions:
                misread.append(sum(1 << i - 1 for i in positions))
    return misread


def _deficits(mask: int, params: VTParams) -> list[int]:
    """Syndrome deficits a_k - sum over the set bits of i^k, mod p, for bit
    i - 1 standing for position i: all zero on a class member, and the power
    sums of the lost positions once ones are flipped to zero."""
    q, p = params.q, params.p
    if mask < 0 or mask >> q:
        raise ValueError(f"bitmask has bits outside the block length {q}")
    rows, width = params._packed_rows
    sums = 0
    while mask:  # the highest set bit stands for position mask.bit_length()
        i = mask.bit_length()
        sums += rows[i]
        mask ^= 1 << i - 1
    field = (1 << width) - 1
    return [(a - (sums >> k * width & field)) % p for k, a in enumerate(params.a)]


def is_codeword(mask: int, params: VTParams) -> bool:
    """Class membership of a bitmask: weight n and syndrome a."""
    return not any(_deficits(mask, params)) and mask.bit_count() == params.n


def set_decode(mask: int, params: VTParams) -> int:
    """Restore up to t ones of a member's mask that were flipped to zero (deleted
    elements).  The t deficits are the power sums s_1..s_t of the lost
    positions, which fix them: none when every deficit is zero, else one lookup
    in the lost-set table.  The decode holds iff that set has e = n - wt(mask)
    positions and the mask with their bits set has weight n, so misses them."""
    n, t = params.n, params.t
    deficits = _deficits(mask, params)
    weight = mask.bit_count()
    e = n - weight
    if e < 0:
        raise SetDecodeFailed(f"weight {weight} exceeds the code weight {n}")
    if e > t:
        raise SetDecodeFailed(f"weight {weight} is below n - t = {n - t}")
    lost = params._lost_sets.get(tuple(deficits)) if any(deficits) else ()
    restored = mask
    for i in lost or ():
        restored |= 1 << i - 1
    if lost is None or len(lost) != e or restored.bit_count() != n:
        raise SetDecodeFailed(f"no {e} clear positions have the deficits as power sums")
    return restored
