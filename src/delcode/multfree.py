"""Multiplicity-free codewords as (symbol set, permutation) pairs: the
decomposition bijection, code assembly from a set code and a permutation code,
the spec file that stores such a code, and the end-to-end deletion decoder.  A symbol set is held as its bitmask, bit
s set iff symbol s is present.

Deleting symbols from a multiplicity-free word removes the same elements from
its symbol set and performs stable deletions on its rank permutation, so the
two component decoders can be run one after the other and the word reassembled.
"""

import json
from collections.abc import Iterator
from functools import cached_property
from itertools import combinations

from .errors import InputTooShort, MalformedSpec, PermDecodeFailed, SetDecodeFailed
from .model import Record, Word, ball_index, check_permutation, is_subsequence, set_bits
from .permcode import PermCodeBook, sd_decode, ud_decode
from .vtcode import VTParams, class_size, enumerate_class, set_decode


def induced_set(x: Word) -> int:
    """The symbols of x as a mask, bit s for symbol s; rejects repeated symbols.
    The Word has already refused symbols outside its alphabet."""
    mask = 0
    for s in x.symbols:
        if mask >> s & 1:
            raise ValueError(f"duplicate symbol {s}")
        mask |= 1 << s
    return mask


def induced_permutation(x: Word) -> tuple[int, ...]:
    """Rank sequence of x: entry k is the rank of x_k among x's symbols (1 = smallest)."""
    return symbol_ranks(induced_set(x), x)


def psi(mask: int, sigma: tuple[int, ...], q: int) -> Word:
    """Reassemble the q-ary word whose k-th entry is the sigma_k-th smallest
    element of the mask's set; sigma must be a permutation of 1..n."""
    ordered = set_bits(mask)
    if len(ordered) != len(sigma):
        raise ValueError(f"set of size {len(ordered)} paired with a length-{len(sigma)} permutation")
    return Word(tuple(ordered[s - 1] for s in check_permutation(sigma)), q)


def symbol_ranks(mask: int, y: Word) -> tuple[int, ...]:
    """Rewrite y symbol-by-symbol as 1-based ranks inside the set.

    When the set is the decoded original and y the received word, this equals
    the stable deletion of the original word's rank permutation; when it is y's
    own symbols, the unstable deletion.  A symbol outside the set raises
    ValueError; `decode_steps` never passes one, since the set decoders return
    a superset of the survivors.
    """
    rank = {v: j for j, v in enumerate(set_bits(mask), start=1)}
    try:
        return tuple(map(rank.__getitem__, y.symbols))
    except KeyError as exc:
        raise ValueError(f"received symbol {exc.args[0]} is not in the recovered set") from None


def deletion_masks(mask: int, t: int) -> Iterator[int]:
    """Every set of at most t of the mask's set bits, as a mask, fewest first."""
    bits = [1 << i for i in set_bits(mask)]
    for e in range(min(t, len(bits)) + 1):
        yield from map(sum, combinations(bits, e))


class SetCode(Record):
    """A deletion-correcting family of n-subsets, held as bitmasks: either one
    syndrome class (decoded algebraically) or an explicit list, checked at
    construction and decoded through one index of its members' deletion balls."""

    __slots__ = ("q", "n", "t", "vt", "sets", "__dict__")

    def __init__(
        self, q: int, n: int, t: int, vt: VTParams | None = None, sets: tuple[int, ...] | None = None
    ):
        if t < 0:
            raise ValueError(f"deletion budget t={t} is negative")
        if (vt is None) == (sets is None):
            raise ValueError("exactly one of vt params or an explicit set list is required")
        if vt is not None and (vt.q, vt.n, vt.t) != (q, n, t):
            raise ValueError("vt params disagree with the set code's (q, n, t)")
        if sets is not None:
            sets = tuple(sets)
            if not sets:
                raise ValueError("explicit set code must be nonempty")
            for m in sets:
                if m < 0 or m >> q or m.bit_count() != n:
                    raise ValueError("explicit set with the wrong alphabet or cardinality")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "vt", vt)
        object.__setattr__(self, "sets", sets)
        if sets is not None and not self.balls_disjoint():
            raise ValueError("explicit sets too close to correct t deletions")

    @classmethod
    def from_vt(cls, params: VTParams) -> "SetCode":
        return cls(params.q, params.n, params.t, vt=params)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The members' masks in encode order, built once per code."""
        if self.sets is not None:
            return tuple(sorted(self.sets, key=set_bits))
        vt = self.vt  # its class comes as masks in encode order, so no sort
        return tuple(enumerate_class(vt.q, vt.n, vt.t, vt.p, vt.a))

    @cached_property
    def size(self) -> int:
        """Number of codewords, counted once per code without materializing a syndrome class."""
        if self.sets is not None:
            return len(self.sets)
        return class_size(self.q, self.n, self.t, self.vt.p, self.vt.a)

    def balls_disjoint(self) -> bool:
        """True iff no two explicit members' radius-t deletion balls meet, that
        is, every two share at most n - t - 1 elements; a repeated set fails."""
        return None not in self._ball_index.values()

    def decode_mask(self, survivors: int) -> int:
        """The member whose mask lost at most t elements to leave `survivors`."""
        if self.vt is not None:
            return set_decode(survivors, self.vt)
        if self._ball_index.get(survivors) is None:  # construction refused meeting balls
            raise SetDecodeFailed(f"no member lies within {self.t} deletions of the survivors")
        return self.masks[self._ball_index[survivors]]

    @cached_property
    def _ball_index(self) -> dict[int, int | None]:
        """Every explicit member's mask with at most t bits cleared, mapped to
        the member's position in `masks`, as one `model.ball_index`."""
        return ball_index(self.masks, lambda m: (m ^ r for r in deletion_masks(m, self.t)))


class MultFreeCodeSpec(Record):
    """A composed multiplicity-free code: set code times permutation code."""

    __slots__ = ("q", "n", "t", "mode", "set_code", "perm_code")

    def __init__(
        self,
        q: int,
        n: int,
        t: int,
        mode: str,  # "stable" or "unstable"
        set_code: SetCode,
        perm_code: PermCodeBook,
    ):
        if mode not in ("stable", "unstable"):
            raise ValueError(f"unknown mode {mode!r}")
        if (set_code.q, set_code.n, set_code.t) != (q, n, t):
            raise ValueError("set code disagrees with the spec's (q, n, t)")
        if (perm_code.n, perm_code.t) != (n, t):
            raise ValueError("permutation code disagrees with the spec's (n, t)")
        if mode == "unstable" and t != 1:
            raise ValueError("unstable mode only corrects a single deletion (t = 1)")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "set_code", set_code)
        object.__setattr__(self, "perm_code", perm_code)


def save_spec(spec: MultFreeCodeSpec, path) -> None:
    """Write the spec file, which `load_spec` reads; no other code names its keys."""
    code, book = spec.set_code, spec.perm_code
    set_code = {"q": code.q, "n": code.n, "t": code.t}
    if code.vt is not None:
        set_code.update(p=code.vt.p, a=code.vt.a)
    else:
        set_code["sets"] = [set_bits(m) for m in code.sets]
    data = {
        "q": spec.q,
        "n": spec.n,
        "t": spec.t,
        "mode": spec.mode,
        "set_code": set_code,
        "perm_code": {"n": book.n, "t": book.t, "codewords": book.codewords, "order": "lex"},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True) + "\n")


# each object of a spec file: its keys in the order they are read, each with the
# one type its value has, compared exactly, so neither true nor 12.0 is an integer
_SPEC_KEYS = {"q": int, "n": int, "t": int, "mode": str, "set_code": dict, "perm_code": dict}
_CLASS_KEYS = {"q": int, "n": int, "t": int, "p": int, "a": list}
_EXPLICIT_KEYS = {"q": int, "n": int, "t": int, "sets": list}
_BOOK_KEYS = {"order": str, "n": int, "t": int, "codewords": list}
_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def load_spec(path) -> MultFreeCodeSpec:
    """Read a spec file that `save_spec` wrote."""

    def refuse(text, holds):
        raise MalformedSpec(f"{path}: {text} where the spec holds {holds}")

    def typed(value, name, kind):
        if type(value) is not kind:
            refuse(f"{name} holds {json.dumps(value)[:80]}", _KINDS[kind])
        return value

    def listed(part, key):
        value = typed(part[key], repr(key), list)
        flat = key == "a"  # the residues are integers, each set or codeword a list of them
        for element in value:
            if not (type(element) is int if flat else type(element) is list and all(type(v) is int for v in element)):
                holds = "an integer" if flat else "a list of integers"
                refuse(f"{key!r} holds the element {json.dumps(element)[:80]}", holds)
        return value

    def fields(part, name, keys):
        """The values at keys, in order, of an object that holds no other key."""
        for key in typed(part, name, dict):
            if key not in keys:
                raise MalformedSpec(f"{path}: {name} holds the unknown key {key!r}")
        return [listed(part, key) if kind is list else typed(part[key], repr(key), kind) for key, kind in keys.items()]

    with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8, whatever the locale
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise MalformedSpec(f"{path}: nested too deeply") from exc
        except ValueError as exc:  # not JSON, such as an empty or cut file, or not UTF-8
            raise MalformedSpec(f"{path}: {type(exc).__name__}: {exc}") from exc
    try:
        # each object is read whole, and each record built, and so checked, before
        # the next object is read, so a file with several faults reports the first
        q, n, t, mode, code, book = fields(data, "the file", _SPEC_KEYS)
        if code.keys() <= {"q", "n", "t"}:  # no key that tells the form, and no unknown one to name
            forms = "an explicit code's 'sets' nor a syndrome class's 'p' and 'a'"
            raise MalformedSpec(f"{path}: set_code holds neither {forms}")
        if "sets" in code:
            *qnt, sets = fields(code, "set_code", _EXPLICIT_KEYS)
            set_code = SetCode(*qnt, sets=tuple(induced_set(Word(s, qnt[0])) for s in sets))
        else:
            set_code = SetCode.from_vt(VTParams(*fields(code, "set_code", _CLASS_KEYS)))
        book.setdefault("order", "lex")  # the one order a book is held in, so it may be left out
        order, *book_args = fields(book, "perm_code", _BOOK_KEYS)
        if order != "lex":
            raise ValueError(f"unknown codeword order {order!r}")
        return MultFreeCodeSpec(q, n, t, mode, set_code, PermCodeBook(*book_args))
    except KeyError as exc:  # a key that the object's form holds is missing
        raise MalformedSpec(f"{path}: KeyError: {exc}") from exc


def code_size(spec: MultFreeCodeSpec) -> int:
    return spec.set_code.size * len(spec.perm_code.codewords)


def build_code(spec: MultFreeCodeSpec) -> Iterator[Word]:
    """Yield every codeword, outer loop over sets and inner loop over
    permutations, both in lexicographic order."""
    perms = spec.perm_code.codewords
    for mask in spec.set_code.masks:
        for sigma in perms:
            yield psi(mask, sigma, spec.q)


def encode_index(spec: MultFreeCodeSpec, index: int) -> Word:
    """Enumeration-order indexing: index = set_index * |perm code| + perm_index."""
    total = code_size(spec)
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside [0, {total})")
    perms = spec.perm_code.codewords
    i_set, i_perm = divmod(index, len(perms))
    return psi(spec.set_code.masks[i_set], perms[i_perm], spec.q)


def decode_steps(spec: MultFreeCodeSpec, y: Word) -> tuple[int, tuple[int, ...], tuple[int, ...], Word]:
    """Recover a codeword from at most t deletions, with each stage's value:
    the recovered set's mask, the ranks the permutation decoder reads, the
    permutation it returns, and the codeword.

    Stable mode ranks the received word within the recovered set, which is the
    stable deletion of the original rank permutation; unstable mode ranks it
    within its own symbols, the unstable deletion, and refuses a codeword that
    does not contain the received word.
    """
    if len(y) > spec.n:
        raise ValueError(f"received length {len(y)} exceeds the code length {spec.n}")
    if len(y) < spec.n - spec.t:
        raise InputTooShort(f"received length {len(y)} is below n - t = {spec.n - spec.t}")
    if y.alphabet_size != spec.q:
        raise ValueError(f"alphabet size {y.alphabet_size} differs from q = {spec.q}")
    stable = spec.mode == "stable"
    survivors = induced_set(y)
    recovered = spec.set_code.decode_mask(survivors)
    ranks = symbol_ranks(recovered if stable else survivors, y)
    sigma = (sd_decode if stable else ud_decode)(spec.perm_code, ranks)
    codeword = psi(recovered, sigma, spec.q)
    # ud_decode matches ranks only: past the budget, or with a substituted symbol,
    # the codeword it leads to can hold the received symbols in another order
    if not stable and not is_subsequence(y.symbols, codeword.symbols):
        raise PermDecodeFailed("the decoded codeword does not contain the received word")
    return recovered, ranks, sigma, codeword


def decode(spec: MultFreeCodeSpec, y: Word) -> Word:
    """Recover the unique codeword that y was obtained from by at most t deletions."""
    return decode_steps(spec, y)[-1]
