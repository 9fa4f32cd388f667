"""Reference set-layer decoder on length-q bitwords, for the tests only.

The shipped decoder works on bitmasks (`delcode.vtcode.set_decode`).  This
module keeps the slow, definitional form of the same algorithm: a word is a
tuple of q bits, position i holding bit i - 1 of the mask, and the syndrome is
computed over the whole word.  The tests hold the mask path to it, in result
and in error.
"""

from typing import Sequence

from delcode.errors import NoSolution, WeightTooLow
from delcode.modular import Modulus, locator_roots, power_sums_to_elementary
from delcode.vtcode import VTParams

BitWord = tuple[int, ...]


def vt_syndrome(x: Sequence[int], t: int, p: Modulus) -> tuple[int, ...]:
    """Residue k is sum_i i^k x_i mod p, with 1-based positions."""
    if len(x) >= p.p:
        raise ValueError(f"modulus {p.p} must exceed the word length {len(x)}")
    # powers computed here, not read from the decoder's tables
    ones = [i for i, bit in enumerate(x, start=1) if bit]
    return tuple(sum(pow(i, k, p.p) for i in ones) % p.p for k in range(1, t + 1))


def is_codeword(x: Sequence[int], params: VTParams) -> bool:
    if len(x) != params.q:
        raise ValueError(f"word length {len(x)} differs from block length {params.q}")
    return sum(x) == params.n and vt_syndrome(x, params.t, params.p) == params.a


def decode_asymmetric(y: Sequence[int], params: VTParams) -> BitWord:
    """Restore up to t ones that were flipped to zero.

    The first e = n - wt(y) syndrome deficits are exactly the power sums of the
    lost positions.  Newton's identities convert them into elementary symmetric
    functions, and the locator polynomial built from those vanishes precisely at
    the lost positions, which are searched among the zero positions of y.  Any
    remaining syndrome rows act as a consistency check through the final
    membership test.
    """
    if len(y) != params.q:
        raise ValueError(f"word length {len(y)} differs from block length {params.q}")
    weight = sum(y)
    e = params.n - weight
    if e < 0:
        raise NoSolution(f"weight {weight} exceeds the code weight {params.n}")
    if e > params.t:
        raise WeightTooLow(f"weight {weight} is below n - t = {params.n - params.t}")
    if e == 0:
        if not is_codeword(y, params):
            raise NoSolution("full-weight word is not in the code")
        return tuple(y)

    p = params.p.p
    observed = vt_syndrome(y, params.t, params.p)
    deficits = [(a_k - s_k) % p for a_k, s_k in zip(params.a, observed)]
    elementary = power_sums_to_elementary(deficits[:e], params.p)
    candidates = [i for i, bit in enumerate(y, start=1) if not bit]
    roots = locator_roots(elementary, candidates, params.p)
    if len(roots) != e:
        raise NoSolution(f"locator polynomial has {len(roots)} roots among zeros, expected {e}")
    repaired = list(y)
    for i in roots:
        repaired[i - 1] = 1
    repaired_word = tuple(repaired)
    if not is_codeword(repaired_word, params):
        raise NoSolution("repaired word fails the full syndrome check")
    return repaired_word


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def subset_to_bitword(mask: int, q: int) -> BitWord:
    """The length-q bitword of a symbol set's mask: symbol s becomes a one at
    1-based position s + 1."""
    # the q binary digits of the mask, low bit first
    return tuple(format(mask, f"0{q}b")[:-q - 1:-1].encode().translate(_BIT_VALUES))
