"""Reference set-layer decoder on length-q bitwords, for the tests only.

The shipped decoder works on bitmasks (`delcode.vtcode.set_decode`) and finds
the lost positions by one lookup of their power sums.  This module keeps the
slow, definitional form: a word is a tuple of q bits, position i holding bit
i - 1 of the mask, the syndrome is computed over the whole word, and the lost
positions are found by Newton's identities and a locator-root search.  The
tests hold the mask path to it, in result and in error.
"""

from typing import Iterable, Sequence

from delcode.errors import SetDecodeFailed
from delcode.vtcode import VTParams

BitWord = tuple[int, ...]


def power_sums_to_elementary(power_sums: Sequence[int], p: int) -> tuple[int, ...]:
    """Invert Newton's identities over F_p: k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i."""
    e = len(power_sums)
    if e >= p:
        raise ValueError(f"need fewer than p = {p} power sums to divide by 1..{e}")
    sums = [v % p for v in power_sums]
    elem = [1]
    for k in range(1, e + 1):
        acc = 0
        for i in range(1, k + 1):
            term = elem[k - i] * sums[i - 1] % p
            acc = (acc - term if i % 2 == 0 else acc + term) % p
        elem.append(acc * pow(k, -1, p) % p)
    return tuple(elem[1:])


def locator_roots(elementary: Sequence[int], candidates: Iterable[int], p: int) -> set[int]:
    """Candidates where the locator X^e - e_1 X^(e-1) + e_2 X^(e-2) - ... vanishes,
    by Horner evaluation per candidate; its roots are the error locations."""
    coeffs = [-c if k % 2 else c for k, c in enumerate(elementary, start=1)]
    roots = set()
    for x in candidates:
        acc = 1
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.add(x)
    return roots


def vt_syndrome(x: Sequence[int], t: int, p: int) -> tuple[int, ...]:
    """Residue k is sum_i i^k x_i mod p, with 1-based positions."""
    if len(x) >= p:
        raise ValueError(f"modulus {p} must exceed the word length {len(x)}")
    # powers computed here, not read from the decoder's tables
    ones = [i for i, bit in enumerate(x, start=1) if bit]
    return tuple(sum(pow(i, k, p) for i in ones) % p for k in range(1, t + 1))


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
        raise SetDecodeFailed(f"weight {weight} exceeds the code weight {params.n}")
    if e > params.t:
        raise SetDecodeFailed(f"weight {weight} is below n - t = {params.n - params.t}")
    failure = f"no {e} clear positions have the deficits as power sums"
    if e == 0:
        if not is_codeword(y, params):
            raise SetDecodeFailed(failure)
        return tuple(y)

    p = params.p
    observed = vt_syndrome(y, params.t, p)
    deficits = [(a_k - s_k) % p for a_k, s_k in zip(params.a, observed)]
    elementary = power_sums_to_elementary(deficits[:e], p)
    candidates = [i for i, bit in enumerate(y, start=1) if not bit]
    roots = locator_roots(elementary, candidates, p)
    if len(roots) != e:
        raise SetDecodeFailed(failure)
    repaired = list(y)
    for i in roots:
        repaired[i - 1] = 1
    repaired_word = tuple(repaired)
    if not is_codeword(repaired_word, params):
        raise SetDecodeFailed(failure)
    return repaired_word


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def subset_to_bitword(mask: int, q: int) -> BitWord:
    """The length-q bitword of a symbol set's mask: symbol s becomes a one at
    1-based position s + 1."""
    # the q binary digits of the mask, low bit first
    return tuple(format(mask, f"0{q}b")[:-q - 1:-1].encode().translate(_BIT_VALUES))
