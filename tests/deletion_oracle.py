"""Reference deletion semantics for the tests: stable deletion of a permutation,
the stable decoder as a subsequence scan of every codeword, and `verify`'s
set-layer checks as one decode of every deletion of every member.

The decoder never forms this word: it rewrites the received symbols as ranks
inside the recovered set (`delcode.multfree.symbol_ranks`).  The tests hold that
rewrite, the greedy stable books and the stable decoder to this definition's
symbols, and the shipped ball-index lookup (`delcode.permcode.sd_decode`) to the
scan; both decoders read a tuple of ranks.
`verify` certifies set decoding from the decoder's lost-set table instead of decoding;
the tests hold its verdict and witness to `set_deletion_checks`.
"""

from itertools import islice

from delcode.errors import DecodeError, PermDecodeFailed
from delcode.model import Word, _kept, set_bits
from delcode.multfree import SetCode, deletion_masks
from delcode.permcode import PermCodeBook
from delcode.vtcode import is_codeword


def apply_stable_deletions(sigma: tuple[int, ...], positions: tuple[int, ...]) -> Word:
    """Drop positions of the permutation sigma; survivors keep their values, so the
    result is no longer a permutation."""
    return Word(_kept(sigma, positions), len(sigma) + 1, multiplicity_free=True)


def _is_subsequence(short: tuple[int, ...], long: tuple[int, ...]) -> bool:
    it = iter(long)
    return all(s in it for s in short)


def sd_decode(book: PermCodeBook, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """The unique codeword whose radius-t stable-deletion ball contains the
    received ranks; ball membership is a subsequence test."""
    if len(ranks) < book.n - book.t:
        raise PermDecodeFailed(f"received length {len(ranks)} is below n - t = {book.n - book.t}")
    hits = [s for s in book.codewords if _is_subsequence(ranks, s)]
    if not hits:
        raise PermDecodeFailed("no codeword ball contains the received word")
    if len(hits) > 1:
        raise PermDecodeFailed("multiple codeword balls contain the received word")
    return hits[0]


def set_deletion_checks(code: SetCode) -> tuple[dict, dict | None]:
    """`verify`'s set-layer checks as its loop made them before the certificate:
    its `class_membership` (syndrome classes only) and `set_deletion_soundness`
    entries, and its `set_deletion_witness` or None."""
    vt, t = code.vt, code.t
    # one pass over the members' masks: class membership, then every deletion of at most t elements
    # (a nonempty one, once is_codeword accepted the member) until one does not decode back to it
    member, witness = True, None
    for mask in code.masks:
        member = member and (vt is None or is_codeword(mask, vt))
        for removed in () if witness else islice(deletion_masks(mask, t), vt is not None and member, None):
            try:
                got = code.decode_mask(mask ^ removed)
                outcome = None if got == mask else {"decoded": set_bits(got)}
            except DecodeError as exc:
                outcome = {"error": type(exc).__name__}
            if outcome:
                witness = {"member": set_bits(mask), "removed": set_bits(removed), **outcome}
                break
    checks = {"set_deletion_soundness": witness is None}
    if vt is not None:
        checks["class_membership"] = member
    return checks, witness
