"""Reference deletion semantics for the tests: stable deletion of a permutation,
and the stable decoder as a subsequence scan of every codeword.

The decoder never forms this word: it rewrites the received symbols as ranks
inside the recovered set (`delcode.multfree.symbol_ranks`).  The tests hold that
rewrite, the greedy stable books and the stable decoder to this definition, and
the shipped ball-index lookup (`delcode.permcode.sd_decode`) to the scan.
"""

from delcode.errors import Ambiguous, NotFound
from delcode.model import DeletionPattern, Permutation, Word, _check_positions
from delcode.permcode import PermCodeBook


def apply_stable_deletions(sigma: Permutation, pattern: DeletionPattern) -> Word:
    """Drop positions; survivors keep their values, so the result is no longer a permutation."""
    _check_positions(pattern, len(sigma))
    drop = set(pattern.positions)
    kept = tuple(v for k, v in enumerate(sigma.images, start=1) if k not in drop)
    return Word(kept, len(sigma) + 1, multiplicity_free=True)


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
