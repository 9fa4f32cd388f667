"""Reference deletion semantics for the tests: stable deletion of a permutation.

The decoder never forms this word: it rewrites the received symbols as ranks
inside the recovered set (`delcode.multfree.symbol_ranks`).  The tests hold that
rewrite, the greedy stable books and the stable decoder to this definition.
"""

from delcode.model import DeletionPattern, Permutation, Word, _check_positions


def apply_stable_deletions(sigma: Permutation, pattern: DeletionPattern) -> Word:
    """Drop positions; survivors keep their values, so the result is no longer a permutation."""
    _check_positions(pattern, len(sigma))
    drop = set(pattern.positions)
    kept = tuple(v for k, v in enumerate(sigma.images, start=1) if k not in drop)
    return Word(kept, len(sigma) + 1, multiplicity_free=True)
