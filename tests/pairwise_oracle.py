"""Reference check for explicit set codes, for the tests only.

The shipped check (`delcode.multfree.SetCode.balls_disjoint`) looks for a key
that two members share in one deletion-ball index.  This module keeps the
quadratic, definitional form: every two sets compared directly.  The tests
hold the ball-index check to it.
"""

from itertools import combinations


def pairwise_intersection_bound(masks: tuple[int, ...], n: int, t: int) -> bool:
    """True iff every two of the sets (as masks) share at most n - t - 1
    elements: sharing an (n - t)-subset would make some deletion of t elements
    ambiguous."""
    return all((a & b).bit_count() <= n - t - 1 for a, b in combinations(masks, 2))
