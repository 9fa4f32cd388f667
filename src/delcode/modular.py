"""Prime moduli: a primality test and the smallest prime above q."""

import math
from itertools import count

from .errors import BoundViolated


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n), exact for every n.
    It costs sqrt(n) / 2 steps, so callers pass only moduli the guards bound."""
    if n % 2 == 0 or n < 3:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def next_prime_above(q: int) -> int:
    """Smallest prime p > q; Bertrand's postulate guarantees p <= 2q.  No guard
    bounds q here, and each candidate costs sqrt(q) / 2 divisions."""
    if q < 2:
        raise ValueError("q must be at least 2")
    p = next(filter(is_prime, count(q + 1)))
    if p > 2 * q:
        raise BoundViolated(f"first prime found above {q} is {p}, beyond Bertrand's bound 2q")
    return p
