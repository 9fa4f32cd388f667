"""Prime moduli: a primality test and the smallest prime above q."""

from .errors import BoundViolated

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(q: int) -> int:
    """Smallest prime p > q; Bertrand's postulate guarantees p <= 2q."""
    if q < 2:
        raise ValueError("q must be at least 2")
    p = q + 1
    while not is_prime(p):
        p += 1
    if p > 2 * q:
        raise BoundViolated(f"first prime found above {q} is {p}, beyond Bertrand's bound 2q")
    return p
