"""Prime moduli and the power-sum machinery that turns syndrome deficits into
error locations."""

from collections.abc import Iterable, Sequence

from .errors import BoundViolated
from .model import Record

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


class Modulus(Record):
    """A prime modulus, verified at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)


def next_prime_above(q: int) -> Modulus:
    """Smallest prime p > q; Bertrand's postulate guarantees p <= 2q."""
    if q < 2:
        raise ValueError("q must be at least 2")
    p = q + 1
    while not is_prime(p):
        p += 1
    if p > 2 * q:
        raise BoundViolated(f"first prime found above {q} is {p}, beyond Bertrand's bound 2q")
    return Modulus(p)


def power_sums_to_elementary(power_sums: Sequence[int], m: Modulus) -> tuple[int, ...]:
    """Invert Newton's identities over F_p: k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i."""
    p = m.p
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


def locator_roots(elementary: Sequence[int], candidates: Iterable[int], m: Modulus) -> set[int]:
    """Candidates where the locator X^e - e_1 X^(e-1) + e_2 X^(e-2) - ... vanishes,
    by Horner evaluation per candidate; its roots are the error locations."""
    p = m.p
    coeffs = [-c if k % 2 else c for k, c in enumerate(elementary, start=1)]
    roots = set()
    for x in candidates:
        acc = 1
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.add(x)
    return roots
