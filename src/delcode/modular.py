"""Prime moduli and the power-sum machinery that turns syndrome deficits into
error locations."""

from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class Modulus:
    """A prime modulus, verified at construction."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


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


@dataclass(frozen=True)
class ModPolynomial:
    """Polynomial with residue coefficients, highest degree first, in canonical form."""

    coefficients: tuple[int, ...]
    modulus: Modulus

    def __post_init__(self):
        p = self.modulus.p
        coeffs = tuple(c % p for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs = coeffs[1:]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = (acc * x + c) % self.modulus.p
        return acc


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


def locator_polynomial(elementary: Sequence[int], m: Modulus) -> ModPolynomial:
    """X^e - e_1 X^(e-1) + e_2 X^(e-2) - ..., whose roots are the error locations."""
    coeffs = [1]
    for k, e_k in enumerate(elementary, start=1):
        coeffs.append(-e_k if k % 2 == 1 else e_k)
    return ModPolynomial(tuple(coeffs), m)


def locator_roots(elementary: Sequence[int], candidates: Iterable[int], m: Modulus) -> set[int]:
    """Candidates where the locator polynomial vanishes, by Horner evaluation per candidate."""
    poly = locator_polynomial(elementary, m)
    return {c for c in candidates if poly.evaluate(c) == 0}
