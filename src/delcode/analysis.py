"""Size and redundancy reports, Singleton-gap accounting, and the seeded
Monte-Carlo deletion-channel harness.

All logarithms are base 2, so every number below is in bits.
"""

import math
import random
from fractions import Fraction

from .errors import BoundViolated, DecodeError
from .model import Record, delete_positions, draw_deletion_pattern
from .multfree import MultFreeCodeSpec, code_size, decode, encode_index
from .permcode import reference_size_bound

_LOG_AGREEMENT = 1e-10  # direct vs log-space evaluation must match this closely


def _log2(x) -> float:
    """log2 that stays finite for big integers and Fractions."""
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def size_lower_bound(q: int, n: int, t: int) -> tuple[Fraction, float]:
    """Guaranteed composed-code size n!/(2n)^(3t-1) * C(q,n)/(2q)^t.

    Returns the exact rational value and its log2.  The log2 is evaluated twice,
    directly and as a log-space sum over the falling factorial, and the two
    readings must agree to ten decimal places.
    """
    if not 1 <= n <= q:
        raise ValueError(f"need 1 <= n <= q, got n={n}, q={q}")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    exact = reference_size_bound(n, t) * Fraction(math.comb(q, n), (2 * q) ** t)
    direct = _log2(exact)
    # fsum, as a plain sum of n terms drifts past the bound at n in the thousands
    log_space = math.fsum(
        [math.log2(q - i) for i in range(n)]
        + [-(3 * t - 1) * math.log2(2 * n), -t * math.log2(2 * q)]
    )
    if abs(direct - log_space) > _LOG_AGREEMENT:
        raise BoundViolated(f"log-space evaluation drifted: {direct} vs {log_space}")
    return exact, direct


def redundancy(q: int, n: int, code_size) -> float:
    """Bits given up against the full q-ary space: n*log2(q) - log2(|code|)."""
    if code_size <= 0:
        raise ValueError("code size must be positive")
    return n * math.log2(q) - _log2(code_size)


def redundancy_bound(q: int, n: int, t: int) -> float:
    """Guaranteed redundancy t*log2(q) + (3t-1)*log2(n) + (4t-1)."""
    if q <= n:
        raise ValueError(f"need q > n, got q={q}, n={n}")
    return t * math.log2(q) + (3 * t - 1) * math.log2(n) + (4 * t - 1)


def _float(x) -> float:
    """x as a float, or inf when it is too large for one."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def singleton_report(q: int, n: int, t: int, code_size=None) -> dict:
    """The report `bounds` prints: guaranteed size, redundancy bound, and, for a
    supplied code size, its Singleton-gap eta and the alpha threshold that
    closes the gap.  Without a size the last six keys are None; so is every
    value that is not a finite float, which JSON cannot hold."""
    exact, log2_bound = size_lower_bound(q, n, t)
    log_q = math.log2(q)
    report = {
        "q": q,
        "n": n,
        "t": t,
        "size_lower_bound": _float(exact),
        "log2_size_lower_bound": log2_bound,
        "redundancy_bound": redundancy_bound(q, n, t),
        "singleton_log_size": (n - t) * log_q,
        "log2_multfree_count": sum(math.log2(q - i) for i in range(n)),  # exact log2 q!/(q-n)!
        "alpha": log_q / math.log2(n) if n > 1 else math.inf,
        "code_size": None,
        "log2_code_size": None,
        "redundancy_actual": None,
        "eta": None,
        "alpha_threshold": None,
        "alpha_exceeds_threshold": None,
    }
    if code_size is not None:
        words = math.perm(q, n)
        if not 0 < code_size <= words:
            raise ValueError(
                f"code size {code_size} must be positive and at most q!/(q-n)! = {words}, "
                "the number of multiplicity-free words"
            )
        log2_size = _log2(code_size)
        eta = n - t - log2_size / log_q  # the Singleton gap
        threshold = (3 * t - 1) / eta if eta != 0 else math.inf  # alpha above it closes the gap
        report.update(
            code_size=_float(code_size),
            log2_code_size=log2_size,
            redundancy_actual=redundancy(q, n, code_size),
            eta=eta,
            alpha_threshold=threshold,
            alpha_exceeds_threshold=bool(report["alpha"] > threshold),
        )
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in report.items()}


class SimulationReport(Record):
    """Tally of one Monte-Carlo channel run, broken down by deletion count."""

    __slots__ = ("trials", "t_max", "seed", "successes", "failures", "by_weight")

    def __init__(self, trials: int, t_max: int, seed: int, successes: int, failures: int, by_weight: dict):
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "successes", successes)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "by_weight", by_weight)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "t_max": self.t_max,
            "seed": self.seed,
            "successes": self.successes,
            "failures": self.failures,
            "by_weight": {str(w): dict(c) for w, c in sorted(self.by_weight.items())},
        }


def simulate(spec: MultFreeCodeSpec, trials: int, t_max: int, seed: int) -> SimulationReport:
    """Replay codewords through the seeded deletion channel and tally recovery.

    Each trial draws a uniform codeword and a deletion pattern whose size is
    uniform in {0..t_max}, decodes, and records success per deletion count.
    One generator seeded from `seed` drives every trial, so a seed fixes the tally.
    """
    if trials < 0:
        raise ValueError("need trials >= 0")
    if not 0 <= t_max <= spec.n:
        raise ValueError(f"t_max {t_max} outside [0, {spec.n}]")
    total = code_size(spec)
    if total == 0:
        raise ValueError("the spec describes an empty code")

    by_weight = {w: {"trials": 0, "successes": 0, "failures": 0} for w in range(t_max + 1)}
    rng = random.Random(seed * 1_000_003)
    for _ in range(trials):
        x = encode_index(spec, rng.randrange(total))
        pattern = draw_deletion_pattern(rng, spec.n, t_max)
        y = delete_positions(x, pattern)
        try:
            ok = decode(spec, y) == x
        except DecodeError:
            ok = False
        slot = by_weight[len(pattern)]
        slot["trials"] += 1
        slot["successes" if ok else "failures"] += 1
    successes = sum(slot["successes"] for slot in by_weight.values())
    failures = sum(slot["failures"] for slot in by_weight.values())
    return SimulationReport(trials, t_max, seed, successes, failures, by_weight)
