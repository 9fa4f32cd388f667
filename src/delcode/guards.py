"""Desk-scale enumeration caps, overridable through the environment."""

import os
from contextlib import suppress

from .errors import ScaleGuardExceeded

ENV_VAR = "DELCODE_SCALE_GUARD"

# three set-layer counts, each checked alone: syndrome-class DP states q*(n+1)*p^t,
# the words of one materialized class, and the set decoder's lost-set keys
# sum of C(q, e) for e = 1..t
CLASS_ENUM_CAP = 10**7
PERM_ENUM_CAP = 40320  # full scan of S_n, default n <= 8


def scale_cap(default: int) -> int:
    """The cap that DELCODE_SCALE_GUARD sets, or `default` when it is unset or empty."""
    raw = os.environ.get(ENV_VAR)
    if raw and not (raw.isascii() and raw.isdigit() and int(raw)):
        raise ValueError(f"{ENV_VAR} must be a positive decimal integer, got {raw!r}")
    return int(raw) if raw else default


def check_enumerable(size: int, default_cap: int, what: str, exact: bool = True) -> None:
    """Refuse `what` if its count `size` is above the cap.  A count that stopped
    early (`exact` false) or that Python cannot print reads "more than" the cap."""
    cap = scale_cap(default_cap)
    if size > cap:
        count = f"more than {cap}"
        with suppress(ValueError):  # a count longer than Python turns into text
            count = str(size) if exact else count
        raise ScaleGuardExceeded(
            f"{what} would visit {count} items, above the cap of {cap} (set {ENV_VAR} to raise it)"
        )
