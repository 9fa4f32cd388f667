"""Desk-scale enumeration caps, overridable through the environment."""

import os

from .errors import ScaleGuardExceeded

ENV_VAR = "DELCODE_SCALE_GUARD"

# three set-layer counts, each checked alone: syndrome-class DP states q*(n+1)*p^t,
# the words of one materialized class, and the set decoder's lost-set keys
# sum of C(q, e) for e = 1..t
CLASS_ENUM_CAP = 10**7
PERM_ENUM_CAP = 40320  # full scan of S_n, default n <= 8


def scale_cap(default: int) -> int:
    raw = os.environ.get(ENV_VAR)
    return int(raw) if raw else default


def check_enumerable(size: int, default_cap: int, what: str) -> None:
    cap = scale_cap(default_cap)
    if size > cap:
        raise ScaleGuardExceeded(
            f"{what} would visit {size} items, above the cap of {cap} "
            f"(set {ENV_VAR} to raise it)"
        )
