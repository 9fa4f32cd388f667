"""Exception types shared across the package."""


class DelcodeError(Exception):
    """Base class for library-specific failures."""


class ScaleGuardExceeded(DelcodeError):
    """An enumeration would exceed the desk-scale cap (override with DELCODE_SCALE_GUARD)."""


class BoundViolated(DelcodeError):
    """A guarantee the construction rests on (the pigeonhole class size, Bertrand's
    postulate) did not hold, so a computation it checks went wrong."""


class MalformedSpec(DelcodeError):
    """A spec file lacks a required key or has a value of the wrong shape."""


class DecodeError(DelcodeError):
    """Base class for decoder failures; channel harnesses catch this."""


class SetDecodeFailed(DecodeError):
    """The set-code component could not recover the original symbol set: the
    survivors' weight is above n or below n - t, or no member of the set code
    lies within t deletions of them (more deletions than budgeted, or input
    corrupted by something other than deletions)."""


class PermDecodeFailed(DecodeError):
    """The permutation-code component could not recover the original
    permutation: the received word is too short, no codeword's deletion ball
    contains it, or two hold its first n - t symbols (a corrupt codebook); or, in
    unstable mode, the codeword reached does not contain the received word."""


class InputTooShort(DecodeError):
    """The received word lost more than t symbols."""
