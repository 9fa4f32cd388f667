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


class NoSolution(DecodeError):
    """Syndrome decoding found no consistent codeword: more errors than budgeted, or corrupt input."""


class WeightTooLow(DecodeError):
    """Received weight is below n - t, i.e. more than t ones were lost."""


class NotFound(DecodeError):
    """No codeword's deletion ball contains the received word."""


class Ambiguous(DecodeError):
    """More than one codeword ball contains the received word; the codebook is corrupt."""


class SetDecodeFailed(DecodeError):
    """The set-code component could not recover the original symbol set."""


class PermDecodeFailed(DecodeError):
    """The permutation-code component could not recover the original permutation."""


class SymbolNotInSet(DecodeError):
    """A received symbol is missing from the recovered set: non-deletion corruption."""


class InputTooShort(DecodeError):
    """The received word lost more than t symbols."""
