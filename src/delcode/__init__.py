"""Multiplicity-free q-ary codes correcting multiple deletions, built by pairing
a constant-weight set code with a deletion-correcting permutation code."""

from .analysis import (
    BoundReport,
    SimulationReport,
    redundancy,
    redundancy_bound,
    simulate,
    singleton_report,
    size_lower_bound,
)
from .errors import (
    Ambiguous,
    BoundViolated,
    DecodeError,
    DelcodeError,
    InputTooShort,
    MalformedSpec,
    NoSolution,
    NotFound,
    PermDecodeFailed,
    ScaleGuardExceeded,
    SetDecodeFailed,
    SymbolNotInSet,
    WeightTooLow,
)
from .model import (
    DeletionPattern,
    Permutation,
    Word,
    apply_unstable_deletions,
    delete_positions,
    draw_deletion_pattern,
)
from .modular import Modulus, locator_roots, next_prime_above, power_sums_to_elementary
from .multfree import (
    DecodeSteps,
    MultFreeCodeSpec,
    SetCode,
    build_code,
    code_size,
    decode,
    decode_steps,
    encode_index,
    induced_permutation,
    induced_set,
    load_spec,
    psi,
    save_spec,
    symbol_ranks,
)
from .permcode import (
    PermCodeBook,
    greedy_sd_code,
    greedy_ud_code,
    reference_size_bound,
    sd_decode,
    ud_decode,
    verify_sd_property,
    verify_ud_property,
)
from .vtcode import (
    VTParams,
    best_class,
    class_size,
    class_sizes,
    enumerate_class,
    is_codeword,
    set_decode,
)

__version__ = "0.1.0"
