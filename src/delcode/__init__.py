"""Multiplicity-free q-ary codes correcting multiple deletions, built by pairing
a constant-weight set code with a deletion-correcting permutation code.

The names below are loaded on first use (PEP 562), so importing one submodule,
as every CLI command does, does not import the others."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "SimulationReport",
        "redundancy",
        "redundancy_bound",
        "simulate",
        "singleton_report",
        "size_lower_bound",
    ),
    "errors": (
        "BoundViolated",
        "DecodeError",
        "DelcodeError",
        "InputTooShort",
        "MalformedSpec",
        "PermDecodeFailed",
        "ScaleGuardExceeded",
        "SetDecodeFailed",
    ),
    "model": (
        "Word",
        "apply_unstable_deletions",
        "delete_positions",
        "draw_deletion_pattern",
    ),
    "modular": ("next_prime_above",),
    "multfree": (
        "MultFreeCodeSpec",
        "SetCode",
        "build_code",
        "code_size",
        "decode",
        "decode_steps",
        "encode_index",
        "induced_permutation",
        "induced_set",
        "load_spec",
        "psi",
        "save_spec",
        "symbol_ranks",
    ),
    "permcode": (
        "PermCodeBook",
        "greedy_sd_code",
        "greedy_ud_code",
        "reference_size_bound",
        "sd_decode",
        "ud_decode",
        "verify_sd_property",
        "verify_ud_property",
    ),
    "vtcode": (
        "VTParams",
        "best_class",
        "class_size",
        "class_sizes",
        "enumerate_class",
        "is_codeword",
        "set_decode",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "guards"}  # the ones a bare `import delcode` used to load

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
