"""Command-line surface: construct, enumerate, decode, simulate, bounds, verify.

Every subcommand prints JSON to stdout.  Exit code 0 means every asserted
guarantee held; decode failures, guard violations and failed verifications
exit nonzero.  A usage error (an unknown or missing option) is argparse's: usage
text on stderr, nothing on stdout, exit 2.
"""

import argparse
import json
import sys
from itertools import islice

from .errors import DecodeError, DelcodeError
from .guards import CLASS_ENUM_CAP, check_enumerable, scale_cap
from .model import Word, set_bits
from .modular import next_prime_above
from .multfree import (
    MultFreeCodeSpec,
    SetCode,
    build_code,
    code_size,
    decode_steps,
    load_spec,
    save_spec,
)
from .permcode import (
    ball_collision,
    check_radius,
    greedy_sd_code,
    greedy_ud_code,
    verify_sd_property,
    verify_ud_property,
)
from .vtcode import VTParams, best_class, is_codeword, misread_lost_sets


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, allow_nan=False))


def _cmd_construct(args) -> int:
    if args.n >= 0:  # refuse t > n before the census, which can run long; it refuses n < 0 at once
        check_radius(args.n, args.t)
        if args.q > 1:
            # the census's q (n + 1) p^t states, refused at q + 1 < p before the prime search;
            # past the cap's bit length in t, (q + 1)^t alone is above the cap
            bits = scale_cap(CLASS_ENUM_CAP).bit_length()
            states = args.q * (args.n + 1) * (args.q + 1) ** min(args.t, bits)
            check_enumerable(states, CLASS_ENUM_CAP, "syndrome-class DP")
    p = next_prime_above(args.q)
    a, class_size = best_class(args.q, args.n, args.t, p)
    params = VTParams(args.q, args.n, args.t, p, a)
    greedy = greedy_sd_code if args.mode == "stable" else greedy_ud_code
    book = greedy(args.n, args.t)
    spec = MultFreeCodeSpec(args.q, args.n, args.t, args.mode, SetCode.from_vt(params), book)
    save_spec(spec, args.out)
    _emit(
        {
            "out": args.out,
            "p": p,
            "a": list(a),
            "set_code_size": class_size,
            "perm_code_size": len(book.codewords),
            "code_size": class_size * len(book.codewords),
        }
    )
    return 0


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    spec = load_spec(args.spec)
    words = build_code(spec)
    if args.limit is not None:
        words = islice(words, args.limit)
    for word in words:
        print(json.dumps(list(word.symbols)))
    return 0


def _cmd_decode(args) -> int:
    spec = load_spec(args.spec)
    try:
        symbols = json.loads(args.word)
    except RecursionError:
        symbols = None  # nested too deeply to be a flat array
    # bool is an int subclass, so true would otherwise read as symbol 1
    if not isinstance(symbols, list) or any(type(s) is not int for s in symbols):
        # quote a bounded prefix: the argument can be megabytes long
        raise ValueError(
            f"--word must be a JSON array of integers, got {args.word[:80]} "
            f"({len(args.word)} characters)"
        )
    y = Word(tuple(symbols), spec.q, multiplicity_free=True)
    recovered, ranks, sigma, codeword = decode_steps(spec, y)
    result = {"codeword": list(codeword.symbols)}
    if args.trace:
        result["recovered_set"] = set_bits(recovered)
        result["tau" if spec.mode == "stable" else "reduced_perm"] = list(ranks)
        result["sigma"] = list(sigma)
    _emit(result)
    return 0


def _cmd_simulate(args) -> int:
    from .analysis import simulate  # here, as in _cmd_bounds, so no other command loads it

    spec = load_spec(args.spec)
    report = simulate(spec, args.trials, args.tmax, args.seed)
    _emit(report.to_json_dict())
    # within the deletion budget the construction guarantees recovery
    if args.tmax <= spec.t and report.failures > 0:
        return 1
    return 0


def _cmd_bounds(args) -> int:
    from .analysis import singleton_report

    _emit(singleton_report(args.q, args.n, args.t, code_size=args.size))
    return 0


def _cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    if code_size(spec) == 0:
        raise ValueError("the spec describes an empty code")
    code, vt = spec.set_code, spec.set_code.vt
    balls_disjoint = verify_sd_property if spec.mode == "stable" else verify_ud_property
    checks = {"perm_balls_disjoint": balls_disjoint(spec.perm_code)}
    witnesses = {}
    if not checks["perm_balls_disjoint"]:
        first, second, key = ball_collision(spec.perm_code, spec.mode == "unstable")
        witnesses["perm_balls_witness"] = {
            "codewords": [list(first), list(second)],
            "key": list(key),
        }
    witness = None
    if vt is None:  # the ball index maps each member with at most t elements lost back to it
        checks["pairwise_intersection_bound"] = checks["set_deletion_soundness"] = code.balls_disjoint()
    else:
        # a member decodes back from every deletion but the loss of a set the lost-set table
        # misreads; only those are decoded, and the empty deletion of a rejected member and of each after it
        misread = misread_lost_sets(vt)
        member = True
        for mask in code.masks:
            member = member and is_codeword(mask, vt)
            if witness or member and not misread:
                continue
            for removed in [0] * (not member) + [r for r in misread if r & mask == r]:
                try:
                    got = code.decode_mask(mask ^ removed)
                    outcome = None if got == mask else {"decoded": set_bits(got)}
                except DecodeError as exc:
                    outcome = {"error": type(exc).__name__}
                if outcome:
                    witness = {"member": set_bits(mask), "removed": set_bits(removed), **outcome}
                    break
        checks["class_membership"] = member
        checks["set_deletion_soundness"] = witness is None
    if witness:
        witnesses["set_deletion_witness"] = witness
    ok = all(checks.values())
    _emit({"checks": checks, "ok": ok, **witnesses})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delcode",
        description="Multiplicity-free deletion-correcting codes: build, decode, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code spec (auto prime, best class, greedy perm code)")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--mode", choices=("stable", "unstable"), default="stable")
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("enumerate", help="stream codewords, one JSON array per line")
    e.add_argument("--spec", required=True)
    e.add_argument("--limit", type=int, default=None)
    e.set_defaults(func=_cmd_enumerate)

    d = sub.add_parser("decode", help="decode a received word")
    d.add_argument("--spec", required=True)
    d.add_argument("--word", required=True, help='received word as a JSON array, e.g. "[6,4,3]"')
    d.add_argument("--trace", action="store_true", help="include decoder intermediates")
    d.set_defaults(func=_cmd_decode)

    s = sub.add_parser("simulate", help="Monte-Carlo deletion channel")
    s.add_argument("--spec", required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--tmax", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(func=_cmd_simulate)

    b = sub.add_parser("bounds", help="print a bound report")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--t", type=int, required=True)
    b.add_argument("--size", type=int, default=None)
    b.set_defaults(func=_cmd_bounds)

    v = sub.add_parser("verify", help="check every member; certify set decoding by the decoder's lost-set table")
    v.add_argument("--spec", required=True)
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DecodeError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except (DelcodeError, ValueError, OSError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except MemoryError:  # a table that the scale guards admit and this machine cannot hold
        _emit({"error": "MemoryError", "message": "out of memory"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
