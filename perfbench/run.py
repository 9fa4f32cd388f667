"""delcode benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It prints one JSON line of run metadata and
detailed figures, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, measured with no tracing.  ``--trace 1`` measures the
same untraced figures for half the time, then runs one traced pass of fixed,
seed-determined work and reports the per-layer metrics, including the
tracing overhead.  Spans and full results are written under ``.perfbench/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys

from workloads import WORKLOADS, Run

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "vtcode.census_s": "s",
    "vtcode.census_subsets": "count",
    "vtcode.set_decode_s": "s",
    "vtcode.set_decode_calls": "count",
    "vtcode.set_decode_rejects": "count",
    "vtcode.self_s": "s",
    "modular.newton_s": "s",
    "modular.locator_s": "s",
    "modular.locator_candidates": "count",
    "modular.self_s": "s",
    "permcode.greedy_scan_s": "s",
    "permcode.scan_candidates": "count",
    "permcode.admitted": "count",
    "permcode.admit_ratio": "ratio",
    "permcode.ball_verify_s": "s",
    "permcode.sd_decode_s": "s",
    "permcode.sd_decode_calls": "count",
    "permcode.sd_codewords_tested": "count",
    "permcode.ud_decode_s": "s",
    "permcode.ud_decode_calls": "count",
    "permcode.ud_codewords_tested": "count",
    "permcode.self_s": "s",
    "multfree.materialize_s": "s",
    "multfree.materialize_subsets": "count",
    "multfree.encode_s": "s",
    "multfree.encode_calls": "count",
    "multfree.rank_rewrite_s": "s",
    "multfree.decode_self_s": "s",
    "multfree.spec_io_s": "s",
    "multfree.self_s": "s",
    "multfree.subst.InputTooShort": "count",
    "multfree.subst.SetDecodeFailed": "count",
    "multfree.subst.PermDecodeFailed": "count",
    "multfree.subst.SymbolNotInSet": "count",
    "multfree.subst.silent_miscorrection": "count",
    "multfree.subst.returned_sent": "count",
    "model.channel_s": "s",
    "model.self_s": "s",
    "analysis.simulate_self_s": "s",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "overhead.setup_s": "s",
    "overhead.wall_s": "s",
    "overhead.peak_rss_mb": "MB",
}


def run_metadata(root, args):
    src = os.path.join(root, "src", "delcode")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def _git_sha(root):
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(root, workload, seed, seconds, trace):
    """Run one workload; returns (detail record, result object, trace payload)."""
    run = Run(root, seed, seconds, trace)
    try:
        e2e, detail, per_layer, spans = workload.run(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    failed = len(run.failures)
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    values = per_layer if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()},
        "detail": {name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        "error_rate": failed / max(1, run.attempted),
        "failures": run.failures[:20],
    }
    return record, result, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "delcode", "cli.py")):
        print("perfbench: src/delcode not found; run from the root of a delcode checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    meta = run_metadata(root, args)
    record, result, spans = measure(root, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    record = {"meta": meta, **record}
    out_dir = os.path.join(root, ".perfbench")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w") as fh:
            json.dump(spans, fh)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
