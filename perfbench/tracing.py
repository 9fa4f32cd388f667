"""Span tracing installed from outside the program.

The wrappers replace the names that callers look up (for example the
``set_decode`` that ``delcode.multfree`` imports), so no file of the program
changes.  Spans stay in memory as ``[name, start, end, parent, op]`` lists and
are written out when the run ends.  Counters sit beside the spans and record
exact amounts of work.
"""

import functools
import importlib
import time
from collections import Counter

LAYERS = ("vtcode", "modular", "permcode", "multfree", "model", "analysis", "cli")


def _calls(calls, rejects=None, book_size=None):
    """Hook that counts calls, raised calls, and codebook sizes scanned."""

    def hook(counters, args, result, raised):
        counters[calls] += 1
        if rejects is not None and raised:
            counters[rejects] += 1
        if book_size is not None:
            counters[book_size] += len(args[0].codewords)

    return hook


def _admitted(counters, args, result, raised):
    if not raised:
        counters["permcode.admitted"] += len(result.codewords)


def _locator_candidates(counters, args, result, raised):
    counters["modular.locator_candidates"] += len(args[1])


# (module, attribute the callers look up, span name, hook or None)
SPAN_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "best_class", "vtcode.census", None),
    ("vtcode", "best_class", "vtcode.census", None),
    ("cli", "is_codeword", "vtcode.membership", None),
    ("multfree", "set_decode", "vtcode.set_decode",
     _calls("vtcode.set_decode_calls", rejects="vtcode.set_decode_rejects")),
    ("vtcode", "power_sums_to_elementary", "modular.newton", None),
    ("vtcode", "locator_roots", "modular.locator", _locator_candidates),
    ("cli", "greedy_sd_code", "permcode.greedy_scan", _admitted),
    ("cli", "greedy_ud_code", "permcode.greedy_scan", _admitted),
    ("permcode", "greedy_sd_code", "permcode.greedy_scan", _admitted),
    ("permcode", "greedy_ud_code", "permcode.greedy_scan", _admitted),
    ("cli", "verify_sd_property", "permcode.ball_verify", None),
    ("cli", "verify_ud_property", "permcode.ball_verify", None),
    ("multfree", "sd_decode", "permcode.sd_decode",
     _calls("permcode.sd_decode_calls", book_size="permcode.sd_codewords_tested")),
    ("multfree", "ud_decode", "permcode.ud_decode",
     _calls("permcode.ud_decode_calls", book_size="permcode.ud_codewords_tested")),
    ("multfree", "enumerate_class", "multfree.materialize", None),
    ("cli", "save_spec", "multfree.spec_io", None),
    ("cli", "load_spec", "multfree.spec_io", None),
    ("multfree", "save_spec", "multfree.spec_io", None),
    ("multfree", "encode_index", "multfree.encode", _calls("multfree.encode_calls")),
    ("analysis", "encode_index", "multfree.encode", _calls("multfree.encode_calls")),
    ("multfree", "decode", "multfree.decode", None),
    ("analysis", "decode", "multfree.decode", None),
    ("multfree", "symbol_ranks", "multfree.rank_rewrite", None),
    ("model", "draw_deletion_pattern", "model.channel", None),
    ("model", "delete_positions", "model.channel", None),
    ("analysis", "draw_deletion_pattern", "model.channel", None),
    ("analysis", "delete_positions", "model.channel", None),
    ("analysis", "simulate", "analysis.simulate", None),
)

# Iterator factories whose items are counted, keyed by the innermost open span.
ITER_POINTS = (
    ("vtcode", "_weight_class", {
        "vtcode.census": "vtcode.census_subsets",
        "multfree.materialize": "multfree.materialize_subsets",
    }),
    ("permcode", "permutations", {"permcode.greedy_scan": "permcode.scan_candidates"}),
)

# per-layer metric -> span names whose self time it sums
TIMED = {
    "vtcode.census_s": ("vtcode.census",),
    "vtcode.set_decode_s": ("vtcode.set_decode",),
    "modular.newton_s": ("modular.newton",),
    "modular.locator_s": ("modular.locator",),
    "permcode.greedy_scan_s": ("permcode.greedy_scan",),
    "permcode.ball_verify_s": ("permcode.ball_verify",),
    "permcode.sd_decode_s": ("permcode.sd_decode",),
    "permcode.ud_decode_s": ("permcode.ud_decode",),
    "multfree.materialize_s": ("multfree.materialize",),
    "multfree.encode_s": ("multfree.encode",),
    "multfree.rank_rewrite_s": ("multfree.rank_rewrite",),
    "multfree.decode_self_s": ("multfree.decode",),
    "multfree.spec_io_s": ("multfree.spec_io",),
    "model.channel_s": ("model.channel",),
    "analysis.simulate_self_s": ("analysis.simulate",),
    "cli.self_s": ("cli.main",),
}

COUNTED = (
    "vtcode.census_subsets",
    "vtcode.set_decode_calls",
    "vtcode.set_decode_rejects",
    "modular.locator_candidates",
    "permcode.scan_candidates",
    "permcode.admitted",
    "permcode.sd_decode_calls",
    "permcode.sd_codewords_tested",
    "permcode.ud_decode_calls",
    "permcode.ud_codewords_tested",
    "multfree.materialize_subsets",
    "multfree.encode_calls",
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = Counter()
        self.op = 0
        self._stack = []
        self._undo = []

    def innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            result, raised = None, True
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                record[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(self.counters, args, result, raised)

        return traced

    def count_items(self, fn, keys):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            items = fn(*args, **kwargs)
            key = keys.get(self.innermost())
            return items if key is None else _counting(items, counters, key)

        return counted

    def install(self):
        """Wrap every listed name that the program still has; returns the
        wrap points it could not find, so a renamed layer shows up."""
        missing = []
        for module_name, attr, name, hook in SPAN_POINTS:
            self._patch(module_name, attr, lambda fn: self.wrap(fn, name, hook), missing)
        for module_name, attr, keys in ITER_POINTS:
            self._patch(module_name, attr, lambda fn: self.count_items(fn, keys), missing)
        return missing

    def _patch(self, module_name, attr, make, missing):
        module = importlib.import_module("delcode." + module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def _counting(items, counters, key):
    seen = 0
    try:
        for item in items:
            seen += 1
            yield item
    finally:
        counters[key] += seen


def self_times(spans):
    """Self time per span name: duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - covered[i]
    return totals


def layer_metrics(selfs, counters):
    """Per-layer metrics from summed self times and counters."""
    metrics = {name: sum((selfs[s] for s in names), 0.0) for name, names in TIMED.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum((v for k, v in selfs.items() if k.startswith(layer + ".")), 0.0)
    for name in COUNTED:
        metrics[name] = counters[name]
    candidates = counters["permcode.scan_candidates"]
    metrics["permcode.admit_ratio"] = counters["permcode.admitted"] / candidates if candidates else 0.0
    return metrics
