"""The benchmark's workloads and the checks on the program's outputs.

build-set and build-perm run ``delcode construct`` then ``delcode verify`` for
each grid point, each command in its own fresh interpreter, as a user runs
them.  channel builds two specs in-process during set-up and then runs a
closed loop with one client: ``simulate`` on both specs plus a stream of
``encode_index`` / deletion channel / ``decode`` calls, one in ten received
words carrying a substituted symbol.

Every operation is checked; a failed check counts as a failed operation.
"""

import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

from tracing import Tracer, layer_metrics, self_times

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

# sha256 of the spec file that `delcode construct` (or save_spec) writes for
# each (q, n, t, mode); it covers the class label, the set-code parameters and
# the permutation codebook in order.
SPEC_SHA256 = {
    (64, 4, 1, "stable"): "9bafa751dbd1299f2b73824923b16927e7dafa4db5bc68104baa03630fa3ac40",
    (26, 6, 2, "stable"): "b70abca2cf5e5a9cb60b7d6041fd6a72960d31ed88ae6613c713d11e74fe49b6",
    (12, 8, 1, "stable"): "fd1790a866202264247cf85647632fcfbf89fe0d3c1f2155971da7e560d9f5e3",
    (12, 8, 2, "stable"): "101eb65fb22b052830048fd132e2cf5d77448901f26cd433e9b0659c37e98beb",
    (12, 8, 1, "unstable"): "00ea126ede689d50ee0b048ec89b46e6994e154afc7baf0382eadd5ab79008b6",
    (24, 7, 2, "stable"): "55a9591277e1637c13adb644f4a91827526540b37aba517ce5273a37f6191b46",
    (20, 7, 1, "unstable"): "ec6694d02f5098ca00692b3e3224fdfd63d1711e02ca322315928741a0977a7b",
    # small points for the benchmark's own smoke test
    (10, 4, 1, "stable"): "ac6fd2c0361ec4e0e6d0257d7f68efc127b6ed9ac4996106b094e49feec4729a",
    (9, 5, 1, "unstable"): "f50dd90fade133556c324d410eca627cb9463573cd6118efee4ad9f5e2e3ef63",
    (12, 5, 2, "stable"): "17f4946307d01dfde3b63b164c63d3a7bc5a3565dc5d2582f6c043c5433aee4d",
    (10, 5, 1, "unstable"): "f0c85bf798a477973c367703193a3928ad474043bf5f46c7f3381edc25ab53a1",
}

# Seeded simulate tallies: (trials, t_max, seed) -> {weight: (trials, successes, failures)}.
# The stable draws run one deletion over budget, so the failure path is pinned too.
TALLY_PINS = {
    (24, 7, 2, "stable"): ((300, 3, 7), {0: (83, 83, 0), 1: (69, 69, 0), 2: (72, 72, 0), 3: (76, 0, 76)}),
    (20, 7, 1, "unstable"): ((100, 1, 7), {0: (45, 45, 0), 1: (55, 55, 0)}),
    (12, 5, 2, "stable"): ((300, 3, 7), {0: (81, 81, 0), 1: (69, 69, 0), 2: (78, 78, 0), 3: (72, 0, 72)}),
    (10, 5, 1, "unstable"): ((100, 1, 7), {0: (45, 45, 0), 1: (55, 55, 0)}),
}

# Outcome classes of decoding a received word with one substituted symbol.
SUBST_OUTCOMES = (
    "InputTooShort",
    "SetDecodeFailed",
    "PermDecodeFailed",
    "SymbolNotInSet",
    "silent_miscorrection",
    "returned_sent",
)


class Run:
    """One benchmark run: its inputs, its deadline and its failed checks."""

    HARD_LIMIT_S = 170  # the whole run must end within 180 s

    def __init__(self, root, seed, seconds, trace):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        self.work = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.created = time.perf_counter()

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def tally(self, attempted, failed, what):
        self.attempted += attempted
        self.failures.extend([what] * failed)

    def time_left(self):
        return max(1.0, self.created + self.HARD_LIMIT_S - time.perf_counter())


def percentile(values, share):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def spec_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class BuildWorkload:
    """construct then verify over a grid, each command in a fresh interpreter."""

    SETUP_REPS = 5

    def __init__(self, grid):
        self.grid = tuple(grid)

    def run(self, run):
        env = dict(os.environ)
        src = os.path.join(run.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        setup = [self._probe(run, env) for _ in range(self.SETUP_REPS)]

        # The first pass always runs whole; after it, a command starts only if
        # its last duration still fits before the deadline.
        pass_length = 2 * len(self.grid)
        deadline = time.perf_counter() + (run.seconds / 2 if run.trace else run.seconds)
        samples = defaultdict(list)
        for i, (kind, point) in enumerate(self._schedule(run.seed)):
            last = samples[kind, point]
            if i >= pass_length and time.perf_counter() + last[-1] > deadline:
                break
            timing = self._command(run, env, kind, point)
            if timing is None:
                break
            last.append(timing[0])

        construct_s = sum(statistics.median(samples["construct", p] or [0.0]) for p in self.grid)
        verify_s = sum(statistics.median(samples["verify", p] or [0.0]) for p in self.grid)
        untraced_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        e2e = {
            "setup_s": statistics.median(setup),
            "wall_s": construct_s + verify_s,
            "peak_rss_mb": untraced_rss_mb,
        }
        detail = {
            "construct_s": (construct_s, "s"),
            "verify_s": (verify_s, "s"),
            "command_samples": ({f"{k} {p}": len(v) for (k, p), v in samples.items()}, "count"),
        }
        if not run.trace:
            return e2e, detail, None, None

        traced_setup = [self._probe(run, env, traced=True) for _ in range(self.SETUP_REPS)]
        selfs, counters, ops, missing = Counter(), Counter(), [], set()
        startup = traced_wall = 0.0
        traced_rss_kb = 0
        for op, (kind, point) in enumerate(itertools.islice(self._schedule(run.seed), pass_length)):
            out = os.path.join(run.work, f"trace-{op}.json")
            timing = self._command(run, env, kind, point, trace_out=out, op=op)
            if timing is None or not os.path.exists(out):
                break
            elapsed, spawned = timing
            with open(out) as fh:
                child = json.load(fh)
            traced_wall += elapsed
            startup += child["imported"] - spawned
            traced_rss_kb = max(traced_rss_kb, child["maxrss_kb"])
            selfs.update(self_times(child["spans"]))
            counters.update(child["counters"])
            missing.update(child["missing"])
            ops.append({"op": op, "command": [kind, list(point)], "spans": child["spans"]})
        per_layer = layer_metrics(selfs, counters)
        per_layer.update({f"multfree.subst.{name}": 0 for name in SUBST_OUTCOMES})
        per_layer["cli.startup_s"] = startup
        per_layer["overhead.setup_s"] = statistics.median(traced_setup) - e2e["setup_s"]
        per_layer["overhead.wall_s"] = traced_wall - e2e["wall_s"]
        per_layer["overhead.peak_rss_mb"] = traced_rss_kb / 1024 - untraced_rss_mb
        return e2e, detail, per_layer, {"ops": ops, "missing_wrap_points": sorted(missing)}

    def _schedule(self, seed):
        """construct, verify per grid point; each pass in a fresh seeded order."""
        rng = random.Random(seed)
        while True:
            for point in rng.sample(self.grid, len(self.grid)):
                yield "construct", point
                yield "verify", point

    def _probe(self, run, env, traced=False):
        """Set-up: a fresh interpreter that imports the CLI, as every command does."""
        if traced:
            argv = [sys.executable, CHILD, os.path.join(run.work, "probe.json"), "0"]
        else:
            argv = [sys.executable, "-c", "import delcode.cli"]
        proc, elapsed, _ = _spawn(run, env, argv)
        run.check(proc is not None and proc.returncode == 0, f"set-up probe failed: {proc and proc.stderr[-300:]}")
        return elapsed

    def _command(self, run, env, kind, point, trace_out=None, op=0):
        """Run one CLI command and check its output; returns (seconds, spawn time)."""
        q, n, t, mode = point
        spec = os.path.join(run.work, "spec_{}_{}_{}_{}.json".format(*point))
        if kind == "construct":
            args = ["construct", "--q", str(q), "--n", str(n), "--t", str(t), "--mode", mode, "--out", spec]
        else:
            args = ["verify", "--spec", spec]
        if trace_out is None:
            argv = [sys.executable, "-m", "delcode", *args]
        else:
            argv = [sys.executable, CHILD, trace_out, str(op), *args]
        proc, elapsed, spawned = _spawn(run, env, argv)
        if proc is None:
            run.check(False, f"{kind} {point}: timed out")
            return None
        what = f"{kind} {point}: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}, stderr {proc.stderr[-300:]!r}"
        run.check(proc.returncode == 0, what)
        if kind == "construct":
            digest = spec_digest(spec) if os.path.exists(spec) else None
            run.check(digest == SPEC_SHA256[point], f"construct {point}: spec sha256 {digest}")
        else:
            run.check(_last_json(proc.stdout).get("ok") is True, f"verify {point}: {what}")
        return elapsed, spawned


def _spawn(run, env, argv):
    """Run a child to completion; returns (process or None on timeout, seconds, spawn time)."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=run.work, capture_output=True, text=True,
                              timeout=run.time_left())
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        proc = None
    return proc, time.perf_counter() - spawned, spawned


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        value = json.loads(lines[-1]) if lines else {}
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


class ChannelWorkload:
    """Closed loop, one client, on a stable and an unstable spec built in set-up."""

    SETUP_REPS = 5

    def __init__(self, stable, unstable, sim_trials, ud_trials, stream_ops):
        self.points = (stable, unstable)
        self.sim_trials, self.ud_trials, self.stream_ops = sim_trials, ud_trials, stream_ops

    def run(self, run):
        from delcode import analysis

        setup = []
        for _ in range(self.SETUP_REPS):
            start = time.perf_counter()
            specs = self._setup(run)
            setup.append(time.perf_counter() - start)

        deadline = time.perf_counter() + (run.seconds / 2 if run.trace else run.seconds)
        passes = []
        while not passes or time.perf_counter() + passes[-1]["wall"] <= deadline:
            passes.append(self._pass(run, specs, len(passes)))

        for spec in specs:
            point = (spec.q, spec.n, spec.t, spec.mode)
            (trials, t_max, seed), pinned = TALLY_PINS[point]
            report = analysis.simulate(spec, trials, t_max, seed)
            got = {w: (c["trials"], c["successes"], c["failures"]) for w, c in report.by_weight.items()}
            run.check(got == pinned, f"simulate {point} seed {seed}: tally {got}, pinned {pinned}")

        untraced_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [p["wall"] for p in passes]
        e2e = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": untraced_rss_mb,
        }
        pooled = {key: [v for p in passes for v in p[key]] for key in ("encode", "decode", "reject")}
        detail = {
            "trials_per_s": (len(passes) * self.sim_trials / sum(p["sim"] for p in passes), "1/s"),
            "ud_trials_per_s": (len(passes) * self.ud_trials / sum(p["ud_sim"] for p in passes), "1/s"),
            "decode_p50_us": (percentile(pooled["decode"], 0.50) * 1e6, "us"),
            "decode_p99_us": (percentile(pooled["decode"], 0.99) * 1e6, "us"),
            "encode_p50_us": (percentile(pooled["encode"], 0.50) * 1e6, "us"),
            "encode_p99_us": (percentile(pooled["encode"], 0.99) * 1e6, "us"),
            "reject_p50_us": (percentile(pooled["reject"], 0.50) * 1e6, "us"),
            "samples": ({k: len(v) for k, v in pooled.items()}, "count"),
            "passes": (len(passes), "count"),
        }
        if not run.trace:
            return e2e, detail, None, None

        tracer = Tracer()
        missing = tracer.install()
        try:
            start = time.perf_counter()
            specs = self._setup(run, tracer)
            traced_setup = time.perf_counter() - start
            traced = self._pass(run, specs, 0, tracer)
        finally:
            tracer.uninstall()
        per_layer = layer_metrics(self_times(tracer.spans), tracer.counters)
        per_layer.update({f"multfree.subst.{name}": traced["outcomes"][name] for name in SUBST_OUTCOMES})
        per_layer["cli.startup_s"] = 0.0
        per_layer["overhead.setup_s"] = traced_setup - e2e["setup_s"]
        per_layer["overhead.wall_s"] = traced["wall"] - e2e["wall_s"]
        per_layer["overhead.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - untraced_rss_mb
        return e2e, detail, per_layer, {"spans": tracer.spans, "missing_wrap_points": missing}

    def _setup(self, run, tracer=None):
        """Build both specs from scratch and check them against the pinned digests."""
        from delcode import modular, multfree, permcode, vtcode

        _clear_program_caches()
        specs = []
        for op, point in enumerate(self.points):
            if tracer is not None:
                tracer.op = op
            q, n, t, mode = point
            p = modular.next_prime_above(q)
            label, _ = vtcode.best_class(q, n, t, p)
            book = permcode.greedy_sd_code(n, t) if mode == "stable" else permcode.greedy_ud_code(n, t)
            set_code = multfree.SetCode.from_vt(vtcode.VTParams(q, n, t, p, label))
            spec = multfree.MultFreeCodeSpec(q, n, t, mode, set_code, book)
            run.check(multfree.code_size(spec) > 0, f"set-up {point}: empty code")
            path = os.path.join(run.work, "spec_{}_{}_{}_{}.json".format(*point))
            multfree.save_spec(spec, path)
            digest = spec_digest(path)
            run.check(digest == SPEC_SHA256[point], f"set-up {point}: spec sha256 {digest}")
            specs.append(spec)
        return specs

    def _pass(self, run, specs, index, tracer=None):
        """One fixed batch of work, drawn from (seed, pass index)."""
        from delcode import analysis, model, multfree
        from delcode.errors import DecodeError

        stable, unstable = specs
        rng = random.Random(run.seed * 1_000_003 + index)
        clock = time.perf_counter
        result = {"sim": 0.0, "ud_sim": 0.0, "encode": [], "decode": [], "reject": [], "outcomes": Counter()}
        start = clock()
        for spec, key, trials in ((stable, "sim", self.sim_trials), (unstable, "ud_sim", self.ud_trials)):
            sim_seed = rng.randrange(2**32)
            if tracer is not None:
                tracer.op += 1
            began = clock()
            report = analysis.simulate(spec, trials, spec.t, sim_seed)
            result[key] = clock() - began
            run.tally(trials, trials - report.successes,
                      f"simulate {spec.mode} seed {sim_seed}: a within-budget trial failed")

        total = multfree.code_size(stable)
        for k in range(self.stream_ops):
            if tracer is not None:
                tracer.op += 1
            index_drawn = rng.randrange(total)
            began = clock()
            x = multfree.encode_index(stable, index_drawn)
            result["encode"].append(clock() - began)
            y = model.delete_positions(x, model.draw_deletion_pattern(rng, stable.n, stable.t))
            if k % 10 == 9:
                y = _substitute(rng, y, model.Word)
                began = clock()
                try:
                    got = multfree.decode(stable, y)
                    outcome = "returned_sent" if got == x else "silent_miscorrection"
                except DecodeError as exc:
                    outcome = type(exc).__name__
                except Exception as exc:  # any untyped error on corrupt input is a failure
                    outcome = f"untyped {type(exc).__name__}: {exc}"
                result["reject"].append(clock() - began)
                result["outcomes"][outcome] += 1
                run.check(not outcome.startswith("untyped"), f"substituted {y.symbols}: {outcome}")
            else:
                began = clock()
                try:
                    got = multfree.decode(stable, y)
                except DecodeError as exc:
                    got = exc
                result["decode"].append(clock() - began)
                run.check(got == x, f"decode {y.symbols}: got {got!r}, sent {x.symbols}")
        result["wall"] = clock() - start
        return result


def _substitute(rng, y, word_type):
    """Replace one received symbol by a symbol the word does not contain."""
    symbols = list(y.symbols)
    unused = sorted(set(range(y.alphabet_size)) - set(symbols))
    symbols[rng.randrange(len(symbols))] = rng.choice(unused)
    return word_type(tuple(symbols), y.alphabet_size, True)


def _clear_program_caches():
    """Drop every functools cache in the program, so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "delcode" or name.startswith("delcode."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


WORKLOADS = {
    "build-set": BuildWorkload([(64, 4, 1, "stable"), (26, 6, 2, "stable")]),
    "build-perm": BuildWorkload([(12, 8, 1, "stable"), (12, 8, 2, "stable"), (12, 8, 1, "unstable")]),
    "channel": ChannelWorkload((24, 7, 2, "stable"), (20, 7, 1, "unstable"),
                               sim_trials=1500, ud_trials=100, stream_ops=1000),
}
