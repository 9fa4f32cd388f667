"""The benchmark's wrap points name functions the program still has.

`perfbench/tracing.py` wraps program functions by (module, attribute). A name
the program no longer has is skipped there and reported as missing, and only
the benchmark's own smoke tests, which this suite does not collect, fail on it.
This test reads the two lists straight from that file, loaded by path, so the
benchmark package is neither imported as a package nor changed."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# wrap points whose functions left `delcode` while the benchmark still lists them
# (ROADMAP item 0a drops them there); any subset passes, so this set may only shrink
KNOWN_STALE = {"vtcode.power_sums_to_elementary", "vtcode.locator_roots", "vtcode._weight_class"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves():
    tracing = _load_tracing()
    points = [(module, attr) for module, attr, *_ in tracing.SPAN_POINTS + tracing.ITER_POINTS]
    assert len(points) > len(KNOWN_STALE)
    # the same lookup `Tracer._patch` makes before it wraps a name
    missing = {
        f"{module}.{attr}"
        for module, attr in points
        if getattr(importlib.import_module(f"delcode.{module}"), attr, None) is None
    }
    assert missing <= KNOWN_STALE
