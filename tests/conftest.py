import time
from contextlib import contextmanager

import pytest

from delcode import MultFreeCodeSpec, PermCodeBook, SetCode

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def explicit_spec() -> MultFreeCodeSpec:
    """Hand-picked stable spec over an eight-symbol alphabet: two sets, two
    permutations, four codewords, correcting two deletions."""
    book = PermCodeBook(5, 2, ((1, 2, 3, 4, 5), (4, 5, 2, 3, 1)))
    sets = (0b00011111, 0b11111000)  # {0, 1, 2, 3, 4} and {3, 4, 5, 6, 7}
    return MultFreeCodeSpec(8, 5, 2, "stable", SetCode(8, 5, 2, sets=sets), book)


@pytest.fixture
def criterion():
    """Context manager that times an acceptance criterion, records a pass/fail
    line for the terminal summary, and enforces the stated wall-clock limit."""

    @contextmanager
    def _criterion(number: int, label: str, max_seconds: float | None = None):
        start = time.perf_counter()
        try:
            yield
        except Exception:
            _criterion_lines.append(f"criterion {number} ({label}): FAIL")
            raise
        elapsed = time.perf_counter() - start
        _criterion_lines.append(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]")
        if max_seconds is not None:
            assert elapsed < max_seconds, (
                f"criterion {number} took {elapsed:.2f}s, limit {max_seconds}s"
            )

    return _criterion


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
