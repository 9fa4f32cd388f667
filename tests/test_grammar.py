"""Every Python file under src/, tests/ and scripts/ parses under the grammar
of Python 3.10, the oldest version the project supports (`requires-python`
and the oldest CI leg), so a newer construct such as `except*` fails here on
any interpreter.  The check covers grammar only: a stdlib function or
argument added after 3.10 still parses, and only running on 3.10 finds it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = sorted(path for part in ("src", "tests", "scripts") for path in (ROOT / part).rglob("*.py"))
OLDEST = (3, 10)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_refused():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
