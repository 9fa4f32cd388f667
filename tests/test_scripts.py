import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run_script(name, *args):
    path = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_greedy_vs_reference_verifies_every_book():
    header, *rows = run_script("greedy_vs_reference.py", "--max-n", "6")
    assert header.split()[-1] == "verified"
    # n = 3..6 at t = 1 and 2
    assert len(rows) == 8
    assert all(row.split()[-1] == "True" for row in rows)


def test_singleton_gap_sweep_runs():
    header, *rows = run_script("singleton_gap_sweep.py", "--n", "8")
    assert header.split()[:2] == ["alpha", "q"]
    assert len(rows) == 5  # one per default alpha
