"""The repository's pytest configuration reports a failing hypothesis test
as that test's failure, with its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=100))
def test_fails(x):
    assert x < 10
'''


def test_failing_given_test_shows_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_TEST)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
