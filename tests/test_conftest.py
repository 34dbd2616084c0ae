"""The shared test set-up lets a failing property report its falsifying
example when the test turns every warning into an error."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = """\
import pytest
from hypothesis import given, settings, strategies as st


@pytest.mark.filterwarnings("error")
@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_property_under_filterwarnings_error_prints_its_example(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\n", encoding="utf-8")
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "Falsifying example: test_fails(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
