"""The suite's pytest settings let a failing property test report itself."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # on failure hypothesis imports libcst, whose import warnings the
    # suite's filterwarnings must not turn into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 5
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
