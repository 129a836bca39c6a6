"""The package's export list, and the test suite's own configuration."""

import os
import subprocess
import sys

import diskflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_exported_name_resolves():
    assert [n for n in diskflow.__all__ if not hasattr(diskflow, n)] == []
    assert len(set(diskflow.__all__)) == len(diskflow.__all__)
    for name in ("energy_audit", "run", "RunConfig"):
        assert name in diskflow.__all__


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns; under this suite's warning filters that must not abort the run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_passes():\n"
        "    pass\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
