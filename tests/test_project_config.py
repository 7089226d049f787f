"""The package's dependency fence and the pytest configuration it ships."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FENCE = """
import importlib, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
new = {name.partition(".")[0] for name in sys.modules} - before
print(sorted(new - set(sys.stdlib_module_names) - {"repro", "numpy"}))
"""


def test_numpy_is_the_only_third_party_import():
    """Importing every ``repro`` module pulls in no third-party package but
    NumPy (pyproject's only dependency)."""
    out = subprocess.run([sys.executable, "-c", FENCE], cwd=ROOT,
                         env={"PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under the project's warning filters a failing ``@given`` test fails
    normally (exit 1) and shows its falsifying example."""
    (tmp_path / "test_prop.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 10
    """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout[-2000:]
    assert "Falsifying example" in out.stdout
