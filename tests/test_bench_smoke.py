"""Smoke coverage for the ``benchmarks/`` paper-figure suite.

Every ``bench_*.py`` is a plain pytest module with one face: importable
with the benchmarks directory on ``sys.path``, no ``main()`` that re-runs
pytest on itself and no ``benchmark`` timing fixture.  Workload knobs come
from the two environment variables ``benchmarks/conftest.py`` reads.  The
slow test at the bottom actually runs the whole suite once in quick mode —
the same invocation CI's bench job uses.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_MODULES = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))


def _load(name: str):
    """Import a benchmark module the way pytest does: with the benchmarks
    dir (for ``conftest``) and ``src`` importable."""
    for entry in (str(BENCH_DIR), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), BENCH_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_is_nonempty():
    assert len(BENCH_MODULES) >= 15


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_every_bench_module_has_one_face(name):
    module = _load(name)
    assert not hasattr(module, "main"), f"{name} grew a script face"
    tests = [fn for attr, fn in inspect.getmembers(module, inspect.isfunction)
             if attr.startswith("test_")]
    assert tests, f"{name} defines no tests"
    for fn in tests:
        assert "benchmark" not in inspect.signature(fn).parameters, \
            f"{name}::{fn.__name__} takes the `benchmark` timing fixture"


class TestCommonFlags:
    def test_env_export_roundtrip(self, monkeypatch):
        common = _load("conftest.py")
        monkeypatch.delenv(common.QUICK_ENV, raising=False)
        monkeypatch.delenv(common.SEED_ENV, raising=False)
        assert not common.bench_quick()
        assert common.bench_seed() == 0
        monkeypatch.setenv(common.QUICK_ENV, "1")
        monkeypatch.setenv(common.SEED_ENV, "3")
        assert common.bench_quick()
        assert common.bench_seed() == 3


@pytest.mark.slow
def test_quick_suite_passes_end_to_end():
    """The CI bench job's exact smoke invocation: the full benchmark
    suite, quick mode, seed 0."""
    env = dict(os.environ)
    env.update({"PYTHONPATH": "src",
                "REPRO_BENCH_QUICK": "1",
                "REPRO_BENCH_SEED": "0"})
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, env=env, text=True, capture_output=True,
        timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
