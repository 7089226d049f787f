"""The examples a reader runs first print exactly what they printed before.

Each invocation runs in-process (``runpy``, as ``__main__``) twice, and both
stdouts must equal the committed file under ``tests/golden/``.  A pinned
example is a root of ``test_reachability.py``: what it calls is live code.
After an intended output change, regenerate a golden file with
``PYTHONPATH=src python examples/<script> [args] > tests/golden/<name>.txt``.
"""

import runpy
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

#: ``golden name → (script, argv)``.  The fault plan is the CI string of
#: the ``--faults`` front-end check.
INVOCATIONS = {
    "msa_operations": ("msa_operations.py", []),
    "msa_operations_faults": (
        "msa_operations.py",
        ["--faults", "seed=1,crash=esb:4,straggler=cm:1,degrade=cm:1"]),
    "quickstart": ("quickstart.py", []),
}


def _stdout(script, argv, monkeypatch, capsys) -> str:
    path = REPO_ROOT / "examples" / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    capsys.readouterr()
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_example_stdout_is_pinned_and_deterministic(name, monkeypatch,
                                                     capsys):
    script, argv = INVOCATIONS[name]
    golden = (GOLDEN / f"{name}.txt").read_text()
    first = _stdout(script, argv, monkeypatch, capsys)
    second = _stdout(script, argv, monkeypatch, capsys)
    assert first == golden
    assert second == first


def test_reachability_roots_are_the_pinned_examples():
    from tests.test_reachability import EXAMPLE_ROOTS

    pinned = {script for script, _ in INVOCATIONS.values()}
    assert pinned == set(EXAMPLE_ROOTS)
    assert pinned == {p.name for p in (REPO_ROOT / "examples").glob("*.py")}
