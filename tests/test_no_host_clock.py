"""``benchmarks/e2e`` is the only code that reads the host clock.

Everything under ``src/repro`` — the paper experiments of
``repro/bench/paper.py`` included — runs on the simulated clock, so no
report field, bench artifact or expectation can differ between two runs of
the same seed, however busy the host is.
An AST scan rather than a grep: it sees ``from time import perf_counter``
and aliased imports, and does not trip over the words in a docstring.

Nor does anything there wait on a wall-clock timeout: a ``timeout=``
keyword on a ``join``, ``wait``, ``get`` or ``acquire`` call is a watchdog,
and an SPMD world ends by returning, raising or deadlocking (the
transport's wait registry), never by a timer running out.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
HOST_CLOCKS = {"perf_counter", "time", "monotonic", "process_time"}
SCANNED = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))


def host_clock_reads(source: str) -> list[int]:
    """Line numbers of every reference to a host clock in ``source``."""
    tree = ast.parse(source)
    time_modules = {"time"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            time_modules.update(a.asname for a in node.names
                                if a.name == "time" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            hits += [node.lineno for a in node.names if a.name in HOST_CLOCKS]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in HOST_CLOCKS
                and isinstance(node.value, ast.Name)
                and node.value.id in time_modules):
            hits.append(node.lineno)
    return sorted(hits)


#: Blocking calls that take a wall-clock ``timeout=``.
BLOCKING_CALLS = {"join", "wait", "get", "acquire"}


def wall_timeouts(source: str) -> list[int]:
    """Line numbers of every ``.join/.wait/.get/.acquire(timeout=...)``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in BLOCKING_CALLS
        and any(k.arg == "timeout" for k in node.keywords))


def test_scanner_sees_every_spelling():
    assert host_clock_reads("import time\nt = time.perf_counter()\n") == [2]
    assert host_clock_reads("import time as t\nx = t.monotonic\n") == [2]
    assert host_clock_reads("from time import process_time as p\n") == [1]
    assert host_clock_reads(
        '"""mentions time.time()"""\nimport time\ntime.sleep(0)\n') == []


def test_scan_covers_both_trees():
    """The package and, inside it, the paper experiments; never e2e."""
    names = {p.name for p in SCANNED}
    assert {"cascade.py", "runner.py", "paper.py"} <= names
    assert not any("e2e" in p.parts for p in SCANNED)


def test_no_host_clock_outside_e2e():
    offenders = {str(path.relative_to(REPO_ROOT)): hits for path in SCANNED
                 if (hits := host_clock_reads(path.read_text()))}
    assert not offenders, f"host clock read at {offenders}"


def test_timeout_scanner_sees_each_blocking_call():
    assert wall_timeouts(
        "t.join(timeout=5)\nq.get(True, timeout=1)\nlock.acquire(timeout=x)\n"
        "e.wait(timeout=None)\nt.join()\nsim.timeout(5)\n"
        "d.get('timeout')\nrun(timeout=3)\n") == [1, 2, 3, 4]


def test_no_wall_timeout_in_src():
    offenders = {str(path.relative_to(REPO_ROOT)): hits for path in SCANNED
                 if (hits := wall_timeouts(path.read_text()))}
    assert not offenders, f"wall-clock timeout at {offenders}"
