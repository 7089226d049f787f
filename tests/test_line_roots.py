"""Every executed line, both ways of every ``if`` and every settable
value in ``src/repro`` have a root.

This rule runs the repository's roots, in one fresh process, under a
stdlib line tracer (``sys.settrace`` and ``threading.settrace``, both
installed before ``repro`` is imported and so before any SPMD rank thread
starts), and fails on any line of ``src/repro`` that no root executes: it
is the one referee for dead functions, methods and classes with methods.
``test_reachability.py`` covers what has no lines of its own to run
(module constants and classes without methods), write-only state and
unused imports.

The roots (:func:`run_roots`):

* every ``repro`` subcommand at a small size, once per ``choices`` value,
  ``store_true`` flag and ``0 = off`` switch of ``build_parser()``
  (:func:`cli_roots`), plus the two ``--faults`` plans ``serve --help``
  documents (``bench --quick --compare`` is CI's gate);
* the exit-2 usage steps CI runs and the ``--faults`` clauses the README
  documents ``serve`` rejecting (:data:`CI_ROOTS`);
* both pinned examples, with the argv ``test_examples.py`` pins;
* the seven ``benchmarks/e2e`` workloads, two passes each at the
  ``--quick`` scale (the second one detailed, under telemetry capture,
  as the traced run makes it).

A line is executable when the interpreter that traces it says so: the
line numbers of every function code object's ``co_lines()`` and its first
line (module and class bodies run at import and are left out), so the
executable set and the ``line`` events always come from the same
compiler.  A function's first line counts as executed when it is called.  Three kinds of line
are exempt:

* raise-only lines: a ``raise`` statement, and every line of an ``if``
  or ``else`` branch that ends in one (the message it builds, the state
  it rolls back).  The range checks and error contracts own them, and
  their tests pin them;
* ``except`` clauses and their bodies: the recovery path of a failure
  no root injects;
* functions (and classes) named in ``test_reachability.ALLOWLIST``,
  the single allowlist: safety code a healthy run never enters (failure
  paths, guards for degenerate input, the parts of a primitive's
  contract the roots do not use) or a reference a test compares
  against.  An entry is stale only when no rule needs it: not the name
  or write-only rule, not the line rule, not the branch rule and not
  the value rule.

The same traced run records the way each ``if`` and ``elif`` inside a
function goes (:func:`branch_points`): in each frame the tracer keeps
the line it ran last, and an arc from a test's line into the first
statement of its body is the true way, an arc to any other line, or a
return from the test, the false way.  An ``if`` a root reaches that goes
one way in every root fails (:func:`one_way`), unless the way it never
took ends in a ``raise`` (the error contract), it sits on a raise-only
or ``except`` line, or its function is allowlisted.  Ternaries and
``and``/``or`` are out of reach: a line tracer cannot see them.

The same traced run records values.  On every call of a settable-value
owner (:meth:`~tests.test_reachability.Program.settable`, the one
enumeration), the tracer reads the :func:`canonical` value of
each defaulted parameter from ``frame.f_locals``; an omitted argument
reads as its default, and an object default reads as :data:`DEFAULT`.
A settable value that takes exactly one value in every root call fails:
one scalar (fold it into that value), or objects of one type (no call
leaves the default, so the default is dead).  ``ALLOWLIST`` may keep
one with one of six reasons (DESIGN §18): input from outside ``src/``, a
seed, a field of a record type a check asserts, an input only a fault
path varies, a value a pin passes, or a default whose leg is the
reference a test compares against.  A value of a function no root calls
takes none: it is exempt with its function, which the line rule makes
allowlisted.  The three rules read one cached run (:func:`traced_run`).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from enum import Enum
from pathlib import Path
from types import CodeType
from typing import Callable, Iterable

import pytest

from tests.test_reachability import (ALLOWLIST, Program, Settable,
                                     repository)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
E2E = REPO_ROOT / "benchmarks" / "e2e"

#: ``repro`` subcommand → argv that makes it small.  The roots run in a
#: scratch directory (``{tmp}``); ``{repo}`` is the checkout.  A new
#: subcommand needs a row here.  A trace or drill takes about a second at
#: full size, so both sizes run (``--quick`` is a flag like any other); a
#: trace writes to its default directory, a drill where ``--out`` says.
SMALL = {
    "systems": [],
    "schedule": ["--jobs", "4"],
    "scaling": [],
    "submit": ["{tmp}/job.sh"],
    "serve": ["--duration", "5", "--rate", "20"],
    "trace": [],
    "drill": ["--out", "{tmp}/drill"],
    # The CI gate, and a baseline rewrite into the scratch directory.
    "bench": ["--quick", "--compare", "{repo}/benchmarks/baselines",
              "--update-baseline", "--out", "{tmp}/bench"],
    "experiments": [],
}

#: The job script ``repro submit`` schedules: the grammar of
#: ``repro.core.batch``'s docstring.
JOB_SCRIPT = """\
#!/bin/sh
#SBATCH --job-name=train-resnet
# arrival time, seconds
#SBATCH --begin=120
#PHASE name=preprocess workload=simulation-lowscale nodes=4 work=1e15 memory=64
#PHASE name=train workload=ml-training nodes=16 work=2e18 gpu tensor-cores parallel=0.998
"""

#: CI's usage-error steps (each exits 2), and the ``--faults`` clauses the
#: README documents beyond ``serve --help``'s two plans: the batch-only
#: kinds and message bit flips, which ``serve`` rejects (exit 2).
CI_ROOTS = (
    ["schedule", "--jobs", "0"],
    *(["serve", "--faults", plan, "--duration", "1"]
      for plan in ("seed=1,drop=0.05", "seed=1,crash=esb:-1", "horizon=-10",
                   "seed=7,straggler=esb:1", "seed=7,degrade=cm:1",
                   "seed=7,bitflip=0.01", "bitflip=2")),
)

#: Value given to a numeric option whose help says ``0 = off``.
SWITCH_ON = "2"

#: The ``--quick`` scale of ``benchmarks/e2e/run.py``.
E2E_SCALE = 0.1


# ---------------------------------------------------------------------------
# the roots
# ---------------------------------------------------------------------------

def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _is_switch(action: argparse.Action) -> bool:
    """A numeric option that turns a feature on (its default, 0, is off)."""
    return action.default == 0 and "0 = off" in (action.help or "")


def cli_roots(parser: argparse.ArgumentParser) -> list[list[str]]:
    """One small invocation per subcommand, per ``choices`` value, per
    ``store_true`` flag with each positional choice, per ``0 = off``
    switch turned on, and one per ``--faults`` plan a help text
    documents."""
    out = []
    for name, sub in _subcommands(parser).items():
        base = SMALL[name]
        choices = [list(a.choices) for a in sub._actions
                   if not a.option_strings and a.choices]
        head = [name] + [c[0] for c in choices]
        heads = [head]
        for i, values in enumerate(choices):
            heads += [head[:1 + i] + [str(v)] + head[2 + i:]
                      for v in values[1:]]
        runs = [h + base for h in heads]
        for action in sub._actions:
            if not action.option_strings:
                continue
            flag = action.option_strings[-1]
            if isinstance(action, argparse._StoreTrueAction):
                # A switch may act on one positional choice only.
                if flag not in base:
                    runs += [h + base + [flag] for h in heads]
            elif action.choices:
                runs += [head + base + [flag, str(c)] for c in action.choices]
            elif _is_switch(action):
                runs.append(head + base + [flag, SWITCH_ON])
            for plan in re.findall(r"seed=\S+", action.help or ""):
                runs.append(head + base + [flag, plan])
        out += runs
    return out


def uncovered(parser: argparse.ArgumentParser,
              runs: Iterable[list[str]]) -> list[str]:
    """Subcommands, ``choices`` values, ``store_true`` flags and ``0 =
    off`` switches (as ``on``) of ``parser`` that no run in ``runs``
    selects."""
    seen: set[tuple[str, str, str]] = set()
    for argv in runs:
        ns = parser.parse_args(argv)
        for key, value in vars(ns).items():
            seen.add((argv[0], key, str(value)))
            if value:
                seen.add((argv[0], key, "on"))
    missing = []
    for name, sub in _subcommands(parser).items():
        if not any(cmd == name for cmd, _, _ in seen):
            missing.append(name)
            continue
        for action in sub._actions:
            values = ([True] if isinstance(action, argparse._StoreTrueAction)
                      else ["on"] if _is_switch(action)
                      else action.choices or ())
            missing += [f"{name} {action.dest}={v}" for v in values
                        if (name, action.dest, str(v)) not in seen]
    return missing


def _cli(argv: list[str]) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:            # argparse's usage errors
            pass


def _example(script: str, argv: list[str]) -> None:
    import runpy

    path = REPO_ROOT / "examples" / script
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = saved


def _workloads() -> None:
    sys.path.insert(0, str(E2E))
    from child import pass_seed
    from workloads import WORKLOADS

    from repro import telemetry

    for workload in WORKLOADS.values():
        ctx = workload.setup(0, E2E_SCALE)
        first = workload.run(ctx, workload.prepare(ctx, pass_seed(0, 0)))
        with telemetry.capture():
            second = workload.run(
                ctx, workload.prepare(ctx, pass_seed(0, 1)), True)
        workload.run_checks([first, second])


def run_roots(tmp: Path) -> None:
    """Every root, in this process."""
    import repro.bench.runner as runner
    from repro.cli import build_parser
    from tests.test_examples import INVOCATIONS

    (tmp / "job.sh").write_text(JOB_SCRIPT)
    runner.DEFAULT_BASELINE_DIR = tmp / "baselines"
    for argv in [*cli_roots(build_parser()), *CI_ROOTS]:
        _cli([a.replace("{tmp}", str(tmp)).replace("{repo}", str(REPO_ROOT))
              for a in argv])
    for script, argv in INVOCATIONS.values():
        _example(script, argv)
    _workloads()


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def canonical(value) -> str:
    """A value as the value rule compares it: ``None``, a ``bool``,
    ``int``, ``float``, ``str``, an ``Enum`` member, or a tuple of these,
    spelled by ``repr``; any other object is ``<its type>``."""
    if isinstance(value, Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, tuple):
        parts = [canonical(v) for v in value]
        if not any(map(is_object, parts)):
            return f"({', '.join(parts)}{',' * (len(parts) == 1)})"
    return f"<{type(value).__qualname__}>"


def is_object(value: str) -> bool:
    """Whether a :func:`canonical` spelling stands for a non-scalar."""
    return value.startswith("<")


#: How the tracer spells an object that is its owner's own default (a
#: default built when the ``def`` ran, or a dataclass field's
#: ``default_factory`` marker): omitting it is not passing an object.
DEFAULT = "<default>"


def _resolve(namespace: dict, qualname: str):
    """The function ``qualname`` (``func`` or ``Class.method``) names in a
    module's ``namespace``, or None."""
    head, _, member = qualname.partition(".")
    owner = namespace.get(head)
    if member:
        owner = vars(owner).get(member) if isinstance(owner, type) else None
    return getattr(owner, "__func__", owner)


def _defaults(function) -> dict[str, object]:
    """Parameter → default of ``function`` (nothing for None)."""
    if function is None:
        return {}
    return {name: p.default for name, p in inspect.signature(
        inspect.unwrap(function)).parameters.items()
        if p.default is not p.empty}


#: The ways an ``if`` went, as bits: into its body, and anywhere else.
TRUE, FALSE = 1, 2


def branch_ifs(tree: ast.AST, in_function: bool = False
               ) -> Iterable[tuple[ast.If, list[ast.stmt]]]:
    """Every ``if`` and ``elif`` inside a function of ``tree``, with the
    statements after it in its block (where it goes when false and it
    has no ``else``)."""
    for _, value in ast.iter_fields(tree):
        if not isinstance(value, list):
            continue
        for i, child in enumerate(value):
            if not isinstance(child, ast.AST):
                continue
            if in_function and isinstance(child, ast.If):
                yield child, value[i + 1:]
            yield from branch_ifs(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def raise_ways(node: ast.If, after: list[ast.stmt]) -> int:
    """The ways of ``node`` that may be its only one: those whose other
    way ends in a ``raise`` (the error contract owns that way)."""
    ways = 0
    if isinstance(node.body[-1], ast.Raise):
        ways |= FALSE
    other = node.orelse or after
    if other and isinstance(other[-1], ast.Raise):
        ways |= TRUE
    return ways


def branch_points(tree: ast.AST
                  ) -> dict[int, tuple[int, range, range, int]]:
    """Each line of each :func:`branch_ifs` test → ``(the if's line, the
    test's lines, the lines of the body's first statement, its
    raise_ways)``: an arc from the test into that statement is the true
    way, and any other arc out of the test, or a return from it, the
    false way."""
    points = {}
    for node, after in branch_ifs(tree):
        test = range(node.lineno, node.test.end_lineno + 1)
        point = (node.lineno, test, _span(node.body[0]),
                 raise_ways(node, after))
        for line in test:
            points[line] = point
    return points


class TracedFile:
    """What the tracer keeps of one file: its executed lines, the ways its
    ``if`` s went, its :func:`branch_points` and its raise-only and
    ``except`` lines (no rule asks whether they ran)."""

    __slots__ = ("hits", "ways", "points", "exempt")

    def __init__(self, path: str) -> None:
        tree = ast.parse(Path(path).read_text())
        self.hits: set[int] = set()
        #: ``if`` line → the ways it went (:data:`TRUE` | :data:`FALSE`).
        self.ways: dict[int, int] = {}
        self.points = branch_points(tree)
        self.exempt = exemptions(tree, "", {})[0]


class LineTracer:
    """Records ``(file, line)`` for every line executed in a file under
    ``root``, on every thread started while it is installed, the ways
    each ``if`` of those files went (:func:`branch_points`), and the
    :func:`canonical` values every call passes to the settable values
    ``spec`` (:func:`value_spec`) names, up to two per value."""

    def __init__(self, root: Path, spec: dict | None = None) -> None:
        self.prefix = str(root)
        #: Filename → its record (``None``: a file outside ``root``).
        self.files: dict[str, TracedFile | None] = {}
        #: Function code objects every line of which has run and every
        #: ``if`` of which has gone both ways, or its one raise way.
        self._done: set[CodeType] = set()
        #: Code objects a call teaches nothing any more: done, or outside
        #: ``root``, with no value left to watch.
        self._quiet: set[CodeType] = set()
        #: Code object → its lines not yet run, and its ``if`` s (line →
        #: raise_ways) not yet settled.
        self._left: dict[CodeType, tuple[set[int], dict[int, int]]] = {}
        spec = spec or {"functions": [], "classes": []}
        #: ``(file, line)`` of a function's ``def`` or first decorator →
        #: ``(label, values, qualname)``; ``(module, class)`` of a frozen
        #: dataclass → ``(label, values)``.
        self._functions = {(f, line): owner for f, lines, *owner
                           in spec["functions"] for line in lines}
        self._classes = {(m, c): owner for m, c, *owner in spec["classes"]}
        #: ``label.param`` → the values seen so far (at most two).
        self.values: dict[str, set[str]] = {}
        #: Code object → the ``(label.param, param, default)`` triples still
        #: to watch.
        self._watch: dict[CodeType, list[tuple[str, str, object]] | None] = {}

    def _owners(self, frame) -> list[tuple[str, str, object]] | None:
        code = frame.f_code
        owners = []
        owner = self._functions.get((code.co_filename, code.co_firstlineno))
        if owner is not None:
            label, params, qualname = owner
            owners.append((label, params, _resolve(frame.f_globals, qualname)))
        if code.co_name == "__init__" and not code.co_filename.startswith(
                self.prefix):
            # A dataclass's generated ``__init__``: its file is no file.
            mro = type(frame.f_locals.get("self")).__mro__
            classes = [self._classes.get((k.__module__, k.__qualname__))
                       for k in mro]
            init = next((k.__init__ for k in mro if getattr(
                k.__init__, "__code__", None) is code), None)
            owners += [(*owner, init) for owner in filter(None, classes)]
        watch = []
        for label, params, function in owners:
            defaults = _defaults(function)
            for param in params:
                self.values.setdefault(f"{label}.{param}", set())
                watch.append((f"{label}.{param}", param,
                              defaults.get(param)))
        return self._pending(watch)

    def _pending(self, watch: list[tuple[str, str, object]]
                 ) -> list[tuple[str, str, object]] | None:
        """The values of ``watch`` not yet seen to take two values."""
        return [w for w in watch if len(self.values[w[0]]) < 2] or None

    def _record(self, frame, watch: list[tuple[str, str, object]]
                ) -> list[tuple[str, str, object]] | None:
        """Record what ``frame`` passes to ``watch``; the values still to
        watch."""
        local = frame.f_locals
        for key, param, default in watch:
            value = local[param]
            spelled = canonical(value)
            if value is default and is_object(spelled):
                spelled = DEFAULT
            self.values[key].add(spelled)
        pending = self._watch[frame.f_code] = self._pending(watch)
        return pending

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code in self._quiet:
            return None
        try:
            watch = self._watch[code]
        except KeyError:
            watch = self._watch[code] = self._owners(frame)
        if watch:
            watch = self._record(frame, watch)
        if code in self._done:
            if not watch:
                self._quiet.add(code)
            return None
        file = code.co_filename
        try:
            traced = self.files[file]
        except KeyError:
            # Built whole, then published in one step: a thread entering
            # the file meanwhile builds its own, and the first one wins.
            inside = file.startswith(self.prefix)
            traced = self.files.setdefault(
                file, TracedFile(file) if inside else None)
        if traced is None:
            if not watch:
                self._quiet.add(code)
            return None
        hits, ways, points = traced.hits, traced.ways, traced.points
        hits.add(code.co_firstlineno)
        left = self._left.get(code)
        if left is None:
            lines = {line for *_, line in code.co_lines()
                     if line is not None} - traced.exempt
            left = self._left[code] = (lines, {
                points[line][0]: points[line][3]
                for line in lines if line in points})
        settle = self._settle
        if not left[1]:
            def local(frame, event, arg):
                if event == "line":
                    hits.add(frame.f_lineno)
                elif event == "return":
                    settle(code, left, hits, ways)
                return local
            return local
        last = None

        def local(frame, event, arg):
            # ``last`` is the line this call ran before the current one:
            # when it was an ``if`` test, the line after it is the way.
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                hits.add(line)
                if last in points:
                    at, test, body, _ = points[last]
                    if line not in test:
                        ways[at] = ways.get(at, 0) | (
                            TRUE if line in body else FALSE)
                last = line
            elif event == "return":
                if last in points:          # returned from the test
                    at = points[last][0]
                    ways[at] = ways.get(at, 0) | FALSE
                settle(code, left, hits, ways)
            elif event == "exception":      # a raise is neither way
                last = None
            return local
        return local

    def _settle(self, code: CodeType, left: tuple[set[int], dict[int, int]],
                hits: set[int], ways: dict[int, int]) -> None:
        """Stop tracing ``code`` once every line of it has run and each of
        its ``if`` s went both ways or its one raise way (the rule's
        verdict on it cannot change any more)."""
        lines, ifs = left
        lines.difference_update(hits)
        for at in [at for at, alone in ifs.items()
                   if ways.get(at, 0) == TRUE | FALSE
                   or ways.get(at, 0) & alone]:
            del ifs[at]
        if not lines and not ifs:
            self._done.add(code)

    def __enter__(self) -> "LineTracer":
        self._saved = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved)
        threading.settrace(self._saved)

    def executed(self) -> dict[str, list[int]]:
        return {f: sorted(t.hits) for f, t in self.files.items()
                if t is not None and t.hits}

    def seen(self) -> dict[str, list[str]]:
        return {key: sorted(v) for key, v in self.values.items() if v}

    def branches(self) -> dict[str, dict[int, int]]:
        return {f: t.ways for f, t in self.files.items()
                if t is not None and t.ways}


def value_spec(owners: dict[str, Settable], path: Callable[[str], str]
               ) -> dict:
    """What :class:`LineTracer` watches, as JSON: each function owner by
    its file (``path(module)``) and the lines its code object may start on
    (``def`` and first decorator; Python 3.10 has no ``co_qualname``), with
    its label, defaulted values and name in its module (where the tracer
    reads the defaults); each frozen dataclass by ``(module, class)``, with
    its label and defaulted values."""
    spec: dict = {"functions": [], "classes": []}
    for label, owner in sorted(owners.items()):
        if owner.fields:
            spec["classes"].append([owner.module, owner.node.name, label,
                                    owner.defaulted])
        elif owner.defaulted:
            lines = sorted({owner.node.lineno, _span(owner.node).start})
            qualname = label[len(owner.module) + 1:]
            if owner.node.name == "__init__":
                qualname += ".__init__"
            spec["functions"].append([path(owner.module), lines, label,
                                      owner.defaulted, qualname])
    return spec


def source_path(module: str) -> str:
    """The file of a ``src/`` module."""
    path = SRC.joinpath(*module.split("."))
    return str(path / "__init__.py" if path.is_dir() else
               path.with_suffix(".py"))


def trace_roots(out: Path, tmp: Path, spec: Path) -> None:
    """Run :func:`run_roots` under the tracer, watching the values the
    JSON file ``spec`` names; write the executed lines of ``src/repro``,
    the ways its ``if`` s went and the values seen to ``out`` as JSON."""
    with LineTracer(SRC / "repro", json.loads(spec.read_text())) as tracer:
        run_roots(tmp)
    out.write_text(json.dumps({"executed": tracer.executed(),
                               "branches": tracer.branches(),
                               "values": tracer.seen()}))


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------

def executable_lines(code: CodeType) -> set[int]:
    """Lines of every function code object in ``code`` (module and class
    bodies excluded), each function's first line included: Python 3.11
    puts an instruction there, 3.10 does not."""
    lines: set[int] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        if c.co_flags & inspect.CO_OPTIMIZED:
            lines.add(c.co_firstlineno)
            lines.update(line for *_, line in c.co_lines() if line is not None)
        stack += [k for k in c.co_consts if isinstance(k, CodeType)]
    return lines


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(
        node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def exemptions(tree: ast.Module, module: str,
               allowlist: dict[str, str]) -> tuple[set[int], dict[str, set[int]]]:
    """Raise-only and handler lines of ``tree``, and the lines of each
    allowlisted function or class (by allowlist key)."""
    exempt: set[int] = set()
    allowed: dict[str, set[int]] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Raise, ast.ExceptHandler)):
                exempt.update(_span(child))
            if isinstance(child, ast.If):
                for block in (child.body, child.orelse):
                    if block and isinstance(block[-1], ast.Raise):
                        for stmt in block:
                            exempt.update(_span(stmt))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if name in allowlist:
                    allowed.setdefault(name, set()).update(_span(child))
                walk(child, name)
            else:
                walk(child, prefix)

    walk(tree, module)
    return exempt, allowed


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def unexecuted(files: dict[str, str], executed: dict[str, Iterable[int]],
               allowlist: dict[str, str]) -> tuple[list[str], set[str]]:
    """``module:line`` of every executable line of ``files`` (module name
    → source; the key of ``executed`` is the module name too) that no
    root ran, minus the exemptions; and the allowlist keys that cover
    such a line."""
    out: list[str] = []
    needed: set[str] = set()
    for module, text in sorted(files.items()):
        tree = ast.parse(text)
        lines = executable_lines(compile(tree, module, "exec"))
        missed = lines - set(executed.get(module, ()))
        exempt, allowed = exemptions(tree, module, allowlist)
        missed -= exempt
        for name, span in allowed.items():
            if missed & span:
                needed.add(name)
                missed -= span
        out += [f"{module}:{line}" for line in sorted(missed)]
    return out, needed


def _source_files() -> dict[str, str]:
    return {module_name(p): p.read_text()
            for p in sorted((SRC / "repro").rglob("*.py"))}


@functools.cache
def traced_run() -> tuple[dict[str, list[int]], dict[str, dict[int, int]],
                          dict[str, list[str]]]:
    """Run the roots once, in a fresh process: the executed lines of each
    module (by module name), the ways each of its ``if`` s went and the
    values each settable value took."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "traced.json"
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(value_spec(repository()[3], source_path)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), str(REPO_ROOT)]))
        env.pop("ENGINE", None)
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from pathlib import Path; "
             "from tests.test_line_roots import trace_roots; "
             "trace_roots(*map(Path, sys.argv[1:]))",
             str(out), tmp, str(spec)],
            cwd=tmp, env=env, check=True)
        raw = json.loads(out.read_text())
    executed = {module_name(Path(f)): lines
                for f, lines in raw["executed"].items()}
    branches = {module_name(Path(f)): {int(line): way
                                       for line, way in ways.items()}
                for f, ways in raw["branches"].items()}
    return executed, branches, raw["values"]


def one_way(files: dict[str, str], branches: dict[str, dict[int, int]],
            allowlist: dict[str, str]) -> tuple[list[str], set[str]]:
    """``module:line way`` of every ``if`` of ``files`` that the roots
    took one way only, outside the exemptions: an ``if`` whose other way
    ends in a ``raise`` (the error contract), one on a raise-only or
    ``except`` line, and one in an allowlisted function; and the
    allowlist keys that cover such an ``if``."""
    out: list[str] = []
    needed: set[str] = set()
    for module, ways in sorted(branches.items()):
        tree = ast.parse(files[module])
        exempt, allowed = exemptions(tree, module, allowlist)
        for node, after in branch_ifs(tree):
            way = ways.get(node.lineno)
            if (way not in (TRUE, FALSE) or node.lineno in exempt
                    or way & raise_ways(node, after)):
                continue
            names = {name for name, span in allowed.items()
                     if node.lineno in span}
            if names:
                needed |= names
            else:
                out.append(f"{module}:{node.lineno} "
                           f"{'true' if way == TRUE else 'false'} only")
    return out, needed


def single_valued(values: dict[str, Iterable[str]], allowlist: dict[str, str]
                  ) -> tuple[list[str], set[str]]:
    """``label = value`` for every settable value that took exactly one
    :func:`canonical` value in every call (a scalar, or objects of one
    type: then no call left the default), outside the allowlist; and the
    allowlist keys that cover such a value."""
    out: list[str] = []
    needed: set[str] = set()
    for label, seen in sorted(values.items()):
        seen = list(seen)
        if len(seen) != 1:
            continue
        if label in allowlist:
            needed.add(label)
        else:
            out.append(f"{label} = {seen[0]}")
    return out, needed


def stale(allowlist: dict[str, str], *needs: Iterable[str]) -> list[str]:
    """Allowlist keys that no rule needs."""
    return sorted(set(allowlist).difference(*needs))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_every_executed_line_has_a_root():
    missed, _ = unexecuted(_source_files(), traced_run()[0], ALLOWLIST)
    assert not missed, (
        f"{len(missed)} lines of src/repro are executed by no root (delete "
        f"the branch, give it a root, or allowlist its function with a "
        f"reason):\n  " + "\n  ".join(missed))


@pytest.mark.slow
def test_every_if_goes_both_ways():
    single, _ = one_way(_source_files(), traced_run()[1], ALLOWLIST)
    assert not single, (
        f"{len(single)} ifs of src/repro go one way in every root (delete "
        f"the test and the way no root takes, give that way a root, or "
        f"allowlist the function with a reason):\n  " + "\n  ".join(single))


@pytest.mark.slow
def test_every_settable_value_takes_two_values():
    single, _ = single_valued(traced_run()[2], ALLOWLIST)
    assert not single, (
        f"{len(single)} settable values of src/repro take one value in every "
        f"root call (fold a scalar into that value, drop a dead object "
        f"default, or allowlist it with one of DESIGN §18's exemptions):"
        f"\n  " + "\n  ".join(single))


@pytest.mark.slow
def test_every_allowlist_entry_is_needed():
    executed, branches, values = traced_run()
    files = _source_files()
    _, line_needs = unexecuted(files, executed, ALLOWLIST)
    _, branch_needs = one_way(files, branches, ALLOWLIST)
    _, value_needs = single_valued(values, ALLOWLIST)
    _, unused, write_only, _ = repository()
    gone = stale(ALLOWLIST, unused + write_only, line_needs, branch_needs,
                 value_needs)
    assert not gone, f"allowlisted but needed by no rule: {gone}"


def test_cli_roots_cover_every_subcommand_choice_and_flag():
    from repro.cli import build_parser

    parser = build_parser()
    assert set(SMALL) == set(_subcommands(parser))
    runs = cli_roots(parser)
    assert uncovered(parser, runs) == []
    # The two fault plans ``serve --help`` documents.
    assert sum("--faults" in r for r in runs) == 2


# -- the tracer's own spellings --------------------------------------------

TOY = '''\
def f(x):
    if x:
        y = 1
    else:
        y = 2
    return y


def g(x):
    if x < 0:
        why = "negative"
        raise ValueError(
            why)
    try:
        return 1 / x
    except ZeroDivisionError:
        return 0


def spare():
    return 3


def threaded(box):
    box.append(1)


def pick(x):
    if x == 1:
        return "one"
    raise KeyError(x)
'''


def _toy_missed(fn, allowlist=None) -> tuple[list[str], list[str], set[str]]:
    """Trace ``fn(namespace)`` over :data:`TOY` compiled as ``toy``: the
    lines no call ran, the ``if`` s that went one way, and the allowlist
    keys either rule needs."""
    allowlist = allowlist or {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.py"
        path.write_text(TOY)
        namespace: dict = {}
        exec(compile(TOY, str(path), "exec"), namespace)
        with LineTracer(Path(tmp)) as tracer:
            fn(namespace)
    executed = {"toy": tracer.executed().get(str(path), [])}
    branches = {"toy": tracer.branches().get(str(path), {})}
    missed, line_needs = unexecuted({"toy": TOY}, executed, allowlist)
    single, branch_needs = one_way({"toy": TOY}, branches, allowlist)
    return missed, single, line_needs | branch_needs


def _lines(missed: list[str]) -> list[int]:
    return [int(m.rpartition(":")[2]) for m in missed]


class _Unjudgeable:
    """A test value whose truth raises."""

    def __bool__(self):
        raise ValueError("no truth value")


def test_tracer_flags_an_untaken_branch():
    def run(ns):
        ns["f"](True)
        with contextlib.suppress(ValueError):
            ns["f"](_Unjudgeable())         # a raise in the test: no way
        ns["g"](1)
        ns["spare"]()
        ns["threaded"]([])
        ns["pick"](1)
    missed, single, _ = _toy_missed(run)
    assert _lines(missed) == [5]            # ``y = 2``
    assert single == ["toy:2 true only"]
    # Allowlisting the function exempts both, and both rules need it.
    assert _toy_missed(run, {"toy.f": "a guard"}) == ([], [], {"toy.f"})


def test_tracer_exempts_raise_only_lines_and_except_bodies():
    def run(ns):
        ns["f"](True)
        ns["f"](False)
        ns["g"](2)
        ns["spare"]()
        ns["threaded"]([])
        ns["pick"](1)
    # The raise-only branch (three lines) and the handler never ran:
    # exempt.  ``f``'s ``if`` went both ways; ``g``'s went one way, and
    # ``pick``'s the other one, but their other ways raise.
    assert _toy_missed(run) == ([], [], set())
    # An arc from a test into its body is the true way, any other arc
    # (the next statement, a loop header, a return) the false one.
    points = branch_points(ast.parse(TOY))
    assert points[2] == (2, range(2, 3), range(3, 4), 0)
    assert points[10][3] == FALSE and points[29][3] == TRUE
    assert set(points) == {2, 10, 29}


def test_tracer_counts_a_line_run_only_on_a_thread():
    def run(ns):
        ns["f"](True)
        ns["g"](2)
        ns["spare"]()
        ns["pick"](1)
        # ``f``'s false way, and ``threaded``, run on threads only.
        for target, args in ((ns["f"], (False,)), (ns["threaded"], ([],))):
            t = threading.Thread(target=target, args=args)
            t.start()
            t.join()
    assert _toy_missed(run) == ([], [], set())


def test_tracer_builds_a_file_before_another_thread_sees_it(monkeypatch):
    """A thread that enters a file while another still reads it finds a
    whole record or builds its own, never half of one."""
    reading, release = threading.Event(), threading.Event()
    read_text = Path.read_text

    def slow_read(path, *args, **kwargs):
        if not reading.is_set():            # the worker's read: hold it
            reading.set()
            release.wait(10)
        return read_text(path, *args, **kwargs)

    def run(ns):
        worker = threading.Thread(target=ns["threaded"], args=([],))
        worker.start()
        assert reading.wait(10)
        try:
            ns["f"](True)                   # enters toy.py mid-read
        finally:
            release.set()
            worker.join()
        ns["f"](False)
        ns["g"](2)
        ns["spare"]()
        ns["pick"](1)
    monkeypatch.setattr(Path, "read_text", slow_read)
    assert _toy_missed(run) == ([], [], set())


def test_tracer_flags_a_function_never_called_unless_allowlisted():
    def run(ns):
        ns["f"](True)
        ns["f"](False)
        ns["g"](2)
        ns["threaded"]([])
        ns["pick"](1)
    missed, _, _ = _toy_missed(run)
    assert _lines(missed) == [20, 21]       # ``spare``, def line included
    assert _toy_missed(run, {"toy.spare": "a reference"}) == (
        [], [], {"toy.spare"})


def test_stale_allowlist_entry_is_reported():
    def run(ns):
        ns["f"](True)
        ns["f"](False)
        ns["g"](2)
        ns["spare"]()
        ns["threaded"]([])
        ns["pick"](1)
    allowlist = {"toy.spare": "executed, so stale", "toy.gone": "missing",
                 "toy.f": "both ways, so stale",
                 "toy.f.kept": "a settable value the static rules need"}
    _, _, needed = _toy_missed(run, allowlist)
    assert stale(allowlist, ["toy.f.kept"], needed) == [
        "toy.f", "toy.gone", "toy.spare"]


# -- the value rule's own spellings -----------------------------------------

TOY_VALUES = '''\
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Cfg:
    rate: float
    burst: float = 5.0
    name: str = "a"
    clock: object = field(default_factory=list)


LOG = []


def step(x, lr=0.1, momentum=0.0, shape=None, rng=None, log=LOG):
    return x


def threaded(box, flag=False):
    box.append(flag)
'''


def _toy_values(fn, allowlist=None) -> tuple[list[str], set[str]]:
    """Trace ``fn(namespace)`` over :data:`TOY_VALUES` compiled as ``toy``,
    watching the settable values the static scanner finds there; report
    the single-valued ones."""
    program = Program({"toy": (TOY_VALUES, False)})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.py"
        path.write_text(TOY_VALUES)
        spec = value_spec(program.settable("toy"), lambda module: str(path))
        namespace: dict = {"__name__": "toy"}
        exec(compile(TOY_VALUES, str(path), "exec", dont_inherit=True),
             namespace)
        with LineTracer(Path(tmp), json.loads(json.dumps(spec))) as tracer:
            fn(namespace)
    return single_valued(tracer.seen(), allowlist or {})


def _toy_calls(ns) -> None:
    ns["step"](1, lr=0.2, shape=[1], rng=random.Random(1), log=[])
    ns["step"](2, shape=(1, [2]), rng=random.Random(2))
    ns["Cfg"](1.0, burst=2.0, clock=[])
    ns["Cfg"](2.0, clock=[1])
    ns["threaded"]([], True)
    ns["threaded"]([], False)


def test_value_rule_flags_a_parameter_every_call_passes_one_value():
    single, _ = _toy_values(_toy_calls)
    # ``lr`` took 0.2 and its default: two values.  ``momentum`` was
    # omitted every time, which passes its default.
    assert "toy.step.momentum = 0.0" in single
    assert not any(s.startswith("toy.step.lr ") for s in single)
    # Every call passed a Random, and every Cfg a list: dead defaults.
    assert "toy.step.rng = <Random>" in single
    assert "toy.Cfg.clock = <list>" in single
    # One call that leaves the default (a ``None``, or a
    # ``default_factory`` that builds the same type) keeps the value.
    def run(ns):
        _toy_calls(ns)
        ns["step"](3)
        ns["Cfg"](3.0)
    single, _ = _toy_values(run)
    assert not any(s.startswith(("toy.step.rng ", "toy.Cfg.clock "))
                   for s in single)


def test_value_rule_reads_a_frozen_field_through_its_generated_init():
    single, _ = _toy_values(_toy_calls)
    assert "toy.Cfg.name = 'a'" in single
    assert not any(s.startswith("toy.Cfg.burst ") for s in single)


def test_value_rule_sees_a_value_passed_only_on_a_thread():
    def run(ns):
        _toy_calls(ns)
        ns["threaded"]([])
        t = threading.Thread(target=ns["threaded"], args=([], True))
        t.start()
        t.join()
    single, _ = _toy_values(run)
    assert not any(s.startswith("toy.threaded.flag ") for s in single)
    single, _ = _toy_values(lambda ns: ns["threaded"]([]))
    assert single == ["toy.threaded.flag = False"]


def test_value_rule_ignores_a_non_scalar():
    # ``shape`` took a list and a tuple holding a list: two object types,
    # so two values.  ``log`` took a list once and once its default, a
    # list built when the ``def`` ran: the tracer spells that one
    # :data:`DEFAULT`.
    single, _ = _toy_values(_toy_calls)
    assert single == ["toy.Cfg.clock = <list>", "toy.Cfg.name = 'a'",
                      "toy.step.momentum = 0.0", "toy.step.rng = <Random>"]
    assert canonical((1, "a", None, 2.5)) == "(1, 'a', None, 2.5)"
    assert canonical(()) == "()" and canonical((True,)) == "(True,)"
    assert is_object(canonical((1, [2])))
    assert canonical(random.Random(0)) == "<Random>"


def test_value_rule_skips_an_allowlisted_value_and_needs_its_entry():
    allowlist = {"toy.step.momentum": "a seed", "toy.step.lr": "two values",
                 "toy.step.rng": "an object every call passes"}
    single, needed = _toy_values(_toy_calls, allowlist)
    assert single == ["toy.Cfg.clock = <list>", "toy.Cfg.name = 'a'"]
    assert needed == {"toy.step.momentum", "toy.step.rng"}
    assert stale(allowlist, needed) == ["toy.step.lr"]


def test_cli_roots_flag_a_new_flag_without_a_root():
    parser = argparse.ArgumentParser(prog="toy")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("mode", choices=("a", "b"))
    p.add_argument("--fast", action="store_true")
    p.add_argument("--level", choices=("lo", "hi"), default="lo")
    p.add_argument("--cap", type=int, default=0, help="limit (0 = off)")
    runs = [["run", "a", "--cap", "3"], ["run", "b", "--fast"],
            ["run", "a", "--level", "hi"]]
    assert uncovered(parser, runs) == []
    p.add_argument("--new", action="store_true")
    p.add_argument("--quota", type=int, default=0, help="quota (0 = off)")
    sub.add_parser("other")
    assert uncovered(parser, runs) == ["run new=True", "run quota=on",
                                       "other"]
