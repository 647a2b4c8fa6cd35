"""The docs name only code that exists.

Every code span of ``README.md``, ``DESIGN.md`` and ``docs/*.md``
(inline or fenced) is scanned for two kinds of reference:

* a dotted ``repro.…`` path must import as a module or resolve to an
  attribute of one;
* ``Class.member``, where ``Class`` is a class defined in ``repro``, must
  name a class attribute or an attribute the class's source assigns to
  ``self``.

A renamed method or a deleted module then fails here instead of leaving
a stale name in the docs.  Every ``python -m repro <command> …`` line in
a code span whose command is a real subcommand must also parse with the
CLI's own parser (parse only, nothing runs), so a removed flag cannot
linger in a literal example.  Every experiment id in a ``python -m
repro.bench …`` or ``python -m repro bench …`` line must be one that
``repro.bench`` runs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import pathlib
import pkgutil
import re
import shlex

import repro
from repro import cli
from repro.bench.__main__ import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
# An inline span may wrap onto the next line, but not across a blank one.
_SPAN = re.compile(r"`((?:[^`\n]|\n(?!\s*\n))+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_MEMBER = re.compile(r"\b([A-Z]\w*)\.(\w+)")
_CLI_LINE = re.compile(r"\bpython3? -m repro(?=\s|$)(.*)")
_BENCH_LINE = re.compile(r"\bpython3? -m repro(?:\.bench| bench)(?=\s|$)(.*)")
# The bench's option values are numbers, so a word token is an id.
_EXPERIMENT_ID = re.compile(r"[a-z]\w*")
_SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "<", "2>&1", "&"}


def _references(pattern):
    """``(reference, doc name)`` for every match in a code span."""
    found = []
    for path in DOCS:
        for code in _codes(path):
            found.extend((m.group(0), path.name) for m in pattern.finditer(code))
    return found


def _codes(path):
    """The fenced blocks and inline spans of one doc; a wrapped inline
    span is joined onto one line."""
    text = path.read_text()
    return _FENCE.findall(text) + [
        span.replace("\n", " ") for span in _SPAN.findall(_FENCE.sub("", text))
    ]


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def _repro_classes():
    """Class name → the classes of that name defined in ``repro``."""
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                classes.setdefault(name, []).append(obj)
    return classes


def _has_member(cls, member):
    if hasattr(cls, member):
        return True
    assigned = re.compile(
        r"\bself\.%s\s*(?::[^=\n]+)?=(?!=)" % re.escape(member)
    )
    return any(
        assigned.search(inspect.getsource(klass))
        for klass in cls.__mro__
        if klass.__module__.startswith("repro")
    )


def test_dotted_paths_resolve():
    references = _references(_DOTTED)
    assert references
    stale = sorted({(doc, ref) for ref, doc in references
                    if not _resolves(ref)})
    assert not stale, stale


def test_class_members_exist():
    classes = _repro_classes()
    checked = [(ref, doc) for ref, doc in _references(_MEMBER)
               if ref.split(".")[0] in classes]
    assert checked
    stale = sorted({
        (doc, ref) for ref, doc in checked
        if not any(_has_member(cls, ref.split(".")[1])
                   for cls in classes[ref.split(".")[0]])
    })
    assert not stale, stale


def _command_lines(pattern):
    """``(argv, doc name)`` of every ``pattern`` line in a code span, cut
    at the first shell operator."""
    found = []
    for path in DOCS:
        for code in _codes(path):
            for match in pattern.finditer(code.replace("\\\n", " ")):
                argv = []
                for token in shlex.split(match.group(1), comments=True):
                    if token in _SHELL_OPERATORS:
                        break
                    argv.append(token)
                found.append((argv, path.name))
    return found


def _cli_lines():
    """``(argv, doc name)`` of every CLI line whose command exists."""
    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [(argv, doc) for argv, doc in _command_lines(_CLI_LINE)
            if argv and argv[0] in subparsers.choices]


def test_cli_lines_parse():
    lines = _cli_lines()
    assert lines
    rejected = []
    for argv, doc in lines:
        errors = io.StringIO()
        try:
            with contextlib.redirect_stderr(errors):
                cli._build_parser().parse_args(argv)
        except SystemExit:
            rejected.append((doc, " ".join(argv),
                             errors.getvalue().strip().splitlines()[-1]))
    assert not rejected, rejected


def test_bench_lines_name_experiments():
    lines = _command_lines(_BENCH_LINE)
    assert lines
    known = set(EXPERIMENTS) | {"all", "regression"}
    stale = []
    for argv, doc in lines:
        for token in argv:
            if token == "regression":
                break  # its options take paths, and it has no ids
            if _EXPERIMENT_ID.fullmatch(token) and token not in known:
                stale.append((doc, token))
    assert not stale, stale
