"""The docs name only code that exists.

Every code span of ``README.md``, ``DESIGN.md`` and ``docs/*.md``
(inline or fenced) is scanned for two kinds of reference:

* a dotted ``repro.…`` path must import as a module or resolve to an
  attribute of one;
* ``Class.member``, where ``Class`` is a class defined in ``repro``, must
  name a class attribute or an attribute the class's source assigns to
  ``self``.

A renamed method or a deleted module then fails here instead of leaving
a stale name in the docs.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_MEMBER = re.compile(r"\b([A-Z]\w*)\.(\w+)")


def _references(pattern):
    """``(reference, doc name)`` for every match in a code span."""
    found = []
    for path in DOCS:
        text = path.read_text()
        codes = _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))
        for code in codes:
            found.extend((m.group(0), path.name) for m in pattern.finditer(code))
    return found


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
