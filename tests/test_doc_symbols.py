"""Every code name the docs cite must exist in ``src/``.

The followed docs (README.md, DESIGN.md and ``docs/*.md``) point the
reader at code by name.  Two kinds of backticked name are resolved here:

* a dotted ``repro.*`` name, anywhere in a code span: the longest
  importable module prefix, then attributes down the rest;
* a ``Class.attr`` chain (a CamelCase class name, then attributes): some
  class of that name in the ``repro`` package must carry the chain, as a
  class attribute or a dataclass field.

A renamed or deleted function, module, class or attribute fails here
until the doc names what the code has.
"""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
#: A class name has a lower-case second letter, which keeps file names
#: (``CHANGES.md``) and constants (``SCHEMA.state_fingerprint``) out.
CLASS_ATTR = re.compile(r"(?<![\w.])[A-Z][a-z]\w*(?:\.\w+)+")


def _cited(pattern):
    """``(name, doc)`` for every match of ``pattern`` in a code span."""
    found = set()
    for doc in DOCS:
        for span in SPAN.findall(doc.read_text(encoding="utf-8")):
            for name in pattern.findall(span):
                found.add((name, doc.relative_to(ROOT).as_posix()))
    return sorted(found)


def _classes():
    """Class name -> every class of that name defined in ``repro``."""
    by_name = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                by_name.setdefault(value.__name__, []).append(value)
    return by_name


def _has_chain(obj, attrs):
    """Whether ``obj.a.b...`` exists; the last link may also be a
    dataclass field without a default (no class attribute)."""
    for i, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif i == len(attrs) - 1:
            return attr in getattr(obj, "__dataclass_fields__", {})
        else:
            return False
    return True


def _resolves_dotted(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        return _has_chain(obj, parts[cut:])
    return False


DOTTED_NAMES = _cited(DOTTED)
CLASS_ATTRS = _cited(CLASS_ATTR)


def test_the_docs_cite_code_names():
    # Guards the scan itself: a regex that stopped matching would make
    # the tests below vacuous.
    assert len(DOTTED_NAMES) >= 40 and len(CLASS_ATTRS) >= 15


@pytest.mark.parametrize("name, doc", DOTTED_NAMES)
def test_dotted_repro_name_resolves(name, doc):
    assert _resolves_dotted(name), f"{doc} cites `{name}`, which src/ lacks"


@pytest.fixture(scope="module")
def classes():
    return _classes()


@pytest.mark.parametrize("name, doc", CLASS_ATTRS)
def test_class_attribute_resolves(name, doc, classes):
    cls, *attrs = name.split(".")
    assert cls in classes, f"{doc} cites `{name}`; no class {cls} in repro"
    assert any(_has_chain(c, attrs) for c in classes[cls]), (
        f"{doc} cites `{name}`, which no class {cls} in repro has"
    )


def test_a_missing_name_does_not_resolve():
    assert not _resolves_dotted("repro.simulator.fleet.no_such_name")
    assert not _resolves_dotted("repro.no_such_module")
    assert not _has_chain(dataclasses.make_dataclass("Probe", ["a"]), ["b"])
