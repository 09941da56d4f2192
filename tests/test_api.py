"""The public API carries no dead weight, and its records share one idiom.

Every name ``biblio`` exports is either used by the package itself or
documented under README's "Library use"; anything else is code only the
tests keep alive. Result records are ``NamedTuple``s; a dataclass is kept
only where it is named below, with its reason.
"""
import ast
import dataclasses
import enum
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import biblio

ROOT = Path(__file__).parent.parent


def names_used_in_the_package() -> set[str]:
    """Every identifier read as a name or an attribute outside ``__init__``;
    definitions and imports do not count."""
    used = set()
    for path in (ROOT / "src" / "biblio").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_or_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    used = names_used_in_the_package()
    unaccounted = [
        name for name in biblio.__all__
        if name not in used and not re.search(rf"\b{name}\b", library_use)
    ]
    assert unaccounted == []


# The classes that stay dataclasses: Paper, whose attribute reads are faster so,
# the configs whose __post_init__ checks their fields, and the mutable LoadReport.
DATACLASSES = {"Paper", "CnciConfig", "TiebreakMethod", "SizeDist", "CitationModel",
               "GenConfig", "LoadReport"}


def test_every_record_is_a_named_tuple():
    """Every class the package defines, exported or not, is a NamedTuple, an
    Enum, an exception or Corpus, or else one of the named dataclasses."""
    classes = {
        name: cls
        for module in pkgutil.iter_modules(biblio.__path__, "biblio.")
        for name, cls in inspect.getmembers(importlib.import_module(module.name), inspect.isclass)
        if cls.__module__ == module.name
    }
    others = {
        name for name, cls in classes.items()
        if not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
        and not issubclass(cls, (enum.Enum, Exception, biblio.Corpus))
    }
    assert others == DATACLASSES
    assert all(dataclasses.is_dataclass(classes[name]) for name in DATACLASSES)
