"""The public API carries no dead weight.

Every name ``biblio`` exports is either used by the package itself or
documented under README's "Library use"; anything else is code only the
tests keep alive.
"""
import ast
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
