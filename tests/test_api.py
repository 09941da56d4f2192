"""The public API carries no dead weight, and its records share one idiom.

Every name ``biblio`` exports is either used by the package itself or
documented under README's "Library use"; anything else is code only the
tests keep alive. The package loads its submodules on first use, and the
names it exports, and what they are, stay as they were when it imported every
submodule up front. Result records are ``NamedTuple``s; a dataclass is kept
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

import pytest

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
DATACLASSES = {"Paper", "CnciConfig", "SizeDist", "CitationModel", "GenConfig", "LoadReport"}


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


# The exports, in order, as they were when the package imported every module.
EXPORTS = [
    "AuthorCredit", "BaselineTable", "BiblioError", "CellKey", "CitationEdge",
    "CitationModel", "CnciConfig", "ComputationError", "Corpus", "EmptyInputError",
    "EntityShare", "ExcellenceReport", "GenConfig", "HcpDecision", "Journal", "LoadError",
    "LoadReport", "MissingDateError", "Paper", "Quartile", "RankedCategory", "SchemaInfo",
    "SizeDist", "SurplusEstimate", "ThresholdResult", "ValidationReport",
    "ZeroBaselineError", "boundary_ties", "cnci_paper", "cnci_set",
    "compute_baselines", "decimal_str", "dump_corpus", "entity_hcp_share",
    "generate_corpus", "global_cnci", "hcp_report", "hcp_run",
    "hcp_selection", "load_corpus", "monte_carlo_global_cnci", "monte_carlo_surplus",
    "parse_tiebreak_chain", "percentile", "provisional_hcp_ids", "quartile_distribution",
    "quartile_of_rank", "quartile_partition", "rank_category", "rational_json",
    "rational_str", "relative_cnci", "round_half_up", "surplus_analytic",
    "tiebreak_chronology", "tiebreak_citing_excellence", "tiebreak_trajectory", "validate",
]


def test_the_exported_names_are_unchanged():
    assert biblio.__all__ == EXPORTS


def test_every_export_is_the_object_its_home_module_defines():
    for name in EXPORTS:
        value = getattr(biblio, name)
        assert value.__module__.startswith("biblio."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_dir_and_star_import_cover_every_export():
    assert set(EXPORTS) <= set(dir(biblio))
    namespace = {}
    exec("from biblio import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'biblio' has no attribute 'nope'$"):
        biblio.nope
    assert not hasattr(biblio, "nope")


def test_the_renderers_are_plain_functions():
    """perfbench's tracer counts rendered values by wrapping what
    ``inspect.isfunction`` accepts; a renderer that was itself a memo's
    wrapper object would silently drop out of that count."""
    from biblio import rounding

    for name in ("rational_json", "decimal_str", "rational_str"):
        assert inspect.isfunction(getattr(rounding, name)), name
        assert getattr(biblio, name) is getattr(rounding, name), name
