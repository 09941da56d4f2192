"""Exact-arithmetic bibliometric indicators.

Journal rankings with percentiles and quartiles, field-normalized citation
impact under whole and fractional counting, highly cited paper selection with
deterministic tie-breaking, and a seeded synthetic-corpus simulator. All
indicator math is exact rational; rounding happens only at the display edge.

Importing the package loads no submodule: each public name, and each
submodule, is imported on first use (PEP 562), so a process pays only for the
modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

# Every public name and the submodule that defines it, written once: both
# ``__all__`` and ``__getattr__`` read this table.
_HOME = {
    **dict.fromkeys((
        "AuthorCredit", "CellKey", "CitationEdge", "Corpus", "Journal", "Paper",
        "SchemaInfo", "ValidationReport", "validate",
    ), "corpus"),
    **dict.fromkeys((
        "BiblioError", "ComputationError", "EmptyInputError", "LoadError",
        "MissingDateError", "ZeroBaselineError",
    ), "errors"),
    **dict.fromkeys((
        "EntityShare", "ExcellenceReport", "HcpDecision", "ThresholdResult",
        "entity_hcp_share", "hcp_report", "hcp_run", "hcp_selection",
        "parse_tiebreak_chain", "provisional_hcp_ids", "tiebreak_chronology",
        "tiebreak_citing_excellence", "tiebreak_trajectory",
    ), "excellence"),
    **dict.fromkeys(("LoadReport", "dump_corpus", "load_corpus"), "io"),
    **dict.fromkeys((
        "BaselineTable", "CnciConfig", "cnci_paper", "cnci_set", "compute_baselines",
        "global_cnci", "relative_cnci",
    ), "normalization"),
    **dict.fromkeys((
        "Quartile", "RankedCategory", "boundary_ties", "percentile", "quartile_distribution",
        "quartile_of_rank", "quartile_partition", "rank_category",
    ), "ranking"),
    **dict.fromkeys(("decimal_str", "rational_json", "rational_str", "round_half_up"),
                    "rounding"),
    **dict.fromkeys((
        "CitationModel", "GenConfig", "SizeDist", "SurplusEstimate", "generate_corpus",
        "monte_carlo_global_cnci", "monte_carlo_surplus", "surplus_analytic",
    ), "synthesis"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached in the package namespace, so a name always reads its home
    # module's current binding.
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _HOME.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_HOME.values()})
