"""Exact-arithmetic bibliometric indicators.

Journal rankings with percentiles and quartiles, field-normalized citation
impact under whole and fractional counting, highly cited paper selection with
deterministic tie-breaking, and a seeded synthetic-corpus simulator. All
indicator math is exact rational; rounding happens only at the display edge.
"""
from .corpus import (
    AuthorCredit,
    CellKey,
    CitationEdge,
    Corpus,
    Journal,
    Paper,
    SchemaInfo,
    ValidationReport,
    validate,
)
from .errors import (
    BiblioError,
    ComputationError,
    EmptyInputError,
    LoadError,
    MissingDateError,
    ZeroBaselineError,
)
from .excellence import (
    EntityShare,
    ExcellenceReport,
    HcpDecision,
    ThresholdResult,
    TiebreakMethod,
    entity_hcp_share,
    hcp_report,
    hcp_run,
    hcp_selection,
    parse_tiebreak_chain,
    provisional_hcp_ids,
    tiebreak_chronology,
    tiebreak_citing_excellence,
    tiebreak_trajectory,
)
from .io import LoadReport, dump_corpus, load_corpus
from .normalization import (
    BaselineTable,
    CnciConfig,
    cnci_paper,
    cnci_set,
    compute_baselines,
    global_cnci,
    global_cnci_regimes,
    relative_cnci,
)
from .ranking import (
    Quartile,
    RankedCategory,
    assign_quartiles,
    boundary_ties,
    percentile,
    quartile_distribution,
    quartile_of_rank,
    quartile_partition,
    rank_category,
)
from .rounding import (
    decimal_str,
    rational_json,
    rational_str,
    round_half_up,
)
from .synthesis import (
    CitationModel,
    GenConfig,
    SizeDist,
    SurplusEstimate,
    generate_corpus,
    monte_carlo_global_cnci,
    monte_carlo_surplus,
    surplus_analytic,
)

__version__ = "0.1.0"

# Every public name imported above, so the list is written once.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("biblio.")
)
