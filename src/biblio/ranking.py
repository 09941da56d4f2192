"""Per-category journal ranking, percentile positions, quartile partitions.

Journals in a category are ranked by a per-year metric, descending, with
competition ranking: tied journals all carry the minimal rank of their tie
block. The percentile of rank r among N journals is (N - (r - 0.5)) / N x 100,
kept as an exact rational; display rounds half-up to one decimal.

Quartile boundaries fall at floor(N/4), floor(N/2), floor(3N/4) positions, so
any remainder lands on the later quartiles (never Q1 first). The sole journal
of a one-journal category therefore sits in Q4; that rule is applied verbatim,
and tiny categories can only be excluded via the explicit minimum-size gate.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

from .corpus import Corpus, Journal
from .errors import ComputationError, EmptyInputError
from .rounding import csv_text, decimal_str, rational_json, rational_str


class Quartile(IntEnum):
    Q1 = 1
    Q2 = 2
    Q3 = 3
    Q4 = 4

    def __str__(self) -> str:
        return self.name


_QUARTILES = tuple(Quartile)


class QuartileBounds(NamedTuple):
    """Rank cut positions for a category of n journals: ranks up to ``cuts[0]``
    are Q1, up to ``cuts[1]`` Q2, up to ``cuts[2]`` Q3, and the rest Q4."""

    n: int
    cuts: tuple[int, int, int]

    @property
    def counts(self) -> tuple[int, int, int, int]:
        c1, c2, c3 = self.cuts
        return (c1, c2 - c1, c3 - c2, self.n - c3)


def quartile_partition(n: int) -> QuartileBounds:
    if n < 1:
        raise EmptyInputError("a category must contain at least one ranked journal")
    return QuartileBounds(n, (n // 4, n // 2, 3 * n // 4))


def quartile_of_rank(rank: int, bounds: QuartileBounds) -> Quartile:
    if not 1 <= rank <= bounds.n:
        raise ComputationError(f"rank {rank} outside 1..{bounds.n}")
    return _QUARTILES[bisect_left(bounds.cuts, rank)]


class RankedEntry(NamedTuple):
    journal_id: str
    metric: Fraction
    rank: int
    quartile: Quartile  # a tie block shares the quartile of its minimal rank


class RankedCategory(NamedTuple):
    schema: str
    category: str
    year: int
    entries: tuple[RankedEntry, ...]
    excluded: tuple[str, ...]  # members with no metric for the year

    @property
    def n(self) -> int:
        return len(self.entries)

    def rank_of(self, journal_id: str) -> int:
        for e in self.entries:
            if e.journal_id == journal_id:
                return e.rank
        raise ComputationError(
            f"journal {journal_id!r} is not ranked in "
            f"{self.category!r} ({self.schema}, {self.year})"
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "category": self.category,
            "year": self.year,
            "n": self.n,
            "entries": [
                {
                    "journal": e.journal_id,
                    "metric": rational_json(e.metric, 3),
                    "rank": e.rank,
                    "quartile": str(e.quartile),
                    "percentile": rational_json(percentile(e.rank, self.n), 1),
                }
                for e in self.entries
            ],
            "excluded": list(self.excluded),
            "ties_at_cuts": [
                {"rank": t.rank, "size": t.size, "label": str(t.label)}
                for t in boundary_ties(self)
            ],
        }

    def to_csv_text(self) -> str:
        return csv_text(
            ("journal", "metric", "rank", "quartile", "percentile"),
            [(e.journal_id, rational_str(e.metric), e.rank, e.quartile,
              decimal_str(percentile(e.rank, self.n), 1)) for e in self.entries])


def rank_category(corpus: Corpus, schema: str, category: str, year: int) -> RankedCategory:
    """Competition-rank a category's journals by their metric for ``year``."""
    corpus.require_schema(schema)
    members = [j for j in corpus.journals.values() if category in j.categories.get(schema, ())]
    if not members:
        raise EmptyInputError(f"category {category!r} has no journals under {schema!r}")
    return _rank(schema, category, year, members)


def _rank(schema: str, category: str, year: int, members: list[Journal]) -> RankedCategory:
    """:func:`rank_category` over the category's member journals, each listed once."""
    ranked = [(j.metric_by_year[year], j.id) for j in members if year in j.metric_by_year]
    excluded = tuple(sorted(j.id for j in members if year not in j.metric_by_year))
    if not ranked:
        raise ComputationError(
            f"no journal in {category!r} has a metric for {year}"
        )
    ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    bounds = quartile_partition(len(ranked))
    entries: list[RankedEntry] = []
    rank = 0
    for position, (metric, jid) in enumerate(ranked, start=1):
        if rank == 0 or metric != entries[-1].metric:
            rank = position
        entries.append(RankedEntry(jid, metric, rank, quartile_of_rank(rank, bounds)))
    return RankedCategory(
        schema=schema, category=category, year=year,
        entries=tuple(entries), excluded=excluded,
    )


def percentile(rank: int, n: int) -> Fraction:
    """Exact percentile position of rank ``rank`` among ``n`` journals.

    Ranks map to the midpoints of n equal slices of (0, 100], so the best
    possible position in a category of one is 50, not 100, and
    percentile(r, n) + percentile(n + 1 - r, n) == 100 exactly.
    """
    if n < 1 or not 1 <= rank <= n:
        raise ComputationError(f"rank {rank} outside 1..{n}")
    return (Fraction(n) - (Fraction(rank) - Fraction(1, 2))) / n * 100


class BoundaryTie(NamedTuple):
    """A tie block whose positions straddle a quartile cut.

    Everything in the block got the quartile of the shared minimal rank; the
    flag exists so reports can show where that decision actually mattered.
    """

    category: str
    rank: int
    size: int
    label: Quartile


def boundary_ties(ranking: RankedCategory) -> tuple[BoundaryTie, ...]:
    bounds = quartile_partition(ranking.n)
    flagged = []
    for rank, size in sorted(Counter(e.rank for e in ranking.entries).items()):
        if size < 2:
            continue
        first, last = rank, rank + size - 1
        if any(first <= cut < last for cut in bounds.cuts):
            flagged.append(
                BoundaryTie(
                    category=ranking.category,
                    rank=rank,
                    size=size,
                    label=quartile_of_rank(rank, bounds),
                )
            )
    return tuple(flagged)


class DistributionReport(NamedTuple):
    """How journals or papers spread across quartiles.

    per_category counts each journal (or its papers) once per category, so
    multi-category journals are counted several times; database_best counts
    each exactly once, at its best quartile anywhere.
    """

    schema: str
    year: int
    level: str  # "journals" | "papers"
    mode: str  # "per_category" | "database_best"
    counts: dict[Quartile, int]
    excluded_journals: tuple[str, ...]
    skipped_categories: tuple[str, ...]
    ties_at_cuts: tuple[BoundaryTie, ...]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def share(self, q: Quartile) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.counts[q], self.total)

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "year": self.year,
            "level": self.level,
            "mode": self.mode,
            "total": self.total,
            "quartiles": {
                str(q): {"count": self.counts[q], "share": rational_json(self.share(q), 4)}
                for q in Quartile
            },
            "excluded_journals": list(self.excluded_journals),
            "skipped_categories": list(self.skipped_categories),
            "ties_at_cuts": [
                {"category": t.category, "rank": t.rank, "size": t.size, "label": str(t.label)}
                for t in self.ties_at_cuts
            ],
        }

    def to_csv_text(self) -> str:
        return csv_text(("quartile", "count", "share"),
                        [(q, self.counts[q], decimal_str(self.share(q), 4)) for q in Quartile])


def quartile_distribution(
    corpus: Corpus,
    schema: str,
    year: int,
    level: str = "journals",
    mode: str = "per_category",
    min_category_size: int = 0,
) -> DistributionReport:
    """Distribution of journals or their papers over quartiles for one year.

    The schema's journals are grouped by category in one pass, and each
    category is ranked once, as :func:`rank_category` ranks it.
    Papers are the ones published in ``year`` in journals ranked that year.
    ``min_category_size`` (default 0 = off) skips categories with fewer ranked
    journals; skipped categories are listed, never silently folded in. Every
    journal of the schema without a metric for ``year`` is listed as excluded,
    also when each of its categories is skipped.
    """
    if level not in ("journals", "papers"):
        raise ComputationError(f"unknown level {level!r}")
    if mode not in ("per_category", "database_best"):
        raise ComputationError(f"unknown mode {mode!r}")
    if min_category_size < 0:
        raise ComputationError(f"min_category_size must be >= 0, got {min_category_size}")
    corpus.require_schema(schema)

    members: dict[str, list[Journal]] = defaultdict(list)
    excluded: list[str] = []
    for j in corpus.journals.values():
        cats = set(j.categories.get(schema, ()))
        for cat in cats:
            members[cat].append(j)
        if cats and year not in j.metric_by_year:
            excluded.append(j.id)
    papers = (Counter(p.journal_id for p in corpus.papers.values() if p.year == year)
              if level == "papers" else None)

    counts = dict.fromkeys(Quartile, 0)
    best: dict[str, Quartile] = {}
    skipped: list[str] = []
    ties: list[BoundaryTie] = []
    for cat in sorted(members):
        try:
            ranking = _rank(schema, cat, year, members[cat])
        except ComputationError:
            skipped.append(cat)
            continue
        if ranking.n < min_category_size:
            skipped.append(cat)
            continue
        for e in ranking.entries:
            if mode == "per_category":
                counts[e.quartile] += 1 if papers is None else papers[e.journal_id]
            elif e.journal_id not in best or e.quartile < best[e.journal_id]:
                best[e.journal_id] = e.quartile
        ties.extend(boundary_ties(ranking))
    if len(skipped) == len(members):
        raise ComputationError(f"no rankable category under {schema!r} for {year}")
    for jid, label in best.items():
        counts[label] += 1 if papers is None else papers[jid]

    return DistributionReport(
        schema=schema,
        year=year,
        level=level,
        mode=mode,
        counts=counts,
        excluded_journals=tuple(sorted(excluded)),
        skipped_categories=tuple(skipped),
        ties_at_cuts=tuple(ties),
    )
