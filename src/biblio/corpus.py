"""Domain model for publication corpora.

A corpus is an immutable snapshot of journals, papers, and citation edges,
plus a registry of classification schemas mapping journals to subject
categories. Citation counts are derived from edge in-degrees; corpora without
edge-level data may instead carry explicit per-paper counts, at the cost of
every analysis that needs individual citing papers or citation dates (those
fail loudly rather than degrade).

Papers are sliced into (field, year, doc_type) cells per schema; a paper whose
journal holds k categories under a schema appears in k cells.

The derived indexes (citation counts, cells, citing edges, entity output and
its fractional weight) are built on first use and kept, so a corpus must not be
mutated once it has been queried. ``Corpus._kept`` keeps the keyed ones, under
``("cells", schema)`` and ``("weight", entity)``, and the tables that
``excellence`` and ``normalization`` build over them, which each lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import ComputationError

DAY = "day"
MONTH = "month"
MAX_EXAMPLES = 5  # offending ids a validation finding lists


class SchemaInfo(NamedTuple):
    """A journal classification schema.

    Single-attribution schemas assign every journal exactly one category;
    multi-attribution schemas allow several, and downstream counting rules
    decide how to split credit.
    """

    name: str
    single_attribution: bool = False


class AuthorCredit(NamedTuple):
    """One author slot on a paper.

    An author with no entity affiliations still consumes one author share of
    the paper; that share is credited to no entity.
    """

    author_key: str
    entities: tuple[str, ...] = ()


class Journal(NamedTuple):
    id: str
    categories: dict[str, tuple[str, ...]]
    metric_by_year: dict[int, Fraction]


# A dataclass, not a NamedTuple: indicators read it per paper, and its attribute reads are faster.
@dataclass(frozen=True)
class Paper:
    """A publication.

    ``pub_date`` with precision ``MONTH`` stores day 01 of the issue month, so
    chronology comparisons can detect and report equal-precision ties instead
    of inventing day-level order that was never in the data.
    """

    id: str
    journal_id: str
    year: int
    doc_type: str
    online_date: date | None = None
    pub_date: date | None = None
    pub_date_precision: str = DAY
    authors: tuple[AuthorCredit, ...] = ()
    page_count: int | None = None

    def effective_date(self) -> tuple[date, str, str] | None:
        """Best chronology evidence: (date, precision, source).

        The online-first date wins when present; otherwise the issue date at
        whatever precision the corpus has. None when the paper is undatable.
        """
        if self.online_date is not None:
            return self.online_date, DAY, "online"
        if self.pub_date is not None:
            return self.pub_date, self.pub_date_precision, "issue"
        return None


class CitationEdge(NamedTuple):
    citing: str
    cited: str
    date: date | None = None


class CellKey(NamedTuple):
    """The (field, year, doc_type) slice baselines and thresholds run over."""

    field: str
    year: int
    doc_type: str

    def to_json_dict(self) -> dict:
        return {"field": self.field, "year": self.year, "doc_type": self.doc_type}

    def __str__(self) -> str:  # how a message names the cell
        return f"field={self.field} year={self.year} doc_type={self.doc_type}"


class Corpus:
    """Immutable corpus with derived citation and cell indexes.

    ``edges=None`` marks a corpus ingested without edge-level data; citation
    counts then come from ``citation_counts`` (explicit per-paper column) and
    operations needing citing papers or dates raise :class:`ComputationError`.
    """

    def __init__(
        self,
        schemas,
        journals,
        papers,
        edges=None,
        citation_counts: dict[str, int] | None = None,
        load_report=None,
    ):
        self.schemas: dict[str, SchemaInfo] = {s.name: s for s in schemas}
        self.journals: dict[str, Journal] = {j.id: j for j in journals}
        self.papers: dict[str, Paper] = {p.id: p for p in papers}
        self.edges: tuple[CitationEdge, ...] | None = (
            tuple(edges) if edges is not None else None
        )
        self.explicit_counts: dict[str, int] | None = (  # an empty mapping is no counts
            dict(citation_counts) if citation_counts else None
        )
        self.load_report = load_report
        self._tables: dict[tuple, object] = {}  # key -> derived table; see _kept

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.schemas == other.schemas
            and self.journals == other.journals
            and self.papers == other.papers
            and self.edges == other.edges
            and self.explicit_counts == other.explicit_counts
        )

    def require_schema(self, schema: str) -> SchemaInfo:
        info = self.schemas.get(schema)
        if info is None:
            declared = ", ".join(map(repr, sorted(self.schemas))) or "none"
            raise ComputationError(
                f"schema {schema!r} is not declared in the corpus (declared: {declared})"
            )
        return info

    def _kept(self, key: tuple, build):
        """The table kept under ``key``, which ``build()`` makes on first use. A
        key begins with its table's name, and the module that builds the table
        lists it. A build that raises keeps nothing, so the error comes again on
        every call."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    @cached_property
    def citation_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.papers, 0)
        if self.edges is not None:
            for e in self.edges:
                if e.cited in counts:
                    counts[e.cited] += 1
        elif self.explicit_counts:
            for pid, c in self.explicit_counts.items():
                if pid in counts:
                    counts[pid] = c
        return counts

    @cached_property
    def in_edges(self) -> dict[str, tuple[CitationEdge, ...]]:
        """cited paper id -> its incoming edges (edge-based corpora only)."""
        if self.edges is None:
            raise ComputationError(
                "building the citing-paper index needs edge-level citation data; "
                "this corpus was ingested with precomputed citation counts only"
            )
        index: dict[str, list[CitationEdge]] = {pid: [] for pid in self.papers}
        for e in self.edges:
            if e.cited in index:
                index[e.cited].append(e)
        return {pid: tuple(es) for pid, es in index.items()}

    # -- schema-indexed views ------------------------------------------------

    def categories_of(self, journal_id: str, schema: str) -> tuple[str, ...]:
        journal = self.journals.get(journal_id)
        if journal is None:
            return ()
        return journal.categories.get(schema, ())

    def cells(
        self, schema: str, years=None, doc_types=None
    ) -> dict[CellKey, tuple[Paper, ...]]:
        """Papers grouped into (field, year, doc_type) cells, sorted by key.

        A paper appears once per category its journal holds under ``schema``;
        papers whose journal has no category there are absent entirely. An
        undeclared ``schema`` is a :class:`ComputationError`.
        """
        def build():
            self.require_schema(schema)
            grouped: dict[CellKey, list[Paper]] = {}
            for p in self.papers.values():
                for f in self.categories_of(p.journal_id, schema):
                    grouped.setdefault(CellKey(f, p.year, p.doc_type), []).append(p)
            return {k: tuple(v) for k, v in sorted(grouped.items())}
        return _within(self._kept(("cells", schema), build), years, doc_types)

    # -- entity attribution ----------------------------------------------------

    def entity_attribution(self, paper: Paper, entity: str) -> Fraction:
        """Fractional credit of ``paper`` to ``entity``.

        Each of the A authors holds 1/A of the paper and splits that share
        evenly across their affiliations; an unaffiliated author's share is
        credited nowhere. Authorless papers are rejected outright, never
        silently zero-weighted.
        """
        if not paper.authors:
            raise ComputationError(
                f"paper {paper.id!r} has no author credits; entity attribution rejected"
            )
        share = Fraction(0)
        a = len(paper.authors)
        for credit in paper.authors:
            if credit.entities and entity in credit.entities:
                share += Fraction(1, a * len(credit.entities))
        return share

    def papers_of_entity(self, entity: str) -> tuple[Paper, ...]:
        """Papers with at least one author slot affiliated to ``entity``, in
        corpus order."""
        return self._entity_papers.get(entity, ())

    @cached_property
    def _entity_papers(self) -> dict[str, tuple[Paper, ...]]:
        index: dict[str, list[Paper]] = {}
        for p in self.papers.values():
            for e in dict.fromkeys(e for c in p.authors for e in c.entities):
                index.setdefault(e, []).append(p)
        return {e: tuple(ps) for e, ps in index.items()}

    def entity_output_weight(self, entity: str) -> Fraction:
        """The fractional credit of ``entity`` summed over its output, once
        per entity."""
        return self._kept(("weight", entity), lambda: sum(
            (self.entity_attribution(p, entity) for p in self.papers_of_entity(entity)),
            Fraction(0)))


def _in_slice(year: int, doc_type: str, years, doc_types) -> bool:
    """Whether a year and doc type lie in a year/doc-type slice; None admits every value."""
    return (years is None or year in years) and (doc_types is None or doc_type in doc_types)


def _within(cells: dict, years, doc_types) -> dict:
    if years is None and doc_types is None:
        return cells
    return {k: v for k, v in cells.items() if _in_slice(k.year, k.doc_type, years, doc_types)}


# -- validation ---------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    count: int
    examples: tuple[str, ...]


class ValidationReport(NamedTuple):
    """Per-invariant violation counts with the first few offending ids."""

    violations: tuple[CheckResult, ...]
    warnings: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        def rows(results):
            return [
                {"check": r.name, "count": r.count, "examples": list(r.examples)}
                for r in results
            ]

        return {
            "ok": self.ok,
            "violations": rows(self.violations),
            "warnings": rows(self.warnings),
        }


def validate(corpus: Corpus) -> ValidationReport:
    """Check every structural invariant; an all-clear report is empty.

    A publication-date month that precedes the online date is reported as a
    warning, not a violation: issue dates may legitimately trail online
    posting, only the reverse ordering smells like a data error.
    """
    found: dict[str, list[str]] = {}
    warned: dict[str, list[str]] = {}

    def hit(bucket, check, example):
        bucket.setdefault(check, []).append(example)

    for j in corpus.journals.values():
        for schema, cats in j.categories.items():
            info = corpus.schemas.get(schema)
            if info is None:
                hit(found, "unknown_schema", f"{j.id}:{schema}")
                continue
            if not cats:
                hit(found, "empty_category_list", f"{j.id}:{schema}")
            elif info.single_attribution and len(cats) != 1:
                hit(found, "single_attribution_violation", f"{j.id}:{schema}")
            if len(set(cats)) < len(cats):
                hit(found, "duplicate_category", f"{j.id}:{schema}")
        for year, m in j.metric_by_year.items():
            if m < 0:
                hit(found, "negative_metric", f"{j.id}:{year}")

    for p in corpus.papers.values():
        if p.journal_id not in corpus.journals:
            hit(found, "unresolved_journal", p.id)
        if p.online_date is not None and p.pub_date is not None and p.pub_date < (
            p.online_date.replace(day=1) if p.pub_date_precision == MONTH else p.online_date
        ):
            hit(warned, "issue_precedes_online", p.id)

    for pid, c in (corpus.explicit_counts or {}).items():
        if c < 0:
            hit(found, "negative_citation_count", pid)

    if corpus.edges is not None:
        seen: set[tuple[str, str]] = set()
        for e in corpus.edges:
            if e.citing == e.cited:
                hit(found, "self_citation_loop", e.citing)
            pair = (e.citing, e.cited)
            if pair in seen:
                hit(found, "duplicate_edge", f"{e.citing}->{e.cited}")
            seen.add(pair)
            for endpoint in pair:
                if endpoint not in corpus.papers:
                    hit(found, "unresolved_edge_endpoint", endpoint)
        if corpus.explicit_counts:
            derived = corpus.citation_counts
            for pid, c in corpus.explicit_counts.items():
                if pid in derived and derived[pid] != c:
                    hit(found, "citation_count_mismatch", pid)

    def results(bucket):
        return tuple(
            CheckResult(name, len(ids), tuple(ids[:MAX_EXAMPLES]))
            for name, ids in sorted(bucket.items())
        )

    return ValidationReport(violations=results(found), warnings=results(warned))
