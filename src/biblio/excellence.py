"""Highly cited paper selection: thresholds, tie-breaking, entity shares.

Within a (field, year, doc_type) cell, the citation threshold sits at the
descending-sorted position given by the rounded quota round_half_up(p * N /
100). Papers strictly above the threshold always qualify; papers exactly at it
are the borderline block, and the classification method decides their fate:
inclusive takes them all, exclusive none, fractional_ws gives each the weight
(quota - above) / ties, and quota mode picks exactly enough of them via an
ordered chain of tie-break methods.

Quota mode walks the chain once: each method orders the current group into
tiers, the tiers that fit under the quota are taken, and only the one tier that
straddles the cut passes to the next method. An exhausted chain takes that tier
in paper-id order, loudly flagged in the trace. A method only scores each paper:
one builder, ``_ordering``, turns the scores into tiers, and one table,
``_TIEBREAKS``, maps each method name to its ordering.

The ESI-style low-threshold rule (threshold <= 2 means the cell selects
nothing) is a flag, on by default in the run orchestrator.

Every step works on a ranked cell (``RankedCell``): the cell's papers sorted
by (-citations, id), with their counts. This module owns the ranking: each
schema's cells are ranked once per corpus and kept by ``Corpus._kept`` under
``("ranked", schema)``. The threshold is one index into the counts plus two
bisections; papers above it are the first ``above_count`` of the ranking and
the borderline block the next ``tie_count``, already in id order. One decision
kernel per selecting cell reads only that prefix, which is also its output
order, so a run does work in proportion to the papers it selects.
"""
from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import neg
from typing import Iterable, NamedTuple, Sequence

from .corpus import MONTH, CellKey, Corpus, Paper, _within
from .errors import ComputationError, EmptyInputError, MissingDateError
from .rounding import _half_up, _rational, csv_text, decimal_str, rational_json, rational_str

logger = logging.getLogger(__name__)

CHRONOLOGY = "chronology"
TRAJECTORY = "trajectory"
CITING_EXCELLENCE = "citing_excellence"

FULL = "full"
PARTIAL = "fractional"

_ONE = Fraction(1)  # the weight of every full decision


class ThresholdResult(NamedTuple):
    cell: CellKey
    top_percent: Fraction
    quota: int
    threshold: int | None
    above_count: int
    tie_count: int

    def to_json_dict(self) -> dict:
        return {
            "cell": self.cell.to_json_dict(),
            "top_percent": rational_str(self.top_percent),
            "quota": self.quota,
            "threshold": self.threshold,
            "above_count": self.above_count,
            "tie_count": self.tie_count,
        }


class HcpDecision(NamedTuple):
    paper_id: str
    cell: CellKey
    status: str  # FULL | PARTIAL
    weight: Fraction
    method: str
    trace: tuple[dict, ...] | None = None  # present iff a tie-breaker fired

    def to_json_dict(self) -> dict:
        weight = self.weight
        whole = weight is _ONE  # the kernels' full weight; any other 1 renders alike
        return {
            "paper": self.paper_id,
            "cell": self.cell.to_json_dict(),
            "status": self.status,
            "weight": "1" if whole else rational_str(weight),
            "weight_decimal": "1.00" if whole else decimal_str(weight, 2),
            "method": self.method,
            "trace": list(self.trace) if self.trace is not None else None,
        }


def parse_tiebreak_chain(names: Iterable[str]) -> tuple[str, ...]:
    """A tie-break chain: its method names, ``-`` read as ``_``, each at most once."""
    names = tuple(names)
    chain = tuple(name.replace("-", "_") for name in names)
    for i, name in enumerate(names):
        if chain[i] not in _TIEBREAKS:
            choices = ", ".join(m.replace("_", "-") for m in _TIEBREAKS)
            raise ComputationError(f"unknown tie-break method {name!r} (choose from {choices})")
        if chain[i] in chain[:i]:
            raise ComputationError(f"the tie-break chain names the method {name!r} twice")
    return chain


def _share(top_percent: Fraction | int | str) -> Fraction:
    share = _rational(top_percent)
    if not 0 < share <= 100:
        raise ComputationError(f"top_percent must be in (0, 100], got {share}")
    return share


def _quota(share: Fraction, n: int) -> int:
    """The quota round_half_up(share * n / 100) of n papers, taken in integers."""
    return _half_up(share.numerator * n, share.denominator * 100)


class RankedCell(NamedTuple):
    """A cell's papers by descending citation count, ties in id order, and
    their counts position for position."""

    papers: tuple[Paper, ...]
    counts: tuple[int, ...]


def _rank_cell(papers, counts: dict[str, int]) -> RankedCell:
    """Sort ``papers`` once by (-citations, id)."""
    ranked = tuple(sorted(papers, key=lambda p: (-counts[p.id], p.id)))
    return RankedCell(ranked, tuple(counts[p.id] for p in ranked))


def _ranked(corpus: Corpus, schema: str) -> dict[CellKey, RankedCell]:
    """The cells of :meth:`Corpus.cells` under ``schema``, each ranked once and kept."""
    counts = corpus.citation_counts
    return corpus._kept(("ranked", schema), lambda: {
        k: _rank_cell(v, counts) for k, v in corpus.cells(schema).items()})


def _threshold(cell: CellKey, ranked: RankedCell, share: Fraction) -> ThresholdResult:
    """The threshold kernel: one index into the ranked counts, two bisections."""
    counts = ranked.counts
    quota = _quota(share, len(counts))
    if quota == 0:
        return ThresholdResult(
            cell=cell, top_percent=share, quota=0,
            threshold=None, above_count=0, tie_count=0,
        )
    threshold = counts[quota - 1]
    above = bisect_left(counts, -threshold, key=neg)
    ties = bisect_right(counts, -threshold, key=neg) - above
    return ThresholdResult(
        cell=cell, top_percent=share, quota=quota,
        threshold=threshold, above_count=above, tie_count=ties,
    )


# -- tie-break orderings --------------------------------------------------------


class TiebreakOrdering(NamedTuple):
    """Groups of paper ids, best first; a group of several is an unresolved tie."""

    method: str
    groups: tuple[tuple[str, ...], ...]
    evidence: dict[str, str]
    flags: tuple[str, ...]


def _ordering(method: str, note: str, scored: dict[str, tuple]) -> TiebreakOrdering:
    """The one ordering builder over ``scored``, each paper id's (key, evidence):
    groups by key, lowest key first, ids sorted; each group of several is flagged."""
    buckets: dict = {}
    evidence: dict[str, str] = {}
    for pid, (key, shown) in scored.items():
        buckets.setdefault(key, []).append(pid)
        evidence[pid] = shown
    groups = tuple(tuple(sorted(buckets[k])) for k in sorted(buckets))
    flags = tuple(f"{method}: {note} for {', '.join(ids)}" for ids in groups if len(ids) > 1)
    return TiebreakOrdering(method=method, groups=groups, evidence=evidence, flags=flags)


def tiebreak_chronology(papers: Sequence[Paper]) -> TiebreakOrdering:
    """Later effective date first; equal dates are an unresolved, flagged tie."""
    scored: dict[str, tuple[int, str]] = {}
    for p in papers:
        stamp = p.effective_date()
        if stamp is None:
            raise MissingDateError(f"paper {p.id!r} has no date for the chronology tie-break")
        when, precision, source = stamp
        shown = f"{when.year:04d}-{when.month:02d}" if precision == MONTH else when.isoformat()
        scored[p.id] = (-when.toordinal(), f"{source}:{shown}")
    return _ordering(CHRONOLOGY, "equal effective dates", scored)


def tiebreak_trajectory(corpus: Corpus, papers: Sequence[Paper]) -> TiebreakOrdering:
    """Higher late-to-early citation ratio first: citations in years 5-9 after
    publication over those in years 0-4.

    The ratio is extended-rational: anything over zero early citations ranks
    above every finite ratio, and a paper with no citations in either window
    (0/0) ranks below everything. Every in-edge of a candidate must be dated;
    the error names a candidate's undated edge with the least citing id, so it
    does not depend on the order of the edge file.
    """
    in_edges = corpus.in_edges
    scored: dict[str, tuple[tuple, str]] = {}
    for p in papers:
        early = late = 0
        for e in in_edges[p.id]:
            if e.date is None:
                citing = min(u.citing for u in in_edges[p.id] if u.date is None)
                raise MissingDateError(
                    f"edge {citing!r}->{p.id!r} is undated; the trajectory "
                    "tie-break needs dated edges for every candidate"
                )
            offset = e.date.year - p.year
            if 0 <= offset <= 4:
                early += 1
            elif 5 <= offset <= 9:
                late += 1
        if early > 0:
            key = (1, Fraction(-late, early))
        elif late > 0:
            key = (0, 0)  # infinite ratio, ahead of all finite ones
        else:
            key = (2, 0)  # 0/0, behind everything
        scored[p.id] = (key, f"late/early={late}/{early}")
    return _ordering(TRAJECTORY, "equal citation trajectories", scored)


def tiebreak_citing_excellence(
    corpus: Corpus,
    papers: Sequence[Paper],
    provisional_hcp: frozenset[str] | set[str],
) -> TiebreakOrdering:
    """More citations from (provisionally) highly cited papers first."""
    in_edges = corpus.in_edges
    scored: dict[str, tuple[int, str]] = {}
    for p in papers:
        n = sum(1 for e in in_edges[p.id] if e.citing in provisional_hcp)
        scored[p.id] = (-n, f"citing_hcp={n}")
    return _ordering(CITING_EXCELLENCE, "equal citing-excellence counts", scored)


# Each method name to its ordering of a group. The lambdas look each function up
# in the module at call time, so a wrapper set on the module attribute sees every call.
_TIEBREAKS = {
    CHRONOLOGY: lambda corpus, group, hcp: tiebreak_chronology(group),
    TRAJECTORY: lambda corpus, group, hcp: tiebreak_trajectory(corpus, group),
    CITING_EXCELLENCE: lambda corpus, group, hcp: tiebreak_citing_excellence(corpus, group, hcp),
}


def provisional_hcp_ids(
    corpus: Corpus,
    schema: str,
    top_percent: Fraction | int | str = 1,
    esi_low_threshold: bool = True,
) -> frozenset[str]:
    """The papers an inclusive :func:`hcp_run` over all cells selects: each
    selecting cell's ranked prefix, borderline candidates included.

    This is the bootstrap set the citing-excellence tie-break counts against;
    it is computed once, before any tie-breaking, so selection order cannot
    feed back into the evidence.
    """
    return _provisional(_cell_thresholds(corpus, schema, _share(top_percent), esi_low_threshold))


def _provisional(cells: dict) -> frozenset[str]:
    """The selecting cells' prefix ids in a :func:`_cell_thresholds` table, no decisions built."""
    return frozenset(p.id for result, ranked, selects in cells.values() if selects
                     for p in ranked.papers[:result.above_count + result.tie_count])


def _cell_thresholds(
    corpus: Corpus,
    schema: str,
    share: Fraction,
    esi_low_threshold: bool,
) -> dict[CellKey, tuple[ThresholdResult, RankedCell, bool]]:
    """{cell: (threshold, ranked cell, selects)} in cell order, from one walk over the
    whole kept ranking; a cell selects with a quota and, under the ESI rule, a threshold > 2."""
    cells = {}
    for cell, ranked in _ranked(corpus, schema).items():
        result = _threshold(cell, ranked, share)
        cells[cell] = (result, ranked,
                       result.quota > 0 and not (esi_low_threshold and result.threshold <= 2))
    return cells


def _decide(
    corpus: Corpus,
    result: ThresholdResult,
    ranked: RankedCell,
    method: str,
    chain: Sequence[str],
    provisional_hcp: frozenset[str] | None,
) -> list[HcpDecision]:
    """The decision kernel: the ranked cell's first ``above_count`` papers in
    full, then the borderline block of the next ``tie_count`` (in id order)
    decided by the checked ``method``; decisions come out in ranked order."""
    cell, above, ties = result.cell, result.above_count, result.tie_count
    decisions = [HcpDecision(p.id, cell, FULL, _ONE, method) for p in ranked.papers[:above]]
    borderline = ranked.papers[above:above + ties]
    need = result.quota - above  # at least 1 and at most ties in a selecting cell
    if method == "exclusive":
        return decisions
    if method == "fractional_ws":
        weight = Fraction(need, ties)
        return decisions + [HcpDecision(p.id, cell, PARTIAL, weight, method) for p in borderline]
    if method == "inclusive" or ties == need:  # the whole block: no tie-break runs or traces
        return decisions + [HcpDecision(p.id, cell, FULL, _ONE, method) for p in borderline]
    # One pass down the chain: each method orders the group into tiers, best
    # first; the tiers that fit are taken, and only the tier straddling the
    # cut passes to the next method as a tied step of its members' traces.
    by_id = {p.id: p for p in borderline}
    group, tied = borderline, []
    picks: list[tuple[str, int, dict]] = []  # (paper id, tied steps above it, last step)
    for link in chain:
        ordering = _TIEBREAKS[link](corpus, group, provisional_hcp)
        for flag in ordering.flags:
            logger.info("tie-break %s", flag)
        for ids in ordering.groups:
            if len(ids) > need:
                break
            picks += [(i, len(tied), {"method": ordering.method,
                                      "evidence": ordering.evidence[i], "tied": False})
                      for i in ids]
            need -= len(ids)
        if not need:
            break
        tied.append(ordering)
        group = [by_id[i] for i in ids]
    else:
        logger.warning(
            "tie-break chain exhausted in cell %s; falling back to paper-id order for %s",
            cell, ", ".join(p.id for p in group),
        )
        picks += [(p.id, len(tied), {"method": "id_order", "evidence": p.id, "tied": False,
                                     "chain_exhausted": True}) for p in group[:need]]
    return decisions + [
        HcpDecision(pid, cell, FULL, _ONE, method, trace=(
            *({"method": o.method, "evidence": o.evidence[pid], "tied": True}
              for o in tied[:depth]),
            last,
        ))
        for pid, depth, last in sorted(picks)  # ids are unique: sorts by id alone
    ]


# -- orchestration ----------------------------------------------------------------


def hcp_selection(
    corpus: Corpus,
    schema: str,
    *,
    top_percent: Fraction | int | str = 1,
    method: str = "inclusive",
    esi_low_threshold: bool = True,
    tiebreak_chain: Iterable[str] = (),
    years=None,
    doc_types=None,
) -> tuple[list[ThresholdResult], list[HcpDecision]]:
    """Every sliced cell's threshold, in cell order, and the decisions of
    :func:`hcp_run`. A tie-break chain is a sequence of method names, in
    either spelling (``citing-excellence`` or ``citing_excellence``)."""
    share = _share(top_percent)
    chain = parse_tiebreak_chain(tiebreak_chain)
    if method not in ("inclusive", "exclusive", "fractional_ws", "quota"):
        raise ComputationError(f"unknown classification method {method!r}")
    if method != "quota" and chain:
        raise ComputationError(f"only quota selection takes a tie-break chain, not {method!r}")
    if method == "quota" and not chain:
        raise ComputationError("quota selection needs a tie-break chain")
    cells = _cell_thresholds(corpus, schema, share, esi_low_threshold)
    provisional = _provisional(cells) if CITING_EXCELLENCE in chain else None
    thresholds: list[ThresholdResult] = []
    decisions: list[HcpDecision] = []
    for result, ranked, selects in _within(cells, years, doc_types).values():
        thresholds.append(result)
        if selects:
            decisions += _decide(corpus, result, ranked, method, chain, provisional)
    return thresholds, decisions


def hcp_run(corpus: Corpus, schema: str, **options) -> list[HcpDecision]:
    """Run threshold + classification (or quota selection) over every cell;
    takes the keyword options of :func:`hcp_selection`."""
    return hcp_selection(corpus, schema, **options)[1]


class EntityShare(NamedTuple):
    entity: str
    counting: str
    hcp_weight: Fraction
    output_weight: Fraction

    @property
    def share(self) -> Fraction:
        return self.hcp_weight / self.output_weight

    def to_json_dict(self) -> dict:
        return {
            "entity": self.entity,
            "counting": self.counting,
            "hcp_weight": rational_json(self.hcp_weight, 2),
            "output_weight": rational_json(self.output_weight, 2),
            "share": rational_json(self.share, 4),
        }


def entity_hcp_share(
    corpus: Corpus,
    entity: str,
    decisions: Sequence[HcpDecision],
    counting: str = "whole",
) -> EntityShare:
    """Share of an entity's output that is highly cited.

    Whole counting credits a paper fully to every entity with at least one
    author slot on it; fractional counting uses the author-share attribution
    formula on both sides of the ratio. Fractional-status decisions contribute
    their decision weight, so whole-set weights keep summing to the quota.
    Weights sum per cell, so a paper selected in two fields counts twice. The
    output is always the entity's whole output: decisions from a year or doc
    type slice are divided by it, not by the slice's own output.
    """
    if counting not in ("whole", "fractional"):
        raise ComputationError(f"unknown counting scheme {counting!r}")
    output = corpus.papers_of_entity(entity)
    if not output:
        raise EmptyInputError(f"entity {entity!r} has no attributable output")
    if counting == "whole":
        output_weight = Fraction(len(output))
    else:
        output_weight = corpus.entity_output_weight(entity)
    entity_ids = {p.id for p in output}
    hcp_weight = Fraction(0)
    for d in decisions:
        if d.paper_id in entity_ids and d.weight > 0:
            if counting == "whole":
                hcp_weight += d.weight
            else:
                hcp_weight += d.weight * corpus.entity_attribution(
                    corpus.papers[d.paper_id], entity
                )
    return EntityShare(
        entity=entity, counting=counting,
        hcp_weight=hcp_weight, output_weight=output_weight,
    )


class FieldExcellenceRow(NamedTuple):
    field: str
    total: int
    expected: int
    actual: Fraction

    @property
    def surplus(self) -> Fraction:
        return self.actual - self.expected

    @property
    def real_percent(self) -> Fraction:
        return Fraction(100) * self.actual / self.total


class ExcellenceReport(NamedTuple):
    schema: str
    top_percent: Fraction
    rows: tuple[FieldExcellenceRow, ...]

    def to_csv_text(self) -> str:
        return csv_text(
            ("field", "total", "expected", "actual", "surplus", "real_pct"),
            [(r.field, r.total, r.expected, rational_str(r.actual),
              rational_str(r.surplus), decimal_str(r.real_percent, 3)) for r in self.rows])

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "top_percent": rational_str(self.top_percent),
            "rows": [
                {
                    "field": r.field,
                    "total": r.total,
                    "expected": r.expected,
                    "actual": rational_json(r.actual, 2),
                    "surplus": rational_json(r.surplus, 2),
                    "real_pct": rational_json(r.real_percent, 3),
                }
                for r in self.rows
            ],
        }


def hcp_report(
    corpus: Corpus,
    schema: str,
    decisions: Sequence[HcpDecision],
    top_percent: Fraction | int | str = 1,
    years=None,
    doc_types=None,
) -> ExcellenceReport:
    """Per-field expected-versus-actual excellence table.

    Expected is the rounded share of the field's paper total in the slice of
    the ranking the selection walked; actual sums the decision weights landing in
    the field, whole weights as integers, and refuses one outside the slice.
    """
    share = _share(top_percent)
    ranked = _within(_ranked(corpus, schema), years, doc_types)
    totals: dict[str, int] = {}
    for cell, ranked_cell in ranked.items():
        totals[cell.field] = totals.get(cell.field, 0) + len(ranked_cell.papers)
    if not totals:
        raise EmptyInputError(f"no papers under schema {schema!r} in the given slice")
    whole = dict.fromkeys(totals, 0)
    partial: dict[str, Fraction] = {}
    for d in decisions:
        if d.cell not in ranked:
            raise ComputationError(f"paper {d.paper_id!r} was decided outside the slice: {d.cell}")
        field, weight = d.cell.field, d.weight
        if weight.denominator == 1:
            whole[field] += weight.numerator
        else:
            partial[field] = partial.get(field, 0) + weight
    rows = tuple(
        FieldExcellenceRow(
            field=f,
            total=totals[f],
            expected=_quota(share, totals[f]),
            actual=Fraction(whole[f]) + partial.get(f, 0),
        )
        for f in sorted(totals)
    )
    return ExcellenceReport(schema=schema, top_percent=share, rows=rows)
