"""Field-normalized citation impact: baselines and CNCI.

The expected citation rate of a (field, year, doc_type) cell depends on the
counting scheme:

- whole: every paper in the cell counts fully, e = sum(c) / n
- fractional: a k-field paper contributes c/k citations and 1/k of a paper,
  e = sum(c/k) / sum(1/k)
- whole + split citations: citations are split across fields but papers count
  whole, e = sum(c/k) / n (used only by ratio-of-averages aggregation)

A paper's CNCI averages c/e over its k cells. Aggregating a paper set is
either average-of-ratios (mean CNCI) or ratio-of-averages (total observed
citation mass over total expected mass, field by field). On a closed corpus
every ratio-of-averages variant and fractional average-of-ratios equal exactly
1; whole counting with average-of-ratios does not, which is the anomaly these
dual routes exist to expose. All arithmetic is exact rational.

Baselines and set aggregates read four integer masses per cell (split
citations, citations, papers, split papers) in units of 1/lcm(k), with no
Fraction per paper. Exact sums do not depend on order, so they equal the
per-paper definitions, which the test oracle keeps. The whole corpus's masses
are folded once per schema and kept by the corpus (:meth:`Corpus.cell_sums`);
a reference pool's masses are folded on every call. Global CNCI costs one
Fraction per regime, and no baseline table is built for it. One paper's CNCI
is one Fraction as well. This module owns the whole corpus's baseline tables:
each is built once per regime and kept by ``Corpus._kept`` under the key
(schema, counting, split_citations), with a memo over which one paper's CNCI
is computed once per (journal, year, doc type, citation count): those fix the
paper's cells and its c, so every paper that shares them shares the value.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .corpus import CellKey, Corpus, Paper, _within
from .errors import ComputationError, EmptyInputError, ZeroBaselineError
from .rounding import csv_text, rational_json, rational_str

logger = logging.getLogger(__name__)

WHOLE = "whole"
FRACTIONAL = "fractional"
AOR = "aor"
ROA = "roa"


@dataclass(frozen=True)
class CnciConfig:
    """Validated combination of counting scheme, aggregation, and splitting."""

    counting: str = WHOLE
    aggregation: str = AOR
    split_citations: bool = False

    def __post_init__(self):
        if self.counting not in (WHOLE, FRACTIONAL):
            raise ComputationError(f"unknown counting scheme {self.counting!r}")
        if self.aggregation not in (AOR, ROA):
            raise ComputationError(f"unknown aggregation {self.aggregation!r}")
        if self.split_citations and self.aggregation != ROA:
            raise ComputationError(
                "split_citations applies to ratio-of-averages aggregation only"
            )
        if self.split_citations and self.counting != WHOLE:
            raise ComputationError(
                "split_citations presumes whole paper counting; fractional "
                "counting already splits"
            )


class BaselineCell(NamedTuple):
    expected: Fraction
    weight: Fraction  # total paper weight: n (whole) or sum of 1/k (fractional)
    papers: int


class BaselineTable(NamedTuple):
    schema: str
    counting: str
    split_citations: bool
    cells: dict[CellKey, BaselineCell]

    @property
    def counting_label(self) -> str:
        return f"{self.counting}_split" if self.split_citations else self.counting

    def expected(self, key: CellKey) -> Fraction:
        cell = self.cells.get(key)
        if cell is None:
            raise ComputationError(f"no baseline for cell {key}")
        return cell.expected

    def to_csv_text(self) -> str:
        return csv_text(
            ("schema", "field", "year", "doc_type", "counting", "expected", "weight"),
            [(self.schema, *key, self.counting_label, rational_str(cell.expected),
              rational_str(cell.weight)) for key, cell in sorted(self.cells.items())])

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "counting": self.counting_label,
            "cells": [
                {
                    "cell": key.to_json_dict(),
                    "expected": rational_json(cell.expected, 4),
                    "weight": rational_str(cell.weight),
                    "papers": cell.papers,
                }
                for key, cell in sorted(self.cells.items())
            ],
        }


def baseline_config(counting: str, split_citations: bool) -> CnciConfig:
    """The regime a baseline table obeys: splitting presumes ratio-of-averages."""
    return CnciConfig(counting, ROA if split_citations else AOR, split_citations)


def compute_baselines(
    corpus: Corpus, schema: str, counting: str = WHOLE, *,
    split_citations: bool = False, papers: Iterable[Paper] | None = None,
) -> BaselineTable:
    """Expected citation rates per cell over the corpus (or a paper subset).

    ``papers`` restricts the pool the baselines are computed from; relative
    indicators use it to normalize against a reference set instead of the
    whole corpus. Cells with no paper in the pool are absent, not zero.

    The whole corpus's table is built once per (schema, counting, splitting)
    from the corpus's kept cell masses and kept, so every call returns that one
    table and it must not be mutated; a pool's table is built on every call.
    """
    baseline_config(counting, split_citations)  # validates
    cite, weight = _RATE[counting, split_citations]

    def table(unit: int, masses: dict) -> BaselineTable:
        return BaselineTable(schema, counting, split_citations, {
            key: BaselineCell(Fraction(m[cite], m[weight]), Fraction(m[weight], unit),
                              m[2] // unit)
            for key, m in sorted(masses.items())})

    if papers is not None:
        return table(*corpus.cell_sums(schema, papers))
    # the table and its memo {(journal, year, doc type, citations): paper CNCI}
    return corpus._kept((schema, counting, split_citations),
                        lambda: (table(*corpus.cell_sums(schema)), {}))[0]


# (counting, split_citations) -> where a cell's citation mass and paper weight
# are among its masses (split citations, citations, papers, split papers; see
# corpus.fold_cells); their ratio is the cell's expected citation rate
_RATE = {(WHOLE, False): (1, 2), (WHOLE, True): (0, 2), (FRACTIONAL, False): (0, 3)}


def _ratio_sum(terms) -> tuple[int, int]:
    """Sum p/q over integer pairs (p, q > 0) as (numerator, denominator), the
    denominator being the lcm of the q rather than their product."""
    num, den = 0, 1
    for p, q in terms:
        g = math.gcd(den, q)
        num, den = num * (q // g) + p * (den // g), den // g * q
    return num, den


def cnci_paper(corpus: Corpus, paper: Paper, baselines: BaselineTable) -> Fraction:
    """Category-normalized citation impact of one paper: mean of c/e over its cells.

    An uncited paper in an uncited cell contributes 0 for that cell (it sits at
    the degenerate cell average); a cited paper over a zero baseline is an error.

    Over the corpus's own table (the very object ``compute_baselines`` keeps)
    the value is computed once per (journal, year, doc type, citation count)
    and kept with the table; an error is raised afresh every time. Any other
    table is read afresh on every call.
    """
    c = corpus.citation_counts.get(paper.id)
    if c is None:
        raise ComputationError(f"paper {paper.id!r} is not in the corpus")
    kept = corpus._tables.get(baselines[:3])  # (schema, counting, split_citations)
    memo = kept[1] if kept is not None and kept[0] is baselines else {}
    key = (paper.journal_id, paper.year, paper.doc_type, c)
    value = memo.get(key)
    if value is not None:
        return value
    fields = corpus.categories_of(paper.journal_id, baselines.schema)
    if not fields:
        raise ComputationError(f"paper {paper.id!r} has no categories under {baselines.schema!r}")
    inverse_rates = []  # 1/e of each non-zero cell, as (numerator, denominator)
    for f in fields:
        e = baselines.expected(CellKey(f, paper.year, paper.doc_type))
        if e:
            inverse_rates.append((e.denominator, e.numerator))
        elif c:
            raise ZeroBaselineError(
                f"paper {paper.id!r} has {c} citations in a zero-baseline cell")
    num, den = _ratio_sum(inverse_rates)
    value = memo[key] = Fraction(c * num, den * len(fields))
    return value


def cnci_set(corpus: Corpus, papers: Iterable[Paper], baselines: BaselineTable) -> Fraction:
    """Average-of-ratios aggregate: unweighted mean of per-paper CNCI. A k-field
    paper adds c/(k e) in each of its cells: per cell, split citation mass / e.

    If a paper has no category, or a cell has no baseline or a zero one under
    citations, the papers are walked one by one so the error names the first
    failing paper, as per paper."""
    papers = list(papers)
    unit, masses = corpus.cell_sums(baselines.schema, papers)
    cells = baselines.cells
    # each categorized paper adds 1 (``unit``) of split paper mass over its cells
    if sum(m[3] for m in masses.values()) != unit * len(papers) or any(
        key not in cells or m[0] and not cells[key].expected for key, m in masses.items()
    ):
        for p in papers:
            cnci_paper(corpus, p, baselines)
    return _aor(((m[0], cells[key].expected.numerator, cells[key].expected.denominator)
                 for key, m in masses.items()), unit * len(papers))


def _aor(terms, papers: int) -> Fraction:
    """Average of ratios from (split citation mass, rate numerator, rate denominator)
    per cell: each cell's split citation mass over its expected rate, summed and
    divided by ``papers``, counted in the masses' unit. A zero-rate cell adds 0."""
    if not papers:
        raise EmptyInputError("cannot average CNCI over an empty paper set")
    num, den = _ratio_sum((mass * rate_den, rate_num)
                          for mass, rate_num, rate_den in terms if rate_num)
    return Fraction(num, den * papers)


def global_cnci(
    corpus: Corpus, schema: str, config: CnciConfig, years=None, doc_types=None
) -> Fraction:
    """One number for a corpus slice under the given counting/aggregation regime.

    Baselines always come from the full corpus; because cells are keyed by
    (field, year, doc_type), a year/doc-type slice selects whole cells and the
    slice is closed with respect to its own baselines. It keeps or drops all k
    cells of a paper together, so its paper count is the sum of n_k / k.
    """
    return global_cnci_of_sums(corpus.cell_sums(schema), [config], years, doc_types)[0]


def global_cnci_of_sums(
    sums, configs: Iterable[CnciConfig], years=None, doc_types=None
) -> list[Fraction]:
    """``global_cnci`` under each regime of a closed corpus given by its cell
    masses (:meth:`Corpus.cell_sums`). A slice keeps whole cells, so each kept
    cell's expected rate comes from its own masses.

    Average-of-ratios sums its terms in integers and builds one Fraction;
    under whole counting it is not 1, which is the paper's point that world
    baselines are not unity. Ratio-of-averages needs no sum: a kept cell's
    expected mass is its paper weight (> 0, since a kept cell has papers) times
    its rate, citation mass over that weight, so it is the cell's observed
    citation mass again and the ratio is exactly 1 whenever a kept cell is
    cited."""
    cells = _within(sums[1], years, doc_types).values()
    papers = sum(masses[3] for masses in cells)  # the slice's paper count, times the unit
    values = []
    for config in configs:
        c, w = _RATE[config.counting, config.split_citations]
        if config.aggregation == AOR:
            values.append(_aor(((masses[0], masses[c], masses[w]) for masses in cells), papers))
            continue
        if not papers:
            raise EmptyInputError("cannot aggregate an empty paper set")
        if not any(masses[c] for masses in cells):
            raise ZeroBaselineError("total expected citation mass is zero")
        values.append(Fraction(1))
    return values


def relative_cnci(
    corpus: Corpus, subunit: Iterable[Paper], reference: Iterable[Paper], schema: str,
    counting: str = WHOLE,
) -> Fraction:
    """Subunit impact normalized against a reference set's own baselines.

    Expected rates are computed from ``reference`` only; the result is the
    average-of-ratios over ``subunit``. Comparing a set against itself gives
    exactly 1 under fractional counting (and for single-field sets under any
    counting); whole counting inherits the usual multi-field drift. A subunit
    paper outside the reference set is legal but logged, since the comparison
    then mixes populations.
    """
    subunit, reference = list(subunit), list(reference)
    if not subunit or not reference:
        raise EmptyInputError("subunit and reference sets must be non-empty")
    ref_ids = {p.id for p in reference}
    outside = [p.id for p in subunit if p.id not in ref_ids]
    if outside:
        logger.warning("relative CNCI: %d subunit paper(s) outside the reference set (e.g. %s)",
                       len(outside), outside[0])
    baselines = compute_baselines(corpus, schema, counting, papers=reference)
    return cnci_set(corpus, subunit, baselines)
