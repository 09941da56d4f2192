"""Seeded benchmark inputs, written with the standard library only.

The corpora are generated here rather than by ``biblio.synthesis`` so that a
change to the synthesis layer cannot change what the other workloads read.

Corpus S: ``categories`` x 17 journals, U[1, 30] papers per journal and year
over 2020 and 2021, a 0.4 chance per extra category slot (up to 3 categories
per journal), an article/review mix, Yule(rho=2) citation counts in a
``citations`` column, and 1-3 authors per paper with 1-2 ``org-*`` entities
each.

Corpus S+E: the same papers, dated instead of counted. Dates are online dates,
issue months or issue days drawn from a coarse grid (the 1st and 15th of each
month), so chronology tie-breaks meet equal dates and sub-ties. Each paper's
Yule count becomes its in-degree in a dated edge file whose edge dates fall
at year offsets 0-9 from the cited paper's year.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCHEMA = "wos"
YEARS = (2020, 2021)
JOURNALS_PER_CATEGORY = 17
PAPERS_PER_JOURNAL = (1, 30)
MULTI_ATTRIBUTION = 0.4
MAX_CATEGORIES = 3
DOC_TYPES = (("article", 0.8), ("review", 0.2))
YULE_RHO = 2.0
ENTITIES = 200


@dataclass(frozen=True)
class CorpusFiles:
    journals: Path
    papers: Path
    edges: Path | None
    papers_count: int
    edges_count: int


def _yule(rng: random.Random, rho: float = YULE_RHO) -> int:
    """Yule-Simon draw (support >= 1) via its exponential-geometric mixture."""
    p = math.exp(-rng.expovariate(rho))
    if p >= 1.0:
        return 1
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - p))


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _date_on_grid(rng: random.Random, year: int) -> tuple[int, int, int]:
    return year, rng.randint(1, 12), rng.choice((1, 15))


def write_corpus(out_dir: Path, seed: int, categories: int, *, dated: bool) -> CorpusFiles:
    """Write corpus S (``dated=False``) or S+E (``dated=True``) into ``out_dir``.

    The same (seed, categories) gives the same journals, papers and citation
    counts in both forms.
    """
    rng = random.Random(f"perfbench/{seed}/{categories}")
    cats = [f"c{i:03d}" for i in range(categories)]
    journals = []
    for home in cats:
        for j in range(JOURNALS_PER_CATEGORY):
            members = [home]
            while len(members) < MAX_CATEGORIES and rng.random() < MULTI_ATTRIBUTION:
                other = rng.choice(cats)
                if other not in members:
                    members.append(other)
            metric = {str(y): round(rng.lognormvariate(0.0, 0.5), 3) for y in YEARS}
            journals.append({"id": f"{home}-j{j:02d}", "categories": {SCHEMA: members},
                             "metric": metric})

    kinds = [t for t, _ in DOC_TYPES]
    weights = [w for _, w in DOC_TYPES]
    papers = []
    counts = []
    for year in YEARS:
        for journal in journals:
            for _ in range(rng.randint(*PAPERS_PER_JOURNAL)):
                pid = f"p{len(papers):07d}"
                authors = [
                    {"key": f"au{rng.randrange(10 * ENTITIES):05d}",
                     "entities": sorted({f"org-{rng.randrange(ENTITIES):04d}"
                                         for _ in range(rng.randint(1, 2))})}
                    for _ in range(rng.randint(1, 3))
                ]
                papers.append({"id": pid, "journal": journal["id"], "year": year,
                               "doc_type": rng.choices(kinds, weights)[0],
                               "authors": authors})
                counts.append(_yule(rng))

    out_dir.mkdir(parents=True, exist_ok=True)
    journals_path = out_dir / "journals.jsonl"
    papers_path = out_dir / "papers.jsonl"
    with journals_path.open("w", encoding="utf-8") as fh:
        fh.write(_line({"_schemas": {SCHEMA: {"single_attribution": False}}}))
        fh.writelines(_line(j) for j in journals)

    if not dated:
        for paper, c in zip(papers, counts):
            paper["citations"] = c
        with papers_path.open("w", encoding="utf-8") as fh:
            fh.writelines(_line(p) for p in papers)
        return CorpusFiles(journals_path, papers_path, None, len(papers), 0)

    date_rng = random.Random(f"perfbench/{seed}/{categories}/dates")
    for paper in papers:
        y, m, d = _date_on_grid(date_rng, paper["year"])
        kind = date_rng.random()
        if kind < 0.4:
            paper["online_date"] = f"{y:04d}-{m:02d}-{d:02d}"
        elif kind < 0.7:
            paper["pub_month"] = f"{y:04d}-{m:02d}"
        else:
            paper["pub_date"] = f"{y:04d}-{m:02d}-{d:02d}"
    with papers_path.open("w", encoding="utf-8") as fh:
        fh.writelines(_line(p) for p in papers)

    edges_path = out_dir / "edges.jsonl"
    n = len(papers)
    edges = 0
    with edges_path.open("w", encoding="utf-8") as fh:
        for cited, (paper, c) in enumerate(zip(papers, counts)):
            citing: set[int] = set()
            while len(citing) < min(c, n - 1):
                pick = date_rng.randrange(n)
                if pick != cited:
                    citing.add(pick)
            for i in sorted(citing):
                year = paper["year"] + date_rng.randint(0, 9)
                fh.write(_line({"citing": papers[i]["id"], "cited": paper["id"],
                                "date": f"{year:04d}-{date_rng.randint(1, 12):02d}-"
                                        f"{date_rng.randint(1, 28):02d}"}))
            edges += len(citing)
    return CorpusFiles(journals_path, papers_path, edges_path, n, edges)
