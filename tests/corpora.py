"""Hand-built corpora shared across the test modules.

Everything here is constructed in code so the exact citation counts, dates,
and category memberships that the assertions rely on are visible next to the
tests. Builders return fresh Corpus objects; file-based tests serialize them
through the io module.
"""
from __future__ import annotations

from datetime import date
from fractions import Fraction

from biblio import (
    AuthorCredit,
    CitationEdge,
    Corpus,
    Journal,
    Paper,
    SchemaInfo,
)
from biblio.corpus import DAY, MONTH

SCHEMA = "subjects"


def make_two_papers(swapped: bool = False) -> Corpus:
    """Two papers, one single-field and one two-field, counts only.

    pa sits in field A alone; pab's journal is in A and B. Citation counts
    (1, 2) give whole baselines (3/2, 2) and a global whole-counting mean of
    11/12; swapping the counts flips it to 13/12.
    """
    counts = {"pa": 2, "pab": 1} if swapped else {"pa": 1, "pab": 2}
    return Corpus(
        schemas=[SchemaInfo(SCHEMA)],
        journals=[
            Journal("JA", {SCHEMA: ("A",)}, {2020: Fraction(5, 2)}),
            Journal("JAB", {SCHEMA: ("A", "B")}, {2020: Fraction(3, 2)}),
        ],
        papers=[
            Paper("pa", "JA", 2020, "article"),
            Paper("pab", "JAB", 2020, "article"),
        ],
        citation_counts=counts,
    )


def make_two_papers_edges() -> Corpus:
    """The same two-paper world with real edges from uncategorized citers."""
    journals = [
        Journal("JA", {SCHEMA: ("A",)}, {2020: Fraction(5, 2)}),
        Journal("JAB", {SCHEMA: ("A", "B")}, {2020: Fraction(3, 2)}),
        Journal("JX", {}, {}),
    ]
    papers = [
        Paper("pa", "JA", 2020, "article"),
        Paper("pab", "JAB", 2020, "article"),
        Paper("x1", "JX", 2021, "article"),
        Paper("x2", "JX", 2021, "article"),
        Paper("x3", "JX", 2021, "article"),
    ]
    edges = [
        CitationEdge("x1", "pa", date(2021, 3, 1)),
        CitationEdge("x2", "pab", date(2021, 4, 1)),
        CitationEdge("x3", "pab", date(2021, 5, 1)),
    ]
    return Corpus([SchemaInfo(SCHEMA)], journals, papers, edges)


def make_minimal_edges() -> Corpus:
    """Smallest edge-based corpus with in-degrees (1, 2): two cited papers
    plus two citers in a second journal, three edges total."""
    journals = [
        Journal("J1", {SCHEMA: ("A",)}, {}),
        Journal("J2", {}, {}),
    ]
    papers = [
        Paper("P1", "J1", 2020, "article"),
        Paper("P2", "J1", 2020, "article"),
        Paper("X1", "J2", 2021, "article"),
        Paper("X2", "J2", 2021, "article"),
    ]
    edges = [
        CitationEdge("X1", "P1"),
        CitationEdge("X1", "P2"),
        CitationEdge("X2", "P2"),
    ]
    return Corpus([SchemaInfo(SCHEMA)], journals, papers, edges)


def make_hundred() -> Corpus:
    """One cell of 100 papers: 90 cited once, 10 uncited.

    Top 1% gives quota 1 at threshold 1, zero strictly above, 90 ties.
    """
    journals = [Journal("jf", {"f": ("fict",)}, {})]
    papers = []
    counts = {}
    for i in range(100):
        pid = f"p{i:03d}"
        papers.append(Paper(pid, "jf", 2019, "article"))
        counts[pid] = 1 if i < 90 else 0
    return Corpus([SchemaInfo("f", single_attribution=True)], journals, papers,
                  citation_counts=counts)


def make_ws105() -> Corpus:
    """105 papers: 5 at 20 citations, 10 at 10, 90 uncited.

    Top 10% gives quota 11 (10.5 rounded half-up), threshold 10, five papers
    above and ten borderline, so tie weights are 6/10.
    """
    journals = [Journal("jf", {"f": ("fict",)}, {})]
    papers = []
    counts = {}
    for i in range(105):
        pid = f"p{i:03d}"
        papers.append(Paper(pid, "jf", 2019, "article"))
        counts[pid] = 20 if i < 5 else (10 if i < 15 else 0)
    return Corpus([SchemaInfo("f", single_attribution=True)], journals, papers,
                  citation_counts=counts)


# Borderline papers of the mathematics-2011 cell: online date, issue month
# (None when the source gives only an issue number), early-window (years 0-4)
# and late-window (years 5-9) citation counts, and how many of the 88 citers
# are themselves highly cited. Window splits put the late/early ratio extremes
# at row 2 (57/22, the maximum) and row 5 (42/44, the minimum) and the ratio
# order at 2 > 1 > 6 > 7 > 3 > 4 > 8 > 9 > 5.
MATH2011_BORDERLINE = (
    ("b1", date(2011, 11, 1), None, 20, 40, 2),
    ("b2", date(2011, 8, 12), 11, 22, 57, 11),
    ("b3", date(2011, 7, 13), 9, 25, 35, 2),
    ("b4", date(2011, 5, 20), 8, 25, 30, 7),
    ("b5", date(2011, 3, 26), 5, 44, 42, 1),
    ("b6", date(2011, 3, 22), 7, 18, 33, 1),
    ("b7", date(2011, 2, 1), 5, 16, 28, 3),
    ("b8", date(2011, 1, 6), 3, 27, 30, 3),
    ("b9", date(2010, 10, 28), 2, 28, 28, 3),
)


def make_math2011() -> Corpus:
    """38,048 mathematics articles of 2011: 376 papers at 89 citations, the
    nine dated borderline papers at exactly 88, and 37,663 uncited ones.

    Citers are 89 uncited 2012 articles in the same field (their own cell has
    threshold 0, so the low-threshold rule keeps them out of the provisional
    highly cited set) plus, for borderline papers, a few of the 89-citation
    papers standing in as highly cited citers. Edge dates place each
    borderline paper's citations into the configured early/late windows, with
    any remainder dated outside both.
    """
    early_date, late_date, out_date = date(2012, 6, 1), date(2017, 6, 1), date(2021, 3, 1)
    journals = [Journal("j-math", {"esi": ("math",)}, {})]
    papers = []
    edges = []
    above = [f"a{i:03d}" for i in range(376)]
    pool = [f"y{i:02d}" for i in range(89)]
    for pid in above:
        papers.append(Paper(pid, "j-math", 2011, "article"))
    for pid in pool:
        papers.append(Paper(pid, "j-math", 2012, "article"))
    for i in range(37663):
        papers.append(Paper(f"z{i:05d}", "j-math", 2011, "article"))
    for pid, online, month, early, late, hcp in MATH2011_BORDERLINE:
        papers.append(
            Paper(
                pid, "j-math", 2011, "article",
                online_date=online,
                pub_date=None if month is None else date(2011, month, 1),
                pub_date_precision=MONTH if month is not None else DAY,
            )
        )
        citers = above[:hcp] + pool[: 88 - hcp]
        dates = [early_date] * early + [late_date] * late + [out_date] * (88 - early - late)
        edges.extend(CitationEdge(c, pid, d) for c, d in zip(citers, dates))
    for pid in above:
        edges.extend(CitationEdge(y, pid) for y in pool)
    return Corpus([SchemaInfo("esi", single_attribution=True)], journals, papers, edges)


def make_simpson() -> Corpus:
    """Reference set straddling two fields where the subunit leads its own
    field yet trails the reference under a naive CNCI ratio.

    Chemistry cell: two world papers at 10 citations plus reference papers at
    4 and 2. Medicine cell: a world paper at 20 plus a reference paper at 18.
    Subunit = the 4-citation chemistry paper.
    """
    journals = [
        Journal("JC", {SCHEMA: ("chem",)}, {}),
        Journal("JM", {SCHEMA: ("med",)}, {}),
    ]

    def author(pid: str, *entities: str):
        return (AuthorCredit(f"au-{pid}", tuple(entities)),)

    papers = [
        Paper("W1", "JC", 2020, "article", authors=author("W1", "world")),
        Paper("W2", "JC", 2020, "article", authors=author("W2", "world")),
        Paper("RC1", "JC", 2020, "article", authors=author("RC1", "team-s", "unit-r")),
        Paper("RC2", "JC", 2020, "article", authors=author("RC2", "unit-r")),
        Paper("M1", "JM", 2020, "article", authors=author("M1", "world")),
        Paper("RM", "JM", 2020, "article", authors=author("RM", "unit-r")),
    ]
    counts = {"W1": 10, "W2": 10, "RC1": 4, "RC2": 2, "M1": 20, "RM": 18}
    return Corpus([SchemaInfo(SCHEMA)], journals, papers, citation_counts=counts)


def make_avgpct() -> Corpus:
    """A journal ranked 1st of 4, 1st of 1, and 18th of 86 across its three
    categories; the mean percentile renders as 72.4."""
    journals = [Journal("jstar", {"s": ("A", "B", "C")}, {2021: Fraction(10)})]
    for i, m in enumerate((1, 2, 3), start=1):
        journals.append(Journal(f"a{i}", {"s": ("A",)}, {2021: Fraction(m)}))
    for i in range(17):
        journals.append(Journal(f"c{i:02d}", {"s": ("C",)}, {2021: Fraction(20 + i)}))
    for i in range(17, 85):
        journals.append(Journal(f"c{i:02d}", {"s": ("C",)}, {2021: Fraction(5)}))
    papers = [Paper("p0", "jstar", 2021, "article")]
    return Corpus([SchemaInfo("s")], journals, papers, citation_counts={"p0": 0})


def make_quartile_mix() -> Corpus:
    """Four categories of 2021 journals, for the quartile distribution's options.

    Journal jm sits in A (tied at rank 2 of 5, Q2) and B (rank 1 of 5, Q1), so
    database-best counts it once, at Q1; a tie block in each of A and B spans
    a quartile cut. a5 has no 2021 metric and is excluded. No journal of C has
    one, so C is skipped and c1 is excluded too; D ranks one journal, under a
    size gate of 2.
    Papers per journal vary, and 2020 papers never count.
    """
    journals = [
        Journal("jm", {SCHEMA: ("A", "B")}, {2021: Fraction(6)}),
        Journal("a1", {SCHEMA: ("A",)}, {2021: Fraction(9)}),
        Journal("a2", {SCHEMA: ("A",)}, {2021: Fraction(6)}),
        Journal("a3", {SCHEMA: ("A",)}, {2021: Fraction(6)}),
        Journal("a4", {SCHEMA: ("A",)}, {2021: Fraction(2)}),
        Journal("a5", {SCHEMA: ("A",)}, {2020: Fraction(7)}),
        Journal("b1", {SCHEMA: ("B",)}, {2021: Fraction(4)}),
        Journal("b2", {SCHEMA: ("B",)}, {2021: Fraction(4)}),
        Journal("b3", {SCHEMA: ("B",)}, {2021: Fraction(1)}),
        Journal("b4", {SCHEMA: ("B",)}, {2021: Fraction(1, 2)}),
        Journal("c1", {SCHEMA: ("C",)}, {}),
        Journal("d1", {SCHEMA: ("D",)}, {2021: Fraction(3)}),
    ]
    volumes = {"jm": 3, "a1": 5, "a2": 1, "a3": 2, "a4": 4, "a5": 2,
               "b1": 1, "b2": 3, "b4": 2, "c1": 1, "d1": 6}
    papers = [Paper(f"{jid}-{i}", jid, 2021, "article")
              for jid, k in volumes.items() for i in range(k)]
    papers += [Paper(f"{jid}-old", jid, 2020, "article") for jid in ("jm", "b3")]
    return Corpus([SchemaInfo(SCHEMA)], journals, papers,
                  citation_counts=dict.fromkeys((p.id for p in papers), 0))


def make_quota_mini() -> Corpus:
    """Ten-paper cell for exercising quota selection through the CLI.

    Top 30% gives quota 3 at threshold 3: two papers above, three dated
    borderline papers, chronology picks the latest-online one.
    """
    journals = [
        Journal("jf", {"f": ("fict",)}, {}),
        Journal("jx", {}, {}),
    ]
    papers = []
    edges = []

    def author(pid: str, entity: str):
        return (AuthorCredit(f"au-{pid}", (entity,)),)

    citers = [f"x{i}" for i in range(1, 6)]
    for pid in citers:
        papers.append(Paper(pid, "jx", 2012, "article"))
    for pid in ("q1", "q2"):
        papers.append(Paper(pid, "jf", 2011, "article", authors=author(pid, "org-a")))
        edges.extend(CitationEdge(x, pid, date(2012, 4, 1)) for x in citers)
    borderline = (
        ("t1", date(2011, 9, 1), "org-a"),
        ("t2", date(2011, 8, 1), "org-b"),
        ("t3", date(2011, 7, 1), "org-b"),
    )
    for pid, online, entity in borderline:
        papers.append(
            Paper(pid, "jf", 2011, "article", online_date=online, authors=author(pid, entity))
        )
        edges.extend(CitationEdge(x, pid, date(2012, 5, 1)) for x in citers[:3])
    for i in range(5):
        papers.append(Paper(f"u{i}", "jf", 2011, "article", authors=author(f"u{i}", "org-a")))
    return Corpus([SchemaInfo("f", single_attribution=True)], journals, papers, edges)


def make_slices() -> Corpus:
    """Six (field, year, doc_type) cells over two fields, two years and two
    document types, with small tie-heavy counts.

    Journal jab holds both fields, so its papers sit in two cells each.
    Counts cycle through 0-3, so most thresholds fall at 2 or below and the
    low-threshold rule decides whether those cells select anything.
    """
    journals = [
        Journal("ja", {"f": ("alpha",)}, {}),
        Journal("jab", {"f": ("alpha", "beta")}, {}),
        Journal("jb", {"f": ("beta",)}, {}),
    ]
    papers = []
    counts = {}
    for i in range(36):
        pid = f"s{i:02d}"
        papers.append(
            Paper(pid, ("ja", "jab", "jb")[i % 3], 2019 + i % 2,
                  "review" if i % 5 == 0 else "article")
        )
        counts[pid] = (i * 7) % 4 + (5 if i % 11 == 0 else 0)
    return Corpus([SchemaInfo("f")], journals, papers, citation_counts=counts)
