import random
from datetime import date
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpora
from biblio import (
    AuthorCredit,
    CitationEdge,
    CnciConfig,
    ComputationError,
    Corpus,
    Journal,
    Paper,
    SchemaInfo,
    compute_baselines,
    global_cnci,
    hcp_run,
    provisional_hcp_ids,
    quartile_distribution,
    rank_category,
    validate,
)
from biblio import corpus as corpus_module
from biblio import excellence, normalization
from biblio.corpus import DAY, MONTH, CellKey

S = corpora.SCHEMA


def test_counts_from_edges():
    c = corpora.make_minimal_edges()
    assert len(c.papers) == 4
    assert c.citation_counts["P1"] == 1
    assert c.citation_counts["P2"] == 2
    assert c.citation_counts["X1"] == 0


def test_a_corpus_equals_only_a_corpus(two_papers):
    assert two_papers == corpora.make_two_papers()
    assert two_papers != corpora.make_two_papers(swapped=True)
    assert two_papers.__eq__(two_papers.papers) is NotImplemented
    assert two_papers != two_papers.papers


def test_counts_from_explicit_column(two_papers):
    assert two_papers.citation_counts["pa"] == 1
    assert two_papers.citation_counts["pab"] == 2


def test_count_only_corpus_refuses_edge_operations(two_papers):
    with pytest.raises(ComputationError) as err:
        two_papers.in_edges
    assert str(err.value) == (
        "building the citing-paper index needs edge-level citation data; this corpus was "
        "ingested with precomputed citation counts only"
    )


def test_in_edges_index():
    c = corpora.make_minimal_edges()
    assert [e.citing for e in c.in_edges["P2"]] == ["X1", "X2"]
    assert c.in_edges["X1"] == ()


def test_cells_multi_attribution(two_papers):
    cells = two_papers.cells(S)
    assert list(cells) == [
        CellKey("A", 2020, "article"),
        CellKey("B", 2020, "article"),
    ]
    assert {p.id for p in cells[CellKey("A", 2020, "article")]} == {"pa", "pab"}
    assert {p.id for p in cells[CellKey("B", 2020, "article")]} == {"pab"}


def test_cells_skip_uncategorized_journals(two_papers_edges):
    members = {p.id for ps in two_papers_edges.cells(S).values() for p in ps}
    assert members == {"pa", "pab"}
    assert two_papers_edges.categories_of("GHOST", S) == ()


@pytest.mark.parametrize("indicator", [
    lambda c: hcp_run(c, "zz"),
    lambda c: compute_baselines(c, "zz"),
    lambda c: provisional_hcp_ids(c, "zz"),
    lambda c: global_cnci(c, "zz", CnciConfig()),
    lambda c: rank_category(c, "zz", "A", 2020),
    lambda c: quartile_distribution(c, "zz", 2020),
], ids=["hcp_run", "compute_baselines", "provisional_hcp_ids", "global_cnci", "rank_category",
        "quartile_distribution"])
def test_an_undeclared_schema_is_refused(two_papers, indicator):
    with pytest.raises(ComputationError) as err:
        indicator(two_papers)
    assert str(err.value) == (
        "schema 'zz' is not declared in the corpus (declared: 'subjects')"
    )


def test_cells_slice_filters():
    c = corpora.make_math2011()
    assert set(c.cells("esi", years=[2011])) == {CellKey("math", 2011, "article")}
    assert c.cells("esi", doc_types=["review"]) == {}


@given(st.integers(min_value=0, max_value=10_000))
def test_cell_membership_matches_journal_categories(seed):
    rng = random.Random(seed)
    journals = []
    for i in range(rng.randint(1, 6)):
        cats = tuple(sorted(rng.sample(["A", "B", "C"], rng.randint(0, 3))))
        journals.append(Journal(f"j{i}", {S: cats} if cats else {}, {}))
    papers = [
        Paper(f"p{i}", rng.choice(journals).id, rng.choice((2019, 2020)), "article")
        for i in range(rng.randint(1, 12))
    ]
    c = Corpus([SchemaInfo(S)], journals, papers, citation_counts={})
    cells = c.cells(S)
    appearances: dict[str, int] = {p.id: 0 for p in papers}
    for members in cells.values():
        for p in members:
            appearances[p.id] += 1
    for p in papers:
        assert appearances[p.id] == len(c.categories_of(p.journal_id, S))


def test_entity_attribution_partial_slots():
    authors = tuple(
        AuthorCredit(f"au{i}", ("E",) if i < 3 else ("F",)) for i in range(10)
    )
    p = Paper("p", "j", 2020, "article", authors=authors)
    c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], [p], citation_counts={})
    assert c.entity_attribution(p, "E") == Fraction(3, 10)
    assert c.entity_attribution(p, "F") == Fraction(7, 10)


def test_entity_attribution_splits_across_affiliations():
    p = Paper(
        "p", "j", 2020, "article",
        authors=(AuthorCredit("a1", ("E", "F")), AuthorCredit("a2", ("E",))),
    )
    c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], [p], citation_counts={})
    assert c.entity_attribution(p, "E") == Fraction(1, 4) + Fraction(1, 2)
    assert c.entity_attribution(p, "F") == Fraction(1, 4)


def test_entity_attribution_unaffiliated_share_credits_nobody():
    p = Paper(
        "p", "j", 2020, "article",
        authors=(AuthorCredit("a1", ("E",)), AuthorCredit("a2", ())),
    )
    c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], [p], citation_counts={})
    assert c.entity_attribution(p, "E") == Fraction(1, 2)


def test_entity_attribution_rejects_authorless(two_papers):
    with pytest.raises(ComputationError):
        two_papers.entity_attribution(two_papers.papers["pa"], "E")


def test_papers_of_entity(simpson):
    assert {p.id for p in simpson.papers_of_entity("unit-r")} == {"RC1", "RC2", "RM"}
    assert {p.id for p in simpson.papers_of_entity("team-s")} == {"RC1"}


@pytest.mark.parametrize("table, good, bad", [
    (Corpus.cells, S, "zz"),
    (excellence._ranked, S, "zz"),
    (normalization._sums, S, "zz"),
    (compute_baselines, S, "zz"),
    (Corpus.entity_output_weight, "E", "ghost"),
], ids=["cells", "ranked", "sums", "compute_baselines", "entity_output_weight"])
def test_a_kept_table_is_built_once_and_a_failed_build_is_never_kept(
        monkeypatch, table, good, bad):
    authors = (AuthorCredit("a1", ("E",)), AuthorCredit("a2", ("F",)))
    journals = [Journal("JA", {S: ("A",)}, {}), Journal("JAB", {S: ("A", "B")}, {})]
    c = Corpus([SchemaInfo(S)], journals,
               [Paper("pa", "JA", 2020, "article", authors=authors),
                Paper("pab", "JAB", 2020, "article", authors=authors[:1])],
               citation_counts={"pa": 1, "pab": 2})
    # an entity whose output holds an authorless paper has no weight
    papers_of_entity = c.papers_of_entity
    monkeypatch.setattr(c, "papers_of_entity", lambda entity: (
        (Paper("p0", "JA", 2020, "article"),) if entity == "ghost" else papers_of_entity(entity)))
    for _ in range(2):
        with pytest.raises(ComputationError):
            table(c, bad)
    kept = table(c, good)
    assert table(c, good) is kept
    with pytest.raises(ComputationError):
        table(c, bad)
    assert table(c, good) is kept


# -- validation ---------------------------------------------------------------


def violations(c):
    return {r.name: r for r in validate(c).violations}


def test_validate_clean_fixtures(two_papers, two_papers_edges, simpson, quota_mini):
    for c in (two_papers, two_papers_edges, simpson, quota_mini):
        report = validate(c)
        assert report.ok and not report.warnings


def test_validate_unknown_schema():
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {"nope": ("x",)}, {})],
        [Paper("p", "j", 2020, "article")],
        citation_counts={},
    )
    assert violations(c)["unknown_schema"].examples == ("j:nope",)


def test_validate_empty_category_list():
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {S: ()}, {})],
        [],
        citation_counts={},
    )
    assert "empty_category_list" in violations(c)


def test_validate_duplicate_category():
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {S: ("A", "B", "A")}, {})],
        [],
        citation_counts={},
    )
    assert violations(c)["duplicate_category"].examples == (f"j:{S}",)


def test_validate_single_attribution_violation():
    c = Corpus(
        [SchemaInfo(S, single_attribution=True)],
        [Journal("j", {S: ("A", "B")}, {})],
        [],
        citation_counts={},
    )
    assert "single_attribution_violation" in violations(c)


def test_validate_negative_metric():
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {S: ("A",)}, {2020: Fraction(-1)})],
        [],
        citation_counts={},
    )
    assert violations(c)["negative_metric"].examples == ("j:2020",)


def test_validate_unresolved_journal():
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {S: ("A",)}, {})],
        [Paper("p", "ghost", 2020, "article")],
        citation_counts={},
    )
    assert violations(c)["unresolved_journal"].examples == ("p",)


def test_validate_edge_checks():
    papers = [Paper("p1", "j", 2020, "article"), Paper("p2", "j", 2020, "article")]
    edges = [
        CitationEdge("p1", "p1"),
        CitationEdge("p1", "p2"),
        CitationEdge("p1", "p2"),
        CitationEdge("p1", "missing"),
    ]
    c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], papers, edges)
    found = violations(c)
    assert found["self_citation_loop"].examples == ("p1",)
    assert found["duplicate_edge"].examples == ("p1->p2",)
    assert found["unresolved_edge_endpoint"].examples == ("missing",)


def test_validate_count_mismatch():
    papers = [Paper("p1", "j", 2020, "article"), Paper("p2", "j", 2020, "article")]
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {S: ("A",)}, {})],
        papers,
        edges=[CitationEdge("p1", "p2")],
        citation_counts={"p2": 5},
    )
    assert violations(c)["citation_count_mismatch"].examples == ("p2",)


def test_validate_negative_citation_count():
    papers = [Paper("p1", "j", 2020, "article"), Paper("p2", "j", 2020, "article")]
    c = Corpus(
        [SchemaInfo(S)],
        [Journal("j", {S: ("A",)}, {})],
        papers,
        citation_counts={"p1": 5, "p2": -3},
    )
    report = validate(c)
    assert not report.ok
    assert violations(c)["negative_citation_count"].examples == ("p2",)


def test_validate_issue_before_online_is_a_warning_not_violation():
    for pub_date, precision in [(date(2011, 2, 1), MONTH), (date(2011, 3, 25), DAY)]:
        p = Paper(
            "p", "j", 2020, "article",
            online_date=date(2011, 3, 26),
            pub_date=pub_date,
            pub_date_precision=precision,
        )
        c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], [p], citation_counts={})
        report = validate(c)
        assert report.ok
        assert [w.name for w in report.warnings] == ["issue_precedes_online"]


def test_month_precision_same_month_is_not_flagged():
    p = Paper(
        "p", "j", 2020, "article",
        online_date=date(2011, 3, 26),
        pub_date=date(2011, 3, 1),
        pub_date_precision=MONTH,
    )
    c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], [p], citation_counts={})
    assert not validate(c).warnings


def test_issue_precedes_online_compares_months_or_days_by_precision(monkeypatch):
    days = [date(2010, 12, 31), date(2011, 2, 28), date(2011, 3, 1), date(2011, 3, 15),
            date(2011, 3, 31), date(2011, 4, 1)]
    papers = [Paper(f"p{i}", "j", 2011, "article", online_date=online, pub_date=pub,
                    pub_date_precision=precision)
              for i, (online, pub, precision) in enumerate(product(days, days, (DAY, MONTH)))]
    # Month precision compares (year, month) pairs; day precision compares dates.
    expected = {p.id for p in papers if (
        (p.pub_date.year, p.pub_date.month) < (p.online_date.year, p.online_date.month)
        if p.pub_date_precision == MONTH else p.pub_date < p.online_date)}
    c = Corpus([SchemaInfo(S)], [Journal("j", {S: ("A",)}, {})], papers, citation_counts={})
    monkeypatch.setattr(corpus_module, "MAX_EXAMPLES", len(papers))
    [warning] = validate(c).warnings
    assert set(warning.examples) == expected


def test_validate_truncates_examples():
    papers = [Paper(f"p{i}", "ghost", 2020, "article") for i in range(9)]
    c = Corpus([SchemaInfo(S)], [], papers, citation_counts={})
    row = violations(c)["unresolved_journal"]
    assert row.count == 9
    assert len(row.examples) == corpus_module.MAX_EXAMPLES == 5


def test_validation_report_json_shape(two_papers):
    d = validate(two_papers).to_json_dict()
    assert d["ok"] is True
    assert d["violations"] == [] and d["warnings"] == []
