import contextlib
import gc
import json
import tempfile
from dataclasses import replace
from datetime import date
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cli_cases
import corpora
from biblio import (
    AuthorCredit,
    CitationEdge,
    Corpus,
    Journal,
    LoadError,
    Paper,
    SchemaInfo,
    dump_corpus,
    load_corpus,
)
from biblio.corpus import DAY, MONTH


def write(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


REGISTRY = json.dumps({"_schemas": {corpora.SCHEMA: {"single_attribution": False}}})


def journal_line(jid, cats, metric=None):
    return json.dumps({"id": jid, "categories": cats, "metric": metric or {}})


def paper_line(pid, jid, year=2020, **extra):
    return json.dumps({"id": pid, "journal": jid, "year": year, "doc_type": "article", **extra})


@pytest.fixture
def minimal_paths(tmp_path):
    journals = write(
        tmp_path / "journals.jsonl",
        REGISTRY,
        journal_line("J1", {corpora.SCHEMA: ["A"]}, {"2020": 2.5}),
        journal_line("J2", {}),
    )
    papers = write(
        tmp_path / "papers.jsonl",
        paper_line("P1", "J1"),
        paper_line("P2", "J1"),
        paper_line("X1", "J2", 2021),
        paper_line("X2", "J2", 2021),
    )
    edges = write(
        tmp_path / "edges.jsonl",
        json.dumps({"citing": "X1", "cited": "P1"}),
        json.dumps({"citing": "X1", "cited": "P2"}),
        json.dumps({"citing": "X2", "cited": "P2", "date": "2021-05-02"}),
    )
    return journals, papers, edges


def test_load_minimal(minimal_paths):
    corpus = load_corpus(*minimal_paths)
    assert corpus.load_report.clean
    assert len(corpus.journals) == 2
    assert len(corpus.papers) == 4
    assert corpus.citation_counts["P1"] == 1
    assert corpus.citation_counts["P2"] == 2
    assert corpus.journals["J1"].metric_by_year == {2020: Fraction(5, 2)}
    assert corpus.edges[2].date == date(2021, 5, 2)


def test_load_without_edges_uses_counts_column(tmp_path):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", citations=7),
        paper_line("P2", "J1"),
    )
    corpus = load_corpus(journals, papers)
    assert corpus.edges is None
    assert corpus.citation_counts["P1"] == 7
    assert corpus.citation_counts["P2"] == 0


def test_metric_accepts_rational_strings(tmp_path):
    journals = write(
        tmp_path / "j.jsonl",
        REGISTRY,
        journal_line("J1", {corpora.SCHEMA: ["A"]}, {"2020": "1/3"}),
    )
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"))
    corpus = load_corpus(journals, papers)
    assert corpus.journals["J1"].metric_by_year[2020] == Fraction(1, 3)


@pytest.mark.parametrize("value", ["1_000", "1 /2", "+2", " 1.5 ", "\u0663", "1/0", True])
def test_metric_values_take_the_rational_spelling(tmp_path, value):
    journals = write(
        tmp_path / "j.jsonl", REGISTRY,
        journal_line("J1", {corpora.SCHEMA: ["A"]},
                     {"2020": 1e16, "2021": 1e-07, "2022": "1e+16", "2023": "-.5", "2024": 2.5}),
        journal_line("J2", {corpora.SCHEMA: ["A"]}, {"2020": value}),
    )
    papers = write(tmp_path / "p.jsonl")
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_journal": 1}
    assert corpus.journals["J1"].metric_by_year == {
        2020: Fraction(10**16), 2021: Fraction(1, 10**7), 2022: Fraction(10**16),
        2023: Fraction(-1, 2), 2024: Fraction(5, 2)}
    with pytest.raises(LoadError, match="^j.jsonl:3: journal 'J2' has a malformed metric map"):
        load_corpus(journals, papers, strict=True)


def test_pub_month_parses_to_first_of_month(tmp_path):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", year=2011, pub_month="2011-11"),
        paper_line("P2", "J1", year=2011, pub_month=3),
        paper_line("P3", "J1", year=2011, pub_date="2011-07-13"),
    )
    corpus = load_corpus(journals, papers)
    p1, p2, p3 = corpus.papers["P1"], corpus.papers["P2"], corpus.papers["P3"]
    assert (p1.pub_date, p1.pub_date_precision) == (date(2011, 11, 1), MONTH)
    assert (p2.pub_date, p2.pub_date_precision) == (date(2011, 3, 1), MONTH)
    assert (p3.pub_date, p3.pub_date_precision) == (date(2011, 7, 13), "day")


def test_strict_mode_raises_with_row_location(tmp_path, minimal_paths):
    journals, papers, _ = minimal_paths
    bad_edges = write(
        tmp_path / "bad_edges.jsonl",
        json.dumps({"citing": "X1", "cited": "NOPE"}),
    )
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, bad_edges, strict=True)
    assert "bad_edges.jsonl:1" in str(err.value)
    assert "NOPE" in str(err.value)


def test_lenient_mode_drops_and_counts(tmp_path, minimal_paths):
    journals, papers, _ = minimal_paths
    edges = write(
        tmp_path / "e.jsonl",
        json.dumps({"citing": "X1", "cited": "NOPE"}),
        json.dumps({"citing": "X1", "cited": "X1"}),
        json.dumps({"citing": "X1", "cited": "P1"}),
    )
    corpus = load_corpus(journals, papers, edges)
    report = corpus.load_report
    assert not report.clean
    assert report.dropped == {"unresolved_edge_endpoint": 1, "self_citation_loop": 1}
    assert len(corpus.edges) == 1
    assert any("NOPE" in note for note in report.notes)


def test_duplicate_edges_collapse_in_both_modes(tmp_path, minimal_paths):
    journals, papers, _ = minimal_paths
    edges = write(
        tmp_path / "e.jsonl",
        json.dumps({"citing": "X1", "cited": "P1"}),
        json.dumps({"citing": "X1", "cited": "P1"}),
    )
    for strict in (False, True):
        corpus = load_corpus(journals, papers, edges, strict=strict)
        assert corpus.load_report.collapsed_duplicate_edges == 1
        assert corpus.citation_counts["P1"] == 1


def test_an_edge_dropped_for_its_date_does_not_hide_a_valid_duplicate(tmp_path, minimal_paths):
    journals, papers, _ = minimal_paths
    edges = write(
        tmp_path / "e.jsonl",
        json.dumps({"citing": "X1", "cited": "P1", "date": "not-a-date"}),
        json.dumps({"citing": "X1", "cited": "P1", "date": "2021-01-01"}),
    )
    corpus = load_corpus(journals, papers, edges)
    assert corpus.load_report.dropped == {"malformed_edge": 1}
    assert corpus.load_report.collapsed_duplicate_edges == 0
    assert corpus.citation_counts["P1"] == 1


def test_a_malformed_journal_is_counted_once(tmp_path):
    journals = write(
        tmp_path / "j.jsonl", REGISTRY,
        journal_line("J1", {"mystery": ["A"], "other": ["B"]}, {"2020": "x"}),
    )
    corpus = load_corpus(journals, write(tmp_path / "p.jsonl"))
    assert corpus.load_report.dropped == {"malformed_journal": 1}
    assert corpus.journals == {}


def test_duplicate_ids_rejected(tmp_path):
    journals = write(
        tmp_path / "j.jsonl",
        REGISTRY,
        journal_line("J1", {corpora.SCHEMA: ["A"]}),
        journal_line("J1", {corpora.SCHEMA: ["B"]}),
    )
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1"),
        paper_line("P1", "J1"),
    )
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {
        "duplicate_journal_id": 1,
        "duplicate_paper_id": 1,
    }
    assert corpus.journals["J1"].categories == {corpora.SCHEMA: ("A",)}
    with pytest.raises(LoadError):
        load_corpus(journals, papers, strict=True)


def test_unknown_schema_in_journal_row(tmp_path):
    journals = write(
        tmp_path / "j.jsonl",
        REGISTRY,
        journal_line("J1", {"mystery": ["A"]}),
    )
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"))
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"unknown_schema": 1}
    assert corpus.journals["J1"].categories == {}


def test_malformed_rows_are_located(tmp_path):
    journals = write(
        tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}),
        journal_line("J2", {corpora.SCHEMA: "ecology"}),
    )
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", online_date="not-a-date"),
        paper_line("P2", "J1", pub_month="13"),
        json.dumps({"id": "P3", "journal": "J1"}),
        paper_line("P4", "GHOST"),
        paper_line("P5", "J1", year=None),
        paper_line("P6", "J1", authors=[{"entities": ["org"]}]),
        paper_line("P7", "J1", authors=["au-1"]),
        paper_line("P8", "J1", authors=[{"key": "au-8", "entities": "org"}]),
        paper_line("P9", "J1", year=2020.5),
        paper_line("P10", "J1", year=True),
        paper_line("P11", "J1", authors=[{"key": 5}]),
        paper_line("P12", "J1", authors={"key": "au-12"}),
        paper_line("P13", "J1", pub_date="2021-02-30"),
        paper_line("P14", "J1", authors=[{"key": "au-14", "entities": ["org", 7]}]),
        paper_line("P15", "J1", pub_date="2020-03-01", pub_month="null"),
    )
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {
        "malformed_journal": 1, "malformed_paper": 14, "unresolved_journal": 1}
    assert set(corpus.journals) == {"J1"}
    assert set(corpus.papers) == set()
    with pytest.raises(LoadError):
        load_corpus(journals, papers, strict=True)
    year_rows = write(tmp_path / "years.jsonl", paper_line("P1", "J1"),
                      paper_line("P9", "J1", year=2020.5))
    with pytest.raises(LoadError) as err:
        load_corpus(write(tmp_path / "j1.jsonl", REGISTRY, journal_line("J1", {})),
                    year_rows, strict=True)
    assert str(err.value) == "years.jsonl:2: field 'year' is not an integer: 2020.5"
    with pytest.raises(LoadError) as err:
        load_corpus(write(tmp_path / "j1.jsonl", REGISTRY, journal_line("J1", {})),
                    write(tmp_path / "dates.jsonl", paper_line("P13", "J1", pub_date="2021-02-30")),
                    strict=True)
    assert str(err.value) == "dates.jsonl:1: malformed date '2021-02-30'"
    with pytest.raises(LoadError) as err:
        load_corpus(write(tmp_path / "j1.jsonl", REGISTRY, journal_line("J1", {})),
                    write(tmp_path / "months.jsonl",
                          paper_line("P15", "J1", pub_date="2020-03-01", pub_month="null")),
                    strict=True)
    assert str(err.value) == "months.jsonl:1: malformed month 'null'"


def test_a_pub_month_beside_a_pub_date_is_checked_in_csv(tmp_path):
    journals = write(tmp_path / "j.csv", "id,categories,metric",
                     '_schemas,"{""f"": {}}",', 'J1,"{""f"": [""A""]}",')
    papers = write(tmp_path / "p.csv", "id,journal,year,doc_type,pub_date,pub_month",
                   "P1,J1,2020,article,2020-03-01,2020-04",
                   "P2,J1,2020,article,2020-03-01,null")
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_paper": 1}
    p1 = corpus.papers["P1"]  # the issue date wins over a well-formed month
    assert (p1.pub_date, p1.pub_date_precision) == (date(2020, 3, 1), DAY)
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == "p.csv:3: malformed month 'null'"


@pytest.mark.parametrize("row, other", [
    ({"_schemas": {"f": {}}, "metric": "junk"}, {"metric": "junk"}),
    ({"_schemas": {"f": {}}, "id": "_schemas"}, {"id": "_schemas"}),
    ({"id": "_schemas", "categories": {"f": {}}, "metric": {"2020": 1}},
     {"metric": {"2020": 1}}),
    ({"id": "_schemas", "categories": {"f": {}}, "name": "x"}, {"name": "x"}),
])
def test_a_registry_row_with_other_fields_is_rejected(tmp_path, row, other):
    journals = write(tmp_path / "j.jsonl", json.dumps(row), journal_line("J1", {"f": ["A"]}))
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"))
    assert load_corpus(journals, papers).load_report.dropped == {
        "malformed_journal": 1, "unknown_schema": 1}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == f"j.jsonl:1: schema registry row has other fields: {other!r}"


@pytest.mark.parametrize("metric, other", [
    ("", None), ("{}", None), ("junk", "junk"), ('"{""2020"": 1}"', '{"2020": 1}')])
def test_a_csv_registry_row_takes_only_an_empty_metric(tmp_path, metric, other):
    journals = write(tmp_path / "j.csv", "id,categories,metric",
                     f'_schemas,"{{""f"": {{}}}}",{metric}', 'J1,"{""f"": [""A""]}",')
    papers = write(tmp_path / "p.csv", "id,journal,year,doc_type", "P1,J1,2020,article")
    if other is None:
        assert load_corpus(journals, papers, strict=True).schemas == {"f": SchemaInfo("f")}
        return
    assert load_corpus(journals, papers).load_report.dropped == {
        "malformed_journal": 1, "unknown_schema": 1}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == (
        f"j.csv:2: schema registry row has other fields: {{'metric': {other!r}}}")


@pytest.mark.parametrize("again", [
    {"_schemas": {"f": {"single_attribution": False}}},
    {"id": "_schemas", "categories": {"f": {"single_attribution": False}}, "metric": {}},
    {"_schemas": ["f"]},
], ids=["jsonl-spelling", "csv-spelling", "malformed"])
def test_a_second_registry_row_is_refused(tmp_path, again):
    journals = write(tmp_path / "j.jsonl",
                     json.dumps({"_schemas": {"f": {"single_attribution": True}}}),
                     journal_line("J1", {"f": ["A", "B"]}), json.dumps(again))
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"))
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"duplicate_schema_registry": 1}
    assert corpus.schemas == {"f": SchemaInfo("f", True)}  # the first row stands
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == "j.jsonl:3: duplicate schema registry (the first is at j.jsonl:1)"


def test_a_registry_row_after_a_malformed_one_loads(tmp_path):
    journals = write(tmp_path / "j.jsonl", json.dumps({"_schemas": ["f"]}),
                     json.dumps({"_schemas": {"f": {}}}), journal_line("J1", {"f": ["A"]}))
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"))
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_journal": 1}
    assert corpus.schemas == {"f": SchemaInfo("f")}


def test_a_second_csv_registry_row_is_refused(tmp_path):
    journals = write(tmp_path / "j.csv", "id,categories,metric",
                     '_schemas,"{""f"": {""single_attribution"": true}}",',
                     'J1,"{""f"": [""A"", ""B""]}",',
                     '_schemas,"{""f"": {""single_attribution"": false}}",')
    papers = write(tmp_path / "p.csv", "id,journal,year,doc_type", "P1,J1,2020,article")
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"duplicate_schema_registry": 1}
    assert corpus.schemas == {"f": SchemaInfo("f", True)}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == "j.csv:4: duplicate schema registry (the first is at j.csv:2)"


def test_a_category_listed_twice_is_rejected(tmp_path):
    # Listing A twice would put J1's papers into cell A twice.
    journals = write(
        tmp_path / "j.jsonl", REGISTRY,
        journal_line("J1", {corpora.SCHEMA: ["A", "A"]}, {"2020": 2}),
        journal_line("J2", {corpora.SCHEMA: ["A"]}),
    )
    papers = write(tmp_path / "p.jsonl", paper_line("p1", "J1", citations=10),
                   paper_line("p2", "J2"), paper_line("p3", "J2"))
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_journal": 1, "unresolved_journal": 1}
    assert set(corpus.journals) == {"J2"}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == (
        "j.jsonl:2: journal 'J1' lists a category twice: {'subjects': ['A', 'A']}"
    )


@pytest.mark.parametrize("registry", [{corpora.SCHEMA: True}, [corpora.SCHEMA]])
def test_a_registry_that_is_not_an_object_of_objects_is_rejected(tmp_path, registry):
    journals = write(
        tmp_path / "j.jsonl",
        json.dumps({"_schemas": registry}),
        journal_line("J1", {corpora.SCHEMA: ["A"]}),
    )
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"))
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_journal": 1, "unknown_schema": 1}
    assert corpus.schemas == {}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == (
        f"j.jsonl:1: schema registry is not an object of objects: {registry!r}"
    )


def test_invalid_json_in_a_journal_cell_is_located_once(tmp_path):
    journals = write(
        tmp_path / "j.jsonl", REGISTRY,
        json.dumps({"id": "J1", "categories": "{not json", "metric": {}}),
    )
    papers = write(tmp_path / "p.jsonl")
    assert load_corpus(journals, papers).load_report.dropped == {"malformed_journal": 1}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value) == (
        "j.jsonl:2: field 'categories' is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def test_a_string_where_a_list_belongs_is_rejected_in_csv_cells(tmp_path):
    journals = tmp_path / "j.csv"
    journals.write_text(
        'id,categories,metric\n'
        '_schemas,"{""f"": {""single_attribution"": false}}",\n'
        'J1,"{""f"": [""ecology""]}",\n'
        'J2,"{""f"": ""ecology""}",\n',
        encoding="utf-8",
    )
    papers = tmp_path / "p.csv"
    papers.write_text(
        "id,journal,year,doc_type,authors\n"
        'P1,J1,2020,article,"[{""key"": ""a"", ""entities"": [""org""]}]"\n'
        'P2,J1,2020,article,"[{""key"": ""a"", ""entities"": ""org""}]"\n',
        encoding="utf-8",
    )
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_journal": 1, "malformed_paper": 1}
    assert corpus.journals["J1"].categories == {"f": ("ecology",)}
    assert corpus.papers["P1"].authors[0].entities == ("org",)
    assert set(corpus.papers) == {"P1"}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value).startswith("j.csv:4:")
    journals.write_text("\n".join(journals.read_text(encoding="utf-8").splitlines()[:3]) + "\n",
                        encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value).startswith("p.csv:3:")


@pytest.mark.parametrize("field", ["pages", "citations"])
def test_non_integer_count_is_dropped_when_lenient(tmp_path, field):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", **{field: "x"}),
        paper_line("P2", "J1", **{field: None}),
        paper_line("P3", "J1", **{field: 4}),
        paper_line("P4", "J1", **{field: 3.5}),
        paper_line("P5", "J1", **{field: True}),
        paper_line("P6", "J1", **{field: 6.0}),
    )
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_paper": 4}
    assert set(corpus.papers) == {"P3", "P6"}
    assert any("p.jsonl:1" in note and field in note for note in corpus.load_report.notes)


@pytest.mark.parametrize("field", ["pages", "citations"])
def test_non_integer_count_is_located_when_strict(tmp_path, field):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", **{field: 4}),
        paper_line("P2", "J1", **{field: "x"}),
    )
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value).startswith("p.jsonl:2:")
    assert repr(field) in str(err.value)


# Each is accepted by ``int`` or, from Python 3.11 on, ``date.fromisoformat``.
OFF_SPELLINGS = {
    "digit separator": {"citations": "1_000"},
    "spaces": {"citations": " 12 "},
    "plus sign": {"pages": "+5"},
    "arabic-indic digit": {"year": "\u0663"},
    "month part with a sign": {"pub_month": "2020-+3"},
    "month with a space": {"pub_month": " 3"},
    "year part with a separator": {"pub_month": "2_020-03"},
    "basic date": {"pub_date": "20200115"},
    "week date": {"online_date": "2020-W03-2"},
}


@pytest.mark.parametrize("spelling", OFF_SPELLINGS)
def test_integers_and_dates_take_one_spelling(tmp_path, spelling):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", year="-0012", citations="007", pages="-3", pub_month="0012-03",
                   online_date="2011-07-13"),
        paper_line("P2", "J1", **OFF_SPELLINGS[spelling]),
    )
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_paper": 1}
    p1 = corpus.papers["P1"]
    assert (p1.year, corpus.citation_counts["P1"], p1.page_count) == (-12, 7, -3)
    assert (p1.pub_date, p1.online_date) == (date(12, 3, 1), date(2011, 7, 13))
    with pytest.raises(LoadError, match="^p.jsonl:2: "):
        load_corpus(journals, papers, strict=True)


@pytest.mark.parametrize("year", [" 2020_0 ", "+2020", "\u0662\u0660\u0662\u0660"])
def test_metric_years_take_the_integer_spelling(tmp_path, year):
    journals = write(
        tmp_path / "j.jsonl", REGISTRY,
        journal_line("J1", {corpora.SCHEMA: ["A"]}, {"-0020": 1}),
        journal_line("J2", {corpora.SCHEMA: ["A"]}, {year: 1}),
    )
    papers = write(tmp_path / "p.jsonl")
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"malformed_journal": 1}
    assert corpus.journals["J1"].metric_by_year == {-20: 1}
    with pytest.raises(LoadError, match="^j.jsonl:3: "):
        load_corpus(journals, papers, strict=True)


@pytest.mark.parametrize("when", ["20210502", "2021-W18-7"])
def test_edge_dates_take_one_spelling(tmp_path, minimal_paths, when):
    journals, papers, _ = minimal_paths
    edges = write(tmp_path / "e.jsonl", json.dumps({"citing": "X1", "cited": "P1", "date": when}))
    assert load_corpus(journals, papers, edges).load_report.dropped == {"malformed_edge": 1}


def test_negative_citations_are_rejected(tmp_path):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        paper_line("P1", "J1", citations=5),
        paper_line("P2", "J1", citations=-3),
        paper_line("P3", "J1", citations=0),
    )
    corpus = load_corpus(journals, papers)
    assert corpus.load_report.dropped == {"negative_citations": 1}
    assert set(corpus.papers) == {"P1", "P3"}
    assert corpus.explicit_counts == {"P1": 5, "P3": 0}
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers, strict=True)
    assert str(err.value).startswith("p.jsonl:2:")
    assert "-3" in str(err.value)


def test_missing_file_is_a_load_error(tmp_path, minimal_paths):
    journals, _, _ = minimal_paths
    for strict in (False, True):
        with pytest.raises(LoadError) as err:
            load_corpus(journals, tmp_path / "absent.jsonl", strict=strict)
        assert "absent.jsonl" in str(err.value)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_undecodable_input_is_located(tmp_path, suffix):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = tmp_path / f"p{suffix}"
    if suffix == ".csv":
        good = "id,journal,year,doc_type\n" + "".join(f"P{i},J1,2020,article\n" for i in range(999))
    else:
        good = "".join(paper_line(f"P{i}", "J1") + "\n" for i in range(1000))
    # Past the first read chunk, so the line is found by position, not by read order.
    papers.write_bytes(good.encode() + b"\xff\xfe" + paper_line("X", "J1").encode() + b"\n")
    for strict in (False, True):
        with pytest.raises(LoadError) as err:
            load_corpus(journals, papers, strict=strict)
        assert str(err.value).startswith(f"p{suffix}:1001: not valid UTF-8")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_leading_byte_order_mark_is_ignored(fmt, corpus_files):
    original = corpora.make_quota_mini()
    journals, papers, edges = corpus_files(original, fmt=fmt)
    journals.write_bytes(b"\xef\xbb\xbf" + journals.read_bytes())
    assert load_corpus(journals, papers, edges, strict=True) == original


def test_blank_lines_are_skipped_and_still_counted(tmp_path):
    journals = write(tmp_path / "j.jsonl", REGISTRY, "", journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"), "  ", paper_line("P2", "GHOST"))
    corpus = load_corpus(journals, papers)
    assert (set(corpus.papers), corpus.load_report.dropped) == ({"P1"}, {"unresolved_journal": 1})
    with pytest.raises(LoadError, match="^p.jsonl:3: "):
        load_corpus(journals, papers, strict=True)


@pytest.mark.parametrize("text, message", [
    # csv refuses a NUL before Python 3.11 and reads it from then on; no Python loads it here
    ("id,journal,year,doc_type\nP1,J1,2020,article\nP\0,J1,2020,article\n",
     "p.csv:3: NUL character in a CSV file"),
    ('id,journal,year,doc_type\nP1,J1,2020,article\n"P2\n' + "x" * 131_072 + '",J1,2020,a\n',
     "p.csv:4: field larger than field limit (131072)"),
    ("id" + "x" * 131_072 + ",journal,year,doc_type\nP1,J1,2020,article\n",
     "p.csv:1: field larger than field limit (131072)"),
], ids=["nul", "oversized-cell", "oversized-header"])
def test_a_csv_file_that_csv_cannot_read_is_located(tmp_path, text, message):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = tmp_path / "p.csv"
    papers.write_text(text, encoding="utf-8", newline="")
    for strict in (False, True):
        with pytest.raises(LoadError) as err:
            load_corpus(journals, papers, strict=strict)
        assert str(err.value) == message


CSV_FILES = {
    "j.csv": ["id,categories,metric", '_schemas,"{""f"": {}}",', 'J1,"{""f"": [""A""]}",'],
    "p.csv": ["id,journal,year,doc_type", "P1,J1,2020,article", "P2,J1,2020,article"],
    "e.csv": ["citing,cited", "P1,P2"],
}


@pytest.mark.parametrize("name, lines, column", [
    ("j.csv", ["id,categories,metric,id", '_schemas,"{""f"": {}}",,',
               'J1,"{""f"": [""A""]}",,J2'], "id"),
    ("p.csv", ["id,journal,year,doc_type,year", "P1,J1,2020,article,2021"], "year"),
    ("e.csv", ["citing,cited,cited", "P1,P2,P3"], "cited"),
])
def test_a_csv_header_that_names_a_column_twice_is_located(tmp_path, name, lines, column):
    paths = [write(tmp_path / file, *(lines if file == name else rows))
             for file, rows in CSV_FILES.items()]
    for strict in (False, True):
        with pytest.raises(LoadError) as err:
            load_corpus(*paths, strict=strict)
        assert str(err.value) == f"{name}:1: the CSV header names column {column!r} twice"


def test_a_csv_header_may_repeat_an_empty_column_name(tmp_path):
    # as in a spreadsheet export's trailing ",,"
    paths = [write(tmp_path / file, *(row + ",," for row in rows))
             for file, rows in CSV_FILES.items()]
    corpus = load_corpus(*paths, strict=True)
    assert (set(corpus.journals), set(corpus.papers), len(corpus.edges)) == ({"J1"}, {"P1", "P2"}, 1)


DIRTY_LOAD = json.loads(
    (cli_cases.GOLDEN_DIR / "validate-dirty.out").read_text(encoding="utf-8"))["load"]
DIRTY_NOTES = [note for note in DIRTY_LOAD["notes"] if not note.endswith(" collapsed")]
# What a lenient load keeps of a dirty row: the journal that paper P3 names,
# without its unknown schema, and nothing of the rows it drops.
DIRTY_KEPT = {"j.jsonl:5": '{"id": "J3", "categories": {}}'}


@pytest.mark.parametrize("note", DIRTY_NOTES, ids=lambda note: note.split(": ")[0])
def test_strict_mode_names_each_dropped_row_as_lenient_mode_notes_it(tmp_path, note):
    """Each dropped row of the dirty CLI fixture, the one bad row among the rows a
    lenient load keeps and on its own line, aborts a strict load with its note."""
    assert len(DIRTY_NOTES) == sum(DIRTY_LOAD["dropped"].values())  # one note per drop
    paths = []
    for name, rows in cli_cases.DIRTY.items():
        lines = list(rows)
        for other in DIRTY_NOTES:
            file, line = other.split(": ")[0].split(":")
            if file == name and other != note:
                lines[int(line) - 1] = DIRTY_KEPT.get(f"{file}:{line}", "")
        paths.append(write(tmp_path / name, *lines))
    with pytest.raises(LoadError) as err:
        load_corpus(*paths, strict=True)
    assert str(err.value) == note


def test_invalid_json_line_always_raises(tmp_path):
    journals = write(tmp_path / "j.jsonl", REGISTRY, "{not json")
    papers = write(tmp_path / "p.jsonl")
    with pytest.raises(LoadError) as err:
        load_corpus(journals, papers)
    assert "j.jsonl:2" in str(err.value)


@pytest.mark.parametrize("bad", [
    '{"id": "x"} y', '{"a":1}{"b":2}', "\ufeff" + paper_line("P9", "J1"), '{"a": }', "nul", "[1",
])
def test_a_bad_json_line_gives_the_decoders_own_message(tmp_path, bad):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(tmp_path / "p.jsonl", paper_line("P1", "J1"), bad, paper_line("P2", "J1"))
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(bad)
    for strict in (False, True):
        with pytest.raises(LoadError) as err:
            load_corpus(journals, papers, strict=strict)
        assert str(err.value) == f"p.jsonl:2: not valid JSON: {decode.value}"


@pytest.mark.parametrize("enabled", [True, False])
def test_a_load_leaves_the_collector_as_it_found_it(tmp_path, minimal_paths, enabled):
    journals, papers, edges = minimal_paths
    bad_papers = write(tmp_path / "bad.jsonl", paper_line("P1", "J1"), paper_line("P2", "GHOST"))
    calls = [
        lambda: load_corpus(journals, papers, edges),
        lambda: load_corpus(journals, bad_papers, strict=True),
        lambda: load_corpus(journals, papers, tmp_path / "absent.jsonl"),
    ]
    (gc.enable if enabled else gc.disable)()
    try:
        for call in calls:
            with contextlib.suppress(LoadError):
                call()
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    with pytest.raises(LoadError, match="bad.jsonl:2"):
        calls[1]()
    with pytest.raises(LoadError, match="absent.jsonl"):
        calls[2]()


def test_a_load_ages_its_records_and_leaves_the_freeze_count_as_found(
    tmp_path, minimal_paths, monkeypatch
):
    journals, papers, edges = minimal_paths
    bad_papers = write(tmp_path / "bad.jsonl", paper_line("P1", "J1"), paper_line("P2", "GHOST"))
    events, freeze, unfreeze = [], gc.freeze, gc.unfreeze
    monkeypatch.setattr(gc, "freeze", lambda: (freeze(), events.append("freeze")))
    monkeypatch.setattr(gc, "unfreeze", lambda: (unfreeze(), events.append("unfreeze")))
    corpus = load_corpus(journals, papers, edges)
    assert events == ["freeze", "unfreeze"]
    assert (gc.get_freeze_count(), gc.isenabled()) == (0, True)
    assert any(o is corpus for o in gc.get_objects(generation=2))
    events.clear()
    with pytest.raises(LoadError):
        load_corpus(journals, bad_papers, strict=True)
    assert events == [] and (gc.get_freeze_count(), gc.isenabled()) == (0, True)
    freeze()  # a caller's frozen objects stay frozen, whatever the load does
    try:
        frozen = gc.get_freeze_count()
        load_corpus(journals, papers, edges)
        with pytest.raises(LoadError):
            load_corpus(journals, bad_papers, strict=True)
        assert events == [] and (gc.get_freeze_count(), gc.isenabled()) == (frozen, True)
    finally:
        unfreeze()


def test_edge_endpoints_are_the_papers_own_ids(minimal_paths):
    corpus = load_corpus(*minimal_paths)
    for edge in corpus.edges:
        assert edge.citing is corpus.papers[edge.citing].id
        assert edge.cited is corpus.papers[edge.cited].id


@pytest.mark.parametrize("kind", ["journal", "paper", "edge"])
def test_a_csv_row_with_more_cells_than_its_header_is_malformed(tmp_path, kind):
    files = {
        "journal": ["id,categories,metric",
                    '_schemas,"{""f"": {""single_attribution"": false}}",',
                    'J1,"{""f"": [""A""]}",', 'J2,"{""f"": [""A""]}",'],
        "paper": ["id,journal,year,doc_type,citations",
                  "P1,J1,2020,article,3", "P2,J1,2020,article,1", "P3,J1,2020,article,0"],
        "edge": ["citing,cited", "P1,P2", "P2,P1"],
    }
    files[kind][-1] += ",EXTRA,MORE"  # every file's last row is cited by no other row
    paths = [write(tmp_path / f"{name}.csv", *lines) for name, lines in files.items()]
    corpus = load_corpus(*paths)
    assert corpus.load_report.dropped == {f"malformed_{kind}": 1}
    kept = {"journal": corpus.journals, "paper": corpus.papers, "edge": corpus.edges}
    for name, rows in kept.items():
        assert len(rows) == len(files[name]) - 1 - (name == "journal") - (name == kind)
    with pytest.raises(LoadError) as err:
        load_corpus(*paths, strict=True)
    assert str(err.value) == (f"{kind}.csv:{len(files[kind])}: row has more cells than its "
                              "header: ['EXTRA', 'MORE']")


def test_note_cap(tmp_path):
    journals = write(tmp_path / "j.jsonl", REGISTRY, journal_line("J1", {corpora.SCHEMA: ["A"]}))
    papers = write(
        tmp_path / "p.jsonl",
        *[paper_line(f"P{i}", "GHOST") for i in range(30)],
    )
    report = load_corpus(journals, papers).load_report
    assert report.dropped["unresolved_journal"] == 30
    assert len(report.notes) == 20


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_edge_corpus(fmt, reload):
    original = corpora.make_quota_mini()
    assert reload(original, fmt=fmt) == original


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_count_corpus(fmt, tmp_path, reload):
    simpson = corpora.make_simpson()
    # One paper with a day-precision issue date and a page count.
    papers = [replace(p, pub_date=date(2020, 5, 17), page_count=12) if p.id == "RC1" else p
              for p in simpson.papers.values()]
    original = Corpus(simpson.schemas.values(), simpson.journals.values(), papers,
                      citation_counts=simpson.explicit_counts)
    again = reload(original, fmt=fmt)
    rc1 = again.papers["RC1"]
    assert (rc1.pub_date, rc1.pub_date_precision, rc1.page_count) == (date(2020, 5, 17), DAY, 12)
    assert again == original


def test_round_trip_preserves_month_precision(reload):
    original = corpora.make_math2011()
    again = reload(original)
    b2 = again.papers["b2"]
    assert (b2.pub_date, b2.pub_date_precision) == (date(2011, 11, 1), MONTH)
    assert again == original


ODD = 'x,y "z"\rCR\nLF\r\n'  # every character a CSV field is quoted for


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_of_strings_with_csv_special_characters(fmt, reload):
    quoted = Corpus(
        [SchemaInfo("s" + ODD)],
        [Journal("J" + ODD, {"s" + ODD: ("Engineering, Electrical & Electronic", "c" + ODD)},
                 {2020: Fraction(1, 3)})],
        [Paper("p" + ODD, "J" + ODD, 2020, "article" + ODD,
               authors=(AuthorCredit("a" + ODD, ("e" + ODD, "org")),)),
         # Only a lone CR: csv.writer leaves it unquoted before Python 3.13.
         Paper("p\rq", "J" + ODD, 2021, "article")],
        [CitationEdge("p\rq", "p" + ODD, date(2021, 3, 1))],
    )
    assert reload(quoted, fmt=fmt) == quoted


def test_csv_registry_row_and_nested_cells(tmp_path, corpus_files):
    journals, papers, edges = corpus_files(corpora.make_quota_mini(), fmt="csv")
    header, first = journals.read_text(encoding="utf-8").splitlines()[:2]
    assert header == "id,categories,metric"
    assert first.startswith('_schemas,"{""f"":')
    corpus = load_corpus(journals, papers, edges)
    assert corpus.load_report.clean
    assert corpus.schemas["f"].single_attribution is True


def test_dump_refuses_edges_for_count_corpus(tmp_path, two_papers):
    with pytest.raises(LoadError):
        dump_corpus(two_papers, tmp_path / "j.jsonl", tmp_path / "p.jsonl", tmp_path / "e.jsonl")


def test_dump_emits_exact_rationals(tmp_path):
    corpus = corpora.make_two_papers()
    dump_corpus(corpus, tmp_path / "j.jsonl", tmp_path / "p.jsonl")
    again = load_corpus(tmp_path / "j.jsonl", tmp_path / "p.jsonl")
    assert again.journals["JA"].metric_by_year[2020] == Fraction(5, 2)
    assert again == corpus
    # A metric with no finite decimal form is written as "num/den".
    journals = {**corpus.journals, "JA": corpus.journals["JA"]._replace(
        metric_by_year={2020: Fraction(1, 3)})}
    corpus = Corpus(corpus.schemas.values(), journals.values(), corpus.papers.values(),
                    citation_counts=corpus.explicit_counts)
    dump_corpus(corpus, tmp_path / "j.jsonl", tmp_path / "p.jsonl")
    assert '"metric":{"2020":"1/3"}' in (tmp_path / "j.jsonl").read_text(encoding="utf-8")
    assert load_corpus(tmp_path / "j.jsonl", tmp_path / "p.jsonl") == corpus
    # So is one beyond a float's range, which once raised OverflowError.
    corpus.journals["JA"].metric_by_year[2020] = Fraction(10**400)
    dump_corpus(corpus, tmp_path / "j.jsonl", tmp_path / "p.jsonl")
    assert load_corpus(tmp_path / "j.jsonl", tmp_path / "p.jsonl") == corpus


def test_dump_refuses_a_csv_cell_that_would_not_load_back(tmp_path):
    """A NUL, which loading refuses, or an empty string, which loading reads as a
    missing field, stops a CSV dump at its record; JSON lines carry both."""
    corpus = Corpus([SchemaInfo("s")], [Journal("J\0", {}, {}), Journal("J", {"s": ("A",)}, {})],
                    [Paper("P1", "J", 2020, "article"), Paper("P2", "J", 2020, ""),
                     Paper("", "J", 2020, "article")],
                    [CitationEdge("P1", "P2"), CitationEdge("P2", "")])
    cases = {
        "j.csv": "j.csv: record 'J\\x00' holds a NUL character, which a CSV file cannot carry",
        "p.csv": "p.csv: record 'P2' holds an empty string, which a CSV file cannot carry",
        "e.csv": "e.csv: record 'P2'->'' holds an empty string, which a CSV file cannot carry",
    }
    for bad, message in cases.items():
        paths = [tmp_path / (bad if bad[0] == kind else f"{kind}.jsonl") for kind in "jpe"]
        with pytest.raises(LoadError) as err:
            dump_corpus(corpus, *paths)
        assert str(err.value) == message
        assert len((tmp_path / bad).read_text(encoding="utf-8").splitlines()) == 2  # header, row
    paths = [tmp_path / f"{kind}.jsonl" for kind in "jpe"]
    dump_corpus(corpus, *paths)
    assert load_corpus(*paths, strict=True) == corpus


@pytest.mark.parametrize("suffix", ["jsonl", "csv"])
def test_dump_refuses_a_journal_named_like_the_registry_row(tmp_path, suffix):
    """Loading reads a journals row with id ``_schemas`` as the schema registry,
    so such a journal cannot round-trip: the dump refuses it before any write."""
    corpus = Corpus([SchemaInfo("s")], [Journal("_schemas", {"s": ("A",)}, {2020: 1})],
                    [Paper("P1", "_schemas", 2020, "article")], [])
    paths = [tmp_path / f"{kind}.{suffix}" for kind in "jpe"]
    with pytest.raises(LoadError) as err:
        dump_corpus(corpus, *paths)
    assert str(err.value) == f"j.{suffix}: record '_schemas' is the id of the registry row"
    assert list(tmp_path.iterdir()) == []


# Any text but NUL and lone surrogates, which no UTF-8 file can hold.
NAMES = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"), max_size=5)


@st.composite
def whole_corpora(draw):
    """Corpora whose papers name their journals, journals their schemas and
    edges their papers, with no repeated category or entity in one list."""
    schemas = draw(st.lists(st.builds(SchemaInfo, NAMES, st.booleans()),
                            max_size=3, unique_by=lambda s: s.name))
    members = st.lists(NAMES, max_size=3, unique=True).map(tuple)
    journals = [
        Journal(jid, draw(st.dictionaries(st.sampled_from([s.name for s in schemas]), members)
                          if schemas else st.just({})),
                draw(st.dictionaries(st.integers(), st.fractions(), max_size=2)))
        for jid in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    ]
    issue = st.one_of(st.tuples(st.none(), st.just(DAY)), st.tuples(st.dates(), st.just(DAY)),
                      st.tuples(st.dates().map(lambda d: d.replace(day=1)), st.just(MONTH)))
    authors = st.lists(st.builds(AuthorCredit, NAMES, members), max_size=3).map(tuple)
    papers, counts = [], {}
    for pid in draw(st.lists(NAMES, max_size=5, unique=True)):
        pub, precision = draw(issue)
        papers.append(Paper(pid, draw(st.sampled_from([j.id for j in journals])),
                            draw(st.integers()), draw(NAMES), draw(st.none() | st.dates()),
                            pub, precision, draw(authors), draw(st.none() | st.integers())))
        count = draw(st.none() | st.integers(min_value=0))
        if count is not None:
            counts[pid] = count
    pairs = [(p.id, q.id) for p in papers for q in papers if p is not q]
    edges = None
    if draw(st.booleans()):
        edges = [CitationEdge(citing, cited, draw(st.none() | st.dates())) for citing, cited
                 in (draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs
                     else ())]
    return Corpus(schemas, journals, papers, edges, citation_counts=counts)


@given(corpus=whole_corpora())
def test_any_corpus_round_trips_through_jsonl_and_csv(corpus):
    """Dumped and loaded, a corpus comes back equal with a clean report. A CSV dump
    refuses an empty id or doc type, which would load back as a missing field."""
    empty = "" in corpus.journals or "" in corpus.papers or any(
        p.doc_type == "" for p in corpus.papers.values())
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in ("jsonl", "csv"):
            paths = [Path(tmp) / f"{kind}.{suffix}" for kind in "jpe"]
            if corpus.edges is None:
                paths[2] = None
            if suffix == "csv" and empty:
                with pytest.raises(LoadError, match="holds an empty string"):
                    dump_corpus(corpus, *paths)
                continue
            dump_corpus(corpus, *paths)
            again = load_corpus(*paths)
            assert again.load_report.clean, again.load_report.notes
            assert again == corpus
