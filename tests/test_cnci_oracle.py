"""The per-cell kernels against the per-paper definitions in ``oracles``.

Baselines and set-level CNCI are computed from integer sums per cell, and
one paper's CNCI as one Fraction; these tests build random small corpora
(multi-attribution, uncited cells, papers without categories, arbitrary
subsets with repeats, reference pools that leave subunit papers out) and
require the package to give exactly the oracle's value, or the oracle's
exception type and message. The whole corpus's cell sums are folded once per
schema and kept; reference pools are folded on every call. The whole corpus's
baseline tables are kept too, and over them a paper's CNCI is computed once
per (journal, year, doc type, citation count).
"""
from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from biblio import (
    CnciConfig,
    ComputationError,
    Corpus,
    Journal,
    Paper,
    SchemaInfo,
    cnci_paper,
    cnci_set,
    compute_baselines,
    global_cnci,
    relative_cnci,
)
from biblio import normalization

S = "subjects"
COUNTINGS = (("whole", False), ("fractional", False), ("whole", True))
REGIMES = (
    CnciConfig("whole", "aor"),
    CnciConfig("fractional", "aor"),
    CnciConfig("whole", "roa"),
    CnciConfig("whole", "roa", split_citations=True),
    CnciConfig("fractional", "roa"),
)


@st.composite
def worlds(draw):
    """A corpus plus a subunit and a reference pool drawn from its papers."""
    # k runs 1..5, so a slice's lcm of k reaches 60 and cells mix units
    categories = st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True)
    journals = [
        # about one journal in six has no category under the schema
        Journal(f"j{i}", {S: tuple(cats)} if draw(st.integers(0, 5)) else {}, {})
        for i, cats in enumerate(draw(st.lists(categories, min_size=1, max_size=5)))
    ]
    papers, counts = [], {}
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        pid = f"p{i}"
        papers.append(Paper(
            pid,
            draw(st.sampled_from(journals)).id,
            draw(st.sampled_from((2020, 2021))),
            draw(st.sampled_from(("article", "review"))),
        ))
        counts[pid] = draw(st.sampled_from((0, 0, 0, 1, 2, 7)))
    corpus = Corpus([SchemaInfo(S)], journals, papers, citation_counts=counts)
    subset = st.lists(st.sampled_from(papers), min_size=1, max_size=10)
    return corpus, draw(subset), draw(subset)


def assert_same(kernel, oracle):
    expected = oracles.outcome(oracle)
    got = oracles.outcome(kernel)
    if isinstance(expected, Fraction):
        assert type(got) is Fraction
    assert got == expected


def table_rows(table):
    return [(repr(k), c.expected, c.weight, c.papers) for k, c in table.cells.items()]


@settings(max_examples=300)
@given(worlds())
def test_baselines_match_the_per_paper_definition(world):
    corpus, subunit, reference = world
    for counting, split in COUNTINGS:
        for pool in (None, reference):
            got = compute_baselines(corpus, S, counting, split_citations=split, papers=pool)
            want = oracles.compute_baselines(
                corpus, S, counting, split_citations=split, papers=pool
            )
            assert table_rows(got) == table_rows(want)
            assert all(type(c.weight) is Fraction for c in got.cells.values())
            assert (got.schema, got.counting, got.split_citations) == (
                want.schema, want.counting, want.split_citations)


@settings(max_examples=300)
@given(worlds())
def test_paper_cnci_matches_the_per_field_definition(world):
    # tables over the reference pool: a cell outside it is missing, an uncited one zero
    corpus, _, reference = world
    for counting, split in COUNTINGS:
        table = oracles.compute_baselines(
            corpus, S, counting, split_citations=split, papers=reference
        )
        for paper in corpus.papers.values():
            assert_same(lambda: cnci_paper(corpus, paper, table),
                        lambda: oracles.cnci_paper(corpus, paper, table))


def uncited_group_world():
    """Two uncited papers of one group, so their cells have a zero baseline, and
    a cited group beside them."""
    journals = [Journal("JA", {S: ("A",)}, {}), Journal("JAB", {S: ("A", "B")}, {}),
                Journal("J0", {}, {})]
    papers = [Paper("u1", "JA", 2020, "review"), Paper("u2", "JA", 2020, "review"),
              Paper("c1", "JAB", 2020, "article"), Paper("c2", "JAB", 2020, "article"),
              Paper("c3", "JA", 2020, "article"), Paper("n1", "J0", 2020, "article")]
    counts = {"u1": 0, "u2": 0, "c1": 2, "c2": 2, "c3": 7, "n1": 1}
    return Corpus([SchemaInfo(S)], journals, papers, citation_counts=counts), [], []


@settings(max_examples=300)
@example(uncited_group_world())
@given(worlds())
def test_paper_cnci_over_the_corpus_tables_matches_the_per_field_definition(world):
    # the corpus's own tables: every paper forward, then reversed, then cited
    # papers moved into the group of an uncited paper whose value is kept
    corpus = world[0]
    tables = [compute_baselines(corpus, S, counting, split_citations=split)
              for counting, split in COUNTINGS]
    papers = list(corpus.papers.values())
    counts = corpus.citation_counts
    moved = [replace(cited, journal_id=uncited.journal_id, year=uncited.year,
                     doc_type=uncited.doc_type)
             for uncited in papers if not counts[uncited.id]
             for cited in papers if counts[cited.id]]
    for paper in papers + papers[::-1] + moved:
        for table in tables:
            assert_same(lambda: cnci_paper(corpus, paper, table),
                        lambda: oracles.cnci_paper(corpus, paper, table))


def test_the_per_field_body_runs_once_per_key_on_the_corpus_table_only(monkeypatch):
    corpus = uncited_group_world()[0]
    papers = list(corpus.papers.values())[:5]  # n1 has no category
    calls = []
    # a memo hit never reads the paper's fields, so each read is one run of the body
    categories_of = corpus.categories_of
    monkeypatch.setattr(corpus, "categories_of",
                        lambda *args: calls.append(args) or categories_of(*args))

    def calls_per_pass(table):
        counts = []
        for _ in range(2):
            calls.clear()
            values = [cnci_paper(corpus, paper, table) for paper in papers]
            counts.append(len(calls))
            assert values == [oracles.cnci_paper(corpus, paper, table) for paper in papers]
        return counts

    for counting, split in COUNTINGS:
        table = compute_baselines(corpus, S, counting, split_citations=split)
        # u1 and u2 share a key, as do c1 and c2; the second pass reads only kept values
        assert calls_per_pass(table) == [3, 0]
        pool = compute_baselines(corpus, S, counting, split_citations=split, papers=papers)
        assert pool.cells == table.cells
        assert calls_per_pass(pool) == [5, 5]
        assert calls_per_pass(table._replace(cells=dict(table.cells))) == [5, 5]
        assert calls_per_pass(oracles.compute_baselines(
            corpus, S, counting, split_citations=split)) == [5, 5]


def test_the_corpus_keeps_one_table_per_regime_and_none_per_pool():
    corpus = uncited_group_world()[0]
    pool = list(corpus.papers.values())
    tables = set()
    for counting, split in COUNTINGS:
        table = compute_baselines(corpus, S, counting, split_citations=split)
        assert compute_baselines(corpus, S, counting, split_citations=split) is table
        first = compute_baselines(corpus, S, counting, split_citations=split, papers=pool)
        again = compute_baselines(corpus, S, counting, split_citations=split, papers=pool)
        assert first == again == table and first is not again and first is not table
        tables.add(id(table))
    assert len(tables) == len(COUNTINGS)
    # the checks still run first on every call
    for _ in range(2):
        assert oracles.outcome(lambda: compute_baselines(corpus, S, "fractional",
                                                         split_citations=True)) == (
            ComputationError,
            "split_citations presumes whole paper counting; fractional counting already splits")
        assert oracles.outcome(lambda: compute_baselines(corpus, "other")) == (
            ComputationError, f"schema 'other' is not declared in the corpus (declared: {S!r})")


@settings(max_examples=300)
@given(worlds())
def test_set_aggregates_match_the_per_paper_definitions(world):
    corpus, subunit, reference = world
    for counting, split in COUNTINGS:
        for pool in (None, reference):
            table = oracles.compute_baselines(
                corpus, S, counting, split_citations=split, papers=pool
            )
            for papers in (subunit, reference, []):
                assert_same(lambda: cnci_set(corpus, iter(papers), table),
                            lambda: oracles.cnci_set(corpus, papers, table))


@settings(max_examples=200)
@given(
    worlds(),
    st.sampled_from((None, [2020], [2021], [2020, 2021], [1999])),
    st.sampled_from((None, ["article"], ["review"])),
)
def test_global_and_relative_cnci_match_the_oracle(world, years, doc_types):
    corpus, subunit, reference = world
    for config in REGIMES:
        for _ in range(2):  # the second call reads the sums the first one folded
            assert_same(lambda: global_cnci(corpus, S, config, years, doc_types),
                        lambda: oracles.global_cnci(corpus, S, config, years, doc_types))
    for counting in ("whole", "fractional"):
        assert_same(lambda: relative_cnci(corpus, subunit, reference, S, counting),
                    lambda: oracles.relative_cnci(corpus, subunit, reference, S, counting))


def test_the_corpus_is_folded_once_per_schema(monkeypatch):
    journals = [Journal("JA", {S: ("A",), "other": ("X", "Y")}, {}),
                Journal("JAB", {S: ("A", "B"), "other": ("X",)}, {})]
    papers = [Paper("p1", "JA", 2020, "article"), Paper("p2", "JAB", 2020, "article"),
              Paper("p3", "JAB", 2021, "review"), Paper("p4", "JA", 2021, "article")]
    corpus = Corpus([SchemaInfo(S), SchemaInfo("other")], journals, papers,
                    citation_counts={"p1": 3, "p2": 1, "p3": 4, "p4": 2})
    subunit, reference = papers[1:3], papers[:3]
    folds = []
    fold = normalization._fold
    monkeypatch.setattr(normalization, "_fold",
                        lambda *args: folds.append(1) or fold(*args))

    def pool_calls_match_the_oracle():
        for counting, split in COUNTINGS:
            got = compute_baselines(corpus, S, counting, split_citations=split, papers=reference)
            assert table_rows(got) == table_rows(oracles.compute_baselines(
                corpus, S, counting, split_citations=split, papers=reference))
        assert relative_cnci(corpus, subunit, reference, S) == oracles.relative_cnci(
            corpus, subunit, reference, S)

    # a pool is folded on its own and leaves the cache empty ...
    pool_calls_match_the_oracle()
    assert len(folds) == 5
    # ... so the whole corpus is folded once here, and only once
    for counting, split in COUNTINGS:
        assert table_rows(compute_baselines(corpus, S, counting, split_citations=split)) == (
            table_rows(oracles.compute_baselines(corpus, S, counting, split_citations=split)))
    for years, doc_types in ((None, None), ([2021], ["article"])):
        for config in REGIMES:
            assert global_cnci(corpus, S, config, years, doc_types) == oracles.global_cnci(
                corpus, S, config, years, doc_types)
    assert len(folds) == 6
    # a second schema is folded on its own
    other = compute_baselines(corpus, "other", "fractional")
    assert global_cnci(corpus, "other", REGIMES[1]) == 1
    assert len(folds) == 7
    assert table_rows(other) == table_rows(
        oracles.compute_baselines(corpus, "other", "fractional"))
    # with the cache warm, pools still see only their own papers
    pool_calls_match_the_oracle()
    assert len(folds) == 12
